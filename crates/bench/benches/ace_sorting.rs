//! §4 ablation: insertion sort vs bin sort for step 2.a
//! ("the term containing N^{3/2} can be made linear by bin-sort …
//! but c₁ is so small that it has not been necessary").

use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let spec = ace_workloads::chips::paper_chip("dchip")
        .unwrap()
        .scaled(0.1);
    let chip = ace_workloads::chips::generate_chip(&spec);
    let lib = ace_layout::Library::from_cif_text(&chip.cif).unwrap();
    let mut g = c.benchmark_group("ace_sorting");
    g.sample_size(10);
    g.bench_function("insertion_sort", |b| {
        b.iter(|| {
            ace_core::extract_library(
                &lib,
                "chip",
                ace_core::ExtractOptions::new().with_sort(ace_core::SortStrategy::Insertion),
            )
            .expect("extraction")
            .netlist
            .device_count()
        })
    });
    g.bench_function("bin_sort", |b| {
        b.iter(|| {
            ace_core::extract_library(
                &lib,
                "chip",
                ace_core::ExtractOptions::new().with_sort(ace_core::SortStrategy::Bin),
            )
            .expect("extraction")
            .netlist
            .device_count()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
