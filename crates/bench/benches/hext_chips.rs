//! HEXT Tables 5-1/5-2 workload: hierarchical vs flat extraction on
//! a regular (testram) and an irregular (schip2) chip proxy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("hext_chips");
    g.sample_size(10);
    for name in ["testram", "schip2"] {
        let spec = ace_workloads::chips::paper_chip(name).unwrap().scaled(0.1);
        let chip = ace_workloads::chips::generate_chip(&spec);
        let lib = ace_layout::Library::from_cif_text(&chip.cif).unwrap();
        g.bench_with_input(BenchmarkId::new("hext", name), &lib, |b, lib| {
            b.iter(|| {
                ace_hext::extract_hierarchical(lib, "chip")
                    .hier
                    .instantiated_device_count()
            })
        });
        g.bench_with_input(BenchmarkId::new("flat", name), &lib, |b, lib| {
            b.iter(|| {
                ace_core::extract_library(lib, "chip", ace_core::ExtractOptions::new())
                    .expect("extraction")
                    .netlist
                    .device_count()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
