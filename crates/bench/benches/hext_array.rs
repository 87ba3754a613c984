//! HEXT Table 4-1 workload: square arrays, hierarchical vs flat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("hext_array");
    g.sample_size(10);
    for s in [3u32, 4, 5] {
        let cells = ace_workloads::array::square_array_cells(s);
        let cif = ace_workloads::array::square_array_cif(s);
        let lib = ace_layout::Library::from_cif_text(&cif).unwrap();
        g.bench_with_input(BenchmarkId::new("hext", cells), &lib, |b, lib| {
            b.iter(|| {
                ace_hext::extract_hierarchical(lib, "array")
                    .hier
                    .instantiated_device_count()
            })
        });
        g.bench_with_input(BenchmarkId::new("flat", cells), &lib, |b, lib| {
            b.iter(|| {
                ace_core::extract_library(lib, "array", ace_core::ExtractOptions::new())
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
