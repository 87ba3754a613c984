//! ACE §4 worst case: the N×N transistor mesh (quadratic devices
//! from linear boxes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ace_mesh_worst_case");
    g.sample_size(10);
    for n in [8u32, 16, 32, 64] {
        let cif = ace_workloads::mesh::mesh_cif(n);
        let lib = ace_layout::Library::from_cif_text(&cif).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(n), &lib, |b, lib| {
            b.iter(|| {
                ace_core::extract_library(lib, "mesh", ace_core::ExtractOptions::new())
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
