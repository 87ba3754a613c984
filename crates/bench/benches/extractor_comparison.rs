//! ACE Table 5-2 workload: the edge-based extractor vs the
//! run-encoded raster (Partlist) and full-grid raster (Cifplot)
//! baselines, on the same chip.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let spec = ace_workloads::chips::paper_chip("cherry")
        .unwrap()
        .scaled(0.25);
    let chip = ace_workloads::chips::generate_chip(&spec);
    let lib = ace_layout::Library::from_cif_text(&chip.cif).unwrap();
    let flat = ace_layout::FlatLayout::from_library(&lib);
    let mut g = c.benchmark_group("extractor_comparison");
    g.sample_size(10);
    g.bench_function("ace_edge_based", |b| {
        b.iter(|| {
            ace_core::extract_library(&lib, "chip", ace_core::ExtractOptions::new())
                .expect("extraction")
                .netlist
                .device_count()
        })
    });
    g.bench_function("partlist_run_encoded", |b| {
        b.iter(|| {
            ace_raster::extract_partlist(&flat, "chip", ace_geom::LAMBDA)
                .netlist
                .device_count()
        })
    });
    g.bench_function("cifplot_full_grid", |b| {
        b.iter(|| {
            ace_raster::extract_cifplot(&flat, "chip", ace_geom::LAMBDA)
                .netlist
                .device_count()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
