//! ACE §4 linearity: BHH random chips of growing N.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ace_scaling_bhh");
    g.sample_size(10);
    for n in [4_000u64, 16_000, 64_000] {
        let cif = ace_workloads::bhh::bhh_cif(&ace_workloads::bhh::BhhParams::paper(n, 7));
        let lib = ace_layout::Library::from_cif_text(&cif).unwrap();
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::from_parameter(n), &lib, |b, lib| {
            b.iter(|| {
                ace_core::extract_library(lib, "bhh", ace_core::ExtractOptions::new())
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
