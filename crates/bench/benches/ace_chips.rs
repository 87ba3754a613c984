//! ACE Table 5-1 workload: extraction time on chip proxies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ace_chips");
    g.sample_size(10);
    for name in ["cherry", "dchip", "testram"] {
        let spec = ace_workloads::chips::paper_chip(name).unwrap().scaled(0.1);
        let chip = ace_workloads::chips::generate_chip(&spec);
        let lib = ace_layout::Library::from_cif_text(&chip.cif).unwrap();
        g.throughput(Throughput::Elements(chip.boxes));
        g.bench_with_input(BenchmarkId::from_parameter(name), &lib, |b, lib| {
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
