//! §4 ablation: the lazy front-end (expand symbols only at the
//! scanline) vs eagerly flattening and sorting everything.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let spec = ace_workloads::chips::paper_chip("testram")
        .unwrap()
        .scaled(0.1);
    let chip = ace_workloads::chips::generate_chip(&spec);
    let lib = ace_layout::Library::from_cif_text(&chip.cif).unwrap();
    let mut g = c.benchmark_group("frontend_lazy_vs_eager");
    g.sample_size(10);
    g.bench_function("lazy", |b| {
        b.iter(|| {
            let mut feed = ace_layout::LazyFeed::new(&lib);
            ace_core::extract_feed(&mut feed, "chip", ace_core::ExtractOptions::new())
                .expect("extraction")
                .netlist
                .device_count()
        })
    });
    g.bench_function("eager", |b| {
        b.iter(|| {
            let mut feed = ace_layout::EagerFeed::new(&lib);
            ace_core::extract_feed(&mut feed, "chip", ace_core::ExtractOptions::new())
                .expect("extraction")
                .netlist
                .device_count()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
