//! `chip_extract`: the paper's batch use. One op takes the riscb
//! proxy's CIF text through `ace_cif::parse`, `Library::from_cif`,
//! the sequential lazy `extract_library` and `write_wirelist`.

use std::time::Instant;

use ace_core::{extract_library, ExtractOptions, Phase};
use ace_layout::Library;
use ace_wirelist::{write_wirelist, WirelistOptions};
use ace_workloads::chips::{generate_chip, paper_chip, ChipSpec, GeneratedChip};

use crate::trace::{ms, Tracer};
use crate::{Config, Outcome};

pub fn run(cfg: &Config, out: &mut Outcome) {
    let spec = ChipSpec {
        seed: cfg.seed,
        ..*paper_chip("riscb").expect("riscb is a paper chip")
    };
    let chip = generate_chip(&spec);
    out.boxes = chip.boxes;

    // No state survives between ops, so set-up is the warm-up: whole
    // untimed-by-the-window ops, each timed on its own.
    let epoch = Instant::now();
    let mut warm = Tracer::off();
    for _ in 0..cfg.setups {
        let t0 = Instant::now();
        if let Err(e) = op(&chip, &mut warm, out) {
            out.errors.push(format!("warm-up: {e}"));
        }
        out.setup_ns.push(t0.elapsed().as_nanos() as u64);
    }

    let mut t = cfg.tracer(epoch, 0);
    let start = Instant::now();
    while !cfg.window_over(start, out.attempted as usize) {
        out.attempted += 1;
        let t0 = Instant::now();
        let result = t.span("op", |t| op(&chip, t, out));
        let ns = t0.elapsed().as_nanos() as u64;
        match result {
            Ok(()) => out.op_ns.push(ns),
            Err(e) => out.fail(e),
        }
    }
    out.window_ns = start.elapsed().as_nanos() as u64;
    out.absorb(&[&t]);
}

/// One op; the output check is a box and device census against the
/// generator's own counts.
fn op(chip: &GeneratedChip, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let file = t
        .span("cif.parse", |_| ace_cif::parse(&chip.cif))
        .map_err(|e| format!("parse: {e}"))?;
    let parse_allocs = t.last_allocs();
    let lib = t
        .span("layout.build", |_| Library::from_cif(&file))
        .map_err(|e| format!("build: {e}"))?;
    let build_allocs = t.last_allocs();
    let extraction = t
        .span("core.extract", |_| {
            extract_library(&lib, chip.spec.name, ExtractOptions::new())
        })
        .map_err(|e| format!("extract: {e}"))?;
    let (extract_ns, extract_allocs) = (t.last_ns(), t.last_allocs());
    let wirelist = t.span("wirelist.write", |_| {
        write_wirelist(&extraction.netlist, WirelistOptions::new())
    });
    let write_allocs = t.last_allocs();

    let r = &extraction.report;
    let devices = extraction.netlist.device_count() as u64;
    if devices != chip.devices || r.boxes != chip.boxes {
        return Err(format!(
            "census: {devices} devices / {} boxes, generator made {} / {}",
            r.boxes, chip.devices, chip.boxes
        ));
    }
    if t.is_on() {
        let s = &mut out.samples;
        let boxes = chip.boxes as f64;
        let phases: u64 = r.phase_times.iter().map(|d| d.as_nanos() as u64).sum();
        s.push(
            "layout.feed_ms",
            ms(r.phase_time(Phase::FrontEnd).as_nanos() as u64),
        );
        s.push(
            "core.insert_ms",
            ms(r.phase_time(Phase::Insert).as_nanos() as u64),
        );
        s.push(
            "core.devices_ms",
            ms(r.phase_time(Phase::Devices).as_nanos() as u64),
        );
        s.push(
            "core.output_ms",
            ms(r.phase_time(Phase::Output).as_nanos() as u64),
        );
        s.push("core.phase_gap_ms", ms(extract_ns) - ms(phases));
        s.push(
            "cif.allocs_per_kib",
            parse_allocs as f64 / (chip.cif.len() as f64 / 1024.0),
        );
        s.push("layout.allocs_per_box", build_allocs as f64 / boxes);
        s.push("core.allocs_per_box", extract_allocs as f64 / boxes);
        s.push(
            "wirelist.allocs_per_device",
            write_allocs as f64 / devices as f64,
        );
        s.push(
            "core.stops_per_kbox",
            r.scanline_stops as f64 / (boxes / 1e3),
        );
        s.push("core.fragments_per_box", r.fragments as f64 / boxes);
        s.push("core.max_active", r.max_active as f64);
        s.push(
            "wirelist.bytes_per_device",
            wirelist.len() as f64 / devices as f64,
        );
        s.count("cif.allocs", parse_allocs);
        s.count("layout.allocs", build_allocs);
        s.count("core.allocs", extract_allocs);
        s.count("wirelist.allocs", write_allocs);
        s.count("core.scanline_stops", r.scanline_stops);
        s.count("core.fragments", r.fragments);
        s.count("core.max_active", r.max_active as u64);
        s.count("wirelist.bytes", wirelist.len() as u64);
    }
    Ok(())
}
