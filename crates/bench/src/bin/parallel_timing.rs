//! Records flat-vs-parallel wall time on the mesh workload into
//! `BENCH_parallel.json`, or — with `--incremental` — full-vs-
//! incremental re-extraction wall time on a paper-chip proxy into
//! `BENCH_incremental.json`.
//!
//! Usage:
//!
//! ```text
//! parallel_timing [--mesh-n <n>] [--repeat <r>] [--out <path>]
//! parallel_timing --smoke
//! parallel_timing --incremental [--chip <name>] [--scale <f>]
//!                 [--bands <b>] [--edit-fraction <f>]
//!                 [--repeat <r>] [--out <path>] [--force]
//! ```
//!
//! Each configuration is timed `repeat` times and the best run is
//! kept. The parallel mode sweeps the sequential sweep, then each
//! worker count (2/4/8 plus the detected parallelism) with twice as
//! many bands as workers, so the work-stealing scheduler is actually
//! exercised. Every row records boxes/sec — the headline throughput —
//! and the `host_cores` the numbers were measured on, because a
//! speedup quoted without the core count is not an honest number.
//!
//! Every banded run is checked against the flat sweep with checks no
//! host can skew: it must be the same circuit ([`same_circuit`]), and
//! it must report more than one band and more than one worker.
//! `--smoke` is the CI gate: a small, fast configuration that prints
//! its timings, gates only those checks (wall times are never gated),
//! and writes no file.
//!
//! Results from a beefier host are not silently clobbered: when the
//! output file already records a `host_cores` larger than this
//! machine's, the run refuses to overwrite it (`--force` overrides).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use ace_core::{extract_flat, CircuitExtractor, ExtractOptions, IncrementalExtractor};
use ace_layout::{FlatLayout, LayoutDiff, Library};
use ace_wirelist::compare::same_circuit;
use ace_workloads::chips::{generate_chip, paper_chip};
use ace_workloads::edits::localized_edit_fraction;

fn best_of<T, F: FnMut() -> T>(repeat: u32, mut f: F) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeat {
        let t = Instant::now();
        last = Some(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best * 1e3, last.expect("repeat >= 1"))
}

/// Refuses to overwrite `out` when it records more host cores than
/// this machine has: a rerun on a smaller box would replace better
/// numbers with worse ones and look like a regression.
fn guard_host_cores(out: &str, cores: usize, force: bool) -> Result<(), String> {
    let Ok(existing) = std::fs::read_to_string(out) else {
        return Ok(());
    };
    let Some(recorded) = existing
        .split("\"host_cores\":")
        .nth(1)
        .and_then(|rest| {
            rest.trim_start()
                .split(|c: char| !c.is_ascii_digit())
                .next()
        })
        .and_then(|digits| digits.parse::<usize>().ok())
    else {
        return Ok(());
    };
    if recorded > cores && !force {
        return Err(format!(
            "{out} was recorded on a {recorded}-core host but this one has {cores}; \
             refusing to overwrite (pass --force or use --out)"
        ));
    }
    Ok(())
}

struct Cli {
    mesh_n: u32,
    repeat: u32,
    out: Option<String>,
    incremental: bool,
    smoke: bool,
    chip: String,
    scale: f64,
    bands: usize,
    edit_fraction: f64,
    force: bool,
}

fn main() -> ExitCode {
    let mut cli = Cli {
        mesh_n: 128,
        repeat: 5,
        out: None,
        incremental: false,
        smoke: false,
        chip: String::from("scheme81"),
        scale: 1.0,
        bands: 64,
        edit_fraction: 0.01,
        force: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--mesh-n" => cli.mesh_n = take("--mesh-n").parse().expect("integer"),
            "--repeat" => cli.repeat = take("--repeat").parse().expect("integer"),
            "--out" => cli.out = Some(take("--out")),
            "--incremental" => cli.incremental = true,
            "--smoke" => cli.smoke = true,
            "--chip" => cli.chip = take("--chip"),
            "--scale" => cli.scale = take("--scale").parse().expect("number"),
            "--bands" => cli.bands = take("--bands").parse().expect("integer"),
            "--edit-fraction" => {
                cli.edit_fraction = take("--edit-fraction").parse().expect("number")
            }
            "--force" => cli.force = true,
            "--help" | "-h" => {
                println!(
                    "usage: parallel_timing [--mesh-n <n>] [--repeat <r>] [--out <path>]\n\
                     \x20      parallel_timing --smoke\n\
                     \x20      parallel_timing --incremental [--chip <name>] [--scale <f>]\n\
                     \x20                      [--bands <b>] [--edit-fraction <f>]\n\
                     \x20                      [--repeat <r>] [--out <path>] [--force]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument '{other}' (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cli.incremental {
        run_incremental(&cli, cores)
    } else {
        run_parallel(&cli, cores)
    }
}

/// Boxes swept per wall-clock second — the headline throughput.
fn boxes_per_sec(boxes: usize, wall_ms: f64) -> f64 {
    boxes as f64 / (wall_ms / 1e3)
}

fn run_parallel(cli: &Cli, cores: usize) -> ExitCode {
    // Smoke mode is the CI gate: small mesh, quick repeats, no file.
    let (mesh_n, repeat) = if cli.smoke {
        (48, 2)
    } else {
        (cli.mesh_n, cli.repeat)
    };
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_parallel.json".into());
    if !cli.smoke {
        if let Err(msg) = guard_host_cores(&out, cores, cli.force) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    let cif = ace_workloads::mesh::mesh_cif(mesh_n);
    let lib = Library::from_cif_text(&cif).expect("mesh CIF parses");
    let flat = FlatLayout::from_library(&lib);
    let boxes = flat.boxes().len();

    let (flat_ms, reference) = best_of(repeat, || {
        extract_flat(flat.clone(), "mesh", ExtractOptions::new())
            .expect("mesh extracts")
            .netlist
    });
    let flat_devices = reference.device_count();
    let flat_bps = boxes_per_sec(boxes, flat_ms);
    println!("mesh n={mesh_n} ({boxes} boxes, {flat_devices} devices) on {cores} host cores");
    println!("  flat            {flat_ms:8.3} ms  ({flat_bps:10.0} boxes/s)");

    let mut sweep: Vec<u32> = vec![2, 4, 8];
    if cores > 1 && !sweep.contains(&(cores as u32)) {
        sweep.push(cores as u32);
        sweep.sort_unstable();
    }
    if cli.smoke {
        sweep = vec![cores.clamp(2, 4) as u32];
    }
    let mut runs = String::new();
    for &k in &sweep {
        // Twice as many bands as workers so the steal path is live:
        // with bands == workers every worker owns exactly its chunk
        // and nothing is ever stolen.
        let (ms, r) = best_of(repeat, || {
            extract_flat(
                flat.clone(),
                "mesh",
                ExtractOptions::new()
                    .with_threads(k as usize)
                    .with_bands(2 * k as usize),
            )
            .expect("mesh extracts")
        });
        let (threads, bands, stolen) = (r.report.threads, r.report.bands, r.report.bands_stolen);
        if let Err(diff) = same_circuit(&reference, &r.netlist) {
            panic!("parallel K={k} is not the flat circuit: {diff}");
        }
        assert!(
            threads > 1 && bands > 1,
            "parallel K={k} ran {threads} workers over {bands} bands"
        );
        let speedup = flat_ms / ms;
        let bps = boxes_per_sec(boxes, ms);
        println!(
            "  parallel K={k:<3} {ms:8.3} ms  ({bps:10.0} boxes/s, {speedup:.2}x, \
             {threads} workers / {bands} bands, {stolen} stolen)"
        );
        if !runs.is_empty() {
            runs.push(',');
        }
        write!(
            runs,
            "\n    {{\"threads\": {threads}, \"bands\": {bands}, \"wall_ms\": {ms:.3}, \
             \"boxes_per_sec\": {bps:.0}, \"speedup\": {speedup:.3}, \
             \"bands_stolen\": {stolen}}}"
        )
        .unwrap();
    }

    if cli.smoke {
        println!("smoke OK: the banded run is the flat circuit");
        return ExitCode::SUCCESS;
    }

    let json = format!(
        "{{\n  \"workload\": \"mesh\",\n  \"host_cores\": {cores},\n  \"mesh_n\": {mesh_n},\n  \
         \"boxes\": {boxes},\n  \"devices\": {flat_devices},\n  \"repeat\": {repeat},\n  \
         \"flat\": {{\"wall_ms\": {flat_ms:.3}, \"boxes_per_sec\": {flat_bps:.0}}},\n  \
         \"parallel\": [{runs}\n  ]\n}}\n"
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}

fn run_incremental(cli: &Cli, cores: usize) -> ExitCode {
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_incremental.json".into());
    if let Err(msg) = guard_host_cores(&out, cores, cli.force) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    let Some(spec) = paper_chip(&cli.chip) else {
        eprintln!("unknown chip '{}' (see ace_workloads::chips)", cli.chip);
        return ExitCode::FAILURE;
    };
    let spec = spec.scaled(cli.scale);
    let chip = generate_chip(&spec);
    let lib = Library::from_cif_text(&chip.cif).expect("chip CIF parses");
    let flat = FlatLayout::from_library(&lib);
    let boxes = flat.boxes().len();
    println!(
        "{} scale {} ({} boxes, {} devices), {} bands, {:.2}% edit",
        spec.name,
        cli.scale,
        boxes,
        chip.devices,
        cli.bands,
        cli.edit_fraction * 100.0
    );

    // The localized editing-session diff, and its inverse so the
    // timing loop can restore the pre-edit layout between repeats.
    let diff = localized_edit_fraction(&flat, cli.edit_fraction, 0xED17);
    let mut edited = flat.clone();
    diff.apply_to(&mut edited).expect("edit applies");
    let inverse = LayoutDiff::between(&edited, &flat);
    let edit_ops = diff.len();

    // Baseline: a from-scratch flat extraction of the edited layout.
    let (full_ms, full_devices) = best_of(cli.repeat, || {
        extract_flat(edited.clone(), "chip", ExtractOptions::new())
            .expect("chip extracts")
            .netlist
            .device_count()
    });
    println!("  full re-extract         {full_ms:10.3} ms");

    // Warm the incremental cache on the pre-edit layout, then time
    // apply+extract per repeat, restoring (untimed) in between.
    let mut inc = IncrementalExtractor::new(flat, cli.bands);
    let warm = inc.extract("chip").expect("warm extraction");
    assert_eq!(
        warm.netlist.device_count(),
        chip.devices as usize,
        "incremental warm-up device count differs from the generator's"
    );
    let mut inc_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..cli.repeat {
        let t = Instant::now();
        inc.apply(&diff).expect("edit applies");
        let r = inc.extract("chip").expect("incremental re-extract");
        inc_ms = inc_ms.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
        inc.apply(&inverse).expect("inverse applies");
        inc.extract("chip").expect("restore extraction");
    }
    let last = last.expect("repeat >= 1");
    assert_eq!(
        last.netlist.device_count(),
        full_devices,
        "incremental and full disagree on the edited layout"
    );
    let reused = last.report.bands_reused;
    let reswept = last.report.bands_reswept;
    let cache_kib = last.report.cache_bytes / 1024;
    let speedup = full_ms / inc_ms;
    println!(
        "  incremental re-extract  {inc_ms:10.3} ms  ({speedup:.2}x, \
         {reused} bands reused, {reswept} re-swept, cache ~{cache_kib} KiB)"
    );
    let json = format!(
        "{{\n  \"workload\": \"incremental\",\n  \"chip\": \"{}\",\n  \"scale\": {},\n  \
         \"boxes\": {boxes},\n  \"devices\": {full_devices},\n  \"host_cores\": {cores},\n  \
         \"repeat\": {},\n  \"bands\": {},\n  \"edit_fraction\": {},\n  \
         \"edit_ops\": {edit_ops},\n  \"full_wall_ms\": {full_ms:.3},\n  \
         \"incremental_wall_ms\": {inc_ms:.3},\n  \"speedup\": {speedup:.3},\n  \
         \"bands_reused\": {reused},\n  \"bands_reswept\": {reswept},\n  \
         \"cache_kib\": {cache_kib}\n}}\n",
        spec.name, cli.scale, cli.repeat, cli.bands, cli.edit_fraction
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}
