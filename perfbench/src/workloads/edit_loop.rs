//! `edit_loop`: interactive editing of the scheme81 proxy. Set-up
//! parses, builds, flattens and warms a 64-band
//! `IncrementalExtractor`; one op applies a seeded 1 % localized edit
//! (or its inverse), re-extracts and writes the wirelist.
//!
//! Not listed in `BENCHMARK.json`: on about half of the seeds the
//! banded stitcher's result differs from `extract_flat` at 32 and 64
//! bands, so ops fail their check (see `perfbench/README.md`). Run it
//! by name to reproduce that.

use std::time::Instant;

use ace_core::{
    extract_flat, CircuitExtractor, ExtractOptions, ExtractionReport, IncrementalExtractor,
};
use ace_geom::Point;
use ace_layout::{FlatLayout, LayoutDiff, Library};
use ace_wirelist::{write_wirelist, Device, NetId, Netlist, WirelistOptions};
use ace_workloads::chips::{generate_chip, paper_chip, ChipSpec};
use ace_workloads::edits::localized_edit_fraction;

use crate::trace::{ms, Samples, Tracer};
use crate::{Config, Outcome};

const BANDS: usize = 64;
const EDIT_FRACTION: f64 = 0.01;

pub fn run(cfg: &Config, out: &mut Outcome) {
    let spec = ChipSpec {
        seed: cfg.seed,
        ..*paper_chip("scheme81").expect("scheme81 is a paper chip")
    };
    let chip = generate_chip(&spec);
    out.boxes = chip.boxes;

    let epoch = Instant::now();
    let mut t = cfg.tracer(epoch, 0);
    let mut session: Option<IncrementalExtractor> = None;
    for _ in 0..cfg.setups {
        drop(session.take()); // free the previous session before timing
        let t0 = Instant::now();
        let made = t.span("setup", |t| set_up(&chip.cif, t));
        out.setup_ns.push(t0.elapsed().as_nanos() as u64);
        match made {
            Ok(s) => session = Some(s),
            Err(e) => out.errors.push(format!("set-up: {e}")),
        }
    }
    let Some(mut ex) = session else { return };

    // The edit and its inverse, and from-scratch references for the
    // two layouts the loop alternates between.
    let edit = localized_edit_fraction(ex.layout(), EDIT_FRACTION, cfg.seed);
    let inverse = LayoutDiff {
        boxes_added: edit.boxes_removed.clone(),
        boxes_removed: edit.boxes_added.clone(),
        labels_added: edit.labels_removed.clone(),
        labels_removed: edit.labels_added.clone(),
    };
    let mut verified: [Option<String>; 2] = [None, None];

    let start = Instant::now();
    let mut last: Option<Netlist> = None;
    while !cfg.window_over(start, out.attempted as usize) {
        // Layout after this op: 1 is edited, 0 the original.
        let state = ((out.attempted + 1) % 2) as usize;
        let diff = if state == 1 { &edit } else { &inverse };
        out.attempted += 1;
        let t0 = Instant::now();
        let result = t.span("op", |t| op(&mut ex, diff, t, out));
        let ns = t0.elapsed().as_nanos() as u64;
        let (netlist, wirelist) = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(e);
                break; // the session's layout is no longer known
            }
        };
        // Untimed check: the first op on each layout must be the same
        // circuit as a from-scratch extraction of that layout; later
        // ops on it must reproduce the checked wirelist byte for byte.
        let checked = match &verified[state] {
            Some(text) if *text == wirelist => Ok(()),
            Some(_) => Err("wirelist differs from the checked one".to_string()),
            None => reference(ex.layout()).and_then(|r| same_wiring(&netlist, &r)),
        };
        match checked {
            Ok(()) => {
                verified[state].get_or_insert(wirelist);
                out.op_ns.push(ns);
            }
            Err(e) => out.fail(format!("op {}: {e}", out.attempted)),
        }
        last = Some(netlist);
    }
    out.window_ns = start.elapsed().as_nanos() as u64;

    // Final gate: the last netlist against a from-scratch extraction
    // of the session's final layout.
    let last = last.ok_or_else(|| "no op completed".to_string());
    let final_check = last.and_then(|n| reference(ex.layout()).and_then(|r| same_wiring(&n, &r)));
    if let Err(e) = final_check {
        out.errors.push(format!("final netlist: {e}"));
    }
    out.notes.push(format!(
        "edit: {} boxes added, {} removed per op; {} bands",
        edit.boxes_added.len(),
        edit.boxes_removed.len(),
        ex.cuts().len() + 1
    ));
    out.absorb(&[&t]);
}

/// A from-scratch eager extraction of `layout`, and whether the repo's
/// strict comparison applies to it (no channel touches more than two
/// diffusion nets, so source/drain assignment is unambiguous).
fn reference(layout: &FlatLayout) -> Result<(Netlist, bool), String> {
    extract_flat(layout.clone(), "reference", ExtractOptions::new())
        .map(|e| (e.netlist, e.report.multi_terminal_devices == 0))
        .map_err(|e| e.to_string())
}

/// Checks `netlist` against the reference: the same device census
/// (location, kind, L, W), and the same partition of device terminals
/// into nets, with net names. A source/drain terminal is recorded
/// without saying which of the two it is, so a legal swap of a
/// symmetric channel's terminals cannot read as a difference (the
/// banded stitcher and the flat sweep orient some channels
/// differently). When the reference has multi-terminal devices, which
/// two of their nets become source and drain is algorithm-dependent,
/// so only gate terminals enter the partition, as in the conformance
/// harness's census policy.
fn same_wiring(netlist: &Netlist, reference: &(Netlist, bool)) -> Result<(), String> {
    let (reference, strict) = reference;
    type Key = (Point, u8, i64, i64);
    let key = |d: &Device| (d.location, d.kind as u8, d.length, d.width);
    let census = |n: &Netlist| {
        let mut c: Vec<Key> = n.devices().iter().map(key).collect();
        c.sort_unstable();
        c
    };
    let (mine, theirs) = (census(netlist), census(reference));
    if mine != theirs {
        let only_mine = mine.iter().find(|k| theirs.binary_search(k).is_err());
        let only_theirs = theirs.iter().find(|k| mine.binary_search(k).is_err());
        return Err(format!(
            "device census differs: {} vs {} devices; only here {only_mine:?}, only in the reference {only_theirs:?}",
            mine.len(),
            theirs.len()
        ));
    }
    let nets = |n: &Netlist| {
        let mut terminals: Vec<Vec<(Key, u8)>> = vec![Vec::new(); n.net_count()];
        for d in n.devices() {
            terminals[d.gate.0 as usize].push((key(d), 0));
            if *strict {
                terminals[d.source.0 as usize].push((key(d), 1));
                terminals[d.drain.0 as usize].push((key(d), 1));
            }
        }
        // One entry per net: its sorted names and sorted terminals.
        type Net = (Vec<String>, Vec<(Key, u8)>);
        let mut out: Vec<Net> = terminals
            .into_iter()
            .enumerate()
            .map(|(i, mut t)| {
                let mut names = n.net(NetId(i as u32)).names.clone();
                names.sort_unstable();
                t.sort_unstable();
                (names, t)
            })
            .filter(|(names, t)| !names.is_empty() || !t.is_empty())
            .collect();
        out.sort_unstable();
        out
    };
    if nets(netlist) != nets(reference) {
        return Err("terminal-to-net partition differs".into());
    }
    Ok(())
}

fn set_up(cif: &str, t: &mut Tracer) -> Result<IncrementalExtractor, String> {
    let file = t
        .span("cif.parse", |_| ace_cif::parse(cif))
        .map_err(|e| format!("parse: {e}"))?;
    let lib = t
        .span("layout.build", |_| Library::from_cif(&file))
        .map_err(|e| format!("build: {e}"))?;
    let flat = t.span("layout.flatten", |_| FlatLayout::from_library(&lib));
    let mut ex = t.span("core.new", |_| IncrementalExtractor::new(flat, BANDS));
    t.span("core.warm", |_| ex.extract("scheme81"))
        .map_err(|e| format!("warm extract: {e}"))?;
    Ok(ex)
}

fn op(
    ex: &mut IncrementalExtractor,
    diff: &LayoutDiff,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<(Netlist, String), String> {
    t.span("core.apply", |_| ex.apply(diff))
        .map_err(|e| format!("apply: {e}"))?;
    let apply_allocs = t.last_allocs();
    let extraction = t
        .span("core.extract", |_| ex.extract("scheme81"))
        .map_err(|e| format!("extract: {e}"))?;
    let (extract_ns, extract_allocs) = (t.last_ns(), t.last_allocs());
    let wirelist = t.span("wirelist.write", |_| {
        write_wirelist(&extraction.netlist, WirelistOptions::new())
    });
    let write_allocs = t.last_allocs();
    if t.is_on() {
        let allocs = apply_allocs + extract_allocs + write_allocs;
        incremental_samples(&extraction.report, extract_ns, allocs, &mut out.samples);
        out.samples.count("wirelist.bytes", wirelist.len() as u64);
    }
    Ok((extraction.netlist, wirelist))
}

/// Per-layer values of one incremental re-extraction: `extract_ns`
/// is the `extract` call's duration and `allocs` the allocations of
/// apply, extract and write together.
pub fn incremental_samples(r: &ExtractionReport, extract_ns: u64, allocs: u64, s: &mut Samples) {
    let attempts = (r.bands_reused + r.bands_reswept).max(1);
    s.push(
        "core.resweep_ms",
        ms(extract_ns) - ms(r.stitch.time.as_nanos() as u64),
    );
    s.push("core.stitch_ms", ms(r.stitch.time.as_nanos() as u64));
    s.push("core.steal_wait_ms", ms(r.steal_wait.as_nanos() as u64));
    s.push("core.bands_reswept", r.bands_reswept as f64);
    s.push(
        "core.band_reuse_pct",
        100.0 * r.bands_reused as f64 / attempts as f64,
    );
    s.push("core.boxes_swept", r.boxes as f64);
    s.push("core.allocs_per_op", allocs as f64);
    s.push("core.cache_mib", r.cache_bytes as f64 / (1024.0 * 1024.0));
    s.count("core.allocs", allocs);
    s.count("core.bands_reswept", r.bands_reswept);
    s.count("core.bands_reused", r.bands_reused);
    s.count("core.boxes_swept", r.boxes);
    s.count("core.cache_bytes", r.cache_bytes);
    s.count("core.bands_stolen", r.bands_stolen);
}
