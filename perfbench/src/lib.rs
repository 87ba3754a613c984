//! Seeded benchmark of the ACE workspace: end-to-end metrics from an
//! untraced run, per-layer metrics from a traced run. `BENCHMARK.json`
//! lists the workloads `chip_extract`, `service_mix` and `signoff`;
//! `edit_loop` runs by name only (see its module docs).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run times whole operations and prints the
//! end-to-end metrics. With `--trace 1` it times a short untraced
//! pass itself, then runs the same workload and seed twice in
//! `perfbench-traced` (the same code with a counting allocator and
//! spans on), and prints the per-layer metrics, the tracing overhead,
//! the layer-sum check and which counts repeated exactly. On success
//! the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; on an error the
//! process exits non-zero without it.

pub mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use trace::{LayerSum, Samples, Tracer};

/// Every workload this binary runs.
const WORKLOADS: [&str; 4] = ["chip_extract", "edit_loop", "service_mix", "signoff"];

/// End-to-end metrics: (name, unit). Every untraced run prints all.
/// `boxes_per_s` is throughput in the unit of the paper's Table 5-1:
/// the boxes each op covers, times ops completed, over the window.
const END_TO_END: [(&str, &str); 4] = [
    ("op_p50_ms", "ms"),
    ("boxes_per_s", "boxes/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: (name, unit). Every traced run prints all; a
/// layer the workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    // Front end and sweep (chip_extract per op; edit_loop set-up;
    // signoff per op).
    ("cif.parse_ms", "ms"),
    ("layout.build_ms", "ms"),
    ("layout.flatten_ms", "ms"),
    ("layout.feed_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.insert_ms", "ms"),
    ("core.devices_ms", "ms"),
    ("core.output_ms", "ms"),
    ("core.phase_gap_ms", "ms"),
    ("wirelist.write_ms", "ms"),
    ("cif.allocs_per_kib", "1/KiB"),
    ("layout.allocs_per_box", "1/box"),
    ("core.allocs_per_box", "1/box"),
    ("wirelist.allocs_per_device", "1/device"),
    ("core.stops_per_kbox", "1/kbox"),
    ("core.fragments_per_box", "1/box"),
    ("core.max_active", "count"),
    ("wirelist.bytes_per_device", "B/device"),
    // Incremental re-extraction (edit_loop).
    ("core.new_ms", "ms"),
    ("core.warm_ms", "ms"),
    ("core.apply_ms", "ms"),
    ("core.resweep_ms", "ms"),
    ("core.stitch_ms", "ms"),
    ("core.steal_wait_ms", "ms"),
    ("core.bands_reswept", "count"),
    ("core.band_reuse_pct", "%"),
    ("core.boxes_swept", "count"),
    ("core.allocs_per_op", "count"),
    ("core.cache_mib", "MiB"),
    // Service (service_mix).
    ("service.edit.rtt_ms", "ms"),
    ("service.edit.codec_ms", "ms"),
    ("service.edit.exec_ms", "ms"),
    ("service.edit.wait_ms", "ms"),
    ("service.edit.response_kib", "KiB"),
    ("service.read.rtt_ms", "ms"),
    ("service.read.codec_ms", "ms"),
    ("service.read.exec_ms", "ms"),
    ("service.read.wait_ms", "ms"),
    ("service.read.response_kib", "KiB"),
    ("service.lint.rtt_ms", "ms"),
    ("service.lint.codec_ms", "ms"),
    ("service.lint.exec_ms", "ms"),
    ("service.lint.wait_ms", "ms"),
    ("service.lint.response_kib", "KiB"),
    ("service.query.rtt_ms", "ms"),
    ("service.query.codec_ms", "ms"),
    ("service.query.exec_ms", "ms"),
    ("service.query.wait_ms", "ms"),
    ("service.query.response_kib", "KiB"),
    ("service.open_ms", "ms"),
    ("service.open_codec_ms", "ms"),
    ("service.queue_full", "count"),
    ("service.pool_jobs_per_cycle", "count"),
    // Lint and DRC (signoff).
    ("signoff.lint_path_ms", "ms"),
    ("signoff.drc_path_ms", "ms"),
    ("lint.check_ms", "ms"),
    ("lint.sarif_ms", "ms"),
    ("lint.ctx_ms", "ms"),
    ("lint.rule.floating-gate_ms", "ms"),
    ("lint.rule.supply-short_ms", "ms"),
    ("lint.rule.undriven-net_ms", "ms"),
    ("lint.rule.zero-wl-device_ms", "ms"),
    ("lint.rule.dangling-cut_ms", "ms"),
    ("lint.rule.depletion-pullup_ms", "ms"),
    ("lint.rule.conflicting-labels_ms", "ms"),
    ("lint.rule.overloaded-net_ms", "ms"),
    ("drc.check_ms", "ms"),
    ("drc.sarif_ms", "ms"),
    ("drc.merge_ms", "ms"),
    ("drc.rule.width-diffusion_ms", "ms"),
    ("drc.rule.width-poly_ms", "ms"),
    ("drc.rule.width-metal_ms", "ms"),
    ("drc.rule.width-cut_ms", "ms"),
    ("drc.rule.spacing-diffusion_ms", "ms"),
    ("drc.rule.spacing-poly_ms", "ms"),
    ("drc.rule.spacing-metal_ms", "ms"),
    ("drc.rule.spacing-cut_ms", "ms"),
    ("drc.rule.enclosure-cut-metal_ms", "ms"),
    ("drc.rule.enclosure-cut-diffpoly_ms", "ms"),
    ("drc.rule.extension-poly-diffusion_ms", "ms"),
    ("lint.diagnostics", "count"),
    ("drc.violations", "count"),
    ("lint.sarif_kib", "KiB"),
    ("drc.sarif_kib", "KiB"),
    // Every workload.
    ("unattributed_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("trace.counts_inexact", "count"),
];

/// Fewest timed ops a time-limited window runs, so a median exists.
const MIN_OPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub(crate) struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Record spans and counts.
    pub traced: bool,
    /// Run exactly this many ops instead of filling the window.
    pub ops: Option<usize>,
    /// Set-up repetitions (the last one's state serves the ops).
    pub setups: usize,
}

impl Config {
    /// Whether the timed window is over after `done` ops.
    pub(crate) fn window_over(&self, start: Instant, done: usize) -> bool {
        match self.ops {
            Some(n) => done >= n,
            None => done >= MIN_OPS && start.elapsed().as_secs_f64() >= self.seconds,
        }
    }

    /// A tracer for one thread, recording iff this pass is traced.
    pub(crate) fn tracer(&self, epoch: Instant, lane: usize) -> Tracer {
        if self.traced {
            Tracer::on(epoch, lane)
        } else {
            Tracer::off()
        }
    }
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops that failed or whose output check failed.
    pub failed: u64,
    /// Run-level check failures and first failure reasons.
    pub errors: Vec<String>,
    /// Duration of every completed op.
    pub op_ns: Vec<u64>,
    /// Wall time of the whole window.
    pub window_ns: u64,
    /// Boxes one op covers.
    pub boxes: u64,
    /// Duration of every set-up.
    pub setup_ns: Vec<u64>,
    /// Human-readable result lines.
    pub notes: Vec<String>,
    /// Per-layer samples (traced passes).
    pub samples: Samples,
    /// Layer-sum check (traced passes).
    pub sum: LayerSum,
    /// Chrome trace of the pass (traced passes).
    pub chrome: String,
    /// Ops a second traced pass must run for its counts to line up
    /// with this one's (default: every completed op).
    pub replay_ops: Option<usize>,
}

impl Outcome {
    /// Records a failed op with its reason (the first few reasons are
    /// kept).
    pub(crate) fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Folds finished tracers into the samples and the chrome trace.
    pub(crate) fn absorb(&mut self, tracers: &[&Tracer]) {
        for t in tracers {
            trace::fold_spans(t.spans(), &mut self.samples, &mut self.sum);
        }
        if tracers.iter().any(|t| t.is_on()) {
            self.chrome = trace::chrome_trace(tracers);
        }
    }
}

/// Median of `values` (0 for none).
pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of `values` (0 for none).
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Nanosecond durations as milliseconds.
pub(crate) fn to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| trace::ms(n)).collect()
}

/// p50 and, when at least ten samples lie beyond it, p90 of a latency
/// sample, as one human-readable fragment.
pub(crate) fn latency_summary(ms: &[f64]) -> String {
    let mut s = format!("p50 {:.3} ms", median(ms));
    if ms.len() >= 100 {
        let _ = write!(s, ", p90 {:.3} ms", quantile(ms, 0.9));
    }
    let _ = write!(
        s,
        " (n={}, min {:.3}, max {:.3})",
        ms.len(),
        quantile(ms, 0.0),
        quantile(ms, 1.0)
    );
    s
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn run_workload(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match cfg.workload.as_str() {
        "chip_extract" => workloads::chip_extract::run(cfg, &mut out),
        "edit_loop" => workloads::edit_loop::run(cfg, &mut out),
        "service_mix" => workloads::service_mix::run(cfg, &mut out),
        "signoff" => workloads::signoff::run(cfg, &mut out),
        other => return Err(format!("unknown workload '{other}' (one of {WORKLOADS:?})")),
    }
    if out.attempted == 0 {
        return Err("no op ran".into());
    }
    Ok(out)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pass: Option<String>,
    ops: Option<usize>,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut pass = None;
    let mut ops = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--pass" => pass = Some(value),
            "--ops" => ops = Some(value.parse::<usize>().map_err(|_| bad("not a count"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        pass,
        ops,
    })
}

/// Entry point of both binaries. `traced_binary` is true in
/// `perfbench-traced`, which counts allocations and only runs the
/// traced passes that `perfbench --trace 1` asks of it.
pub fn main(traced_binary: bool) -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.pass, traced_binary) {
        (Some(pass), true) => traced_pass(&args, pass),
        (None, false) if args.trace => traced_run(&args),
        (None, false) => untraced_run(&args),
        _ => Err("perfbench-traced only runs passes of `perfbench --trace 1`".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    println!("{s}");
}

fn untraced_run(args: &Args) -> Result<(), String> {
    let cfg = Config {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        ops: None,
        setups: workloads::setups(&args.workload),
    };
    let out = run_workload(&cfg)?;
    let rss = peak_rss_mib().ok_or("cannot read peak RSS from /proc/self/status")?;
    let op_ms = to_ms(&out.op_ns);
    let p50 = median(&op_ms);
    let window_s = out.window_ns as f64 / 1e9;
    let values = [
        p50,
        (out.boxes * out.op_ns.len() as u64) as f64 / window_s,
        rss,
        median(&to_ms(&out.setup_ns)) / 1e3,
    ];
    println!(
        "workload {} seed {} on {} cores: {} ops in {window_s:.2} s, op {}",
        cfg.workload,
        cfg.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        out.op_ns.len(),
        latency_summary(&op_ms)
    );
    println!(
        "set-up x{}: {:?} ms",
        out.setup_ns.len(),
        to_ms(&out.setup_ns)
    );
    for note in &out.notes {
        println!("{note}");
    }
    for e in &out.errors {
        println!("FAILED: {e}");
    }
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    print_result(
        out.errors.is_empty() && out.failed == 0,
        out.attempted,
        out.failed,
        &metrics,
    );
    Ok(())
}

/// One traced pass, run inside `perfbench-traced`: prints its samples
/// as `@` lines for the parent and writes its spans to
/// `perfbench/out/`.
fn traced_pass(args: &Args, pass: &str) -> Result<(), String> {
    let cfg = Config {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: true,
        ops: args.ops,
        setups: 1,
    };
    let out = run_workload(&cfg)?;
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-{pass}.trace.json",
        cfg.workload, cfg.seed
    ));
    std::fs::write(&path, &out.chrome).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut s = String::new();
    let join = |v: &mut dyn Iterator<Item = String>| v.collect::<Vec<_>>().join(" ");
    for (name, values) in &out.samples.values {
        let _ = writeln!(
            s,
            "@v {name} {}",
            join(&mut values.iter().map(|v| v.to_string()))
        );
    }
    for (name, counts) in &out.samples.counts {
        let _ = writeln!(
            s,
            "@c {name} {}",
            join(&mut counts.iter().map(|v| v.to_string()))
        );
    }
    let _ = writeln!(
        s,
        "@op {}",
        join(&mut out.op_ns.iter().map(|v| v.to_string()))
    );
    let _ = writeln!(s, "@replay {}", out.replay_ops.unwrap_or(out.op_ns.len()));
    let _ = writeln!(
        s,
        "@res {} {} {} {} {} {}",
        out.attempted,
        out.failed,
        out.sum.ops,
        out.sum.mismatches,
        out.sum.unattributed_ns,
        out.sum.op_ns
    );
    for (name, ns) in &out.sum.self_ns {
        let _ = writeln!(s, "@self {name} {ns}");
    }
    for e in &out.errors {
        let _ = writeln!(s, "@err {e}");
    }
    for note in &out.notes {
        let _ = writeln!(s, "{note}");
    }
    let _ = writeln!(s, "spans written to {}", path.display());
    print!("{s}");
    Ok(())
}

/// What a traced pass reported back.
#[derive(Default)]
struct PassReport {
    values: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, Vec<u64>>,
    op_ns: Vec<u64>,
    replay_ops: usize,
    attempted: u64,
    failed: u64,
    sum_ops: u64,
    mismatches: u64,
    unattributed_ns: u64,
    sum_op_ns: u64,
    self_ns: Vec<(String, u64)>,
    errors: Vec<String>,
    notes: Vec<String>,
}

fn run_pass(
    args: &Args,
    pass: &str,
    seconds: f64,
    ops: Option<usize>,
) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let traced = exe.with_file_name("perfbench-traced");
    let mut cmd = Command::new(&traced);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--pass", pass]);
    if let Some(n) = ops {
        cmd.args(["--ops", &n.to_string()]);
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", traced.display()))?;
    if !output.status.success() {
        return Err(format!("traced pass {pass} failed: {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut r = PassReport::default();
    for line in text.lines() {
        let mut f = line.split_whitespace();
        let nums = |f: std::str::SplitWhitespace| -> Vec<u64> {
            f.map(|x| x.parse().unwrap_or(u64::MAX)).collect()
        };
        match f.next() {
            Some("@v") => {
                let name = f.next().unwrap_or_default().to_string();
                r.values
                    .insert(name, f.map(|x| x.parse().unwrap_or(f64::NAN)).collect());
            }
            Some("@c") => {
                let name = f.next().unwrap_or_default().to_string();
                r.counts.insert(name, nums(f));
            }
            Some("@op") => r.op_ns = nums(f),
            Some("@replay") => r.replay_ops = nums(f).first().copied().unwrap_or(0) as usize,
            Some("@res") => {
                let v = nums(f);
                if v.len() == 6 {
                    r.attempted = v[0];
                    r.failed = v[1];
                    r.sum_ops = v[2];
                    r.mismatches = v[3];
                    r.unattributed_ns = v[4];
                    r.sum_op_ns = v[5];
                }
            }
            Some("@self") => {
                let name = f.next().unwrap_or_default().to_string();
                r.self_ns
                    .push((name, f.next().and_then(|x| x.parse().ok()).unwrap_or(0)));
            }
            Some("@err") => r.errors.push(line[5..].to_string()),
            _ => r.notes.push(format!("[{pass}] {line}")),
        }
    }
    if r.attempted == 0 {
        return Err(format!("traced pass {pass} reported no ops"));
    }
    Ok(r)
}

/// Counts whose value is decided by thread scheduling or wall time,
/// not by the input alone; the exactness check still runs on them.
const SCHEDULING_DEPENDENT: &[&str] = &[
    "core.bands_stolen",
    "service.queue_full",
    "service.pool_jobs",
    "service.edit.response_bytes",
    "service.read.response_bytes",
    "service.lint.response_bytes",
    "service.query.response_bytes",
];

fn traced_run(args: &Args) -> Result<(), String> {
    // Untraced baseline in this process, then two traced passes of the
    // same workload and seed in the counting-allocator binary; the
    // second replays exactly as many ops as the first.
    let base_cfg = Config {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds * 0.3,
        traced: false,
        ops: None,
        setups: 1,
    };
    let base = run_workload(&base_cfg)?;
    let a = run_pass(args, "a", args.seconds * 0.35, None)?;
    let b = run_pass(args, "b", args.seconds, Some(a.replay_ops))?;

    let base_p50 = median(&to_ms(&base.op_ns));
    let mut all_op: Vec<u64> = a.op_ns.clone();
    all_op.extend(&b.op_ns);
    let traced_p50 = median(&to_ms(&all_op));
    let overhead_pct = (traced_p50 / base_p50 - 1.0) * 100.0;

    for note in a.notes.iter().chain(&b.notes) {
        println!("{note}");
    }
    println!(
        "workload {} seed {}: untraced op p50 {:.3} ms (n={}), traced op p50 {:.3} ms (n={}), \
         tracing overhead {:+.2}%",
        args.workload,
        args.seed,
        base_p50,
        base.op_ns.len(),
        traced_p50,
        all_op.len(),
        overhead_pct
    );

    // Layer-sum check and §5-style split of the traced op time.
    let layer_sum_ok = a.mismatches == 0 && b.mismatches == 0 && a.sum_ops > 0;
    println!(
        "layer-sum check: {} ({} + {} ops; top-level self times + unattributed == op time, to the ns)",
        if layer_sum_ok { "PASS" } else { "FAIL" },
        a.sum_ops,
        b.sum_ops
    );
    let mut shares: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, ns) in a.self_ns.iter().chain(&b.self_ns) {
        *shares.entry(name).or_insert(0) += ns;
    }
    let total = (a.sum_op_ns + b.sum_op_ns).max(1) as f64;
    let mut rows: Vec<(String, f64)> = shares
        .iter()
        .map(|(n, &ns)| (n.to_string(), 100.0 * ns as f64 / total))
        .collect();
    rows.push((
        "unattributed (miscellaneous)".into(),
        100.0 * (a.unattributed_ns + b.unattributed_ns) as f64 / total,
    ));
    if args.workload == "chip_extract" {
        // Split the sweep span by the report's phases, as §5 does.
        let phase = |name: &str| -> f64 {
            let v = |n: &str| a.values.get(n).map_or(0.0, |v| v.iter().sum::<f64>());
            100.0 * v(name) / (a.sum_op_ns.max(1) as f64 / 1e6)
        };
        rows.retain(|(n, _)| n != "core.extract");
        for name in [
            "layout.feed_ms",
            "core.insert_ms",
            "core.devices_ms",
            "core.output_ms",
            "core.phase_gap_ms",
        ] {
            rows.push((format!("core.extract: {name}"), phase(name)));
        }
    }
    println!("share of traced op time:");
    for (name, pct) in &rows {
        println!("  {name:<40} {pct:6.2}%");
    }

    // Count exactness between the two traced passes.
    let mut inexact = 0u64;
    println!("counts, pass a vs pass b on seed {}:", args.seed);
    for (name, va) in &a.counts {
        let exact = b.counts.get(name) == Some(va);
        if !exact {
            inexact += 1;
        }
        let note = if SCHEDULING_DEPENDENT.contains(&name.as_str()) {
            " (scheduling-dependent)"
        } else {
            ""
        };
        println!(
            "  {name:<36} {}{note}",
            if exact { "repeats exactly" } else { "DIFFERS" }
        );
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    for &(name, unit) in PER_LAYER {
        let mut v: Vec<f64> = a.values.get(name).cloned().unwrap_or_default();
        v.extend(b.values.get(name).cloned().unwrap_or_default());
        let value = match name {
            "trace_overhead_pct" => overhead_pct,
            "trace.counts_inexact" => inexact as f64,
            _ => median(&v),
        };
        metrics.push((name, value, unit));
    }
    for e in base.errors.iter().chain(&a.errors).chain(&b.errors) {
        println!("FAILED: {e}");
    }
    let attempted = base.attempted + a.attempted + b.attempted;
    let failed = base.failed + a.failed + b.failed;
    let correct = failed == 0
        && base.errors.is_empty()
        && a.errors.is_empty()
        && b.errors.is_empty()
        && layer_sum_ok;
    print_result(correct, attempted, failed, &metrics);
    Ok(())
}
