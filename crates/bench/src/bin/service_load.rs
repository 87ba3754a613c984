//! `service_load` — load generator for the `aced` extraction service.
//!
//! Drives concurrent clients against a daemon (an external one via
//! `--socket`/`--tcp`, otherwise an in-process daemon on an ephemeral
//! TCP port) and records throughput and latency percentiles into
//! `BENCH_service.json`:
//!
//! ```text
//! service_load [--clients N] [--requests R] [--mesh-n N]
//!              [--socket PATH | --tcp ADDR] [--out path]
//! service_load --edit-storm [--requests R] [--mesh-n N] [--out path]
//! service_load --smoke [--socket PATH | --tcp ADDR]
//! service_load --faults
//! ```
//!
//! Four modes:
//!
//! * The default **mix** runs N private sessions through a fixed
//!   request cycle (extract, edit-diff, lint, query-net) and writes
//!   the `"mix"` section of the bench file.
//! * **`--edit-storm`** hammers ONE shared session with three writer
//!   clients (each oscillating its own disjoint stub, unsequenced)
//!   while two readers extract concurrently. It measures the idle
//!   read p50 first, then the read p50 under the storm — snapshot
//!   reads must not queue behind edit sweeps — and reports how many
//!   edits coalesced into shared sweeps. Writes the `"edit_storm"`
//!   section; exits non-zero when nothing coalesced.
//! * **`--smoke`** is the CI gate: 4 clients, a short mix, and every
//!   wire answer checked against the in-process extraction oracle.
//!   Writes no file.
//! * **`--faults`** is the fault-injection smoke: a slow writer
//!   dribbling a frame byte-by-byte must be served, not dropped; and
//!   an `edit-diff` that times out behind a busy worker must apply
//!   exactly once when the client retries the same sequence number.
//!   Writes no file.
//!
//! `queue-full` responses are not failures: the generator honors the
//! daemon's `retry_after_ms` hint and retries, counting how often it
//! was pushed back — that number is part of the result, because a
//! service that meets its latency targets by shedding load should
//! say so.
//!
//! All recorded values are integers (latencies in microseconds) so
//! the bench file round-trips through the service's own integer-only
//! JSON; each mode parses the existing file and replaces only its own
//! section.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ace_core::json::Json;
use ace_core::{CircuitExtractor, ExtractOptions, IncrementalExtractor, NullProbe};
use ace_layout::{FlatLayout, LayoutDiff, Library};
use ace_lint::{lint_extraction, LintConfig};
use ace_service::{Client, ClientError, Daemon, ErrorCode, ServiceConfig};
use ace_wirelist::{write_wirelist, WirelistOptions};
use ace_workloads::mesh::{mesh_cif, MESH_LINE, MESH_PITCH};

const BANDS: usize = 4;

/// Writers and readers in the edit-storm. Three writers keep at least
/// two edits parked whenever one sweep is in flight (each client
/// blocks on its own answer), which is what makes coalescing visible.
const STORM_WRITERS: usize = 3;
const STORM_READERS: usize = 2;

struct Args {
    clients: usize,
    requests: usize,
    mesh_n: u32,
    socket: Option<String>,
    tcp: Option<String>,
    out: String,
    smoke: bool,
    edit_storm: bool,
    faults: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: service_load [--clients N] [--requests R] [--mesh-n N]\n\
         \x20                   [--socket PATH | --tcp ADDR] [--out path]\n\
         \x20      service_load --edit-storm [--requests R] [--mesh-n N] [--out path]\n\
         \x20      service_load --smoke [--socket PATH | --tcp ADDR]\n\
         \x20      service_load --faults"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: 4,
        requests: 50,
        mesh_n: 8,
        socket: None,
        tcp: None,
        out: "BENCH_service.json".to_string(),
        smoke: false,
        edit_storm: false,
        faults: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--clients" => args.clients = value().parse().unwrap_or_else(|_| usage()),
            "--requests" => args.requests = value().parse().unwrap_or_else(|_| usage()),
            "--mesh-n" => args.mesh_n = value().parse().unwrap_or_else(|_| usage()),
            "--socket" => args.socket = Some(value()),
            "--tcp" => args.tcp = Some(value()),
            "--out" => args.out = value(),
            "--smoke" => args.smoke = true,
            "--edit-storm" => args.edit_storm = true,
            "--faults" => args.faults = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.smoke {
        args.clients = 4;
        args.requests = 3;
        args.mesh_n = 6;
    }
    args
}

/// How each client reaches the daemon.
#[derive(Clone)]
enum Endpoint {
    Unix(String),
    Tcp(String),
}

impl Endpoint {
    fn connect(&self) -> Result<Client, ClientError> {
        match self {
            Endpoint::Unix(path) => Ok(Client::connect_unix(path.as_ref())?),
            Endpoint::Tcp(addr) => Ok(Client::connect_tcp(addr)?),
        }
    }
}

/// One request's latency sample.
struct Sample {
    op: &'static str,
    ns: u64,
}

/// Issues `call` with queue-full retries, timing only the successful
/// attempt (the daemon's pushback delay is counted separately).
fn timed<T>(
    op: &'static str,
    samples: &mut Vec<Sample>,
    retries: &AtomicU64,
    mut call: impl FnMut() -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    loop {
        let t = Instant::now();
        match call() {
            Ok(value) => {
                samples.push(Sample {
                    op,
                    ns: t.elapsed().as_nanos() as u64,
                });
                return Ok(value);
            }
            Err(ClientError::Service(e)) if e.code == ErrorCode::QueueFull => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(
                    e.retry_after_ms.unwrap_or(10).max(1) as u64
                ));
            }
            Err(other) => return Err(other),
        }
    }
}

/// The edit every mix client oscillates: a poly stub glued to the
/// bottom row's left end. Adding it dirties only the bottom band;
/// removing it restores the original circuit, so extraction results
/// stay comparable across iterations.
fn stub_diff(add: bool) -> LayoutDiff {
    let mut diff = LayoutDiff::new();
    let rect = ace_geom::Rect::new(-2 * MESH_PITCH, 0, -MESH_PITCH, MESH_LINE);
    if add {
        diff.add_box(ace_geom::Layer::Poly, rect);
    } else {
        diff.remove_box(ace_geom::Layer::Poly, rect);
    }
    diff
}

/// What the oracle says the daemon must answer.
struct Oracle {
    clean_wirelist: String,
    stubbed_wirelist: String,
    lint_rendered: Vec<String>,
}

fn build_oracle(cif: &str) -> Oracle {
    let lib = Library::from_cif_text(cif).expect("oracle parses");
    let flat = FlatLayout::from_library(&lib);
    let mut ex = IncrementalExtractor::new(flat, BANDS);
    let extraction = ex.extract("aced").expect("oracle extracts");
    let clean_wirelist = write_wirelist(&extraction.netlist, WirelistOptions::new());
    let lint_rendered = lint_extraction(&extraction, ex.layout(), &LintConfig::new(), &NullProbe)
        .iter()
        .map(|d| d.render())
        .collect();
    ex.apply(&stub_diff(true)).expect("oracle applies stub");
    let stubbed = ex.extract("aced").expect("oracle re-extracts");
    Oracle {
        clean_wirelist,
        stubbed_wirelist: write_wirelist(&stubbed.netlist, WirelistOptions::new()),
        lint_rendered,
    }
}

/// One client's life: open a private session, then cycle the mix.
/// In smoke mode every answer is checked against the oracle.
fn run_client(
    id: usize,
    endpoint: Endpoint,
    cif: Arc<String>,
    oracle: Option<Arc<Oracle>>,
    requests: usize,
    retries: Arc<AtomicU64>,
) -> Result<Vec<Sample>, String> {
    let fail = |stage: &str, e: ClientError| format!("client {id}: {stage}: {e}");
    let mut client = endpoint.connect().map_err(|e| fail("connect", e))?;
    let session = format!("load-{id}");
    let mut samples = Vec::new();
    timed("open", &mut samples, &retries, || {
        client.open(&session, &cif, BANDS, ExtractOptions::new())
    })
    .map_err(|e| fail("open", e))?;

    let mut stub_present = false;
    for _ in 0..requests {
        let extract = timed("extract", &mut samples, &retries, || {
            client.extract(&session)
        })
        .map_err(|e| fail("extract", e))?;
        let edited = timed("edit-diff", &mut samples, &retries, || {
            client.edit_diff(&session, &stub_diff(!stub_present))
        })
        .map_err(|e| fail("edit-diff", e))?;
        stub_present = !stub_present;
        let lint = timed("lint", &mut samples, &retries, || {
            client.lint(&session, &LintConfig::new())
        })
        .map_err(|e| fail("lint", e))?;
        let _ = timed("query-net", &mut samples, &retries, || {
            client.query_net(&session, "VDD")
        })
        .map_err(|e| fail("query-net", e))?;

        if let Some(oracle) = &oracle {
            // `stub_present` already reflects this round's edit; the
            // extract above ran *before* it, on the opposite state.
            let want_extract = if stub_present {
                &oracle.clean_wirelist
            } else {
                &oracle.stubbed_wirelist
            };
            if extract.wirelist != *want_extract {
                return Err(format!("client {id}: extract drifted from oracle"));
            }
            let want_edit = if stub_present {
                &oracle.stubbed_wirelist
            } else {
                &oracle.clean_wirelist
            };
            if edited.wirelist != *want_edit {
                return Err(format!("client {id}: edit-diff drifted from oracle"));
            }
            let rendered: Vec<String> = lint.0.iter().map(|d| d.rendered.clone()).collect();
            if !stub_present && rendered != oracle.lint_rendered {
                return Err(format!("client {id}: lint drifted from oracle"));
            }
        }
    }
    timed("close", &mut samples, &retries, || client.close(&session))
        .map_err(|e| fail("close", e))?;
    Ok(samples)
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> i64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    (sorted_ns[rank] / 1_000) as i64
}

// ---------------------------------------------------------------------------
// Bench file plumbing: integer JSON, one section per mode
// ---------------------------------------------------------------------------

/// Renders a [`Json`] value with indentation — the bench file is for
/// humans too, and `Json::to_text` is one long line.
fn pretty(value: &Json, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match value {
        Json::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (key, v)) in pairs.iter().enumerate() {
                out.push_str(&pad);
                out.push_str("  ");
                out.push_str(&Json::str(key.clone()).to_text());
                out.push_str(": ");
                pretty(v, depth + 1, out);
                out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push('}');
        }
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, v) in items.iter().enumerate() {
                out.push_str(&pad);
                out.push_str("  ");
                pretty(v, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push(']');
        }
        other => out.push_str(&other.to_text()),
    }
}

/// Reads the bench file (when present and parseable), replaces
/// `section` with `value`, and writes the result back — so the mix
/// and the edit-storm each refresh their own numbers without
/// clobbering the other's.
fn merge_bench_section(path: &str, section: &str, value: Json) -> std::io::Result<String> {
    let mut root = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .filter(|v| matches!(v, Json::Obj(_)))
        .unwrap_or_else(|| Json::Obj(Vec::new()));
    if let Json::Obj(pairs) = &mut root {
        match pairs.iter_mut().find(|(k, _)| k == section) {
            Some((_, slot)) => *slot = value,
            None => pairs.push((section.to_string(), value)),
        }
    }
    let mut text = String::new();
    pretty(&root, 0, &mut text);
    text.push('\n');
    std::fs::write(path, &text)?;
    Ok(text)
}

/// Starts an in-process daemon unless the caller pointed at an
/// external one.
fn pick_endpoint(args: &Args) -> Result<(Endpoint, Option<Daemon>), String> {
    match (&args.socket, &args.tcp) {
        (Some(path), _) => Ok((Endpoint::Unix(path.clone()), None)),
        (None, Some(addr)) => Ok((Endpoint::Tcp(addr.clone()), None)),
        (None, None) => {
            let daemon = Daemon::new(ServiceConfig::default());
            let addr = daemon
                .serve_tcp("127.0.0.1:0")
                .map_err(|e| format!("cannot start in-process daemon: {e}"))?;
            Ok((Endpoint::Tcp(addr.to_string()), Some(daemon)))
        }
    }
}

// ---------------------------------------------------------------------------
// Edit-storm mode
// ---------------------------------------------------------------------------

/// Writer `w`'s private stub: a half-pitch poly block in its own
/// column left of the mesh, disjoint from every other writer's, so
/// unsequenced edits from different writers commute and a merged
/// batch applies cleanly in any order.
fn writer_stub(writer: usize, add: bool) -> LayoutDiff {
    let w = writer as i64;
    let x0 = -(w + 2) * MESH_PITCH;
    let rect = ace_geom::Rect::new(x0, 0, x0 + MESH_PITCH / 2, MESH_LINE);
    let mut diff = LayoutDiff::new();
    if add {
        diff.add_box(ace_geom::Layer::Poly, rect);
    } else {
        diff.remove_box(ace_geom::Layer::Poly, rect);
    }
    diff
}

fn run_edit_storm(args: &Args) -> Result<ExitCode, String> {
    let (endpoint, local) = pick_endpoint(args)?;
    let cif = mesh_cif(args.mesh_n);
    let mut control = endpoint.connect().map_err(|e| format!("connect: {e}"))?;
    control
        .open("storm", &cif, BANDS, ExtractOptions::new())
        .map_err(|e| format!("open: {e}"))?;
    control
        .extract("storm")
        .map_err(|e| format!("seed extract: {e}"))?;

    // Idle baseline: read latency with nobody else on the session.
    const IDLE_READS: usize = 200;
    let mut idle_ns: Vec<u64> = Vec::with_capacity(IDLE_READS);
    for _ in 0..IDLE_READS {
        let t = Instant::now();
        control
            .extract("storm")
            .map_err(|e| format!("idle extract: {e}"))?;
        idle_ns.push(t.elapsed().as_nanos() as u64);
    }
    idle_ns.sort_unstable();

    let before = control.status().map_err(|e| format!("status: {e}"))?;

    // The storm: writers oscillate their stubs (unsequenced edits on
    // ONE session — per-session seqs are monotonic, so interleaved
    // writers cannot number their edits), readers extract until the
    // writers finish.
    let stop = Arc::new(AtomicBool::new(false));
    let edits_per_writer = args.requests.max(1) * 2; // add+remove pairs
    let storm_t = Instant::now();
    let writers: Vec<_> = (0..STORM_WRITERS)
        .map(|w| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || -> Result<Vec<u64>, String> {
                let mut c = endpoint
                    .connect()
                    .map_err(|e| format!("writer {w}: connect: {e}"))?;
                let mut ns = Vec::with_capacity(edits_per_writer);
                for i in 0..edits_per_writer {
                    let t = Instant::now();
                    c.edit_diff("storm", &writer_stub(w, i % 2 == 0))
                        .map_err(|e| format!("writer {w}: edit {i}: {e}"))?;
                    ns.push(t.elapsed().as_nanos() as u64);
                }
                Ok(ns)
            })
        })
        .collect();
    let readers: Vec<_> = (0..STORM_READERS)
        .map(|r| {
            let endpoint = endpoint.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> Result<Vec<u64>, String> {
                let mut c = endpoint
                    .connect()
                    .map_err(|e| format!("reader {r}: connect: {e}"))?;
                let mut ns = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    c.extract("storm")
                        .map_err(|e| format!("reader {r}: extract: {e}"))?;
                    ns.push(t.elapsed().as_nanos() as u64);
                }
                Ok(ns)
            })
        })
        .collect();

    let mut edit_ns: Vec<u64> = Vec::new();
    let mut failures = Vec::new();
    for handle in writers {
        match handle.join().expect("writer thread") {
            Ok(mut ns) => edit_ns.append(&mut ns),
            Err(e) => failures.push(e),
        }
    }
    let storm_ms = storm_t.elapsed().as_millis().max(1) as i64;
    stop.store(true, Ordering::Relaxed);
    let mut busy_ns: Vec<u64> = Vec::new();
    for handle in readers {
        match handle.join().expect("reader thread") {
            Ok(mut ns) => busy_ns.append(&mut ns),
            Err(e) => failures.push(e),
        }
    }
    let after = control.status().map_err(|e| format!("status: {e}"))?;
    control.close("storm").map_err(|e| format!("close: {e}"))?;
    if let Some(daemon) = local {
        daemon.join();
    }
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }

    edit_ns.sort_unstable();
    busy_ns.sort_unstable();
    let coalesced = after.coalesced_edits - before.coalesced_edits;
    let edits = edit_ns.len() as i64;
    // NOTE: on a single-core host the busy read percentiles measure
    // OS scheduling against CPU-bound sweeps, not protocol queueing —
    // snapshot reads never wait on the write lock either way. The
    // deterministic gate is coalescing; the latencies are recorded
    // with the core count so multi-core runs can compare idle vs busy
    // meaningfully.
    let section = Json::obj([
        ("workload", Json::str("mesh")),
        ("mesh_n", Json::Int(args.mesh_n as i64)),
        (
            "host_cores",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        ("writers", Json::Int(STORM_WRITERS as i64)),
        ("readers", Json::Int(STORM_READERS as i64)),
        ("edits", Json::Int(edits)),
        ("coalesced_edits", Json::Int(coalesced)),
        ("edits_per_sec", Json::Int(edits * 1000 / storm_ms)),
        ("edit_p50_us", Json::Int(percentile_us(&edit_ns, 0.50))),
        ("edit_p99_us", Json::Int(percentile_us(&edit_ns, 0.99))),
        ("idle_reads", Json::Int(idle_ns.len() as i64)),
        ("idle_read_p50_us", Json::Int(percentile_us(&idle_ns, 0.50))),
        ("idle_read_p99_us", Json::Int(percentile_us(&idle_ns, 0.99))),
        ("busy_reads", Json::Int(busy_ns.len() as i64)),
        ("busy_read_p50_us", Json::Int(percentile_us(&busy_ns, 0.50))),
        ("busy_read_p99_us", Json::Int(percentile_us(&busy_ns, 0.99))),
    ]);
    println!(
        "edit-storm: {} edits by {} writers in {} ms ({} coalesced), \
         read p50 idle {} us vs under-storm {} us ({} reads)",
        edits,
        STORM_WRITERS,
        storm_ms,
        coalesced,
        percentile_us(&idle_ns, 0.50),
        percentile_us(&busy_ns, 0.50),
        busy_ns.len(),
    );
    merge_bench_section(&args.out, "edit_storm", section)
        .map_err(|e| format!("cannot write {}: {e}", args.out))?;
    eprintln!("service_load: wrote {} (edit_storm section)", args.out);
    if coalesced == 0 {
        eprintln!("service_load: FAIL — the storm coalesced no edits");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// Fault-injection mode
// ---------------------------------------------------------------------------

/// A mesh big enough that its cold sweep dominates the daemon's
/// request deadline, plus how long the sweep took here.
fn calibrated_gate() -> (String, Duration) {
    let sizes = [32u32, 64, 128, 256];
    for (i, n) in sizes.iter().enumerate() {
        let cif = mesh_cif(*n);
        let lib = Library::from_cif_text(&cif).expect("gate cif parses");
        let mut ex = IncrementalExtractor::new(FlatLayout::from_library(&lib), BANDS);
        let t = Instant::now();
        ex.extract("aced").expect("gate sweeps");
        let took = t.elapsed();
        if took >= Duration::from_millis(300) || i + 1 == sizes.len() {
            eprintln!("faults: gate mesh {n} sweeps in {took:?}");
            return (cif, took);
        }
    }
    unreachable!("loop returns on its last iteration")
}

/// Fault 1: a peer that dribbles a valid frame byte-by-byte — with
/// stalls longer than the daemon's read-poll interval, including
/// inside the 4-byte length prefix — must be answered, not dropped.
fn fault_slow_writer() -> Result<(), String> {
    use ace_service::frame::read_frame;
    use ace_service::protocol::{decode_response, encode_request, Request, Response};

    let daemon = Daemon::new(ServiceConfig::default());
    let addr = daemon
        .serve_tcp("127.0.0.1:0")
        .map_err(|e| format!("slow-writer: bind: {e}"))?;
    let mut raw = std::net::TcpStream::connect(addr).map_err(|e| format!("slow-writer: {e}"))?;

    let payload = encode_request(7, &Request::Status);
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    for (i, byte) in frame.iter().enumerate() {
        if i <= 6 {
            // Longer than the daemon's 25 ms poll interval.
            std::thread::sleep(Duration::from_millis(35));
        }
        raw.write_all(std::slice::from_ref(byte))
            .map_err(|e| format!("slow-writer: write: {e}"))?;
        raw.flush()
            .map_err(|e| format!("slow-writer: flush: {e}"))?;
    }
    let answer = read_frame(&mut raw)
        .map_err(|e| format!("slow-writer: read: {e}"))?
        .ok_or("slow-writer: daemon dropped the dribbled frame")?;
    let (id, response) =
        decode_response(&answer).map_err(|e| format!("slow-writer: decode: {e}"))?;
    daemon.join();
    match response {
        Response::Status(_) if id == 7 => Ok(()),
        other => Err(format!("slow-writer: expected status, got {other:?}")),
    }
}

/// Fault 2: an `edit-diff` timed out behind a busy worker, then
/// retried with the same sequence number, must apply exactly once —
/// the wirelist must equal the single-apply oracle, and a further
/// duplicate must be acknowledged with the same answer.
///
/// The scenario needs the gate's cold sweep to reach the one worker
/// before the edit does; on a loaded single-core host the spawned
/// gate client can lose that race, so the whole scenario retries with
/// a longer head start (fresh daemon each attempt — a missed race
/// applies the edit, poisoning the sequence for a rerun).
fn fault_timeout_retry() -> Result<(), String> {
    let (gate_cif, gate_sweep) = calibrated_gate();
    let mut last = String::from("timeout-retry: never attempted");
    for head_start_ms in [10u64, 50, 150] {
        match fault_timeout_retry_once(&gate_cif, gate_sweep, head_start_ms) {
            Ok(()) => return Ok(()),
            Err(NotDelayed) => {
                last = format!(
                    "timeout-retry: the edit was not delayed past its deadline \
                     even with a {head_start_ms} ms head start"
                );
                eprintln!("faults: gate lost the race at {head_start_ms} ms; retrying");
            }
            Err(Fatal(message)) => return Err(message),
        }
    }
    Err(last)
}

/// Why one timeout-retry attempt failed: the gate sweep lost the race
/// (retryable with a fresh daemon) or a real assertion failed.
enum FaultAttemptError {
    NotDelayed,
    Fatal(String),
}
use FaultAttemptError::{Fatal, NotDelayed};

impl From<String> for FaultAttemptError {
    fn from(message: String) -> FaultAttemptError {
        Fatal(message)
    }
}

impl From<&str> for FaultAttemptError {
    fn from(message: &str) -> FaultAttemptError {
        Fatal(message.to_string())
    }
}

fn fault_timeout_retry_once(
    gate_cif: &str,
    gate_sweep: Duration,
    head_start_ms: u64,
) -> Result<(), FaultAttemptError> {
    // The deadline sits well under the gate sweep (so the parked edit
    // reliably times out) but far above the small session's own sweep
    // (so the retry reliably lands).
    let timeout = (gate_sweep / 8).clamp(Duration::from_millis(10), Duration::from_millis(400));
    let gate_cif = gate_cif.to_string();
    let daemon = Daemon::new(ServiceConfig {
        workers: 1,
        request_timeout: timeout,
        ..ServiceConfig::default()
    });
    let addr = daemon
        .serve_tcp("127.0.0.1:0")
        .map_err(|e| format!("timeout-retry: bind: {e}"))?
        .to_string();
    let mut client =
        Client::connect_tcp(&addr).map_err(|e| format!("timeout-retry: connect: {e}"))?;

    let small_cif = mesh_cif(6);
    client
        .open("small", &small_cif, BANDS, ExtractOptions::new())
        .map_err(|e| format!("timeout-retry: open small: {e}"))?;
    client
        .extract("small")
        .map_err(|e| format!("timeout-retry: seed small: {e}"))?;
    client
        .open("gate", &gate_cif, BANDS, ExtractOptions::new())
        .map_err(|e| format!("timeout-retry: open gate: {e}"))?;

    // The self-checking edit: removing the bottom poly row twice
    // fails outright, so a double-apply cannot pass silently.
    let mut diff = LayoutDiff::new();
    diff.remove_box(
        ace_geom::Layer::Poly,
        ace_geom::Rect::new(-MESH_PITCH, 0, 6 * MESH_PITCH, MESH_LINE),
    );
    let lib = Library::from_cif_text(&small_cif).expect("small cif parses");
    let mut oracle = IncrementalExtractor::new(FlatLayout::from_library(&lib), BANDS);
    oracle.extract("aced").expect("oracle warms");
    oracle.apply(&diff).expect("oracle applies once");
    let oracle_text = write_wirelist(
        &oracle.extract("aced").expect("oracle re-extracts").netlist,
        WirelistOptions::new(),
    );

    // Occupy the single worker with gate's cold sweep (several times
    // the request deadline), then send the edit: its drain job queues
    // behind the sweep and the client's deadline fires first. The
    // gate client's own timeout answer is expected — the sweep keeps
    // the worker busy regardless.
    let gate_thread = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect_tcp(&addr).expect("gate connect");
            let _ = c.extract("gate");
        })
    };
    std::thread::sleep(Duration::from_millis(head_start_ms));
    match client.edit_diff_seq("small", Some(1), &diff) {
        Err(ClientError::Service(e)) if e.code == ErrorCode::Timeout => {}
        Ok(_) => {
            let _ = gate_thread.join();
            daemon.join();
            return Err(NotDelayed);
        }
        Err(other) => {
            return Err(Fatal(format!(
                "timeout-retry: expected timeout, got {other}"
            )))
        }
    }
    gate_thread
        .join()
        .map_err(|_| "timeout-retry: gate thread panicked".to_string())?;

    // Retry the SAME seq until it lands. Over-retrying is safe by
    // construction: whichever attempt applies first wins and every
    // later one is acknowledged as a duplicate.
    let mut landed = None;
    for _ in 0..100 {
        match client.edit_diff_seq("small", Some(1), &diff) {
            Ok(result) => {
                landed = Some(result);
                break;
            }
            Err(ClientError::Service(e)) if e.code == ErrorCode::Timeout => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(other) => return Err(Fatal(format!("timeout-retry: retry failed: {other}"))),
        }
    }
    let landed = landed.ok_or("timeout-retry: retries never landed")?;
    if landed.wirelist != oracle_text {
        return Err("timeout-retry: retried edit drifted from the single-apply oracle".into());
    }
    let acked = client
        .edit_diff_seq("small", Some(1), &diff)
        .map_err(|e| format!("timeout-retry: duplicate: {e}"))?;
    if acked.wirelist != oracle_text {
        return Err("timeout-retry: duplicate ack drifted from the single-apply oracle".into());
    }
    daemon.join();
    Ok(())
}

fn run_faults() -> Result<ExitCode, String> {
    fault_slow_writer()?;
    println!("faults: slow-writer dribble served OK");
    fault_timeout_retry()?;
    println!("faults: timed-out edit retried with the same seq applied exactly once");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// Mix mode (default) and smoke
// ---------------------------------------------------------------------------

fn run_mix(args: &Args) -> Result<ExitCode, String> {
    let cif = Arc::new(mesh_cif(args.mesh_n));
    let (endpoint, local) = pick_endpoint(args)?;

    let oracle = args.smoke.then(|| Arc::new(build_oracle(&cif)));
    let retries = Arc::new(AtomicU64::new(0));
    let wall = Instant::now();
    let handles: Vec<_> = (0..args.clients)
        .map(|id| {
            let endpoint = endpoint.clone();
            let cif = Arc::clone(&cif);
            let oracle = oracle.clone();
            let retries = Arc::clone(&retries);
            let requests = args.requests;
            std::thread::spawn(move || run_client(id, endpoint, cif, oracle, requests, retries))
        })
        .collect();

    let mut samples: Vec<Sample> = Vec::new();
    let mut failures = Vec::new();
    for handle in handles {
        match handle.join().expect("client thread") {
            Ok(mut s) => samples.append(&mut s),
            Err(e) => failures.push(e),
        }
    }
    let wall_ms = wall.elapsed().as_millis().max(1) as i64;
    if let Some(daemon) = local {
        daemon.join();
    }
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }

    let retries = retries.load(Ordering::Relaxed);
    if args.smoke {
        println!(
            "service_load smoke: OK ({} clients x {} rounds, {} requests, \
             {} queue-full retries, every answer matched the in-process oracle)",
            args.clients,
            args.requests,
            samples.len(),
            retries
        );
        return Ok(ExitCode::SUCCESS);
    }

    // Aggregate: overall throughput + per-op percentiles.
    let mut all_ns: Vec<u64> = samples.iter().map(|s| s.ns).collect();
    all_ns.sort_unstable();
    let total = samples.len() as i64;

    let ops = ["open", "extract", "edit-diff", "lint", "query-net", "close"];
    let op_rows: Vec<Json> = ops
        .iter()
        .map(|op| {
            let mut ns: Vec<u64> = samples
                .iter()
                .filter(|s| s.op == *op)
                .map(|s| s.ns)
                .collect();
            ns.sort_unstable();
            Json::obj([
                ("op", Json::str(*op)),
                ("count", Json::Int(ns.len() as i64)),
                ("p50_us", Json::Int(percentile_us(&ns, 0.50))),
                ("p99_us", Json::Int(percentile_us(&ns, 0.99))),
            ])
        })
        .collect();
    let section = Json::obj([
        ("workload", Json::str("mesh")),
        ("mesh_n", Json::Int(args.mesh_n as i64)),
        (
            "host_cores",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        ("clients", Json::Int(args.clients as i64)),
        ("requests_per_client", Json::Int(args.requests as i64)),
        ("total_requests", Json::Int(total)),
        ("wall_ms", Json::Int(wall_ms)),
        ("requests_per_sec", Json::Int(total * 1000 / wall_ms)),
        ("queue_full_retries", Json::Int(retries as i64)),
        (
            "latency_us",
            Json::obj([
                ("p50", Json::Int(percentile_us(&all_ns, 0.50))),
                ("p99", Json::Int(percentile_us(&all_ns, 0.99))),
            ]),
        ),
        ("ops", Json::Arr(op_rows)),
    ]);
    let text = merge_bench_section(&args.out, "mix", section)
        .map_err(|e| format!("cannot write {}: {e}", args.out))?;
    print!("{text}");
    eprintln!("service_load: wrote {} (mix section)", args.out);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = parse_args();
    let outcome = if args.faults {
        run_faults()
    } else if args.edit_storm {
        run_edit_storm(&args)
    } else {
        run_mix(&args)
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("service_load: {e}");
            ExitCode::FAILURE
        }
    }
}
