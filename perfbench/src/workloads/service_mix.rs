//! `service_mix`: the served path. An in-process `Daemon` with the
//! default configuration on loopback TCP, and two closed-loop clients,
//! each with private sessions on cherry proxies at scale 0.1. One op is
//! one client's cycle on one of its sessions: `edit-diff` (a seeded 1 %
//! edit or its inverse), `extract`, `lint` and `query-net`.

use std::time::Instant;

use ace_core::{CircuitExtractor, ExtractOptions, IncrementalExtractor};
use ace_layout::{FlatLayout, LayoutDiff, Library};
use ace_lint::{lint, LintConfig};
use ace_service::protocol::{decode_request, decode_response, encode_request, encode_response};
use ace_service::{Client, Daemon, ErrorCode, NetInfo, Request, Response, ServiceConfig};
use ace_wirelist::parasitics::{net_capacitance_af, net_resistance_mohm, ParasiticParams};
use ace_wirelist::{write_wirelist, Netlist, WirelistOptions};
use ace_workloads::chips::{generate_chip, paper_chip, ChipSpec};
use ace_workloads::edits::localized_edit_fraction;

use crate::trace::{ms, Samples, Tracer};
use crate::workloads::edit_loop::incremental_samples;
use crate::workloads::sub_seed;
use crate::{latency_summary, to_ms, Config, Outcome};

const CLIENTS: usize = 2;
/// Sessions per client, each on its own seeded chip. Cycle time on one
/// chip proxy at this scale moves by a third from seed to seed with the
/// chip's composition, so a run rotates over several chips and its
/// medians do not hang on one of them.
const SESSIONS: usize = 4;
const BANDS: usize = 4;
const SCALE: f64 = 0.1;
const EDIT_FRACTION: f64 = 0.01;
const QUERY_NET: &str = "VDD";
/// The daemon names every extraction after itself.
const NETLIST_NAME: &str = "aced";
const KINDS: [&str; 4] = ["edit", "read", "lint", "query"];

/// What the daemon must answer in one layout state.
struct Expected {
    wirelist: String,
    lint: Vec<String>,
    net: NetInfo,
}

/// One session's inputs: its chip, its edit and the edit's inverse,
/// and the oracle's answers for the original (0) and edited (1)
/// layout.
struct Plan {
    session: String,
    cif: String,
    boxes: u64,
    flat: FlatLayout,
    edit: LayoutDiff,
    inverse: LayoutDiff,
    expected: [Expected; 2],
}

/// One request as sent and answered, kept for the traced replays.
struct Sent {
    session: usize,
    kind: usize,
    id: i64,
    request: Request,
    response: Response,
    rtt_ns: u64,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientRun {
    op_ns: Vec<u64>,
    rtt_ns: [Vec<u64>; 4],
    failed: u64,
    queue_full: u64,
    errors: Vec<String>,
    sent: Vec<Sent>,
}

pub fn run(cfg: &Config, out: &mut Outcome) {
    let plans: Vec<Vec<Plan>> = match (0..CLIENTS)
        .map(|c| {
            (0..SESSIONS)
                .map(|j| plan(format!("mix-{c}-{j}"), sub_seed(cfg.seed, c * SESSIONS + j)))
                .collect()
        })
        .collect()
    {
        Ok(p) => p,
        Err(e) => {
            out.errors.push(format!("oracle: {e}"));
            return;
        }
    };
    out.boxes = plans.iter().flatten().map(|p| p.boxes).sum::<u64>() / (CLIENTS * SESSIONS) as u64;

    let epoch = Instant::now();
    let mut setup_trace = cfg.tracer(epoch, 0);
    let mut served = None;
    for _ in 0..cfg.setups {
        if let Some((daemon, _, clients)) = served.take() {
            stop(daemon, clients);
        }
        let t0 = Instant::now();
        // Each `open` is a root span of its own, so `service.open_ms`
        // is per open, not per set-up.
        let made = set_up(&plans, &mut setup_trace);
        out.setup_ns.push(t0.elapsed().as_nanos() as u64);
        match made {
            Ok(s) => served = Some(s),
            Err(e) => out.errors.push(format!("set-up: {e}")),
        }
    }
    let Some((daemon, addr, clients)) = served else {
        return;
    };
    let status = || -> Option<i64> {
        Client::connect_tcp(&addr)
            .ok()?
            .status()
            .ok()
            .map(|s| s.executed)
    };
    let executed_before = status();

    let start = Instant::now();
    let runs: Vec<(ClientRun, Tracer, Client)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&plans)
            .enumerate()
            .map(|(c, (client, plans))| {
                let t = cfg.tracer(epoch, c + 1);
                s.spawn(move || client_loop(cfg, start, client, plans, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    out.window_ns = start.elapsed().as_nanos() as u64;
    let executed_after = status();

    let mut rtt: [Vec<u64>; 4] = Default::default();
    let mut queue_full = 0;
    for (run, _, _) in &runs {
        out.op_ns.extend(&run.op_ns);
        out.attempted += run.op_ns.len() as u64 + run.failed;
        out.failed += run.failed;
        out.errors.extend(run.errors.iter().cloned());
        queue_full += run.queue_full;
        for (all, mine) in rtt.iter_mut().zip(&run.rtt_ns) {
            all.extend(mine);
        }
    }
    let secs = out.window_ns as f64 / 1e9;
    let requests: usize = rtt.iter().map(Vec::len).sum();
    out.notes.push(format!(
        "{} requests, {:.1} req/s over {} clients x {} sessions; {} queue-full refusals",
        requests,
        requests as f64 / secs,
        CLIENTS,
        SESSIONS,
        queue_full
    ));
    for (k, name) in KINDS.iter().enumerate() {
        out.notes.push(format!(
            "  {name:<5} round trip {}",
            latency_summary(&to_ms(&rtt[k]))
        ));
    }

    if cfg.traced {
        let cycles = out.op_ns.len().max(1) as f64;
        if let (Some(a), Some(b)) = (executed_before, executed_after) {
            out.samples
                .push("service.pool_jobs_per_cycle", (b - a) as f64 / cycles);
            out.samples.count("service.pool_jobs", (b - a) as u64);
        }
        out.samples.push("service.queue_full", queue_full as f64);
        out.samples.count("service.queue_full", queue_full);
        // Both clients replay the same number of cycles, so the count
        // vectors of two passes line up op for op.
        let even = runs
            .iter()
            .map(|(r, _, _)| r.op_ns.len())
            .min()
            .unwrap_or(0);
        out.replay_ops = Some(even * CLIENTS);
        let mut replay = Tracer::on(epoch, CLIENTS + 1);
        for ((run, _, _), plans) in runs.iter().zip(&plans) {
            replay_client(plans, run, even, &mut replay, &mut out.samples);
        }
        let mut tracers: Vec<&Tracer> = vec![&setup_trace];
        tracers.extend(runs.iter().map(|(_, t, _)| t));
        tracers.push(&replay);
        out.absorb(&tracers);
    }
    let clients = runs.into_iter().map(|(_, _, c)| c).collect();
    stop(daemon, clients);
}

fn plan(session: String, seed: u64) -> Result<Plan, String> {
    let spec = ChipSpec {
        seed,
        ..*paper_chip("cherry").expect("cherry is a paper chip")
    }
    .scaled(SCALE);
    let chip = generate_chip(&spec);
    let flat =
        FlatLayout::from_library(&Library::from_cif_text(&chip.cif).map_err(|e| e.to_string())?);
    let edit = localized_edit_fraction(&flat, EDIT_FRACTION, seed);
    let inverse = LayoutDiff {
        boxes_added: edit.boxes_removed.clone(),
        boxes_removed: edit.boxes_added.clone(),
        labels_added: edit.labels_removed.clone(),
        labels_removed: edit.labels_added.clone(),
    };
    // The oracle mirrors a session in process: the same band count,
    // the same seam lines, the edit applied to the same extractor.
    let mut ex = IncrementalExtractor::new(flat.clone(), BANDS);
    let expect = |ex: &mut IncrementalExtractor| -> Result<Expected, String> {
        let e = ex.extract(NETLIST_NAME).map_err(|e| e.to_string())?;
        Ok(Expected {
            wirelist: write_wirelist(&e.netlist, WirelistOptions::new()),
            lint: lint(&e.netlist, ex.layout(), &LintConfig::new())
                .iter()
                .map(|d| d.render())
                .collect(),
            net: net_info(&e.netlist, QUERY_NET),
        })
    };
    let original = expect(&mut ex)?;
    ex.apply(&edit).map_err(|e| e.to_string())?;
    let edited = expect(&mut ex)?;
    Ok(Plan {
        session,
        cif: chip.cif,
        boxes: chip.boxes,
        flat,
        edit,
        inverse,
        expected: [original, edited],
    })
}

/// The `query-net` answer for `name`, derived from the netlist.
fn net_info(netlist: &Netlist, name: &str) -> NetInfo {
    let Some(id) = netlist.net_by_name(name) else {
        return NetInfo {
            net: name.to_string(),
            found: false,
            names: Vec::new(),
            gates: 0,
            terminals: 0,
            cap_af: 0,
            res_mohm: 0,
        };
    };
    let gates = netlist.devices().iter().filter(|d| d.gate == id).count() as i64;
    let terminals = netlist
        .devices()
        .iter()
        .map(|d| i64::from(d.source == id) + i64::from(d.drain == id))
        .sum();
    let params = ParasiticParams::nmos();
    let parasitics = &netlist.net(id).parasitics;
    NetInfo {
        net: name.to_string(),
        found: true,
        names: netlist.net(id).names.clone(),
        gates,
        terminals,
        cap_af: net_capacitance_af(parasitics, &params),
        res_mohm: net_resistance_mohm(parasitics, &params),
    }
}

/// A running daemon, its address, and the two connected clients.
type Served = (Daemon, String, Vec<Client>);

/// Starts a daemon, connects both clients, opens their sessions and
/// runs each session's first extract. Each client makes two calls per
/// session here, so its cycles' request ids start at
/// `2 * SESSIONS + 1`.
fn set_up(plans: &[Vec<Plan>], t: &mut Tracer) -> Result<Served, String> {
    let daemon = Daemon::new(ServiceConfig::default());
    let addr = daemon
        .serve_tcp("127.0.0.1:0")
        .map_err(|e| format!("serve: {e}"))?
        .to_string();
    let mut clients = Vec::new();
    for plans in plans {
        let mut client = Client::connect_tcp(&addr).map_err(|e| format!("connect: {e}"))?;
        for (j, plan) in plans.iter().enumerate() {
            let id = 2 * j as i64 + 1;
            let open = Request::Open {
                session: plan.session.clone(),
                cif: plan.cif.clone(),
                bands: BANDS,
                options: ExtractOptions::new(),
            };
            let opened = t
                .span_req("service.open", Some(id), |_| client.call(&open))
                .map_err(|e| format!("open: {e}"))?;
            if t.is_on() {
                t.span("service.open_codec", |_| codec(id, &open, &opened));
            }
            if !matches!(opened, Response::Opened { .. }) {
                return Err(format!("open answered {opened:?}"));
            }
            let first = client
                .extract(&plan.session)
                .map_err(|e| format!("first extract: {e}"))?;
            if first.wirelist != plan.expected[0].wirelist {
                return Err("first extract differs from the oracle".into());
            }
        }
        clients.push(client);
    }
    Ok((daemon, addr, clients))
}

fn stop(daemon: Daemon, clients: Vec<Client>) {
    drop(clients);
    daemon.shutdown();
    daemon.join();
}

/// The four codec calls of one request, on its exact bytes; returns
/// the response's encoded size.
fn codec(id: i64, request: &Request, response: &Response) -> usize {
    let q = encode_request(id, request);
    let decoded = decode_request(&q);
    let r = encode_response(id, response);
    let answered = decode_response(&r);
    std::hint::black_box((decoded.is_ok(), answered.is_ok()));
    r.len()
}

/// One client's closed loop, rotating over its sessions.
fn client_loop(
    cfg: &Config,
    start: Instant,
    mut client: Client,
    plans: &[Plan],
    mut t: Tracer,
) -> (ClientRun, Tracer, Client) {
    let mut run = ClientRun::default();
    let mut next_id = 2 * SESSIONS as i64 + 1;
    let mut states = [0usize; SESSIONS];
    let per_client = cfg.ops.map(|n| n / CLIENTS);
    loop {
        let done = run.op_ns.len();
        let over = match per_client {
            Some(n) => done >= n,
            None => cfg.window_over(start, done),
        };
        if over {
            break;
        }
        let session = done % SESSIONS;
        let plan = &plans[session];
        let after = 1 - states[session];
        let requests = [
            Request::EditDiff {
                session: plan.session.clone(),
                seq: None,
                diff: if after == 1 {
                    plan.edit.clone()
                } else {
                    plan.inverse.clone()
                },
            },
            Request::Extract {
                session: plan.session.clone(),
            },
            Request::Lint {
                session: plan.session.clone(),
                config: LintConfig::new(),
            },
            Request::QueryNet {
                session: plan.session.clone(),
                net: QUERY_NET.to_string(),
            },
        ];
        let t0 = Instant::now();
        let answers = t.span("op", |t| {
            let mut answers = Vec::with_capacity(4);
            for (kind, request) in requests.iter().enumerate() {
                let id = next_id;
                next_id += 1;
                let name = [
                    "service.edit.rtt",
                    "service.read.rtt",
                    "service.lint.rtt",
                    "service.query.rtt",
                ][kind];
                let r0 = Instant::now();
                let answer = t.span_req(name, Some(id), |_| client.call(request));
                let rtt_ns = r0.elapsed().as_nanos() as u64;
                match answer {
                    Ok(response) => answers.push((id, response, rtt_ns)),
                    Err(e) => return Err(format!("{}: {e}", KINDS[kind])),
                }
                if let Some((_, Response::Error(_), _)) = answers.last() {
                    break;
                }
            }
            Ok(answers)
        });
        let ns = t0.elapsed().as_nanos() as u64;
        let answers = match answers {
            Ok(a) => a,
            Err(e) => {
                run.failed += 1;
                run.errors.push(e);
                break;
            }
        };
        // Untimed check of every answer against the oracle.
        let want = &plan.expected[after];
        let mut wrong = None;
        for (kind, (_, response, _)) in answers.iter().enumerate() {
            let ok = match (kind, response) {
                (0 | 1, Response::Extracted(r)) => r.wirelist == want.wirelist,
                (2, Response::Linted { diagnostics, .. }) => {
                    diagnostics.iter().map(|d| &d.rendered).eq(want.lint.iter())
                }
                (3, Response::Net(info)) => *info == want.net,
                (_, Response::Error(e)) => {
                    if e.code == ErrorCode::QueueFull {
                        run.queue_full += 1;
                    }
                    false
                }
                _ => false,
            };
            if !ok {
                wrong = Some(format!(
                    "{} answer differs from the oracle: {response:?}",
                    KINDS[kind]
                ));
                break;
            }
        }
        if let Some(e) = wrong {
            run.failed += 1;
            if run.errors.len() < 4 {
                run.errors.push(e);
            }
            // A refused or wrong edit leaves the session's state unknown.
            break;
        }
        states[session] = after;
        run.op_ns.push(ns);
        for (kind, (id, response, rtt_ns)) in answers.into_iter().enumerate() {
            run.rtt_ns[kind].push(rtt_ns);
            if t.is_on() {
                run.sent.push(Sent {
                    session,
                    kind,
                    id,
                    request: requests[kind].clone(),
                    response,
                    rtt_ns,
                });
            }
        }
    }
    (run, t, client)
}

/// Replays one client's first `cycles` cycles in process: the codec
/// calls on each request's exact bytes, and the op itself on a replica
/// of the session. Wait is what the round trip spent elsewhere.
fn replay_client(plans: &[Plan], run: &ClientRun, cycles: usize, t: &mut Tracer, s: &mut Samples) {
    const CODEC: [&str; 4] = [
        "service.edit.codec",
        "service.read.codec",
        "service.lint.codec",
        "service.query.codec",
    ];
    const EXEC: [&str; 4] = [
        "service.edit.exec",
        "service.read.exec",
        "service.lint.exec",
        "service.query.exec",
    ];
    const WAIT: [&str; 4] = [
        "service.edit.wait_ms",
        "service.read.wait_ms",
        "service.lint.wait_ms",
        "service.query.wait_ms",
    ];
    const KIB: [&str; 4] = [
        "service.edit.response_kib",
        "service.read.response_kib",
        "service.lint.response_kib",
        "service.query.response_kib",
    ];
    const BYTES: [&str; 4] = [
        "service.edit.response_bytes",
        "service.read.response_bytes",
        "service.lint.response_bytes",
        "service.query.response_bytes",
    ];
    let config = LintConfig::new();
    // Per session: the replica, its last extraction and wirelist.
    let mut replicas = Vec::new();
    for plan in plans {
        let layout = plan.flat.clone();
        let mut replica = t.span("core.new", |_| IncrementalExtractor::new(layout, BANDS));
        let Ok(current) = t.span("core.warm", |_| replica.extract(NETLIST_NAME)) else {
            return;
        };
        let wirelist = write_wirelist(&current.netlist, WirelistOptions::new());
        replicas.push((replica, current, wirelist));
    }
    for sent in run.sent.iter().take(cycles * 4) {
        let k = sent.kind;
        let (replica, current, wirelist) = &mut replicas[sent.session];
        let bytes = t.span_req(CODEC[k], Some(sent.id), |_| {
            codec(sent.id, &sent.request, &sent.response)
        });
        let codec_ns = t.last_ns();
        match &sent.request {
            Request::EditDiff { diff, .. } => {
                let fresh = t.span_req(EXEC[k], Some(sent.id), |t| {
                    t.span("core.apply", |_| replica.apply(diff)).ok()?;
                    let apply_allocs = t.last_allocs();
                    let e = t
                        .span("core.extract", |_| replica.extract(NETLIST_NAME))
                        .ok()?;
                    let (extract_ns, extract_allocs) = (t.last_ns(), t.last_allocs());
                    let w = t.span("wirelist.write", |_| {
                        write_wirelist(&e.netlist, WirelistOptions::new())
                    });
                    let allocs = apply_allocs + extract_allocs + t.last_allocs();
                    Some((e, w, extract_ns, allocs))
                });
                if let Some((e, w, extract_ns, allocs)) = fresh {
                    incremental_samples(&e.report, extract_ns, allocs, s);
                    *current = e;
                    *wirelist = w;
                }
            }
            Request::Extract { .. } => {
                let copy = t.span_req(EXEC[k], Some(sent.id), |_| wirelist.clone());
                std::hint::black_box(copy);
            }
            Request::Lint { .. } => {
                let d = t.span_req(EXEC[k], Some(sent.id), |_| {
                    lint(&current.netlist, replica.layout(), &config)
                });
                std::hint::black_box(d);
            }
            _ => {
                let info = t.span_req(EXEC[k], Some(sent.id), |_| {
                    net_info(&current.netlist, QUERY_NET)
                });
                std::hint::black_box(info);
            }
        }
        let exec_ns = t.last_ns();
        s.push(WAIT[k], ms(sent.rtt_ns) - ms(codec_ns) - ms(exec_ns));
        s.push(KIB[k], bytes as f64 / 1024.0);
        s.count(BYTES[k], bytes as u64);
    }
}
