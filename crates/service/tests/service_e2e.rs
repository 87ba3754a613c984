//! End-to-end daemon tests: a real `Daemon` with real sockets, and a
//! [`Client`] on the other end. The oracle is always the in-process
//! extraction path: whatever the service answers over the wire must
//! equal what the same `IncrementalExtractor` computes directly.

use ace_core::{CircuitExtractor, ExtractOptions, IncrementalExtractor, NullProbe};
use ace_layout::{FlatLayout, Library};
use ace_lint::{lint_extraction, LintConfig};
use ace_service::{Client, ClientError, Daemon, ErrorCode, ServiceConfig};
use ace_wirelist::compare::same_circuit;
use ace_wirelist::parasitics::{net_capacitance_af, net_resistance_mohm, ParasiticParams};
use ace_wirelist::{parse_wirelist, write_wirelist, WirelistOptions};
use ace_workloads::cells::chained_inverters_cif;
use ace_workloads::mesh::{mesh_cif, MESH_LINE, MESH_PITCH};

const BANDS: usize = 4;

/// The daemon end of every test: serve TCP on an ephemeral port.
fn daemon_and_client(config: ServiceConfig) -> (Daemon, Client) {
    let daemon = Daemon::new(config);
    let addr = daemon.serve_tcp("127.0.0.1:0").expect("bind tcp");
    let client = Client::connect_tcp(&addr.to_string()).expect("connect");
    (daemon, client)
}

fn in_process(cif: &str) -> IncrementalExtractor {
    let lib = Library::from_cif_text(cif).expect("oracle parses");
    IncrementalExtractor::new(FlatLayout::from_library(&lib), BANDS)
}

fn service_error(err: ClientError) -> ace_service::ServiceError {
    match err {
        ClientError::Service(e) => e,
        other => panic!("expected a service error, got: {other}"),
    }
}

#[test]
fn daemon_extract_lint_and_query_match_in_process_results() {
    let cif = chained_inverters_cif(6);
    let (daemon, mut client) = daemon_and_client(ServiceConfig::default());
    client
        .open("chain", &cif, BANDS, ExtractOptions::new())
        .expect("open");

    // Extract over the wire vs the oracle.
    let wire = client.extract("chain").expect("extract");
    let mut oracle = in_process(&cif);
    let extraction = oracle.extract("aced").expect("oracle extracts");
    let oracle_text = write_wirelist(&extraction.netlist, WirelistOptions::new());
    assert_eq!(
        wire.wirelist, oracle_text,
        "wire and oracle wirelists differ"
    );
    let wire_netlist = parse_wirelist(&wire.wirelist).expect("wire wirelist parses");
    same_circuit(&wire_netlist, &extraction.netlist).expect("isomorphic circuits");
    assert!(
        wire.report.boxes > 0,
        "per-request stats should be populated"
    );
    assert!(wire.report.total_ns > 0);

    // Lint over the wire vs the oracle (same config, same layout).
    let config = LintConfig::new();
    let (wire_diags, report) = client.lint("chain", &config).expect("lint");
    let mut oracle = in_process(&cif);
    let extraction = oracle.extract("aced").expect("oracle extracts");
    let oracle_diags = lint_extraction(&extraction, oracle.layout(), &config, &NullProbe);
    assert_eq!(wire_diags.len(), oracle_diags.len());
    for (wire_d, oracle_d) in wire_diags.iter().zip(&oracle_diags) {
        assert_eq!(wire_d.rendered, oracle_d.render());
    }
    assert_eq!(report.lints_emitted, oracle_diags.len() as i64);

    // query-net: every named net the oracle knows answers identically
    // over the wire — including the parasitic R/C — and a bogus name
    // answers found=false, not an error.
    let params = ParasiticParams::nmos();
    let mut named = 0;
    let mut loaded = 0;
    for (id, net) in extraction.netlist.nets() {
        let Some(name) = net.names.first() else {
            continue;
        };
        named += 1;
        let info = client.query_net("chain", name).expect("query-net");
        assert!(info.found, "net '{name}' should resolve");
        assert_eq!(info.names, net.names);
        let gates = extraction
            .netlist
            .devices()
            .iter()
            .filter(|d| d.gate == id)
            .count();
        assert_eq!(info.gates, gates as i64, "gate count for '{name}'");
        assert_eq!(
            info.cap_af,
            net_capacitance_af(&net.parasitics, &params),
            "wire capacitance for '{name}'"
        );
        assert_eq!(
            info.res_mohm,
            net_resistance_mohm(&net.parasitics, &params),
            "wire resistance for '{name}'"
        );
        if info.cap_af > 0 {
            loaded += 1;
        }
    }
    assert!(named > 0, "workload should have labelled nets");
    assert!(loaded > 0, "some net should carry real wire capacitance");
    let missing = client.query_net("chain", "no-such-net").expect("query-net");
    assert!(!missing.found);
    assert!(missing.names.is_empty());
    assert_eq!((missing.cap_af, missing.res_mohm), (0, 0));

    daemon.join();
}

#[test]
fn daemon_drc_matches_in_process_checker() {
    // One lone 250-wide metal sliver: a deterministic min-width
    // violation under the default NMOS deck (NM minimum is 750).
    let cif = "L NM; B 250 250 125 125; E";
    let (daemon, mut client) = daemon_and_client(ServiceConfig::default());
    client
        .open("drc", cif, BANDS, ExtractOptions::new())
        .expect("open");

    let config = LintConfig::new();
    let (wire_diags, report) = client.drc("drc", None, &config).expect("drc");
    let mut oracle = in_process(cif);
    oracle.extract("aced").expect("oracle extracts");
    let oracle_diags = ace_drc::check(oracle.layout(), &ace_drc::RuleDeck::nmos(), &config);
    assert!(!oracle_diags.is_empty(), "sliver must trip min-width");
    assert_eq!(wire_diags.len(), oracle_diags.len());
    for (wire_d, oracle_d) in wire_diags.iter().zip(&oracle_diags) {
        assert_eq!(wire_d.rendered, oracle_d.render());
        // The wire span reconstructs the full diagnostic (modulo
        // related spans), so client-side SARIF matches in-process.
        assert_eq!(wire_d.to_diagnostic().primary, oracle_d.primary);
    }
    assert_eq!(report.drc_violations, oracle_diags.len() as i64);
    // The check's `drc` span reaches the wire as its time.
    assert!(report.drc_time_ns > 0, "{report:?}");

    // A custom deck travels as text and changes the verdict: with the
    // metal minimum relaxed to 250 the sliver is legal.
    let loose = "deck loose\nwidth NM 250\n";
    let (loose_diags, loose_report) = client.drc("drc", Some(loose), &config).expect("loose drc");
    assert!(
        loose_diags.is_empty(),
        "relaxed deck should pass: {loose_diags:?}"
    );
    assert_eq!(loose_report.drc_violations, 0);

    // A malformed deck is a BadRequest, not a dead session.
    let err = service_error(
        client
            .drc("drc", Some("width bogus-layer 100\n"), &config)
            .expect_err("bad deck"),
    );
    assert_eq!(err.code, ErrorCode::BadRequest);
    assert!(!client
        .drc("drc", None, &config)
        .expect("still serving")
        .0
        .is_empty());

    daemon.join();
}

#[test]
fn edit_diff_matches_full_in_process_reextraction() {
    let cif = mesh_cif(6);
    let (daemon, mut client) = daemon_and_client(ServiceConfig::default());
    client
        .open("mesh", &cif, BANDS, ExtractOptions::new())
        .expect("open");
    let first = client.extract("mesh").expect("first extract");

    let mut oracle = in_process(&cif);
    oracle.extract("aced").expect("oracle warms");
    // One local edit: drop the bottom poly row (6 transistors). Only
    // the bottom band is dirtied, so the resident cache must pay off.
    let mut diff = ace_layout::LayoutDiff::new();
    diff.remove_box(
        ace_geom::Layer::Poly,
        ace_geom::Rect::new(-MESH_PITCH, 0, 6 * MESH_PITCH, MESH_LINE),
    );
    assert!(!diff.is_empty());

    let edited = client.edit_diff("mesh", &diff).expect("edit-diff");
    oracle.apply(&diff).expect("oracle applies diff");
    let extraction = oracle.extract("aced").expect("oracle re-extracts");
    let oracle_text = write_wirelist(&extraction.netlist, WirelistOptions::new());
    assert_eq!(edited.wirelist, oracle_text, "incremental result drifted");
    assert_ne!(
        edited.wirelist, first.wirelist,
        "edits should change the circuit"
    );
    // The session kept its cache warm between the two requests, so
    // the second sweep reuses clean bands.
    assert!(
        edited.report.bands_reused > 0,
        "resident session should reuse bands: {:?}",
        edited.report
    );

    daemon.join();
}

#[test]
fn error_codes_are_stable_over_the_wire() {
    let (daemon, mut client) = daemon_and_client(ServiceConfig::default());

    let err = service_error(client.extract("ghost").expect_err("unknown session"));
    assert_eq!(err.code, ErrorCode::UnknownSession);

    let err = service_error(
        client
            .open("bad", "L ND; B 10 10", BANDS, ExtractOptions::new())
            .expect_err("truncated CIF"),
    );
    assert_eq!(err.code, ErrorCode::ParseError);

    let cif = chained_inverters_cif(2);
    client
        .open("s", &cif, BANDS, ExtractOptions::new())
        .expect("open");
    let err = service_error(
        client
            .open("s", &cif, BANDS, ExtractOptions::new())
            .expect_err("duplicate open"),
    );
    assert_eq!(err.code, ErrorCode::SessionExists);

    // Sessions own banding; options smuggling threads is refused.
    let err = service_error(
        client
            .open("t", &cif, BANDS, ExtractOptions::new().with_threads(2))
            .expect_err("threads option"),
    );
    assert_eq!(err.code, ErrorCode::BadRequest);

    assert!(client.close("s").expect("close"));
    assert!(!client.close("s").expect("close again"));
    let err = service_error(client.extract("s").expect_err("closed session"));
    assert_eq!(err.code, ErrorCode::UnknownSession);

    daemon.join();
}

#[test]
fn zero_budget_evicts_cold_sessions_and_results_stay_correct() {
    let config = ServiceConfig {
        memory_budget: 0,
        ..ServiceConfig::default()
    };
    let (daemon, mut client) = daemon_and_client(config);
    let cif_a = chained_inverters_cif(4);
    let cif_b = mesh_cif(4);
    client
        .open("a", &cif_a, BANDS, ExtractOptions::new())
        .expect("open a");
    client
        .open("b", &cif_b, BANDS, ExtractOptions::new())
        .expect("open b");

    let a1 = client.extract("a").expect("extract a");
    // b's request makes a the coldest cache-holding session: evicted.
    client.extract("b").expect("extract b");
    let status = client.status().expect("status");
    assert!(status.evictions >= 1, "evictor should have run: {status:?}");
    assert_eq!(status.sessions, 2, "eviction drops caches, not sessions");

    // An evicted session still answers instantly: eviction drops the
    // extractor's band cache but keeps the read snapshot, so the
    // repeat extract replays the first answer (only the next *edit*
    // pays the cold re-sweep).
    let a2 = client.extract("a").expect("extract a after eviction");
    assert_eq!(a2.wirelist, a1.wirelist);
    assert_eq!(
        a2.report.bands_reused, 0,
        "snapshot replays the cold-sweep report"
    );

    daemon.join();
}

#[test]
fn unix_socket_serves_the_same_protocol() {
    let path = std::env::temp_dir().join(format!("aced-e2e-{}.sock", std::process::id()));
    let daemon = Daemon::new(ServiceConfig::default());
    daemon.serve_unix(&path).expect("bind unix socket");
    let mut client = Client::connect_unix(&path).expect("connect unix");

    let cif = chained_inverters_cif(3);
    client
        .open("u", &cif, BANDS, ExtractOptions::new())
        .expect("open");
    let wire = client.extract("u").expect("extract");
    let mut oracle = in_process(&cif);
    let extraction = oracle.extract("aced").expect("oracle extracts");
    assert_eq!(
        wire.wirelist,
        write_wirelist(&extraction.netlist, WirelistOptions::new())
    );

    let status = client.status().expect("status");
    assert_eq!(status.sessions, 1);
    assert!(status.workers >= 1);

    daemon.join();
    assert!(!path.exists(), "socket file should be unlinked on shutdown");
}

#[test]
fn concurrent_clients_share_sessions_and_all_get_answers() {
    let (daemon, mut client) = daemon_and_client(ServiceConfig::default());
    let cif = mesh_cif(5);
    client
        .open("shared", &cif, BANDS, ExtractOptions::new())
        .expect("open");
    let expected = client.extract("shared").expect("extract").wirelist;

    // The pool counts a job as executed *after* its answer is sent,
    // so the setup requests may not be tallied yet — poll briefly.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let probe = client.status().expect("status");
        if probe.executed >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "setup jobs never counted: {probe:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let mut oracle = in_process(&cif);
    let oracle_text = write_wirelist(
        &oracle.extract("aced").expect("oracle").netlist,
        WirelistOptions::new(),
    );
    assert_eq!(expected, oracle_text);

    // Four clients hammer the same session; the session mutex
    // serializes them and everyone sees the same answer.
    let daemon_for_clients = daemon.clone();
    let addr = {
        // Re-derive a TCP endpoint for the worker clients.
        daemon_for_clients
            .serve_tcp("127.0.0.1:0")
            .expect("second listener")
    };
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.to_string();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect_tcp(&addr).expect("connect");
                for _ in 0..3 {
                    let got = c.extract("shared").expect("extract").wirelist;
                    assert_eq!(got, expected);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // Warm reads are served from the shared snapshot without touching
    // the worker pool, so `executed` only counts the setup requests —
    // the 12 extracts above must NOT each pay a pool job.
    let status = client.status().expect("status");
    assert!(status.executed >= 2, "setup requests ran: {status:?}");
    assert!(
        status.executed < 14,
        "warm reads should bypass the pool: {status:?}"
    );

    daemon.join();
}

#[test]
fn sequenced_edits_apply_exactly_once_and_duplicates_ack_idempotently() {
    let cif = mesh_cif(5);
    let (daemon, mut client) = daemon_and_client(ServiceConfig::default());
    client
        .open("seq", &cif, BANDS, ExtractOptions::new())
        .expect("open");
    client.extract("seq").expect("seed snapshot");

    let mut diff = ace_layout::LayoutDiff::new();
    diff.remove_box(
        ace_geom::Layer::Poly,
        ace_geom::Rect::new(-MESH_PITCH, 0, 5 * MESH_PITCH, MESH_LINE),
    );

    // The single-apply oracle: the diff applied exactly once.
    let mut oracle = in_process(&cif);
    oracle.extract("aced").expect("oracle warms");
    oracle.apply(&diff).expect("oracle applies");
    let oracle_text = write_wirelist(
        &oracle.extract("aced").expect("oracle re-extracts").netlist,
        WirelistOptions::new(),
    );

    let first = client
        .edit_diff_seq("seq", Some(1), &diff)
        .expect("edit seq 1");
    assert_eq!(first.wirelist, oracle_text);

    // A retried duplicate (same seq, same diff — e.g. after a client
    // timeout) is acknowledged from the snapshot, not re-applied:
    // applying this removal twice would fail outright.
    let dup = client
        .edit_diff_seq("seq", Some(1), &diff)
        .expect("duplicate must be acked");
    assert_eq!(dup.wirelist, oracle_text, "duplicate changed the answer");

    // A stale sequence number is refused idempotently even when its
    // diff could never apply — proof it was discarded, not attempted.
    let mut garbage = ace_layout::LayoutDiff::new();
    garbage.remove_box(
        ace_geom::Layer::Metal,
        ace_geom::Rect::new(999_000, 999_000, 999_100, 999_100),
    );
    let stale = client
        .edit_diff_seq("seq", Some(0), &garbage)
        .expect("stale seq must be acked");
    assert_eq!(stale.wirelist, oracle_text, "stale edit was applied");

    // The next fresh sequence number still applies normally.
    let mut diff2 = ace_layout::LayoutDiff::new();
    diff2.remove_box(
        ace_geom::Layer::Poly,
        ace_geom::Rect::new(
            -MESH_PITCH,
            MESH_PITCH,
            5 * MESH_PITCH,
            MESH_PITCH + MESH_LINE,
        ),
    );
    oracle.apply(&diff2).expect("oracle applies second diff");
    let oracle2 = write_wirelist(
        &oracle.extract("aced").expect("oracle third sweep").netlist,
        WirelistOptions::new(),
    );
    let second = client
        .edit_diff_seq("seq", Some(2), &diff2)
        .expect("edit seq 2");
    assert_eq!(second.wirelist, oracle2);

    daemon.join();
}

#[test]
fn a_deeply_nested_frame_is_refused_and_the_daemon_keeps_serving() {
    use ace_service::frame::{read_frame, write_frame};
    use ace_service::protocol::decode_response;
    use ace_service::Response;

    let daemon = Daemon::new(ServiceConfig::default());
    let addr = daemon.serve_tcp("127.0.0.1:0").expect("bind tcp");

    // 20 KB of `[`: unbounded recursive descent would overflow the
    // connection thread's stack and abort the whole process.
    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    write_frame(&mut raw, "[".repeat(20_000).as_bytes()).expect("send");
    let answer = read_frame(&mut raw).expect("read").expect("frame");
    match decode_response(&answer).expect("answer decodes") {
        (_, Response::Error(e)) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert!(e.message.contains("nesting"), "{}", e.message);
        }
        (_, other) => panic!("expected bad-request, got {other:?}"),
    }

    let mut client = Client::connect_tcp(&addr.to_string()).expect("connect");
    client.status().expect("status still answers");
    daemon.join();
}
