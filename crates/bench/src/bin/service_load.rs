//! `service_load --smoke` — the oracle-checked smoke test of the
//! `aced` extraction service.
//!
//! ```text
//! service_load --smoke [--socket PATH | --tcp ADDR]
//! ```
//!
//! Four concurrent clients each open a private session on a small
//! mesh and run three rounds of extract, edit-diff, lint and
//! query-net against a daemon: an external one via `--socket` or
//! `--tcp`, otherwise an in-process daemon on an ephemeral TCP port.
//! Every extract and edit-diff wirelist and every lint rendering must
//! equal the in-process extraction oracle's. Any other argument is a
//! usage error (exit 2). Writes no file; the served path's latency is
//! measured by `perfbench`'s `service_mix` workload.
//!
//! `queue-full` answers are not failures: a client waits out the
//! daemon's `retry_after_ms` hint and retries, and the closing line
//! says how often that happened.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ace_core::{CircuitExtractor, ExtractOptions, IncrementalExtractor, NullProbe};
use ace_layout::{FlatLayout, LayoutDiff, Library};
use ace_lint::{lint_extraction, LintConfig};
use ace_service::{Client, ClientError, Daemon, ErrorCode, ServiceConfig};
use ace_wirelist::{write_wirelist, WirelistOptions};
use ace_workloads::mesh::{mesh_cif, MESH_LINE, MESH_PITCH};

const BANDS: usize = 4;
const CLIENTS: usize = 4;
const ROUNDS: usize = 3;
const MESH_N: u32 = 6;

fn usage() -> ! {
    eprintln!("usage: service_load --smoke [--socket PATH | --tcp ADDR]");
    std::process::exit(2);
}

/// How each client reaches the daemon.
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

/// Parses the command line into the external daemon to reach, if
/// any; `--smoke` is required.
fn parse_args() -> Option<Endpoint> {
    let (mut smoke, mut endpoint) = (false, None);
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--socket" | "--tcp" if endpoint.is_none() => {
                let value = iter.next().unwrap_or_else(|| usage());
                endpoint = Some(if flag == "--socket" {
                    Endpoint::Unix(value)
                } else {
                    Endpoint::Tcp(value)
                });
            }
            _ => usage(),
        }
    }
    if !smoke {
        usage();
    }
    endpoint
}

/// Issues `call`, waiting out `queue-full` pushback with the daemon's
/// `retry_after_ms` hint and counting each retry.
fn retrying<T>(
    retries: &AtomicU64,
    mut call: impl FnMut() -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    loop {
        match call() {
            Err(ClientError::Service(e)) if e.code == ErrorCode::QueueFull => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(
                    e.retry_after_ms.unwrap_or(10).max(1) as u64
                ));
            }
            other => return other,
        }
    }
}

/// The edit every client oscillates: a poly stub glued to the bottom
/// row's left end. Adding it dirties only the bottom band; removing
/// it restores the original circuit, so extraction results stay
/// comparable across rounds.
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

/// One client's life: open a private session, run the rounds, check
/// every answer against the oracle, close.
fn run_client(
    id: usize,
    endpoint: &Endpoint,
    cif: &str,
    oracle: &Oracle,
    retries: &AtomicU64,
) -> Result<(), String> {
    let fail = |stage: &str, e: ClientError| format!("client {id}: {stage}: {e}");
    let mut client = endpoint.connect().map_err(|e| fail("connect", e))?;
    let session = format!("load-{id}");
    retrying(retries, || {
        client.open(&session, cif, BANDS, ExtractOptions::new())
    })
    .map_err(|e| fail("open", e))?;

    let mut stub_present = false;
    for _ in 0..ROUNDS {
        let extract =
            retrying(retries, || client.extract(&session)).map_err(|e| fail("extract", e))?;
        let edited = retrying(retries, || {
            client.edit_diff(&session, &stub_diff(!stub_present))
        })
        .map_err(|e| fail("edit-diff", e))?;
        stub_present = !stub_present;
        let lint = retrying(retries, || client.lint(&session, &LintConfig::new()))
            .map_err(|e| fail("lint", e))?;
        retrying(retries, || client.query_net(&session, "VDD"))
            .map_err(|e| fail("query-net", e))?;

        // `stub_present` already reflects this round's edit; the
        // extract above ran *before* it, on the opposite state.
        let (before, after) = if stub_present {
            (&oracle.clean_wirelist, &oracle.stubbed_wirelist)
        } else {
            (&oracle.stubbed_wirelist, &oracle.clean_wirelist)
        };
        if extract.wirelist != *before {
            return Err(format!("client {id}: extract drifted from oracle"));
        }
        if edited.wirelist != *after {
            return Err(format!("client {id}: edit-diff drifted from oracle"));
        }
        let rendered: Vec<String> = lint.0.iter().map(|d| d.rendered.clone()).collect();
        if !stub_present && rendered != oracle.lint_rendered {
            return Err(format!("client {id}: lint drifted from oracle"));
        }
    }
    retrying(retries, || client.close(&session)).map_err(|e| fail("close", e))?;
    Ok(())
}

fn run(external: Option<Endpoint>) -> Result<u64, String> {
    let (endpoint, local) = match external {
        Some(endpoint) => (endpoint, None),
        None => {
            let daemon = Daemon::new(ServiceConfig::default());
            let addr = daemon
                .serve_tcp("127.0.0.1:0")
                .map_err(|e| format!("cannot start in-process daemon: {e}"))?;
            (Endpoint::Tcp(addr.to_string()), Some(daemon))
        }
    };
    let cif = mesh_cif(MESH_N);
    let oracle = build_oracle(&cif);
    let retries = AtomicU64::new(0);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (endpoint, cif, oracle, retries) = (&endpoint, &cif, &oracle, &retries);
                scope.spawn(move || run_client(id, endpoint, cif, oracle, retries))
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread").err())
            .collect()
    });
    if let Some(daemon) = local {
        daemon.join();
    }
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    Ok(retries.load(Ordering::Relaxed))
}

fn main() -> ExitCode {
    match run(parse_args()) {
        Ok(retries) => {
            println!(
                "service_load smoke: OK ({CLIENTS} clients x {ROUNDS} rounds, \
                 {retries} queue-full retries, every answer matched the in-process oracle)"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("service_load: {e}");
            ExitCode::FAILURE
        }
    }
}
