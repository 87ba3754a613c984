//! The `aced` daemon: resident sessions served over sockets.
//!
//! One daemon owns a [`SessionStore`] and a work-stealing
//! [`WorkerPool`] from `ace_core::scheduler`. Listeners (Unix socket
//! and/or TCP) accept connections; each connection gets a thread that
//! reads frames, decodes requests, and hands session work to the pool
//! sharded by session name ([`crate::session::shard_of`]) — so one
//! session's requests queue on one shard while idle workers steal
//! across shards. The connection thread waits on a channel with the
//! configured deadline: a full shard queue answers `queue-full` with
//! a retry hint (backpressure, never unbounded buffering), a missed
//! deadline answers `timeout` and flags the job so it skips its work
//! when it finally surfaces.
//!
//! Three request paths, not one:
//!
//! - **Warm reads** (`extract`/`query-net`/`lint` on a session with a
//!   published [`Snapshot`]) are answered inline on the connection
//!   thread from the `Arc`-shared snapshot — no pool job, no write
//!   lock, so reads never queue behind an in-flight edit sweep.
//! - **Edits** (`edit-diff`) are parked on the session's pending
//!   queue; a drain job on the session's shard collects everything
//!   queued under one write-lock acquisition, merges the diffs
//!   ([`ace_layout::LayoutDiff::merge`]), pays one incremental sweep
//!   for the whole batch (the `CoalescedEdits` counter), publishes a
//!   fresh snapshot, and answers every waiting client. Sequence
//!   numbers make retries exactly-once: the session records the
//!   highest applied `seq`, a duplicate is acknowledged from the
//!   snapshot instead of re-applied, and a timed-out edit whose
//!   client already got `timeout` is discarded at collect time.
//! - **Everything else** (open, close, cold first reads) runs as an
//!   ordinary pool job under the session's write lock.
//!
//! Statistics come from two layers: each request runs under a fresh
//! `CounterProbe` whose [`take_report`](ace_core::CounterProbe::take_report)
//! becomes the response's per-request [`WireReport`], and `status`
//! reads the pool's lifetime counters plus the store's gauges.
//!
//! Sockets block; nothing polls. Shutdown (`shutdown()`, or SIGTERM
//! via [`crate::signal`] and [`run_until`](Daemon::run_until)) sets
//! one flag and then half-closes, for reading, a second handle on
//! every socket a thread blocks on: a listener's blocked `accept`
//! fails, and a connection's blocked read sees EOF while an answer
//! being written still goes out. Requests already dispatched get
//! their answers, requests decoded after the flag get
//! `shutting-down`, and the pool drains its queues before the daemon
//! joins every thread.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ace_core::{
    CircuitExtractor, Counter, CounterProbe, IncrementalExtractor, Lane, Probe, SubmitError,
    WorkerPool,
};
use ace_layout::{FlatLayout, LayoutDiff, Library};
use ace_lint::lint_extraction;
use ace_wirelist::parasitics::{net_capacitance_af, net_resistance_mohm, ParasiticParams};
use ace_wirelist::{write_wirelist, WirelistOptions};

use crate::frame::{read_frame, write_frame, Stream};
use crate::protocol::{
    decode_request, encode_response, ErrorCode, ExtractResult, NetInfo, Request, Response,
    ServiceError, ServiceStatus, WireDiagnostic, WireReport,
};
use crate::session::{shard_of, PendingEdit, SessionState, SessionStore, Snapshot, WriteHalf};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads serving session requests.
    pub workers: usize,
    /// Bounded queue capacity per worker shard; a full queue is
    /// backpressure (`queue-full` + retry hint), not buffering.
    pub queue_capacity: usize,
    /// Byte budget for all session caches together; the evictor
    /// reclaims coldest-first above this.
    pub memory_budget: u64,
    /// Per-request deadline; connection threads answer `timeout` past
    /// it.
    pub request_timeout: Duration,
    /// Band count for sessions opened with `bands: 0`.
    pub default_bands: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            memory_budget: 64 * 1024 * 1024,
            request_timeout: Duration::from_secs(30),
            default_bands: 4,
        }
    }
}

/// How often [`Daemon::run_until`] checks its stop flag: a signal
/// handler can only store to an atomic, so nothing wakes the waiter.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The retry hint attached to `queue-full` responses, in
/// milliseconds: long enough for a queued extraction to finish on
/// this hardware, short enough that a load generator retries inside
/// its measurement window.
const RETRY_AFTER_MS: i64 = 50;

struct Inner {
    config: ServiceConfig,
    store: SessionStore,
    pool: Mutex<Option<WorkerPool>>,
    shutdown: AtomicBool,
    /// Accept loops and connection threads to join, each beside a
    /// second handle on the socket it blocks on, for shutdown to
    /// half-close.
    threads: Mutex<Vec<(JoinHandle<()>, Stream)>>,
    /// Unix socket paths to unlink when the daemon stops.
    socket_paths: Mutex<Vec<PathBuf>>,
    /// Lifetime count of edits that rode along with another edit's
    /// sweep (the `status` response's `coalesced_edits` gauge).
    coalesced: AtomicU64,
}

/// A running extraction service. Create one, attach listeners with
/// [`serve_unix`](Daemon::serve_unix) / [`serve_tcp`](Daemon::serve_tcp),
/// then park in [`run_until`](Daemon::run_until) (binaries) or keep a
/// [`Daemon`] clone around and call [`shutdown`](Daemon::shutdown)
/// (tests).
#[derive(Clone)]
pub struct Daemon {
    inner: Arc<Inner>,
}

impl Daemon {
    /// Starts the worker pool; no listeners yet.
    pub fn new(config: ServiceConfig) -> Daemon {
        let pool = WorkerPool::new(config.workers, config.queue_capacity);
        let store = SessionStore::new(config.memory_budget);
        Daemon {
            inner: Arc::new(Inner {
                config,
                store,
                pool: Mutex::new(Some(pool)),
                shutdown: AtomicBool::new(false),
                threads: Mutex::new(Vec::new()),
                socket_paths: Mutex::new(Vec::new()),
                coalesced: AtomicU64::new(0),
            }),
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a cooperative shutdown (idempotent, returns
    /// immediately; pair with [`join`](Daemon::join)): sets the flag
    /// and half-closes every listener and live connection for reading.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // `Read`, not `Both`: an answer being written still goes out.
        for (_, socket) in self.inner.threads.lock().unwrap().iter() {
            let _ = socket.shutdown(Shutdown::Read);
        }
    }

    /// Listens on a Unix socket at `path`. The accept loop runs on its
    /// own thread until shutdown.
    ///
    /// A socket file that accepts a connection belongs to a live
    /// daemon and is left alone; any other file at `path` (a stale
    /// socket from a previous run) is replaced.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::AddrInUse`] when a live daemon serves `path`;
    /// otherwise propagates bind failures.
    pub fn serve_unix(&self, path: &Path) -> io::Result<()> {
        if UnixStream::connect(path).is_ok() {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("a live daemon already serves {}", path.display()),
            ));
        }
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        self.inner
            .socket_paths
            .lock()
            .unwrap()
            .push(path.to_path_buf());
        // std has `shutdown` on streams only, so the handle shutdown
        // half-closes wraps the listener's descriptor as one.
        let socket = Stream::Unix(UnixStream::from(OwnedFd::from(listener.try_clone()?)));
        self.spawn_tracked("aced-accept", socket, move |daemon| {
            daemon.accept_loop(|| Ok(Stream::Unix(listener.accept()?.0)))
        });
        Ok(())
    }

    /// Listens on a TCP address (e.g. `127.0.0.1:0`); returns the
    /// bound address. The accept loop runs on its own thread until
    /// shutdown.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve_tcp(&self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let socket = Stream::Tcp(TcpStream::from(OwnedFd::from(listener.try_clone()?)));
        self.spawn_tracked("aced-accept", socket, move |daemon| {
            daemon.accept_loop(|| {
                let (stream, _) = listener.accept()?;
                // Small request/response frames + Nagle = a
                // delayed-ACK stall on every answer.
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            })
        });
        Ok(bound)
    }

    /// Parks until `stop` turns true (a signal handler's flag), then
    /// shuts down and joins everything.
    pub fn run_until(&self, stop: &AtomicBool) {
        while !stop.load(Ordering::SeqCst) && !self.is_shutting_down() {
            std::thread::sleep(POLL_INTERVAL);
        }
        self.join();
    }

    /// Joins accept loops and connection threads, drains the worker
    /// pool, and unlinks Unix socket files. Implies
    /// [`shutdown`](Daemon::shutdown).
    pub fn join(&self) {
        self.shutdown();
        // Nothing is tracked once the flag is set (`spawn_tracked`).
        let threads = std::mem::take(&mut *self.inner.threads.lock().unwrap());
        for (handle, _) in threads {
            let _ = handle.join();
        }
        if let Some(pool) = self.inner.pool.lock().unwrap().take() {
            pool.shutdown();
        }
        for path in self.inner.socket_paths.lock().unwrap().drain(..) {
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Serves every stream `accept` returns, until it fails. Shutdown
    /// makes it fail: on Linux, half-closing a listener fails its
    /// blocked `accept` with `EINVAL`, even once its path is gone.
    fn accept_loop(&self, accept: impl Fn() -> io::Result<Stream>) {
        while let Ok(stream) = accept() {
            if let Ok(socket) = stream.try_clone() {
                self.spawn_tracked("aced-conn", socket, move |daemon| {
                    daemon.serve_connection(stream)
                });
            }
        }
    }

    /// Runs `body` on a new thread, tracked beside `socket` for
    /// shutdown to half-close. Checked under the lock that shutdown
    /// half-closes under: once the flag is set nothing starts, so a
    /// connection accepted during shutdown is half-closed there or
    /// never served.
    fn spawn_tracked(
        &self,
        name: &str,
        socket: Stream,
        body: impl FnOnce(&Daemon) + Send + 'static,
    ) {
        let mut threads = self.inner.threads.lock().unwrap();
        if self.is_shutting_down() {
            return;
        }
        // Reap finished threads so a long-running daemon's list stays
        // proportional to *live* connections, not to every connection
        // ever accepted. Dropping a finished entry only detaches an
        // already-dead thread and closes its socket handle.
        threads.retain(|(h, _)| !h.is_finished());
        let daemon = self.clone();
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || body(&daemon))
            .expect("spawn daemon thread");
        threads.push((handle, socket));
    }

    fn serve_connection(&self, mut stream: Stream) {
        // A read half-closed by shutdown still returns bytes already
        // queued, so check the flag before each frame.
        while !self.is_shutting_down() {
            let Ok(Some(payload)) = read_frame(&mut stream) else {
                break;
            };
            let (id, response) = match decode_request(&payload) {
                Ok((id, request)) => (id, self.dispatch(request)),
                Err(e) => (
                    0,
                    Response::Error(ServiceError::new(ErrorCode::BadRequest, e.message)),
                ),
            };
            let bytes = encode_response(id, &response);
            if write_frame(&mut stream, &bytes).is_err() {
                break;
            }
        }
        // The handle tracked for shutdown keeps the socket open until
        // it is reaped, so hang up explicitly: the peer sees EOF now.
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// Routes one request: `status` inline, warm reads inline from
    /// the session's snapshot, edits through the session's pending
    /// queue, everything else through the pool with backpressure and
    /// a deadline.
    fn dispatch(&self, request: Request) -> Response {
        if self.is_shutting_down() {
            return Response::Error(ServiceError::new(
                ErrorCode::ShuttingDown,
                "daemon is draining for shutdown",
            ));
        }
        if request.session().is_none() {
            return Response::Status(self.status());
        }
        if matches!(
            request,
            Request::Extract { .. }
                | Request::Lint { .. }
                | Request::Drc { .. }
                | Request::QueryNet { .. }
        ) {
            let session = request
                .session()
                .expect("reads target a session")
                .to_string();
            return match self.inner.store.checkout(&session) {
                Err(e) => Response::Error(e),
                Ok(state) => match state.snapshot() {
                    // Warm read: answered right here on the connection
                    // thread, without the write lock or a pool slot.
                    Some(snap) => self.serve_read(request, &snap),
                    // Cold read: a worker must sweep once to seed the
                    // snapshot.
                    None => self.submit_and_wait(request),
                },
            };
        }
        if let Request::EditDiff { session, seq, diff } = request {
            return self.dispatch_edit(session, seq, diff);
        }
        self.submit_and_wait(request)
    }

    /// The classic pool path: submit one job for the whole request,
    /// wait with the configured deadline.
    fn submit_and_wait(&self, request: Request) -> Response {
        let session = request.session().expect("status is answered inline");
        let shard = shard_of(session, self.inner.config.workers);
        let (tx, rx) = mpsc::channel::<Response>();
        let cancelled = Arc::new(AtomicBool::new(false));
        let job_cancelled = Arc::clone(&cancelled);
        let daemon = self.clone();
        let job = move || {
            if !job_cancelled.load(Ordering::SeqCst) {
                let _ = tx.send(daemon.execute(request));
            }
        };
        match self.submit(shard, job) {
            Ok(()) => self.await_answer(&rx, &cancelled),
            Err(e) => Response::Error(e),
        }
    }

    /// Parks an `edit-diff` on the session's pending queue and
    /// schedules a drain job on its shard. The drain that collects
    /// the entry answers through `tx`; a full queue retracts the
    /// entry first, so a client told `queue-full` can retry knowing
    /// its edit was *not* applied.
    fn dispatch_edit(&self, session: String, seq: Option<i64>, diff: LayoutDiff) -> Response {
        let state = match self.inner.store.checkout(&session) {
            Ok(state) => state,
            Err(e) => return Response::Error(e),
        };
        let shard = shard_of(&session, self.inner.config.workers);
        let (tx, rx) = mpsc::channel::<Response>();
        let cancelled = Arc::new(AtomicBool::new(false));
        let token = state.enqueue_edit(seq, diff, tx, Arc::clone(&cancelled));
        let daemon = self.clone();
        let drain_state = Arc::clone(&state);
        if let Err(err) = self.submit(shard, move || daemon.drain_edits(&session, &drain_state)) {
            // Retract the parked edit before reporting the failure.
            // When an in-flight drain already collected it, the edit
            // WILL be applied and answered — reporting `queue-full`
            // then would make the client re-send an applied edit — so
            // wait for the drain's answer instead.
            if state.remove_pending(token) {
                return Response::Error(err);
            }
        }
        self.await_answer(&rx, &cancelled)
    }

    /// Queues `job` on `shard`, or says why not: a full queue answers
    /// `queue-full` with a retry hint.
    fn submit(
        &self,
        shard: usize,
        job: impl FnOnce() + Send + 'static,
    ) -> Result<(), ServiceError> {
        let pool = self.inner.pool.lock().unwrap();
        let Some(pool) = pool.as_ref() else {
            return Err(ServiceError::new(
                ErrorCode::ShuttingDown,
                "worker pool is drained",
            ));
        };
        pool.try_submit(shard, job).map_err(|e| match e {
            SubmitError::Full => {
                ServiceError::new(ErrorCode::QueueFull, format!("shard {shard} queue is full"))
                    .with_retry_after_ms(RETRY_AFTER_MS)
            }
            SubmitError::ShuttingDown => {
                ServiceError::new(ErrorCode::ShuttingDown, "worker pool is draining")
            }
        })
    }

    /// Waits for a job's answer until the request deadline. Past it,
    /// the request is flagged `cancelled` and answers `timeout`: a job
    /// not yet run skips its work, and a drain that has not collected
    /// the edit yet discards it, so the client's retry of the same
    /// seq is a first application, not a second.
    fn await_answer(&self, rx: &mpsc::Receiver<Response>, cancelled: &AtomicBool) -> Response {
        let deadline = self.inner.config.request_timeout;
        rx.recv_timeout(deadline).unwrap_or_else(|_| {
            cancelled.store(true, Ordering::SeqCst);
            let message = format!("request exceeded the {deadline:?} deadline");
            Response::Error(ServiceError::new(ErrorCode::Timeout, message))
        })
    }

    /// Runs on a worker: collects every edit parked on `state`,
    /// merges the survivors, pays one sweep, publishes a snapshot,
    /// and answers every waiting client.
    fn drain_edits(&self, session: &str, state: &Arc<SessionState>) {
        let mut write = match state.write.lock() {
            Ok(guard) => guard,
            Err(_) => {
                // A previous request panicked while mutating this
                // session; the extractor's state is unknown.
                let err = self.poisoned_session_error(session);
                for edit in state.take_pending() {
                    edit.respond(Response::Error(err.clone()));
                }
                return;
            }
        };
        let batch = state.take_pending();
        if batch.is_empty() {
            // An earlier drain collected our edit along with its own:
            // it was coalesced, and that drain answered the client.
            return;
        }
        // Triage the batch. Cancelled entries are discarded — their
        // client was already told `timeout` and will retry, so
        // applying now would turn that retry into a double-apply.
        // Sequenced duplicates (seq <= the highest applied) are
        // acknowledged without re-applying.
        let mut accepted: Vec<PendingEdit> = Vec::new();
        let mut duplicates: Vec<PendingEdit> = Vec::new();
        let mut high_seq = write.last_seq;
        for edit in batch {
            if edit.cancelled.load(Ordering::SeqCst) {
                continue;
            }
            match edit.seq {
                Some(s) if high_seq.is_some_and(|m| s <= m) => duplicates.push(edit),
                Some(s) => {
                    high_seq = Some(s);
                    accepted.push(edit);
                }
                None => accepted.push(edit),
            }
        }
        let probe = CounterProbe::new();
        if accepted.is_empty() {
            if duplicates.is_empty() {
                return; // every entry was cancelled
            }
            if let Some(snap) = state.snapshot() {
                // Nothing to apply: acknowledge the retries from the
                // current snapshot without paying a sweep.
                for edit in &duplicates {
                    edit.respond(extracted(&snap));
                }
                return;
            }
            // No snapshot to answer from (e.g. a failed apply cleared
            // it): fall through and sweep without applying anything.
        } else {
            // Consume the seqs *before* applying: a failed apply
            // leaves the layout partially patched (see
            // `IncrementalExtractor::apply`), so retrying the same
            // seq onto the wreckage must be refused as a duplicate,
            // not applied a second time.
            write.last_seq = high_seq;
            let mut merged = accepted[0].diff.clone();
            for edit in &accepted[1..] {
                merged.merge(&edit.diff);
            }
            let coalesced = (accepted.len() - 1) as u64;
            if let Err(e) = write.extractor.apply(&merged) {
                state.clear_snapshot();
                let err = Response::Error(ServiceError::new(ErrorCode::DiffFailed, e.to_string()));
                for edit in accepted.iter().chain(&duplicates) {
                    edit.respond(err.clone());
                }
                let cache_bytes = write.extractor.cache_bytes();
                drop(write);
                self.inner.store.note_cache_bytes(session, cache_bytes);
                return;
            }
            probe.add(Lane::MAIN, Counter::CoalescedEdits, coalesced);
            self.inner.coalesced.fetch_add(coalesced, Ordering::Relaxed);
        }
        // One sweep pays for the whole batch; its snapshot serves
        // subsequent reads and duplicate acknowledgements.
        let response = match sweep(&mut write, state, &probe) {
            Ok(snap) => extracted(&snap),
            Err(e) => Response::Error(e),
        };
        for edit in accepted.iter().chain(&duplicates) {
            edit.respond(response.clone());
        }
        let cache_bytes = write.extractor.cache_bytes();
        drop(write);
        self.inner.store.note_cache_bytes(session, cache_bytes);
    }

    /// Serves a read request from a published snapshot (no write
    /// lock; used both inline for warm reads and on workers after a
    /// cold sweep seeds the snapshot).
    fn serve_read(&self, request: Request, snap: &Snapshot) -> Response {
        match request {
            Request::Extract { .. } => extracted(snap),
            Request::QueryNet { net, .. } => Response::Net(net_info(&snap.extraction.netlist, net)),
            Request::Lint { config, .. } => {
                let probe = CounterProbe::new();
                let diagnostics = lint_extraction(&snap.extraction, &snap.layout, &config, &probe);
                let report = WireReport::from_report(&probe.take_report());
                Response::Linted {
                    diagnostics: diagnostics.iter().map(WireDiagnostic::from).collect(),
                    report,
                }
            }
            Request::Drc { deck, config, .. } => {
                let deck = match deck {
                    None => ace_drc::RuleDeck::nmos(),
                    Some(text) => match ace_drc::RuleDeck::parse(&text) {
                        Ok(d) => d,
                        Err(e) => {
                            return Response::Error(ServiceError::new(
                                ErrorCode::BadRequest,
                                format!("rule deck: {e}"),
                            ))
                        }
                    },
                };
                let probe = CounterProbe::new();
                let diagnostics = ace_drc::check_extraction(&snap.layout, &deck, &config, &probe);
                let report = WireReport::from_report(&probe.take_report());
                Response::DrcChecked {
                    diagnostics: diagnostics.iter().map(WireDiagnostic::from).collect(),
                    report,
                }
            }
            _ => Response::Error(ServiceError::new(
                ErrorCode::Internal,
                "serve_read only handles extract/query-net/lint/drc",
            )),
        }
    }

    /// A request panicked while holding this session's write lock:
    /// the extractor's state is unknown, so the session is closed
    /// (auto-eviction of the wreckage) and clients are told to
    /// reopen — one panic costs one session, not a poisoned panic
    /// for every later request.
    fn poisoned_session_error(&self, session: &str) -> ServiceError {
        self.inner.store.close(session);
        ServiceError::new(
            ErrorCode::Internal,
            format!(
                "session '{session}' was lost to a panicked request and has been \
                 closed; reopen it"
            ),
        )
    }

    fn status(&self) -> ServiceStatus {
        let store = self.inner.store.stats();
        let pool_stats = self
            .inner
            .pool
            .lock()
            .unwrap()
            .as_ref()
            .map(|p| p.stats())
            .unwrap_or_default();
        ServiceStatus {
            sessions: store.sessions as i64,
            cache_bytes: store.cache_bytes as i64,
            evictions: store.evictions as i64,
            executed: pool_stats.executed as i64,
            stolen: pool_stats.stolen as i64,
            queued: pool_stats.queued as i64,
            workers: pool_stats.workers as i64,
            coalesced_edits: self.inner.coalesced.load(Ordering::Relaxed) as i64,
        }
    }

    /// Runs one session request on a worker thread.
    fn execute(&self, request: Request) -> Response {
        match request {
            Request::Open {
                session,
                cif,
                bands,
                options,
            } => self.execute_open(session, &cif, bands, options),
            Request::Extract { .. }
            | Request::Lint { .. }
            | Request::Drc { .. }
            | Request::QueryNet { .. } => {
                let session = request
                    .session()
                    .expect("reads target a session")
                    .to_string();
                match self.ensure_snapshot(&session) {
                    Ok(snap) => self.serve_read(request, &snap),
                    Err(e) => Response::Error(e),
                }
            }
            Request::EditDiff { .. } => Response::Error(ServiceError::new(
                ErrorCode::Internal,
                "edit-diff is dispatched through the session's edit queue",
            )),
            Request::Close { session } => Response::Closed {
                existed: self.inner.store.close(&session),
                session,
            },
            Request::Status => Response::Status(self.status()),
        }
    }

    /// Returns the session's read snapshot, paying one sweep under
    /// the write lock to seed it when absent (the cold-read path, on
    /// a worker thread).
    fn ensure_snapshot(&self, session: &str) -> Result<Arc<Snapshot>, ServiceError> {
        let state = self.inner.store.checkout(session)?;
        if let Some(snap) = state.snapshot() {
            return Ok(snap);
        }
        let mut write = state
            .write
            .lock()
            .map_err(|_| self.poisoned_session_error(session))?;
        // Re-check under the lock: an edit drain may have published a
        // snapshot while we waited.
        if let Some(snap) = state.snapshot() {
            return Ok(snap);
        }
        let outcome = sweep(&mut write, &state, &CounterProbe::new());
        let cache_bytes = write.extractor.cache_bytes();
        drop(write);
        self.inner.store.note_cache_bytes(session, cache_bytes);
        outcome
    }

    fn execute_open(
        &self,
        session: String,
        cif: &str,
        bands: usize,
        options: ace_core::ExtractOptions,
    ) -> Response {
        if options.threads.is_some() || options.bands.is_some() || options.window.is_some() {
            return Response::Error(ServiceError::new(
                ErrorCode::BadRequest,
                "sessions manage their own banding: open with plain options \
                 (no threads/bands/window)",
            ));
        }
        let lib = match Library::from_cif_text(cif) {
            Ok(lib) => lib,
            Err(e) => {
                return Response::Error(ServiceError::new(ErrorCode::ParseError, e.to_string()))
            }
        };
        let flat = FlatLayout::from_library(&lib);
        let bands = if bands == 0 {
            self.inner.config.default_bands
        } else {
            bands
        };
        let extractor = IncrementalExtractor::new(flat, bands).with_options(options);
        match self.inner.store.open(&session, extractor) {
            Ok(()) => Response::Opened { session, bands },
            Err(e) => Response::Error(e),
        }
    }
}

/// Sweeps a session once and publishes the result as its read
/// snapshot; a failed sweep clears the snapshot instead.
fn sweep(
    write: &mut WriteHalf,
    state: &SessionState,
    probe: &CounterProbe,
) -> Result<Arc<Snapshot>, ServiceError> {
    match write.extractor.extract_probed("aced", probe) {
        Ok(extraction) => {
            let snap = Arc::new(Snapshot {
                wirelist: write_wirelist(&extraction.netlist, WirelistOptions::new()),
                report: WireReport::from_report(&probe.take_report()),
                layout: write.extractor.layout().clone(),
                extraction,
            });
            state.set_snapshot(Arc::clone(&snap));
            Ok(snap)
        }
        Err(e) => {
            state.clear_snapshot();
            Err(ServiceError::new(ErrorCode::ExtractFailed, e.to_string()))
        }
    }
}

/// The `extract` answer a snapshot gives.
fn extracted(snap: &Snapshot) -> Response {
    Response::Extracted(ExtractResult {
        wirelist: snap.wirelist.clone(),
        report: snap.report,
    })
}

/// Answers `query-net` against a netlist (shared by the snapshot and
/// cold-read paths).
fn net_info(netlist: &ace_wirelist::Netlist, net: String) -> NetInfo {
    match netlist.net_by_name(&net) {
        None => NetInfo {
            net,
            found: false,
            names: Vec::new(),
            gates: 0,
            terminals: 0,
            cap_af: 0,
            res_mohm: 0,
        },
        Some(id) => {
            let mut gates = 0i64;
            let mut terminals = 0i64;
            for d in netlist.devices() {
                if d.gate == id {
                    gates += 1;
                }
                terminals += i64::from(d.source == id) + i64::from(d.drain == id);
            }
            let params = ParasiticParams::nmos();
            let parasitics = &netlist.net(id).parasitics;
            NetInfo {
                net,
                found: true,
                names: netlist.net(id).names.clone(),
                gates,
                terminals,
                cap_af: net_capacitance_af(parasitics, &params),
                res_mohm: net_resistance_mohm(parasitics, &params),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError};
    use crate::protocol::encode_request;
    use ace_core::ExtractOptions;
    use std::io::{Read, Write};

    const TINY_CIF: &str = "L ND; B 400 1600 0 0; L NP; B 1600 400 0 0; E";

    fn daemon_and_client(config: ServiceConfig) -> (Daemon, Client, SocketAddr) {
        let daemon = Daemon::new(config);
        let addr = daemon.serve_tcp("127.0.0.1:0").expect("bind");
        let client = Client::connect_tcp(&addr.to_string()).expect("connect");
        (daemon, client, addr)
    }

    fn expect_service_error(err: ClientError) -> ServiceError {
        match err {
            ClientError::Service(e) => e,
            other => panic!("expected service error, got {other}"),
        }
    }

    /// Joins `daemon` on a helper thread and fails unless that returns
    /// within 5 s, so a shutdown that misses a blocked thread fails the
    /// test instead of hanging the suite.
    fn join_within_5s(daemon: &Daemon) {
        let (done, joined) = mpsc::channel();
        let daemon = daemon.clone();
        std::thread::spawn(move || {
            daemon.join();
            let _ = done.send(());
        });
        joined
            .recv_timeout(Duration::from_secs(5))
            .expect("join() must return within 5 s");
    }

    #[test]
    fn blocked_session_times_out_and_recovers_once_released() {
        let config = ServiceConfig {
            workers: 1,
            request_timeout: Duration::from_millis(50),
            ..ServiceConfig::default()
        };
        let (daemon, mut client, _) = daemon_and_client(config);
        client
            .open("s", TINY_CIF, 2, ExtractOptions::new())
            .expect("open");

        // Hold the session lock so the worker cannot finish the job
        // before the connection thread's deadline fires.
        let shared = daemon.inner.store.checkout("s").expect("session");
        let guard = shared.write.lock().unwrap();
        let err = expect_service_error(client.extract("s").expect_err("must time out"));
        assert_eq!(err.code, ErrorCode::Timeout);
        drop(guard);

        // The stale job drains into a dead channel; fresh requests
        // are unaffected.
        let result = client.extract("s").expect("recovers after release");
        assert!(result.wirelist.contains("nEnh"));
        join_within_5s(&daemon);
    }

    #[test]
    fn full_shard_queue_answers_queue_full_with_retry_hint() {
        let config = ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            request_timeout: Duration::from_secs(10),
            ..ServiceConfig::default()
        };
        let (daemon, mut client, _) = daemon_and_client(config);
        client
            .open("s", TINY_CIF, 2, ExtractOptions::new())
            .expect("open");

        // Occupy the single worker with a gated job, then park a
        // second job in the 1-slot queue: the client's request has
        // nowhere to go.
        let gate = Arc::new(AtomicBool::new(false));
        {
            let pool = self_pool(&daemon);
            let pool = pool.as_ref().expect("pool running");
            let g = Arc::clone(&gate);
            pool.try_submit(0, move || {
                while !g.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
            .expect("first job");
        }
        wait_for_queue_depth(&daemon, 0);
        self_pool(&daemon)
            .as_ref()
            .expect("pool running")
            .try_submit(0, || {})
            .expect("queue filler");

        let err = expect_service_error(client.extract("s").expect_err("must be refused"));
        assert_eq!(err.code, ErrorCode::QueueFull);
        assert_eq!(err.retry_after_ms, Some(RETRY_AFTER_MS));

        // Releasing the gate drains the queue; the same request now
        // succeeds — backpressure, not failure. (Wait for the filler
        // to actually leave the 1-slot queue: on a busy host the
        // worker may not have run yet, and an instant retry would hit
        // queue-full again.)
        gate.store(true, Ordering::SeqCst);
        wait_for_queue_depth(&daemon, 0);
        let result = client.extract("s").expect("works after drain");
        assert!(result.wirelist.contains("nEnh"));
        join_within_5s(&daemon);
    }

    fn self_pool(daemon: &Daemon) -> std::sync::MutexGuard<'_, Option<WorkerPool>> {
        daemon.inner.pool.lock().unwrap()
    }

    /// Spins until the pool reports `depth` queued jobs (bounded).
    fn wait_for_queue_depth(daemon: &Daemon, depth: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let queued = self_pool(daemon).as_ref().map(|p| p.stats().queued);
            if queued == Some(depth) || std::time::Instant::now() > deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn dispatch_after_shutdown_answers_shutting_down() {
        let daemon = Daemon::new(ServiceConfig::default());
        daemon.shutdown();
        match daemon.dispatch(Request::Status) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::ShuttingDown),
            other => panic!("expected shutting-down, got {other:?}"),
        }
        join_within_5s(&daemon);
    }

    #[test]
    fn a_request_queued_at_shutdown_is_not_served() {
        let daemon = Daemon::new(ServiceConfig::default());
        let (ours, mut peer) = UnixStream::pair().expect("socket pair");
        write_frame(&mut peer, &encode_request(1, &Request::Status)).expect("queue a request");
        peer.shutdown(Shutdown::Write).expect("half-close");
        daemon.shutdown();
        daemon.serve_connection(Stream::Unix(ours));
        // The unread request makes the hang-up a reset, not an EOF.
        assert!(
            !matches!(read_frame(&mut peer), Ok(Some(_))),
            "a request queued at shutdown was served"
        );
        join_within_5s(&daemon);
    }

    /// A fresh in-process extractor over [`TINY_CIF`], configured the
    /// same way the daemon configures its sessions.
    fn tiny_oracle() -> IncrementalExtractor {
        let lib = Library::from_cif_text(TINY_CIF).expect("cif parses");
        IncrementalExtractor::new(FlatLayout::from_library(&lib), 2)
    }

    #[test]
    fn slow_writer_dribbling_a_frame_is_served_not_dropped() {
        use crate::frame::read_frame;
        use crate::protocol::{decode_response, encode_request};

        let (daemon, _client, addr) = daemon_and_client(ServiceConfig::default());
        let mut raw = TcpStream::connect(addr).expect("raw connect");

        // One valid status frame, written a byte at a time with gaps
        // longer than the connection's poll interval — including
        // inside the 4-byte length prefix, where a timeout used to be
        // treated as a dead peer once the first byte had landed.
        let payload = encode_request(7, &Request::Status);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&payload);
        for (i, byte) in frame.iter().enumerate() {
            // Stall across the length prefix and the first payload
            // bytes; the tail can go at full speed.
            if i <= 6 {
                std::thread::sleep(POLL_INTERVAL + Duration::from_millis(5));
            }
            raw.write_all(std::slice::from_ref(byte)).expect("dribble");
            raw.flush().expect("flush");
        }

        let answer = read_frame(&mut raw).expect("read").expect("frame");
        let (id, response) = decode_response(&answer).expect("decodes");
        assert_eq!(id, 7);
        assert!(
            matches!(response, Response::Status(_)),
            "expected a status answer, got {response:?}"
        );
        join_within_5s(&daemon);
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        let (daemon, client, addr) = daemon_and_client(ServiceConfig::default());
        drop(client);
        for _ in 0..16 {
            let mut c = Client::connect_tcp(&addr.to_string()).expect("connect");
            c.status().expect("status");
            // Dropping the client closes the connection; its thread
            // reads EOF and exits.
        }
        // Wait for everything but the accept loop to finish.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let unfinished = daemon
                .inner
                .threads
                .lock()
                .unwrap()
                .iter()
                .filter(|(h, _)| !h.is_finished())
                .count();
            if unfinished <= 1 || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        // The next accepted connection reaps the dead handles: the
        // list tracks live connections, not every connection ever.
        let mut c = Client::connect_tcp(&addr.to_string()).expect("connect");
        c.status().expect("status");
        let handles = daemon.inner.threads.lock().unwrap().len();
        assert!(
            handles <= 3,
            "expected a reaped handle list (accept loop + live conn), got {handles}"
        );
        join_within_5s(&daemon);
    }

    #[test]
    fn poisoned_session_is_closed_and_answers_structured_error() {
        let (daemon, mut client, _) = daemon_and_client(ServiceConfig::default());
        client
            .open("p", TINY_CIF, 2, ExtractOptions::new())
            .expect("open");

        // Poison the session's write lock the way a buggy request
        // would: panic while holding it.
        let state = daemon.inner.store.checkout("p").expect("session");
        let poisoner = std::thread::spawn(move || {
            let _guard = state.write.lock().unwrap();
            panic!("deliberate: poison the session lock");
        });
        assert!(poisoner.join().is_err(), "the poisoner must panic");

        // The next request that needs the write half gets a
        // structured answer — not a worker panic — and the wreckage
        // is closed so it cannot poison every later request.
        let err = expect_service_error(client.extract("p").expect_err("poisoned session"));
        assert_eq!(err.code, ErrorCode::Internal);
        assert!(
            err.message.contains("reopen"),
            "error should tell the client how to recover: {}",
            err.message
        );
        let err = expect_service_error(client.extract("p").expect_err("session is gone"));
        assert_eq!(err.code, ErrorCode::UnknownSession);

        // The name is free again; clients rebuild and carry on.
        client
            .open("p", TINY_CIF, 2, ExtractOptions::new())
            .expect("reopen");
        assert!(client.extract("p").expect("works again").report.boxes > 0);
        join_within_5s(&daemon);
    }

    #[test]
    fn timed_out_edit_retry_applies_exactly_once() {
        let config = ServiceConfig {
            workers: 1,
            request_timeout: Duration::from_millis(150),
            ..ServiceConfig::default()
        };
        let (daemon, mut client, _) = daemon_and_client(config);
        client
            .open("s", TINY_CIF, 2, ExtractOptions::new())
            .expect("open");
        client.extract("s").expect("seed snapshot");

        // Removing the poly gate is self-checking: applying it twice
        // fails outright, so a double-apply cannot hide.
        let mut diff = LayoutDiff::new();
        diff.remove_box(
            ace_geom::Layer::Poly,
            ace_geom::Rect::new(-800, -200, 800, 200),
        );

        let mut oracle = tiny_oracle();
        oracle.extract("aced").expect("oracle warms");
        oracle.apply(&diff).expect("oracle applies once");
        let oracle_text = write_wirelist(
            &oracle.extract("aced").expect("oracle re-extracts").netlist,
            WirelistOptions::new(),
        );

        // Hold the write lock past two deadlines: the drain job cannot
        // collect the parked edit before the client gives up, and the
        // client's retry of the same seq, still blocked, times out as
        // well. Both cancelled entries park in one batch.
        let state = daemon.inner.store.checkout("s").expect("session");
        let guard = state.write.lock().unwrap();
        for attempt in 1..=2 {
            let err = expect_service_error(
                client
                    .edit_diff_seq("s", Some(1), &diff)
                    .expect_err("must time out"),
            );
            assert_eq!(err.code, ErrorCode::Timeout, "attempt {attempt}");
        }
        assert_eq!(state.pending_len(), 2, "both attempts must park");
        drop(guard);

        // The drains now run and must *discard* both timed-out
        // entries — their client was already told to retry.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while state.pending_len() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(state.pending_len(), 0, "drain must collect the stale edits");

        // The retry with the same seq is the FIRST application…
        let retried = client
            .edit_diff_seq("s", Some(1), &diff)
            .expect("retry applies");
        assert_eq!(
            retried.wirelist, oracle_text,
            "retry must equal exactly one apply"
        );

        // …and a second retry is acknowledged idempotently (the
        // removal would fail if it were attempted again).
        let acked = client
            .edit_diff_seq("s", Some(1), &diff)
            .expect("duplicate is acked");
        assert_eq!(acked.wirelist, oracle_text);
        join_within_5s(&daemon);
    }

    #[test]
    fn back_to_back_edits_coalesce_into_one_sweep() {
        use ace_geom::{Layer, Rect};

        let (daemon, mut client, addr) = daemon_and_client(ServiceConfig::default());
        client
            .open("c", TINY_CIF, 2, ExtractOptions::new())
            .expect("open");
        client.extract("c").expect("seed snapshot");

        let mut diff_a = LayoutDiff::new();
        diff_a.add_box(Layer::Metal, Rect::new(2000, 0, 2400, 400));
        let mut diff_b = LayoutDiff::new();
        diff_b.add_box(Layer::Metal, Rect::new(3000, 0, 3400, 400));

        let mut oracle = tiny_oracle();
        oracle.extract("aced").expect("oracle warms");
        oracle.apply(&diff_a).expect("oracle applies a");
        oracle.apply(&diff_b).expect("oracle applies b");
        let oracle_text = write_wirelist(
            &oracle.extract("aced").expect("oracle re-extracts").netlist,
            WirelistOptions::new(),
        );

        // Hold the write lock so both edits park before any drain can
        // collect: releasing then hands the whole batch to one drain.
        let state = daemon.inner.store.checkout("c").expect("session");
        let guard = state.write.lock().unwrap();
        let spawn_edit = |diff: LayoutDiff| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut c = Client::connect_tcp(&addr).expect("connect");
                c.edit_diff("c", &diff).expect("edit answers")
            })
        };
        let first = spawn_edit(diff_a);
        let second = spawn_edit(diff_b);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while state.pending_len() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(state.pending_len(), 2, "both edits must park");
        drop(guard);

        let answer_a = first.join().expect("first edit thread");
        let answer_b = second.join().expect("second edit thread");
        // One merged sweep answered both clients with both diffs in.
        assert_eq!(answer_a.wirelist, oracle_text);
        assert_eq!(answer_b.wirelist, oracle_text);
        assert_eq!(
            answer_a.report.coalesced_edits, 1,
            "the batch of two pays one sweep: {:?}",
            answer_a.report
        );
        let status = client.status().expect("status");
        assert_eq!(status.coalesced_edits, 1, "lifetime gauge: {status:?}");
        join_within_5s(&daemon);
    }

    #[test]
    fn shutdown_wakes_an_idle_client_and_a_peer_stalled_mid_frame() {
        let (daemon, mut client, addr) = daemon_and_client(ServiceConfig::default());
        client.status().expect("status");
        // One answered request puts the raw peer's thread in its read
        // loop; then it sends half of the next length prefix and stalls.
        let mut stalled = TcpStream::connect(addr).expect("raw connect");
        write_frame(&mut stalled, &encode_request(1, &Request::Status)).expect("request");
        read_frame(&mut stalled).expect("answer").expect("frame");
        stalled.write_all(&[0, 0]).expect("half a length prefix");

        join_within_5s(&daemon);
        assert!(client.status().is_err(), "the idle client is hung up on");
        assert!(
            !matches!(stalled.read(&mut [0u8; 1]), Ok(n) if n > 0),
            "the stalled peer is hung up on"
        );
    }

    #[test]
    fn shutdown_wakes_an_idle_unix_client_and_unlinks_the_socket() {
        let path = std::env::temp_dir().join(format!("aced-unit-{}.sock", std::process::id()));
        let daemon = Daemon::new(ServiceConfig::default());
        daemon.serve_unix(&path).expect("bind");
        let mut client = Client::connect_unix(&path).expect("connect");
        client.status().expect("status");

        join_within_5s(&daemon);
        assert!(!path.exists(), "join must unlink {}", path.display());
        assert!(client.status().is_err(), "the idle client is hung up on");
    }

    #[test]
    fn a_live_daemons_socket_is_refused_and_a_stale_one_replaced() {
        let path = std::env::temp_dir().join(format!("aced-twice-{}.sock", std::process::id()));
        let first = Daemon::new(ServiceConfig::default());
        first.serve_unix(&path).expect("bind");
        let second = Daemon::new(ServiceConfig::default());
        let err = second.serve_unix(&path).expect_err("the path is live");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        let mut client = Client::connect_unix(&path).expect("connect");
        client.status().expect("the first daemon still answers");
        join_within_5s(&second);
        join_within_5s(&first);

        // A listener dropped without unlinking leaves a stale socket.
        drop(UnixListener::bind(&path).expect("bind the stale socket"));
        assert!(path.exists());
        let third = Daemon::new(ServiceConfig::default());
        third.serve_unix(&path).expect("a stale socket is replaced");
        let mut client = Client::connect_unix(&path).expect("connect");
        client.status().expect("the replacement answers");
        join_within_5s(&third);
    }

    #[test]
    fn shutdown_wakes_a_unix_listener_whose_socket_file_is_gone() {
        let path = std::env::temp_dir().join(format!("aced-gone-{}.sock", std::process::id()));
        let daemon = Daemon::new(ServiceConfig::default());
        daemon.serve_unix(&path).expect("bind");
        // Nothing can connect to the listener now, so only closing its
        // socket can wake the accept loop.
        std::fs::remove_file(&path).expect("remove the socket file");
        join_within_5s(&daemon);
    }
}
