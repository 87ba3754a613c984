//! `aced`: extraction as a service.
//!
//! ACE's pitch was interactive-speed extraction; an interactive tool
//! wants the extractor *resident*, not re-exec'd per edit. This crate
//! wraps the workspace's extractors in a long-lived daemon that keeps
//! parsed CIF libraries and per-session incremental band caches warm,
//! and serves `extract` / `edit-diff` / `lint` / `query-net` requests
//! from many concurrent clients over a length-prefixed JSON protocol
//! (Unix socket or TCP).
//!
//! The layers, bottom up:
//!
//! * [`ace_core::json`] — the workspace's one JSON module: a
//!   deterministic integer-only value (no external dependencies exist
//!   in this environment, so serialization is hand-rolled; ordered
//!   object keys give byte-stable encodings).
//! * [`frame`] — 4-byte big-endian length prefix around each message.
//! * [`protocol`] — the serializable request/response surface:
//!   [`protocol::Request`], [`protocol::Response`], and
//!   [`protocol::ServiceError`] with stable kebab-case error codes,
//!   all encoded through one [`protocol::Wire`] trait that also gives
//!   the in-process `ExtractOptions`, `LintConfig`, and `LayoutDiff`
//!   types their wire forms.
//! * [`session`] — named resident sessions (incremental extractor +
//!   warm cache) with an LRU evictor driven by the CacheBytes gauge.
//! * [`daemon`] — listeners, per-connection threads, work-stealing
//!   dispatch over `ace_core::scheduler::WorkerPool`, bounded queues
//!   with `queue-full` backpressure, per-request deadlines, and
//!   cooperative SIGTERM shutdown.
//! * [`client`] — a blocking typed client used by `aced-client`, the
//!   `service_load --smoke` check, the benchmark, and tests.
//!
//! # Examples
//!
//! Daemon and client in one process (tests do exactly this; binaries
//! split the two ends across processes):
//!
//! ```
//! use ace_core::ExtractOptions;
//! use ace_service::{Client, Daemon, ServiceConfig};
//!
//! let daemon = Daemon::new(ServiceConfig::default());
//! let addr = daemon.serve_tcp("127.0.0.1:0")?;
//!
//! let mut client = Client::connect_tcp(&addr.to_string())?;
//! client.open(
//!     "demo",
//!     "L ND; B 400 1600 0 0; L NP; B 1600 400 0 0; E",
//!     2,
//!     ExtractOptions::new(),
//! )?;
//! let result = client.extract("demo")?;
//! assert!(result.wirelist.contains("nEnh"));
//!
//! daemon.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod daemon;
pub mod frame;
pub mod protocol;
pub mod session;
pub mod signal;

pub use client::{Client, ClientError};
pub use daemon::{Daemon, ServiceConfig};
pub use protocol::{
    ErrorCode, ExtractResult, NetInfo, ProtoError, Request, Response, ServiceError, ServiceStatus,
    WireDiagnostic, WireReport,
};
pub use session::SessionStore;
