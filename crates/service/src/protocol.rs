//! The serializable request/response surface of `aced`.
//!
//! Everything a client can ask and everything the daemon can answer
//! lives here as plain data, encoded through one trait, [`Wire`].
//! The in-process types these mirror ([`ExtractOptions`],
//! [`LintConfig`], [`LayoutDiff`]) stay the single source of truth —
//! this module only defines the *wire* shape: stable field names,
//! stable enum spellings (the same kebab-case names the CLI already
//! uses), and integer-only numbers, so the golden-bytes test can pin
//! the exact encoding.
//!
//! Every message is an envelope object `{"v":1,"id":N,...}`:
//! requests carry `"op"` plus operands, responses carry `"ok"` plus
//! a result (or `"error"`). The `id` is an opaque client-chosen
//! correlation number echoed back verbatim.
//!
//! # Examples
//!
//! ```
//! use ace_service::protocol::{decode_request, encode_request, Request};
//!
//! let bytes = encode_request(7, &Request::Status);
//! let (id, back) = decode_request(&bytes).unwrap();
//! assert_eq!(id, 7);
//! assert_eq!(back, Request::Status);
//! ```

use std::fmt;

use ace_core::json::Json;
use ace_core::{ExtractOptions, SortStrategy};
use ace_geom::{Layer, Point, Rect};
use ace_layout::{FlatLabel, LayerBox, LayoutDiff};
use ace_lint::{Anchor, Diagnostic, LintConfig, LintSpan, RuleId, Severity};

/// Wire protocol version; bumped on any incompatible change.
pub const PROTOCOL_VERSION: i64 = 1;

/// A malformed or unsupported protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// What was wrong with the message.
    pub message: String,
}

impl ProtoError {
    fn new(message: impl Into<String>) -> ProtoError {
        ProtoError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Stable machine-readable error codes, mirrored in
/// [`ServiceError::code`]. Codes are part of the wire format: clients
/// dispatch on them, so existing spellings never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was syntactically valid JSON but semantically
    /// malformed (unknown op, missing field, bad enum spelling).
    BadRequest,
    /// The session's CIF source failed to parse.
    ParseError,
    /// The named session does not exist (or was closed/evicted).
    UnknownSession,
    /// `open` named a session that already exists.
    SessionExists,
    /// Extraction itself failed (inconsistent options, layout error).
    ExtractFailed,
    /// An `edit-diff` removal named geometry the layout lacks.
    DiffFailed,
    /// The target shard's queue is full; retry after
    /// [`ServiceError::retry_after_ms`].
    QueueFull,
    /// The request exceeded the daemon's per-request deadline.
    Timeout,
    /// The daemon is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// Unexpected daemon-side failure.
    Internal,
}

impl ErrorCode {
    /// All codes, in a fixed order (for tests and docs).
    pub const ALL: [ErrorCode; 10] = [
        ErrorCode::BadRequest,
        ErrorCode::ParseError,
        ErrorCode::UnknownSession,
        ErrorCode::SessionExists,
        ErrorCode::ExtractFailed,
        ErrorCode::DiffFailed,
        ErrorCode::QueueFull,
        ErrorCode::Timeout,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ];

    /// The stable kebab-case wire spelling.
    pub const fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::ParseError => "parse-error",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::SessionExists => "session-exists",
            ErrorCode::ExtractFailed => "extract-failed",
            ErrorCode::DiffFailed => "diff-failed",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::Timeout => "timeout",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire spelling as printed by [`ErrorCode::name`].
    pub fn from_name(name: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A request the daemon refused or failed, as sent to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Machine-dispatchable failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// For [`ErrorCode::QueueFull`]: how long the client should wait
    /// before retrying, in milliseconds.
    pub retry_after_ms: Option<i64>,
}

impl ServiceError {
    /// An error with no retry hint.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ServiceError {
        ServiceError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attaches a retry-after hint (backpressure responses).
    pub fn with_retry_after_ms(mut self, ms: i64) -> ServiceError {
        self.retry_after_ms = Some(ms);
        self
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)?;
        if let Some(ms) = self.retry_after_ms {
            write!(f, " (retry after {ms} ms)")?;
        }
        Ok(())
    }
}

impl std::error::Error for ServiceError {}

/// Everything a client can ask `aced`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Creates a session: parse `cif`, flatten it, and keep an
    /// incremental extractor with `bands` bands resident under
    /// `session`.
    Open {
        /// Client-chosen session name.
        session: String,
        /// CIF source text of the library to keep resident.
        cif: String,
        /// Incremental band count (0 picks the daemon default).
        bands: usize,
        /// Extraction options applied to every run in this session.
        options: ExtractOptions,
    },
    /// Extracts the session's current layout (cache-warm after the
    /// first run).
    Extract {
        /// Target session.
        session: String,
    },
    /// Applies a layout edit to the session and re-extracts; only
    /// dirty bands are re-swept.
    EditDiff {
        /// Target session.
        session: String,
        /// Client-chosen sequence number for exactly-once semantics.
        /// The session records the highest seq it has applied; a
        /// retried `seq <= last` is acknowledged idempotently from the
        /// current snapshot instead of re-applied, so a client that
        /// timed out may safely retry the same request. `None` opts
        /// out (the edit is always applied) — for single-shot tools
        /// and multi-writer sessions where no per-client ordering
        /// exists.
        seq: Option<i64>,
        /// The edit, as a multiset delta.
        diff: LayoutDiff,
    },
    /// Runs the ERC rule engine over the session's current circuit.
    Lint {
        /// Target session.
        session: String,
        /// Rule enablement/severity and parameters.
        config: LintConfig,
    },
    /// Runs the geometric design-rule checker over the session's
    /// current layout.
    Drc {
        /// Target session.
        session: String,
        /// Rule deck in `ace_drc::RuleDeck` text form; `None` uses
        /// the default NMOS λ-deck.
        deck: Option<String>,
        /// Rule enablement/severity overrides (geometric rules only;
        /// the rest are ignored by the checker).
        config: LintConfig,
    },
    /// Looks one net up by name in the session's current netlist.
    QueryNet {
        /// Target session.
        session: String,
        /// The net name (a CIF `94` label).
        net: String,
    },
    /// Drops a session and frees its caches.
    Close {
        /// Target session.
        session: String,
    },
    /// Daemon-wide statistics (sessions, cache bytes, pool counters).
    Status,
}

impl Request {
    /// The wire spelling of this request's `op` field.
    pub const fn op(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Extract { .. } => "extract",
            Request::EditDiff { .. } => "edit-diff",
            Request::Lint { .. } => "lint",
            Request::Drc { .. } => "drc",
            Request::QueryNet { .. } => "query-net",
            Request::Close { .. } => "close",
            Request::Status => "status",
        }
    }

    /// The session this request targets, if any (`Status` has none).
    pub fn session(&self) -> Option<&str> {
        match self {
            Request::Open { session, .. }
            | Request::Extract { session }
            | Request::EditDiff { session, .. }
            | Request::Lint { session, .. }
            | Request::Drc { session, .. }
            | Request::QueryNet { session, .. }
            | Request::Close { session } => Some(session),
            Request::Status => None,
        }
    }
}

/// Per-request extraction statistics, a wire-stable subset of
/// [`ace_core::ExtractionReport`] (times flattened to nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireReport {
    /// Boxes swept.
    pub boxes: i64,
    /// Scanline stops made.
    pub scanline_stops: i64,
    /// Net union operations.
    pub net_unions: i64,
    /// Bands answered from the incremental cache.
    pub bands_reused: i64,
    /// Bands re-swept because their content changed.
    pub bands_reswept: i64,
    /// Bytes held by the session's band cache after this request.
    pub cache_bytes: i64,
    /// ERC diagnostics emitted (lint requests only).
    pub lints_emitted: i64,
    /// Geometric DRC violations reported (drc requests only).
    pub drc_violations: i64,
    /// Time spent in the DRC checker, nanoseconds (drc requests
    /// only).
    pub drc_time_ns: i64,
    /// Queued edits that rode along with this request's sweep beyond
    /// the first (edit-diff requests only; see coalescing in the
    /// daemon docs).
    pub coalesced_edits: i64,
    /// Wall-clock time, nanoseconds.
    pub total_ns: i64,
}

impl WireReport {
    /// Flattens the wire-relevant fields of an in-process report.
    pub fn from_report(r: &ace_core::ExtractionReport) -> WireReport {
        WireReport {
            boxes: r.boxes as i64,
            scanline_stops: r.scanline_stops as i64,
            net_unions: r.net_unions as i64,
            bands_reused: r.bands_reused as i64,
            bands_reswept: r.bands_reswept as i64,
            cache_bytes: r.cache_bytes as i64,
            lints_emitted: r.lints_emitted as i64,
            drc_violations: r.drc_violations as i64,
            drc_time_ns: r.drc_time.as_nanos().min(i64::MAX as u128) as i64,
            coalesced_edits: r.coalesced_edits as i64,
            total_ns: r.total_time.as_nanos().min(i64::MAX as u128) as i64,
        }
    }
}

/// A successful `extract` / `edit-diff` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractResult {
    /// The circuit in CMU wirelist text form — parse it back with
    /// `ace_wirelist::parse_wirelist`.
    pub wirelist: String,
    /// Per-request statistics.
    pub report: WireReport,
}

/// One lint/DRC finding, flattened for the wire (rule, severity and
/// the primary span survive exactly; related spans are carried only
/// in the pre-rendered text form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// Effective severity after config overrides.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// The primary span — lets clients rebuild a [`Diagnostic`] for
    /// structured emitters (SARIF) without re-running the checker.
    pub primary: LintSpan,
    /// The canonical one-line render (`severity[rule] @ anchor: …`),
    /// identical to the in-process [`Diagnostic::render`].
    pub rendered: String,
}

impl From<&Diagnostic> for WireDiagnostic {
    fn from(d: &Diagnostic) -> WireDiagnostic {
        WireDiagnostic {
            rule: d.rule,
            severity: d.severity,
            message: d.message.clone(),
            primary: d.primary.clone(),
            rendered: d.render(),
        }
    }
}

impl WireDiagnostic {
    /// Rebuilds an in-process [`Diagnostic`] (related spans, which
    /// only travel inside [`WireDiagnostic::rendered`], are dropped).
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic {
            rule: self.rule,
            severity: self.severity,
            message: self.message.clone(),
            primary: self.primary.clone(),
            related: Vec::new(),
        }
    }
}

/// A `query-net` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetInfo {
    /// The queried name.
    pub net: String,
    /// Whether the name resolved to a net.
    pub found: bool,
    /// All names on the resolved net (empty when not found).
    pub names: Vec<String>,
    /// Devices whose gate is on this net.
    pub gates: i64,
    /// Device source/drain terminals on this net.
    pub terminals: i64,
    /// Wire capacitance to ground under the default NMOS parameter
    /// table, attofarads (0 when not found).
    pub cap_af: i64,
    /// End-to-end segment-resistance estimate, milliohms (0 when not
    /// found).
    pub res_mohm: i64,
}

/// A `status` answer: daemon-wide gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStatus {
    /// Resident sessions.
    pub sessions: i64,
    /// Total bytes held by all session caches (the CacheBytes gauge
    /// the evictor works against).
    pub cache_bytes: i64,
    /// Session caches reclaimed by the memory-budget evictor.
    pub evictions: i64,
    /// Jobs the worker pool has completed.
    pub executed: i64,
    /// Jobs run by a worker other than the target shard's owner.
    pub stolen: i64,
    /// Jobs currently queued across all shards.
    pub queued: i64,
    /// Worker threads serving requests.
    pub workers: i64,
    /// Lifetime count of queued edit-diffs that were merged into an
    /// already-scheduled sweep instead of paying their own.
    pub coalesced_edits: i64,
}

/// Everything the daemon can answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `open` succeeded.
    Opened {
        /// The session name, echoed.
        session: String,
        /// The band count actually used.
        bands: usize,
    },
    /// `extract` / `edit-diff` succeeded.
    Extracted(ExtractResult),
    /// `lint` succeeded.
    Linted {
        /// Findings in canonical report order.
        diagnostics: Vec<WireDiagnostic>,
        /// Per-request statistics (including `lints_emitted`).
        report: WireReport,
    },
    /// `drc` succeeded.
    DrcChecked {
        /// Violations in canonical report order.
        diagnostics: Vec<WireDiagnostic>,
        /// Per-request statistics (including `drc_violations`).
        report: WireReport,
    },
    /// `query-net` succeeded (even when the net was not found —
    /// check [`NetInfo::found`]).
    Net(NetInfo),
    /// `close` succeeded.
    Closed {
        /// The session name, echoed.
        session: String,
        /// Whether the session existed.
        existed: bool,
    },
    /// `status` succeeded.
    Status(ServiceStatus),
    /// The request failed; see [`ServiceError::code`].
    Error(ServiceError),
}

// ---------------------------------------------------------------------------
// The wire codec
// ---------------------------------------------------------------------------

/// A type with a stable wire form: a [`Json`] value that encodes it
/// and decodes back to an equal value.
///
/// Every message and every type a message carries implements it, so
/// one generic round-trip test covers the whole protocol.
///
/// ```
/// use ace_core::ExtractOptions;
/// use ace_service::protocol::Wire;
///
/// let options = ExtractOptions::new().with_geometry();
/// assert_eq!(ExtractOptions::from_json(&options.to_json()), Ok(options));
/// ```
pub trait Wire: Sized {
    /// The wire value.
    fn to_json(&self) -> Json;

    /// Decodes a wire value.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] naming the first malformed part.
    fn from_json(v: &Json) -> Result<Self, ProtoError>;
}

/// Decodes member `key` of the object `obj`: the one place the
/// absent/null/wrong-type policy lives. An absent key reads as
/// `null`, so an optional field is `None` whether absent or null and
/// a required one is reported missing. A member that is present but
/// malformed is reported under its key, so errors carry their path
/// (`'diff': 'boxes_added': [0]: 'rect': …`).
fn field<T: Wire>(obj: &Json, key: &str) -> Result<T, ProtoError> {
    let value = obj.get(key);
    T::from_json(value.unwrap_or(&Json::Null)).map_err(|e| match value {
        None => ProtoError::new(format!("missing '{key}'")),
        Some(_) => ProtoError::new(format!("'{key}': {}", e.message)),
    })
}

impl Wire for i64 {
    fn to_json(&self) -> Json {
        Json::Int(*self)
    }

    fn from_json(v: &Json) -> Result<i64, ProtoError> {
        v.as_int()
            .ok_or_else(|| ProtoError::new("expected an integer"))
    }
}

impl Wire for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }

    fn from_json(v: &Json) -> Result<usize, ProtoError> {
        v.as_int()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| ProtoError::new("expected a non-negative integer"))
    }
}

impl Wire for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn from_json(v: &Json) -> Result<bool, ProtoError> {
        v.as_bool()
            .ok_or_else(|| ProtoError::new("expected a boolean"))
    }
}

impl Wire for String {
    fn to_json(&self) -> Json {
        Json::str(self)
    }

    fn from_json(v: &Json) -> Result<String, ProtoError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| ProtoError::new("expected a string"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }

    fn from_json(v: &Json) -> Result<Vec<T>, ProtoError> {
        v.as_arr()
            .ok_or_else(|| ProtoError::new("expected an array"))?
            .iter()
            .enumerate()
            .map(|(i, item)| {
                T::from_json(item).map_err(|e| ProtoError::new(format!("[{i}]: {}", e.message)))
            })
            .collect()
    }
}

/// `None` is `null` on the wire.
impl<T: Wire> Wire for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }

    fn from_json(v: &Json) -> Result<Option<T>, ProtoError> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl Wire for Rect {
    fn to_json(&self) -> Json {
        vec![self.x_min, self.y_min, self.x_max, self.y_max].to_json()
    }

    fn from_json(v: &Json) -> Result<Rect, ProtoError> {
        match Vec::<i64>::from_json(v).as_deref() {
            Ok(&[x_min, y_min, x_max, y_max]) => Ok(Rect::new(x_min, y_min, x_max, y_max)),
            _ => Err(ProtoError::new("rect must be [x_min,y_min,x_max,y_max]")),
        }
    }
}

impl Wire for Point {
    fn to_json(&self) -> Json {
        vec![self.x, self.y].to_json()
    }

    fn from_json(v: &Json) -> Result<Point, ProtoError> {
        match Vec::<i64>::from_json(v).as_deref() {
            Ok(&[x, y]) => Ok(Point::new(x, y)),
            _ => Err(ProtoError::new("point must be [x,y]")),
        }
    }
}

/// `Wire` for a closed vocabulary spelled by stable names: `$name`
/// renders a value, `$parse` reads a spelling back.
macro_rules! wire_name {
    ($ty:ty, $what:literal, $name:expr, $parse:expr) => {
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                Json::str($name(*self))
            }

            fn from_json(v: &Json) -> Result<$ty, ProtoError> {
                let name = String::from_json(v)?;
                $parse(name.as_str())
                    .ok_or_else(|| ProtoError::new(format!("unknown {} '{name}'", $what)))
            }
        }
    };
}

wire_name!(Layer, "layer", Layer::cif_name, Layer::from_cif_name);
wire_name!(RuleId, "rule", RuleId::name, RuleId::from_name);
wire_name!(Severity, "severity", Severity::name, Severity::from_name);
wire_name!(
    ErrorCode,
    "error code",
    ErrorCode::name,
    ErrorCode::from_name
);
wire_name!(
    SortStrategy,
    "sort",
    |sort| match sort {
        SortStrategy::Insertion => "insertion",
        SortStrategy::Bin => "bin",
    },
    |name| match name {
        "insertion" => Some(SortStrategy::Insertion),
        "bin" => Some(SortStrategy::Bin),
        _ => None,
    }
);

/// `Wire` for a struct whose wire form is an object with one member
/// per listed field, named and ordered as listed.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                Json::obj([$((stringify!($field), self.$field.to_json())),*])
            }

            fn from_json(v: &Json) -> Result<$ty, ProtoError> {
                Ok($ty { $($field: field(v, stringify!($field))?),* })
            }
        }
    };
}

wire_struct!(LayerBox { layer, rect });
wire_struct!(FlatLabel { name, at, layer });
wire_struct!(LayoutDiff {
    boxes_added,
    boxes_removed,
    labels_added,
    labels_removed,
});
wire_struct!(LintSpan {
    anchor,
    label,
    name
});
wire_struct!(WireDiagnostic {
    rule,
    severity,
    message,
    primary,
    rendered,
});
wire_struct!(WireReport {
    boxes,
    scanline_stops,
    net_unions,
    bands_reused,
    bands_reswept,
    cache_bytes,
    lints_emitted,
    drc_violations,
    drc_time_ns,
    coalesced_edits,
    total_ns,
});
wire_struct!(ExtractResult { wirelist, report });
wire_struct!(NetInfo {
    net,
    found,
    names,
    gates,
    terminals,
    cap_af,
    res_mohm,
});
wire_struct!(ServiceStatus {
    sessions,
    cache_bytes,
    evictions,
    executed,
    stolen,
    queued,
    workers,
    coalesced_edits,
});
wire_struct!(ServiceError {
    code,
    message,
    retry_after_ms
});

/// `{"at":[x,y]}` or `{"area":[x_min,y_min,x_max,y_max]}`.
impl Wire for Anchor {
    fn to_json(&self) -> Json {
        match self {
            Anchor::At(p) => Json::obj([("at", p.to_json())]),
            Anchor::Area(r) => Json::obj([("area", r.to_json())]),
        }
    }

    fn from_json(v: &Json) -> Result<Anchor, ProtoError> {
        if let Some(p) = field(v, "at")? {
            Ok(Anchor::At(p))
        } else if let Some(r) = field(v, "area")? {
            Ok(Anchor::Area(r))
        } else {
            Err(ProtoError::new("anchor must have 'at' or 'area'"))
        }
    }
}

impl Wire for ExtractOptions {
    fn to_json(&self) -> Json {
        Json::obj([
            ("geometry", self.geometry_output.to_json()),
            ("sort", self.sort.to_json()),
            ("window", self.window.to_json()),
            ("threads", self.threads.to_json()),
            ("bands", self.bands.to_json()),
            ("lints", self.lints.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<ExtractOptions, ProtoError> {
        let mut options = ExtractOptions::new();
        options.geometry_output = field(v, "geometry")?;
        options.sort = field(v, "sort")?;
        options.window = field(v, "window")?;
        options.threads = field(v, "threads")?;
        options.bands = field(v, "bands")?;
        options.lints = field(v, "lints")?;
        Ok(options)
    }
}

/// One rule's entry in a [`LintConfig`]'s wire form.
struct RuleSetting {
    rule: RuleId,
    enabled: bool,
    severity: Severity,
}

wire_struct!(RuleSetting {
    rule,
    enabled,
    severity
});

/// One entry per rule (enabled + severity, by stable kebab-case
/// names) plus the supply name sets, the minimum channel dimension,
/// and the overload threshold.
///
/// Decoding rejects [`Severity::Note`]: the config builder vocabulary
/// (allow/warn/deny, after clippy) cannot express it, so no
/// conforming client produces it.
impl Wire for LintConfig {
    fn to_json(&self) -> Json {
        let rules: Vec<RuleSetting> = RuleId::ALL
            .into_iter()
            .map(|rule| RuleSetting {
                rule,
                enabled: self.is_enabled(rule),
                severity: self.severity_of(rule),
            })
            .collect();
        Json::obj([
            ("rules", rules.to_json()),
            ("vdd", self.vdd_names.to_json()),
            ("gnd", self.gnd_names.to_json()),
            ("min_channel_dim", self.min_channel_dim.to_json()),
            (
                "overload_cap_af_per_drive",
                self.overload_cap_af_per_drive.to_json(),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<LintConfig, ProtoError> {
        let mut config = LintConfig::new();
        for setting in field::<Vec<RuleSetting>>(v, "rules")? {
            let rule = setting.rule;
            config = match setting.severity {
                Severity::Warning => config.warn(rule),
                Severity::Error => config.deny(rule),
                Severity::Note => {
                    return Err(ProtoError::new(
                        "severity 'note' is not expressible in a lint config",
                    ))
                }
            };
            if !setting.enabled {
                config = config.allow(rule);
            }
        }
        Ok(config
            .with_supply_names(field(v, "vdd")?, field(v, "gnd")?)
            .with_min_channel_dim(field(v, "min_channel_dim")?)
            .with_overload_threshold(field(v, "overload_cap_af_per_drive")?))
    }
}

/// `{"op":…,"session":…,…}`: the `op` spelling, then the operands
/// (the envelope fields are added by [`encode_request`]).
impl Wire for Request {
    fn to_json(&self) -> Json {
        let mut pairs = vec![("op", Json::str(self.op()))];
        pairs.extend(self.session().map(|s| ("session", Json::str(s))));
        match self {
            Request::Open {
                cif,
                bands,
                options,
                ..
            } => pairs.extend([
                ("cif", cif.to_json()),
                ("bands", bands.to_json()),
                ("options", options.to_json()),
            ]),
            Request::EditDiff { seq, diff, .. } => {
                pairs.extend([("seq", seq.to_json()), ("diff", diff.to_json())])
            }
            Request::Lint { config, .. } => pairs.push(("config", config.to_json())),
            Request::Drc { deck, config, .. } => {
                pairs.extend([("deck", deck.to_json()), ("config", config.to_json())])
            }
            Request::QueryNet { net, .. } => pairs.push(("net", net.to_json())),
            Request::Extract { .. } | Request::Close { .. } | Request::Status => {}
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Request, ProtoError> {
        let op: String = field(v, "op")?;
        let session = || field(v, "session");
        Ok(match op.as_str() {
            "open" => Request::Open {
                session: session()?,
                cif: field(v, "cif")?,
                bands: field(v, "bands")?,
                options: field(v, "options")?,
            },
            "extract" => Request::Extract {
                session: session()?,
            },
            "edit-diff" => Request::EditDiff {
                session: session()?,
                seq: field(v, "seq")?,
                diff: field(v, "diff")?,
            },
            "lint" => Request::Lint {
                session: session()?,
                config: field(v, "config")?,
            },
            "drc" => Request::Drc {
                session: session()?,
                deck: field(v, "deck")?,
                config: field(v, "config")?,
            },
            "query-net" => Request::QueryNet {
                session: session()?,
                net: field(v, "net")?,
            },
            "close" => Request::Close {
                session: session()?,
            },
            "status" => Request::Status,
            other => return Err(ProtoError::new(format!("unknown op '{other}'"))),
        })
    }
}

/// `{"ok":true,"result":…,…}` with the result's fields inline, or
/// `{"ok":false,"error":{…}}` (the envelope fields are added by
/// [`encode_response`]).
impl Wire for Response {
    fn to_json(&self) -> Json {
        let (result, body) = match self {
            Response::Opened { session, bands } => (
                "opened",
                Json::obj([("session", session.to_json()), ("bands", bands.to_json())]),
            ),
            Response::Extracted(result) => ("extracted", result.to_json()),
            Response::Linted {
                diagnostics,
                report,
            } => ("linted", findings(diagnostics, report)),
            Response::DrcChecked {
                diagnostics,
                report,
            } => ("drc", findings(diagnostics, report)),
            Response::Net(info) => ("net", info.to_json()),
            Response::Closed { session, existed } => (
                "closed",
                Json::obj([
                    ("session", session.to_json()),
                    ("existed", existed.to_json()),
                ]),
            ),
            Response::Status(status) => ("status", status.to_json()),
            Response::Error(e) => {
                return Json::obj([("ok", Json::Bool(false)), ("error", e.to_json())])
            }
        };
        concat(
            Json::obj([("ok", Json::Bool(true)), ("result", Json::str(result))]),
            body,
        )
    }

    fn from_json(v: &Json) -> Result<Response, ProtoError> {
        if !field::<bool>(v, "ok")? {
            return Ok(Response::Error(field(v, "error")?));
        }
        let result: String = field(v, "result")?;
        Ok(match result.as_str() {
            "opened" => Response::Opened {
                session: field(v, "session")?,
                bands: field(v, "bands")?,
            },
            "extracted" => Response::Extracted(ExtractResult::from_json(v)?),
            "linted" => Response::Linted {
                diagnostics: field(v, "diagnostics")?,
                report: field(v, "report")?,
            },
            "drc" => Response::DrcChecked {
                diagnostics: field(v, "diagnostics")?,
                report: field(v, "report")?,
            },
            "net" => Response::Net(NetInfo::from_json(v)?),
            "closed" => Response::Closed {
                session: field(v, "session")?,
                existed: field(v, "existed")?,
            },
            "status" => Response::Status(ServiceStatus::from_json(v)?),
            other => return Err(ProtoError::new(format!("unknown result '{other}'"))),
        })
    }
}

/// The inline body of a `linted` or `drc` answer.
fn findings(diagnostics: &Vec<WireDiagnostic>, report: &WireReport) -> Json {
    Json::obj([
        ("diagnostics", diagnostics.to_json()),
        ("report", report.to_json()),
    ])
}

/// The members of object `head` followed by those of object `body`.
fn concat(head: Json, body: Json) -> Json {
    match (head, body) {
        (Json::Obj(mut pairs), Json::Obj(rest)) => {
            pairs.extend(rest);
            Json::Obj(pairs)
        }
        _ => unreachable!("wire messages are objects"),
    }
}

/// Wraps a message in its envelope and renders the canonical bytes.
fn encode(id: i64, message: &impl Wire) -> Vec<u8> {
    let envelope = Json::obj([("v", Json::Int(PROTOCOL_VERSION)), ("id", Json::Int(id))]);
    concat(envelope, message.to_json()).to_text().into_bytes()
}

/// Parses message bytes, checks the envelope, and decodes the body.
fn decode<T: Wire>(bytes: &[u8]) -> Result<(i64, T), ProtoError> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| ProtoError::new("message is not valid UTF-8"))?;
    let v = Json::parse(text).map_err(|e| ProtoError::new(e.to_string()))?;
    match field::<i64>(&v, "v")? {
        PROTOCOL_VERSION => Ok((field(&v, "id")?, T::from_json(&v)?)),
        other => Err(ProtoError::new(format!(
            "protocol version {other} (this build speaks {PROTOCOL_VERSION})"
        ))),
    }
}

/// Encodes a request to its canonical wire bytes (compact JSON; frame
/// it with [`crate::frame::write_frame`]).
pub fn encode_request(id: i64, request: &Request) -> Vec<u8> {
    encode(id, request)
}

/// Decodes request bytes.
///
/// # Errors
///
/// [`ProtoError`] on invalid UTF-8/JSON, a version mismatch, or a
/// malformed message.
pub fn decode_request(bytes: &[u8]) -> Result<(i64, Request), ProtoError> {
    decode(bytes)
}

/// Encodes a response to its canonical wire bytes.
pub fn encode_response(id: i64, response: &Response) -> Vec<u8> {
    encode(id, response)
}

/// Decodes response bytes.
///
/// # Errors
///
/// [`ProtoError`] on invalid UTF-8/JSON, a version mismatch, or a
/// malformed message.
pub fn decode_response(bytes: &[u8]) -> Result<(i64, Response), ProtoError> {
    decode(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_round_trip_and_stay_kebab() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_name(code.name()), Some(code));
            assert!(
                code.name()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '-'),
                "{code}"
            );
        }
        assert_eq!(ErrorCode::from_name("no-such-code"), None);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let bytes = String::from_utf8(encode_request(1, &Request::Status)).unwrap();
        let bytes = bytes.replace("\"v\":1", "\"v\":99");
        let err = decode_request(bytes.as_bytes()).unwrap_err();
        assert!(err.message.contains("version 99"));
    }

    #[test]
    fn unknown_op_and_missing_fields_are_protocol_errors() {
        let err = decode_request(br#"{"v":1,"id":1,"op":"frobnicate"}"#).unwrap_err();
        assert!(err.message.contains("frobnicate"));

        let err = decode_request(br#"{"v":1,"id":1,"op":"extract"}"#).unwrap_err();
        assert_eq!(err.message, "missing 'session'");

        // A wrong type is reported with the path to it.
        let err = decode_request(br#"{"v":1,"id":1,"op":"close","session":7}"#).unwrap_err();
        assert_eq!(err.message, "'session': expected a string");
    }

    #[test]
    fn lint_config_severity_note_is_rejected() {
        let text = LintConfig::new().to_json().to_text();
        // Corrupt the first rule's severity.
        let text = text.replacen("\"severity\":\"error\"", "\"severity\":\"note\"", 1);
        let err = LintConfig::from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.message.contains("note"));
    }

    #[test]
    fn absent_and_null_optionals_both_read_as_none() {
        for seq in ["", ",\"seq\":null"] {
            let text = format!(
                r#"{{"v":1,"id":1,"op":"edit-diff","session":"s"{seq},"diff":{{"boxes_added":[],"boxes_removed":[],"labels_added":[],"labels_removed":[]}}}}"#
            );
            match decode_request(text.as_bytes()).unwrap().1 {
                Request::EditDiff { seq, .. } => assert_eq!(seq, None),
                other => panic!("decoded {other:?}"),
            }
        }
        let err =
            decode_request(br#"{"v":1,"id":1,"op":"drc","session":"s","deck":5}"#).unwrap_err();
        assert_eq!(err.message, "'deck': expected a string");
    }

    #[test]
    fn wire_report_flattens_in_process_report() {
        let r = ace_core::ExtractionReport {
            boxes: 12,
            bands_reused: 3,
            cache_bytes: 4096,
            coalesced_edits: 2,
            total_time: std::time::Duration::from_micros(7),
            ..Default::default()
        };
        let w = WireReport::from_report(&r);
        assert_eq!(w.boxes, 12);
        assert_eq!(w.bands_reused, 3);
        assert_eq!(w.cache_bytes, 4096);
        assert_eq!(w.coalesced_edits, 2);
        assert_eq!(w.total_ns, 7_000);
    }
}
