//! Spans recorded around the benchmark's calls into the program, kept
//! in memory and written out when a pass ends, plus the counting
//! allocator that only the traced binary installs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts every allocation and reallocation, then defers to the
/// system allocator. `perfbench-traced` installs it as the global
/// allocator; the untraced binary does not, so only traced passes pay
/// for the counting.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator and
        // the caller's guarantees for `realloc` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations counted so far by [`CountingAlloc`] (always 0 in a
/// binary that does not install it).
fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One closed span.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Metric stem, e.g. `cif.parse`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Service request id, for spans around one request.
    pub request: Option<i64>,
    /// Allocations made (by any thread) while the span was open.
    pub allocs: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// A per-thread span recorder. When off, [`Tracer::span`] only calls
/// its closure: no clock reads and no records.
pub(crate) struct Tracer {
    on: bool,
    epoch: Instant,
    lane: usize,
    spans: Vec<Span>,
    stack: Vec<(usize, u64)>,
    last_ns: u64,
    last_allocs: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// A recording tracer for one thread (`lane`), timing from `epoch`.
    pub fn on(epoch: Instant, lane: usize) -> Tracer {
        Tracer::new(true, epoch, lane)
    }

    fn new(on: bool, epoch: Instant, lane: usize) -> Tracer {
        Tracer {
            on,
            epoch,
            lane,
            spans: Vec::new(),
            stack: Vec::new(),
            last_ns: 0,
            last_allocs: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_req(name, None, f)
    }

    /// [`span`](Tracer::span) for a span that belongs to one service
    /// request.
    pub fn span_req<T>(
        &mut self,
        name: &'static str,
        request: Option<i64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            parent: self.stack.last().map(|&(i, _)| i),
            name,
            start: 0,
            end: 0,
            request,
            allocs: 0,
        });
        let allocs_before = allocations();
        self.stack.push((index, allocs_before));
        self.spans[index].start = self.now();
        let value = f(self);
        let end = self.now();
        let (top, allocs_before) = self.stack.pop().expect("span stack is balanced");
        debug_assert_eq!(top, index);
        let span = &mut self.spans[index];
        span.end = end;
        span.allocs = allocations() - allocs_before;
        self.last_ns = span.ns();
        self.last_allocs = span.allocs;
        value
    }

    /// Duration of the most recently closed span (0 when off).
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    /// Allocations of the most recently closed span (0 when off).
    pub fn last_allocs(&self) -> u64 {
        self.last_allocs
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The thread lane this tracer records.
    pub fn lane(&self) -> usize {
        self.lane
    }
}

/// Per-op values gathered by a traced pass: span self times by name,
/// derived per-layer values, and raw integer counts for the
/// exactness check.
#[derive(Debug, Default)]
pub(crate) struct Samples {
    /// Metric name → one value per op (or per set-up, per request).
    pub values: BTreeMap<String, Vec<f64>>,
    /// Count name → one raw integer per op, in op order.
    pub counts: BTreeMap<String, Vec<u64>>,
}

impl Samples {
    /// Records one value of a per-layer metric.
    pub fn push(&mut self, name: &str, value: f64) {
        self.values.entry(name.to_string()).or_default().push(value);
    }

    /// Records one raw count (compared exactly between two passes).
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.entry(name.to_string()).or_default().push(value);
    }
}

/// Result of folding one tracer's span trees into [`Samples`].
#[derive(Debug, Default)]
pub(crate) struct LayerSum {
    /// Root `op` spans checked.
    pub ops: usize,
    /// Roots whose self times did not add up to their duration.
    pub mismatches: usize,
    /// Σ unattributed ns over all ops.
    pub unattributed_ns: u64,
    /// Σ op duration ns over all ops.
    pub op_ns: u64,
    /// Σ self ns per span name over all ops.
    pub self_ns: BTreeMap<&'static str, u64>,
}

/// Self time of every span: its duration minus the part of it that
/// its children's intervals cover.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Folds span trees into per-op samples.
///
/// For every root span, the self times of the spans below it are
/// summed per name and pushed as `<name>_ms`. A root named `op` is a
/// timed operation: its own self time is pushed as `unattributed_ms`,
/// and the layer-sum check demands that the self times of its whole
/// tree plus that unattributed rest equal its duration exactly, which
/// holds only when child spans nest inside their parents without
/// overlapping. A root named `setup` contributes its children only;
/// any other root (a replayed call) is pushed under its own name with
/// its whole duration.
pub(crate) fn fold_spans(spans: &[Span], samples: &mut Samples, sum: &mut LayerSum) {
    let selfs = self_times(spans);
    let mut root_of = vec![0usize; spans.len()];
    let mut per_root: BTreeMap<usize, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = match s.parent {
            // Parents are recorded before their children.
            Some(p) => root_of[p],
            None => i,
        };
        *per_root
            .entry(root_of[i])
            .or_default()
            .entry(s.name)
            .or_insert(0) += selfs[i];
    }
    for (root, names) in per_root {
        let root_span = &spans[root];
        for (&name, &ns) in &names {
            if name != root_span.name {
                samples.push(&format!("{name}_ms"), ms(ns));
            }
        }
        if !matches!(root_span.name, "op" | "setup") {
            samples.push(&format!("{}_ms", root_span.name), ms(root_span.ns()));
        }
        if root_span.name == "op" {
            let total: u64 = names.values().sum();
            let unattributed = selfs[root];
            samples.push("unattributed_ms", ms(unattributed));
            sum.ops += 1;
            if total != root_span.ns() {
                sum.mismatches += 1;
            }
            sum.unattributed_ns += unattributed;
            sum.op_ns += root_span.ns();
            for (&name, &ns) in &names {
                if name != "op" {
                    *sum.self_ns.entry(name).or_insert(0) += ns;
                }
            }
        }
    }
}

/// Nanoseconds as milliseconds.
pub(crate) fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders spans as a Chrome trace (`chrome://tracing`, Perfetto).
pub(crate) fn chrome_trace(tracers: &[&Tracer]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for t in tracers {
        for (i, s) in t.spans().iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request\":{},\"allocs\":{}}}}}",
                s.name,
                t.lane(),
                s.start as f64 / 1e3,
                s.ns() as f64 / 1e3,
                i,
                s.parent.map_or(-1, |p| p as i64),
                s.request.unwrap_or(-1),
                s.allocs
            );
        }
    }
    out.push_str("\n]}\n");
    out
}
