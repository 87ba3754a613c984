//! The observability layer's core: a [`Probe`] receives span
//! enter/exit events and monotonic counter events from every stage of
//! the extraction pipeline — the geometry feeds here in `ace-layout`,
//! the scanline sweep and band stitcher in `ace-core`, the
//! window/compose pipeline in `ace-hext`, and the raster baselines in
//! `ace-raster`.
//!
//! The trait lives in this crate (the lowest layer that emits events)
//! so the feeds can report without depending on the extractor; the
//! sinks that aggregate events into reports live in
//! `ace_core::probe`, which re-exports everything here.
//!
//! Probes take `&self` and must be [`Sync`]: one probe instance is
//! shared by every band worker of a parallel extraction, each tagging
//! its events with its own [`Lane`]. Implementations that record
//! state use interior mutability. [`NullProbe`] is the zero-cost
//! default — every method is an empty default body, so an
//! uninstrumented extraction pays only a devirtualized no-op call.
//!
//! Probes that need timing measure it themselves (e.g. capture
//! `Instant::now()` in `enter`/`exit`); the emitting code never
//! touches the clock on the null path.

use std::fmt;

/// The execution lane an event belongs to: the main thread, or one
/// band worker of a parallel extraction.
///
/// Lanes map 1:1 onto threads today (band *i* runs on its own worker)
/// and become the `tid` of Chrome-trace output, giving one track per
/// band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lane(pub u32);

impl Lane {
    /// The main (sequential) lane.
    pub const MAIN: Lane = Lane(0);

    /// The lane of band `index` (0 = bottom band).
    pub fn band(index: usize) -> Lane {
        Lane(index as u32 + 1)
    }

    /// The band index behind this lane, or `None` for the main lane.
    pub fn band_index(self) -> Option<usize> {
        (self.0 > 0).then(|| self.0 as usize - 1)
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.band_index() {
            None => f.write_str("main"),
            Some(i) => write!(f, "band {i}"),
        }
    }
}

/// A nested region of work, bracketed by [`Probe::enter`] and
/// [`Probe::exit`].
///
/// The four sweep phases ([`Span::FrontEnd`] … [`Span::Output`])
/// reproduce the paper's §5 time distribution; the rest bracket the
/// pipeline stages around them and the signoff passes after them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Span {
    /// One whole extraction run (entered once per lane).
    Extract,
    /// Parsing/instantiating/sorting inside the geometry feed (§5
    /// "parsing, interpreting and sorting the CIF file").
    FrontEnd,
    /// Entering new geometry into the active lists.
    Insert,
    /// Computing devices, nets, and contacts over a strip.
    Devices,
    /// Storage allocation, output construction, initialization.
    Output,
    /// One band worker's whole sweep (parallel extraction).
    Band,
    /// Stitching band seams back into one circuit.
    Stitch,
    /// One HEXT window's primitive extraction.
    Window,
    /// One HEXT compose of two adjacent windows.
    Compose,
    /// One ERC lint pass over an extraction (`ace_lint`).
    Lint,
    /// One geometric design-rule check (`ace_drc`).
    Drc,
}

impl Span {
    /// All spans, in declaration order.
    pub const ALL: [Span; 11] = [
        Span::Extract,
        Span::FrontEnd,
        Span::Insert,
        Span::Devices,
        Span::Output,
        Span::Band,
        Span::Stitch,
        Span::Window,
        Span::Compose,
        Span::Lint,
        Span::Drc,
    ];

    /// Stable kebab-case name (used as the Chrome-trace event name).
    pub const fn name(self) -> &'static str {
        match self {
            Span::Extract => "extract",
            Span::FrontEnd => "front-end",
            Span::Insert => "insert-geometry",
            Span::Devices => "compute-devices",
            Span::Output => "output",
            Span::Band => "band-sweep",
            Span::Stitch => "stitch",
            Span::Window => "window",
            Span::Compose => "compose",
            Span::Lint => "lint",
            Span::Drc => "drc",
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A monotonic quantity reported through [`Probe::add`] (a running
/// total) or [`Probe::gauge`] (a high-water mark).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    // -- scanline sweep --
    /// Boxes received from the front-end (the paper's N).
    Boxes,
    /// Scanline stops made.
    ScanlineStops,
    /// Fragments created across all strips.
    Fragments,
    /// Net union operations performed.
    NetUnions,
    /// Labels that did not land on conducting geometry.
    UnresolvedLabels,
    /// Devices whose channel touched more than two diffusion nets.
    MultiTerminalDevices,
    /// High-water mark of the total active-list length (gauge).
    MaxActive,
    // -- band stitcher --
    /// Boundary contacts collected on all interior seams.
    SeamContacts,
    /// Contact pairs with positive overlap examined across seams.
    PairsMatched,
    /// Net equivalences established across seams.
    SeamNetUnions,
    /// Channel-fragment pairs united into one device.
    DeviceMerges,
    /// Diffusion terminal contacts added to partial devices.
    TerminalContacts,
    /// Partial devices finalized after merging.
    PartialsCompleted,
    // -- work-stealing band scheduler --
    /// Bands run by a worker other than their chunk's owner.
    BandsStolen,
    /// Total nanoseconds workers spent finished while the slowest
    /// worker was still running.
    StealWaitNs,
    // -- incremental re-extraction cache --
    /// Bands answered from the incremental cache (hash unchanged).
    BandsReused,
    /// Bands re-swept because their content hash changed.
    BandsReswept,
    /// Estimated bytes held by the incremental band cache (gauge).
    CacheBytes,
    // -- geometry feeds --
    /// Boxes handed to the back-end by a feed.
    FeedBoxes,
    /// Symbol instances expanded (lazy feed).
    InstancesExpanded,
    /// High-water mark of the feed's pending queue (gauge): run
    /// cursors plus unexpanded instances for the lazy feed, the whole
    /// sorted box list for the eager one.
    PendingPeak,
    // -- HEXT window/compose pipeline --
    /// Primitive windows extracted with the flat engine.
    FlatCalls,
    /// Windows answered from the content-keyed memo table.
    WindowCacheHits,
    /// Window pairs composed.
    ComposeCalls,
    /// Compositions answered from the memo table.
    ComposeCacheHits,
    // -- raster baselines (a grid row is a scanline stop) --
    /// Runs visited (run-encoded scan).
    RunsVisited,
    /// Cells visited (full-grid scan).
    CellsVisited,
    // -- lint pass (ace_lint) --
    /// Diagnostics emitted by the ERC lint pass.
    LintsEmitted,
    // -- drc pass (ace_drc) --
    /// Violations emitted by the geometric DRC pass.
    DrcViolations,
    // -- service layer (aced) --
    /// Queued edit-diffs merged into an already-scheduled sweep, so
    /// they rode along for free instead of paying their own re-sweep.
    CoalescedEdits,
}

impl Counter {
    /// Stable kebab-case name.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::Boxes => "boxes",
            Counter::ScanlineStops => "scanline-stops",
            Counter::Fragments => "fragments",
            Counter::NetUnions => "net-unions",
            Counter::UnresolvedLabels => "unresolved-labels",
            Counter::MultiTerminalDevices => "multi-terminal-devices",
            Counter::MaxActive => "max-active",
            Counter::SeamContacts => "seam-contacts",
            Counter::PairsMatched => "pairs-matched",
            Counter::SeamNetUnions => "seam-net-unions",
            Counter::DeviceMerges => "device-merges",
            Counter::TerminalContacts => "terminal-contacts",
            Counter::PartialsCompleted => "partials-completed",
            Counter::BandsStolen => "bands-stolen",
            Counter::StealWaitNs => "steal-wait-ns",
            Counter::BandsReused => "bands-reused",
            Counter::BandsReswept => "bands-reswept",
            Counter::CacheBytes => "cache-bytes",
            Counter::FeedBoxes => "feed-boxes",
            Counter::InstancesExpanded => "instances-expanded",
            Counter::PendingPeak => "pending-peak",
            Counter::FlatCalls => "flat-calls",
            Counter::WindowCacheHits => "window-cache-hits",
            Counter::ComposeCalls => "compose-calls",
            Counter::ComposeCacheHits => "compose-cache-hits",
            Counter::RunsVisited => "runs-visited",
            Counter::CellsVisited => "cells-visited",
            Counter::LintsEmitted => "lints-emitted",
            Counter::DrcViolations => "drc-violations",
            Counter::CoalescedEdits => "coalesced-edits",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Receiver for extraction events.
///
/// All methods default to no-ops, so a sink only implements what it
/// cares about; [`NullProbe`] implements nothing and costs nothing.
/// One probe instance may receive events from several threads at
/// once (one lane per band worker), hence `&self` receivers and the
/// [`Sync`] bound.
pub trait Probe: Sync {
    /// A span of work begins on `lane`.
    fn enter(&self, lane: Lane, span: Span) {
        let _ = (lane, span);
    }

    /// The innermost open `span` on `lane` ends.
    fn exit(&self, lane: Lane, span: Span) {
        let _ = (lane, span);
    }

    /// Adds `delta` to a running total.
    fn add(&self, lane: Lane, counter: Counter, delta: u64) {
        let _ = (lane, counter, delta);
    }

    /// Reports the current value of a high-water counter; sinks keep
    /// the maximum seen.
    fn gauge(&self, lane: Lane, counter: Counter, value: u64) {
        let _ = (lane, counter, value);
    }
}

/// The zero-cost default probe: every event is a no-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {}

impl<P: Probe + ?Sized> Probe for &P {
    fn enter(&self, lane: Lane, span: Span) {
        (**self).enter(lane, span);
    }
    fn exit(&self, lane: Lane, span: Span) {
        (**self).exit(lane, span);
    }
    fn add(&self, lane: Lane, counter: Counter, delta: u64) {
        (**self).add(lane, counter, delta);
    }
    fn gauge(&self, lane: Lane, counter: Counter, value: u64) {
        (**self).gauge(lane, counter, value);
    }
}

/// A pair of probes fans every event out to both — the tee used to
/// observe an extraction with, say, a Chrome trace *and* a summary
/// table in one run.
impl<A: Probe, B: Probe> Probe for (A, B) {
    fn enter(&self, lane: Lane, span: Span) {
        self.0.enter(lane, span);
        self.1.enter(lane, span);
    }
    fn exit(&self, lane: Lane, span: Span) {
        self.0.exit(lane, span);
        self.1.exit(lane, span);
    }
    fn add(&self, lane: Lane, counter: Counter, delta: u64) {
        self.0.add(lane, counter, delta);
        self.1.add(lane, counter, delta);
    }
    fn gauge(&self, lane: Lane, counter: Counter, value: u64) {
        self.0.gauge(lane, counter, value);
        self.1.gauge(lane, counter, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Recorder {
        events: Mutex<Vec<String>>,
    }

    impl Probe for Recorder {
        fn enter(&self, lane: Lane, span: Span) {
            self.events.lock().unwrap().push(format!("{lane}>{span}"));
        }
        fn add(&self, _lane: Lane, counter: Counter, delta: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("{counter}+{delta}"));
        }
    }

    #[test]
    fn null_probe_accepts_everything() {
        let p = NullProbe;
        p.enter(Lane::MAIN, Span::Extract);
        p.add(Lane::band(3), Counter::Boxes, 7);
        p.gauge(Lane::MAIN, Counter::MaxActive, 9);
        p.exit(Lane::MAIN, Span::Extract);
    }

    #[test]
    fn lanes_round_trip() {
        assert_eq!(Lane::MAIN.band_index(), None);
        assert_eq!(Lane::band(0).band_index(), Some(0));
        assert_eq!(Lane::band(5), Lane(6));
        assert_eq!(Lane::MAIN.to_string(), "main");
        assert_eq!(Lane::band(2).to_string(), "band 2");
    }

    #[test]
    fn pair_fans_out_to_both() {
        let a = Recorder::default();
        let b = Recorder::default();
        let tee = (&a, &b);
        tee.enter(Lane::MAIN, Span::Stitch);
        tee.add(Lane::MAIN, Counter::SeamContacts, 2);
        // Default no-op methods still dispatch without effect.
        tee.exit(Lane::MAIN, Span::Stitch);
        for r in [&a, &b] {
            let events = r.events.lock().unwrap();
            assert_eq!(*events, vec!["main>stitch", "seam-contacts+2"]);
        }
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let names: std::collections::BTreeSet<&str> = Span::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Span::ALL.len());
    }
}
