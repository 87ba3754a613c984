use std::fmt;
use std::time::Duration;

use ace_geom::Rect;
use ace_layout::probe::Span;

/// How step 2.a sorts incoming geometry by x.
///
/// "Step 2.a takes O(N) time, because a simple insertion sort is used
/// … The term containing N^{3/2} can be made linear by using bin-sort
/// instead of insertion-sort, but c₁ is so small that it has not been
/// necessary to do so." (§4.) Both are provided so the `ace-sorting`
/// experiment of `repro` can compare them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortStrategy {
    /// The paper's insertion sort.
    #[default]
    Insertion,
    /// Bucket sort on the x coordinate.
    Bin,
}

/// Extraction options.
///
/// # Examples
///
/// ```
/// use ace_core::{ExtractOptions, SortStrategy};
///
/// let opts = ExtractOptions::new()
///     .with_geometry()
///     .with_sort(SortStrategy::Bin);
/// assert!(opts.geometry_output);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtractOptions {
    /// Record the geometry constituting each net and device ("User
    /// options exist to force the extractor to output the geometry …
    /// Under normal operation this is suppressed", §3).
    pub geometry_output: bool,
    /// Sorting strategy for step 2.a.
    pub sort: SortStrategy,
    /// When set, collect boundary contacts against this window
    /// rectangle (used by the hierarchical extractor).
    pub window: Option<Rect>,
    /// Band-parallel extraction: `None` runs the classic sequential
    /// sweep (unless [`bands`](Self::bands) asks for banding),
    /// `Some(0)` picks one worker per host core, `Some(k)` uses `k`
    /// worker threads. Workers drain the bands through a
    /// work-stealing scheduler, so the band count may exceed the
    /// worker count (see [`bands`](Self::bands)).
    pub threads: Option<usize>,
    /// Number of horizontal bands to cut the chip into. `None` or
    /// `Some(0)` matches the worker count (one band per worker, the
    /// classic split); `Some(b)` with `b > threads` gives the
    /// work-stealing scheduler slack to balance skewed bands.
    pub bands: Option<usize>,
    /// Request an ERC lint pass over the extracted circuit. The
    /// extractor itself never runs lints (the rule engine lives above
    /// it, in `ace_lint`); this flag is honored by `ace_lint`'s
    /// `extract_*_linted` wrappers (which the `acelint` CLI calls),
    /// which fold the pass's `Lint` span and `LintsEmitted` counter
    /// back into the [`ExtractionReport`] they return.
    pub lints: bool,
}

impl ExtractOptions {
    /// Default options: no geometry output, insertion sort, no window.
    pub fn new() -> Self {
        ExtractOptions::default()
    }

    /// Enables net/device geometry recording.
    pub fn with_geometry(mut self) -> Self {
        self.geometry_output = true;
        self
    }

    /// Selects the step-2.a sorting strategy.
    pub fn with_sort(mut self, sort: SortStrategy) -> Self {
        self.sort = sort;
        self
    }

    /// Enables window-boundary collection (hierarchical extraction).
    pub fn with_window(mut self, window: Rect) -> Self {
        self.window = Some(window);
        self
    }

    /// Requests a band-parallel extraction on `threads` worker
    /// threads (0 = one per host core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Requests `bands` horizontal bands. When no worker count has
    /// been chosen yet this also sets `threads` to `bands`, keeping
    /// the historic 1:1 band-per-worker behavior; combine with
    /// [`with_threads`](Self::with_threads) to decouple the two (more
    /// bands than workers lets the work-stealing scheduler balance
    /// skew).
    pub fn with_bands(mut self, bands: usize) -> Self {
        self.bands = Some(bands);
        self.threads = self.threads.or(Some(bands));
        self
    }

    /// Requests an ERC lint pass after extraction (see
    /// [`ExtractOptions::lints`]).
    pub fn with_lints(mut self) -> Self {
        self.lints = true;
        self
    }
}

/// The extractor's work phases, for the §5 time-distribution
/// experiment ("40% for parsing, interpreting and sorting the CIF
/// file; 15% for entering new geometry …; 20% for computing devices
/// …; 10% for storage allocation, input/output, and initialization;
/// 15% miscellaneous").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Parsing, instantiating and sorting the CIF file (front-end
    /// work: everything spent inside the geometry feed).
    FrontEnd,
    /// Entering new geometry into lists and updating data structures.
    Insert,
    /// Computing devices, nets, and contacts.
    Devices,
    /// Storage allocation, output construction, initialization.
    Output,
}

impl Phase {
    /// All phases in display order.
    pub const ALL: [Phase; 4] = [
        Phase::FrontEnd,
        Phase::Insert,
        Phase::Devices,
        Phase::Output,
    ];

    /// Short label for tables.
    pub const fn label(self) -> &'static str {
        match self {
            Phase::FrontEnd => "parse/sort (front-end)",
            Phase::Insert => "enter geometry",
            Phase::Devices => "compute devices/nets",
            Phase::Output => "alloc/init/output",
        }
    }

    /// The probe span this phase is measured by.
    pub const fn span(self) -> Span {
        match self {
            Phase::FrontEnd => Span::FrontEnd,
            Phase::Insert => Span::Insert,
            Phase::Devices => Span::Devices,
            Phase::Output => Span::Output,
        }
    }

    /// The phase measured by `span`, if any.
    pub const fn from_span(span: Span) -> Option<Phase> {
        match span {
            Span::FrontEnd => Some(Phase::FrontEnd),
            Span::Insert => Some(Phase::Insert),
            Span::Devices => Some(Phase::Devices),
            Span::Output => Some(Phase::Output),
            _ => None,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Counters from the seam-stitching pass of the parallel extractor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StitchStats {
    /// Boundary contacts collected on all interior seams.
    pub seam_contacts: u64,
    /// Contact pairs with positive overlap examined across seams.
    pub pairs_matched: u64,
    /// Net equivalences established across seams.
    pub net_unions: u64,
    /// Channel-fragment pairs united into one device.
    pub device_merges: u64,
    /// Diffusion terminal contacts added to partial devices.
    pub terminal_contacts: u64,
    /// Partial devices finalized after merging.
    pub partials_completed: u64,
    /// Wall-clock time spent stitching.
    pub time: Duration,
}

/// Instrumentation gathered during one extraction.
#[derive(Debug, Clone, Default)]
pub struct ExtractionReport {
    /// Wall-clock time per phase (same order as [`Phase::ALL`]).
    ///
    /// For a parallel extraction these are summed over bands, so they
    /// measure total CPU work, not wall-clock time; `total_time` is
    /// the wall clock.
    pub phase_times: [Duration; 4],
    /// Total wall-clock time.
    pub total_time: Duration,
    /// Scanline stops made.
    pub scanline_stops: u64,
    /// Boxes received from the front-end (the paper's N).
    pub boxes: u64,
    /// High-water mark of the total active-list length.
    pub max_active: usize,
    /// Net union operations performed.
    pub net_unions: u64,
    /// Fragments created across all strips (work proxy for step 2.c).
    pub fragments: u64,
    /// Labels that did not land on any conducting geometry.
    pub unresolved_labels: u64,
    /// Devices whose channel touched more than two diffusion nets.
    pub multi_terminal_devices: u64,
    /// Worker threads used (0 for a sequential extraction). With the
    /// work-stealing scheduler this can be fewer than `bands`.
    pub threads: usize,
    /// Horizontal bands swept (0 for a sequential extraction).
    pub bands: usize,
    /// Bands run by a worker other than their chunk's owner (the
    /// work-stealing scheduler's activity; 0 when bands == threads
    /// and no skew arose, or on a 1-worker run).
    pub bands_stolen: u64,
    /// Total time workers spent finished while the slowest worker was
    /// still running (the imbalance stealing is there to shrink).
    pub steal_wait: Duration,
    /// Seam-stitching counters (parallel extraction only).
    pub stitch: StitchStats,
    /// Bands answered from the incremental cache (incremental
    /// extraction only).
    pub bands_reused: u64,
    /// Bands re-swept because their content hash changed
    /// (incremental extraction only).
    pub bands_reswept: u64,
    /// Estimated bytes held by the incremental band cache
    /// (incremental extraction only).
    pub cache_bytes: u64,
    /// Diagnostics emitted by the ERC lint pass (zero when no lint
    /// pass ran — see [`ExtractOptions::with_lints`]).
    pub lints_emitted: u64,
    /// Wall-clock time spent in the lint pass.
    pub lint_time: Duration,
    /// Violations emitted by the geometric DRC pass (zero when no
    /// DRC pass ran; `ace_drc::check_extraction` reports them).
    pub drc_violations: u64,
    /// Wall-clock time spent in the DRC pass.
    pub drc_time: Duration,
    /// Queued edits merged into this sweep beyond the first (service
    /// layer only — zero outside `aced`'s coalescing path).
    pub coalesced_edits: u64,
}

impl ExtractionReport {
    /// Time spent in `phase`.
    pub fn phase_time(&self, phase: Phase) -> Duration {
        let idx = Phase::ALL.iter().position(|p| *p == phase).expect("known");
        self.phase_times[idx]
    }

    /// Adds `d` to `phase`.
    pub(crate) fn add_phase_time(&mut self, phase: Phase, d: Duration) {
        let idx = Phase::ALL.iter().position(|p| *p == phase).expect("known");
        self.phase_times[idx] += d;
    }

    /// Percentage of total time spent in `phase` (0 when total is 0).
    pub fn phase_percent(&self, phase: Phase) -> f64 {
        let total = self.total_time.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            100.0 * self.phase_time(phase).as_secs_f64() / total
        }
    }

    /// Boxes processed per second of total time.
    pub fn boxes_per_second(&self) -> f64 {
        let total = self.total_time.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.boxes as f64 / total
        }
    }
}

impl fmt::Display for ExtractionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} boxes, {} stops, {} net unions, max active {}",
            self.boxes, self.scanline_stops, self.net_unions, self.max_active
        )?;
        for phase in Phase::ALL {
            writeln!(
                f,
                "  {:>5.1}%  {}",
                self.phase_percent(phase),
                phase.label()
            )?;
        }
        if self.threads > 1 {
            writeln!(
                f,
                "  {} threads over {} bands ({} stolen, wait {:?}), \
                 {} seam unions, {} device merges, stitch {:?}",
                self.threads,
                self.bands,
                self.bands_stolen,
                self.steal_wait,
                self.stitch.net_unions,
                self.stitch.device_merges,
                self.stitch.time
            )?;
        }
        if self.lints_emitted > 0 {
            writeln!(
                f,
                "  lint: {} diagnostics in {:?}",
                self.lints_emitted, self.lint_time
            )?;
        }
        if self.drc_violations > 0 {
            writeln!(
                f,
                "  drc: {} violations in {:?}",
                self.drc_violations, self.drc_time
            )?;
        }
        if self.bands_reused + self.bands_reswept > 0 {
            writeln!(
                f,
                "  incremental: {} bands reused, {} re-swept, cache ~{} KiB",
                self.bands_reused,
                self.bands_reswept,
                self.cache_bytes / 1024
            )?;
        }
        write!(f, "  total {:?}", self.total_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_builder() {
        let o = ExtractOptions::new();
        assert!(!o.geometry_output);
        assert_eq!(o.sort, SortStrategy::Insertion);
        assert_eq!(o.window, None);
        assert_eq!(o.threads, None);
        assert!(!o.lints);
        let o = o
            .with_geometry()
            .with_sort(SortStrategy::Bin)
            .with_window(Rect::new(0, 0, 10, 10))
            .with_threads(4)
            .with_lints();
        assert!(o.geometry_output);
        assert!(o.lints);
        assert_eq!(o.sort, SortStrategy::Bin);
        assert_eq!(o.window, Some(Rect::new(0, 0, 10, 10)));
        assert_eq!(o.threads, Some(4));
        // with_bands alone keeps the historic 1:1 behavior …
        let banded = ExtractOptions::new().with_bands(2);
        assert_eq!(banded.threads, Some(2));
        assert_eq!(banded.bands, Some(2));
        // … but never overrides an explicit worker count.
        let decoupled = ExtractOptions::new().with_threads(2).with_bands(8);
        assert_eq!(decoupled.threads, Some(2));
        assert_eq!(decoupled.bands, Some(8));
    }

    #[test]
    fn phases_map_onto_spans() {
        for phase in Phase::ALL {
            assert_eq!(Phase::from_span(phase.span()), Some(phase));
        }
        assert_eq!(Phase::from_span(Span::Stitch), None);
    }

    #[test]
    fn phase_accounting() {
        let mut r = ExtractionReport::default();
        r.add_phase_time(Phase::Insert, Duration::from_millis(25));
        r.add_phase_time(Phase::Insert, Duration::from_millis(25));
        r.total_time = Duration::from_millis(100);
        assert_eq!(r.phase_time(Phase::Insert), Duration::from_millis(50));
        assert!((r.phase_percent(Phase::Insert) - 50.0).abs() < 1e-9);
        assert_eq!(r.phase_percent(Phase::Output), 0.0);
    }

    #[test]
    fn rates_handle_zero_time() {
        let r = ExtractionReport::default();
        assert_eq!(r.boxes_per_second(), 0.0);
        assert_eq!(r.phase_percent(Phase::FrontEnd), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let r = ExtractionReport::default();
        assert!(r.to_string().contains("boxes"));
    }
}
