use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use ace_geom::{Coord, Orientation, Point, Transform};

use crate::database::{CellId, Library};
use crate::flatten::{FlatLabel, FlatLayout, LayerBox};
use crate::probe::{Counter, Lane, NullProbe, Probe};

/// Source of scan-ordered geometry for the back-end.
///
/// The back-end asks "what is the highest box top you have not given
/// me yet?" ([`GeometryFeed::peek_top`]) and then fetches "all
/// geometry whose top coincides with the scanline"
/// ([`GeometryFeed::pop_at`]) — exactly the paper's step 2.a.
///
/// Labels are surfaced through [`GeometryFeed::drain_new_labels`] as
/// the source discovers them. Both feeds discover every label before
/// the first [`GeometryFeed::peek_top`]: a `94` label must be visible
/// to the back-end no later than the scanline's first stop, or a
/// label above the geometry the sweep is currently processing could
/// be dropped (the sweep drops labels the scanline has passed) or
/// bound against the wrong strip, depending on expansion order.
pub trait GeometryFeed {
    /// Top edge of the highest unfetched box, or `None` when drained.
    fn peek_top(&mut self) -> Option<Coord>;

    /// Appends every box whose `y_max == y` to `out`. Call with the
    /// value just returned by [`GeometryFeed::peek_top`].
    fn pop_at(&mut self, y: Coord, out: &mut Vec<LayerBox>);

    /// Moves all newly discovered labels into `out`.
    fn drain_new_labels(&mut self, out: &mut Vec<FlatLabel>);

    /// Instrumentation counters.
    fn stats(&self) -> FeedStats;
}

/// Instrumentation for the front-end ablation (lazy vs eager).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeedStats {
    /// Boxes handed to the back-end.
    pub boxes_emitted: u64,
    /// Symbol instances expanded (lazy feed only).
    pub instances_expanded: u64,
    /// High-water mark of the pending queue. For the lazy feed that
    /// is run cursors plus unexpanded instances, bounded by
    /// placements, not boxes: 400 on the seed-101 riscb proxy, whose
    /// top cell alone holds 155,720 boxes. The eager feed reports its
    /// whole sorted box list.
    pub max_pending: usize,
}

enum PendingKind {
    /// A cursor into one placed cell's run: the boxes of
    /// `runs[run][next..]` remain, each translated by `at`.
    Run { run: usize, next: usize, at: Point },
    /// A placed instance the scanline has not reached yet.
    Instance(CellId, Transform),
}

struct Pending {
    y_top: Coord,
    kind: PendingKind,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on y_top; on ties, instances sort above run
        // cursors so they are expanded before the boxes at that level
        // are reported.
        let rank = |k: &PendingKind| match k {
            PendingKind::Instance(..) => 1u8,
            PendingKind::Run { .. } => 0,
        };
        self.y_top
            .cmp(&other.y_top)
            .then_with(|| rank(&self.kind).cmp(&rank(&other.kind)))
    }
}

/// The lazy front-end: yields boxes in descending-top order,
/// expanding a symbol instance only when the scanline reaches the top
/// of its bounding box.
///
/// "If there exists a CIF symbol which lies completely below the
/// scanline, the front-end does not have to expand that cell to
/// determine that all geometry inside it is below the scanline. In
/// this way the complete geometry of the chip is never instantiated
/// (so never sorted) at the same time." (paper §4.)
///
/// **A k-way merge of sorted runs.** A placed cell's own boxes come
/// from a *run*: the cell's boxes under the placement's orientation
/// (no translation), sorted once by descending top, then ascending
/// left edge. A run is built on the first placement of its (cell,
/// orientation) pair and shared by every later placement, so a cell
/// has at most eight runs and the feed holds O(library boxes), never
/// O(chip boxes). The heap holds one cursor per expanded placement
/// that still has boxes, plus the unexpanded instances; a stop emits
/// a cursor's prefix at the scanline by translation alone and
/// advances the cursor in place. Ordering a run by left edge within
/// each top hands the back-end each stop's boxes in near-ascending x,
/// which step 2.a's insertion sort rewards.
///
/// **Labels are the exception to laziness.** They used to be
/// released only when their cell was expanded, which made correct
/// binding depend on two distant invariants: cell bounding boxes
/// being extended to cover label positions, and the back-end
/// happening to settle the heap before each strip. A label inside a
/// not-yet-expanded instance could then be dropped or bound to the
/// wrong net depending on scanline order. Labels are sparse, so the
/// feed now collects all of them up front with a dedicated tree walk
/// that skips label-free subtrees — geometry stays lazy, labels
/// don't.
///
/// Construction does no work: the label walk and the root cell's
/// expansion (its run sort) run on the first [`GeometryFeed`] call,
/// so a caller that brackets those calls in a front-end span times
/// the whole front end.
///
/// # Examples
///
/// ```
/// use ace_layout::{GeometryFeed, LazyFeed, Library};
///
/// let lib = Library::from_cif_text(
///     "DS 1; L ND; B 10 10 0 0; DF; C 1 T 0 0; C 1 T 0 -100; E",
/// )?;
/// let mut feed = LazyFeed::new(&lib);
/// assert_eq!(feed.peek_top(), Some(5));
/// let mut out = Vec::new();
/// feed.pop_at(5, &mut out);
/// assert_eq!(out.len(), 1); // the lower instance is still unexpanded
/// assert_eq!(feed.peek_top(), Some(-95));
/// # Ok::<(), ace_layout::BuildLayoutError>(())
/// ```
pub struct LazyFeed<'a> {
    lib: &'a Library,
    /// The cell to expand on the first call into the feed; taken then.
    root: Option<CellId>,
    heap: BinaryHeap<Pending>,
    /// Every run built so far: one (cell, orientation) pair's own
    /// boxes, oriented but not translated, sorted by descending top
    /// and then ascending left edge.
    runs: Vec<Box<[LayerBox]>>,
    /// Index into `runs` per cell and orientation, once built.
    run_ids: Vec<[Option<usize>; 8]>,
    new_labels: Vec<FlatLabel>,
    stats: FeedStats,
    probe: &'a dyn Probe,
    lane: Lane,
}

impl<'a> LazyFeed<'a> {
    /// Creates a feed over the library's top cell.
    pub fn new(lib: &'a Library) -> Self {
        LazyFeed::over_cell(lib, lib.top())
    }

    /// Creates a feed over one specific cell.
    pub fn over_cell(lib: &'a Library, cell: CellId) -> Self {
        LazyFeed {
            lib,
            root: Some(cell),
            heap: BinaryHeap::new(),
            runs: Vec::new(),
            run_ids: vec![[None; 8]; lib.cells().len()],
            new_labels: Vec::new(),
            stats: FeedStats::default(),
            probe: &NullProbe,
            lane: Lane::MAIN,
        }
    }

    /// Collects every label and expands the root cell, on the first
    /// call into the feed only.
    fn start(&mut self) {
        if let Some(cell) = self.root.take() {
            let mut has_labels = vec![None; self.lib.cells().len()];
            self.collect_labels(cell, Transform::identity(), &mut has_labels);
            self.push_cell_contents(cell, Transform::identity());
        }
    }

    /// Whether `cell` or anything it instantiates carries a label,
    /// memoized per cell (the instance DAG can repeat cells).
    fn subtree_has_labels(&self, cell: CellId, memo: &mut [Option<bool>]) -> bool {
        if let Some(known) = memo[cell] {
            return known;
        }
        // Break instantiation cycles defensively (the library rejects
        // them at build time): a cell currently under evaluation
        // contributes nothing new.
        memo[cell] = Some(false);
        let c = self.lib.cell(cell);
        let has = !c.labels().is_empty()
            || c.instances()
                .iter()
                .any(|i| self.subtree_has_labels(i.cell, memo));
        memo[cell] = Some(has);
        has
    }

    /// Collects every label under `cell` into `new_labels` up front,
    /// pruning label-free subtrees (laziness is for geometry; labels
    /// must all be known before the sweep's first stop).
    fn collect_labels(&mut self, cell: CellId, t: Transform, memo: &mut [Option<bool>]) {
        let c = self.lib.cell(cell);
        for label in c.labels() {
            self.new_labels.push(FlatLabel {
                name: label.name.clone(),
                at: t.apply_point(label.at),
                layer: label.layer,
            });
        }
        for inst in c.instances() {
            if self.subtree_has_labels(inst.cell, memo) {
                self.collect_labels(inst.cell, inst.transform.then(t), memo);
            }
        }
    }

    /// Attaches a probe; expansion and emission counters are reported
    /// on `lane` from here on.
    pub fn with_probe(mut self, probe: &'a dyn Probe, lane: Lane) -> Self {
        self.probe = probe;
        self.lane = lane;
        probe.gauge(lane, Counter::PendingPeak, self.stats.max_pending as u64);
        self
    }

    /// The id of `cell`'s run under `orientation`, built and sorted
    /// on the pair's first placement.
    fn run_id(&mut self, cell: CellId, orientation: Orientation) -> usize {
        if let Some(id) = self.run_ids[cell][orientation as usize] {
            return id;
        }
        let oriented = Transform::from_orientation(orientation);
        let mut run: Vec<LayerBox> = self
            .lib
            .cell(cell)
            .boxes()
            .iter()
            .map(|&(layer, r)| LayerBox {
                layer,
                rect: oriented.apply_rect(&r),
            })
            .collect();
        run.sort_unstable_by_key(|b| (Reverse(b.rect.y_max), b.rect.x_min));
        let id = self.runs.len();
        self.runs.push(run.into_boxed_slice());
        self.run_ids[cell][orientation as usize] = Some(id);
        id
    }

    fn push_cell_contents(&mut self, cell: CellId, t: Transform) {
        let c = self.lib.cell(cell);
        if !c.boxes().is_empty() {
            let run = self.run_id(cell, t.orientation());
            let at = t.translation();
            self.heap.push(Pending {
                y_top: self.runs[run][0].rect.y_max + at.y,
                kind: PendingKind::Run { run, next: 0, at },
            });
        }
        // Labels were already collected up front by `collect_labels`;
        // expansion pushes geometry and child instances only.
        for inst in c.instances() {
            let placed = inst.transform.then(t);
            if let Some(bb) = self.lib.cell(inst.cell).bounding_box() {
                self.heap.push(Pending {
                    y_top: placed.apply_rect(&bb).y_max,
                    kind: PendingKind::Instance(inst.cell, placed),
                });
            }
        }
        if self.heap.len() > self.stats.max_pending {
            self.stats.max_pending = self.heap.len();
            self.probe
                .gauge(self.lane, Counter::PendingPeak, self.heap.len() as u64);
        }
    }

    /// Expands instances at the heap top until it is a run cursor (or
    /// empty). With `bound = Some(y)`, instances whose bounding-box
    /// top is below `y` are left unexpanded — the scanline has not
    /// reached them yet.
    fn settle(&mut self, bound: Option<Coord>) {
        while let Some(top) = self.heap.peek() {
            match top.kind {
                PendingKind::Run { .. } => return,
                PendingKind::Instance(cell, t) => {
                    if bound.is_some_and(|y| top.y_top < y) {
                        return;
                    }
                    self.heap.pop();
                    self.stats.instances_expanded += 1;
                    self.probe.add(self.lane, Counter::InstancesExpanded, 1);
                    self.push_cell_contents(cell, t);
                }
            }
        }
    }
}

impl GeometryFeed for LazyFeed<'_> {
    fn peek_top(&mut self) -> Option<Coord> {
        self.start();
        self.settle(None);
        self.heap.peek().map(|p| p.y_top)
    }

    fn pop_at(&mut self, y: Coord, out: &mut Vec<LayerBox>) {
        self.start();
        // Settling to `y` expands every instance that reaches it, so
        // the entries at `y` are all run cursors from here on: a
        // cursor only ever moves down.
        self.settle(Some(y));
        let before = out.len();
        while let Some(mut top) = self.heap.peek_mut() {
            let PendingKind::Run { run, next, at } = top.kind else {
                break;
            };
            if top.y_top != y {
                break;
            }
            let run_boxes = &self.runs[run];
            let local_top = y - at.y;
            let emitted = out.len();
            out.extend(
                run_boxes[next..]
                    .iter()
                    .take_while(|b| b.rect.y_max == local_top)
                    .map(|b| LayerBox {
                        layer: b.layer,
                        rect: b.rect.translate(at),
                    }),
            );
            let next = next + (out.len() - emitted);
            match run_boxes.get(next) {
                // Dropping the advanced cursor sifts it down once.
                Some(b) => {
                    top.y_top = b.rect.y_max + at.y;
                    top.kind = PendingKind::Run { run, next, at };
                }
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        let popped = (out.len() - before) as u64;
        if popped > 0 {
            self.stats.boxes_emitted += popped;
            self.probe.add(self.lane, Counter::FeedBoxes, popped);
        }
    }

    fn drain_new_labels(&mut self, out: &mut Vec<FlatLabel>) {
        self.start();
        out.append(&mut self.new_labels);
    }

    fn stats(&self) -> FeedStats {
        self.stats
    }
}

/// The eager front-end: flattens the whole chip, sorts once, feeds
/// from the sorted list. Baseline for the lazy-vs-eager ablation.
pub struct EagerFeed<'p> {
    boxes: Vec<LayerBox>, // sorted by descending y_max
    next: usize,
    labels: Vec<FlatLabel>,
    stats: FeedStats,
    probe: &'p dyn Probe,
    lane: Lane,
}

impl<'p> EagerFeed<'p> {
    /// Flattens and sorts a library's top cell.
    pub fn new(lib: &Library) -> Self {
        EagerFeed::from_flat(FlatLayout::from_library(lib))
    }

    /// Builds a feed from an existing flat layout.
    pub fn from_flat(mut flat: FlatLayout) -> Self {
        flat.sort_for_scan();
        let boxes: Vec<LayerBox> = flat.boxes().to_vec();
        let labels = flat.labels().to_vec();
        let max_pending = boxes.len();
        EagerFeed {
            boxes,
            next: 0,
            labels,
            stats: FeedStats {
                boxes_emitted: 0,
                instances_expanded: 0,
                max_pending,
            },
            probe: &NullProbe,
            lane: Lane::MAIN,
        }
    }

    /// Attaches a probe; emission counters are reported on `lane`.
    pub fn with_probe(mut self, probe: &'p dyn Probe, lane: Lane) -> Self {
        self.probe = probe;
        self.lane = lane;
        probe.gauge(lane, Counter::PendingPeak, self.stats.max_pending as u64);
        self
    }
}

impl GeometryFeed for EagerFeed<'_> {
    fn peek_top(&mut self) -> Option<Coord> {
        self.boxes.get(self.next).map(|b| b.rect.y_max)
    }

    fn pop_at(&mut self, y: Coord, out: &mut Vec<LayerBox>) {
        let mut popped = 0u64;
        while let Some(b) = self.boxes.get(self.next) {
            if b.rect.y_max != y {
                break;
            }
            out.push(*b);
            self.next += 1;
            self.stats.boxes_emitted += 1;
            popped += 1;
        }
        if popped > 0 {
            self.probe.add(self.lane, Counter::FeedBoxes, popped);
        }
    }

    fn drain_new_labels(&mut self, out: &mut Vec<FlatLabel>) {
        out.append(&mut self.labels);
    }

    fn stats(&self) -> FeedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_geom::Layer;

    fn drain_all(feed: &mut impl GeometryFeed) -> Vec<LayerBox> {
        let mut all = Vec::new();
        while let Some(y) = feed.peek_top() {
            let before = all.len();
            feed.pop_at(y, &mut all);
            assert!(all.len() > before, "pop_at made no progress at y={y}");
        }
        all
    }

    const SRC: &str = "DS 1; 9 leaf; L ND; B 100 100 0 0; L NP; B 20 300 0 0; DF;
         DS 2; C 1 T 0 0; C 1 T 500 -200; DF;
         C 2 T 0 0; C 2 T 2000 1000; L NM; B 5000 200 1000 800; E";

    #[test]
    fn lazy_and_eager_agree() {
        let lib = Library::from_cif_text(SRC).unwrap();
        let mut lazy = LazyFeed::new(&lib);
        let mut eager = EagerFeed::new(&lib);
        let mut a = drain_all(&mut lazy);
        let mut b = drain_all(&mut eager);
        let key = |x: &LayerBox| (x.layer, x.rect);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
        assert_eq!(a.len() as u64, lib.instantiated_box_count());
    }

    #[test]
    fn feed_is_monotonically_descending() {
        let lib = Library::from_cif_text(SRC).unwrap();
        let mut feed = LazyFeed::new(&lib);
        let mut last: Option<Coord> = None;
        while let Some(y) = feed.peek_top() {
            if let Some(prev) = last {
                assert!(y < prev, "tops must strictly descend: {y} after {prev}");
            }
            let mut out = Vec::new();
            feed.pop_at(y, &mut out);
            assert!(out.iter().all(|b| b.rect.y_max == y));
            last = Some(y);
        }
    }

    #[test]
    fn lazy_feed_does_not_expand_cells_below_scanline() {
        // Two instances: one at the top, one far below. After popping
        // the top one's geometry, the second must still be pending.
        let lib =
            Library::from_cif_text("DS 1; L ND; B 10 10 0 0; DF; C 1 T 0 0; C 1 T 0 -10000; E")
                .unwrap();
        let mut feed = LazyFeed::new(&lib);
        let y = feed.peek_top().unwrap();
        let mut out = Vec::new();
        feed.pop_at(y, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(feed.stats().instances_expanded, 1);
        assert_eq!(feed.peek_top(), Some(-9995));
        assert_eq!(feed.stats().instances_expanded, 2);
    }

    #[test]
    fn instance_labels_are_available_before_any_expansion() {
        // Regression: labels inside not-yet-expanded instances used
        // to surface only on expansion, so a label's visibility
        // depended on scanline order. All labels must be available
        // up front, before the first peek, with instance transforms
        // applied — while the geometry stays unexpanded.
        let lib = Library::from_cif_text(
            "DS 1; L ND; B 10 10 0 0; 94 sig 0 0; DF; C 1 T 0 -500; 94 top 5 5; E",
        )
        .unwrap();
        let mut feed = LazyFeed::new(&lib);
        let mut labels = Vec::new();
        feed.drain_new_labels(&mut labels);
        assert_eq!(labels.len(), 2, "{labels:?}");
        labels.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(labels[0].name, "sig");
        assert_eq!(labels[0].at, ace_geom::Point::new(0, -500));
        assert_eq!(labels[1].name, "top");
        // Label collection must not have expanded the instance.
        assert_eq!(feed.stats().instances_expanded, 0);
        let y = feed.peek_top().unwrap(); // forces expansion
        assert_eq!(y, -495);
        feed.drain_new_labels(&mut labels);
        assert_eq!(labels.len(), 2, "expansion must not re-emit labels");
    }

    #[test]
    fn construction_defers_the_root_expansion_to_the_first_call() {
        let lib = Library::from_cif_text(
            "DS 1; L ND; B 10 10 0 0; 94 sig 0 0; DF; C 1 T 0 -500; 94 top 5 5; L NM; B 10 10 0 0; E",
        )
        .unwrap();
        let mut feed = LazyFeed::new(&lib);
        assert_eq!(feed.stats(), FeedStats::default());
        assert!(feed.heap.is_empty() && feed.runs.is_empty() && feed.new_labels.is_empty());
        let mut labels = Vec::new();
        feed.drain_new_labels(&mut labels);
        assert_eq!(labels.len(), 2, "{labels:?}");
        assert_eq!(
            feed.stats().max_pending,
            2,
            "the root's run plus its instance"
        );
        assert_eq!(feed.stats().instances_expanded, 0);
    }

    #[test]
    fn label_collection_prunes_label_free_subtrees_and_transforms() {
        // Cell 1 has no labels anywhere below it; cell 2's label is
        // mirrored in y by the call transform. Nested: cell 3 wraps
        // cell 2, composing transforms.
        let lib = Library::from_cif_text(
            "DS 1; L ND; B 10 10 0 0; DF;
             DS 2; L NM; B 10 10 0 0; 94 deep 3 4; DF;
             DS 3; C 2 M Y T 0 100; DF;
             C 1 T 0 0; C 3 T 1000 0; E",
        )
        .unwrap();
        let mut feed = LazyFeed::new(&lib);
        let mut labels = Vec::new();
        feed.drain_new_labels(&mut labels);
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].name, "deep");
        // M Y flips y: (3, 4) → (3, -4); then T 0 100 → (3, 96);
        // then top-level T 1000 0 → (1003, 96).
        assert_eq!(labels[0].at, ace_geom::Point::new(1003, 96));
        assert_eq!(feed.stats().instances_expanded, 0);
    }

    #[test]
    fn pending_peak_is_bounded_by_placements_not_boxes() {
        // A top cell with 10,000 own boxes and four placed leaves: the
        // queue holds one cursor per expanded placement plus the
        // unexpanded instances, never one entry per box.
        let mut src = String::from("DS 1; L NP; B 20 20 0 0; L ND; B 40 10 0 0; DF; L NM;");
        for i in 0..10_000 {
            src.push_str(&format!(" B 20 20 {} {};", (i % 100) * 40, (i / 100) * 40));
        }
        src.push_str(" C 1 T 0 -100; C 1 T 2000 -100; C 1 R 0 1 T 0 5000; C 1 M X T 500 900; E");
        let lib = Library::from_cif_text(&src).unwrap();
        let mut feed = LazyFeed::new(&lib);
        let n = drain_all(&mut feed).len() as u64;
        assert_eq!(n, 10_008);
        assert_eq!(feed.stats().boxes_emitted, lib.instantiated_box_count());
        assert_eq!(feed.stats().instances_expanded, 4);
        assert!(
            feed.stats().max_pending < 16,
            "pending peak {} grew with the box count",
            feed.stats().max_pending
        );
    }

    #[test]
    fn eager_feed_counts_boxes() {
        let lib = Library::from_cif_text(SRC).unwrap();
        let mut feed = EagerFeed::new(&lib);
        let n = drain_all(&mut feed).len() as u64;
        assert_eq!(feed.stats().boxes_emitted, n);
        assert_eq!(feed.stats().max_pending as u64, n);
    }

    #[test]
    fn layers_are_preserved() {
        let lib = Library::from_cif_text(SRC).unwrap();
        let mut feed = LazyFeed::new(&lib);
        let all = drain_all(&mut feed);
        assert!(all.iter().any(|b| b.layer == Layer::Diffusion));
        assert!(all.iter().any(|b| b.layer == Layer::Poly));
        assert!(all.iter().any(|b| b.layer == Layer::Metal));
    }

    #[test]
    fn empty_library_feeds_nothing() {
        let lib = Library::from_cif_text("E").unwrap();
        let mut feed = LazyFeed::new(&lib);
        assert_eq!(feed.peek_top(), None);
        let mut eager = EagerFeed::new(&lib);
        assert_eq!(eager.peek_top(), None);
    }
}
