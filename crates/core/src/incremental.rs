//! Incremental re-extraction: a per-band sweep cache with dirty-band
//! invalidation.
//!
//! Editing a chip rarely touches more than a sliver of it, yet a
//! classic extractor re-sweeps everything. [`IncrementalExtractor`]
//! reuses the band-parallel machinery (`parallel.rs`) to make
//! re-extraction proportional to the *edit*, not the chip: the layout
//! is split into horizontal bands along seam lines fixed at
//! construction, each band's sweep result is cached, and after an
//! edit only the bands whose content changed are swept again. The
//! seam stitch then reassembles the full circuit from cached and
//! fresh band results alike.
//!
//! # Cache keying
//!
//! Each band is keyed by a content hash of its clipped slice: the
//! sorted multiset of `(layer, rect)` boxes plus the sorted multiset
//! of `(name, position, layer)` labels. Hashing the *content* rather
//! than tracking which edits landed where makes invalidation
//! self-correcting — a box moved into a band, out of it, or across
//! it changes the affected slices' hashes and nothing else, and an
//! edit that cancels out (move a box and move it back) costs no
//! re-sweep at all.
//!
//! # Invalidation rules
//!
//! * Seam lines are chosen once, from the seed layout
//!   ([`ace_layout::band_cuts`]), and never move. Stable cuts are
//!   what make a cached band reusable: its slice is a pure function
//!   of the layout content between two fixed y lines.
//! * Band windows use fixed sentinel outer bounds (±2⁴⁰) instead of
//!   the current bounding box, so a band's extraction does not depend
//!   on geometry outside it even indirectly.
//! * A band is re-swept iff its content hash differs from the cached
//!   one. Geometry edits dirty exactly the bands whose clipped slice
//!   they change (a box straddling a seam dirties both neighbours).
//! * The clipped band slices are themselves maintained
//!   incrementally: [`apply`](IncrementalExtractor::apply) routes
//!   each diff entry into the slices it touches (the same clipping
//!   [`partition_bands`](ace_layout::partition_bands) uses) and only
//!   touched bands are re-hashed — so an edit/re-extract cycle costs
//!   work proportional to the edit and its dirty bands, never a
//!   whole-chip re-partition.
//! * The seam stitch re-runs on every extraction — it is cheap
//!   (linear in nets and seam contacts, no interval algebra) and
//!   consuming both cached and fresh band results through it is what
//!   guarantees the output equals a from-scratch extraction. Labels
//!   sitting exactly on a seam are resolved by the stitcher, so
//!   seam-label edits are picked up without dirtying any band.
//!
//! Layouts too small to band (no interior cut) degrade to a
//! whole-layout memo: one cache slot keyed by the full content hash.
//!
//! # Examples
//!
//! ```
//! use ace_core::{CircuitExtractor, IncrementalExtractor};
//! use ace_geom::{Layer, Rect};
//! use ace_layout::{FlatLayout, LayoutDiff, Library};
//!
//! let lib = Library::from_cif_text("
//!     L ND; B 400 1600 0 0;
//!     L NP; B 1600 400 0 0;
//!     E
//! ")?;
//! let flat = FlatLayout::from_library(&lib);
//! let mut inc = IncrementalExtractor::new(flat, 2);
//!
//! // First extraction sweeps everything and fills the cache.
//! let before = inc.extract("chip")?;
//! assert_eq!(before.netlist.device_count(), 1);
//!
//! // Widen the poly gate; only the touched bands re-sweep.
//! let mut edit = LayoutDiff::new();
//! edit.move_box(
//!     Layer::Poly,
//!     Rect::new(-800, -200, 800, 200),
//!     Rect::new(-800, -400, 800, 400),
//! );
//! inc.apply(&edit)?;
//! let after = inc.extract("chip")?;
//! assert_eq!(after.netlist.devices()[0].length, 800);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use ace_geom::{Coord, Layer, Point, Rect};
use ace_layout::{
    band_cuts, partition_bands, route_box, route_label, DiffError, EagerFeed, FlatLabel,
    FlatLayout, LayerBox, LayoutDiff,
};

use crate::backend::CircuitExtractor;
use crate::extract::{ExtractError, Extraction};
use crate::parallel::{stitch, sweep_bands};
use crate::probe::{Counter, CounterProbe, Lane, Probe, Span};
use crate::report::ExtractOptions;
use crate::sweep::Extractor;

/// Outer window bound for the bottom and top bands: far beyond any
/// coordinate a real layout reaches, so band windows are independent
/// of the current bounding box and each band's extraction is a pure
/// function of its content slice. λ is 250 database units, so 2⁴⁰
/// units is ~4·10⁹ λ — geometry out there would silently touch the
/// sentinel edge, but no fractured CIF design comes within orders of
/// magnitude of it.
const OUTER: Coord = 1 << 40;

/// One cached band: the content hash its sweep was computed from,
/// the window-mode extraction the stitcher consumes, and the
/// extraction's estimated heap footprint (computed once at insert).
struct BandSlot {
    hash: u64,
    bytes: u64,
    result: Extraction,
}

/// A re-extraction session over an evolving layout.
///
/// Create it from the seed layout, [`extract`](CircuitExtractor::extract)
/// once (sweeping every band), then alternate
/// [`apply`](Self::apply) / extract: each extraction re-sweeps only
/// the bands whose content hash changed and re-stitches. The output
/// is always the same circuit a from-scratch extraction of the
/// current layout would produce.
pub struct IncrementalExtractor {
    flat: FlatLayout,
    options: ExtractOptions,
    /// Interior seam lines, fixed at construction.
    cuts: Vec<Coord>,
    /// Persistent clipped per-band layouts (empty when unbanded).
    /// Maintained in place by [`apply`](Self::apply) so an extraction
    /// never re-partitions the whole chip.
    bands: Vec<FlatLayout>,
    /// Labels sitting exactly on a seam, kept aside for the stitcher.
    seam_labels: Vec<FlatLabel>,
    /// Bands an edit has touched since their last hash check.
    dirty: Vec<bool>,
    /// One slot per band (`cuts.len() + 1`, or 1 when unbanded);
    /// `None` until the band's first sweep.
    cache: Vec<Option<BandSlot>>,
    /// Band indices re-swept by the most recent extraction.
    last_reswept: Vec<usize>,
}

impl IncrementalExtractor {
    /// A session over `flat`, banded for `bands` workers. Seam lines
    /// are picked from `flat`'s box edges once, here; later edits
    /// never move them (see the module docs for why).
    pub fn new(flat: FlatLayout, bands: usize) -> Self {
        let cuts = band_cuts(&flat, bands);
        let slots = cuts.len() + 1;
        let (bands, seam_labels) = if cuts.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let p = partition_bands(&flat, &cuts);
            (p.bands, p.seam_labels)
        };
        IncrementalExtractor {
            flat,
            options: ExtractOptions::new(),
            cuts,
            bands,
            seam_labels,
            dirty: vec![true; slots],
            cache: (0..slots).map(|_| None).collect(),
            last_reswept: Vec::new(),
        }
    }

    /// Replaces the options. Requesting `threads` or `window` here is
    /// rejected at extraction time: incremental extraction manages
    /// its own banding, and window mode cannot be banded.
    pub fn with_options(mut self, options: ExtractOptions) -> Self {
        self.options = options;
        self
    }

    /// The current layout.
    pub fn layout(&self) -> &FlatLayout {
        &self.flat
    }

    /// The fixed interior seam lines.
    pub fn cuts(&self) -> &[Coord] {
        &self.cuts
    }

    /// Band indices re-swept by the most recent extraction (empty
    /// before the first, or when every band was answered from cache).
    pub fn last_reswept(&self) -> &[usize] {
        &self.last_reswept
    }

    /// Estimated bytes held by the band cache.
    pub fn cache_bytes(&self) -> u64 {
        self.cache.iter().flatten().map(|slot| slot.bytes).sum()
    }

    /// Drops every cached band sweep, keeping the layout, the seam
    /// lines, and the persistent band slices. The next extraction
    /// re-sweeps everything (and refills the cache); the one after
    /// that is warm again.
    ///
    /// This is the reclaim hook for a memory-budget evictor: a
    /// long-lived server holding many sessions can shed a cold
    /// session's cache (its dominant footprint) without discarding
    /// the session itself.
    pub fn evict_cache(&mut self) {
        for slot in &mut self.cache {
            *slot = None;
        }
        self.dirty.iter_mut().for_each(|d| *d = true);
    }

    /// Applies an edit to the retained layout, routing each entry
    /// into the persistent band slices it touches and marking those
    /// bands dirty — the next extraction re-hashes only dirty bands
    /// and re-sweeps the ones whose content actually changed. Cost is
    /// proportional to the diff, not the chip.
    ///
    /// # Errors
    ///
    /// [`DiffError`] when a removal names a box or label the layout
    /// does not contain; the layout is then partially patched exactly
    /// as [`LayoutDiff::apply_to`] left it, and the band slices are
    /// rebuilt from it so the cache stays coherent with whatever
    /// state resulted.
    pub fn apply(&mut self, diff: &LayoutDiff) -> Result<(), DiffError> {
        let result = diff.apply_to(&mut self.flat);
        if self.cuts.is_empty() {
            // Unbanded: the whole-layout memo hash covers everything.
            return result;
        }
        if result.is_err() || !self.route_diff(diff) {
            self.rebuild_bands();
        }
        result
    }

    /// Routes a successfully-applied diff into the band slices,
    /// mirroring [`partition_bands`]'s clipping exactly. Returns
    /// `false` if a removal did not line up with the slices (they
    /// then need a rebuild — only reachable if the slices somehow
    /// drifted from the flat layout).
    fn route_diff(&mut self, diff: &LayoutDiff) -> bool {
        let cuts = &self.cuts;
        let bands = &mut self.bands;
        let dirty = &mut self.dirty;
        let n = bands.len();

        let mut removed: Vec<Vec<LayerBox>> = vec![Vec::new(); n];
        for b in &diff.boxes_removed {
            route_box(cuts, b.rect, |band, clipped| {
                removed[band].push(LayerBox {
                    layer: b.layer,
                    rect: clipped,
                });
            });
        }
        let mut removed_labels: Vec<Vec<FlatLabel>> = vec![Vec::new(); n];
        let mut seam_removed: Vec<FlatLabel> = Vec::new();
        for l in &diff.labels_removed {
            match route_label(cuts, l.at.y) {
                None => seam_removed.push(l.clone()),
                Some(band) => removed_labels[band].push(l.clone()),
            }
        }
        for i in 0..n {
            if !removed[i].is_empty() {
                dirty[i] = true;
                if bands[i].remove_boxes_bulk(&removed[i]).is_some() {
                    return false;
                }
            }
            if !removed_labels[i].is_empty() {
                dirty[i] = true;
                if bands[i].remove_labels_bulk(&removed_labels[i]).is_some() {
                    return false;
                }
            }
        }
        for l in &seam_removed {
            let Some(at) = self.seam_labels.iter().position(|s| s == l) else {
                return false;
            };
            self.seam_labels.swap_remove(at);
        }

        for b in &diff.boxes_added {
            route_box(cuts, b.rect, |band, clipped| {
                bands[band].push_box(b.layer, clipped);
                dirty[band] = true;
            });
        }
        for l in &diff.labels_added {
            match route_label(cuts, l.at.y) {
                // Seam labels live outside every band; the stitch
                // (re-run each extraction) picks the change up.
                None => self.seam_labels.push(l.clone()),
                Some(band) => {
                    bands[band].push_label(l.name.clone(), l.at, l.layer);
                    dirty[band] = true;
                }
            }
        }
        true
    }

    /// Re-derives the band slices from the flat layout and marks
    /// every band dirty — the recovery path when routing could not
    /// patch them incrementally.
    fn rebuild_bands(&mut self) {
        let p = partition_bands(&self.flat, &self.cuts);
        self.bands = p.bands;
        self.seam_labels = p.seam_labels;
        self.dirty.iter_mut().for_each(|d| *d = true);
    }

    fn windows(&self) -> Vec<Rect> {
        let n = self.cuts.len() + 1;
        (0..n)
            .map(|i| {
                let lo = if i == 0 { -OUTER } else { self.cuts[i - 1] };
                let hi = if i == n - 1 { OUTER } else { self.cuts[i] };
                Rect::new(-OUTER, lo, OUTER, hi)
            })
            .collect()
    }

    /// The whole-layout memo path for layouts with no interior cut.
    fn extract_unbanded(
        &mut self,
        name: &str,
        counters: &CounterProbe,
        probe: &dyn Probe,
    ) -> Extraction {
        let tee = (counters, probe);
        let p: &dyn Probe = &tee;
        let hash = flat_hash(&self.flat);

        p.enter(Lane::MAIN, Span::Extract);
        let reused = matches!(&self.cache[0], Some(slot) if slot.hash == hash);
        if reused {
            self.last_reswept.clear();
            p.add(Lane::MAIN, Counter::BandsReused, 1);
        } else {
            let mut feed = EagerFeed::from_flat(self.flat.clone()).with_probe(p, Lane::MAIN);
            let result = Extractor::with_probe(self.options, p).run(&mut feed, name);
            self.cache[0] = Some(BandSlot {
                hash,
                bytes: extraction_bytes(&result),
                result,
            });
            self.last_reswept = vec![0];
            p.add(Lane::MAIN, Counter::BandsReswept, 1);
        }
        p.gauge(Lane::MAIN, Counter::CacheBytes, self.cache_bytes());
        p.exit(Lane::MAIN, Span::Extract);

        let slot = self.cache[0].as_ref().expect("just filled");
        let mut netlist = slot.result.netlist.clone();
        netlist.name = name.to_string();
        let mut report = counters.report();
        report.threads = 1;
        report.bands = 1;
        Extraction {
            netlist,
            report,
            window: None,
        }
    }
}

impl CircuitExtractor for IncrementalExtractor {
    fn backend(&self) -> &'static str {
        "ace-incremental"
    }

    fn extract_probed(
        &mut self,
        name: &str,
        probe: &dyn Probe,
    ) -> Result<Extraction, ExtractError> {
        if self.options.threads.is_some() || self.options.bands.is_some() {
            return Err(ExtractError::Options(
                "incremental extraction manages its own banding (threads/bands conflicts)",
            ));
        }
        if self.options.window.is_some() {
            return Err(ExtractError::Options(
                "window-mode extraction cannot be incremental (window conflicts)",
            ));
        }

        let counters = CounterProbe::new();
        if self.cuts.is_empty() {
            return Ok(self.extract_unbanded(name, &counters, probe));
        }
        let tee = (&counters, probe);
        let p: &dyn Probe = &tee;

        p.enter(Lane::MAIN, Span::Extract);
        let n = self.bands.len();
        let windows = self.windows();

        // Re-hash only bands an edit touched (or that were never
        // swept); a clean band reuses its cache without even hashing.
        // A dirty band whose hash still matches — the edit cancelled
        // out — is reused too.
        let mut resweep: Vec<(usize, u64)> = Vec::new();
        for i in 0..n {
            if !self.dirty[i] && self.cache[i].is_some() {
                continue;
            }
            let hash = flat_hash(&self.bands[i]);
            if !matches!(&self.cache[i], Some(slot) if slot.hash == hash) {
                resweep.push((i, hash));
            }
        }
        self.dirty.iter_mut().for_each(|d| *d = false);
        p.add(Lane::MAIN, Counter::BandsReused, (n - resweep.len()) as u64);
        p.add(Lane::MAIN, Counter::BandsReswept, resweep.len() as u64);

        // Re-sweep the dirty bands through the work-stealing
        // scheduler, exactly like the band-parallel driver: window
        // mode along the fixed seams, one lane per band so traces
        // show which bands ran, and one worker per host core (not
        // per dirty band) draining the jobs. The options request no
        // banding (checked above), so they pass to the bands as is.
        let (fresh, workers) = sweep_bands(
            resweep.iter().map(|&(i, _)| (i, self.bands[i].clone())),
            &windows,
            name,
            self.options,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            p,
        );
        for (&(i, hash), result) in resweep.iter().zip(fresh) {
            self.cache[i] = Some(BandSlot {
                hash,
                bytes: extraction_bytes(&result),
                result,
            });
        }
        self.last_reswept = resweep.into_iter().map(|(i, _)| i).collect();
        p.gauge(Lane::MAIN, Counter::CacheBytes, self.cache_bytes());

        // Stitch cached and fresh band results alike into the full
        // circuit (same code path as the band-parallel extractor).
        let refs: Vec<&Extraction> = self
            .cache
            .iter()
            .map(|slot| &slot.as_ref().expect("every band cached").result)
            .collect();
        let netlist = stitch(&refs, &self.cuts, &self.seam_labels, name, self.options, p);
        p.exit(Lane::MAIN, Span::Extract);

        let mut report = counters.report();
        report.threads = workers.max(1);
        report.bands = n;

        Ok(Extraction {
            netlist,
            report,
            window: None,
        })
    }
}

/// Content hash of one flat layout (a band slice or, unbanded, the
/// whole chip): sorted box and label multisets with domain
/// separators, so box/label boundaries cannot alias.
fn flat_hash(flat: &FlatLayout) -> u64 {
    let mut boxes: Vec<(Layer, Rect)> = flat.boxes().iter().map(|b| (b.layer, b.rect)).collect();
    boxes.sort_unstable();
    let mut labels: Vec<(&str, Point, Option<Layer>)> = flat
        .labels()
        .iter()
        .map(|l| (l.name.as_str(), l.at, l.layer))
        .collect();
    labels.sort_unstable();

    let mut h = DefaultHasher::new();
    0xAAu8.hash(&mut h);
    boxes.hash(&mut h);
    0xABu8.hash(&mut h);
    labels.hash(&mut h);
    h.finish()
}

/// Rough heap footprint of one cached band extraction. An estimate
/// for the cache-bytes gauge, not an allocator-exact measure: devices
/// and rects by `size_of`, nets by name bytes plus a fixed per-record
/// overhead.
fn extraction_bytes(e: &Extraction) -> u64 {
    use std::mem::size_of;
    let mut bytes = size_of::<Extraction>();
    for d in e.netlist.devices() {
        bytes += size_of::<ace_wirelist::Device>();
        bytes += d.channel_geometry.len() * size_of::<Rect>();
    }
    for (_, net) in e.netlist.nets() {
        bytes += 64; // per-net record overhead
        bytes += net
            .names
            .iter()
            .map(|s| s.len() + size_of::<String>())
            .sum::<usize>();
        bytes += net.geometry.len() * (size_of::<Layer>() + size_of::<Rect>());
    }
    if let Some(w) = &e.window {
        bytes += w.contacts.len() * size_of::<crate::window::BoundaryContact>();
        bytes += w.device_details.len() * 96;
    }
    bytes as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_flat;
    use ace_wirelist::compare::same_circuit;

    /// A transistor chain tall enough to band: one diffusion column
    /// crossed by three poly gates at different heights.
    fn chip() -> FlatLayout {
        let lib = ace_layout::Library::from_cif_text(
            "
            L ND; B 400 6000 0 3000;
            L NP; B 1600 400 0 1000;
            L NP; B 1600 400 0 3000;
            L NP; B 1600 400 0 5000;
            94 gnd 0 100 ND;
            94 vdd 0 5900 ND;
            E
            ",
        )
        .expect("valid CIF");
        FlatLayout::from_library(&lib)
    }

    /// Three disjoint metal wires, one per band, with cuts pinned at
    /// y = 1000 and y = 2000 by construction.
    fn three_wires() -> FlatLayout {
        let mut flat = FlatLayout::new();
        flat.push_box(Layer::Metal, Rect::new(0, 0, 400, 400));
        flat.push_box(Layer::Metal, Rect::new(0, 1000, 400, 1400));
        flat.push_box(Layer::Metal, Rect::new(0, 2000, 400, 2400));
        flat.push_label("a", Point::new(200, 200), Some(Layer::Metal));
        flat.push_label("b", Point::new(200, 1200), Some(Layer::Metal));
        flat.push_label("c", Point::new(200, 2200), Some(Layer::Metal));
        flat
    }

    fn assert_matches_full(inc: &mut IncrementalExtractor) {
        let full = extract_flat(inc.layout().clone(), "full", ExtractOptions::new())
            .expect("full extraction");
        let got = inc.extract("full").expect("incremental extraction");
        same_circuit(&got.netlist, &full.netlist).expect("incremental == full");
    }

    #[test]
    fn first_extraction_sweeps_every_band_and_matches_full() {
        let mut inc = IncrementalExtractor::new(chip(), 3);
        let bands = inc.cuts().len() + 1;
        assert!(bands >= 2, "chip should band");
        let full = extract_flat(chip(), "chip", ExtractOptions::new()).expect("full extraction");
        let got = inc.extract("chip").expect("incremental extraction");
        same_circuit(&got.netlist, &full.netlist).expect("incremental == full");
        assert_eq!(got.netlist.device_count(), 3);
        assert_eq!(inc.last_reswept(), (0..bands).collect::<Vec<_>>());
        assert_eq!(got.report.bands_reswept, bands as u64);
        assert_eq!(got.report.bands_reused, 0);
        assert!(inc.cache_bytes() > 0);
    }

    #[test]
    fn clean_re_extraction_reuses_every_band() {
        let mut inc = IncrementalExtractor::new(chip(), 3);
        let bands = inc.cuts().len() + 1;
        let first = inc.extract("chip").expect("first");
        let second = inc.extract("chip").expect("second");
        assert_eq!(inc.last_reswept(), &[] as &[usize]);
        assert_eq!(second.report.bands_reused, bands as u64);
        assert_eq!(second.report.bands_reswept, 0);
        same_circuit(&second.netlist, &first.netlist).expect("identical");
    }

    #[test]
    fn interior_edit_resweeps_only_its_band() {
        let mut inc = IncrementalExtractor::new(three_wires(), 3);
        assert_eq!(inc.cuts(), &[1000, 2000]);
        inc.extract("wires").expect("seed extraction");

        // Nudge the bottom wire, staying strictly inside band 0: the
        // bands above share no seam content with the edit and must
        // answer from cache.
        let mut edit = LayoutDiff::new();
        edit.move_box(
            Layer::Metal,
            Rect::new(0, 0, 400, 400),
            Rect::new(0, 200, 400, 600),
        );
        inc.apply(&edit).expect("edit applies");
        let got = inc.extract("wires").expect("re-extraction");
        assert_eq!(inc.last_reswept(), &[0]);
        assert_eq!(got.report.bands_reused, 2);
        assert_eq!(got.report.bands_reswept, 1);
        assert_matches_full(&mut inc);
    }

    #[test]
    fn seam_straddling_edit_dirties_both_neighbours() {
        let mut inc = IncrementalExtractor::new(three_wires(), 3);
        assert_eq!(inc.cuts(), &[1000, 2000]);
        inc.extract("wires").expect("seed extraction");

        // A wire across the y=1000 seam is clipped into bands 0 and
        // 1; both hashes change, band 2 stays cached.
        let mut edit = LayoutDiff::new();
        edit.add_box(Layer::Metal, Rect::new(0, 900, 400, 1100));
        inc.apply(&edit).expect("edit applies");
        inc.extract("wires").expect("re-extraction");
        assert_eq!(inc.last_reswept(), &[0, 1]);
        assert_matches_full(&mut inc);
    }

    #[test]
    fn label_only_edit_resweeps_just_the_labelled_band() {
        let mut inc = IncrementalExtractor::new(three_wires(), 3);
        inc.extract("wires").expect("seed extraction");
        let mut edit = LayoutDiff::new();
        edit.add_label("mid", Point::new(200, 1200), Some(Layer::Metal));
        inc.apply(&edit).expect("edit applies");
        inc.extract("wires").expect("re-extraction");
        assert_eq!(inc.last_reswept(), &[1]);
        assert_matches_full(&mut inc);
    }

    #[test]
    fn unbanded_layout_memoizes_the_whole_extraction() {
        let mut inc = IncrementalExtractor::new(chip(), 1);
        assert!(inc.cuts().is_empty());
        let first = inc.extract("chip").expect("first");
        assert_eq!(first.report.bands_reswept, 1);
        let second = inc.extract("chip").expect("second");
        assert_eq!(second.report.bands_reused, 1);
        assert_eq!(second.report.bands_reswept, 0);
        same_circuit(&second.netlist, &first.netlist).expect("identical");

        let mut edit = LayoutDiff::new();
        edit.remove_box(Layer::Poly, Rect::new(-800, 2800, 800, 3200));
        inc.apply(&edit).expect("edit applies");
        let third = inc.extract("chip").expect("third");
        assert_eq!(third.report.bands_reswept, 1);
        assert_eq!(third.netlist.device_count(), 2);
        assert_matches_full(&mut inc);
    }

    /// Per-request reporting on a reused extractor must not
    /// accumulate: each `extract` call's own report carries only that
    /// run's `BandsReused`/`BandsReswept`/`CacheBytes`, and a
    /// long-lived external probe gets the same per-run numbers via
    /// `take_report` (without it, the second request's report says
    /// "6 bands reused" on a 3-band chip — stale values from request
    /// one baked in).
    #[test]
    fn reused_extractor_reports_per_request_not_cumulative() {
        use crate::probe::CounterProbe;

        let mut inc = IncrementalExtractor::new(three_wires(), 3);
        let bands = (inc.cuts().len() + 1) as u64;
        let probe = CounterProbe::new(); // retained across requests
        let r1 = inc.extract_probed("wires", &probe).expect("request 1");
        assert_eq!(r1.report.bands_reswept, bands);
        assert_eq!(probe.take_report().bands_reswept, bands);

        let r2 = inc.extract_probed("wires", &probe).expect("request 2");
        assert_eq!(r2.report.bands_reused, bands, "own report is per-run");
        assert_eq!(r2.report.bands_reswept, 0);
        let external = probe.take_report();
        assert_eq!(
            external.bands_reused, bands,
            "take_report must yield request 2's numbers alone"
        );
        assert_eq!(external.bands_reswept, 0);
        assert_eq!(external.cache_bytes, inc.cache_bytes());
    }

    #[test]
    fn evicted_cache_resweeps_and_reports_shrunken_bytes() {
        use crate::probe::CounterProbe;

        let mut inc = IncrementalExtractor::new(three_wires(), 3);
        let bands = (inc.cuts().len() + 1) as u64;
        let probe = CounterProbe::new();
        inc.extract_probed("wires", &probe).expect("warm-up");
        let warm_bytes = inc.cache_bytes();
        assert!(warm_bytes > 0);
        probe.reset();

        // Evict: the cache empties, and the gauge must track the
        // shrink rather than keep the old high-water mark.
        inc.evict_cache();
        assert_eq!(inc.cache_bytes(), 0);

        // Shrink the layout, then re-extract: everything re-sweeps
        // (cold cache) and the reported cache footprint is the *new*,
        // smaller one — not the pre-eviction peak.
        let mut edit = LayoutDiff::new();
        edit.remove_box(Layer::Metal, Rect::new(0, 2000, 400, 2400));
        edit.remove_label("c", Point::new(200, 2200), Some(Layer::Metal));
        inc.apply(&edit).expect("edit applies");
        let r = inc.extract_probed("wires", &probe).expect("cold re-run");
        assert_eq!(r.report.bands_reswept, bands);
        assert_eq!(r.report.bands_reused, 0);
        assert!(inc.cache_bytes() < warm_bytes);
        assert_eq!(r.report.cache_bytes, inc.cache_bytes());
        assert_eq!(probe.take_report().cache_bytes, inc.cache_bytes());
        assert_matches_full(&mut inc);
    }

    #[test]
    fn rejects_threads_and_window_options() {
        let opts = ExtractOptions::new().with_threads(2);
        let mut inc = IncrementalExtractor::new(chip(), 2).with_options(opts);
        assert!(inc.extract("chip").is_err());
        let opts = ExtractOptions::new().with_window(Rect::new(0, 0, 100, 100));
        let mut inc = IncrementalExtractor::new(chip(), 2).with_options(opts);
        assert!(inc.extract("chip").is_err());
    }

    #[test]
    fn edit_sequence_tracks_full_extraction() {
        let mut inc = IncrementalExtractor::new(chip(), 3);
        inc.extract("chip").expect("seed extraction");

        // Widen the middle gate.
        let mut edit = LayoutDiff::new();
        edit.move_box(
            Layer::Poly,
            Rect::new(-800, 2800, 800, 3200),
            Rect::new(-800, 2600, 800, 3400),
        );
        inc.apply(&edit).expect("widen applies");
        assert_matches_full(&mut inc);

        // Delete the top gate.
        let mut edit = LayoutDiff::new();
        edit.remove_box(Layer::Poly, Rect::new(-800, 4800, 800, 5200));
        inc.apply(&edit).expect("delete applies");
        assert_matches_full(&mut inc);

        // Put it back, and move a supply label.
        let mut edit = LayoutDiff::new();
        edit.add_box(Layer::Poly, Rect::new(-800, 4800, 800, 5200));
        edit.remove_label("vdd", Point::new(0, 5900), Some(Layer::Diffusion));
        edit.add_label("vdd", Point::new(0, 5700), Some(Layer::Diffusion));
        inc.apply(&edit).expect("restore applies");
        assert_matches_full(&mut inc);
    }
}
