use std::collections::HashMap;

use ace_geom::{Coord, Interval, IntervalMap, IntervalSet, Layer, LayerMap, Point, Rect};
use ace_layout::{FlatLabel, GeometryFeed, LayerBox};
use ace_wirelist::{NetId, Netlist};

use crate::devices::DeviceTable;
use crate::extract::Extraction;
use crate::nets::NetTable;
use crate::probe::{Counter, CounterProbe, Lane, NullProbe, Probe, Span};
use crate::report::{ExtractOptions, SortStrategy};
use crate::strip::{
    abutting, find_containing, overlap_pairs_into, overlapping, Fragment, StripCoverage,
    StripFragments,
};
use crate::window::{BoundaryContact, BoundarySignal, DeviceDetail, Face, WindowExtraction};

/// One incoming box, reduced to what the active list stores: its x
/// extent and its bottom edge.
type ActiveEntry = (Interval, Coord);

/// A boundary contact recorded during the sweep, before handles are
/// resolved to output ids.
#[derive(Debug, Clone, Copy)]
struct RawContact {
    face: Face,
    layer: Option<Layer>,
    span: Interval,
    handle: u32,
    is_channel: bool,
}

/// Reusable per-stop buffers, allocated once per sweep and threaded
/// through the stop loop.
///
/// Every temporary the old stop loop allocated fresh — the incoming
/// per-layer batches, the six coverage sets, the strip fragments, the
/// overlap-pair lists, the per-cut fragment collections — lives here
/// instead and is `clear()`ed (capacity kept) at each reuse, so the
/// steady-state sweep performs no per-stop heap allocation: only the
/// net/device tables grow, amortized.
#[derive(Default)]
struct SweepScratch {
    /// Labels drained from the front-end, awaiting resolution.
    pending_labels: Vec<FlatLabel>,
    /// Boxes fetched at the current stop.
    new_boxes: Vec<LayerBox>,
    /// The stop's incoming boxes distributed per layer.
    incoming: LayerMap<Vec<ActiveEntry>>,
    /// Bucket storage for [`SortStrategy::Bin`].
    bins: Vec<Vec<ActiveEntry>>,
    /// Per-strip layer coverage.
    cov: StripCoverage,
    /// diffusion ∧ poly — shared intermediate of the device algebra.
    poly_diff: IntervalSet,
    /// Transistor channels: diffusion ∧ poly ∧ ¬buried.
    channels: IntervalSet,
    /// Conducting diffusion: raw diffusion minus channels.
    diff: IntervalSet,
    /// Buried contacts: diffusion ∧ poly ∧ buried.
    buried_joins: IntervalSet,
    /// The previous strip's fragments (linked against `cur`).
    prev: StripFragments,
    /// The strip being built; swapped with `prev` when done.
    cur: StripFragments,
    /// Overlap pairs between consecutive strips.
    pairs: Vec<(u32, u32, Coord)>,
    /// Fragments overlapping the contact cut being processed.
    cut_metal: Vec<Fragment>,
    cut_poly: Vec<Fragment>,
    cut_diff: Vec<Fragment>,
    /// Cut-area attribution pieces: (net root, clipped x-extent).
    cut_pieces: Vec<(u32, Coord, Coord)>,
}

/// The scanline extraction engine (the paper's back-end).
///
/// Feed geometry in with any [`GeometryFeed`] and call
/// [`Extractor::run`]; see the crate docs for the algorithm and
/// [`crate::extract_library`] for the usual entry point.
///
/// The active lists are [`IntervalMap`]s — struct-of-arrays sorted
/// interval structures — with a cached per-layer maximum bottom edge
/// replacing the old per-layer heaps: the sweep stops at every box
/// bottom, so a layer's next exit is always its maximum live bottom,
/// and the retain pass that removes exiting boxes recomputes the new
/// maximum in the same scan.
///
/// Every sweep reports its work through the probe layer: an internal
/// [`CounterProbe`] aggregates the events into the final
/// [`crate::ExtractionReport`], and an optional external [`Probe`]
/// (see [`Extractor::with_probe`]) receives the same stream — so an
/// outside `CounterProbe` always agrees with the report it shadows.
pub struct Extractor<'p> {
    options: ExtractOptions,
    lane: Lane,
    probe: &'p dyn Probe,
    counters: CounterProbe,
    nets: NetTable,
    devices: DeviceTable,
    active: LayerMap<IntervalMap<Coord>>,
    // Cached largest live bottom per layer (`Coord::MIN` when the
    // layer is empty), kept in lockstep with `active`. This keeps the
    // next scanline stop O(1) per layer instead of a heap in lockstep
    // with the list.
    max_bottom: LayerMap<Coord>,
    raw_contacts: Vec<RawContact>,
    // Union count already emitted; unions are reported as deltas so
    // cross-lane aggregation is a plain sum.
    last_unions: u64,
    max_active_seen: usize,
}

impl Extractor<'static> {
    /// Creates an extractor with the given options.
    pub fn new(options: ExtractOptions) -> Self {
        Extractor::with_probe(options, &NullProbe)
    }
}

impl<'p> Extractor<'p> {
    /// Creates an extractor that mirrors every probe event to
    /// `probe` in addition to its internal aggregate.
    pub fn with_probe(options: ExtractOptions, probe: &'p dyn Probe) -> Self {
        Extractor {
            options,
            lane: Lane::MAIN,
            probe,
            counters: CounterProbe::new(),
            nets: NetTable::new(options.geometry_output),
            devices: DeviceTable::new(options.geometry_output || options.window.is_some()),
            active: LayerMap::default(),
            max_bottom: LayerMap::from_fn(|_| Coord::MIN),
            raw_contacts: Vec::new(),
            last_unions: 0,
            max_active_seen: 0,
        }
    }

    /// Tags this sweep's events with `lane` (band workers use their
    /// band's lane; the default is [`Lane::MAIN`]).
    pub fn on_lane(mut self, lane: Lane) -> Self {
        self.lane = lane;
        self
    }

    fn enter(&self, span: Span) {
        self.counters.enter(self.lane, span);
        self.probe.enter(self.lane, span);
    }

    fn exit_span(&self, span: Span) {
        self.counters.exit(self.lane, span);
        self.probe.exit(self.lane, span);
    }

    fn count(&self, counter: Counter, delta: u64) {
        if delta == 0 {
            return;
        }
        self.counters.add(self.lane, counter, delta);
        self.probe.add(self.lane, counter, delta);
    }

    fn gauge(&self, counter: Counter, value: u64) {
        self.counters.gauge(self.lane, counter, value);
        self.probe.gauge(self.lane, counter, value);
    }

    /// Emits net unions performed since the last call as a delta.
    fn note_unions(&mut self) {
        let total = self.nets.union_count();
        let delta = total - self.last_unions;
        if delta > 0 {
            self.last_unions = total;
            self.count(Counter::NetUnions, delta);
        }
    }

    /// Runs the sweep to completion and produces the extraction.
    ///
    /// `name` becomes the output netlist's title.
    pub fn run(mut self, feed: &mut dyn GeometryFeed, name: &str) -> Extraction {
        self.enter(Span::Extract);
        let mut scratch = SweepScratch::default();

        // Step 1: set the scanline to the top of the chip.
        let mut cursor = {
            self.enter(Span::FrontEnd);
            let top = feed.peek_top();
            feed.drain_new_labels(&mut scratch.pending_labels);
            self.exit_span(Span::FrontEnd);
            top
        };

        // Step 2: sweep.
        while let Some(y) = cursor {
            self.count(Counter::ScanlineStops, 1);

            // 2.a: fetch geometry whose top coincides with the
            // scanline.
            self.enter(Span::FrontEnd);
            scratch.new_boxes.clear();
            feed.pop_at(y, &mut scratch.new_boxes);
            feed.drain_new_labels(&mut scratch.pending_labels);
            self.exit_span(Span::FrontEnd);
            self.count(Counter::Boxes, scratch.new_boxes.len() as u64);

            // 2.b: exits and insertions.
            self.enter(Span::Insert);
            let max_bottom = self.insert_new_geometry(y, &mut scratch);
            self.exit_span(Span::Insert);

            // 2.d: next scanline position — the larger of the next
            // front-end top and the largest active bottom.
            self.enter(Span::FrontEnd);
            let feed_top = feed.peek_top();
            feed.drain_new_labels(&mut scratch.pending_labels);
            self.exit_span(Span::FrontEnd);
            let next = match (feed_top, max_bottom) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };

            // 2.c: compute devices over the strip [next, y].
            if let Some(lo) = next {
                debug_assert!(lo < y, "scanline must strictly descend");
                self.enter(Span::Devices);
                self.process_strip(lo, y, &mut scratch);
                self.exit_span(Span::Devices);
            }
            cursor = next;
        }

        self.count(
            Counter::UnresolvedLabels,
            scratch.pending_labels.len() as u64,
        );

        // Step 3: output devices and nets.
        self.enter(Span::Output);
        let (netlist, window) = self.finalize(name);
        self.exit_span(Span::Output);
        self.exit_span(Span::Extract);

        // The report is a view over the sweep's own counter aggregate.
        Extraction {
            netlist,
            report: self.counters.report(),
            window,
        }
    }

    /// Removes boxes whose bottom coincides with the scanline, sorts
    /// the incoming geometry by x, and merges it into the active
    /// lists. Returns the largest active bottom.
    fn insert_new_geometry(&mut self, y: Coord, s: &mut SweepScratch) -> Option<Coord> {
        // Distribute incoming boxes per layer.
        for layer in Layer::ALL {
            s.incoming[layer].clear();
        }
        for b in &s.new_boxes {
            if b.layer == Layer::Glass {
                continue; // overglass does not participate
            }
            debug_assert_eq!(b.rect.y_max, y);
            if b.rect.is_empty() {
                continue;
            }
            s.incoming[b.layer].push((Interval::new(b.rect.x_min, b.rect.x_max), b.rect.y_min));
        }

        let mut max_bottom: Option<Coord> = None;
        let mut total_active = 0usize;
        for layer in Layer::ALL {
            let list = &mut self.active[layer];
            let cached = &mut self.max_bottom[layer];
            // Exits: bottom coincides with the scanline. The sweep
            // stops at every bottom, so exits happen exactly when the
            // layer's cached maximum bottom is the current stop; the
            // retain pass recomputes the new maximum in the same scan.
            if *cached == y {
                let mut new_max = Coord::MIN;
                list.retain(|_, &bot| {
                    if bot < y {
                        new_max = new_max.max(bot);
                        true
                    } else {
                        debug_assert_eq!(bot, y, "missed an earlier exit");
                        false
                    }
                });
                *cached = new_max;
            }
            let fresh = &mut s.incoming[layer];
            if !fresh.is_empty() {
                sort_entries(fresh, self.options.sort, &mut s.bins);
                for &(_, bot) in fresh.iter() {
                    *cached = (*cached).max(bot);
                }
                list.merge_sorted(fresh);
            }
            if *cached != Coord::MIN {
                max_bottom = Some(match max_bottom {
                    Some(m) => m.max(*cached),
                    None => *cached,
                });
            }
            total_active += list.len();
        }
        if total_active > self.max_active_seen {
            self.max_active_seen = total_active;
            self.gauge(Counter::MaxActive, total_active as u64);
        }
        max_bottom
    }

    /// Processes one strip: builds coverage and fragments, links them
    /// to the previous strip, finds channels, contacts, and labels.
    fn process_strip(&mut self, lo: Coord, hi: Coord, s: &mut SweepScratch) {
        let height = hi - lo;
        debug_assert!(height > 0);

        let SweepScratch {
            pending_labels,
            cov,
            poly_diff,
            channels,
            diff,
            buried_joins,
            prev,
            cur,
            pairs,
            cut_metal,
            cut_poly,
            cut_diff,
            cut_pieces,
            ..
        } = s;

        // Layer coverage from the active lists (in lo order, so the
        // IntervalSet inserts are effectively appends).
        coverage_into(&self.active[Layer::Metal], &mut cov.metal);
        coverage_into(&self.active[Layer::Poly], &mut cov.poly);
        coverage_into(&self.active[Layer::Diffusion], &mut cov.diff_raw);
        coverage_into(&self.active[Layer::Buried], &mut cov.buried);
        coverage_into(&self.active[Layer::Implant], &mut cov.implant);
        coverage_into(&self.active[Layer::Cut], &mut cov.cut);

        // The paper's device algebra, on recycled sets: channels =
        // diff ∧ poly ∧ ¬buried, conducting diffusion = diff −
        // channels, buried contacts = diff ∧ poly ∧ buried.
        cov.diff_raw.intersection_into(&cov.poly, poly_diff);
        poly_diff.subtract_into(&cov.buried, channels);
        cov.diff_raw.subtract_into(channels, diff);
        poly_diff.intersection_into(&cov.buried, buried_joins);

        // Fragments with fresh handles; conducting fragments extend
        // their net's bounding box (and geometry when enabled).
        cur.y_top = hi;
        cur.y_bot = lo;
        cur.metal.clear();
        cur.poly.clear();
        cur.diff.clear();
        cur.channel.clear();
        for (set, layer, frags) in [
            (&cov.metal, Layer::Metal, &mut cur.metal),
            (&cov.poly, Layer::Poly, &mut cur.poly),
            (&*diff, Layer::Diffusion, &mut cur.diff),
        ] {
            for iv in set.iter() {
                let handle = self.nets.fresh();
                self.nets
                    .add_geometry(handle, layer, Rect::new(iv.lo, lo, iv.hi, hi));
                frags.push(Fragment { span: *iv, handle });
            }
        }
        for iv in channels.iter() {
            cur.channel.push(Fragment {
                span: *iv,
                handle: self.devices.fresh(Rect::new(iv.lo, lo, iv.hi, hi)),
            });
        }

        // Vertical links to the strip above (positive x-overlap).
        // Every pair shares an edge of the overlap's length: the two
        // fragments each counted it in their perimeter, so it is
        // subtracted once to keep the net's union perimeter exact.
        overlap_pairs_into(&prev.metal, &cur.metal, pairs);
        for &(a, b, len) in pairs.iter() {
            let root = self.nets.union(a, b);
            self.nets.sub_perimeter(root, Layer::Metal, len);
        }
        overlap_pairs_into(&prev.poly, &cur.poly, pairs);
        for &(a, b, len) in pairs.iter() {
            let root = self.nets.union(a, b);
            self.nets.sub_perimeter(root, Layer::Poly, len);
        }
        overlap_pairs_into(&prev.diff, &cur.diff, pairs);
        for &(a, b, len) in pairs.iter() {
            let root = self.nets.union(a, b);
            self.nets.sub_perimeter(root, Layer::Diffusion, len);
        }
        overlap_pairs_into(&prev.channel, &cur.channel, pairs);
        for &(a, b, _) in pairs.iter() {
            self.devices.union(a, b, &mut self.nets);
        }
        // Terminals along horizontal channel edges: diffusion above
        // channel, or channel above diffusion.
        overlap_pairs_into(&prev.diff, &cur.channel, pairs);
        for &(d, k, len) in pairs.iter() {
            self.devices.add_terminal_contact(k, d, len);
        }
        overlap_pairs_into(&prev.channel, &cur.diff, pairs);
        for &(k, d, len) in pairs.iter() {
            self.devices.add_terminal_contact(k, d, len);
        }

        // Per-channel work: gate poly, implant, vertical-edge
        // terminals.
        for k in &cur.channel {
            if let Some(p) = find_containing(&cur.poly, k.span) {
                self.devices.set_gate(k.handle, p.handle, &mut self.nets);
            }
            if cov.implant.intersects(&k.span) {
                self.devices.set_depletion(k.handle);
            }
            let (left, right) = abutting(&cur.diff, k.span);
            if let Some(f) = left {
                self.devices
                    .add_terminal_contact(k.handle, f.handle, height);
            }
            if let Some(f) = right {
                self.devices
                    .add_terminal_contact(k.handle, f.handle, height);
            }
        }

        // Buried contacts join poly to diffusion with no transistor.
        for bc in buried_joins.iter() {
            let mut first: Option<u32> = None;
            for f in overlapping(&cur.diff, *bc).chain(overlapping(&cur.poly, *bc)) {
                match first {
                    Some(a) => {
                        self.nets.union(a, f.handle);
                    }
                    None => first = Some(f.handle),
                }
            }
        }

        // Contact cuts join the conducting layers stacked above each
        // other *at the same position*: two fragments connect only
        // where both overlap the cut and each other (a wide cut does
        // not bridge laterally disjoint geometry).
        for c in cov.cut.iter() {
            cut_metal.clear();
            cut_metal.extend(overlapping(&cur.metal, *c).copied());
            cut_poly.clear();
            cut_poly.extend(overlapping(&cur.poly, *c).copied());
            cut_diff.clear();
            cut_diff.extend(overlapping(&cur.diff, *c).copied());
            for (above, below) in [
                (&*cut_metal, &*cut_poly),
                (&*cut_metal, &*cut_diff),
                (&*cut_poly, &*cut_diff),
            ] {
                for fa in above {
                    for fb in below {
                        let lo = fa.span.lo.max(fb.span.lo).max(c.lo);
                        let hi = fa.span.hi.min(fb.span.hi).min(c.hi);
                        if hi > lo {
                            self.nets.union(fa.handle, fb.handle);
                        }
                    }
                }
            }
            // Attribute the cut's area to the nets under it: per net
            // root, the union of the conducting spans clipped to the
            // cut, times the strip height. Layers stacked at the same
            // x were just unioned, so grouping by root de-duplicates
            // their overlap.
            cut_pieces.clear();
            for frags in [&*cut_metal, &*cut_poly, &*cut_diff] {
                for f in frags {
                    let lo = f.span.lo.max(c.lo);
                    let hi = f.span.hi.min(c.hi);
                    if hi > lo {
                        cut_pieces.push((self.nets.find(f.handle), lo, hi));
                    }
                }
            }
            cut_pieces.sort_unstable();
            let mut i = 0usize;
            while i < cut_pieces.len() {
                let (root, mut run_lo, mut run_hi) = cut_pieces[i];
                let mut len = 0;
                i += 1;
                while i < cut_pieces.len() && cut_pieces[i].0 == root {
                    let (_, lo2, hi2) = cut_pieces[i];
                    if lo2 > run_hi {
                        len += run_hi - run_lo;
                        run_lo = lo2;
                        run_hi = hi2;
                    } else {
                        run_hi = run_hi.max(hi2);
                    }
                    i += 1;
                }
                len += run_hi - run_lo;
                self.nets.add_cut_area(root, len * height);
            }
        }

        self.resolve_labels(pending_labels, lo, hi, cur);

        if let Some(window) = self.options.window {
            self.collect_boundary(cur, window);
        }

        self.count(Counter::Fragments, cur.fragment_count() as u64);
        self.note_unions();
        std::mem::swap(prev, cur);
    }

    /// Attaches user names to the nets under them.
    fn resolve_labels(
        &mut self,
        labels: &mut Vec<FlatLabel>,
        lo: Coord,
        hi: Coord,
        cur: &StripFragments,
    ) {
        if labels.is_empty() {
            return;
        }
        let mut unresolved = 0u64;
        let nets = &mut self.nets;
        labels.retain(|label| {
            if label.at.y > hi {
                // The sweep has passed this label without finding
                // geometry under it.
                unresolved += 1;
                return false;
            }
            if label.at.y < lo {
                return true; // a later strip will cover it
            }
            let candidates: &[&[Fragment]] = match label.layer {
                Some(Layer::Diffusion) => &[&cur.diff],
                Some(Layer::Poly) => &[&cur.poly],
                Some(Layer::Metal) => &[&cur.metal],
                // Labels on non-conducting layers or without a layer
                // bind to whatever conducting geometry is under them.
                _ => &[&cur.diff, &cur.poly, &cur.metal],
            };
            for list in candidates {
                let x = label.at.x;
                let idx = list.partition_point(|f| f.span.hi < x);
                if let Some(f) = list.get(idx) {
                    if f.span.lo <= x && x <= f.span.hi {
                        nets.add_name(f.handle, label.name.clone());
                        return false;
                    }
                }
            }
            // Keep boundary labels (y == lo) alive: geometry starting
            // exactly at the strip's bottom edge may carry them.
            label.at.y == lo
        });
        self.count(Counter::UnresolvedLabels, unresolved);
    }

    /// Records fragments touching the window boundary.
    fn collect_boundary(&mut self, cur: &StripFragments, window: Rect) {
        let lists: [(&[Fragment], Option<Layer>, bool); 4] = [
            (&cur.metal, Some(Layer::Metal), false),
            (&cur.poly, Some(Layer::Poly), false),
            (&cur.diff, Some(Layer::Diffusion), false),
            (&cur.channel, None, true),
        ];
        for (frags, layer, is_channel) in lists {
            for f in frags {
                if cur.y_top == window.y_max {
                    self.raw_contacts.push(RawContact {
                        face: Face::Top,
                        layer,
                        span: f.span,
                        handle: f.handle,
                        is_channel,
                    });
                }
                if cur.y_bot == window.y_min {
                    self.raw_contacts.push(RawContact {
                        face: Face::Bottom,
                        layer,
                        span: f.span,
                        handle: f.handle,
                        is_channel,
                    });
                }
                if f.span.lo == window.x_min {
                    self.raw_contacts.push(RawContact {
                        face: Face::Left,
                        layer,
                        span: Interval::new(cur.y_bot, cur.y_top),
                        handle: f.handle,
                        is_channel,
                    });
                }
                if f.span.hi == window.x_max {
                    self.raw_contacts.push(RawContact {
                        face: Face::Right,
                        layer,
                        span: Interval::new(cur.y_bot, cur.y_top),
                        handle: f.handle,
                        is_channel,
                    });
                }
            }
        }
    }

    /// Builds the output netlist, device list, and window interface.
    fn finalize(&mut self, name: &str) -> (Netlist, Option<WindowExtraction>) {
        let (net_map, net_count) = self.nets.compress();
        let mut netlist = Netlist::new();
        netlist.name = name.to_string();
        for _ in 0..net_count {
            netlist.add_net();
        }

        // Move per-root net data into the output. (Indexing is the
        // point here: h is a union-find handle.)
        let mut seen = vec![false; net_count];
        #[allow(clippy::needless_range_loop)] // h is a union-find handle
        for h in 0..net_map.len() {
            let dense = net_map[h] as usize;
            if seen[dense] {
                continue;
            }
            seen[dense] = true;
            let id = NetId(dense as u32);
            let data = self.nets.take_data(h as u32);
            for net_name in data.names {
                netlist.add_name(id, net_name);
            }
            if let Some(bb) = data.bbox {
                netlist.set_location(id, Point::new(bb.x_min, bb.y_max));
            }
            if !data.geometry.is_empty() {
                // Coalesce the strip-sliced fragments per layer.
                for layer in Layer::ALL {
                    let rects: Vec<Rect> = data
                        .geometry
                        .iter()
                        .filter(|(l, _)| *l == layer)
                        .map(|(_, r)| *r)
                        .collect();
                    for r in ace_geom::merge_boxes(&rects) {
                        netlist.add_geometry(id, layer, r);
                    }
                }
            }
            netlist.add_parasitics(id, &data.parasitics);
        }

        // Which devices are partial (window mode)?
        let mut partial_roots: Vec<u32> = self
            .raw_contacts
            .iter()
            .filter(|c| c.is_channel)
            .map(|c| c.handle)
            .collect();
        for r in &mut partial_roots {
            *r = self.devices.find(*r);
        }

        // Finalize devices in ascending root order.
        let mut device_index_by_root: HashMap<u32, usize> = HashMap::new();
        let mut details = Vec::new();
        for root in self.devices.roots() {
            let mut multi = false;
            let Some((device, channel)) =
                self.devices
                    .finalize(root, &mut self.nets, &net_map, &mut multi)
            else {
                continue;
            };
            if multi {
                self.count(Counter::MultiTerminalDevices, 1);
            }
            let index = netlist.device_count();
            device_index_by_root.insert(root, index);
            if self.options.window.is_some() {
                details.push(DeviceDetail {
                    channel,
                    partial: partial_roots.contains(&root),
                });
            }
            netlist.add_device(device);
        }

        self.note_unions();

        let window = self.options.window.map(|rect| {
            let mut contacts: Vec<BoundaryContact> = self
                .raw_contacts
                .iter()
                .filter_map(|raw| {
                    let signal = if raw.is_channel {
                        let root = self.devices.find(raw.handle);
                        BoundarySignal::Channel(*device_index_by_root.get(&root)?)
                    } else {
                        BoundarySignal::Net(NetId(net_map[self.nets.find(raw.handle) as usize]))
                    };
                    Some(BoundaryContact {
                        face: raw.face,
                        layer: raw.layer,
                        span: raw.span,
                        signal,
                    })
                })
                .collect();
            coalesce_contacts(&mut contacts);
            WindowExtraction {
                window: rect,
                contacts,
                device_details: details,
            }
        });

        (netlist, window)
    }
}

/// Rebuilds an [`IntervalSet`] from an active list's x extents
/// without allocating (the set keeps its capacity across strips).
fn coverage_into(active: &IntervalMap<Coord>, out: &mut IntervalSet) {
    out.clear();
    for iv in active.intervals() {
        out.insert(iv);
    }
}

/// Merges adjacent boundary contacts carrying the same signal on the
/// same face and layer.
fn coalesce_contacts(contacts: &mut Vec<BoundaryContact>) {
    // The key totally orders contacts (signal included), so the
    // unstable sort is deterministic.
    contacts.sort_unstable_by_key(|c| {
        let signal = match c.signal {
            BoundarySignal::Net(n) => (0u8, n.0 as usize),
            BoundarySignal::Channel(i) => (1u8, i),
        };
        (
            c.face,
            c.layer.map(|l| l.index()),
            c.span.lo,
            c.span.hi,
            signal,
        )
    });
    let mut write = 0usize;
    for read in 0..contacts.len() {
        if write > 0 {
            let prev = contacts[write - 1];
            let cur = contacts[read];
            if prev.face == cur.face
                && prev.layer == cur.layer
                && prev.signal == cur.signal
                && prev.span.hi >= cur.span.lo
            {
                contacts[write - 1].span = prev.span.hull(&cur.span);
                continue;
            }
        }
        contacts[write] = contacts[read];
        write += 1;
    }
    contacts.truncate(write);
}

/// Sorts a batch of incoming boxes by x (step 2.a).
fn sort_entries(
    entries: &mut [ActiveEntry],
    strategy: SortStrategy,
    bins: &mut Vec<Vec<ActiveEntry>>,
) {
    match strategy {
        SortStrategy::Insertion => {
            for i in 1..entries.len() {
                let key = entries[i];
                let mut j = i;
                while j > 0 && entries[j - 1].0.lo > key.0.lo {
                    entries[j] = entries[j - 1];
                    j -= 1;
                }
                entries[j] = key;
            }
        }
        SortStrategy::Bin => {
            bin_sort(entries, bins);
        }
    }
}

/// Bucket sort on the left x edge, with an unstable sort inside
/// buckets. Bucket storage is caller-owned and reused across stops.
fn bin_sort(entries: &mut [ActiveEntry], bins: &mut Vec<Vec<ActiveEntry>>) {
    let n = entries.len();
    if n < 2 {
        return;
    }
    let min = entries.iter().map(|e| e.0.lo).min().expect("non-empty");
    let max = entries.iter().map(|e| e.0.lo).max().expect("non-empty");
    if min == max {
        return;
    }
    if bins.len() < n {
        bins.resize_with(n, Vec::new);
    }
    let range = (max - min) as i128 + 1;
    for &e in entries.iter() {
        let idx = ((e.0.lo - min) as i128 * n as i128 / range) as usize;
        bins[idx.min(n - 1)].push(e);
    }
    let mut out = 0usize;
    for bucket in bins[..n].iter_mut() {
        bucket.sort_unstable_by_key(|e| e.0.lo);
        for &e in bucket.iter() {
            entries[out] = e;
            out += 1;
        }
        bucket.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(x_min: Coord, x_max: Coord) -> ActiveEntry {
        (Interval::new(x_min, x_max), 0)
    }

    #[test]
    fn insertion_sort_orders() {
        let mut v = vec![entry(5, 6), entry(1, 2), entry(3, 4), entry(1, 9)];
        sort_entries(&mut v, SortStrategy::Insertion, &mut Vec::new());
        let xs: Vec<Coord> = v.iter().map(|e| e.0.lo).collect();
        assert_eq!(xs, vec![1, 1, 3, 5]);
    }

    #[test]
    fn bin_sort_matches_insertion_sort() {
        let mut a: Vec<ActiveEntry> = (0..100)
            .map(|i| entry((i * 7919) % 251 - 100, (i * 7919) % 251 - 90))
            .collect();
        let mut b = a.clone();
        sort_entries(&mut a, SortStrategy::Insertion, &mut Vec::new());
        let mut bins = Vec::new();
        sort_entries(&mut b, SortStrategy::Bin, &mut bins);
        let xa: Vec<Coord> = a.iter().map(|x| x.0.lo).collect();
        let xb: Vec<Coord> = b.iter().map(|x| x.0.lo).collect();
        assert_eq!(xa, xb);
        // The reused buckets are left empty for the next stop.
        assert!(bins.iter().all(Vec::is_empty));
    }

    #[test]
    fn bin_sort_degenerate_cases() {
        let mut bins = Vec::new();
        let mut empty: Vec<ActiveEntry> = vec![];
        bin_sort(&mut empty, &mut bins);
        let mut single = vec![entry(5, 10)];
        bin_sort(&mut single, &mut bins);
        let mut same = vec![entry(5, 10), entry(5, 20), entry(5, 6)];
        bin_sort(&mut same, &mut bins);
        assert_eq!(same.len(), 3);
    }

    #[test]
    fn bin_sort_reuses_buckets_across_calls() {
        let mut bins = Vec::new();
        let mut v1: Vec<ActiveEntry> = (0..50).rev().map(|i| entry(i * 3, i * 3 + 1)).collect();
        bin_sort(&mut v1, &mut bins);
        let grown = bins.len();
        let mut v2: Vec<ActiveEntry> = (0..50).rev().map(|i| entry(i * 7, i * 7 + 1)).collect();
        bin_sort(&mut v2, &mut bins);
        assert_eq!(bins.len(), grown, "bucket storage did not regrow");
        assert!(v2.windows(2).all(|w| w[0].0.lo <= w[1].0.lo));
    }

    #[test]
    fn coalesce_contacts_merges_touching_same_signal() {
        let c = |lo, hi, id: u32| BoundaryContact {
            face: Face::Left,
            layer: Some(Layer::Metal),
            span: Interval::new(lo, hi),
            signal: BoundarySignal::Net(NetId(id)),
        };
        let mut v = vec![c(0, 10, 1), c(10, 20, 1), c(30, 40, 1), c(20, 30, 2)];
        coalesce_contacts(&mut v);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].span, Interval::new(0, 20));
    }
}
