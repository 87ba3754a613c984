//! Band-parallel extraction: the scanline sweep, run on K horizontal
//! bands concurrently, then stitched back into one flat circuit.
//!
//! The sweep itself is inherently sequential — each strip's state
//! depends on the strip above — but the chip can be cut into bands
//! that are swept independently and composed afterwards, exactly the
//! way HEXT composes adjacent windows: "For each pair of touching
//! boundary segments, step through the elements of the
//! interface-segment lists (for corresponding layers) and establish
//! signal equivalences" (HEXT §3). Here the windows are full-width
//! bands, so only Top/Bottom faces ever meet and every seam is a
//! single horizontal line.
//!
//! Cut lines come from [`ace_layout::band_cuts`], which picks existing
//! box edges; since the flat sweep already stops at every box edge,
//! each band sees exactly the strips the flat sweep saw, and the
//! stitched result is canonically the same circuit.
//!
//! The stitch mirrors `ace-hext`'s `compose`:
//!
//! 1. match each seam's Top contacts (band below) against its Bottom
//!    contacts (band above) by layer and positive x-overlap;
//! 2. net ↔ net on the same layer is an equivalence; channel ↔
//!    channel merges two fragments of one device; channel ↔ diffusion
//!    adds a terminal contact with the overlap as its edge length;
//! 3. every device, merged or whole, is finalized again over the
//!    stitched nets with the flat extractor's width/length rules
//!    ([`PartialDevice::finalize`]): a channel's two diffusion sides
//!    can be separate nets in its band and join only in another one.

use std::sync::Mutex;

use ace_geom::{merge_boxes, Coord, Layer, Point, Rect};
use ace_layout::{band_cuts, partition_bands, EagerFeed, FlatLabel, FlatLayout};
use ace_wirelist::{Device, NetId, NetParasitics, Netlist, PartialDevice, UnionFind};

use crate::extract::{ExtractError, Extraction};
use crate::probe::{Counter, CounterProbe, Lane, NullProbe, Probe, Span};
use crate::report::{ExtractOptions, ExtractionReport, StitchStats};
use crate::scheduler::run_jobs;
use crate::sweep::Extractor;
use crate::window::{BoundaryContact, BoundarySignal, Face, WindowExtraction};

/// Worker-thread count an options value asks for (0 or unset = one
/// per host core).
pub(crate) fn worker_count(options: &ExtractOptions) -> usize {
    match options.threads {
        Some(0) | None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Some(t) => t.max(1),
    }
}

/// Band-parallel driver behind the unified entry points: picks the
/// cut lines for the requested band count (defaulting to one band
/// per worker) and runs the banded extraction.
pub(crate) fn extract_auto_banded(
    flat: FlatLayout,
    name: &str,
    options: ExtractOptions,
    probe: &dyn Probe,
) -> Result<Extraction, ExtractError> {
    let band_count = match options.bands {
        Some(0) | None => worker_count(&options),
        Some(b) => b.max(1),
    };
    let cuts = band_cuts(&flat, band_count);
    banded(flat, name, options, &cuts, probe)
}

/// Extracts a flat layout banded along explicit seam lines.
///
/// This is the banded extraction with the cut selection made
/// deterministic: the caller supplies the interior seam y-coordinates
/// (ascending, on existing box edges, strictly inside the layout's
/// y-extent). Used by the equivalence tests to pin down seams that
/// split specific devices.
///
/// # Errors
///
/// Returns [`ExtractError::Options`] when the options request window
/// mode, which cannot be banded.
pub fn extract_banded(
    flat: FlatLayout,
    name: &str,
    options: ExtractOptions,
    cuts: &[Coord],
) -> Result<Extraction, ExtractError> {
    extract_banded_probed(flat, name, options, cuts, &NullProbe)
}

/// [`extract_banded`], reporting events to `probe` as it runs.
pub fn extract_banded_probed(
    flat: FlatLayout,
    name: &str,
    options: ExtractOptions,
    cuts: &[Coord],
    probe: &dyn Probe,
) -> Result<Extraction, ExtractError> {
    if options.window.is_some() {
        return Err(ExtractError::Options(
            "window-mode extraction cannot be banded (threads conflicts with window)",
        ));
    }
    banded(flat, name, options, cuts, probe)
}

/// The band-parallel extraction proper. `cuts` must not request
/// window mode; empty `cuts` degrade to a sequential sweep.
fn banded(
    flat: FlatLayout,
    name: &str,
    options: ExtractOptions,
    cuts: &[Coord],
    probe: &dyn Probe,
) -> Result<Extraction, ExtractError> {
    // Per-band options: window mode carries the seams, and
    // `threads`/`bands` must not recurse into the band sweeps.
    let mut band_base = options;
    band_base.threads = None;
    band_base.bands = None;

    if cuts.is_empty() {
        // Empty layout or layout too small to cut: sweep sequentially
        // on the main lane, but report the degenerate band count.
        let mut feed = EagerFeed::from_flat(flat).with_probe(probe, Lane::MAIN);
        let mut result = Extractor::with_probe(band_base, probe).run(&mut feed, name);
        result.report.threads = 1;
        result.report.bands = 1;
        return Ok(result);
    }

    // The driver's own aggregate: every band worker reports into it
    // (and into the caller's probe) tagged with its lane, and the
    // final report is the view over this aggregate.
    let counters = CounterProbe::new();
    let tee = (&counters, probe);
    let p: &dyn Probe = &tee;

    p.enter(Lane::MAIN, Span::Extract);
    let bb = flat.bounding_box().expect("cuts imply geometry");
    let partition = partition_bands(&flat, cuts);
    let n = partition.bands.len();

    // Band windows: interior seams sit exactly on the cut lines so
    // geometry clipped there registers boundary contacts; the outer
    // edges are padded by one unit so nothing touches them and no
    // false contacts or partial devices arise.
    let windows: Vec<Rect> = (0..n)
        .map(|i| {
            let lo = if i == 0 { bb.y_min - 1 } else { cuts[i - 1] };
            let hi = if i == n - 1 { bb.y_max + 1 } else { cuts[i] };
            Rect::new(bb.x_min - 1, lo, bb.x_max + 1, hi)
        })
        .collect();

    let (results, workers) = sweep_bands(
        partition.bands.into_iter().enumerate(),
        &windows,
        name,
        band_base,
        worker_count(&options),
        p,
    );
    let refs: Vec<&Extraction> = results.iter().collect();
    let netlist = stitch(&refs, cuts, &partition.seam_labels, name, options, p);
    p.exit(Lane::MAIN, Span::Extract);

    let mut report: ExtractionReport = counters.report();
    // The report view sets threads = bands (lanes); the scheduler
    // knows how many workers actually drained them.
    report.threads = workers;
    report.bands = n;

    Ok(Extraction {
        netlist,
        report,
        window: None,
    })
}

/// Sweeps band slices on `workers` threads of the work-stealing
/// scheduler: each job takes its `(band, slice)`, sweeps the slice in
/// window mode over `windows[band]` on the band's own lane inside
/// [`Span::Band`], and the steal statistics are added once all jobs
/// are done. The slices pass through `Mutex<Option<_>>` slots because
/// a job body only gets its index (the repo forbids unsafe, so no raw
/// takes). Returns the results in slice order and the number of
/// workers that drained them.
pub(crate) fn sweep_bands(
    slices: impl Iterator<Item = (usize, FlatLayout)>,
    windows: &[Rect],
    name: &str,
    options: ExtractOptions,
    workers: usize,
    p: &dyn Probe,
) -> (Vec<Extraction>, usize) {
    let slots: Vec<(usize, Mutex<Option<FlatLayout>>)> = slices
        .map(|(band, slice)| (band, Mutex::new(Some(slice))))
        .collect();
    let (results, steal) = run_jobs(workers, slots.len(), |j| {
        let (band, ref slot) = slots[j];
        let slice = slot
            .lock()
            .expect("band slot lock")
            .take()
            .expect("each band job runs once");
        let band_name = format!("{name}.band{band}");
        let lane = Lane::band(band);
        p.enter(lane, Span::Band);
        let mut feed = EagerFeed::from_flat(slice).with_probe(p, lane);
        let result = Extractor::with_probe(options.with_window(windows[band]), p)
            .on_lane(lane)
            .run(&mut feed, &band_name);
        p.exit(lane, Span::Band);
        result
    });
    p.add(Lane::MAIN, Counter::BandsStolen, steal.stolen);
    p.add(Lane::MAIN, Counter::StealWaitNs, steal.wait_ns);
    (results, steal.workers)
}

/// Global ids for one band: its nets and its devices are offset into
/// two shared spaces.
struct BandSpace {
    nets: u32,
    devices: u32,
}

impl BandSpace {
    fn net(&self, id: NetId) -> u32 {
        self.nets + id.0
    }

    fn device(&self, index: usize) -> u32 {
        self.devices + index as u32
    }
}

/// Stitches per-band window extractions (bottom to top, one per band
/// between consecutive `cuts`) into one flat circuit titled `name`,
/// inside a [`Span::Stitch`] on the main lane that also carries the
/// stitch counters. Shared with the incremental extractor, which
/// mixes cached and freshly-swept band results — hence the slice of
/// references.
pub(crate) fn stitch(
    results: &[&Extraction],
    cuts: &[Coord],
    seam_labels: &[FlatLabel],
    name: &str,
    options: ExtractOptions,
    p: &dyn Probe,
) -> Netlist {
    p.enter(Lane::MAIN, Span::Stitch);
    let mut stats = StitchStats::default();
    let n = results.len();

    let spaces: Vec<BandSpace> = results
        .iter()
        .scan((0u32, 0u32), |(nets, devices), r| {
            let space = BandSpace {
                nets: *nets,
                devices: *devices,
            };
            *nets += r.netlist.net_count() as u32;
            *devices += r.netlist.device_count() as u32;
            Some(space)
        })
        .collect();
    let mut net_uf = UnionFind::with_len(results.iter().map(|r| r.netlist.net_count()).sum());

    // Register every band device as a PartialDevice with nets in the
    // global space. Even a channel that never touches a seam is
    // finalized again below: its two diffusion sides may be separate
    // nets in its band and join only through another band.
    let mut channels: Vec<PartialDevice> = Vec::new();
    let mut channel_geometry: Vec<Vec<Rect>> = Vec::new();
    let mut seam_partials = 0u64;
    for (bi, r) in results.iter().enumerate() {
        let details = &band_window(r).device_details;
        for (detail, device) in details.iter().zip(r.netlist.devices()) {
            seam_partials += u64::from(detail.partial);
            let mut channel = detail.channel.clone();
            channel.gate += spaces[bi].nets;
            for t in &mut channel.terminals {
                t.0 += spaces[bi].nets;
            }
            channels.push(channel);
            channel_geometry.push(if options.geometry_output {
                device.channel_geometry.clone()
            } else {
                Vec::new()
            });
        }
    }
    let mut dev_uf = UnionFind::with_len(channels.len());

    // Step 1+2 of HEXT's compose, specialized to horizontal seams:
    // match the band below's Top contacts against the band above's
    // Bottom contacts and establish equivalences.
    let mut contact_additions: Vec<(u32, u32, i64)> = Vec::new();
    // Same-layer seam joins, for the perimeter correction: each band
    // counted the shared edge in its fragment's perimeter, so the
    // union's perimeter drops by twice the matched overlap.
    let mut seam_edges: Vec<(u32, Layer, i64)> = Vec::new();
    for s in 0..n.saturating_sub(1) {
        let tops = band_window(results[s]).face_contacts(Face::Top);
        let bottoms = band_window(results[s + 1]).face_contacts(Face::Bottom);
        stats.seam_contacts += (tops.len() + bottoms.len()) as u64;
        for ta in &tops {
            for tb in &bottoms {
                if tb.span.lo >= ta.span.hi {
                    break; // bottoms are sorted by span start
                }
                let overlap = ta.span.overlap_len(&tb.span);
                if overlap <= 0 {
                    continue;
                }
                stats.pairs_matched += 1;
                match (ta.signal, tb.signal) {
                    (BoundarySignal::Net(x), BoundarySignal::Net(y)) => {
                        if ta.layer == tb.layer {
                            let (gx, gy) = (spaces[s].net(x), spaces[s + 1].net(y));
                            if net_uf.find(gx) != net_uf.find(gy) {
                                stats.net_unions += 1;
                            }
                            net_uf.union(gx, gy);
                            if let Some(layer) = ta.layer {
                                seam_edges.push((gx, layer, overlap));
                            }
                        }
                    }
                    (BoundarySignal::Channel(a), BoundarySignal::Channel(b)) => {
                        let (pa, pb) = (spaces[s].device(a), spaces[s + 1].device(b));
                        if dev_uf.find(pa) != dev_uf.find(pb) {
                            stats.device_merges += 1;
                        }
                        dev_uf.union(pa, pb);
                    }
                    (BoundarySignal::Channel(k), BoundarySignal::Net(net)) => {
                        // Diffusion meeting a channel across the seam
                        // is a transistor terminal; poly and metal
                        // continue via their own net contacts.
                        if tb.layer == Some(Layer::Diffusion) {
                            let p = spaces[s].device(k);
                            contact_additions.push((p, spaces[s + 1].net(net), overlap));
                            stats.terminal_contacts += 1;
                        }
                    }
                    (BoundarySignal::Net(net), BoundarySignal::Channel(k)) => {
                        if ta.layer == Some(Layer::Diffusion) {
                            let p = spaces[s + 1].device(k);
                            contact_additions.push((p, spaces[s].net(net), overlap));
                            stats.terminal_contacts += 1;
                        }
                    }
                }
            }
        }
    }

    // Gates of merged channel fragments carry the same signal.
    for i in 0..channels.len() as u32 {
        let root = dev_uf.find(i);
        if root != i {
            let ga = channels[root as usize].gate;
            let gb = channels[i as usize].gate;
            if net_uf.find(ga) != net_uf.find(gb) {
                stats.net_unions += 1;
            }
            net_uf.union(ga, gb);
        }
    }
    for &(p, net, len) in &contact_additions {
        let root = dev_uf.find(p) as usize;
        channels[root].terminals.push((net, len));
    }
    for i in 0..channels.len() as u32 {
        let root = dev_uf.find(i);
        if root != i {
            let absorbed = std::mem::take(&mut channels[i as usize]);
            channels[root as usize].absorb(&absorbed);
            let geometry = std::mem::take(&mut channel_geometry[i as usize]);
            channel_geometry[root as usize].extend(geometry);
        }
    }

    // Labels sitting exactly on a seam: the flat sweep tries the strip
    // above the line first (the label lies on its bottom edge), then
    // the strip below, probing diffusion, then poly, then metal unless
    // the label names a layer. Replay that against the seam contacts.
    let mut seam_names: Vec<(u32, String)> = Vec::new();
    let mut seam_unresolved = 0u64;
    for label in seam_labels {
        let s = cuts
            .binary_search(&label.at.y)
            .expect("seam labels sit on cuts");
        let above = band_window(results[s + 1]).face_contacts(Face::Bottom);
        let below = band_window(results[s]).face_contacts(Face::Top);
        match resolve_seam_label(label, &above, &spaces[s + 1])
            .or_else(|| resolve_seam_label(label, &below, &spaces[s]))
        {
            Some(net) => seam_names.push((net, label.name.clone())),
            None => seam_unresolved += 1,
        }
    }

    // Renumber into one canonical netlist: classes are numbered in
    // order of first appearance, bands bottom to top.
    let (net_map, classes) = net_uf.compress();
    let mut netlist = Netlist::new();
    for _ in 0..classes {
        netlist.add_net();
    }
    let mut locations: Vec<Option<Point>> = vec![None; classes];
    for (bi, r) in results.iter().enumerate() {
        for (local, net) in r.netlist.nets() {
            let id = NetId(net_map[spaces[bi].net(local) as usize]);
            for name in &net.names {
                netlist.add_name(id, name.clone());
            }
            if let Some(at) = net.location {
                // The flat location is the upper-left of the net's
                // bounding box; combine the per-band fragments'.
                let best = locations[id.0 as usize].get_or_insert(at);
                best.x = best.x.min(at.x);
                best.y = best.y.max(at.y);
            }
            if options.geometry_output {
                for &(layer, rect) in &net.geometry {
                    netlist.add_geometry(id, layer, rect);
                }
            }
            netlist.add_parasitics(id, &net.parasitics);
        }
    }
    // Remove each seam join's shared edge, double-counted by the two
    // bands' clipped fragments.
    for &(g, layer, len) in &seam_edges {
        let mut correction = NetParasitics::default();
        correction.sub_edge(layer, len);
        netlist.add_parasitics(NetId(net_map[g as usize]), &correction);
    }
    for (id, location) in locations.iter().enumerate() {
        if let Some(at) = location {
            netlist.set_location(NetId(id as u32), *at);
        }
    }
    for (net, name) in seam_names {
        netlist.add_name(NetId(net_map[net as usize]), name);
    }

    // Every completed device, merged or whole, is finalized with the
    // flat extractor's rules over its remapped nets. Only channels
    // touching a seam merge, so each merge completes one partial less.
    stats.partials_completed = seam_partials - stats.device_merges;
    let mut devices: Vec<Device> = Vec::with_capacity(channels.len());
    for (i, (mut channel, geometry)) in channels.into_iter().zip(channel_geometry).enumerate() {
        if dev_uf.find(i as u32) != i as u32 {
            continue;
        }
        channel.gate = net_map[channel.gate as usize];
        for t in &mut channel.terminals {
            t.0 = net_map[t.0 as usize];
        }
        let mut device = channel.finalize();
        if options.geometry_output {
            device.channel_geometry = merge_boxes(&geometry);
        }
        devices.push(device);
    }
    devices.sort_by_key(|d| {
        (
            d.location, d.kind, d.length, d.width, d.gate, d.source, d.drain,
        )
    });
    for device in devices {
        netlist.add_device(device);
    }
    netlist.name = name.to_string();

    for (counter, delta) in [
        (Counter::SeamContacts, stats.seam_contacts),
        (Counter::PairsMatched, stats.pairs_matched),
        (Counter::SeamNetUnions, stats.net_unions),
        (Counter::DeviceMerges, stats.device_merges),
        (Counter::TerminalContacts, stats.terminal_contacts),
        (Counter::PartialsCompleted, stats.partials_completed),
        (Counter::UnresolvedLabels, seam_unresolved),
    ] {
        p.add(Lane::MAIN, counter, delta);
    }
    p.exit(Lane::MAIN, Span::Stitch);
    netlist
}

fn band_window(r: &Extraction) -> &WindowExtraction {
    r.window.as_ref().expect("bands run in window mode")
}

/// One strip's worth of the flat sweep's label matching, replayed on
/// seam contacts: probe diffusion, poly, then metal (or only the
/// labeled layer) for a span containing the label's x.
fn resolve_seam_label(
    label: &FlatLabel,
    contacts: &[BoundaryContact],
    space: &BandSpace,
) -> Option<u32> {
    let layers: &[Layer] = match label.layer {
        Some(Layer::Diffusion) => &[Layer::Diffusion],
        Some(Layer::Poly) => &[Layer::Poly],
        Some(Layer::Metal) => &[Layer::Metal],
        // Labels on non-conducting layers or without a layer bind to
        // whatever conducting geometry is under them.
        _ => &[Layer::Diffusion, Layer::Poly, Layer::Metal],
    };
    for &layer in layers {
        for c in contacts {
            if c.layer != Some(layer) {
                continue;
            }
            if c.span.lo <= label.at.x && label.at.x <= c.span.hi {
                if let BoundarySignal::Net(net) = c.signal {
                    return Some(space.net(net));
                }
            }
        }
    }
    None
}
