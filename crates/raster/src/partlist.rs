use ace_core::probe::{Counter, Lane, NullProbe, Probe};
use ace_core::{DeviceTable, Extraction, NetTable};
use ace_geom::{Coord, Layer};
use ace_layout::FlatLayout;
use ace_wirelist::Netlist;

use crate::finalize::{build_netlist, observed};
use crate::grid::{rasterize, Run};

/// Net/device handles carried by one run.
#[derive(Debug, Clone, Copy, Default)]
struct RunHandles {
    c0: i64,
    c1: i64,
    metal: Option<u32>,
    poly: Option<u32>,
    diff: Option<u32>,
    channel: Option<u32>,
}

/// Run-encoded raster-scan extraction (Partlist-style).
///
/// The layout is rasterized at `pitch` (λ in the paper) and scanned
/// top-to-bottom, left-to-right. Within a row, constant-coverage
/// spans are processed as *runs*; the L-shaped window becomes "this
/// run, the run to its left, and the overlapping runs of the row
/// above". Connectivity, device recognition, and the width/length
/// rules are identical to the scanline extractor, so on λ-aligned
/// layouts both produce the same circuit — only the amount of work
/// differs.
///
/// # Examples
///
/// ```
/// use ace_layout::{FlatLayout, Library};
/// use ace_raster::extract_partlist;
///
/// let lib = Library::from_cif_text(
///     "L ND; B 500 2000 0 0; L NP; B 2000 500 0 0; E",
/// )?;
/// let r = extract_partlist(&FlatLayout::from_library(&lib), "t", 250);
/// assert_eq!(r.netlist.device_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn extract_partlist(flat: &FlatLayout, name: &str, pitch: Coord) -> Extraction {
    extract_partlist_probed(flat, name, pitch, &NullProbe)
}

/// [`extract_partlist`], reporting events to `probe` as it runs: one
/// [`Span::Extract`](ace_core::Span::Extract) around the scan, the
/// layout's [`Counter::Boxes`], and per grid row one
/// [`Counter::ScanlineStops`] plus the row's [`Counter::RunsVisited`].
/// The report is the view over those events.
pub fn extract_partlist_probed(
    flat: &FlatLayout,
    name: &str,
    pitch: Coord,
    probe: &dyn Probe,
) -> Extraction {
    observed(flat, probe, |probe| scan(flat, name, pitch, probe))
}

fn scan(flat: &FlatLayout, name: &str, pitch: Coord, probe: &dyn Probe) -> Netlist {
    let grid = rasterize(flat, pitch);
    let mut nets = NetTable::new(false);
    let mut devices = DeviceTable::new(false);
    let mut unresolved = 0u64;

    // Labels mapped onto the grid, sorted by row.
    let mut labels: Vec<(usize, i64, Option<Layer>, &str)> = flat
        .labels()
        .iter()
        .map(|l| {
            let (r, c) = grid.locate(l.at.x, l.at.y);
            (r, c, l.layer, l.name.as_str())
        })
        .collect();
    labels.sort_by_key(|&(r, c, _, _)| (r, c));
    let mut next_label = 0usize;

    let mut prev: Vec<RunHandles> = Vec::new();
    for (r, runs) in grid.rows.iter().enumerate() {
        probe.add(Lane::MAIN, Counter::ScanlineStops, 1);
        probe.add(Lane::MAIN, Counter::RunsVisited, runs.len() as u64);
        let mut cur: Vec<RunHandles> = Vec::with_capacity(runs.len());

        for run in runs {
            let h = process_run(&grid, r, run, &mut nets, &mut devices, pitch, cur.last());
            cur.push(h);
        }

        link_rows(&prev, &cur, pitch, &mut nets, &mut devices);

        // Resolve this row's labels.
        while next_label < labels.len() && labels[next_label].0 == r {
            let (_, col, layer, lname) = labels[next_label];
            next_label += 1;
            let handle = cur
                .iter()
                .find(|h| h.c0 <= col && col < h.c1)
                .and_then(|h| match layer {
                    Some(Layer::Metal) => h.metal,
                    Some(Layer::Poly) => h.poly,
                    Some(Layer::Diffusion) => h.diff,
                    _ => h.diff.or(h.poly).or(h.metal),
                });
            match handle {
                Some(n) => nets.add_name(n, lname),
                None => unresolved += 1,
            }
        }

        prev = cur;
    }
    unresolved += (labels.len() - next_label) as u64;
    probe.add(Lane::MAIN, Counter::UnresolvedLabels, unresolved);
    build_netlist(nets, devices, name)
}

/// Handles one run: allocate handles, apply same-cell layer joins,
/// and connect to the run on its left.
fn process_run(
    grid: &crate::grid::RowRuns,
    row: usize,
    run: &Run,
    nets: &mut NetTable,
    devices: &mut DeviceTable,
    pitch: Coord,
    left: Option<&RunHandles>,
) -> RunHandles {
    let rect = grid.cell_rect(row, run.c0, run.c1);
    let mut h = RunHandles {
        c0: run.c0,
        c1: run.c1,
        ..RunHandles::default()
    };
    if run.mask.has(Layer::Metal) {
        let n = nets.fresh();
        nets.add_geometry(n, Layer::Metal, rect);
        h.metal = Some(n);
    }
    if run.mask.has(Layer::Poly) {
        let n = nets.fresh();
        nets.add_geometry(n, Layer::Poly, rect);
        h.poly = Some(n);
    }
    if run.mask.has_conducting_diff() {
        let n = nets.fresh();
        nets.add_geometry(n, Layer::Diffusion, rect);
        h.diff = Some(n);
    }
    if run.mask.is_channel() {
        let d = devices.fresh(rect);
        devices.set_gate(d, h.poly.expect("channel implies poly"), nets);
        if run.mask.has(Layer::Implant) {
            devices.set_depletion(d);
        }
        h.channel = Some(d);
    }
    if run.mask.is_buried_contact() {
        nets.union(
            h.diff.expect("buried contact implies diffusion"),
            h.poly.expect("buried contact implies poly"),
        );
    }
    if run.mask.has(Layer::Cut) {
        let conducting: Vec<u32> = [h.metal, h.poly, h.diff].into_iter().flatten().collect();
        for pair in conducting.windows(2) {
            nets.union(pair[0], pair[1]);
        }
        // The whole run is cut ∩ conducting; the cross-layer unions
        // above make any conducting handle reach the merged root.
        if let Some(&n) = conducting.first() {
            nets.add_cut_area(n, (run.c1 - run.c0) * pitch * pitch);
        }
    }

    // The left element of the L-shaped window.
    if let Some(l) = left {
        if l.c1 == run.c0 {
            for (a, b, layer) in [
                (l.metal, h.metal, Layer::Metal),
                (l.poly, h.poly, Layer::Poly),
                (l.diff, h.diff, Layer::Diffusion),
            ] {
                if let (Some(a), Some(b)) = (a, b) {
                    let root = nets.union(a, b);
                    nets.sub_perimeter(root, layer, pitch);
                }
            }
            if let (Some(a), Some(b)) = (l.channel, h.channel) {
                devices.union(a, b, nets);
            }
            if let (Some(k), Some(d)) = (l.channel, h.diff) {
                devices.add_terminal_contact(k, d, pitch);
            }
            if let (Some(d), Some(k)) = (l.diff, h.channel) {
                devices.add_terminal_contact(k, d, pitch);
            }
        }
    }
    h
}

/// The top element of the L-shaped window: connect each run to the
/// overlapping runs of the row above.
fn link_rows(
    prev: &[RunHandles],
    cur: &[RunHandles],
    pitch: Coord,
    nets: &mut NetTable,
    devices: &mut DeviceTable,
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < prev.len() && j < cur.len() {
        let a = prev[i];
        let b = cur[j];
        let lo = a.c0.max(b.c0);
        let hi = a.c1.min(b.c1);
        if hi > lo {
            let len = (hi - lo) * pitch;
            for (x, y, layer) in [
                (a.metal, b.metal, Layer::Metal),
                (a.poly, b.poly, Layer::Poly),
                (a.diff, b.diff, Layer::Diffusion),
            ] {
                if let (Some(x), Some(y)) = (x, y) {
                    let root = nets.union(x, y);
                    nets.sub_perimeter(root, layer, len);
                }
            }
            if let (Some(x), Some(y)) = (a.channel, b.channel) {
                devices.union(x, y, nets);
            }
            if let (Some(k), Some(d)) = (a.channel, b.diff) {
                devices.add_terminal_contact(k, d, len);
            }
            if let (Some(d), Some(k)) = (a.diff, b.channel) {
                devices.add_terminal_contact(k, d, len);
            }
        }
        if a.c1 <= b.c1 {
            i += 1;
        } else {
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::CounterProbe;
    use ace_geom::LAMBDA;
    use ace_layout::Library;
    use ace_wirelist::DeviceKind;

    fn run_probed(src: &str, probe: &dyn Probe) -> Extraction {
        let lib = Library::from_cif_text(src).expect("parse");
        extract_partlist_probed(&FlatLayout::from_library(&lib), "test", LAMBDA, probe)
    }

    fn run(src: &str) -> Extraction {
        run_probed(src, &NullProbe)
    }

    #[test]
    fn single_transistor() {
        let r = run("L ND; B 500 2000 0 0; L NP; B 2000 500 0 0; E");
        assert_eq!(r.netlist.device_count(), 1);
        let d = &r.netlist.devices()[0];
        assert_eq!(d.kind, DeviceKind::Enhancement);
        assert_eq!((d.length, d.width), (500, 500));
        assert_ne!(d.source, d.drain);
    }

    #[test]
    fn depletion_and_buried() {
        // Depletion transistor.
        let r = run("L ND; B 500 2000 0 0; L NP; B 2000 500 0 0; L NI; B 750 750 0 0; E");
        assert_eq!(r.netlist.device_census(), (0, 1, 0));
        // Buried contact suppresses the transistor.
        let r = run("L ND; B 500 2000 0 0; L NP; B 2000 500 0 0; L NB; B 750 750 0 0; E");
        assert_eq!(r.netlist.device_count(), 0);
    }

    #[test]
    fn cut_connects_layers() {
        let r = run(
            "L NM; B 1000 1000 0 0; L NP; B 1000 1000 0 0; L NC; B 250 250 0 0;
             94 M -375 125 NM; 94 P 375 125 NP; E",
        );
        assert_eq!(r.netlist.net_by_name("M"), r.netlist.net_by_name("P"));
        assert!(r.netlist.net_by_name("M").is_some());
    }

    #[test]
    fn disjoint_nets_stay_apart() {
        let r = run("L NM; B 500 250 250 125; B 500 250 1750 125;
             94 A 250 125; 94 B 1750 125; E");
        assert_ne!(r.netlist.net_by_name("A"), r.netlist.net_by_name("B"));
    }

    #[test]
    fn report_counts_rows_and_runs() {
        let probe = CounterProbe::new();
        let r = run_probed("L NM; B 1000 1000 0 0; E", &probe);
        assert_eq!(r.report.scanline_stops, 4); // one stop per row
        assert_eq!(probe.total(Counter::RunsVisited), 4);
        assert_eq!(r.report.boxes, 1);
        assert_eq!(r.report.unresolved_labels, 0);
        assert!(r.report.total_time > std::time::Duration::ZERO);
    }

    #[test]
    fn matches_scanline_extractor_on_aligned_layout() {
        let src = "
            L ND; B 500 3000 250 0;
            L NP; B 1500 500 250 -750;
            L NP; B 500 500 250 750;
            L NI; B 750 750 250 750;
            L NM; B 1000 500 250 1250;
            L NC; B 250 250 250 1250;
            E";
        let lib = Library::from_cif_text(src).unwrap();
        let flat = FlatLayout::from_library(&lib);
        let raster = extract_partlist(&flat, "x", LAMBDA);
        let scan = ace_core::extract_flat(flat, "x", ace_core::ExtractOptions::new()).unwrap();
        ace_wirelist::compare::same_circuit(&raster.netlist, &scan.netlist)
            .expect("partlist and ACE agree");
    }

    #[test]
    fn empty_layout() {
        let r = run("E");
        assert_eq!(r.netlist.device_count(), 0);
        assert_eq!(r.report.scanline_stops, 0);
    }
}
