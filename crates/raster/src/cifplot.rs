use ace_core::probe::{Counter, Lane, NullProbe, Probe};
use ace_core::{DeviceTable, Extraction, NetTable};
use ace_geom::{Coord, Layer};
use ace_layout::FlatLayout;
use ace_wirelist::Netlist;

use crate::finalize::{build_netlist, observed};
use crate::grid::{rasterize, CellMask};

const NONE: u32 = u32::MAX;

/// Per-cell handle planes for one row.
#[derive(Debug, Clone)]
struct RowHandles {
    metal: Vec<u32>,
    poly: Vec<u32>,
    diff: Vec<u32>,
    channel: Vec<u32>,
}

impl RowHandles {
    fn new(cols: usize) -> Self {
        RowHandles {
            metal: vec![NONE; cols],
            poly: vec![NONE; cols],
            diff: vec![NONE; cols],
            channel: vec![NONE; cols],
        }
    }

    fn clear(&mut self) {
        self.metal.fill(NONE);
        self.poly.fill(NONE);
        self.diff.fill(NONE);
        self.channel.fill(NONE);
    }
}

/// Naive full-grid raster extraction (Cifplot-style cost profile).
///
/// Every cell of the chip's bounding grid is materialized and
/// visited, including empty space — the behaviour the paper contrasts
/// ACE against ("a lot of time is wasted scanning over grid squares
/// where no information is to be gained", §2). The circuit produced
/// is identical to [`crate::extract_partlist`]'s; only the work
/// differs.
///
/// # Examples
///
/// ```
/// use ace_layout::{FlatLayout, Library};
/// use ace_raster::extract_cifplot;
///
/// let lib = Library::from_cif_text(
///     "L ND; B 500 2000 0 0; L NP; B 2000 500 0 0; E",
/// )?;
/// let r = extract_cifplot(&FlatLayout::from_library(&lib), "t", 250);
/// assert_eq!(r.netlist.device_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn extract_cifplot(flat: &FlatLayout, name: &str, pitch: Coord) -> Extraction {
    extract_cifplot_probed(flat, name, pitch, &NullProbe)
}

/// [`extract_cifplot`], reporting events to `probe` as it runs: one
/// [`Span::Extract`](ace_core::Span::Extract) around the scan, the
/// layout's [`Counter::Boxes`], and per grid row one
/// [`Counter::ScanlineStops`] plus the row's [`Counter::CellsVisited`].
/// The report is the view over those events.
pub fn extract_cifplot_probed(
    flat: &FlatLayout,
    name: &str,
    pitch: Coord,
    probe: &dyn Probe,
) -> Extraction {
    observed(flat, probe, |probe| scan(flat, name, pitch, probe))
}

fn scan(flat: &FlatLayout, name: &str, pitch: Coord, probe: &dyn Probe) -> Netlist {
    let grid = rasterize(flat, pitch);
    let cols = grid.cols.max(0) as usize;
    let mut nets = NetTable::new(false);
    let mut devices = DeviceTable::new(false);
    let mut unresolved = 0u64;

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

    let mut masks: Vec<CellMask> = vec![CellMask::EMPTY; cols];
    let mut above = RowHandles::new(cols);
    let mut here = RowHandles::new(cols);

    for (r, runs) in grid.rows.iter().enumerate() {
        probe.add(Lane::MAIN, Counter::ScanlineStops, 1);
        probe.add(Lane::MAIN, Counter::CellsVisited, cols as u64);
        // Materialize the full row (this is the deliberate
        // inefficiency).
        masks.fill(CellMask::EMPTY);
        for run in runs {
            for c in run.c0.max(0)..run.c1.min(cols as i64) {
                masks[c as usize] = run.mask;
            }
        }
        here.clear();

        #[allow(clippy::needless_range_loop)] // visiting every cell is the point
        for c in 0..cols {
            let mask = masks[c];
            if mask.is_empty() {
                continue;
            }
            let rect = grid.cell_rect(r, c as i64, c as i64 + 1);

            // Allocate or inherit per-layer handles, connecting to
            // the left and top cells of the L-shaped window.
            let take = |present: bool,
                        layer: Layer,
                        plane: fn(&RowHandles) -> &Vec<u32>,
                        nets: &mut NetTable|
             -> u32 {
                if !present {
                    return NONE;
                }
                let left = if c > 0 { plane(&here)[c - 1] } else { NONE };
                let top = plane(&above)[c];
                let n = if left != NONE {
                    left
                } else if top != NONE {
                    top
                } else {
                    nets.fresh()
                };
                if left != NONE && top != NONE {
                    nets.union(left, top);
                }
                nets.add_geometry(n, layer, rect);
                // add_geometry counts the cell's full perimeter;
                // remove the edges shared with occupied neighbors.
                if left != NONE {
                    nets.sub_perimeter(n, layer, pitch);
                }
                if top != NONE {
                    nets.sub_perimeter(n, layer, pitch);
                }
                n
            };
            let metal = take(
                mask.has(Layer::Metal),
                Layer::Metal,
                |h| &h.metal,
                &mut nets,
            );
            let poly = take(mask.has(Layer::Poly), Layer::Poly, |h| &h.poly, &mut nets);
            let diff = take(
                mask.has_conducting_diff(),
                Layer::Diffusion,
                |h| &h.diff,
                &mut nets,
            );

            let channel = if mask.is_channel() {
                let left = if c > 0 { here.channel[c - 1] } else { NONE };
                let top = above.channel[c];
                let d = if left != NONE {
                    devices.add_channel(left, rect);
                    left
                } else if top != NONE {
                    devices.add_channel(top, rect);
                    top
                } else {
                    devices.fresh(rect)
                };
                if left != NONE && top != NONE {
                    devices.union(left, top, &mut nets);
                }
                devices.set_gate(d, poly, &mut nets);
                if mask.has(Layer::Implant) {
                    devices.set_depletion(d);
                }
                // Terminals: conducting diffusion to the left/top.
                if c > 0 && here.diff[c - 1] != NONE {
                    devices.add_terminal_contact(d, here.diff[c - 1], pitch);
                }
                if above.diff[c] != NONE {
                    devices.add_terminal_contact(d, above.diff[c], pitch);
                }
                d
            } else {
                // A diffusion cell bordering a channel on its left or
                // top contributes the symmetric terminal edges.
                if diff != NONE {
                    if c > 0 && here.channel[c - 1] != NONE {
                        devices.add_terminal_contact(here.channel[c - 1], diff, pitch);
                    }
                    if above.channel[c] != NONE {
                        devices.add_terminal_contact(above.channel[c], diff, pitch);
                    }
                }
                NONE
            };

            if mask.is_buried_contact() {
                nets.union(diff, poly);
            }
            if mask.has(Layer::Cut) {
                let conducting: Vec<u32> = [metal, poly, diff]
                    .into_iter()
                    .filter(|&h| h != NONE)
                    .collect();
                for pair in conducting.windows(2) {
                    nets.union(pair[0], pair[1]);
                }
                // The cell is cut ∩ conducting; any conducting
                // handle reaches the merged root.
                if let Some(&n) = conducting.first() {
                    nets.add_cut_area(n, pitch * pitch);
                }
            }

            here.metal[c] = metal;
            here.poly[c] = poly;
            here.diff[c] = diff;
            here.channel[c] = channel;
        }

        while next_label < labels.len() && labels[next_label].0 == r {
            let (_, col, layer, lname) = labels[next_label];
            next_label += 1;
            let c = col.clamp(0, cols as i64 - 1) as usize;
            let handle = match layer {
                Some(Layer::Metal) => here.metal[c],
                Some(Layer::Poly) => here.poly[c],
                Some(Layer::Diffusion) => here.diff[c],
                _ => [here.diff[c], here.poly[c], here.metal[c]]
                    .into_iter()
                    .find(|&h| h != NONE)
                    .unwrap_or(NONE),
            };
            if handle != NONE {
                nets.add_name(handle, lname);
            } else {
                unresolved += 1;
            }
        }

        std::mem::swap(&mut above, &mut here);
    }
    unresolved += (labels.len() - next_label) as u64;
    probe.add(Lane::MAIN, Counter::UnresolvedLabels, unresolved);
    build_netlist(nets, devices, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::CounterProbe;
    use ace_geom::LAMBDA;
    use ace_layout::Library;

    /// Extracts `src`, returning the extraction and its visited cells.
    fn run(src: &str) -> (Extraction, u64) {
        let lib = Library::from_cif_text(src).expect("parse");
        let probe = CounterProbe::new();
        let r = extract_cifplot_probed(&FlatLayout::from_library(&lib), "test", LAMBDA, &probe);
        (r, probe.total(Counter::CellsVisited))
    }

    #[test]
    fn single_transistor() {
        let (r, _) = run("L ND; B 500 2000 0 0; L NP; B 2000 500 0 0; E");
        assert_eq!(r.netlist.device_count(), 1);
        let d = &r.netlist.devices()[0];
        assert_eq!((d.length, d.width), (500, 500));
    }

    #[test]
    fn visits_every_cell_including_empty_space() {
        // Two tiny boxes far apart: the full-grid scan pays for the
        // emptiness between them.
        let (r, cells) = run("L NM; B 250 250 125 125; B 250 250 10125 125; E");
        assert_eq!(cells, 41); // 41 columns × 1 row
        assert_eq!(r.report.scanline_stops, 1);
        assert_eq!(r.netlist.device_count(), 0);
    }

    #[test]
    fn agrees_with_partlist() {
        let src = "
            L ND; B 500 3000 250 0;
            L NP; B 1500 500 250 -750;
            L NP; B 500 500 250 750;
            L NI; B 750 750 250 750;
            L NM; B 1000 500 250 1250;
            L NC; B 250 250 250 1250;
            94 A 250 1250 NM;
            E";
        let lib = Library::from_cif_text(src).unwrap();
        let flat = FlatLayout::from_library(&lib);
        let (cells, runs) = (CounterProbe::new(), CounterProbe::new());
        let a = extract_cifplot_probed(&flat, "x", LAMBDA, &cells);
        let b = crate::extract_partlist_probed(&flat, "x", LAMBDA, &runs);
        ace_wirelist::compare::same_circuit(&a.netlist, &b.netlist)
            .expect("cifplot and partlist agree");
        assert!(cells.total(Counter::CellsVisited) > runs.total(Counter::RunsVisited));
    }

    #[test]
    fn labels_resolve() {
        let (r, _) = run("L NM; B 1000 1000 0 0; 94 SIG 0 0; E");
        assert!(r.netlist.net_by_name("SIG").is_some());
        assert_eq!(r.report.unresolved_labels, 0);
    }

    #[test]
    fn empty_layout() {
        let (r, cells) = run("E");
        assert_eq!(cells, 0);
        assert_eq!(r.netlist.device_count(), 0);
    }
}
