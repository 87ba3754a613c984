use ace_core::{BoundarySignal, Face, WindowExtraction};
use ace_geom::{Coord, Interval, Layer, Rect};
use ace_wirelist::{PartDef, PartId};

/// What one interface element carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IfaceSignal {
    /// A conducting-layer net, as a local net id of the window's part.
    Net(u32),
    /// A transistor channel, as an index into the window's partial
    /// device list.
    Channel(u32),
}

/// One element of a window's interface-segment list.
///
/// "Associated with each boundary segment is information about its
/// endpoints, and a sorted list of rectangle edges (one list for each
/// of the conducting layers) touching the boundary segment … The
/// interface for a window also contains a list of partial
/// transistors." (HEXT §3.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfaceElem {
    /// Which side of the window the element faces.
    pub face: Face,
    /// The fixed coordinate of the boundary line: x for left/right
    /// faces, y for top/bottom faces (window-local coordinates).
    pub at: Coord,
    /// Contact extent along the boundary (y-interval for left/right,
    /// x-interval for top/bottom).
    pub span: Interval,
    /// Conducting layer, or `None` for channel elements.
    pub layer: Option<Layer>,
    /// The signal carried.
    pub signal: IfaceSignal,
}

// The partial-transistor record and its merge/finalize rules are
// shared with the band-parallel extractor and live in `ace-wirelist`.
pub use ace_wirelist::PartialDevice;

/// One analyzed window: its region, circuit fragment (a part of the
/// output hierarchical wirelist), interface, and unfinished partial
/// transistors.
///
/// Coordinates are window-local: the region's lower-left corner is at
/// the origin, which is what makes identical windows hash equal and
/// lets one `WindowCircuit` be instantiated at many positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowCircuit {
    /// The covered region as disjoint rectangles (a single rect for
    /// primitive windows; composed windows may be "complex" —
    /// non-rectangular but hole-free).
    pub region: Vec<Rect>,
    /// The circuit fragment in the output wirelist.
    pub part: PartId,
    /// Number of local nets in `part` (cached from the PartDef).
    pub net_count: u32,
    /// Interface elements, sorted by (face, at, span).
    pub iface: Vec<IfaceElem>,
    /// Partial transistors, indexed by [`IfaceSignal::Channel`].
    pub partials: Vec<PartialDevice>,
}

impl WindowCircuit {
    /// Bounding box of the region.
    pub fn bounding_box(&self) -> Rect {
        let mut it = self.region.iter();
        let first = *it.next().expect("window region is non-empty");
        it.fold(first, |acc, r| acc.bounding_union(r))
    }

    /// The y-intervals along which the region covers the space
    /// immediately **right** of the vertical line `x` (when
    /// `right_of`), or immediately left of it otherwise. Used to
    /// decide which parts of a neighbour's boundary become interior
    /// after composition.
    pub fn vertical_cover(&self, x: Coord, right_of: bool) -> ace_geom::IntervalSet {
        self.region
            .iter()
            .filter(|r| {
                if right_of {
                    r.x_min <= x && x < r.x_max
                } else {
                    r.x_min < x && x <= r.x_max
                }
            })
            .map(|r| Interval::new(r.y_min, r.y_max))
            .collect()
    }

    /// The x-intervals along which the region covers the space
    /// immediately **above** the horizontal line `y` (when
    /// `above`), or immediately below it otherwise.
    pub fn horizontal_cover(&self, y: Coord, above: bool) -> ace_geom::IntervalSet {
        self.region
            .iter()
            .filter(|r| {
                if above {
                    r.y_min <= y && y < r.y_max
                } else {
                    r.y_min < y && y <= r.y_max
                }
            })
            .map(|r| Interval::new(r.x_min, r.x_max))
            .collect()
    }
}

/// Converts a window-mode flat extraction into a [`PartDef`] plus the
/// window's interface and partial transistors.
///
/// Completed devices stay inside the part; partial devices (those the
/// boundary cuts) are pulled out into [`PartialDevice`] records, and
/// every net referenced by the interface or a partial device is
/// exported.
pub fn window_circuit_from_extraction(
    extraction: &ace_core::Extraction,
    window: &WindowExtraction,
    part_name: String,
) -> (PartDef, Vec<IfaceElem>, Vec<PartialDevice>) {
    let netlist = &extraction.netlist;
    let mut part = PartDef {
        name: part_name,
        net_count: netlist.net_count() as u32,
        ..PartDef::default()
    };
    for (id, net) in netlist.nets() {
        for name in &net.names {
            part.net_names.push((id.0, name.clone()));
        }
        if let Some(at) = net.location {
            part.net_locations.push((id.0, at));
        }
        if !net.parasitics.is_zero() {
            part.net_parasitics.push((id.0, net.parasitics));
        }
    }

    // Split devices into completed (stay in the part) and partial.
    let mut partials: Vec<PartialDevice> = Vec::new();
    let mut partial_index: Vec<Option<u32>> = vec![None; netlist.device_count()];
    for (i, device) in netlist.devices().iter().enumerate() {
        let detail = &window.device_details[i];
        if detail.partial {
            partial_index[i] = Some(partials.len() as u32);
            partials.push(detail.channel.clone());
        } else {
            part.devices.push(device.clone());
        }
    }

    // Interface elements, with the face line coordinate attached.
    let rect = window.window;
    let mut iface: Vec<IfaceElem> = window
        .contacts
        .iter()
        .map(|c| {
            let at = match c.face {
                Face::Left => rect.x_min,
                Face::Right => rect.x_max,
                Face::Bottom => rect.y_min,
                Face::Top => rect.y_max,
            };
            let signal = match c.signal {
                BoundarySignal::Net(n) => IfaceSignal::Net(n.0),
                BoundarySignal::Channel(device) => IfaceSignal::Channel(
                    partial_index[device].expect("boundary channel implies partial"),
                ),
            };
            IfaceElem {
                face: c.face,
                at,
                span: c.span,
                layer: c.layer,
                signal,
            }
        })
        .collect();
    iface.sort_by_key(|e| (e.face as u8, e.at, e.span.lo, e.span.hi));

    // Exports: interface nets + nets referenced by partial devices.
    let mut exports: Vec<u32> = iface
        .iter()
        .filter_map(|e| match e.signal {
            IfaceSignal::Net(n) => Some(n),
            IfaceSignal::Channel(_) => None,
        })
        .collect();
    for p in &partials {
        exports.push(p.gate);
        exports.extend(p.terminals.iter().map(|&(n, _)| n));
    }
    exports.sort_unstable();
    exports.dedup();
    part.exports = exports;

    (part, iface, partials)
}

#[cfg(test)]
mod tests {
    use super::*;

    // PartialDevice's finalize/absorb tests live with the struct in
    // ace-wirelist (crates/wirelist/src/partial.rs).

    #[test]
    fn covers_report_adjacent_coverage() {
        use ace_geom::IntervalSet;
        let set = |pairs: &[(Coord, Coord)]| -> IntervalSet {
            pairs
                .iter()
                .map(|&(lo, hi)| Interval::new(lo, hi))
                .collect()
        };
        let w = WindowCircuit {
            region: vec![Rect::new(0, 0, 10, 10), Rect::new(10, 0, 20, 5)],
            part: PartId(0),
            net_count: 0,
            iface: vec![],
            partials: vec![],
        };
        assert_eq!(w.bounding_box(), Rect::new(0, 0, 20, 10));
        // Coverage right of x=0: the full left column.
        assert_eq!(w.vertical_cover(0, true), set(&[(0, 10)]));
        // Coverage right of x=10: only the lower rect continues.
        assert_eq!(w.vertical_cover(10, true), set(&[(0, 5)]));
        // Coverage left of x=10: the upper rect.
        assert_eq!(w.vertical_cover(10, false), set(&[(0, 10)]));
        // Coverage above y=0 spans both rects (coalesced).
        assert_eq!(w.horizontal_cover(0, true), set(&[(0, 20)]));
        // Nothing below y=0.
        assert!(w.horizontal_cover(0, false).is_empty());
    }
}
