//! Partial transistors: channel fragments cut by a window or band
//! boundary, merged and finalized by the stitching passes.
//!
//! Both HEXT's window composition (`ace-hext`) and the band-parallel
//! extractor (`ace-core`'s `parallel` module) split transistors whose
//! channel crosses a boundary and later reassemble them from these
//! records, so the accumulation and finalization rules live here, next
//! to the [`Device`] model they produce.

use ace_geom::{Coord, Point, Rect};

use crate::model::{Device, DeviceKind, NetId};

/// A transistor whose channel touches a window or band boundary; its
/// final form "is determined by the contents of the windows adjacent
/// to the partial transistor" (HEXT §3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartialDevice {
    /// Channel area inside this window.
    pub area: i64,
    /// Channel bounding box (window-local).
    pub bbox: Rect,
    /// `true` if implant covers the channel.
    pub depletion: bool,
    /// Gate net (local net id).
    pub gate: u32,
    /// Diffusion terminal contacts `(local net, edge length)`.
    pub terminals: Vec<(u32, Coord)>,
}

impl PartialDevice {
    /// The one width/length rule, shared by the flat sweep, the band
    /// stitch and HEXT: width is the mean of the two largest
    /// distinct-net terminal contacts, length is area / width, and a
    /// channel with fewer than two distinct terminals is a capacitor.
    /// Coalesces the terminals by net and sorts them longest first, in
    /// place.
    pub fn finalize(&mut self) -> Device {
        let terminals = &mut self.terminals;
        terminals.sort_unstable_by_key(|&(net, _)| net);
        terminals.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 += a.1;
                true
            } else {
                false
            }
        });
        terminals.sort_unstable_by_key(|&(_, len)| -len);

        let gate = NetId(self.gate);
        let (kind, source, drain, width) = match terminals.len() {
            0 => {
                let side = integer_sqrt(self.area).max(1);
                (DeviceKind::Capacitor, gate, gate, side)
            }
            1 => {
                let n = NetId(terminals[0].0);
                (DeviceKind::Capacitor, n, n, terminals[0].1.max(0))
            }
            _ => {
                let s = NetId(terminals[0].0);
                let d = NetId(terminals[1].0);
                let kind = if self.depletion {
                    DeviceKind::Depletion
                } else {
                    DeviceKind::Enhancement
                };
                (kind, s, d, ((terminals[0].1 + terminals[1].1) / 2).max(0))
            }
        };
        // Zero-length source/drain edges would make `area / width`
        // blow up; emit the 0×0 marker [`crate::DeviceDim::Degenerate`]
        // instead.
        let length = if width > 0 {
            (self.area / width).max(1)
        } else {
            0
        };
        Device {
            kind,
            gate,
            source,
            drain,
            length,
            width,
            location: Point::new(self.bbox.x_min, self.bbox.y_max),
            channel_geometry: Vec::new(),
        }
    }

    /// Merges another partial transistor's contribution into this one
    /// (the two channel fragments are the same device).
    pub fn absorb(&mut self, other: &PartialDevice) {
        self.area += other.area;
        self.bbox = self.bbox.bounding_union(&other.bbox);
        self.depletion |= other.depletion;
        self.terminals.extend_from_slice(&other.terminals);
        // Gate nets are unified by the caller's equivalences; keep
        // ours.
    }
}

fn integer_sqrt(v: i64) -> i64 {
    if v <= 0 {
        return 0;
    }
    let mut x = (v as f64).sqrt() as i64;
    while (x + 1) * (x + 1) <= v {
        x += 1;
    }
    while x * x > v {
        x -= 1;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalize_two_terminals() {
        let mut p = PartialDevice {
            area: 400 * 400,
            bbox: Rect::new(0, 0, 400, 400),
            depletion: false,
            gate: 0,
            terminals: vec![(1, 400), (2, 400)],
        };
        let d = p.finalize();
        assert_eq!(d.kind, DeviceKind::Enhancement);
        assert_eq!((d.length, d.width), (400, 400));
        assert_eq!(d.location, Point::new(0, 400));
    }

    #[test]
    fn finalize_dedupes_terminals_by_net() {
        let mut p = PartialDevice {
            area: 800,
            bbox: Rect::new(0, 0, 40, 20),
            depletion: true,
            gate: 0,
            terminals: vec![(1, 10), (1, 10), (2, 20)],
        };
        let d = p.finalize();
        assert_eq!(d.kind, DeviceKind::Depletion);
        assert_eq!(d.width, (20 + 20) / 2);
    }

    #[test]
    fn finalize_single_terminal_is_capacitor() {
        let mut p = PartialDevice {
            area: 100,
            bbox: Rect::new(0, 0, 10, 10),
            depletion: false,
            gate: 3,
            terminals: vec![(7, 10)],
        };
        let d = p.finalize();
        assert_eq!(d.kind, DeviceKind::Capacitor);
        assert_eq!(d.source, d.drain);
        assert_eq!(d.source, NetId(7));
    }

    #[test]
    fn finalize_zero_terminal_capacitor_uses_sqrt_width() {
        let mut p = PartialDevice {
            area: 10_000,
            bbox: Rect::new(0, 0, 100, 100),
            depletion: false,
            gate: 5,
            terminals: vec![],
        };
        let d = p.finalize();
        assert_eq!(d.kind, DeviceKind::Capacitor);
        assert_eq!(d.width, 100);
        assert_eq!(d.length, 100);
        assert_eq!(d.gate, NetId(5));
    }

    #[test]
    fn finalize_zero_length_edges_is_degenerate_not_infinite() {
        use crate::model::DeviceDim;
        // A seam artifact: two terminal contacts that both collapsed
        // to zero length. The old `.max(1)` clamp turned this into a
        // width-1 device with length == area (an ∞-style L); now the
        // division is skipped and the dimension reads as degenerate.
        let mut p = PartialDevice {
            area: 400 * 400,
            bbox: Rect::new(0, 0, 400, 400),
            depletion: false,
            gate: 0,
            terminals: vec![(1, 0), (2, 0)],
        };
        let d = p.finalize();
        assert_eq!((d.length, d.width), (0, 0));
        assert_eq!(d.dim(), DeviceDim::Degenerate);

        // Same for a single zero-length terminal (capacitor path).
        let mut p = PartialDevice {
            terminals: vec![(1, 0)],
            ..p
        };
        assert_eq!(p.finalize().dim(), DeviceDim::Degenerate);

        // A healthy device still reports its channel.
        let mut p = PartialDevice {
            terminals: vec![(1, 400), (2, 400)],
            ..p
        };
        assert_eq!(
            p.finalize().dim(),
            DeviceDim::Channel {
                length: 400,
                width: 400
            }
        );
    }

    #[test]
    fn integer_sqrt_basics() {
        assert_eq!(integer_sqrt(0), 0);
        assert_eq!(integer_sqrt(1), 1);
        assert_eq!(integer_sqrt(99), 9);
        assert_eq!(integer_sqrt(100), 10);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = PartialDevice {
            area: 100,
            bbox: Rect::new(0, 0, 10, 10),
            depletion: false,
            gate: 0,
            terminals: vec![(1, 5)],
        };
        let b = PartialDevice {
            area: 200,
            bbox: Rect::new(10, 0, 30, 10),
            depletion: true,
            gate: 9,
            terminals: vec![(2, 5)],
        };
        a.absorb(&b);
        assert_eq!(a.area, 300);
        assert_eq!(a.bbox, Rect::new(0, 0, 30, 10));
        assert!(a.depletion);
        assert_eq!(a.terminals.len(), 2);
        assert_eq!(a.gate, 0); // caller handles gate equivalence
    }
}
