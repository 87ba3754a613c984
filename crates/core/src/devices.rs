use ace_geom::{Coord, Rect};
use ace_wirelist::{Device, PartialDevice, UnionFind};

use crate::nets::NetTable;

/// Accumulated state of one (possibly still growing) device.
///
/// Channel fragments that later turn out to belong to the same
/// transistor are merged by unioning their accumulators; the final
/// length/width computation happens once, at output time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceAccumulator {
    /// Total channel area so far.
    pub area: i64,
    /// Bounding box of the channel.
    pub bbox: Option<Rect>,
    /// Gate net handle (poly over the channel), once seen.
    pub gate: Option<u32>,
    /// `(net handle, contact length)` pairs for diffusion terminals.
    /// Handles are resolved to roots and coalesced lazily.
    pub terminals: Vec<(u32, Coord)>,
    /// `true` once implant has been seen over the channel.
    pub depletion: bool,
    /// Channel rectangles (only when geometry output is enabled).
    pub geometry: Vec<Rect>,
}

impl DeviceAccumulator {
    fn absorb(&mut self, mut other: DeviceAccumulator) {
        self.area += other.area;
        self.bbox = match (self.bbox, other.bbox) {
            (Some(a), Some(b)) => Some(a.bounding_union(&b)),
            (a, b) => a.or(b),
        };
        // When both sides carry a gate handle the caller has already
        // unioned the two nets, so keeping either handle is correct.
        self.gate = self.gate.or(other.gate);
        self.terminals.append(&mut other.terminals);
        self.depletion |= other.depletion;
        self.geometry.append(&mut other.geometry);
    }
}

/// Union-find over channel fragments, with per-root accumulators.
///
/// # Examples
///
/// ```
/// use ace_core::{DeviceTable, NetTable};
/// use ace_geom::Rect;
///
/// let mut nets = NetTable::new(false);
/// let mut devs = DeviceTable::new(false);
/// let d1 = devs.fresh(Rect::new(0, 0, 4, 2));
/// let d2 = devs.fresh(Rect::new(0, 2, 4, 6));
/// devs.union(d1, d2, &mut nets);
/// assert_eq!(devs.accumulator(d1).area, 4 * 2 + 4 * 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeviceTable {
    uf: UnionFind,
    accum: Vec<DeviceAccumulator>,
    record_geometry: bool,
}

impl DeviceTable {
    /// Creates an empty table.
    pub fn new(record_geometry: bool) -> Self {
        DeviceTable {
            uf: UnionFind::new(),
            accum: Vec::new(),
            record_geometry,
        }
    }

    /// Creates a fresh device from its first channel rectangle.
    pub fn fresh(&mut self, channel: Rect) -> u32 {
        let mut acc = DeviceAccumulator {
            area: channel.area(),
            bbox: Some(channel),
            ..DeviceAccumulator::default()
        };
        if self.record_geometry {
            acc.geometry.push(channel);
        }
        self.accum.push(acc);
        self.uf.make_set()
    }

    /// Number of handles allocated.
    pub fn handle_count(&self) -> usize {
        self.uf.len()
    }

    /// Canonical representative of `h`'s device.
    pub fn find(&mut self, h: u32) -> u32 {
        self.uf.find(h)
    }

    /// Merges two channel fragments into one device. Gate nets are
    /// unioned through `nets`.
    pub fn union(&mut self, a: u32, b: u32, nets: &mut NetTable) -> u32 {
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        if ra == rb {
            return ra;
        }
        // Union the gate nets if both sides have one.
        let ga = self.accum[ra as usize].gate;
        let gb = self.accum[rb as usize].gate;
        if let (Some(ga), Some(gb)) = (ga, gb) {
            nets.union(ga, gb);
        }
        let root = self.uf.union(ra, rb);
        let other = if root == ra { rb } else { ra };
        let moved = std::mem::take(&mut self.accum[other as usize]);
        self.accum[root as usize].absorb(moved);
        root
    }

    /// Adds channel area (a later strip of the same fragment).
    pub fn add_channel(&mut self, h: u32, channel: Rect) {
        let root = self.uf.find(h) as usize;
        let acc = &mut self.accum[root];
        acc.area += channel.area();
        acc.bbox = Some(match acc.bbox {
            Some(bb) => bb.bounding_union(&channel),
            None => channel,
        });
        if self.record_geometry {
            acc.geometry.push(channel);
        }
    }

    /// Records (and unions) the gate net over the channel.
    pub fn set_gate(&mut self, h: u32, gate_net: u32, nets: &mut NetTable) {
        let root = self.uf.find(h) as usize;
        match self.accum[root].gate {
            Some(g) => {
                nets.union(g, gate_net);
            }
            None => self.accum[root].gate = Some(gate_net),
        }
    }

    /// Adds terminal contact length against a diffusion net.
    pub fn add_terminal_contact(&mut self, h: u32, net: u32, length: Coord) {
        if length <= 0 {
            return;
        }
        let root = self.uf.find(h) as usize;
        self.accum[root].terminals.push((net, length));
    }

    /// Marks the device depletion-mode.
    pub fn set_depletion(&mut self, h: u32) {
        let root = self.uf.find(h) as usize;
        self.accum[root].depletion = true;
    }

    /// The accumulator at `h`'s root.
    pub fn accumulator(&mut self, h: u32) -> &DeviceAccumulator {
        let root = self.uf.find(h) as usize;
        &self.accum[root]
    }

    /// The root handles, ascending (each device exactly once).
    pub fn roots(&mut self) -> Vec<u32> {
        let n = self.uf.len() as u32;
        let mut roots = Vec::new();
        for h in 0..n {
            if self.uf.find(h) == h {
                roots.push(h);
            }
        }
        roots
    }

    /// Finalizes one device into a wirelist [`Device`] through
    /// [`PartialDevice::finalize`], the one width/length rule, over its
    /// terminals' net roots. Returns `None` for a degenerate zero-area
    /// channel, and sets `multi_terminal` when more than two distinct
    /// nets touch the channel. The channel, in dense net ids with its
    /// terminals coalesced and longest first, is returned alongside the
    /// device for window-mode consumers.
    pub fn finalize(
        &mut self,
        h: u32,
        nets: &mut NetTable,
        net_map: &[u32],
        multi_terminal: &mut bool,
    ) -> Option<(Device, PartialDevice)> {
        let root = self.uf.find(h) as usize;
        let mut acc = std::mem::take(&mut self.accum[root]);
        if acc.area == 0 {
            return None;
        }
        for entry in &mut acc.terminals {
            entry.0 = nets.find(entry.0);
        }
        let mut channel = PartialDevice {
            area: acc.area,
            bbox: acc.bbox.expect("non-zero area implies bbox"),
            depletion: acc.depletion,
            gate: acc.gate.expect("a channel lies under poly"),
            terminals: std::mem::take(&mut acc.terminals),
        };
        let mut device = channel.finalize();
        *multi_terminal = channel.terminals.len() > 2;
        let mut dense = |h: u32| net_map[nets.find(h) as usize];
        channel.gate = dense(channel.gate);
        for t in &mut channel.terminals {
            t.0 = dense(t.0);
        }
        for net in [&mut device.gate, &mut device.source, &mut device.drain] {
            net.0 = dense(net.0);
        }
        device.channel_geometry = ace_geom::merge_boxes(&acc.geometry);
        Some((device, channel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_geom::Point;
    use ace_wirelist::DeviceKind;

    #[test]
    fn simple_transistor_dimensions() {
        // Channel 400 wide (x) × 1200 tall: poly runs horizontally, so
        // source/drain contact the 1200-long vertical edges... here we
        // model the paper's inverter pull-down: area 400×1200, source
        // and drain contacts of 1200 each on the left/right edges.
        let mut nets = NetTable::new(false);
        let mut devs = DeviceTable::new(false);
        let d = devs.fresh(Rect::new(0, 0, 400, 1200));
        let gate = nets.fresh();
        let src = nets.fresh();
        let drn = nets.fresh();
        devs.set_gate(d, gate, &mut nets);
        devs.add_terminal_contact(d, src, 1200);
        devs.add_terminal_contact(d, drn, 1200);
        let (map, _) = nets.compress();
        let mut multi = false;
        let (dev, _) = devs
            .finalize(d, &mut nets, &map, &mut multi)
            .expect("device");
        assert_eq!(dev.kind, DeviceKind::Enhancement);
        assert_eq!(dev.width, 1200);
        assert_eq!(dev.length, 400);
        assert!(!multi);
        assert_eq!(dev.location, Point::new(0, 1200));
    }

    #[test]
    fn unequal_edges_average() {
        // Source edge 1000, drain edge 600 → width 800; area 800×400 →
        // length 400.
        let mut nets = NetTable::new(false);
        let mut devs = DeviceTable::new(false);
        let d = devs.fresh(Rect::new(0, 0, 800, 400));
        devs.set_gate(d, nets.fresh(), &mut nets);
        let s = nets.fresh();
        let t = nets.fresh();
        devs.add_terminal_contact(d, s, 1000);
        devs.add_terminal_contact(d, t, 600);
        let (map, _) = nets.compress();
        let mut multi = false;
        let (dev, _) = devs
            .finalize(d, &mut nets, &map, &mut multi)
            .expect("device");
        assert_eq!(dev.width, 800);
        assert_eq!(dev.length, 400);
    }

    #[test]
    fn union_merges_area_and_contacts() {
        let mut nets = NetTable::new(false);
        let mut devs = DeviceTable::new(false);
        let a = devs.fresh(Rect::new(0, 0, 4, 2));
        let b = devs.fresh(Rect::new(0, 2, 4, 6));
        let g1 = nets.fresh();
        let g2 = nets.fresh();
        devs.set_gate(a, g1, &mut nets);
        devs.set_gate(b, g2, &mut nets);
        devs.union(a, b, &mut nets);
        // Gate nets must have been unioned.
        assert_eq!(nets.find(g1), nets.find(g2));
        assert_eq!(devs.accumulator(a).area, 8 + 16);
        assert_eq!(devs.accumulator(b).bbox, Some(Rect::new(0, 0, 4, 6)));
    }

    #[test]
    fn terminal_normalization_coalesces_same_net() {
        let mut nets = NetTable::new(false);
        let mut devs = DeviceTable::new(false);
        let d = devs.fresh(Rect::new(0, 0, 2, 2));
        let n1 = nets.fresh();
        let n2 = nets.fresh();
        devs.add_terminal_contact(d, n1, 10);
        devs.add_terminal_contact(d, n2, 20);
        nets.union(n1, n2); // they turn out to be the same net
        devs.set_gate(d, nets.fresh(), &mut nets);
        let (map, _) = nets.compress();
        let mut multi = false;
        let (dev, _) = devs
            .finalize(d, &mut nets, &map, &mut multi)
            .expect("device");
        // Single distinct terminal → capacitor with width 30.
        assert_eq!(dev.kind, DeviceKind::Capacitor);
        assert_eq!(dev.source, dev.drain);
        assert_eq!(dev.width, 30);
    }

    #[test]
    fn depletion_flag_selects_kind() {
        let mut nets = NetTable::new(false);
        let mut devs = DeviceTable::new(false);
        let d = devs.fresh(Rect::new(0, 0, 4, 4));
        devs.set_gate(d, nets.fresh(), &mut nets);
        devs.add_terminal_contact(d, nets.fresh(), 4);
        devs.add_terminal_contact(d, nets.fresh(), 4);
        devs.set_depletion(d);
        let (map, _) = nets.compress();
        let mut multi = false;
        let (dev, _) = devs
            .finalize(d, &mut nets, &map, &mut multi)
            .expect("device");
        assert_eq!(dev.kind, DeviceKind::Depletion);
    }

    #[test]
    fn multi_terminal_detection() {
        let mut nets = NetTable::new(false);
        let mut devs = DeviceTable::new(false);
        let d = devs.fresh(Rect::new(0, 0, 4, 4));
        devs.set_gate(d, nets.fresh(), &mut nets);
        for len in [10, 8, 3] {
            let n = nets.fresh();
            devs.add_terminal_contact(d, n, len);
        }
        let (map, _) = nets.compress();
        let mut multi = false;
        let (dev, _) = devs
            .finalize(d, &mut nets, &map, &mut multi)
            .expect("device");
        assert!(multi);
        // The two longest contacts win.
        assert_eq!(dev.width, (10 + 8) / 2);
    }

    #[test]
    fn isolated_channel_is_capacitor() {
        let mut nets = NetTable::new(false);
        let mut devs = DeviceTable::new(false);
        let d = devs.fresh(Rect::new(0, 0, 10, 10));
        devs.set_gate(d, nets.fresh(), &mut nets);
        let (map, _) = nets.compress();
        let mut multi = false;
        let (dev, _) = devs
            .finalize(d, &mut nets, &map, &mut multi)
            .expect("device");
        assert_eq!(dev.kind, DeviceKind::Capacitor);
        assert_eq!(dev.length * dev.width, 100);
    }
}
