use std::collections::BTreeMap;
use std::fmt;

use ace_geom::{Coord, Layer, Point, Rect};

use crate::parasitics::NetParasitics;

/// Identifier of a [`Net`] within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// The kind of an extracted device.
///
/// "An overlap between diffusion and poly accompanied by the absence
/// of buried results in a potential transistor. The presence of
/// implant determines the type of transistor." (paper §3.) A channel
/// with fewer than two distinct diffusion terminals is reported as a
/// MOS capacitor (the paper's "location and area of capacitors").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceKind {
    /// Enhancement-mode transistor (`nEnh`): no implant over the channel.
    Enhancement,
    /// Depletion-mode transistor (`nDep`): implant covers the channel.
    Depletion,
    /// MOS capacitor: a channel with a single diffusion terminal.
    Capacitor,
}

impl DeviceKind {
    /// The wirelist part name (`nEnh` / `nDep` / `nCap`).
    pub const fn part_name(self) -> &'static str {
        match self {
            DeviceKind::Enhancement => "nEnh",
            DeviceKind::Depletion => "nDep",
            DeviceKind::Capacitor => "nCap",
        }
    }

    /// Parses a wirelist part name.
    pub fn from_part_name(name: &str) -> Option<DeviceKind> {
        match name {
            "nEnh" => Some(DeviceKind::Enhancement),
            "nDep" => Some(DeviceKind::Depletion),
            "nCap" => Some(DeviceKind::Capacitor),
            _ => None,
        }
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.part_name())
    }
}

/// An extracted device (transistor or MOS capacitor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Device type.
    pub kind: DeviceKind,
    /// The poly net over the channel.
    pub gate: NetId,
    /// One diffusion terminal.
    pub source: NetId,
    /// The other diffusion terminal (equals `source` for capacitors).
    pub drain: NetId,
    /// Channel length: channel area / width.
    pub length: Coord,
    /// Channel width: mean of the source and drain edge lengths.
    pub width: Coord,
    /// Lower-left corner of the channel's bounding box.
    pub location: Point,
    /// The channel boxes (emptied unless geometry output is enabled).
    pub channel_geometry: Vec<Rect>,
}

/// A device's channel dimensions, as validated by [`Device::dim`].
///
/// The `L = area / W` mean-of-edges computation (paper §3) divides by
/// the mean source/drain edge length; a channel whose terminal
/// contacts all have zero length would produce a NaN/∞-style W or L.
/// The finalization paths guard that division and emit `length = 0,
/// width = 0` instead, which this enum surfaces as
/// [`Degenerate`](DeviceDim::Degenerate) so checkers can flag the
/// device rather than propagate a nonsense geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceDim {
    /// A well-formed channel with positive length and width.
    Channel {
        /// Channel length (area / width).
        length: Coord,
        /// Channel width (mean of the source and drain edge lengths).
        width: Coord,
    },
    /// Zero or negative length/width: the channel had no usable
    /// source/drain edges and the `area / width` computation was
    /// skipped.
    Degenerate,
}

impl Device {
    /// Channel area (length × width).
    pub fn channel_area(&self) -> i64 {
        self.length * self.width
    }

    /// The device's validated channel dimensions: `Channel` when both
    /// length and width are positive, [`DeviceDim::Degenerate`]
    /// otherwise.
    pub fn dim(&self) -> DeviceDim {
        if self.length > 0 && self.width > 0 {
            DeviceDim::Channel {
                length: self.length,
                width: self.width,
            }
        } else {
            DeviceDim::Degenerate
        }
    }

    /// `true` when source and drain are the same net — reported as a
    /// capacitor or a "shorted" transistor.
    pub fn is_shorted(&self) -> bool {
        self.source == self.drain
    }
}

/// An extracted net: an electrically connected region of the
/// conducting layers that does not cross a transistor channel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Net {
    /// All user-defined names attached to this net (CIF `94` labels).
    pub names: Vec<String>,
    /// A representative location on the net.
    pub location: Option<Point>,
    /// The net's geometry (emptied unless geometry output is enabled).
    pub geometry: Vec<(Layer, Rect)>,
    /// Per-layer parasitic totals (union area/perimeter, cut area),
    /// accumulated by the extractor during the sweep.
    pub parasitics: NetParasitics,
}

impl Net {
    /// The net's primary (first) user name, if any.
    pub fn primary_name(&self) -> Option<&str> {
        self.names.first().map(String::as_str)
    }
}

/// A flat circuit: nets plus devices.
///
/// This is ACE's output artifact — it is produced once the scanline
/// reaches the bottom of the chip and every net merger is final.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Netlist {
    nets: Vec<Net>,
    devices: Vec<Device>,
    /// Title, usually the source CIF file name.
    pub name: String,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Adds a fresh, unnamed net.
    pub fn add_net(&mut self) -> NetId {
        self.nets.push(Net::default());
        NetId(self.nets.len() as u32 - 1)
    }

    /// Adds a device.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a terminal references a missing net.
    pub fn add_device(&mut self, device: Device) {
        debug_assert!((device.gate.0 as usize) < self.nets.len());
        debug_assert!((device.source.0 as usize) < self.nets.len());
        debug_assert!((device.drain.0 as usize) < self.nets.len());
        self.devices.push(device);
    }

    /// Attaches a user name to a net (duplicates are ignored).
    pub fn add_name(&mut self, id: NetId, name: impl Into<String>) {
        let name = name.into();
        let net = &mut self.nets[id.0 as usize];
        if !net.names.contains(&name) {
            net.names.push(name);
        }
    }

    /// Sets a net's representative location (first writer wins).
    pub fn set_location(&mut self, id: NetId, at: Point) {
        let net = &mut self.nets[id.0 as usize];
        if net.location.is_none() {
            net.location = Some(at);
        }
    }

    /// Records geometry on a net.
    pub fn add_geometry(&mut self, id: NetId, layer: Layer, rect: Rect) {
        self.nets[id.0 as usize].geometry.push((layer, rect));
    }

    /// Accumulates parasitic totals onto a net (summing with whatever
    /// is already there — partial sums from banded or hierarchical
    /// extraction merge through this).
    pub fn add_parasitics(&mut self, id: NetId, p: &NetParasitics) {
        self.nets[id.0 as usize].parasitics.merge(p);
    }

    /// A net by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// All nets, in id order.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// All devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of devices of each kind, as (enhancement, depletion,
    /// capacitor).
    pub fn device_census(&self) -> (usize, usize, usize) {
        let mut census = (0, 0, 0);
        for d in &self.devices {
            match d.kind {
                DeviceKind::Enhancement => census.0 += 1,
                DeviceKind::Depletion => census.1 += 1,
                DeviceKind::Capacitor => census.2 += 1,
            }
        }
        census
    }

    /// Finds the net carrying a user name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.names.iter().any(|x| x == name))
            .map(|i| NetId(i as u32))
    }

    /// Map from every user name to its net.
    pub fn name_table(&self) -> BTreeMap<&str, NetId> {
        let mut table = BTreeMap::new();
        for (id, net) in self.nets() {
            for name in &net.names {
                table.insert(name.as_str(), id);
            }
        }
        table
    }

    /// Degree of each net: how many device terminals attach to it.
    pub fn net_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.nets.len()];
        for d in &self.devices {
            deg[d.gate.0 as usize] += 1;
            deg[d.source.0 as usize] += 1;
            deg[d.drain.0 as usize] += 1;
        }
        deg
    }

    /// Retains only nets that carry a device terminal, a name, or
    /// geometry, renumbering the rest away. Returns the old→new map.
    ///
    /// The extractor can create nets for isolated wiring (e.g. a
    /// floating metal strap); callers that only care about the
    /// circuit graph use this to drop them.
    pub fn prune_floating_nets(&mut self) -> Vec<Option<NetId>> {
        let deg = self.net_degrees();
        let mut remap: Vec<Option<NetId>> = vec![None; self.nets.len()];
        let mut kept = Vec::with_capacity(self.nets.len());
        for (i, net) in self.nets.drain(..).enumerate() {
            if deg[i] > 0 || !net.names.is_empty() || !net.geometry.is_empty() {
                remap[i] = Some(NetId(kept.len() as u32));
                kept.push(net);
            }
        }
        self.nets = kept;
        for d in &mut self.devices {
            d.gate = remap[d.gate.0 as usize].expect("device net pruned");
            d.source = remap[d.source.0 as usize].expect("device net pruned");
            d.drain = remap[d.drain.0 as usize].expect("device net pruned");
        }
        remap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inverter() -> Netlist {
        let mut nl = Netlist::new();
        let vdd = nl.add_net();
        let out = nl.add_net();
        let inp = nl.add_net();
        let gnd = nl.add_net();
        nl.add_name(vdd, "VDD");
        nl.add_name(out, "OUT");
        nl.add_name(inp, "INP");
        nl.add_name(gnd, "GND");
        nl.add_device(Device {
            kind: DeviceKind::Enhancement,
            gate: inp,
            source: out,
            drain: gnd,
            length: 400,
            width: 2800,
            location: Point::new(-800, -400),
            channel_geometry: vec![],
        });
        nl.add_device(Device {
            kind: DeviceKind::Depletion,
            gate: out,
            source: vdd,
            drain: out,
            length: 1400,
            width: 400,
            location: Point::new(-400, 2800),
            channel_geometry: vec![],
        });
        nl
    }

    #[test]
    fn build_and_census() {
        let nl = inverter();
        assert_eq!(nl.net_count(), 4);
        assert_eq!(nl.device_count(), 2);
        assert_eq!(nl.device_census(), (1, 1, 0));
    }

    #[test]
    fn names_and_lookup() {
        let mut nl = inverter();
        assert_eq!(nl.net_by_name("OUT"), Some(NetId(1)));
        assert_eq!(nl.net_by_name("missing"), None);
        // Duplicate names are ignored.
        nl.add_name(NetId(0), "VDD");
        assert_eq!(nl.net(NetId(0)).names, vec!["VDD"]);
        // Aliases work.
        nl.add_name(NetId(0), "POWER");
        assert_eq!(nl.net_by_name("POWER"), Some(NetId(0)));
        assert_eq!(nl.name_table().len(), 5);
    }

    #[test]
    fn location_first_writer_wins() {
        let mut nl = inverter();
        nl.set_location(NetId(0), Point::new(1, 1));
        nl.set_location(NetId(0), Point::new(9, 9));
        assert_eq!(nl.net(NetId(0)).location, Some(Point::new(1, 1)));
    }

    #[test]
    fn degrees() {
        let nl = inverter();
        // VDD: 1 (dep source); OUT: dep gate + dep drain + enh source = 3;
        // INP: 1; GND: 1.
        assert_eq!(nl.net_degrees(), vec![1, 3, 1, 1]);
    }

    #[test]
    fn device_helpers() {
        let nl = inverter();
        let dep = &nl.devices()[1];
        assert_eq!(dep.channel_area(), 1400 * 400);
        assert!(!dep.is_shorted());
    }

    #[test]
    fn dim_flags_degenerate_channels() {
        let nl = inverter();
        let enh = &nl.devices()[0];
        assert_eq!(
            enh.dim(),
            DeviceDim::Channel {
                length: 400,
                width: 2800
            }
        );
        for (length, width) in [(0, 400), (400, 0), (0, 0), (-1, 400)] {
            let d = Device {
                length,
                width,
                ..enh.clone()
            };
            assert_eq!(d.dim(), DeviceDim::Degenerate, "{length}x{width}");
        }
    }

    #[test]
    fn prune_floating() {
        let mut nl = inverter();
        let floater = nl.add_net(); // no names, no devices
        assert_eq!(nl.net_count(), 5);
        let remap = nl.prune_floating_nets();
        assert_eq!(nl.net_count(), 4);
        assert_eq!(remap[floater.0 as usize], None);
        assert_eq!(nl.device_count(), 2);
        assert_eq!(nl.net_by_name("GND"), Some(NetId(3)));
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            DeviceKind::Enhancement,
            DeviceKind::Depletion,
            DeviceKind::Capacitor,
        ] {
            assert_eq!(DeviceKind::from_part_name(kind.part_name()), Some(kind));
        }
        assert_eq!(DeviceKind::from_part_name("pEnh"), None);
    }
}
