//! Netlist equivalence checking.
//!
//! "If a circuit's schematic diagram is available to the designer, it
//! can be compared to the extracted circuit: if the two are
//! equivalent, the layout corresponds to the original circuit."
//! (paper §1.) In this reproduction the comparator's main job is
//! validating the hierarchical extractor against the flat one: both
//! extract the same layout, so their netlists must be isomorphic.
//!
//! Two comparison modes are provided:
//!
//! * [`same_circuit`] — exact matching keyed by device location.
//!   Devices extracted from the same layout land at the same channel
//!   coordinates, so each device is matched by its key (location,
//!   kind, L, W), and each net by the terminals it carries: its
//!   `(device, role)` pairs, where the role is gate or source/drain
//!   (a MOS transistor is symmetric, and two extractors may label its
//!   diffusion terminals in either order). Comparing the two sorted
//!   lists of nets is O(N log N), needs no search, and is exact when
//!   device keys are unique.
//! * [`structural_signature`] — a location-independent canonical hash
//!   via iterative partition refinement (the classic
//!   netlist-isomorphism heuristic). Equal signatures strongly
//!   suggest isomorphic circuits; differing signatures prove
//!   non-isomorphism.
//!
//! When a comparison fails, [`explain_mismatch`] upgrades the first
//! [`CircuitDiff`] into a [`MismatchReport`] — a readable, multi-line
//! account of *where* the two circuits part ways (unmatched device
//! locations, conflicting net bindings, counts, and signatures) —
//! which is what the conformance harness writes next to its repro
//! files.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

use ace_geom::{Coord, Point};

use crate::model::{Device, DeviceKind, NetId, Netlist};

/// A discrepancy found by [`same_circuit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitDiff {
    /// The two netlists have different device counts.
    DeviceCount {
        /// Count in the left netlist.
        left: usize,
        /// Count in the right netlist.
        right: usize,
    },
    /// No counterpart at this location (or kind/size differs there).
    DeviceMismatch {
        /// Description of the unmatched device.
        detail: String,
    },
    /// The forced net correspondence is inconsistent.
    NetMismatch {
        /// Description of the conflict.
        detail: String,
    },
    /// A user net name maps to non-corresponding nets.
    NameMismatch {
        /// The conflicting name.
        name: String,
    },
}

impl fmt::Display for CircuitDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitDiff::DeviceCount { left, right } => {
                write!(f, "device counts differ: {left} vs {right}")
            }
            CircuitDiff::DeviceMismatch { detail } => {
                write!(f, "device mismatch: {detail}")
            }
            CircuitDiff::NetMismatch { detail } => write!(f, "net mismatch: {detail}"),
            CircuitDiff::NameMismatch { name } => {
                write!(f, "net name '{name}' maps inconsistently")
            }
        }
    }
}

impl Error for CircuitDiff {}

/// Checks that two netlists describe the same circuit, matching
/// devices by channel location.
///
/// Devices are sorted by key (location, kind, L, W) and must agree key
/// for key. Each net that carries a terminal is then described by its
/// sorted `(device rank, role)` pairs, the role being gate or
/// source/drain, and by the sorted names it shares with the other
/// netlist. The circuits are equal if and only if the two sorted lists
/// of nets are equal. That is exact when keys are unique; devices that
/// share a key share a rank, so the partition is then necessary but
/// not a proof, and the two [`structural_signature`]s must agree too.
///
/// # Errors
///
/// Returns the first [`CircuitDiff`] found.
///
/// # Examples
///
/// ```
/// use ace_wirelist::compare::same_circuit;
/// use ace_wirelist::{Device, DeviceKind, Netlist};
/// use ace_geom::Point;
///
/// let build = |swap: bool| {
///     let mut nl = Netlist::new();
///     let a = nl.add_net();
///     let b = nl.add_net();
///     let g = nl.add_net();
///     nl.add_device(Device {
///         kind: DeviceKind::Enhancement,
///         gate: g,
///         source: if swap { b } else { a },
///         drain: if swap { a } else { b },
///         length: 2, width: 2,
///         location: Point::new(0, 0),
///         channel_geometry: vec![],
///     });
///     nl
/// };
/// // Source/drain order is immaterial.
/// assert!(same_circuit(&build(false), &build(true)).is_ok());
/// ```
pub fn same_circuit(left: &Netlist, right: &Netlist) -> Result<(), CircuitDiff> {
    if left.device_count() != right.device_count() {
        return Err(CircuitDiff::DeviceCount {
            left: left.device_count(),
            right: right.device_count(),
        });
    }

    let lo = key_order(left);
    let ro = key_order(right);
    for (&li, &ri) in lo.iter().zip(&ro) {
        let (ld, rd) = (&left.devices()[li], &right.devices()[ri]);
        if device_key(ld) != device_key(rd) {
            return Err(CircuitDiff::DeviceMismatch {
                detail: format!("left {} vs right {}", device_text(ld), device_text(rd)),
            });
        }
    }

    // The keys agree one for one, so ranks computed on either side
    // name the same devices.
    let lnets = terminal_nets(left, &lo, right);
    let rnets = terminal_nets(right, &ro, left);
    let differs = |i: usize| lnets.get(i).map(|n| &n.pins) != rnets.get(i).map(|n| &n.pins);
    if let Some(i) = (0..lnets.len().max(rnets.len())).find(|&i| differs(i)) {
        // The smaller description at the first difference is the one
        // the other side lacks.
        let detail = match rnets.get(i) {
            Some(r) if lnets.get(i).is_none_or(|l| r.pins < l.pins) => {
                format!("right {} has no counterpart", describe(r, right, &ro))
            }
            _ => format!("left {} has no counterpart", describe(&lnets[i], left, &lo)),
        };
        return Err(CircuitDiff::NetMismatch { detail });
    }
    if let Some((l, r)) = lnets.iter().zip(&rnets).find(|(l, r)| l.names != r.names) {
        let name = l
            .names
            .iter()
            .chain(&r.names)
            .find(|n| !(l.names.contains(n) && r.names.contains(n)))
            .expect("name lists are deduplicated")
            .to_string();
        return Err(CircuitDiff::NameMismatch { name });
    }

    let tied = lo
        .windows(2)
        .any(|w| device_key(&left.devices()[w[0]]) == device_key(&left.devices()[w[1]]));
    if tied && structural_signature(left) != structural_signature(right) {
        return Err(CircuitDiff::NetMismatch {
            detail: "devices share a key, and the structural signatures differ".to_string(),
        });
    }
    Ok(())
}

/// What [`same_circuit`] matches devices by.
fn device_key(d: &Device) -> (Point, DeviceKind, Coord, Coord) {
    (d.location, d.kind, d.length, d.width)
}

/// A netlist's device indexes, sorted by key.
fn key_order(nl: &Netlist) -> Vec<usize> {
    let mut order: Vec<usize> = (0..nl.device_count()).collect();
    order.sort_by_key(|&i| device_key(&nl.devices()[i]));
    order
}

/// The part a terminal plays on its net. Source and drain share one
/// role: a MOS transistor is symmetric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Role {
    Gate,
    SourceDrain,
}

/// A net that carries a terminal, as [`same_circuit`] compares it.
/// Field order is sort order; `id` only labels messages.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct TerminalNet<'a> {
    /// Sorted `(device rank, role)` pairs.
    pins: Vec<(usize, Role)>,
    /// Sorted, deduplicated user names the other netlist also uses.
    names: Vec<&'a str>,
    id: NetId,
}

/// Every net of `nl` that carries a terminal, sorted. A device's rank
/// is the position of the first device with its key in `order`, so
/// devices with equal keys share a rank.
fn terminal_nets<'a>(nl: &'a Netlist, order: &[usize], other: &Netlist) -> Vec<TerminalNet<'a>> {
    let devices = nl.devices();
    let mut rank = vec![0; devices.len()];
    for (pos, w) in order.windows(2).enumerate() {
        let tied = device_key(&devices[w[0]]) == device_key(&devices[w[1]]);
        rank[w[1]] = if tied { rank[w[0]] } else { pos + 1 };
    }
    let mut pins: Vec<Vec<(usize, Role)>> = vec![Vec::new(); nl.net_count()];
    for (d, &r) in devices.iter().zip(&rank) {
        pins[d.gate.0 as usize].push((r, Role::Gate));
        pins[d.source.0 as usize].push((r, Role::SourceDrain));
        pins[d.drain.0 as usize].push((r, Role::SourceDrain));
    }
    let shared = other.name_table();
    let mut nets: Vec<TerminalNet> = pins
        .into_iter()
        .zip(nl.nets())
        .filter(|(pins, _)| !pins.is_empty())
        .map(|(mut pins, (id, net))| {
            pins.sort_unstable();
            let mut names: Vec<&str> = net
                .names
                .iter()
                .map(String::as_str)
                .filter(|n| shared.contains_key(n))
                .collect();
            names.sort_unstable();
            names.dedup();
            TerminalNet { pins, names, id }
        })
        .collect();
    nets.sort_unstable();
    nets
}

/// A terminal net in words: its id, its first terminal, and how many
/// it carries.
fn describe(net: &TerminalNet, nl: &Netlist, order: &[usize]) -> String {
    let (rank, role) = net.pins[0];
    let role = if role == Role::Gate {
        "gate"
    } else {
        "source/drain"
    };
    let device = device_text(&nl.devices()[order[rank]]);
    format!(
        "{} ({role} of {device}; {} terminals)",
        net.id,
        net.pins.len()
    )
}

/// FNV-1a, used instead of [`std::collections::hash_map::DefaultHasher`]
/// so signatures are stable across toolchains: the conformance corpus
/// checks extracted netlists against signatures recorded in a file,
/// which only works if the hash algorithm never changes under us.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hash_one(values: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    values.hash(&mut h);
    h.finish()
}

fn hash_unordered(mut values: Vec<u64>) -> u64 {
    values.sort_unstable();
    hash_one(&values)
}

/// Canonical structural hash of a netlist, independent of net/device
/// ordering, net ids, names, and locations.
///
/// Computed by iterative partition refinement: net labels are refined
/// by the multiset of adjacent device labels (tagged with terminal
/// role, source/drain folded together), device labels by their kind,
/// dimensions, and terminal net labels. Three rounds suffice for the
/// circuits in this repository.
///
/// Equal signatures do not *prove* isomorphism (refinement can stall
/// on highly symmetric graphs) but unequal signatures prove
/// non-isomorphism.
pub fn structural_signature(nl: &Netlist) -> u64 {
    let n = nl.net_count();
    // A device label refined by its terminal nets' labels, source and
    // drain unordered.
    let refine = |label: u64, d: &Device, net_label: &[u64]| {
        let (s, t) = (
            net_label[d.source.0 as usize],
            net_label[d.drain.0 as usize],
        );
        hash_one(&[
            label,
            net_label[d.gate.0 as usize],
            hash_unordered(vec![s, t]),
        ])
    };
    let base: Vec<u64> = nl
        .devices()
        .iter()
        .map(|d| hash_one(&[d.kind as u64, d.length as u64, d.width as u64]))
        .collect();
    let mut net_label: Vec<u64> = vec![0x9E37_79B9_7F4A_7C15; n];
    let mut dev_label = base.clone();
    for _round in 0..3 {
        for (label, d) in dev_label.iter_mut().zip(nl.devices()) {
            *label = refine(*label, d, &net_label);
        }
        // Net labels from attached device labels.
        let mut incidence: Vec<Vec<u64>> = vec![Vec::new(); n];
        for (i, d) in nl.devices().iter().enumerate() {
            incidence[d.gate.0 as usize].push(hash_one(&[dev_label[i], 1]));
            // Source and drain attachments share a role tag.
            incidence[d.source.0 as usize].push(hash_one(&[dev_label[i], 2]));
            incidence[d.drain.0 as usize].push(hash_one(&[dev_label[i], 2]));
        }
        for (id, inc) in incidence.into_iter().enumerate() {
            net_label[id] = hash_one(&[net_label[id], hash_unordered(inc)]);
        }
    }
    let dev_label: Vec<u64> = base
        .iter()
        .zip(nl.devices())
        .map(|(&label, d)| refine(label, d, &net_label))
        .collect();

    // Drop isolated nets: they carry no circuit information.
    let deg = nl.net_degrees();
    let nets: Vec<u64> = net_label
        .into_iter()
        .zip(&deg)
        .filter(|(_, &d)| d > 0)
        .map(|(l, _)| l)
        .collect();
    hash_one(&[hash_unordered(nets), hash_unordered(dev_label)])
}

/// A human-readable account of the first disagreement between two
/// netlists, produced by [`explain_mismatch`].
///
/// The [`Display`](fmt::Display) form is a multi-line report: the
/// verdict, the headline [`CircuitDiff`], device/net counts and
/// structural signatures for both sides, and a diff-specific `detail`
/// section (unmatched device locations for count mismatches, the
/// conflicting binding for net mismatches, the name tables for name
/// mismatches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MismatchReport {
    /// The first discrepancy [`same_circuit`] found.
    pub diff: CircuitDiff,
    /// Device count in the left netlist.
    pub left_devices: usize,
    /// Device count in the right netlist.
    pub right_devices: usize,
    /// Net count in the left netlist.
    pub left_nets: usize,
    /// Net count in the right netlist.
    pub right_nets: usize,
    /// [`structural_signature`] of the left netlist.
    pub left_signature: u64,
    /// [`structural_signature`] of the right netlist.
    pub right_signature: u64,
    /// Diff-specific context, one finding per line.
    pub detail: String,
}

impl fmt::Display for MismatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "netlists disagree: {}", self.diff)?;
        writeln!(
            f,
            "  left:  {} devices, {} nets, signature {:016x}",
            self.left_devices, self.left_nets, self.left_signature
        )?;
        writeln!(
            f,
            "  right: {} devices, {} nets, signature {:016x}",
            self.right_devices, self.right_nets, self.right_signature
        )?;
        for line in self.detail.lines() {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// A device's matching key in words.
fn device_text(d: &Device) -> String {
    format!("{:?} {}×{} at {}", d.kind, d.length, d.width, d.location)
}

/// Runs [`same_circuit`] and, on failure, explains the first
/// discrepancy in context. Returns `None` when the circuits match.
///
/// # Examples
///
/// ```
/// use ace_wirelist::compare::explain_mismatch;
/// use ace_wirelist::{Device, DeviceKind, Netlist};
/// use ace_geom::Point;
///
/// let mut a = Netlist::new();
/// let mut b = Netlist::new();
/// let (g, s, d) = (b.add_net(), b.add_net(), b.add_net());
/// b.add_device(Device {
///     kind: DeviceKind::Enhancement,
///     gate: g, source: s, drain: d,
///     length: 2, width: 2,
///     location: Point::new(500, 250),
///     channel_geometry: vec![],
/// });
/// let report = explain_mismatch(&a, &b).expect("differ");
/// let text = report.to_string();
/// assert!(text.contains("device counts differ: 0 vs 1"));
/// assert!(text.contains("(500, 250)") || text.contains("500"));
/// ```
pub fn explain_mismatch(left: &Netlist, right: &Netlist) -> Option<MismatchReport> {
    let diff = same_circuit(left, right).err()?;
    let mut detail = String::new();
    match &diff {
        CircuitDiff::DeviceCount { .. } | CircuitDiff::DeviceMismatch { .. } => {
            // Multiset-diff the device keys: every key that appears
            // more often on one side than the other is an unmatched
            // device worth naming.
            let mut census: HashMap<String, i64> = HashMap::new();
            for d in left.devices() {
                *census.entry(device_text(d)).or_default() += 1;
            }
            for d in right.devices() {
                *census.entry(device_text(d)).or_default() -= 1;
            }
            let mut unmatched: Vec<(&str, i64)> = census
                .iter()
                .filter(|&(_, &n)| n != 0)
                .map(|(k, &n)| (k.as_str(), n))
                .collect();
            unmatched.sort();
            if unmatched.is_empty() {
                detail.push_str("every device has a counterpart; the wiring differs\n");
            }
            const SHOWN: usize = 8;
            for (key, n) in unmatched.iter().take(SHOWN) {
                let (side, n) = if *n > 0 { ("left", *n) } else { ("right", -n) };
                let _ = writeln!(detail, "only in {side} (×{n}): {key}");
            }
            if unmatched.len() > SHOWN {
                let _ = writeln!(detail, "… and {} more", unmatched.len() - SHOWN);
            }
        }
        CircuitDiff::NetMismatch { detail: d } => {
            let _ = writeln!(detail, "conflicting net binding: {d}");
            let _ = writeln!(
                detail,
                "(every device has a counterpart; each net is matched by the devices \
                 it touches, ranked by location, kind and size, and its role on each: \
                 gate or source/drain)"
            );
        }
        CircuitDiff::NameMismatch { name } => {
            for (side, nl) in [("left", left), ("right", right)] {
                let nets: Vec<String> = nl
                    .name_table()
                    .iter()
                    .map(|(n, id)| format!("{n}→{id}"))
                    .collect();
                let _ = writeln!(detail, "{side} names: {}", nets.join(", "));
            }
            let _ = writeln!(detail, "'{name}' does not respect the net correspondence");
        }
    }
    Some(MismatchReport {
        diff,
        left_devices: left.device_count(),
        right_devices: right.device_count(),
        left_nets: left.net_count(),
        right_nets: right.net_count(),
        left_signature: structural_signature(left),
        right_signature: structural_signature(right),
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inverter_chain(n: usize, reorder: bool) -> Netlist {
        let mut nl = Netlist::new();
        let vdd = nl.add_net();
        let gnd = nl.add_net();
        let mut input = nl.add_net();
        nl.add_name(vdd, "VDD");
        nl.add_name(gnd, "GND");
        let mut devices = Vec::new();
        for i in 0..n {
            let out = nl.add_net();
            devices.push(Device {
                kind: DeviceKind::Depletion,
                gate: out,
                source: vdd,
                drain: out,
                length: 8,
                width: 2,
                location: Point::new(i as i64 * 100, 100),
                channel_geometry: vec![],
            });
            devices.push(Device {
                kind: DeviceKind::Enhancement,
                gate: input,
                source: out,
                drain: gnd,
                length: 2,
                width: 8,
                location: Point::new(i as i64 * 100, 0),
                channel_geometry: vec![],
            });
            input = out;
        }
        if reorder {
            devices.reverse();
        }
        for d in devices {
            nl.add_device(d);
        }
        nl
    }

    #[test]
    fn identical_circuits_compare_equal() {
        let a = inverter_chain(4, false);
        let b = inverter_chain(4, true); // same circuit, shuffled order
        assert_eq!(same_circuit(&a, &b), Ok(()));
        assert_eq!(structural_signature(&a), structural_signature(&b));
    }

    #[test]
    fn different_sizes_are_detected() {
        let a = inverter_chain(4, false);
        let b = inverter_chain(5, false);
        assert!(matches!(
            same_circuit(&a, &b),
            Err(CircuitDiff::DeviceCount { .. })
        ));
        assert_ne!(structural_signature(&a), structural_signature(&b));
    }

    #[test]
    fn moved_device_is_detected() {
        let a = inverter_chain(2, false);
        let b = inverter_chain(2, false);
        // Perturb one device's location.
        let mut devs: Vec<Device> = b.devices().to_vec();
        devs[0].location = Point::new(999, 999);
        let mut rebuilt = Netlist::new();
        for _ in 0..b.net_count() {
            rebuilt.add_net();
        }
        for d in devs {
            rebuilt.add_device(d);
        }
        assert!(same_circuit(&a, &rebuilt).is_err());
    }

    #[test]
    fn rewired_circuit_is_detected_structurally() {
        let a = inverter_chain(3, false);
        // Same devices, but break the chain: last enhancement gate
        // tied to VDD instead of the previous stage output.
        let b = inverter_chain(3, false);
        let vdd = b.net_by_name("VDD").unwrap();
        let mut devs: Vec<Device> = b.devices().to_vec();
        let last = devs.len() - 1;
        devs[last].gate = vdd;
        let mut rebuilt = Netlist::new();
        for _ in 0..b.net_count() {
            rebuilt.add_net();
        }
        rebuilt.add_name(vdd, "VDD");
        for d in devs {
            rebuilt.add_device(d);
        }
        assert!(same_circuit(&a, &rebuilt).is_err());
        assert_ne!(structural_signature(&a), structural_signature(&rebuilt));
    }

    #[test]
    fn source_drain_swap_is_tolerated() {
        let a = inverter_chain(3, false);
        let mut devs: Vec<Device> = a.devices().to_vec();
        for d in &mut devs {
            std::mem::swap(&mut d.source, &mut d.drain);
        }
        let mut b = Netlist::new();
        for _ in 0..a.net_count() {
            b.add_net();
        }
        b.add_name(a.net_by_name("VDD").unwrap(), "VDD");
        b.add_name(a.net_by_name("GND").unwrap(), "GND");
        for d in devs {
            b.add_device(d);
        }
        assert_eq!(same_circuit(&a, &b), Ok(()));
        assert_eq!(structural_signature(&a), structural_signature(&b));
    }

    #[test]
    fn name_conflicts_are_detected() {
        let a = inverter_chain(2, false);
        let b = inverter_chain(2, false);
        // Swap names: call GND "VDD" and vice versa.
        let vdd = b.net_by_name("VDD").unwrap();
        let gnd = b.net_by_name("GND").unwrap();
        let mut rebuilt = Netlist::new();
        for _ in 0..b.net_count() {
            rebuilt.add_net();
        }
        rebuilt.add_name(vdd, "GND");
        rebuilt.add_name(gnd, "VDD");
        for d in b.devices() {
            rebuilt.add_device(d.clone());
        }
        assert!(matches!(
            same_circuit(&a, &rebuilt),
            Err(CircuitDiff::NameMismatch { .. })
        ));
    }

    #[test]
    fn explain_mismatch_is_silent_on_matching_circuits() {
        let a = inverter_chain(3, false);
        let b = inverter_chain(3, true);
        assert_eq!(explain_mismatch(&a, &b), None);
    }

    #[test]
    fn count_mismatch_names_the_unmatched_devices() {
        let a = inverter_chain(2, false);
        let b = inverter_chain(3, false);
        let report = explain_mismatch(&a, &b).expect("non-isomorphic");
        assert!(matches!(report.diff, CircuitDiff::DeviceCount { .. }));
        assert_eq!((report.left_devices, report.right_devices), (4, 6));
        assert_ne!(report.left_signature, report.right_signature);
        let text = report.to_string();
        // The extra stage sits at x = 200: both of its devices must be
        // called out as right-only, with their locations.
        assert!(text.contains("device counts differ: 4 vs 6"), "{text}");
        assert!(text.contains("only in right"), "{text}");
        assert!(text.contains("(200, 0)"), "{text}");
        assert!(text.contains("(200, 100)"), "{text}");
    }

    #[test]
    fn moved_device_mismatch_reports_both_locations() {
        let a = inverter_chain(2, false);
        let b = inverter_chain(2, false);
        let mut devs: Vec<Device> = b.devices().to_vec();
        devs[0].location = Point::new(999, 999);
        let mut rebuilt = Netlist::new();
        for _ in 0..b.net_count() {
            rebuilt.add_net();
        }
        for d in devs {
            rebuilt.add_device(d);
        }
        let report = explain_mismatch(&a, &rebuilt).expect("non-isomorphic");
        let text = report.to_string();
        assert!(text.contains("(999, 999)"), "{text}");
        assert!(text.contains("only in left"), "{text}");
        assert!(text.contains("only in right"), "{text}");
    }

    #[test]
    fn rewired_mismatch_points_at_the_wiring() {
        // Same device population, different connectivity: the report
        // must say the devices all match and the wiring differs.
        let a = inverter_chain(3, false);
        let b = inverter_chain(3, false);
        let vdd = b.net_by_name("VDD").unwrap();
        let mut devs: Vec<Device> = b.devices().to_vec();
        let last = devs.len() - 1;
        devs[last].gate = vdd;
        let mut rebuilt = Netlist::new();
        for _ in 0..b.net_count() {
            rebuilt.add_net();
        }
        rebuilt.add_name(vdd, "VDD");
        for d in devs {
            rebuilt.add_device(d);
        }
        let report = explain_mismatch(&a, &rebuilt).expect("non-isomorphic");
        assert!(matches!(report.diff, CircuitDiff::NetMismatch { .. }));
        assert_ne!(report.left_signature, report.right_signature);
        let text = report.to_string();
        assert!(text.contains("conflicting net binding"), "{text}");
    }

    #[test]
    fn name_mismatch_prints_both_name_tables() {
        let a = inverter_chain(2, false);
        let b = inverter_chain(2, false);
        let vdd = b.net_by_name("VDD").unwrap();
        let gnd = b.net_by_name("GND").unwrap();
        let mut rebuilt = Netlist::new();
        for _ in 0..b.net_count() {
            rebuilt.add_net();
        }
        rebuilt.add_name(vdd, "GND");
        rebuilt.add_name(gnd, "VDD");
        for d in b.devices() {
            rebuilt.add_device(d.clone());
        }
        let report = explain_mismatch(&a, &rebuilt).expect("non-isomorphic");
        assert!(matches!(report.diff, CircuitDiff::NameMismatch { .. }));
        let text = report.to_string();
        assert!(text.contains("left names:"), "{text}");
        assert!(text.contains("right names:"), "{text}");
        assert!(text.contains("VDD"), "{text}");
    }

    #[test]
    fn signatures_are_stable_across_processes() {
        // The conformance corpus stores signatures on disk, so the
        // hash must be a pure function of the netlist structure — no
        // per-process randomness, no toolchain-dependent hasher.
        let nl = inverter_chain(3, false);
        let sig = structural_signature(&nl);
        assert_eq!(sig, structural_signature(&inverter_chain(3, false)));
        // FNV-1a of the empty netlist's fixed shape: a constant by
        // construction; recompute rather than hard-code.
        assert_eq!(
            structural_signature(&Netlist::new()),
            structural_signature(&Netlist::new())
        );
    }

    #[test]
    fn empty_netlists_are_equal() {
        assert_eq!(same_circuit(&Netlist::new(), &Netlist::new()), Ok(()));
        assert_eq!(
            structural_signature(&Netlist::new()),
            structural_signature(&Netlist::new())
        );
    }

    /// A netlist of `nets` nets and 2×2 enhancement devices, each
    /// given as `(x, gate, source, drain)` with nets by index.
    fn fets(nets: u32, devices: &[(i64, u32, u32, u32)]) -> Netlist {
        let mut nl = Netlist::new();
        for _ in 0..nets {
            nl.add_net();
        }
        for &(x, g, s, d) in devices {
            nl.add_device(Device {
                kind: DeviceKind::Enhancement,
                gate: NetId(g),
                source: NetId(s),
                drain: NetId(d),
                length: 2,
                width: 2,
                location: Point::new(x, 0),
                channel_geometry: vec![],
            });
        }
        nl
    }

    #[test]
    fn symmetric_diffusion_nets_need_no_orientation() {
        // Nets 0 and 1, A's diffusion sides, each gate one of the
        // identical devices B and C, so structure alone cannot orient
        // A; the right side lists A's terminals the other way round.
        let left = fets(6, &[(0, 5, 0, 1), (10, 0, 2, 3), (20, 1, 3, 4)]);
        let right = fets(6, &[(0, 5, 1, 0), (10, 0, 2, 3), (20, 1, 3, 4)]);
        assert_eq!(same_circuit(&left, &right), Ok(()));

        // Moving B's gate to net 1 is a different circuit.
        let rewired = fets(6, &[(0, 5, 1, 0), (10, 1, 2, 3), (20, 1, 3, 4)]);
        let err = same_circuit(&left, &rewired).unwrap_err();
        assert!(matches!(err, CircuitDiff::NetMismatch { .. }), "{err}");
        assert!(err.to_string().contains("no counterpart"), "{err}");
    }

    #[test]
    fn devices_sharing_a_key_fall_back_to_the_signature() {
        // Two devices with one key, listed in either order.
        let left = fets(6, &[(0, 0, 1, 2), (0, 3, 4, 5)]);
        let right = fets(6, &[(0, 3, 4, 5), (0, 0, 1, 2)]);
        assert_eq!(same_circuit(&left, &right), Ok(()));

        // A gate tied to its own source versus the other device's: the
        // shared rank makes the partitions agree, the signatures not.
        let diode = fets(5, &[(0, 0, 0, 1), (0, 2, 3, 4)]);
        let crossed = fets(5, &[(0, 0, 3, 1), (0, 2, 0, 4)]);
        assert_ne!(structural_signature(&diode), structural_signature(&crossed));
        let err = same_circuit(&diode, &crossed).unwrap_err();
        assert!(err.to_string().contains("share a key"), "{err}");
    }

    #[test]
    fn a_name_on_an_isolated_net_does_not_match_a_terminal_net() {
        // Net 3, the first stage's output, carries terminals.
        let mut named = inverter_chain(2, false);
        named.add_name(NetId(3), "OUT");
        let mut isolated = inverter_chain(2, false);
        let extra = isolated.add_net();
        isolated.add_name(extra, "OUT");
        let expect = Err(CircuitDiff::NameMismatch { name: "OUT".into() });
        assert_eq!(same_circuit(&named, &isolated), expect);
        assert_eq!(same_circuit(&isolated, &named), expect);
    }
}
