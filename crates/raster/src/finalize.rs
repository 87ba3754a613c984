//! Shared run framing and output construction for the raster
//! baselines.

use ace_core::probe::{Counter, CounterProbe, Lane, Probe, Span};
use ace_core::{DeviceTable, Extraction, NetTable};
use ace_geom::Point;
use ace_layout::FlatLayout;
use ace_wirelist::{NetId, Netlist};

/// Runs one raster scan of `flat` as a [`Span::Extract`] on the main
/// lane, teed into a [`CounterProbe`] whose report view becomes the
/// extraction's report. The layout's boxes are counted here; `scan`
/// reports its rows as scanline stops.
pub(crate) fn observed(
    flat: &FlatLayout,
    probe: &dyn Probe,
    scan: impl FnOnce(&dyn Probe) -> Netlist,
) -> Extraction {
    let counters = CounterProbe::new();
    let tee = (&counters, probe);
    tee.enter(Lane::MAIN, Span::Extract);
    tee.add(Lane::MAIN, Counter::Boxes, flat.boxes().len() as u64);
    let netlist = scan(&tee);
    tee.exit(Lane::MAIN, Span::Extract);
    Extraction {
        netlist,
        report: counters.report(),
        window: None,
    }
}

/// Builds the output netlist from filled net/device tables, using the
/// same width/length rules as the scanline extractor so the baselines
/// are directly comparable.
pub(crate) fn build_netlist(mut nets: NetTable, mut devices: DeviceTable, name: &str) -> Netlist {
    let (map, net_count) = nets.compress();
    let mut netlist = Netlist::new();
    netlist.name = name.to_string();
    for _ in 0..net_count {
        netlist.add_net();
    }
    let mut seen = vec![false; net_count];
    #[allow(clippy::needless_range_loop)] // h is a union-find handle
    for h in 0..map.len() {
        let dense = map[h] as usize;
        if seen[dense] {
            continue;
        }
        seen[dense] = true;
        let id = NetId(dense as u32);
        let data = nets.take_data(h as u32);
        for net_name in data.names {
            netlist.add_name(id, net_name);
        }
        if let Some(bb) = data.bbox {
            netlist.set_location(id, Point::new(bb.x_min, bb.y_max));
        }
        netlist.add_parasitics(id, &data.parasitics);
    }
    for root in devices.roots() {
        let mut multi = false;
        if let Some((device, _)) = devices.finalize(root, &mut nets, &map, &mut multi) {
            netlist.add_device(device);
        }
    }
    netlist
}
