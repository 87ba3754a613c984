use std::error::Error;
use std::fmt;

use ace_layout::{BuildLayoutError, EagerFeed, FlatLayout, GeometryFeed, LazyFeed, Library};
use ace_wirelist::Netlist;

use crate::probe::{Lane, NullProbe, Probe};
use crate::report::{ExtractOptions, ExtractionReport};
use crate::sweep::Extractor;
use crate::window::WindowExtraction;

/// The result of one extraction run.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// The extracted circuit.
    pub netlist: Netlist,
    /// Instrumentation (phase times, counters).
    pub report: ExtractionReport,
    /// Boundary interface, when extracting in window mode.
    pub window: Option<WindowExtraction>,
}

/// The one error type of every extraction entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// The CIF source failed to parse or instantiate.
    Layout(BuildLayoutError),
    /// The options combination is unsupported.
    Options(&'static str),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::Layout(e) => write!(f, "extraction failed: {e}"),
            ExtractError::Options(msg) => write!(f, "invalid extraction options: {msg}"),
        }
    }
}

impl Error for ExtractError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExtractError::Layout(e) => Some(e),
            ExtractError::Options(_) => None,
        }
    }
}

impl From<BuildLayoutError> for ExtractError {
    fn from(e: BuildLayoutError) -> Self {
        ExtractError::Layout(e)
    }
}

/// True when the options request a band-parallel extraction, via a
/// worker count, a band count, or both.
fn wants_banding(options: &ExtractOptions) -> bool {
    options.threads.is_some() || options.bands.is_some()
}

/// Rejects option combinations no backend supports.
fn validate(options: &ExtractOptions) -> Result<(), ExtractError> {
    if wants_banding(options) && options.window.is_some() {
        return Err(ExtractError::Options(
            "window-mode extraction cannot be banded (threads/bands conflicts with window)",
        ));
    }
    Ok(())
}

/// Extracts from any geometry feed.
///
/// `name` becomes the netlist title.
///
/// # Errors
///
/// Returns [`ExtractError::Options`] when the options are
/// inconsistent or request banding (a bare feed cannot be split into
/// bands — band with [`extract_flat`] or [`extract_library`]).
pub fn extract_feed(
    feed: &mut dyn GeometryFeed,
    name: &str,
    options: ExtractOptions,
) -> Result<Extraction, ExtractError> {
    extract_feed_probed(feed, name, options, &NullProbe)
}

/// [`extract_feed`], reporting events to `probe` as it runs.
pub fn extract_feed_probed(
    feed: &mut dyn GeometryFeed,
    name: &str,
    options: ExtractOptions,
    probe: &dyn Probe,
) -> Result<Extraction, ExtractError> {
    validate(&options)?;
    if wants_banding(&options) {
        return Err(ExtractError::Options(
            "a geometry feed cannot be banded; band a flat layout or a library instead",
        ));
    }
    Ok(Extractor::with_probe(options, probe).run(feed, name))
}

/// Extracts a layout library with the lazy front-end (the production
/// path: symbols are expanded only as the scanline reaches them).
///
/// With [`ExtractOptions::with_threads`] the library is flattened and
/// extracted band-parallel instead.
///
/// # Errors
///
/// Returns [`ExtractError::Options`] when the options are
/// inconsistent (e.g. banding a window-mode extraction).
pub fn extract_library(
    lib: &Library,
    name: &str,
    options: ExtractOptions,
) -> Result<Extraction, ExtractError> {
    extract_library_probed(lib, name, options, &NullProbe)
}

/// [`extract_library`], reporting events to `probe` as it runs.
pub fn extract_library_probed(
    lib: &Library,
    name: &str,
    options: ExtractOptions,
    probe: &dyn Probe,
) -> Result<Extraction, ExtractError> {
    validate(&options)?;
    if wants_banding(&options) {
        // Banding needs the full flat box list to find y cuts.
        let flat = FlatLayout::from_library(lib);
        return crate::parallel::extract_auto_banded(flat, name, options, probe);
    }
    let mut feed = LazyFeed::new(lib).with_probe(probe, Lane::MAIN);
    Ok(Extractor::with_probe(options, probe).run(&mut feed, name))
}

/// Extracts a fully-instantiated layout with the eager front-end,
/// band-parallel when [`ExtractOptions::with_threads`] is set.
///
/// # Errors
///
/// Returns [`ExtractError::Options`] when the options are
/// inconsistent (e.g. banding a window-mode extraction).
pub fn extract_flat(
    flat: FlatLayout,
    name: &str,
    options: ExtractOptions,
) -> Result<Extraction, ExtractError> {
    extract_flat_probed(flat, name, options, &NullProbe)
}

/// [`extract_flat`], reporting events to `probe` as it runs.
pub fn extract_flat_probed(
    flat: FlatLayout,
    name: &str,
    options: ExtractOptions,
    probe: &dyn Probe,
) -> Result<Extraction, ExtractError> {
    validate(&options)?;
    if wants_banding(&options) {
        return crate::parallel::extract_auto_banded(flat, name, options, probe);
    }
    let mut feed = EagerFeed::from_flat(flat).with_probe(probe, Lane::MAIN);
    Ok(Extractor::with_probe(options, probe).run(&mut feed, name))
}

/// Parses CIF text and extracts it.
///
/// # Errors
///
/// Returns [`ExtractError`] when the CIF is malformed or references
/// undefined/recursive symbols, or when the options are inconsistent.
///
/// # Examples
///
/// ```
/// use ace_core::{extract_text, ExtractOptions};
///
/// let result = extract_text(
///     "L ND; B 400 1600 0 0; L NP; B 1600 400 0 0; E",
///     ExtractOptions::new(),
/// )?;
/// assert_eq!(result.netlist.device_count(), 1);
/// # Ok::<(), ace_core::ExtractError>(())
/// ```
pub fn extract_text(src: &str, options: ExtractOptions) -> Result<Extraction, ExtractError> {
    extract_text_probed(src, options, &NullProbe)
}

/// [`extract_text`], reporting events to `probe` as it runs.
pub fn extract_text_probed(
    src: &str,
    options: ExtractOptions,
    probe: &dyn Probe,
) -> Result<Extraction, ExtractError> {
    let lib = Library::from_cif_text(src)?;
    extract_library_probed(&lib, "cif-text", options, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_geom::{Layer, Point, Rect};
    use ace_wirelist::DeviceKind;

    /// A canonical NMOS inverter, built box by box:
    ///
    /// * vertical diffusion column `x∈[0,400]`, `y∈[-1600,1600]`;
    /// * enhancement gate: poly bar crossing at `y∈[-800,-400]`;
    /// * depletion load: poly bar at `y∈[400,800]` under implant,
    ///   with its gate strapped to the output by a buried contact at
    ///   `y∈[-100,400]`;
    /// * metal rails with cuts at top (VDD) and bottom (GND);
    /// * labels VDD/OUT/INP/GND.
    const INVERTER: &str = "
        L ND; B 400 3200 200 0;
        L NP; B 1200 400 200 -600;
        L NP; B 400 400 200 600;
        L NP; B 400 500 200 150;
        L NI; B 600 600 200 600;
        L NB; B 400 500 200 150;
        L NM; B 800 400 200 1400;
        L NM; B 800 400 200 -1400;
        L NC; B 200 200 200 1400;
        L NC; B 200 200 200 -1400;
        94 VDD 0 1600 NM;
        94 GND 0 -1600 NM;
        94 OUT 200 0 ND;
        94 INP -400 -600 NP;
        E";

    fn extract_inverter(options: ExtractOptions) -> Extraction {
        extract_text(INVERTER, options).expect("inverter extracts")
    }

    #[test]
    fn inverter_has_two_devices_and_four_nets() {
        let r = extract_inverter(ExtractOptions::new());
        assert_eq!(r.netlist.device_count(), 2, "{:#?}", r.netlist.devices());
        let (enh, dep, cap) = r.netlist.device_census();
        assert_eq!((enh, dep, cap), (1, 1, 0));
        let mut nl = r.netlist.clone();
        nl.prune_floating_nets();
        assert_eq!(nl.net_count(), 4);
        for name in ["VDD", "GND", "OUT", "INP"] {
            assert!(nl.net_by_name(name).is_some(), "missing net {name}");
        }
    }

    #[test]
    fn inverter_connectivity_is_correct() {
        let r = extract_inverter(ExtractOptions::new());
        let nl = &r.netlist;
        let vdd = nl.net_by_name("VDD").unwrap();
        let gnd = nl.net_by_name("GND").unwrap();
        let out = nl.net_by_name("OUT").unwrap();
        let inp = nl.net_by_name("INP").unwrap();
        assert_eq!(
            [vdd, gnd, out, inp]
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            4
        );

        let enh = nl
            .devices()
            .iter()
            .find(|d| d.kind == DeviceKind::Enhancement)
            .expect("enhancement transistor");
        assert_eq!(enh.gate, inp);
        let mut sd = [enh.source, enh.drain];
        sd.sort();
        let mut expect = [out, gnd];
        expect.sort();
        assert_eq!(sd, expect);

        let dep = nl
            .devices()
            .iter()
            .find(|d| d.kind == DeviceKind::Depletion)
            .expect("depletion load");
        // Depletion gate is strapped to the output through the buried
        // contact.
        assert_eq!(dep.gate, out);
        let mut sd = [dep.source, dep.drain];
        sd.sort();
        let mut expect = [vdd, out];
        expect.sort();
        assert_eq!(sd, expect);
    }

    #[test]
    fn inverter_dimensions() {
        let r = extract_inverter(ExtractOptions::new());
        for d in r.netlist.devices() {
            assert_eq!(d.length, 400, "{d:?}");
            assert_eq!(d.width, 400, "{d:?}");
        }
    }

    #[test]
    fn single_crossing_yields_one_transistor() {
        let r = extract_text(
            "L ND; B 400 1600 0 0; L NP; B 1600 400 0 0; E",
            ExtractOptions::new(),
        )
        .unwrap();
        assert_eq!(r.netlist.device_count(), 1);
        let d = &r.netlist.devices()[0];
        assert_eq!(d.kind, DeviceKind::Enhancement);
        assert_eq!((d.length, d.width), (400, 400));
        // Source and drain are distinct diffusion nets.
        assert_ne!(d.source, d.drain);
        assert_ne!(d.gate, d.source);
        // Location: upper-left of the channel [-200,-200;200,200].
        assert_eq!(d.location, Point::new(-200, 200));
    }

    #[test]
    fn mesh_worst_case_counts() {
        // 3 horizontal poly bars × 3 vertical diffusion columns = 9
        // transistors, one poly net per bar, and diffusion columns cut
        // into 4 segments each (12 diffusion nets).
        let mut src = String::new();
        for i in 0..3 {
            src.push_str(&format!("L NP; B 5000 400 0 {};\n", i * 1500));
            src.push_str(&format!("L ND; B 400 5000 {} 750;\n", i * 1500 - 1500));
        }
        src.push('E');
        let r = extract_text(&src, ExtractOptions::new()).unwrap();
        assert_eq!(r.netlist.device_count(), 9);
        let mut nl = r.netlist.clone();
        nl.prune_floating_nets();
        assert_eq!(nl.net_count(), 3 + 12);
    }

    #[test]
    fn overlapping_same_layer_boxes_are_one_net() {
        let r = extract_text(
            "L NM; B 1000 200 0 0; B 200 1000 0 0; 94 A -500 0; 94 B 0 -500; E",
            ExtractOptions::new(),
        )
        .unwrap();
        let nl = &r.netlist;
        assert_eq!(nl.net_by_name("A"), nl.net_by_name("B"));
        assert!(nl.net_by_name("A").is_some());
    }

    #[test]
    fn abutting_boxes_connect_but_corner_contact_does_not() {
        // Two metal boxes sharing a full edge, a third touching only
        // at a corner.
        let r = extract_text(
            "L NM; B 100 100 0 0; B 100 100 100 0; B 100 100 200 100;
             94 A -50 0; 94 B 150 0; 94 C 250 100; E",
            ExtractOptions::new(),
        )
        .unwrap();
        let nl = &r.netlist;
        assert_eq!(nl.net_by_name("A"), nl.net_by_name("B"));
        assert_ne!(nl.net_by_name("A"), nl.net_by_name("C"));
    }

    #[test]
    fn layers_do_not_connect_without_contacts() {
        let r = extract_text(
            "L NM; B 1000 1000 0 0; L NP; B 1000 1000 0 0;
             94 M 0 0 NM; 94 P 0 0 NP; E",
            ExtractOptions::new(),
        )
        .unwrap();
        let nl = &r.netlist;
        assert_ne!(nl.net_by_name("M"), nl.net_by_name("P"));
        assert_eq!(nl.device_count(), 0); // poly over metal is nothing
    }

    #[test]
    fn cut_connects_metal_to_poly() {
        let r = extract_text(
            "L NM; B 1000 1000 0 0; L NP; B 1000 1000 0 0; L NC; B 200 200 0 0;
             94 M -400 0 NM; 94 P 400 0 NP; E",
            ExtractOptions::new(),
        )
        .unwrap();
        assert_eq!(r.netlist.net_by_name("M"), r.netlist.net_by_name("P"));
    }

    #[test]
    fn buried_contact_suppresses_transistor_and_connects() {
        let r = extract_text(
            "L ND; B 400 1600 0 0; L NP; B 1600 400 0 0; L NB; B 600 600 0 0;
             94 D 0 700 ND; 94 P 700 0 NP; E",
            ExtractOptions::new(),
        )
        .unwrap();
        assert_eq!(r.netlist.device_count(), 0);
        assert_eq!(r.netlist.net_by_name("D"), r.netlist.net_by_name("P"));
    }

    #[test]
    fn poly_covering_whole_diffusion_island_is_a_capacitor() {
        let r = extract_text(
            "L ND; B 400 400 0 0; L NP; B 1000 1000 0 0; E",
            ExtractOptions::new(),
        )
        .unwrap();
        assert_eq!(r.netlist.device_count(), 1);
        let d = &r.netlist.devices()[0];
        assert_eq!(d.kind, DeviceKind::Capacitor);
        assert_eq!(d.channel_area(), 400 * 400);
    }

    #[test]
    fn l_shaped_channel_is_one_transistor() {
        // Poly bent in an L over a diffusion region: the channel
        // fragments in different strips must union into one device.
        let r = extract_text(
            "L ND; B 2000 2000 0 0;
             L NP; B 400 1400 -500 -300; B 1400 400 0 200;
             E",
            ExtractOptions::new(),
        )
        .unwrap();
        // One L-shaped channel: diffusion is cut into two nets by it
        // (inside corner and outside), so exactly one device results.
        assert_eq!(r.netlist.device_count(), 1);
        let d = &r.netlist.devices()[0];
        let area = 400 * 1400 + 1400 * 400 - 400 * 400;
        assert_eq!(d.length * d.width, (d.length * d.width).max(1));
        // Total channel area is preserved through the W/L model:
        // area == L·W only up to integer division; check against the
        // true area with 1% slack.
        let lw = d.length * d.width;
        assert!(
            (lw - area).abs() <= area / 100 + d.width,
            "L·W {lw} vs true area {area}"
        );
    }

    #[test]
    fn geometry_output_is_optional_and_coalesced() {
        let r = extract_text(
            "L NM; B 1000 200 0 0; B 1000 200 0 200; 94 A 0 0; E",
            ExtractOptions::new().with_geometry(),
        )
        .unwrap();
        let id = r.netlist.net_by_name("A").unwrap();
        let geometry = &r.netlist.net(id).geometry;
        // The two stacked boxes coalesce into one rectangle.
        assert_eq!(
            geometry,
            &vec![(Layer::Metal, Rect::new(-500, -100, 500, 300))]
        );

        let r2 = extract_text("L NM; B 1000 200 0 0; 94 A 0 0; E", ExtractOptions::new()).unwrap();
        let id2 = r2.netlist.net_by_name("A").unwrap();
        assert!(r2.netlist.net(id2).geometry.is_empty());
    }

    #[test]
    fn unresolved_labels_are_counted() {
        let r = extract_text(
            "L NM; B 100 100 0 0; 94 GHOST 5000 5000; E",
            ExtractOptions::new(),
        )
        .unwrap();
        assert_eq!(r.report.unresolved_labels, 1);
    }

    #[test]
    fn net_location_is_upper_left_of_bbox() {
        let r = extract_text(
            "L NM; B 4800 800 -200 3400; 94 VDD -200 3400; E",
            ExtractOptions::new(),
        )
        .unwrap();
        let id = r.netlist.net_by_name("VDD").unwrap();
        assert_eq!(r.netlist.net(id).location, Some(Point::new(-2600, 3800)));
    }

    #[test]
    fn lazy_and_eager_extractions_agree() {
        let lib = Library::from_cif_text(INVERTER).unwrap();
        let lazy = extract_library(&lib, "inv", ExtractOptions::new()).unwrap();
        let eager =
            extract_flat(FlatLayout::from_library(&lib), "inv", ExtractOptions::new()).unwrap();
        ace_wirelist::compare::same_circuit(&lazy.netlist, &eager.netlist)
            .expect("lazy and eager agree");
    }

    #[test]
    fn hierarchical_instances_extract_like_flat_copies() {
        // Two inverter-ish cells side by side via symbol calls.
        let src = "
            DS 1;
            L ND; B 400 1600 0 0;
            L NP; B 1600 400 0 0;
            DF;
            C 1 T 0 0;
            C 1 T 5000 0;
            E";
        let r = extract_text(src, ExtractOptions::new()).unwrap();
        assert_eq!(r.netlist.device_count(), 2);
    }

    #[test]
    fn report_counts_boxes_and_stops() {
        let r = extract_inverter(ExtractOptions::new());
        assert_eq!(r.report.boxes, 10); // 10 geometry boxes in INVERTER
        assert!(r.report.scanline_stops > 5);
        assert!(r.report.max_active > 0);
        assert!(r.report.fragments > 0);
    }

    #[test]
    fn empty_layout_extracts_empty() {
        let r = extract_text("E", ExtractOptions::new()).unwrap();
        assert_eq!(r.netlist.device_count(), 0);
        assert_eq!(r.netlist.net_count(), 0);
        assert_eq!(r.report.boxes, 0);
    }

    #[test]
    fn window_mode_reports_boundary_contacts() {
        // A transistor whose channel sits on the window's right edge:
        // poly and diffusion both reach x = 1000.
        let src = "
            L ND; B 800 1600 600 0;
            L NP; B 2000 400 0 0;
            E";
        let window = Rect::new(-1000, -800, 1000, 800);
        let r = extract_text(src, ExtractOptions::new().with_window(window)).unwrap();
        let w = r.window.as_ref().expect("window extraction");
        use crate::window::{BoundarySignal, Face};
        let right = w.face_contacts(Face::Right);
        assert!(!right.is_empty());
        // The channel [200,1000]×[-200,200] touches the right face.
        assert!(right
            .iter()
            .any(|c| matches!(c.signal, BoundarySignal::Channel(_))));
        // The device is marked partial.
        assert_eq!(w.device_details.iter().filter(|d| d.partial).count(), 1);
        // Poly reaches both left and right faces.
        let left = w.face_contacts(Face::Left);
        assert!(left.iter().any(|c| c.layer == Some(Layer::Poly)));
    }

    #[test]
    fn window_mode_details_align_with_devices() {
        let src = "
            L ND; B 400 1600 0 0;
            L NP; B 1600 400 0 0;
            E";
        let window = Rect::new(-800, -800, 800, 800);
        let r = extract_text(src, ExtractOptions::new().with_window(window)).unwrap();
        let w = r.window.as_ref().unwrap();
        assert_eq!(w.device_details.len(), r.netlist.device_count());
        let detail = &w.device_details[0];
        assert_eq!(detail.channel.area, 400 * 400);
        assert!(!detail.partial);
        assert_eq!(detail.channel.terminals.len(), 2);
        assert_eq!(detail.channel.gate, r.netlist.devices()[0].gate.0);
    }

    #[test]
    fn bin_sort_produces_same_netlist() {
        use crate::report::SortStrategy;
        let a = extract_inverter(ExtractOptions::new());
        let b = extract_inverter(ExtractOptions::new().with_sort(SortStrategy::Bin));
        ace_wirelist::compare::same_circuit(&a.netlist, &b.netlist).expect("same circuit");
    }

    /// Two overlapping same-net rectangles contribute their *union*
    /// to the parasitic totals: counting the lens twice would inflate
    /// the capacitance of any net drawn as overlapping strokes.
    #[test]
    fn overlapping_rects_do_not_double_count_area() {
        // Metal x∈[0,800] ∪ x∈[400,1200], both y∈[0,400]: the union
        // is the single rectangle 1200×400.
        let r = extract_text(
            "L NM; B 800 400 400 200; B 800 400 800 200;
             94 W 400 200 NM; E",
            ExtractOptions::new(),
        )
        .expect("extracts");
        let id = r.netlist.net_by_name("W").expect("net W");
        let p = &r.netlist.net(id).parasitics;
        let metal = ace_wirelist::parasitics::conducting_slot(Layer::Metal).unwrap();
        assert_eq!(p.area[metal], 1200 * 400, "union area, not the sum");
        assert_eq!(p.perimeter[metal], 2 * (1200 + 400), "union perimeter");
        assert_eq!(p.cut_area, 0);
    }

    /// Two rectangles abutting along a full edge merge into one net;
    /// the shared edge is interior to the union and must vanish from
    /// the perimeter total (subtracted once from each side).
    #[test]
    fn abutting_rects_do_not_double_count_shared_perimeter() {
        // Metal x∈[0,800] and x∈[800,1600], both y∈[0,400]: zero
        // overlap area, but the 400-long seam at x=800 is interior.
        let r = extract_text(
            "L NM; B 800 400 400 200; B 800 400 1200 200;
             94 W 400 200 NM; E",
            ExtractOptions::new(),
        )
        .expect("extracts");
        let id = r.netlist.net_by_name("W").expect("net W");
        let p = &r.netlist.net(id).parasitics;
        let metal = ace_wirelist::parasitics::conducting_slot(Layer::Metal).unwrap();
        assert_eq!(p.area[metal], 2 * 800 * 400, "abutment adds no area");
        assert_eq!(
            p.perimeter[metal],
            2 * (1600 + 400),
            "shared seam must not be counted"
        );
    }

    #[test]
    fn malformed_cif_reports_error() {
        let err = extract_text("C 99;", ExtractOptions::new()).unwrap_err();
        assert!(err.to_string().contains("undefined symbol"));
        assert!(matches!(err, ExtractError::Layout(_)));
    }

    #[test]
    fn conflicting_options_report_error() {
        let options = ExtractOptions::new()
            .with_window(Rect::new(0, 0, 100, 100))
            .with_threads(2);
        let err = extract_text("E", options).unwrap_err();
        assert!(matches!(err, ExtractError::Options(_)));
        assert!(err.to_string().contains("invalid extraction options"));

        // A bare feed cannot be banded either.
        let lib = Library::from_cif_text("E").unwrap();
        let mut feed = LazyFeed::new(&lib);
        let err = extract_feed(&mut feed, "e", ExtractOptions::new().with_threads(2)).unwrap_err();
        assert!(matches!(err, ExtractError::Options(_)));
    }
}
