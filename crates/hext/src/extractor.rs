use std::collections::HashMap;

use ace_core::probe::{Counter, CounterProbe, Lane, NullProbe, Probe, Span};
use ace_core::{CircuitExtractor, ExtractError, ExtractOptions, Extraction, ExtractionReport};
use ace_geom::{Point, Rect};
use ace_layout::{BuildLayoutError, EagerFeed, FlatLayout, Library};
use ace_wirelist::{HierNetlist, PartDef, SubPart};

use crate::compose::compose;
use crate::interface::{window_circuit_from_extraction, WindowCircuit};
use crate::report::HextReport;
use crate::windowing::{Content, WindowKey};

/// The result of a hierarchical extraction.
#[derive(Debug, Clone)]
pub struct HextExtraction {
    /// The hierarchical wirelist; flatten it for a flat netlist.
    pub hier: HierNetlist,
    /// Instrumentation (flat calls, compose calls, timings).
    pub report: HextReport,
}

/// Runs the hierarchical extractor over a layout library.
///
/// `name` becomes the wirelist title.
///
/// # Examples
///
/// ```
/// use ace_hext::extract_hierarchical;
/// use ace_layout::Library;
///
/// let lib = Library::from_cif_text(
///     "DS 1; L ND; B 500 2000 0 0; L NP; B 2000 500 0 0; DF;
///      C 1 T 0 0; C 1 T 5000 0; E",
/// )?;
/// let hext = extract_hierarchical(&lib, "pair");
/// assert_eq!(hext.hier.flatten().device_count(), 2);
/// // The two identical cells were extracted once.
/// assert_eq!(hext.report.flat_calls, hext.report.flat_calls.min(4));
/// # Ok::<(), ace_layout::BuildLayoutError>(())
/// ```
pub fn extract_hierarchical(lib: &Library, name: &str) -> HextExtraction {
    extract_hierarchical_probed(lib, name, &NullProbe)
}

/// [`extract_hierarchical`], reporting events to `probe` as it runs:
/// one [`Span::Extract`] around the run, a [`Span::Window`] per
/// primitive window (with the sweep's spans nested inside), a
/// [`Span::Compose`] per composition, and the window/compose cache
/// counters.
pub fn extract_hierarchical_probed(lib: &Library, name: &str, probe: &dyn Probe) -> HextExtraction {
    let mut store = SessionStore::default();
    let (report, _) = run_extraction(lib, &mut store, name, probe);
    HextExtraction {
        hier: store.hier,
        report,
    }
}

/// The shared window/compose memo tables plus the growing wirelist.
#[derive(Debug, Clone, Default)]
struct SessionStore {
    hier: HierNetlist,
    circuits: Vec<WindowCircuit>,
    window_table: HashMap<WindowKey, usize>,
    compose_table: HashMap<(usize, usize, Point), usize>,
}

/// A persistent hierarchical-extraction session, the "incremental
/// extractor" the ACE paper's conclusions point at ("the edge-based
/// algorithms are well suited for hierarchical and incremental
/// extractors").
///
/// The window and compose memo tables survive across
/// [`IncrementalExtractor::extract`] calls, keyed by *content* (deep
/// cell hashes), so re-extracting a chip after an edit only analyzes
/// the windows the edit actually changed — everything else is a cache
/// hit. This is the "few iterations of extracting, simulating, and
/// fixing bugs during a single two-hour session" workflow from the
/// paper's conclusions, with the session state doing the saving.
///
/// # Examples
///
/// ```
/// use ace_hext::IncrementalExtractor;
/// use ace_layout::Library;
///
/// let mut session = IncrementalExtractor::new();
/// let v1 = Library::from_cif_text(
///     "DS 1; L ND; B 500 2000 0 0; L NP; B 2000 500 0 0; DF;
///      C 1 T 0 0; C 1 T 5000 0; E",
/// )?;
/// let first = session.extract(&v1, "chip-v1");
/// assert_eq!(first.netlist.device_count(), 2);
///
/// // Edit: one more cell. Only the new arrangement is analyzed; the
/// // cell windows come from the session cache.
/// let v2 = Library::from_cif_text(
///     "DS 1; L ND; B 500 2000 0 0; L NP; B 2000 500 0 0; DF;
///      C 1 T 0 0; C 1 T 5000 0; C 1 T 10000 0; E",
/// )?;
/// let second = session.extract(&v2, "chip-v2");
/// assert_eq!(second.netlist.device_count(), 3);
/// assert!(second.report.window_cache_hits > 0);
/// # Ok::<(), ace_layout::BuildLayoutError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalExtractor {
    store: SessionStore,
}

/// One extraction performed inside an [`IncrementalExtractor`]
/// session.
#[derive(Debug, Clone)]
pub struct IncrementalRun {
    /// The flattened circuit of this run.
    pub netlist: ace_wirelist::Netlist,
    /// Instrumentation for this run only (cache hits count reuse of
    /// windows from *any* earlier run in the session).
    pub report: HextReport,
}

impl IncrementalExtractor {
    /// Creates an empty session.
    pub fn new() -> Self {
        IncrementalExtractor::default()
    }

    /// Extracts `lib`, reusing every window already analyzed in this
    /// session.
    pub fn extract(&mut self, lib: &Library, name: &str) -> IncrementalRun {
        self.extract_probed(lib, name, &NullProbe)
    }

    /// [`extract`](Self::extract), reporting events to `probe`.
    pub fn extract_probed(
        &mut self,
        lib: &Library,
        name: &str,
        probe: &dyn Probe,
    ) -> IncrementalRun {
        let (report, _) = run_extraction(lib, &mut self.store, name, probe);
        let mut netlist = self.store.hier.flatten();
        netlist.name = name.to_string();
        IncrementalRun { netlist, report }
    }

    /// The session-wide hierarchical wirelist (every window analyzed
    /// so far; the top points at the most recent extraction).
    pub fn wirelist(&self) -> &HierNetlist {
        &self.store.hier
    }

    /// Distinct windows in the session table.
    pub fn unique_windows(&self) -> u64 {
        self.store.circuits.len() as u64
    }
}

/// Runs one extraction against a (possibly pre-populated) store and
/// leaves the store's wirelist top pointing at the result.
///
/// The run is one [`Span::Extract`] on the main lane, teed into a
/// [`CounterProbe`]; both reports are views over that aggregate.
fn run_extraction(
    lib: &Library,
    store: &mut SessionStore,
    name: &str,
    probe: &dyn Probe,
) -> (HextReport, ExtractionReport) {
    let counters = CounterProbe::new();
    let tee = (&counters, probe);
    tee.enter(Lane::MAIN, Span::Extract);
    store.hier.name = name.to_string();
    let mut state = State {
        lib,
        store,
        probe: &tee,
    };
    let unique_windows = match Content::chip(lib) {
        Some(content) => {
            state.extract_chip(content);
            state.store.circuits.len() as u64
        }
        None => {
            // An empty chip: give the wirelist an empty top part.
            let top = state.store.hier.add_part(PartDef {
                name: "chip".to_string(),
                ..PartDef::default()
            });
            state.store.hier.set_top(top);
            0
        }
    };
    tee.exit(Lane::MAIN, Span::Extract);
    (
        HextReport::from_counters(&counters, unique_windows),
        counters.report(),
    )
}

/// Parses CIF text and extracts it hierarchically.
///
/// # Errors
///
/// Propagates CIF parse and layout-building errors.
pub fn extract_hierarchical_text(
    src: &str,
    name: &str,
) -> Result<HextExtraction, BuildLayoutError> {
    let lib = Library::from_cif_text(src)?;
    Ok(extract_hierarchical(&lib, name))
}

/// The hierarchical window/compose extractor as a
/// [`CircuitExtractor`] backend: extracts hierarchically, flattens
/// the wirelist, and reports the run's [`ExtractionReport`] view.
pub struct HierarchicalExtractor {
    lib: Library,
}

impl HierarchicalExtractor {
    /// A backend over `lib`.
    pub fn new(lib: Library) -> Self {
        HierarchicalExtractor { lib }
    }
}

impl CircuitExtractor for HierarchicalExtractor {
    fn backend(&self) -> &'static str {
        "hext"
    }

    fn extract_probed(
        &mut self,
        name: &str,
        probe: &dyn Probe,
    ) -> Result<Extraction, ExtractError> {
        let mut store = SessionStore::default();
        let (_, report) = run_extraction(&self.lib, &mut store, name, probe);
        let mut netlist = store.hier.flatten();
        netlist.name = name.to_string();
        Ok(Extraction {
            netlist,
            report,
            window: None,
        })
    }
}

struct State<'a> {
    lib: &'a Library,
    store: &'a mut SessionStore,
    probe: &'a dyn Probe,
}

impl State<'_> {
    /// Analyzes the chip window, then wraps it in a final part that
    /// finishes whatever partial transistors still touch the chip
    /// outline, and points the wirelist top at that part.
    fn extract_chip(&mut self, content: Content) {
        let (idx, pos) = self.analyze(content);
        let top_circ = &self.store.circuits[idx];
        let exports = &self.store.hier.part(top_circ.part).exports;
        let net_map: Vec<(u32, u32)> = (exports.iter().enumerate())
            .map(|(i, &e)| (e, i as u32))
            .collect();
        let export_local: HashMap<u32, u32> = net_map.iter().copied().collect();
        let mut wrapper = PartDef {
            name: "chip".to_string(),
            net_count: net_map.len() as u32,
            subparts: vec![SubPart {
                part: top_circ.part,
                name: "TOP".to_string(),
                loc_offset: pos,
                net_map,
            }],
            ..PartDef::default()
        };
        for p in &top_circ.partials {
            let mut local = p.clone();
            local.gate = export_local[&local.gate];
            for t in &mut local.terminals {
                t.0 = export_local[&t.0];
            }
            let mut device = local.finalize();
            device.location += pos;
            wrapper.devices.push(device);
        }
        let top = self.store.hier.add_part(wrapper);
        self.store.hier.set_top(top);
    }

    /// Analyzes one window, returning its circuit index and position
    /// (the window's lower-left corner in the caller's frame).
    fn analyze(&mut self, mut content: Content) -> (usize, Point) {
        let pos = Point::new(content.rect.x_min, content.rect.y_min);
        content.normalize();
        content.canonicalize(self.lib);
        let key = content.key(self.lib);

        if let Some(&idx) = self.store.window_table.get(&key) {
            self.probe.add(Lane::MAIN, Counter::WindowCacheHits, 1);
            return (idx, pos);
        }

        let mut current = content;
        let idx = loop {
            if current.is_primitive() {
                break self.extract_primitive(&current);
            }
            // Slice the window around the current instances; when the
            // window cannot be subdivided further (a single cluster
            // spanning the whole window), expand the instances one
            // level and re-window.
            let mut subs = current.subdivide(self.lib);
            let no_progress = subs.len() == 1 && subs[0].rect == current.rect;
            if no_progress {
                current = current.expand_one_level(self.lib);
                continue;
            }
            // "the sub-windows are sorted by the lower-left corner,
            // bottom to top, left to right, and then visited in
            // sorted order."
            subs.sort_by_key(|s| (s.rect.y_min, s.rect.x_min));

            let mut acc: Option<(usize, Point)> = None;
            for sub in subs {
                let (i, p) = self.analyze(sub);
                acc = Some(match acc {
                    None => (i, p),
                    Some((ai, ap)) => self.compose_cached(ai, ap, i, p),
                });
            }
            break acc.expect("subdivide yields at least one window").0;
        };

        self.store.window_table.insert(key, idx);
        (idx, pos)
    }

    fn extract_primitive(&mut self, content: &Content) -> usize {
        self.probe.enter(Lane::MAIN, Span::Window);
        let mut flat = FlatLayout::new();
        for &(layer, r) in &content.boxes {
            flat.push_box(layer, r);
        }
        for l in &content.labels {
            flat.push_label(l.name.clone(), l.at, l.layer);
        }
        let window = Rect::new(0, 0, content.rect.width(), content.rect.height());
        let mut feed = EagerFeed::from_flat(flat).with_probe(self.probe, Lane::MAIN);
        let extraction = ace_core::extract_feed_probed(
            &mut feed,
            "window",
            ExtractOptions::new().with_window(window),
            self.probe,
        )
        .expect("window extraction cannot fail");
        self.probe.add(Lane::MAIN, Counter::FlatCalls, 1);

        let wx = extraction.window.as_ref().expect("window mode is on");
        let name = format!("Window{}", self.store.circuits.len());
        let (part_def, iface, partials) = window_circuit_from_extraction(&extraction, wx, name);
        let net_count = part_def.net_count;
        let part = self.store.hier.add_part(part_def);
        self.store.circuits.push(WindowCircuit {
            region: vec![window],
            part,
            net_count,
            iface,
            partials,
        });
        self.probe.exit(Lane::MAIN, Span::Window);
        self.store.circuits.len() - 1
    }

    fn compose_cached(&mut self, ai: usize, ap: Point, bi: usize, bp: Point) -> (usize, Point) {
        let delta = bp - ap;
        let pc = Point::new(ap.x.min(bp.x), ap.y.min(bp.y));
        if let Some(&ci) = self.store.compose_table.get(&(ai, bi, delta)) {
            self.probe.add(Lane::MAIN, Counter::ComposeCacheHits, 1);
            return (ci, pc);
        }
        self.probe.enter(Lane::MAIN, Span::Compose);
        let name = format!("Window{}", self.store.circuits.len());
        let store = &mut *self.store;
        let (circ, stats) = compose(
            &mut store.hier,
            &store.circuits[ai],
            ap - pc,
            &store.circuits[bi],
            bp - pc,
            name,
        );
        self.probe.exit(Lane::MAIN, Span::Compose);
        self.probe.add(Lane::MAIN, Counter::ComposeCalls, 1);
        self.probe.add(
            Lane::MAIN,
            Counter::PartialsCompleted,
            stats.partials_completed,
        );
        self.store.circuits.push(circ);
        let ci = self.store.circuits.len() - 1;
        self.store.compose_table.insert((ai, bi, delta), ci);
        (ci, pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::{extract_library, ExtractOptions};
    use ace_wirelist::compare::same_circuit;
    use std::time::Duration;

    fn check_equivalence(src: &str) -> (HextExtraction, ace_core::Extraction) {
        let lib = Library::from_cif_text(src).expect("valid CIF");
        let flat = extract_library(&lib, "chip", ExtractOptions::new()).expect("flat extracts");
        let hext = extract_hierarchical(&lib, "chip");
        let mut hflat = hext.hier.flatten();
        let mut fflat = flat.netlist.clone();
        hflat.prune_floating_nets();
        fflat.prune_floating_nets();
        if let Err(diff) = same_circuit(&fflat, &hflat) {
            panic!(
                "flat and hierarchical extraction disagree: {diff}\nflat: {} devices {} nets, hext: {} devices {} nets",
                fflat.device_count(),
                fflat.net_count(),
                hflat.device_count(),
                hflat.net_count()
            );
        }
        (hext, flat)
    }

    #[test]
    fn single_cell_round_trip() {
        check_equivalence("DS 1; L ND; B 500 2000 0 0; L NP; B 2000 500 0 0; DF; C 1 T 0 0; E");
    }

    #[test]
    fn two_identical_cells_extract_once() {
        let (hext, _) = check_equivalence(
            "DS 1; L ND; B 500 2000 0 0; L NP; B 2000 500 0 0; DF;
             C 1 T 0 0; C 1 T 5000 0; E",
        );
        // One unique primitive cell window; the empty tiles differ in
        // size so allow a handful of flat calls, but the second cell
        // must hit the window table.
        assert!(hext.report.window_cache_hits >= 1, "{:?}", hext.report);
    }

    #[test]
    fn inverter_chain_round_trip() {
        check_equivalence(&ace_workloads::cells::chained_inverters_cif(4));
    }

    #[test]
    fn square_array_round_trip_and_reuse() {
        let (hext, flat) = check_equivalence(&ace_workloads::array::square_array_cif(2));
        assert_eq!(flat.netlist.device_count(), 16);
        assert_eq!(hext.hier.instantiated_device_count(), 16);
        // The binary-tree array must reuse aggressively: far fewer
        // flat calls than cells.
        assert!(
            hext.report.flat_calls < 8,
            "expected heavy reuse, got {} flat calls",
            hext.report.flat_calls
        );
    }

    #[test]
    fn boundary_cut_transistor_is_reassembled() {
        // Two metal-only cells; a loose transistor straddles the
        // slicing line at the first cluster's right edge (x = 1000),
        // so its channel is cut into partial transistors that must
        // merge back during composition.
        check_equivalence(
            "DS 1; L NM; B 1000 1000 500 500; DF;
             C 1 T 0 0; C 1 T 5000 0;
             L ND; B 400 1000 1000 500;
             L NP; B 1000 400 1000 600;
             E",
        );
    }

    #[test]
    fn word_lines_crossing_many_windows_stay_one_net() {
        check_equivalence(&ace_workloads::array::memory_array_cif(3, 4));
    }

    #[test]
    fn chip_proxy_round_trip() {
        let spec = ace_workloads::chips::paper_chip("cherry")
            .expect("spec")
            .scaled(0.05);
        let chip = ace_workloads::chips::generate_chip(&spec);
        check_equivalence(&chip.cif);
    }

    #[test]
    fn empty_layout() {
        let hext = extract_hierarchical_text("E", "empty").expect("parse");
        assert_eq!(hext.hier.flatten().device_count(), 0);
        assert_eq!(hext.report.flat_calls, 0);
    }

    #[test]
    fn report_counts_activity() {
        // The report is the view over the run's events: an external
        // probe sees the same totals.
        let lib =
            Library::from_cif_text(&ace_workloads::array::square_array_cif(3)).expect("valid");
        let probe = CounterProbe::new();
        let r = extract_hierarchical_probed(&lib, "array", &probe).report;
        assert!(r.compose_calls > 0 && r.window_cache_hits > 0, "{r:?}");
        assert!(r.unique_windows > 0 && r.flat_calls > 0, "{r:?}");
        let totals = [
            (r.flat_calls, Counter::FlatCalls),
            (r.compose_calls, Counter::ComposeCalls),
            (r.window_cache_hits, Counter::WindowCacheHits),
            (r.compose_cache_hits, Counter::ComposeCacheHits),
            (r.boxes_extracted, Counter::Boxes),
            (r.partials_completed, Counter::PartialsCompleted),
        ];
        for (value, counter) in totals {
            assert_eq!(value, probe.total(counter), "{counter}");
        }
        // The run splits into front and back end; composing is part
        // of the back end.
        assert_eq!(r.total_time(), r.front_end_time + r.back_end_time);
        assert!(r.compose_time <= r.back_end_time, "{r:?}");
        assert!(r.front_end_time > Duration::ZERO, "{r:?}");
        assert!(r.compose_time > Duration::ZERO, "{r:?}");

        // As a backend, the same run's `ExtractionReport` view.
        let e = HierarchicalExtractor::new(lib).extract("array").unwrap();
        assert_eq!(e.report.boxes, r.boxes_extracted);
        assert!(e.report.scanline_stops > 0);
    }

    #[test]
    fn incremental_session_reuses_windows_across_runs() {
        use ace_workloads::array::memory_array_cif;
        let mut session = IncrementalExtractor::new();

        let v1 = Library::from_cif_text(&memory_array_cif(4, 4)).expect("valid");
        let first = session.extract(&v1, "v1");
        assert_eq!(first.netlist.device_count(), 16);
        let first_flat_calls = first.report.flat_calls;
        assert!(first_flat_calls > 0);

        // Grow the array by one row: the row windows are already in
        // the session cache, so almost no new flat extraction happens.
        let v2 = Library::from_cif_text(&memory_array_cif(5, 4)).expect("valid");
        let second = session.extract(&v2, "v2");
        assert_eq!(second.netlist.device_count(), 20);
        assert!(
            second.report.flat_calls <= first_flat_calls,
            "edit re-extraction must not redo old windows: {} vs {}",
            second.report.flat_calls,
            first_flat_calls
        );
        assert!(second.report.window_cache_hits > 0);

        // Both runs must match fresh flat extractions.
        for (lib, run) in [(&v1, &first), (&v2, &second)] {
            let flat = extract_library(lib, "f", ExtractOptions::new()).expect("flat extracts");
            let mut a = flat.netlist.clone();
            let mut b = run.netlist.clone();
            a.prune_floating_nets();
            b.prune_floating_nets();
            same_circuit(&a, &b).expect("incremental run matches flat extraction");
        }
    }

    #[test]
    fn incremental_identical_rerun_is_all_cache() {
        let lib =
            Library::from_cif_text(&ace_workloads::array::square_array_cif(2)).expect("valid");
        let mut session = IncrementalExtractor::new();
        let first = session.extract(&lib, "a");
        let second = session.extract(&lib, "a");
        assert_eq!(second.report.flat_calls, 0, "{:?}", second.report);
        assert_eq!(second.report.compose_calls, 0, "{:?}", second.report);
        assert_eq!(first.netlist.device_count(), second.netlist.device_count());
    }

    #[test]
    fn labels_survive_hierarchical_extraction() {
        let src = ace_workloads::cells::inverter_cif();
        let hext = extract_hierarchical_text(&src, "inv").expect("parse");
        let flat = hext.hier.flatten();
        for name in ["VDD", "GND", "OUT", "INP"] {
            assert!(flat.net_by_name(name).is_some(), "missing {name}");
        }
    }
}
