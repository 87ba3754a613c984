//! The parallel extractor's correctness contract: banded extraction
//! with any thread count yields canonically the same circuit as the
//! sequential flat sweep, on every workload family and on devices,
//! contacts, and labels deliberately straddling band seams.

use ace::core::{
    extract_banded, extract_flat, extract_flat_probed, CircuitExtractor, Counter, CounterProbe,
    ExtractOptions, Extraction, IncrementalExtractor, Lane,
};
use ace::geom::{Layer, Rect, LAMBDA};
use ace::layout::{FlatLayout, Library};
use ace::wirelist::compare::same_circuit;
use ace::workloads::bhh::{bhh_cif, BhhParams};
use ace::workloads::chips::{generate_chip, paper_chip};
use ace::workloads::mesh::mesh_cif;
use proptest::prelude::*;

fn flat_of(src: &str) -> FlatLayout {
    FlatLayout::from_library(&Library::from_cif_text(src).expect("valid CIF"))
}

fn check_threads(flat: &FlatLayout, what: &str, threads: usize) -> Extraction {
    let seq = extract_flat(flat.clone(), what, ExtractOptions::new()).expect("flat");
    let par = extract_flat(
        flat.clone(),
        what,
        ExtractOptions::new().with_threads(threads),
    )
    .expect("banded");
    assert_same(&seq, &par, &format!("{what} (K={threads})"));
    par
}

fn check_cuts(flat: &FlatLayout, what: &str, cuts: &[i64]) -> Extraction {
    let seq = extract_flat(flat.clone(), what, ExtractOptions::new()).expect("flat");
    let par = extract_banded(flat.clone(), what, ExtractOptions::new(), cuts).expect("banded");
    assert_same(&seq, &par, &format!("{what} (cuts {cuts:?})"));
    par
}

fn assert_same(seq: &Extraction, par: &Extraction, what: &str) {
    let mut a = seq.netlist.clone();
    let mut b = par.netlist.clone();
    a.prune_floating_nets();
    b.prune_floating_nets();
    if let Err(d) = same_circuit(&a, &b) {
        panic!(
            "{what}: parallel ≠ flat: {d} (flat {}d/{}n, parallel {}d/{}n)",
            a.device_count(),
            a.net_count(),
            b.device_count(),
            b.net_count()
        );
    }
}

/// A vertical transistor: diffusion column crossed by a poly bar, the
/// channel spanning y ∈ [-200, 200].
const VERTICAL_FET: &str = "L ND; B 400 1600 0 0; L NP; B 1600 400 0 0; E";

/// The same transistor rotated: diffusion bar crossed by a poly
/// column, source and drain left and right of the channel.
const HORIZONTAL_FET: &str = "L ND; B 1600 400 0 0; L NP; B 400 1600 0 0; E";

#[test]
fn mesh_is_invariant_in_thread_count() {
    let flat = flat_of(&mesh_cif(5));
    for threads in [1, 2, 3, 7, 16] {
        check_threads(&flat, "mesh-5", threads);
    }
}

#[test]
fn chip_proxy_matches_flat() {
    let spec = paper_chip("cherry").expect("spec").scaled(0.05);
    let chip = generate_chip(&spec);
    let flat = flat_of(&chip.cif);
    for threads in [2, 7] {
        let par = check_threads(&flat, "cherry-5%", threads);
        assert_eq!(par.netlist.device_count() as u64, chip.devices);
    }
}

#[test]
fn bhh_random_squares_match_flat() {
    let flat = flat_of(&bhh_cif(&BhhParams::paper(600, 0xACE)));
    let seq = extract_flat(flat.clone(), "bhh", ExtractOptions::new()).expect("flat");
    for threads in [2, 3, 16] {
        let par = extract_flat(
            flat.clone(),
            "bhh",
            ExtractOptions::new().with_threads(threads),
        )
        .expect("banded");
        assert_eq!(
            seq.netlist.device_count(),
            par.netlist.device_count(),
            "bhh K={threads}"
        );
        // Ties among >2 terminals may be broken differently; the
        // random soup occasionally produces such devices.
        if seq.report.multi_terminal_devices == 0 {
            assert_same(&seq, &par, &format!("bhh (K={threads})"));
        }
    }
}

#[test]
fn transistor_straddling_a_seam_is_merged() {
    let flat = flat_of(VERTICAL_FET);
    // Mid-channel cut: the two channel fragments must be rejoined.
    let par = check_cuts(&flat, "vertical-fet", &[0]);
    assert_eq!(par.report.stitch.device_merges, 1);
    assert_eq!(par.netlist.device_count(), 1);
    let d = &par.netlist.devices()[0];
    assert_eq!((d.length, d.width), (400, 400));
    assert_ne!(d.source, d.drain);
}

#[test]
fn transistor_touching_a_seam_gains_its_terminal_across_it() {
    let flat = flat_of(VERTICAL_FET);
    // The cut coincides with the channel's bottom edge: the channel
    // touches the seam from above and its lower diffusion terminal
    // lies entirely in the band below.
    let par = check_cuts(&flat, "vertical-fet", &[-200]);
    assert!(par.report.stitch.terminal_contacts >= 1);
    let d = &par.netlist.devices()[0];
    assert_eq!((d.length, d.width), (400, 400));
    assert_ne!(d.source, d.drain);
}

#[test]
fn horizontal_transistor_sums_split_terminals() {
    let flat = flat_of(HORIZONTAL_FET);
    // The seam splits both source and drain contact edges; their
    // halves must be summed back, keeping W = 400 (not 200).
    let par = check_cuts(&flat, "horizontal-fet", &[0]);
    assert_eq!(par.report.stitch.device_merges, 1);
    let d = &par.netlist.devices()[0];
    assert_eq!((d.length, d.width), (400, 400));
}

#[test]
fn capacitor_straddling_a_seam_keeps_its_area() {
    let flat = flat_of("L ND; B 400 400 0 0; L NP; B 1000 1000 0 0; E");
    let par = check_cuts(&flat, "capacitor", &[0]);
    let d = &par.netlist.devices()[0];
    assert_eq!(d.kind, ace::wirelist::DeviceKind::Capacitor);
    assert_eq!(d.channel_area(), 400 * 400);
}

/// A diffusion loop gated across its bottom side: one capacitor
/// whose two channel sides are one net around the loop. A seam at
/// y = 1000 cuts both side bars, so each band sees the sides as two
/// nets that join only through the other band.
const LOOPED_CHANNEL: &str = "L ND; B 3000 500 1500 250; B 500 5000 250 2500;
     B 500 5000 2750 2500; B 3000 500 1500 4750;
     L NP; B 500 1500 1500 250; E";

#[test]
fn looped_channel_stays_a_capacitor_at_every_band_count() {
    let flat = flat_of(LOOPED_CHANNEL);
    let one_capacitor = |e: &Extraction, what: &str| {
        let devices: Vec<_> = e
            .netlist
            .devices()
            .iter()
            .map(|d| (d.kind, d.length, d.width))
            .collect();
        assert_eq!(
            devices,
            [(ace::wirelist::DeviceKind::Capacitor, 250, 1000)],
            "{what}"
        );
    };
    one_capacitor(&check_cuts(&flat, "loop", &[1000]), "cut at y = 1000");
    for bands in 2..=16 {
        let banded = extract_flat(
            flat.clone(),
            "loop",
            ExtractOptions::new().with_threads(2).with_bands(bands),
        )
        .expect("banded");
        one_capacitor(&banded, &format!("{bands} bands"));
        let incremental = IncrementalExtractor::new(flat.clone(), bands)
            .extract("loop")
            .expect("incremental");
        one_capacitor(&incremental, &format!("incremental, {bands} bands"));
    }
}

#[test]
fn contact_straddling_a_seam_still_connects() {
    let flat = flat_of(
        "L NM; B 1000 1000 0 0; L NP; B 1000 1000 0 0; L NC; B 200 200 0 0;
         94 M -400 0 NM; 94 P 400 0 NP; E",
    );
    let par = check_cuts(&flat, "cut-contact", &[0]);
    let nl = &par.netlist;
    assert_eq!(nl.net_by_name("M"), nl.net_by_name("P"));
    assert!(nl.net_by_name("M").is_some());
    // Metal and poly both straddle the seam; the first pair unions
    // the two halves, the second is already equivalent because the
    // cut joins metal to poly inside each band.
    assert!(par.report.stitch.net_unions >= 1);
}

#[test]
fn buried_contact_straddling_a_seam_suppresses_the_transistor() {
    let flat = flat_of(
        "L ND; B 400 1600 0 0; L NP; B 1600 400 0 0; L NB; B 600 600 0 0;
         94 D 0 700 ND; 94 P 700 0 NP; E",
    );
    let par = check_cuts(&flat, "buried", &[0]);
    assert_eq!(par.netlist.device_count(), 0);
    assert_eq!(par.netlist.net_by_name("D"), par.netlist.net_by_name("P"));
}

#[test]
fn label_on_a_seam_resolves() {
    let flat = flat_of("L NM; B 1000 200 0 0; 94 A 0 0; E");
    let par = check_cuts(&flat, "seam-label", &[0]);
    assert!(par.netlist.net_by_name("A").is_some());
    assert_eq!(par.report.unresolved_labels, 0);
}

#[test]
fn inverter_connectivity_survives_banding() {
    // The canonical inverter (see ace-core's tests), cut through the
    // enhancement channel, the buried contact, and the depletion
    // channel at once.
    let src = "
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
    let flat = flat_of(src);
    let par = check_cuts(&flat, "inverter", &[-600, 150, 600]);
    let nl = &par.netlist;
    let out = nl.net_by_name("OUT").expect("OUT");
    let inp = nl.net_by_name("INP").expect("INP");
    let enh = nl
        .devices()
        .iter()
        .find(|d| d.kind == ace::wirelist::DeviceKind::Enhancement)
        .expect("enhancement transistor");
    assert_eq!(enh.gate, inp);
    let dep = nl
        .devices()
        .iter()
        .find(|d| d.kind == ace::wirelist::DeviceKind::Depletion)
        .expect("depletion load");
    assert_eq!(dep.gate, out);
}

#[test]
fn geometry_output_survives_banding() {
    let flat = flat_of(VERTICAL_FET);
    let par =
        extract_banded(flat, "geom", ExtractOptions::new().with_geometry(), &[0]).expect("banded");
    let d = &par.netlist.devices()[0];
    // The merged channel geometry covers the whole 400×400 channel.
    let area: i64 = d.channel_geometry.iter().map(Rect::area).sum();
    assert_eq!(area, 400 * 400);
}

#[test]
fn report_carries_band_and_stitch_instrumentation() {
    let (flat, probe) = (flat_of(&mesh_cif(5)), CounterProbe::new());
    let opts = ExtractOptions::new().with_threads(4);
    let par = extract_flat_probed(flat, "mesh-5", opts, &probe).expect("banded");
    assert!(par.report.threads >= 2, "mesh should band");
    assert!(par.report.stitch.seam_contacts > 0);
    assert!(par.report.stitch.pairs_matched > 0);
    // One lane per band, each of which swept boxes.
    let band_boxes: Vec<u64> = (probe.lanes().into_iter())
        .filter(|&lane| lane != Lane::MAIN)
        .map(|lane| probe.lane_total(lane, Counter::Boxes))
        .collect();
    assert_eq!(band_boxes.len(), par.report.bands);
    assert!(band_boxes.iter().all(|&boxes| boxes > 0));
}

#[test]
fn degenerate_inputs_fall_back_to_sequential() {
    let with_k = |k: usize| ExtractOptions::new().with_threads(k);
    // Empty layout.
    let par = extract_flat(FlatLayout::new(), "empty", with_k(8)).expect("banded");
    assert_eq!(par.netlist.device_count(), 0);
    assert_eq!(par.report.threads, 1);
    // One thread.
    let par = extract_flat(flat_of(VERTICAL_FET), "fet", with_k(1)).expect("banded");
    assert_eq!(par.netlist.device_count(), 1);
    assert_eq!(par.report.threads, 1);
    // A single box has no interior edge to cut at.
    let par = extract_flat(flat_of("L NM; B 100 100 0 0; E"), "box", with_k(8)).expect("banded");
    assert_eq!(par.report.threads, 1);
}

#[test]
fn with_threads_is_deterministic_and_reports_its_workers() {
    // Successor to the removed `extract_parallel` shim test: the
    // unified `with_threads` spelling is the only banded entry point
    // now, so pin its contract directly — repeated runs return the
    // identical netlist (not merely an isomorphic one), the report
    // carries the worker accounting, and the caller's name survives.
    let flat = flat_of(&mesh_cif(4));
    for threads in [2usize, 3, 5] {
        let opts = ExtractOptions::new().with_threads(threads);
        let probe = CounterProbe::new();
        let a = extract_flat_probed(flat.clone(), "mesh-4", opts, &probe).expect("banded");
        let b = extract_flat(flat.clone(), "mesh-4", opts).expect("banded");
        assert_eq!(
            a.netlist, b.netlist,
            "banded extraction must be deterministic (K={threads})"
        );
        assert!(a.report.threads >= 1);
        let band_lanes = probe.lanes().iter().filter(|l| **l != Lane::MAIN).count();
        assert_eq!(band_lanes, a.report.bands);
        assert_eq!(a.netlist.name, "mesh-4");
    }
}

fn aligned_rect() -> impl Strategy<Value = Rect> {
    (0i64..24, 0i64..24, 1i64..8, 1i64..8).prop_map(|(x, y, w, h)| {
        Rect::new(x * LAMBDA, y * LAMBDA, (x + w) * LAMBDA, (y + h) * LAMBDA)
    })
}

fn layer() -> impl Strategy<Value = Layer> {
    prop_oneof![
        4 => Just(Layer::Diffusion),
        4 => Just(Layer::Poly),
        3 => Just(Layer::Metal),
        1 => Just(Layer::Cut),
        1 => Just(Layer::Implant),
        1 => Just(Layer::Buried),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn banded_extraction_matches_flat_on_random_soups(
        boxes in prop::collection::vec((layer(), aligned_rect()), 1..24),
        threads in 2usize..6,
    ) {
        let mut flat = FlatLayout::new();
        for (l, r) in &boxes {
            flat.push_box(*l, *r);
        }
        let seq = extract_flat(flat.clone(), "soup", ExtractOptions::new()).expect("flat");
        let par = extract_flat(flat, "soup", ExtractOptions::new().with_threads(threads))
            .expect("banded");
        prop_assert_eq!(seq.netlist.device_count(), par.netlist.device_count());
        if seq.report.multi_terminal_devices == 0 {
            if let Err(d) = same_circuit(&seq.netlist, &par.netlist) {
                return Err(TestCaseError::fail(format!("K={threads}: {d}")));
            }
        }
    }

    /// Parasitic totals are an exact union computation: they must not
    /// depend on thread count, band cut placement, or feed order.
    #[test]
    fn parasitic_totals_are_invariant_under_banding(
        boxes in prop::collection::vec((layer(), aligned_rect()), 1..24),
        threads in 2usize..6,
        cut_lambda in 1i64..23,
        seed in any::<u64>(),
    ) {
        use ace_conformance::parasitic_signature;
        use rand::{Rng as _, SeedableRng as _};

        let mut flat = FlatLayout::new();
        for (l, r) in &boxes {
            flat.push_box(*l, *r);
        }
        let signature = |e: &Extraction| {
            let mut nl = e.netlist.clone();
            nl.prune_floating_nets();
            parasitic_signature(&nl, true)
        };
        let seq = extract_flat(flat.clone(), "soup", ExtractOptions::new()).expect("flat");
        let expect = signature(&seq);

        let par = extract_flat(flat.clone(), "soup", ExtractOptions::new().with_threads(threads))
            .expect("banded");
        prop_assert_eq!(&expect, &signature(&par), "K={}", threads);

        // A cut is only meaningful strictly inside the layout's
        // vertical extent.
        let bb = flat.bounding_box().expect("non-empty layout");
        let cut_at = cut_lambda * LAMBDA;
        if bb.y_min < cut_at && cut_at < bb.y_max {
            let cut = extract_banded(flat.clone(), "soup", ExtractOptions::new(), &[cut_at])
                .expect("cut");
            prop_assert_eq!(&expect, &signature(&cut), "cut at {}λ", cut_lambda);
        }

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut shuffled_boxes = boxes.clone();
        for i in (1..shuffled_boxes.len()).rev() {
            shuffled_boxes.swap(i, rng.gen_range(0..i + 1));
        }
        let mut shuffled = FlatLayout::new();
        for (l, r) in &shuffled_boxes {
            shuffled.push_box(*l, *r);
        }
        let reordered = extract_flat(shuffled, "soup", ExtractOptions::new()).expect("flat");
        prop_assert_eq!(&expect, &signature(&reordered), "feed order");
    }
}

/// The shim's historic window-mode degrade (silently sequential) is
/// gone with it: the unified path *rejects* window + threads, and a
/// caller who wants a windowed extraction spells it without banding.
#[test]
fn window_plus_threads_is_rejected_not_degraded() {
    let flat = flat_of(&mesh_cif(4));
    let window = Rect::new(-LAMBDA, -LAMBDA, 20 * LAMBDA, 20 * LAMBDA);
    let windowed = ExtractOptions::new().with_window(window).with_threads(4);
    let err = extract_flat(flat.clone(), "w", windowed).unwrap_err();
    assert!(err.to_string().contains("invalid extraction options"));
    // The unbanded spelling still works and stays sequential.
    let seq = extract_flat(flat, "w", ExtractOptions::new().with_window(window)).expect("flat");
    assert_eq!(seq.report.threads, 0, "sequential run reports no workers");
    assert!(seq.window.is_some());
}
