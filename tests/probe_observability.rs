//! The probe layer's external contract: an outside `CounterProbe`
//! sees exactly the event stream the extractor's own report is built
//! from, the Chrome-trace sink emits a well-formed timeline with one
//! lane per band, the lint and DRC passes are spans on it too, and
//! the summary sink's percentages add up.

use ace::core::json::Json;
use ace::prelude::*;
use ace::workloads::cells::inverter_cif;
use ace::workloads::mesh::mesh_cif;

fn flat_of(src: &str) -> FlatLayout {
    FlatLayout::from_library(&Library::from_cif_text(src).expect("valid CIF"))
}

/// The integer counters an [`ExtractionReport`] is a view over. Span
/// *durations* are measured by independent clocks on the two sides,
/// so only the counters are compared exactly.
fn assert_counters_match(probe: &CounterProbe, report: &ExtractionReport, what: &str) {
    assert_eq!(probe.total(Counter::Boxes), report.boxes, "{what}: boxes");
    assert_eq!(
        probe.total(Counter::ScanlineStops),
        report.scanline_stops,
        "{what}: stops"
    );
    assert_eq!(
        probe.total(Counter::Fragments),
        report.fragments,
        "{what}: fragments"
    );
    assert_eq!(
        probe.total(Counter::NetUnions) + probe.total(Counter::SeamNetUnions),
        report.net_unions,
        "{what}: net unions"
    );
    assert_eq!(
        probe.total(Counter::UnresolvedLabels),
        report.unresolved_labels,
        "{what}: unresolved labels"
    );
    assert_eq!(
        probe.total(Counter::MultiTerminalDevices),
        report.multi_terminal_devices,
        "{what}: multi-terminal devices"
    );
    assert_eq!(
        probe.peak(Counter::MaxActive) as usize,
        report.max_active,
        "{what}: max active"
    );
}

#[test]
fn counter_probe_agrees_with_the_report_on_the_inverter() {
    let probe = CounterProbe::new();
    let r = extract_text_probed(&inverter_cif(), ExtractOptions::new(), &probe)
        .expect("inverter extracts");
    assert!(r.report.boxes > 0);
    assert_counters_match(&probe, &r.report, "inverter");
    // The probe's own report view reproduces the same counters too.
    assert_counters_match(&probe, &probe.report(), "inverter view");
}

#[test]
fn counter_probe_agrees_with_the_report_on_a_banded_mesh() {
    let probe = CounterProbe::new();
    let r = extract_flat_probed(
        flat_of(&mesh_cif(6)),
        "mesh",
        ExtractOptions::new().with_threads(3),
        &probe,
    )
    .expect("mesh extracts");
    assert!(r.report.threads >= 2, "mesh should band");
    assert_counters_match(&probe, &r.report, "banded mesh");
    // Band lanes showed up as separate lanes on the external probe.
    let bands = probe
        .lanes()
        .into_iter()
        .filter(|&l| l != Lane::MAIN)
        .count();
    assert_eq!(bands, r.report.threads, "one lane per band");
    // Stitch counters flow through as well.
    assert_eq!(
        probe.total(Counter::SeamContacts),
        r.report.stitch.seam_contacts
    );
    assert_eq!(
        probe.total(Counter::PairsMatched),
        r.report.stitch.pairs_matched
    );
}

#[test]
fn chrome_trace_schema_is_valid_for_a_banded_run() {
    let trace = ChromeTraceProbe::new();
    let r = extract_flat_probed(
        flat_of(&mesh_cif(6)),
        "mesh",
        ExtractOptions::new().with_threads(3),
        &trace,
    )
    .expect("mesh extracts");
    assert!(r.report.threads >= 2, "mesh should band");

    let events = trace.events();
    assert!(!events.is_empty());

    // Every event is a B or an E; per tid they nest like brackets,
    // with matching names, non-decreasing timestamps per lane.
    let mut stacks: std::collections::BTreeMap<u32, Vec<&'static str>> = Default::default();
    let mut last_ts: std::collections::BTreeMap<u32, u64> = Default::default();
    for e in &events {
        let prev = last_ts.entry(e.tid).or_insert(0);
        assert!(e.ts_us >= *prev, "timestamps go backwards on tid {}", e.tid);
        *prev = e.ts_us;
        let stack = stacks.entry(e.tid).or_default();
        match e.phase {
            'B' => stack.push(e.name),
            'E' => assert_eq!(stack.pop(), Some(e.name), "unbalanced E on tid {}", e.tid),
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans {stack:?} on tid {tid}");
    }

    // One band-sweep lane per band, distinct from the main lane, plus
    // a stitch span on the main lane.
    let band_tids: std::collections::BTreeSet<u32> = events
        .iter()
        .filter(|e| e.name == Span::Band.name())
        .map(|e| e.tid)
        .collect();
    assert_eq!(band_tids.len(), r.report.threads, "one tid per band");
    assert!(!band_tids.contains(&Lane::MAIN.0));
    assert!(
        events
            .iter()
            .any(|e| e.name == Span::Stitch.name() && e.tid == Lane::MAIN.0),
        "stitch span missing"
    );

    // The serialized form parses as a Chrome-trace object with a
    // `traceEvents` array: thread-name metadata for every lane, then
    // the B/E events, all under one constant pid.
    let json = Json::parse(&trace.to_json()).expect("trace is valid JSON");
    let trace_events = json
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(trace_events.len(), events.len() + 1 + stacks.len());
    let str_of = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).map(str::to_string);
    let mut lane_names = Vec::new();
    for e in trace_events {
        assert_eq!(e.get("pid").and_then(Json::as_int), Some(1), "{e:?}");
        assert!(str_of(e, "name").is_some(), "unnamed event {e:?}");
        match str_of(e, "ph").as_deref() {
            Some("M") => {
                let name = e.get("args").and_then(|a| a.get("name"));
                lane_names.extend(name.and_then(Json::as_str).map(str::to_string));
            }
            Some("B" | "E") => {
                assert!(e.get("tid").and_then(Json::as_int).is_some(), "{e:?}");
                assert!(e.get("ts").and_then(Json::as_int).is_some(), "{e:?}");
                assert_eq!(str_of(e, "cat").as_deref(), Some("ace"));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for lane in ["ace", "main", "band 0"] {
        assert!(lane_names.iter().any(|n| n == lane), "{lane} unnamed");
    }
}

#[test]
fn lint_and_drc_passes_are_traced_as_spans() {
    let lib = Library::from_cif_text(&inverter_cif()).expect("valid CIF");
    let flat = FlatLayout::from_library(&lib);
    let extraction = extract_library(&lib, "inv", ExtractOptions::new()).expect("extracts");
    let trace = ChromeTraceProbe::new();
    let counters = CounterProbe::new();
    let tee = (&trace, &counters);
    let config = LintConfig::new();
    let diagnostics = lint_extraction(&extraction, &flat, &config, &tee);
    let violations = drc_check_extraction(&flat, &RuleDeck::nmos(), &config, &tee);

    // One balanced begin/end pair per pass, on the main lane.
    let events: Vec<(char, &str)> = trace
        .events()
        .iter()
        .map(|e| {
            assert_eq!(e.tid, Lane::MAIN.0, "{e:?}");
            (e.phase, e.name)
        })
        .collect();
    assert_eq!(
        events,
        [('B', "lint"), ('E', "lint"), ('B', "drc"), ('E', "drc")]
    );

    // The report's pass times are those spans' durations.
    let report = counters.report();
    assert_eq!(report.lints_emitted, diagnostics.len() as u64);
    assert_eq!(report.drc_violations, violations.len() as u64);
    assert_eq!(report.lint_time, counters.span_time(Span::Lint));
    assert_eq!(report.drc_time, counters.span_time(Span::Drc));
    assert!(report.lint_time.as_nanos() > 0 && report.drc_time.as_nanos() > 0);
}

#[test]
fn summary_probe_percentages_sum_to_100() {
    let summary = SummaryProbe::new();
    let _ = extract_text_probed(&inverter_cif(), ExtractOptions::new(), &summary)
        .expect("inverter extracts");
    let total: f64 = Phase::ALL.iter().map(|&p| summary.phase_percent(p)).sum();
    assert!((total - 100.0).abs() < 1e-6, "phases sum to {total}");
    let table = summary.table();
    for phase in Phase::ALL {
        assert!(table.contains(phase.label()), "{} missing", phase.label());
    }
}
