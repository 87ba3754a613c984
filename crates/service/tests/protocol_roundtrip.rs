//! Protocol stability: every request/response/error round-trips
//! through the wire encoding unchanged, and the byte-level encoding
//! itself is pinned by golden frames so an accidental field rename or
//! reordering fails loudly instead of silently breaking deployed
//! clients.

use ace_core::{ExtractOptions, SortStrategy};
use ace_geom::{Layer, Point, Rect};
use ace_layout::LayoutDiff;
use ace_lint::{Anchor, LintConfig, LintSpan, RuleId, Severity};
use ace_service::protocol::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, ExtractResult,
    NetInfo, Request, Response, ServiceError, ServiceStatus, Wire, WireDiagnostic, WireReport,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn name() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "s".to_string(),
        "session-7".to_string(),
        "editor/αβ".to_string(),
        "with \"quotes\" and \\slashes\\".to_string(),
        "line\nbreak\ttab".to_string(),
        String::new(),
    ])
}

fn layer() -> impl Strategy<Value = Layer> {
    prop::sample::select(Layer::ALL.to_vec())
}

fn rect() -> impl Strategy<Value = Rect> {
    (-2000i64..2000, -2000i64..2000, 1i64..500, 1i64..500)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

fn point() -> impl Strategy<Value = Point> {
    (-2000i64..2000, -2000i64..2000).prop_map(|(x, y)| Point::new(x, y))
}

fn opt_layer() -> impl Strategy<Value = Option<Layer>> {
    prop_oneof![Just(None), layer().prop_map(Some)]
}

fn diff() -> impl Strategy<Value = LayoutDiff> {
    (
        prop::collection::vec((layer(), rect()), 0..4),
        prop::collection::vec((layer(), rect()), 0..4),
        prop::collection::vec((name(), point(), opt_layer()), 0..3),
        prop::collection::vec((name(), point(), opt_layer()), 0..3),
    )
        .prop_map(|(added, removed, ladd, lrem)| {
            let mut d = LayoutDiff::new();
            for (l, r) in added {
                d.add_box(l, r);
            }
            for (l, r) in removed {
                d.remove_box(l, r);
            }
            for (n, p, l) in ladd {
                d.add_label(n, p, l);
            }
            for (n, p, l) in lrem {
                d.remove_label(n, p, l);
            }
            d
        })
}

fn options() -> impl Strategy<Value = ExtractOptions> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop_oneof![Just(None), (0usize..8).prop_map(Some)],
        prop_oneof![Just(None), (0usize..8).prop_map(Some)],
        prop_oneof![Just(None), rect().prop_map(Some)],
    )
        .prop_map(|(geometry, bin_sort, lints, threads, bands, window)| {
            let mut o = ExtractOptions::new();
            o.geometry_output = geometry;
            o.sort = if bin_sort {
                SortStrategy::Bin
            } else {
                SortStrategy::Insertion
            };
            o.lints = lints;
            o.threads = threads;
            o.bands = bands;
            o.window = window;
            o
        })
}

fn rule() -> impl Strategy<Value = RuleId> {
    prop::sample::select(RuleId::ALL.to_vec())
}

fn lint_config() -> impl Strategy<Value = LintConfig> {
    (
        prop::collection::vec((rule(), 0u8..3), 0..6),
        prop::collection::vec(name(), 1..3),
        prop::collection::vec(name(), 1..3),
        0i64..5000,
        1i64..1_000_000,
    )
        .prop_map(|(tweaks, vdd, gnd, dim, overload)| {
            let mut config = LintConfig::new();
            for (rule, action) in tweaks {
                config = match action {
                    0 => config.allow(rule),
                    1 => config.warn(rule),
                    _ => config.deny(rule),
                };
            }
            config
                .with_supply_names(vdd, gnd)
                .with_min_channel_dim(dim)
                .with_overload_threshold(overload)
        })
}

fn seq() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![Just(None), (-5i64..1_000_000).prop_map(Some)]
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (name(), name(), 0usize..8, options()).prop_map(|(session, cif, bands, options)| {
            Request::Open {
                session,
                cif,
                bands,
                options,
            }
        }),
        name().prop_map(|session| Request::Extract { session }),
        (name(), seq(), diff()).prop_map(|(session, seq, diff)| Request::EditDiff {
            session,
            seq,
            diff
        }),
        (name(), lint_config()).prop_map(|(session, config)| Request::Lint { session, config }),
        (
            name(),
            prop_oneof![Just(None), name().prop_map(Some)],
            lint_config()
        )
            .prop_map(|(session, deck, config)| Request::Drc {
                session,
                deck,
                config
            }),
        (name(), name()).prop_map(|(session, net)| Request::QueryNet { session, net }),
        name().prop_map(|session| Request::Close { session }),
        Just(Request::Status),
    ]
}

fn report() -> impl Strategy<Value = WireReport> {
    (0i64..1_000_000, 0i64..100, 0i64..100, 0i64..1_000_000_000).prop_map(
        |(boxes, reused, reswept, total_ns)| WireReport {
            boxes,
            scanline_stops: boxes / 2,
            net_unions: boxes / 3,
            bands_reused: reused,
            bands_reswept: reswept,
            cache_bytes: boxes * 7,
            lints_emitted: reused % 5,
            drc_violations: reswept % 3,
            drc_time_ns: total_ns / 2,
            coalesced_edits: reswept % 4,
            total_ns,
        },
    )
}

fn service_error() -> impl Strategy<Value = ServiceError> {
    (
        prop::sample::select(ErrorCode::ALL.to_vec()),
        name(),
        prop_oneof![Just(None), (0i64..10_000).prop_map(Some)],
    )
        .prop_map(|(code, message, retry_after_ms)| ServiceError {
            code,
            message,
            retry_after_ms,
        })
}

fn span() -> impl Strategy<Value = LintSpan> {
    (
        prop_oneof![point().prop_map(Anchor::At), rect().prop_map(Anchor::Area)],
        name(),
        prop_oneof![Just(None), name().prop_map(Some)],
    )
        .prop_map(|(anchor, label, span_name)| LintSpan {
            anchor,
            label,
            name: span_name,
        })
}

fn diagnostic() -> impl Strategy<Value = WireDiagnostic> {
    (
        rule(),
        prop::sample::select(vec![Severity::Warning, Severity::Error, Severity::Note]),
        name(),
        span(),
        name(),
    )
        .prop_map(
            |(rule, severity, message, primary, rendered)| WireDiagnostic {
                rule,
                severity,
                message,
                primary,
                rendered,
            },
        )
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (name(), 1usize..8).prop_map(|(session, bands)| Response::Opened { session, bands }),
        (name(), report()).prop_map(|(wirelist, report)| {
            Response::Extracted(ExtractResult { wirelist, report })
        }),
        (prop::collection::vec(diagnostic(), 0..4), report()).prop_map(|(diagnostics, report)| {
            Response::Linted {
                diagnostics,
                report,
            }
        }),
        (prop::collection::vec(diagnostic(), 0..4), report()).prop_map(|(diagnostics, report)| {
            Response::DrcChecked {
                diagnostics,
                report,
            }
        }),
        (
            name(),
            any::<bool>(),
            prop::collection::vec(name(), 0..3),
            (0i64..9, 0i64..9),
            (0i64..1_000_000, 0i64..1_000_000_000)
        )
            .prop_map(
                |(net, found, names, (gates, terminals), (cap_af, res_mohm))| {
                    Response::Net(NetInfo {
                        net,
                        found,
                        names,
                        gates,
                        terminals,
                        cap_af,
                        res_mohm,
                    })
                }
            ),
        (name(), any::<bool>())
            .prop_map(|(session, existed)| Response::Closed { session, existed }),
        (
            (0i64..9, 0i64..1_000_000, 0i64..9),
            (0i64..999, 0i64..99, 0i64..9, 1i64..9)
        )
            .prop_map(
                |((sessions, cache_bytes, evictions), (executed, stolen, queued, workers))| {
                    Response::Status(ServiceStatus {
                        sessions,
                        cache_bytes,
                        evictions,
                        executed,
                        stolen,
                        queued,
                        workers,
                        coalesced_edits: stolen % 7,
                    })
                }
            ),
        service_error().prop_map(Response::Error),
    ]
}

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

/// Encodes through the [`Wire`] trait and decodes back.
fn wire_round_trip<T: Wire>(value: &T) -> T {
    T::from_json(&value.to_json()).expect("decodes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_request_round_trips(id in -1000i64..1_000_000, request in request()) {
        let bytes = encode_request(id, &request);
        let (back_id, back) = decode_request(&bytes).expect("decodes");
        prop_assert_eq!(back_id, id);
        prop_assert_eq!(back, request);
    }

    #[test]
    fn every_response_round_trips(id in -1000i64..1_000_000, response in response()) {
        let bytes = encode_response(id, &response);
        let (back_id, back) = decode_response(&bytes).expect("decodes");
        prop_assert_eq!(back_id, id);
        prop_assert_eq!(back, response);
    }

    #[test]
    fn diffs_and_options_round_trip_standalone(d in diff(), o in options()) {
        prop_assert_eq!(wire_round_trip(&d), d);
        prop_assert_eq!(wire_round_trip(&o), o);
    }

    #[test]
    fn lint_configs_round_trip(config in lint_config()) {
        prop_assert_eq!(wire_round_trip(&config), config);
    }
}

// ---------------------------------------------------------------------------
// Golden bytes: the exact wire encoding is a compatibility contract
// ---------------------------------------------------------------------------

#[test]
fn golden_request_bytes_are_pinned() {
    let mut diff = LayoutDiff::new();
    diff.move_box(
        Layer::Metal,
        Rect::new(0, 0, 100, 100),
        Rect::new(0, 200, 100, 300),
    );
    diff.add_label("OUT", Point::new(50, 250), Some(Layer::Metal));

    let cases: Vec<(Request, &str)> = vec![
        (
            Request::Open {
                session: "edit".into(),
                cif: "L NM; B 4 4 2 2; E".into(),
                bands: 4,
                options: ExtractOptions::new(),
            },
            r#"{"v":1,"id":1,"op":"open","session":"edit","cif":"L NM; B 4 4 2 2; E","bands":4,"options":{"geometry":false,"sort":"insertion","window":null,"threads":null,"bands":null,"lints":false}}"#,
        ),
        (
            Request::Extract {
                session: "edit".into(),
            },
            r#"{"v":1,"id":1,"op":"extract","session":"edit"}"#,
        ),
        (
            Request::EditDiff {
                session: "edit".into(),
                seq: None,
                diff,
            },
            r#"{"v":1,"id":1,"op":"edit-diff","session":"edit","seq":null,"diff":{"boxes_added":[{"layer":"NM","rect":[0,200,100,300]}],"boxes_removed":[{"layer":"NM","rect":[0,0,100,100]}],"labels_added":[{"name":"OUT","at":[50,250],"layer":"NM"}],"labels_removed":[]}}"#,
        ),
        (
            Request::EditDiff {
                session: "edit".into(),
                seq: Some(7),
                diff: LayoutDiff::new(),
            },
            r#"{"v":1,"id":1,"op":"edit-diff","session":"edit","seq":7,"diff":{"boxes_added":[],"boxes_removed":[],"labels_added":[],"labels_removed":[]}}"#,
        ),
        (
            Request::QueryNet {
                session: "edit".into(),
                net: "VDD".into(),
            },
            r#"{"v":1,"id":1,"op":"query-net","session":"edit","net":"VDD"}"#,
        ),
        (
            Request::Close {
                session: "edit".into(),
            },
            r#"{"v":1,"id":1,"op":"close","session":"edit"}"#,
        ),
        (Request::Status, r#"{"v":1,"id":1,"op":"status"}"#),
    ];
    for (request, golden) in cases {
        let bytes = encode_request(1, &request);
        assert_eq!(
            std::str::from_utf8(&bytes).unwrap(),
            golden,
            "wire format drifted for op '{}'",
            request.op()
        );
    }
}

#[test]
fn golden_lint_request_bytes_are_pinned() {
    let config = LintConfig::new()
        .allow(RuleId::DanglingCut)
        .deny(RuleId::UndrivenNet)
        .with_supply_names(vec!["VDD!".into()], vec!["GND!".into()])
        .with_min_channel_dim(500);
    let bytes = encode_request(
        2,
        &Request::Lint {
            session: "edit".into(),
            config,
        },
    );
    let golden = concat!(
        r#"{"v":1,"id":2,"op":"lint","session":"edit","config":{"rules":["#,
        r#"{"rule":"floating-gate","enabled":true,"severity":"error"},"#,
        r#"{"rule":"supply-short","enabled":true,"severity":"error"},"#,
        r#"{"rule":"undriven-net","enabled":true,"severity":"error"},"#,
        r#"{"rule":"zero-wl-device","enabled":true,"severity":"error"},"#,
        r#"{"rule":"dangling-cut","enabled":false,"severity":"warning"},"#,
        r#"{"rule":"depletion-pullup","enabled":true,"severity":"warning"},"#,
        r#"{"rule":"conflicting-labels","enabled":true,"severity":"warning"},"#,
        r#"{"rule":"overloaded-net","enabled":true,"severity":"warning"},"#,
        r#"{"rule":"min-width","enabled":true,"severity":"error"},"#,
        r#"{"rule":"min-spacing","enabled":true,"severity":"error"},"#,
        r#"{"rule":"min-enclosure","enabled":true,"severity":"error"},"#,
        r#"{"rule":"min-overlap","enabled":true,"severity":"error"}],"#,
        r#""vdd":["VDD!"],"gnd":["GND!"],"min_channel_dim":500,"#,
        r#""overload_cap_af_per_drive":50000}}"#,
    );
    assert_eq!(std::str::from_utf8(&bytes).unwrap(), golden);
}

#[test]
fn golden_drc_request_bytes_are_pinned() {
    // Explicit deck text travels verbatim; a null deck means "use the
    // daemon's default NMOS deck". Both spellings are pinned.
    let bytes = encode_request(
        3,
        &Request::Drc {
            session: "edit".into(),
            deck: Some("deck tight\nwidth NM 1000\n".into()),
            config: LintConfig::new().warn(RuleId::MinWidth),
        },
    );
    let golden = concat!(
        r#"{"v":1,"id":3,"op":"drc","session":"edit","deck":"deck tight\nwidth NM 1000\n","config":{"rules":["#,
        r#"{"rule":"floating-gate","enabled":true,"severity":"error"},"#,
        r#"{"rule":"supply-short","enabled":true,"severity":"error"},"#,
        r#"{"rule":"undriven-net","enabled":true,"severity":"warning"},"#,
        r#"{"rule":"zero-wl-device","enabled":true,"severity":"error"},"#,
        r#"{"rule":"dangling-cut","enabled":true,"severity":"warning"},"#,
        r#"{"rule":"depletion-pullup","enabled":true,"severity":"warning"},"#,
        r#"{"rule":"conflicting-labels","enabled":true,"severity":"warning"},"#,
        r#"{"rule":"overloaded-net","enabled":true,"severity":"warning"},"#,
        r#"{"rule":"min-width","enabled":true,"severity":"warning"},"#,
        r#"{"rule":"min-spacing","enabled":true,"severity":"error"},"#,
        r#"{"rule":"min-enclosure","enabled":true,"severity":"error"},"#,
        r#"{"rule":"min-overlap","enabled":true,"severity":"error"}],"#,
        r#""vdd":["VDD!","VDD","Vdd","vdd","POWER"],"gnd":["GND!","GND","Gnd","gnd","VSS!","VSS"],"min_channel_dim":500,"#,
        r#""overload_cap_af_per_drive":50000}}"#,
    );
    assert_eq!(std::str::from_utf8(&bytes).unwrap(), golden);

    let bytes = encode_request(
        4,
        &Request::Drc {
            session: "edit".into(),
            deck: None,
            config: LintConfig::new(),
        },
    );
    let text = std::str::from_utf8(&bytes).unwrap();
    assert!(
        text.starts_with(r#"{"v":1,"id":4,"op":"drc","session":"edit","deck":null,"config":"#),
        "null-deck drc request drifted: {text}"
    );
}

#[test]
fn golden_response_bytes_are_pinned() {
    let cases: Vec<(Response, &str)> = vec![
        (
            Response::Opened {
                session: "edit".into(),
                bands: 4,
            },
            r#"{"v":1,"id":9,"ok":true,"result":"opened","session":"edit","bands":4}"#,
        ),
        (
            Response::Extracted(ExtractResult {
                wirelist: "(wirelist \"t\")\n".into(),
                report: WireReport {
                    boxes: 10,
                    scanline_stops: 6,
                    net_unions: 2,
                    bands_reused: 3,
                    bands_reswept: 1,
                    cache_bytes: 2048,
                    lints_emitted: 0,
                    drc_violations: 0,
                    drc_time_ns: 0,
                    coalesced_edits: 2,
                    total_ns: 12345,
                },
            }),
            r#"{"v":1,"id":9,"ok":true,"result":"extracted","wirelist":"(wirelist \"t\")\n","report":{"boxes":10,"scanline_stops":6,"net_unions":2,"bands_reused":3,"bands_reswept":1,"cache_bytes":2048,"lints_emitted":0,"drc_violations":0,"drc_time_ns":0,"coalesced_edits":2,"total_ns":12345}}"#,
        ),
        (
            Response::DrcChecked {
                diagnostics: vec![
                    WireDiagnostic {
                        rule: RuleId::MinWidth,
                        severity: Severity::Error,
                        message: "NM region 250 x 250 is narrower than 750 in both axes".into(),
                        primary: LintSpan {
                            anchor: Anchor::Area(Rect::new(0, 0, 250, 250)),
                            label: "sliver".into(),
                            name: None,
                        },
                        rendered: "error[min-width] @ [0,0 250,250]: NM region 250 x 250 is narrower than 750 in both axes".into(),
                    },
                    WireDiagnostic {
                        rule: RuleId::MinSpacing,
                        severity: Severity::Error,
                        message: "NM regions 500 apart (min 750)".into(),
                        primary: LintSpan {
                            anchor: Anchor::At(Point::new(400, 100)),
                            label: "gap".into(),
                            name: Some("OUT".into()),
                        },
                        rendered: "error[min-spacing] @ (400,100): NM regions 500 apart (min 750)".into(),
                    },
                ],
                report: WireReport {
                    boxes: 4,
                    scanline_stops: 2,
                    net_unions: 0,
                    bands_reused: 0,
                    bands_reswept: 1,
                    cache_bytes: 512,
                    lints_emitted: 0,
                    drc_violations: 2,
                    drc_time_ns: 8000,
                    coalesced_edits: 0,
                    total_ns: 9000,
                },
            },
            concat!(
                r#"{"v":1,"id":9,"ok":true,"result":"drc","diagnostics":["#,
                r#"{"rule":"min-width","severity":"error","message":"NM region 250 x 250 is narrower than 750 in both axes","primary":{"anchor":{"area":[0,0,250,250]},"label":"sliver","name":null},"rendered":"error[min-width] @ [0,0 250,250]: NM region 250 x 250 is narrower than 750 in both axes"},"#,
                r#"{"rule":"min-spacing","severity":"error","message":"NM regions 500 apart (min 750)","primary":{"anchor":{"at":[400,100]},"label":"gap","name":"OUT"},"rendered":"error[min-spacing] @ (400,100): NM regions 500 apart (min 750)"}],"#,
                r#""report":{"boxes":4,"scanline_stops":2,"net_unions":0,"bands_reused":0,"bands_reswept":1,"cache_bytes":512,"lints_emitted":0,"drc_violations":2,"drc_time_ns":8000,"coalesced_edits":0,"total_ns":9000}}"#,
            ),
        ),
        (
            Response::Net(NetInfo {
                net: "OUT".into(),
                found: true,
                names: vec!["OUT".into()],
                gates: 1,
                terminals: 2,
                cap_af: 3600,
                res_mohm: 125000,
            }),
            r#"{"v":1,"id":9,"ok":true,"result":"net","net":"OUT","found":true,"names":["OUT"],"gates":1,"terminals":2,"cap_af":3600,"res_mohm":125000}"#,
        ),
        (
            Response::Error(
                ServiceError::new(ErrorCode::QueueFull, "shard 1 queue is full")
                    .with_retry_after_ms(50),
            ),
            r#"{"v":1,"id":9,"ok":false,"error":{"code":"queue-full","message":"shard 1 queue is full","retry_after_ms":50}}"#,
        ),
        (
            Response::Status(ServiceStatus {
                sessions: 2,
                cache_bytes: 4096,
                evictions: 1,
                executed: 17,
                stolen: 3,
                queued: 0,
                workers: 2,
                coalesced_edits: 5,
            }),
            r#"{"v":1,"id":9,"ok":true,"result":"status","sessions":2,"cache_bytes":4096,"evictions":1,"executed":17,"stolen":3,"queued":0,"workers":2,"coalesced_edits":5}"#,
        ),
    ];
    for (response, golden) in cases {
        let bytes = encode_response(9, &response);
        assert_eq!(std::str::from_utf8(&bytes).unwrap(), golden);
    }
}
