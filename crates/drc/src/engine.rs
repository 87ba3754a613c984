//! The check engine: runs a [`RuleDeck`] over flat mask geometry.
//!
//! Entry points, lowest to highest level:
//!
//! * [`check_layout`] — pure function from `(layout, deck)` to a
//!   sorted list of structured [`Violation`]s.
//! * [`check`] — the same, rendered to [`ace_lint::Diagnostic`]s with
//!   a [`LintConfig`]'s severity overrides applied.
//! * [`check_extraction`] — traced and reported: brackets the check
//!   in a [`Span::Drc`] and bumps the [`Counter::DrcViolations`]
//!   probe counter, which a [`ace_core::CounterProbe`]'s report view
//!   carries as `drc_time` / `drc_violations`.
//!
//! Every check reduces each layer to its *canonical cover* (the
//! decomposition-invariant maximal-strip form of
//! [`ace_geom::merge_boxes`]) before measuring anything, so the
//! violation list depends only on the drawn point sets — never on how
//! the artwork was fractured into boxes.

use std::collections::BTreeMap;

use ace_geom::{
    intersect_boxes, merge_boxes, subtract_boxes, Coord, Layer, LayerMap, Rect, RectIndex,
};
use ace_layout::probe::{Counter, Lane, Probe, Span};
use ace_layout::FlatLayout;
use ace_lint::{sort_diagnostics, Diagnostic, LintConfig, LintSpan, RuleId};

use crate::deck::{DrcRule, RuleDeck};
use crate::region::{
    axis_cross, component_ids, components, cover_area, hull, inflate_cover, narrow_region,
};

/// One structured DRC finding.
///
/// The variant order matches the geometric [`RuleId`]s' report order,
/// so the derived `Ord` sorts a violation list the same way
/// [`ace_lint::sort_diagnostics`] sorts its rendered diagnostics.
/// Both the sweep checker and the conformance oracle produce these,
/// which is what the cross-implementation gate compares.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Violation {
    /// A merged region of `layer` contains points that fit in no
    /// `min`×`min` square (a feature narrower than `min`).
    Width {
        /// The offending layer.
        layer: Layer,
        /// The deck's minimum dimension.
        min: Coord,
        /// Bounding box of one connected narrow patch.
        bbox: Rect,
        /// Total area of that narrow patch.
        area: i64,
    },
    /// Two distinct merged regions of `layer` closer than `min`
    /// (Chebyshev distance — diagonal corner gaps count).
    Spacing {
        /// The offending layer.
        layer: Layer,
        /// The deck's minimum spacing.
        min: Coord,
        /// The actual gap between the two regions.
        gap: Coord,
        /// Bounding box of the facing material within `min` of the
        /// other region — where the layout must change.
        involved: Rect,
        /// Bounding box of the lexicographically smaller region.
        first: Rect,
        /// Bounding box of the larger region.
        second: Rect,
    },
    /// A merged region of `inner` whose `margin`-inflation is not
    /// covered by the union of the `outer` layers.
    Enclosure {
        /// The enclosed layer.
        inner: Layer,
        /// The layers whose union must enclose it.
        outer: Vec<Layer>,
        /// The deck's required margin.
        margin: Coord,
        /// Bounding box of the offending inner region.
        bbox: Rect,
        /// Area of the inflated region left uncovered.
        uncovered: i64,
    },
    /// A crossing of `over` and `past` whose axis-aligned
    /// surroundings are not covered out to `margin` by the union of
    /// the two layers — a missing gate extension or source/drain.
    Extension {
        /// The crossing layer (gate poly).
        over: Layer,
        /// The crossed layer (diffusion).
        past: Layer,
        /// The deck's required extension.
        margin: Coord,
        /// Bounding box of the offending crossing region.
        bbox: Rect,
        /// Area of the required surroundings left uncovered.
        uncovered: i64,
    },
}

impl Violation {
    /// The lint rule this violation reports under.
    pub fn rule_id(&self) -> RuleId {
        match self {
            Violation::Width { .. } => RuleId::MinWidth,
            Violation::Spacing { .. } => RuleId::MinSpacing,
            Violation::Enclosure { .. } => RuleId::MinEnclosure,
            Violation::Extension { .. } => RuleId::MinOverlap,
        }
    }

    /// Renders the violation as a lint diagnostic, taking the
    /// severity from `config` (geometric rules default to `error`).
    pub fn to_diagnostic(&self, config: &LintConfig) -> Diagnostic {
        let rule = self.rule_id();
        let (message, primary, related) = match self {
            Violation::Width {
                layer,
                min,
                bbox,
                area,
            } => (
                format!(
                    "{} feature narrower than {min} (narrow area {area})",
                    layer.cif_name()
                ),
                LintSpan::area(*bbox, "narrow feature here"),
                vec![],
            ),
            Violation::Spacing {
                layer,
                min,
                gap,
                involved,
                first,
                second,
            } => (
                format!(
                    "{} regions only {gap} apart (minimum spacing {min})",
                    layer.cif_name()
                ),
                LintSpan::area(*involved, "facing edges here"),
                vec![
                    LintSpan::area(*first, "first region"),
                    LintSpan::area(*second, "second region"),
                ],
            ),
            Violation::Enclosure {
                inner,
                outer,
                margin,
                bbox,
                uncovered,
            } => {
                let outers: Vec<&str> = outer.iter().map(|l| l.cif_name()).collect();
                (
                    format!(
                        "{} enclosure by {} short of {margin} (uncovered area {uncovered})",
                        inner.cif_name(),
                        outers.join("+")
                    ),
                    LintSpan::area(*bbox, "under-enclosed region here"),
                    vec![],
                )
            }
            Violation::Extension {
                over,
                past,
                margin,
                bbox,
                uncovered,
            } => (
                format!(
                    "{} crossing {} lacks the {margin} extension (uncovered area {uncovered})",
                    over.cif_name(),
                    past.cif_name()
                ),
                LintSpan::area(*bbox, "crossing here"),
                vec![],
            ),
        };
        Diagnostic {
            rule,
            severity: config.severity_of(rule),
            message,
            primary,
            related,
        }
    }
}

/// Chebyshev gap between two disjoint rectangles (0 when they touch
/// or overlap in both axes).
fn chebyshev_gap(a: &Rect, b: &Rect) -> Coord {
    let gap_x = (b.x_min - a.x_max).max(a.x_min - b.x_max).max(0);
    let gap_y = (b.y_min - a.y_max).max(a.y_min - b.y_max).max(0);
    gap_x.max(gap_y)
}

fn check_width(cover: &[Rect], layer: Layer, min: Coord, out: &mut Vec<Violation>) {
    for patch in components(&narrow_region(cover, min)) {
        out.push(Violation::Width {
            layer,
            min,
            bbox: hull(&patch),
            area: cover_area(&patch),
        });
    }
}

/// Every pair of components closer than `min`, found cell by cell: a
/// cell pair has a Chebyshev gap below `min` exactly when one cell
/// overlaps the other's `min`-inflation, and only such pairs can pull
/// a component pair's gap below `min` or face each other within it.
fn check_spacing(cover: &[Rect], layer: Layer, min: Coord, out: &mut Vec<Violation>) {
    let ids = component_ids(cover);
    // Ids number components by first cell, so an unseen id is always
    // the next one.
    let mut hulls: Vec<Rect> = Vec::new();
    for (r, &id) in cover.iter().zip(&ids) {
        match hulls.get_mut(id) {
            Some(h) => *h = h.bounding_union(r),
            None => hulls.push(*r),
        }
    }
    let index = RectIndex::new(cover);
    // (gap, involved hull) per component pair, lower id first.
    let mut pairs: BTreeMap<(usize, usize), (Coord, Rect)> = BTreeMap::new();
    let mut hits = Vec::new();
    for (j, rb) in cover.iter().enumerate() {
        let reach = rb.inflate(min);
        index.query(&reach, &mut hits);
        for &i in hits.iter().filter(|&&i| ids[i] < ids[j]) {
            let ra = &cover[i];
            // `ra` lies within `min` of `rb`, so each faces the other.
            let (Some(fa), Some(fb)) = (ra.intersection(&reach), rb.intersection(&ra.inflate(min)))
            else {
                unreachable!("cells within `min` of each other face each other");
            };
            let (gap, facing) = (chebyshev_gap(ra, rb), fa.bounding_union(&fb));
            pairs
                .entry((ids[i], ids[j]))
                .and_modify(|(g, involved)| {
                    *g = (*g).min(gap);
                    *involved = involved.bounding_union(&facing);
                })
                .or_insert((gap, facing));
        }
    }
    for ((a, b), (gap, involved)) in pairs {
        // Order the pair by hull, not by component enumeration order,
        // so independent implementations agree.
        let (ha, hb) = (hulls[a], hulls[b]);
        let (first, second) = if ha <= hb { (ha, hb) } else { (hb, ha) };
        out.push(Violation::Spacing {
            layer,
            min,
            gap,
            involved,
            first,
            second,
        });
    }
}

/// The cells of `index` (built over `cells`) that overlap `region`'s
/// hull: the only ones that can cover any of it.
fn near(index: &RectIndex, cells: &[Rect], region: &[Rect], hits: &mut Vec<usize>) -> Vec<Rect> {
    index.query(&hull(region), hits);
    hits.iter().map(|&i| cells[i]).collect()
}

fn check_enclosure(
    inner_cover: &[Rect],
    covers: &LayerMap<Vec<Rect>>,
    inner: Layer,
    outer: &[Layer],
    margin: Coord,
    out: &mut Vec<Violation>,
) {
    let outer_cells: Vec<Rect> = outer
        .iter()
        .flat_map(|&l| covers[l].iter().copied())
        .collect();
    let index = RectIndex::new(&outer_cells);
    let mut hits = Vec::new();
    for comp in components(inner_cover) {
        let required = inflate_cover(&comp, margin);
        let cover = near(&index, &outer_cells, &required, &mut hits);
        let uncovered = subtract_boxes(&required, &cover);
        if !uncovered.is_empty() {
            out.push(Violation::Enclosure {
                inner,
                outer: outer.to_vec(),
                margin,
                bbox: hull(&comp),
                uncovered: cover_area(&uncovered),
            });
        }
    }
}

fn check_extension(
    covers: &LayerMap<Vec<Rect>>,
    over: Layer,
    past: Layer,
    margin: Coord,
    out: &mut Vec<Violation>,
) {
    let channel = intersect_boxes(&covers[over], &covers[past]);
    if channel.is_empty() {
        return;
    }
    let union_cells = [covers[over].as_slice(), &covers[past]].concat();
    let index = RectIndex::new(&union_cells);
    let mut hits = Vec::new();
    for comp in components(&channel) {
        let required = axis_cross(&comp, margin);
        let cover = near(&index, &union_cells, &required, &mut hits);
        let uncovered = subtract_boxes(&required, &cover);
        if !uncovered.is_empty() {
            out.push(Violation::Extension {
                over,
                past,
                margin,
                bbox: hull(&comp),
                uncovered: cover_area(&uncovered),
            });
        }
    }
}

/// Runs `deck` over the flat layout's mask geometry and returns the
/// sorted, deduplicated violation list.
///
/// Zero-area boxes contribute no material and are ignored, matching
/// the extractor's sweep. The result is decomposition-invariant: any
/// fracturing of the same drawn point sets produces the identical
/// list.
pub fn check_layout(layout: &FlatLayout, deck: &RuleDeck) -> Vec<Violation> {
    let mut rects: LayerMap<Vec<Rect>> = LayerMap::default();
    for b in layout.boxes() {
        if !b.rect.is_empty() {
            rects[b.layer].push(b.rect);
        }
    }
    let covers: LayerMap<Vec<Rect>> = LayerMap::from_fn(|l| merge_boxes(&rects[l]));
    let mut out = Vec::new();
    for rule in &deck.rules {
        match rule {
            DrcRule::Width { layer, min } => check_width(&covers[*layer], *layer, *min, &mut out),
            DrcRule::Spacing { layer, min } => {
                check_spacing(&covers[*layer], *layer, *min, &mut out)
            }
            DrcRule::Enclosure {
                inner,
                outer,
                margin,
            } => check_enclosure(&covers[*inner], &covers, *inner, outer, *margin, &mut out),
            DrcRule::Extension { over, past, margin } => {
                check_extension(&covers, *over, *past, *margin, &mut out)
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Runs `deck` and renders the findings as sorted lint diagnostics,
/// honouring the config's severity overrides and per-rule disables
/// (an `allow`ed geometric rule is skipped entirely).
pub fn check(layout: &FlatLayout, deck: &RuleDeck, config: &LintConfig) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = check_layout(layout, deck)
        .iter()
        .filter(|v| config.is_enabled(v.rule_id()))
        .map(|v| v.to_diagnostic(config))
        .collect();
    sort_diagnostics(&mut diags);
    diags
}

/// [`check`] as an extraction's DRC pass, recorded on [`Lane::MAIN`]:
/// the probe sees a [`Span::Drc`] around it and then
/// [`Counter::DrcViolations`].
pub fn check_extraction(
    layout: &FlatLayout,
    deck: &RuleDeck,
    config: &LintConfig,
    probe: &dyn Probe,
) -> Vec<Diagnostic> {
    probe.enter(Lane::MAIN, Span::Drc);
    let diagnostics = check(layout, deck, config);
    probe.exit(Lane::MAIN, Span::Drc);
    probe.add(Lane::MAIN, Counter::DrcViolations, diagnostics.len() as u64);
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_layout::Library;

    fn layout(src: &str) -> FlatLayout {
        FlatLayout::from_library(&Library::from_cif_text(src).expect("parse"))
    }

    fn violations(src: &str) -> Vec<Violation> {
        check_layout(&layout(src), &RuleDeck::nmos())
    }

    #[test]
    fn clean_transistor_is_clean() {
        // 2λ poly over 2λ diffusion with 2λ extensions everywhere.
        let v = violations("L ND; B 500 3000 250 1500; L NP; B 2500 500 250 1500; E");
        assert_eq!(v, vec![]);
    }

    #[test]
    fn thin_metal_trips_min_width() {
        let v = violations("L NM; B 500 2000 250 1000; E");
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::Width {
                layer: Layer::Metal,
                min: 750,
                ..
            }
        ));
    }

    #[test]
    fn close_metal_trips_min_spacing_but_merged_metal_does_not() {
        // Two 3λ squares 2λ apart: spacing violation.
        let v = violations("L NM; B 750 750 375 375; B 750 750 1625 375; E");
        assert_eq!(v.len(), 1);
        let Violation::Spacing { layer, gap, .. } = &v[0] else {
            panic!("expected spacing, got {v:?}");
        };
        assert_eq!((*layer, *gap), (Layer::Metal, 500));
        // The same two squares joined by a 3λ bridge: one region, clean.
        let joined =
            violations("L NM; B 750 750 375 375; B 750 750 1625 375; B 500 750 1000 375; E");
        assert_eq!(joined, vec![]);
    }

    #[test]
    fn corner_gap_counts_as_chebyshev_spacing() {
        // Corner-to-corner diagonal offset of 2λ in each axis: the
        // Chebyshev gap is 500 < 750.
        let v = violations("L NM; B 750 750 375 375; B 750 750 1625 1625; E");
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::Spacing { gap: 500, .. }));
    }

    #[test]
    fn under_enclosed_cut_trips_min_enclosure() {
        // 2λ cut with 1λ metal margin (clean) but diffusion flush on
        // one side (enclosure deficit).
        let v = violations(
            "L NC; B 500 500 1000 1000;
             L NM; B 1000 1000 1000 1000;
             L ND; B 850 1000 925 1000; E",
        );
        assert_eq!(v.len(), 1);
        let Violation::Enclosure {
            inner,
            outer,
            uncovered,
            ..
        } = &v[0]
        else {
            panic!("expected enclosure, got {v:?}");
        };
        assert_eq!(*inner, Layer::Cut);
        assert_eq!(outer[..], [Layer::Diffusion, Layer::Poly]);
        assert!(*uncovered > 0);
    }

    #[test]
    fn flush_gate_trips_min_overlap() {
        // Poly ends exactly at the diffusion edge: no gate extension.
        let v = check_layout(
            &layout("L ND; B 500 3000 250 1500; L NP; B 2250 500 1375 1500; E"),
            &RuleDeck::parse("extend NP ND 500").expect("deck"),
        );
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::Extension {
                over: Layer::Poly,
                past: Layer::Diffusion,
                ..
            }
        ));
    }

    #[test]
    fn diagnostics_render_and_sort() {
        let diags = check(
            &layout("L NM; B 500 2000 250 1000; B 500 2000 1250 1000; E"),
            &RuleDeck::nmos(),
            &LintConfig::new(),
        );
        assert!(diags.len() >= 2);
        assert!(diags.windows(2).all(|w| w[0].rule <= w[1].rule));
        assert!(diags[0].render().starts_with("error[min-width]"));
        // Allowing a rule removes its findings.
        let allowed = check(
            &layout("L NM; B 500 2000 250 1000; E"),
            &RuleDeck::nmos(),
            &LintConfig::new().allow(RuleId::MinWidth),
        );
        assert_eq!(allowed, vec![]);
    }

    #[test]
    fn zero_area_boxes_are_ignored() {
        // The CIF parser rejects degenerate boxes upstream...
        assert!(Library::from_cif_text("L NM; B 0 500 250 1000; E").is_err());
        // ...and a zero-area rect smuggled past it contributes no
        // material to any check.
        let mut flat = FlatLayout::new();
        flat.push_box(Layer::Metal, Rect::new(0, 0, 0, 2000));
        assert_eq!(check_layout(&flat, &RuleDeck::nmos()), vec![]);
    }

    /// `boxes` plus 300 far-away squares on `layer`, so each rule's
    /// index has more than one level above its leaves.
    fn with_distractors(layer: Layer, boxes: &[(Layer, Rect)]) -> FlatLayout {
        let mut flat = FlatLayout::new();
        for &(l, r) in boxes {
            flat.push_box(l, r);
        }
        for i in 0..300 {
            let (x, y) = ((i % 20) * 2000, 100_000 + (i / 20) * 2000);
            flat.push_box(layer, Rect::new(x, y, x + 1000, y + 1000));
        }
        flat
    }

    #[test]
    fn enclosure_sees_a_rail_that_starts_far_outside_the_window() {
        let deck = RuleDeck::parse("enclose NC NM 250").expect("deck");
        let cut = Rect::new(0, 0, 500, 500);
        // The rail ends exactly on the margin's far edge: clean.
        let rail = Rect::new(-1_000_000, -250, 750, 750);
        let flat = with_distractors(Layer::Metal, &[(Layer::Cut, cut), (Layer::Metal, rail)]);
        assert_eq!(check_layout(&flat, &deck), vec![]);
        // One unit short of it: a 1 × 1000 strip is uncovered.
        let short = Rect::new(-1_000_000, -250, 749, 750);
        let flat = with_distractors(Layer::Metal, &[(Layer::Cut, cut), (Layer::Metal, short)]);
        assert_eq!(
            check_layout(&flat, &deck),
            vec![Violation::Enclosure {
                inner: Layer::Cut,
                outer: vec![Layer::Metal],
                margin: 250,
                bbox: cut,
                uncovered: 1000,
            }]
        );
    }

    #[test]
    fn extension_sees_poly_that_continues_past_the_window() {
        let deck = RuleDeck::parse("extend NP ND 500").expect("deck");
        let diffusion = Rect::new(0, -1000, 500, 1500);
        // The gate's right-hand extension is a separate, taller rect
        // that leaves the required window far behind.
        let gate = Rect::new(-500, 0, 700, 500);
        let beyond = Rect::new(700, -250, 20_000, 750);
        let flat = with_distractors(
            Layer::Poly,
            &[
                (Layer::Diffusion, diffusion),
                (Layer::Poly, gate),
                (Layer::Poly, beyond),
            ],
        );
        assert_eq!(check_layout(&flat, &deck), vec![]);
        // Ending one unit inside the window leaves a 1 × 500 strip.
        let short = Rect::new(700, -250, 999, 750);
        let flat = with_distractors(
            Layer::Poly,
            &[
                (Layer::Diffusion, diffusion),
                (Layer::Poly, gate),
                (Layer::Poly, short),
            ],
        );
        assert_eq!(
            check_layout(&flat, &deck),
            vec![Violation::Extension {
                over: Layer::Poly,
                past: Layer::Diffusion,
                margin: 500,
                bbox: Rect::new(0, 0, 500, 500),
                uncovered: 500,
            }]
        );
    }

    #[test]
    fn comb_facing_islands_reports_exactly_the_close_ones() {
        // A spine with 150 teeth; above each tooth an island, every
        // other one a unit closer than `min`.
        let min = 750;
        let deck = RuleDeck::parse("space NM 750").expect("deck");
        let teeth = 150;
        let spine = Rect::new(0, 0, teeth * 2000, 1000);
        let mut flat = FlatLayout::new();
        flat.push_box(Layer::Metal, spine);
        let mut want = Vec::new();
        for k in 0..teeth {
            let x = k * 2000;
            flat.push_box(Layer::Metal, Rect::new(x, 1000, x + 1000, 5000));
            let gap = if k % 2 == 0 { min - 1 } else { min };
            let island = Rect::new(x, 5000 + gap, x + 1000, 6000 + gap);
            flat.push_box(Layer::Metal, island);
            if gap < min {
                want.push(Violation::Spacing {
                    layer: Layer::Metal,
                    min,
                    gap,
                    // The tooth's top unit and the island's bottom unit.
                    involved: Rect::new(x, 5000 - 1, x + 1000, 5000 + gap + 1),
                    first: Rect::new(0, 0, teeth * 2000, 5000),
                    second: island,
                });
            }
        }
        want.sort();
        assert_eq!(want.len(), 75);
        assert_eq!(check_layout(&flat, &deck), want);
    }
}
