//! Geometric DRC conformance: brute-force oracle plus decomposition
//! invariance.
//!
//! Two claims are fuzzed here:
//!
//! 1. **Oracle agreement** — `ace_drc::check_layout`'s sweep-style
//!    checker (canonical covers, interval maps, morphological
//!    opening) must produce the *identical* structured violation
//!    list as a brute-force reimplementation built on 2D coordinate
//!    compression: color a compressed grid, BFS grid cells for
//!    connected regions, test square-block feasibility cell by cell.
//!    The oracle shares none of the scanline/merge machinery.
//! 2. **Decomposition invariance** — re-fracturing the layout must
//!    not change the violation list: reversed feed order, and boxes
//!    split at the 4-band and 64-band sweep cut lines, all produce
//!    byte-identical results.
//!
//! Every quantity a [`Violation`] carries (component bounding boxes,
//! gaps, uncovered areas) is a point-set property of the drawn masks,
//! which is what makes exact structural equality between two
//! independent implementations a fair requirement.

use ace_core::ExtractError;
use ace_drc::{DrcRule, RuleDeck, Violation};
use ace_geom::{Coord, Layer, Rect};
use ace_layout::{band_cuts, FlatLayout, Library};

use crate::backends::BackendId;
use crate::grid::Grid;
use crate::harness::{check_agreement, Divergence};

fn bbox(cells: &[Rect]) -> Rect {
    cells.iter().skip(1).fold(cells[0], |a, r| {
        Rect::new(
            a.x_min.min(r.x_min),
            a.y_min.min(r.y_min),
            a.x_max.max(r.x_max),
            a.y_max.max(r.y_max),
        )
    })
}

/// Area of `(∪ a) \ (∪ b)` by compressed-grid coloring.
fn difference_area(a: &[Rect], b: &[Rect]) -> i64 {
    let grid = Grid::new(&[a, b], &[], &[]);
    grid.area(|i, j| grid.covered(0, i, j) && !grid.covered(1, i, j))
}

fn chebyshev_gap(a: &Rect, b: &Rect) -> Coord {
    let gap_x = (b.x_min - a.x_max).max(a.x_min - b.x_max).max(0);
    let gap_y = (b.y_min - a.y_max).max(a.y_min - b.y_max).max(0);
    gap_x.max(gap_y)
}

/// The opened region of `rects` for a `w`×`w` square, brute-force:
/// enumerate anchor cells on an enriched grid, test each
/// representative block for full coverage cell by cell, and dilate
/// the feasible anchor cells back by `w - 1`.
///
/// An anchor `a` is feasible when the half-open block `[a, a+w)²` is
/// covered; the set of feasible anchors has its boundaries on lines
/// `c` and `c - w + 1` for rect bounds `c` (half-open semantics —
/// `a ≤ c - w` is `a < c - w + 1`), so enriching the grid with those
/// offsets makes feasibility constant within each anchor cell.
fn brute_opened(rects: &[Rect], w: Coord) -> Vec<Rect> {
    let mut extra_xs = Vec::new();
    let mut extra_ys = Vec::new();
    for r in rects {
        extra_xs.extend([r.x_min - w + 1, r.x_max - w + 1]);
        extra_ys.extend([r.y_min - w + 1, r.y_max - w + 1]);
    }
    let grid = Grid::new(&[rects], &extra_xs, &extra_ys);
    let block_feasible = |ai: usize, aj: usize| {
        // Block [x, x+w) × [y, y+w) for the anchor at the cell's
        // lower-left corner. Rect bounds are all grid lines, so
        // coverage is constant within each compressed cell and it is
        // enough to test every cell the block intersects.
        let (x, y) = (grid.xs[ai], grid.ys[aj]);
        let (x1, y1) = (x + w, y + w);
        if *grid.xs.last().expect("nonempty grid") < x1
            || *grid.ys.last().expect("nonempty grid") < y1
        {
            return false; // block exits the grid: uncovered space
        }
        let i1 = grid.xs.partition_point(|&gx| gx < x1);
        let j1 = grid.ys.partition_point(|&gy| gy < y1);
        (ai..i1).all(|i| (aj..j1).all(|j| grid.covered(0, i, j)))
    };
    grid.cells()
        .filter(|&(i, j)| block_feasible(i, j))
        .map(|(i, j)| {
            let cell = grid.cell_rect(i, j);
            Rect::new(
                cell.x_min,
                cell.y_min,
                cell.x_max + w - 1,
                cell.y_max + w - 1,
            )
        })
        .collect()
}

fn oracle_width(rects: &[Rect], layer: Layer, min: Coord, out: &mut Vec<Violation>) {
    if rects.is_empty() {
        return;
    }
    let opened = brute_opened(rects, min);
    let grid = Grid::new(&[rects, &opened], &[], &[]);
    let narrow = grid.components(|i, j| grid.covered(0, i, j) && !grid.covered(1, i, j));
    for patch in narrow {
        out.push(Violation::Width {
            layer,
            min,
            bbox: bbox(&patch),
            area: patch.iter().map(Rect::area).sum(),
        });
    }
}

fn oracle_spacing(rects: &[Rect], layer: Layer, min: Coord, out: &mut Vec<Violation>) {
    let grid = Grid::new(&[rects], &[], &[]);
    let comps = grid.components(|i, j| grid.covered(0, i, j));
    for i in 0..comps.len() {
        for j in i + 1..comps.len() {
            let (a, b) = (&comps[i], &comps[j]);
            let (ha, hb) = (bbox(a), bbox(b));
            if chebyshev_gap(&ha, &hb) >= min {
                continue;
            }
            let mut gap = Coord::MAX;
            let mut involved: Option<Rect> = None;
            for ra in a {
                for rb in b {
                    gap = gap.min(chebyshev_gap(ra, rb));
                    for (near, far) in [(ra, rb), (rb, ra)] {
                        if let Some(facing) = near.intersection(&far.inflate(min)) {
                            involved = Some(match involved {
                                None => facing,
                                Some(h) => h.bounding_union(&facing),
                            });
                        }
                    }
                }
            }
            if gap >= min {
                continue;
            }
            let (first, second) = if ha <= hb { (ha, hb) } else { (hb, ha) };
            out.push(Violation::Spacing {
                layer,
                min,
                gap,
                involved: involved.expect("a violating pair has facing material"),
                first,
                second,
            });
        }
    }
}

fn oracle_enclosure(
    rects: &dyn Fn(Layer) -> Vec<Rect>,
    inner: Layer,
    outer: &[Layer],
    margin: Coord,
    out: &mut Vec<Violation>,
) {
    let inner_rects = rects(inner);
    let outer_rects: Vec<Rect> = outer.iter().flat_map(|&l| rects(l)).collect();
    let grid = Grid::new(&[&inner_rects], &[], &[]);
    for comp in grid.components(|i, j| grid.covered(0, i, j)) {
        let required: Vec<Rect> = comp.iter().map(|r| r.inflate(margin)).collect();
        let uncovered = difference_area(&required, &outer_rects);
        if uncovered > 0 {
            out.push(Violation::Enclosure {
                inner,
                outer: outer.to_vec(),
                margin,
                bbox: bbox(&comp),
                uncovered,
            });
        }
    }
}

fn oracle_extension(
    rects: &dyn Fn(Layer) -> Vec<Rect>,
    over: Layer,
    past: Layer,
    margin: Coord,
    out: &mut Vec<Violation>,
) {
    let over_rects = rects(over);
    let past_rects = rects(past);
    let grid = Grid::new(&[&over_rects, &past_rects], &[], &[]);
    let channel = grid.components(|i, j| grid.covered(0, i, j) && grid.covered(1, i, j));
    let union: Vec<Rect> = over_rects.iter().chain(&past_rects).copied().collect();
    for comp in channel {
        let mut required = Vec::with_capacity(comp.len() * 2);
        for r in &comp {
            required.push(Rect::new(
                r.x_min,
                r.y_min - margin,
                r.x_max,
                r.y_max + margin,
            ));
            required.push(Rect::new(
                r.x_min - margin,
                r.y_min,
                r.x_max + margin,
                r.y_max,
            ));
        }
        let uncovered = difference_area(&required, &union);
        if uncovered > 0 {
            out.push(Violation::Extension {
                over,
                past,
                margin,
                bbox: bbox(&comp),
                uncovered,
            });
        }
    }
}

/// Runs `deck` over the layout with the brute-force compressed-grid
/// implementation, returning the same sorted structured list
/// [`ace_drc::check_layout`] promises.
pub fn oracle_violations(layout: &FlatLayout, deck: &RuleDeck) -> Vec<Violation> {
    let rects = |layer: Layer| -> Vec<Rect> {
        layout
            .boxes()
            .iter()
            .filter(|b| b.layer == layer && !b.rect.is_empty())
            .map(|b| b.rect)
            .collect()
    };
    let mut out = Vec::new();
    for rule in &deck.rules {
        match rule {
            DrcRule::Width { layer, min } => oracle_width(&rects(*layer), *layer, *min, &mut out),
            DrcRule::Spacing { layer, min } => {
                oracle_spacing(&rects(*layer), *layer, *min, &mut out)
            }
            DrcRule::Enclosure {
                inner,
                outer,
                margin,
            } => oracle_enclosure(&rects, *inner, outer, *margin, &mut out),
            DrcRule::Extension { over, past, margin } => {
                oracle_extension(&rects, *over, *past, *margin, &mut out)
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

fn violation_diff(label: &str, expect: &[Violation], got: &[Violation]) -> Option<String> {
    if expect == got {
        return None;
    }
    let mut out = format!(
        "DRC violations differ ({label}): {} vs {} from the sweep checker\n",
        got.len(),
        expect.len()
    );
    for v in expect.iter().filter(|v| !got.contains(v)).take(6) {
        out.push_str(&format!("  only from sweep:   {v:?}\n"));
    }
    for v in got.iter().filter(|v| !expect.contains(v)).take(6) {
        out.push_str(&format!("  only from variant: {v:?}\n"));
    }
    Some(out)
}

/// Splits every box at the given y cut lines (the same lines the
/// banded backend sweeps between) without changing any point set.
fn split_at_cuts(layout: &FlatLayout, cuts: &[Coord]) -> FlatLayout {
    let mut out = FlatLayout::new();
    for b in layout.boxes() {
        let mut y = b.rect.y_min;
        for &cut in cuts {
            if cut > b.rect.y_min && cut < b.rect.y_max {
                out.push_box(b.layer, Rect::new(b.rect.x_min, y, b.rect.x_max, cut));
                y = cut;
            }
        }
        out.push_box(
            b.layer,
            Rect::new(b.rect.x_min, y, b.rect.x_max, b.rect.y_max),
        );
    }
    out
}

/// Feeds the layout's boxes in reversed order.
fn reversed(layout: &FlatLayout) -> FlatLayout {
    let mut out = FlatLayout::new();
    for b in layout.boxes().iter().rev() {
        out.push_box(b.layer, b.rect);
    }
    out
}

/// Checks the sweep checker against the brute-force oracle and
/// against every decomposition variant (reversed feed, 4-band and
/// 64-band splits, split + reversed). Returns a report on the first
/// disagreement, `None` when all runs produce the identical list.
pub fn drc_check(layout: &FlatLayout, deck: &RuleDeck) -> Option<String> {
    let expect = ace_drc::check_layout(layout, deck);
    if let Some(diff) = violation_diff(
        "brute-force oracle",
        &expect,
        &oracle_violations(layout, deck),
    ) {
        return Some(diff);
    }
    let mut variants: Vec<(String, FlatLayout)> = vec![("reversed feed".into(), reversed(layout))];
    for bands in [4usize, 64] {
        let cuts = band_cuts(layout, bands);
        let split = split_at_cuts(layout, &cuts);
        variants.push((format!("{bands}-band split + reversed"), reversed(&split)));
        variants.push((format!("{bands}-band split"), split));
    }
    for (label, variant) in &variants {
        if let Some(diff) = violation_diff(label, &expect, &ace_drc::check_layout(variant, deck)) {
            return Some(diff);
        }
    }
    None
}

/// [`crate::check_agreement`] plus the DRC gate: circuits must agree
/// across backends, and the DRC sweep checker must agree with the
/// brute-force oracle and stay decomposition-invariant on the flat
/// layout (DRC is purely geometric, so backends play no part in it).
///
/// # Errors
///
/// Propagates reference-backend extraction failures.
pub fn check_agreement_with_drc(
    lib: &Library,
    backends: &[BackendId],
) -> Result<Option<Divergence>, ExtractError> {
    if let Some(divergence) = check_agreement(lib, backends)? {
        return Ok(Some(divergence));
    }
    let layout = FlatLayout::from_library(lib);
    Ok(
        drc_check(&layout, &RuleDeck::nmos()).map(|detail| Divergence {
            backend: backends[0],
            bands: 1,
            reference: backends[0],
            detail,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_workloads::{cells, violations};

    #[test]
    fn oracle_matches_sweep_on_the_violation_corpus() {
        for (rule, cif) in violations::all() {
            let lib = Library::from_cif_text(&cif).unwrap();
            let layout = FlatLayout::from_library(&lib);
            let outcome = drc_check(&layout, &RuleDeck::nmos());
            assert!(outcome.is_none(), "{rule}: {}", outcome.unwrap());
        }
    }

    #[test]
    fn oracle_matches_sweep_on_the_inverter() {
        let lib = Library::from_cif_text(&cells::inverter_cif()).unwrap();
        let layout = FlatLayout::from_library(&lib);
        let outcome = drc_check(&layout, &RuleDeck::nmos());
        assert!(outcome.is_none(), "{}", outcome.unwrap());
    }

    #[test]
    fn brute_opened_agrees_with_plain_shapes() {
        // A w-square survives opening; a thin wire vanishes.
        let w = 750;
        let square = [Rect::new(0, 0, 750, 750)];
        assert_eq!(difference_area(&square, &brute_opened(&square, w)), 0);
        let wire = [Rect::new(0, 0, 500, 2000)];
        assert_eq!(difference_area(&wire, &brute_opened(&wire, w)), 500 * 2000);
    }

    #[test]
    fn a_forged_violation_difference_reads_well() {
        let v = Violation::Width {
            layer: Layer::Metal,
            min: 750,
            bbox: Rect::new(0, 0, 500, 500),
            area: 250_000,
        };
        let detail = violation_diff("oracle", &[v], &[]).unwrap();
        assert!(detail.contains("only from sweep"), "{detail}");
    }
}
