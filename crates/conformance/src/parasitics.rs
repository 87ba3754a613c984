//! Cross-backend parasitic agreement, checked against an independent
//! brute-force oracle.
//!
//! Two claims are fuzzed here:
//!
//! 1. **Backend agreement** — all six backends accumulate identical
//!    per-net parasitic totals ([`ace_wirelist::NetParasitics`]).
//!    Net ids differ between backends, so nets are keyed by a
//!    backend-stable signature: sorted user names plus symmetric
//!    device attachments anchored on device locations (`G@` for
//!    gates, `T@` for channel terminals, which do not distinguish
//!    source from drain). On a channel with more than two terminals,
//!    backends may break a tie between equal edges differently and
//!    pick different nets as source and drain, so when the reference
//!    reports such a channel the `T@` anchors are dropped — the same
//!    switch that degrades the wiring comparison to a census. Nets
//!    left with neither a name nor an anchor have no backend-stable
//!    identity (whether one survives pruning depends on that tie) and
//!    are not compared.
//! 2. **Accumulator exactness** — the sweep's incremental
//!    add-rect/subtract-shared-edge accounting equals a brute-force
//!    union computation done by 2D coordinate compression (color a
//!    compressed grid, sum covered cells for area, sum covered/empty
//!    cell boundaries for perimeter). The oracle shares no code with
//!    the scanline's interval machinery.

use ace_core::{extract_library, ExtractError, ExtractOptions};
use ace_geom::{Layer, Rect};
use ace_layout::{FlatLayout, Library};
use ace_wirelist::parasitics::conducting_slot;
use ace_wirelist::{NetParasitics, Netlist};

use crate::backends::BackendId;
use crate::grid::Grid;
use crate::harness::{compare_one, extract_pruned, first_divergence, Divergence};

/// One net's backend-stable identity plus its parasitic totals.
pub type ParasiticEntry = (String, NetParasitics);

/// The canonical per-backend parasitic signature: one entry per net,
/// keyed by sorted names and symmetric device-location attachments
/// (terminal attachments only when `anchor_terminals` is set), sorted
/// for order-independent comparison. Nets with an empty key are
/// skipped.
pub fn parasitic_signature(nl: &Netlist, anchor_terminals: bool) -> Vec<ParasiticEntry> {
    let mut keys: Vec<Vec<String>> = vec![Vec::new(); nl.net_count()];
    for (id, net) in nl.nets() {
        for name in &net.names {
            keys[id.0 as usize].push(format!("N:{name}"));
        }
    }
    for d in nl.devices() {
        keys[d.gate.0 as usize].push(format!("G@({}, {})", d.location.x, d.location.y));
        if anchor_terminals {
            for t in [d.source, d.drain] {
                keys[t.0 as usize].push(format!("T@({}, {})", d.location.x, d.location.y));
            }
        }
    }
    let mut out: Vec<ParasiticEntry> = nl
        .nets()
        .map(|(id, net)| {
            let k = &mut keys[id.0 as usize];
            k.sort();
            (k.join(" "), net.parasitics)
        })
        .filter(|(key, _)| !key.is_empty())
        .collect();
    out.sort();
    out
}

fn parasitic_diff(expect: &[ParasiticEntry], got: &[ParasiticEntry]) -> String {
    let mut out = format!(
        "parasitic totals differ: {} vs {} nets from the reference\n",
        got.len(),
        expect.len()
    );
    for e in expect.iter().filter(|e| !got.contains(e)).take(6) {
        out.push_str(&format!("  reference has [{}] {:?}\n", e.0, e.1));
    }
    for e in got.iter().filter(|e| !expect.contains(e)).take(6) {
        out.push_str(&format!("  backend has   [{}] {:?}\n", e.0, e.1));
    }
    out
}

/// Union area and perimeter of a rectangle set, by coordinate
/// compression: a cell is covered iff any rect contains it, area sums
/// covered cells, and perimeter sums covered cells' edges minus every
/// edge two covered cells share (counted once from each side).
pub fn union_metrics(rects: &[Rect]) -> (i64, i64) {
    let grid = Grid::new(&[rects], &[], &[]);
    let mut area = 0i64;
    let mut perim = 0i64;
    for (i, j) in grid.cells().filter(|&(i, j)| grid.covered(0, i, j)) {
        let cell = grid.cell_rect(i, j);
        let (w, h) = (cell.width(), cell.height());
        area += w * h;
        perim += 2 * (w + h);
        if grid.covered(0, i + 1, j) {
            perim -= 2 * h;
        }
        if grid.covered(0, i, j + 1) {
            perim -= 2 * w;
        }
    }
    (area, perim)
}

/// Area of `(∪ a) ∩ (∪ b)` by the same compressed-grid coloring.
pub fn intersection_area(a: &[Rect], b: &[Rect]) -> i64 {
    let grid = Grid::new(&[a, b], &[], &[]);
    grid.area(|i, j| grid.covered(0, i, j) && grid.covered(1, i, j))
}

/// Recomputes one net's parasitics from its recorded geometry (and
/// the layout's cut boxes) with the brute-force union algorithms.
fn brute_force_net(geometry: &[(Layer, Rect)], cuts: &[Rect]) -> NetParasitics {
    let mut p = NetParasitics::default();
    let mut conducting: Vec<Rect> = Vec::new();
    for layer in Layer::CONDUCTING {
        let rects: Vec<Rect> = geometry
            .iter()
            .filter(|&&(l, _)| l == layer)
            .map(|&(_, r)| r)
            .collect();
        let (area, perim) = union_metrics(&rects);
        let slot = conducting_slot(layer).expect("CONDUCTING layers have slots");
        p.area[slot] = area;
        p.perimeter[slot] = perim;
        conducting.extend(rects);
    }
    p.add_cut_area(intersection_area(&conducting, cuts));
    p
}

/// Extracts `lib` with the reference backend (geometry recording on)
/// and checks every net's accumulated totals against the brute-force
/// recomputation. Returns a human-readable report of the first few
/// mismatches, or `None` when the accumulator is exact.
///
/// # Errors
///
/// Propagates reference extraction failures.
pub fn oracle_check(lib: &Library) -> Result<Option<String>, ExtractError> {
    let mut extraction = extract_library(lib, "oracle", ExtractOptions::new().with_geometry())?;
    extraction.netlist.prune_floating_nets();
    let layout = FlatLayout::from_library(lib);
    let cuts: Vec<Rect> = layout
        .boxes()
        .iter()
        .filter(|b| b.layer == Layer::Cut)
        .map(|b| b.rect)
        .collect();
    let mut mismatches = Vec::new();
    for (id, net) in extraction.netlist.nets() {
        let expect = brute_force_net(&net.geometry, &cuts);
        if expect != net.parasitics {
            mismatches.push(format!(
                "  net {id} {:?}: sweep {:?} != oracle {:?}",
                net.names, net.parasitics, expect
            ));
        }
    }
    if mismatches.is_empty() {
        return Ok(None);
    }
    let mut out = format!(
        "sweep parasitic accumulator diverges from the brute-force oracle on {} nets\n",
        mismatches.len()
    );
    for m in mismatches.iter().take(6) {
        out.push_str(m);
        out.push('\n');
    }
    Ok(Some(out))
}

/// [`crate::check_agreement`] plus parasitic agreement: the reference
/// extraction is validated against the brute-force oracle, then every
/// backend must agree on the circuit and on the parasitic signature.
///
/// # Errors
///
/// Propagates reference-backend extraction failures; a non-reference
/// backend erroring is a divergence.
pub fn check_agreement_with_parasitics(
    lib: &Library,
    backends: &[BackendId],
) -> Result<Option<Divergence>, ExtractError> {
    if let Some(detail) = oracle_check(lib)? {
        return Ok(Some(Divergence {
            backend: backends[0],
            bands: 1,
            reference: backends[0],
            detail,
        }));
    }
    let reference = extract_pruned(backends[0], lib, 1)?;
    let strict = reference.report.multi_terminal_devices == 0;
    let expect = parasitic_signature(&reference.netlist, strict);
    Ok(first_divergence(lib, backends, |other| {
        compare_one(&reference, &other.netlist, strict).or_else(|| {
            let got = parasitic_signature(&other.netlist, strict);
            (got != expect).then(|| parasitic_diff(&expect, &got))
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_workloads::cells;

    #[test]
    fn union_metrics_handles_overlap_and_abutment() {
        // Two overlapping squares: union is an L-shaped octomino.
        let (area, perim) = union_metrics(&[Rect::new(0, 0, 2, 2), Rect::new(1, 1, 3, 3)]);
        assert_eq!(area, 7);
        assert_eq!(perim, 12);
        // Abutting pair: one 2×1 region.
        let (area, perim) = union_metrics(&[Rect::new(0, 0, 1, 1), Rect::new(1, 0, 2, 1)]);
        assert_eq!(area, 2);
        assert_eq!(perim, 6);
        // Identical duplicates collapse.
        let (area, perim) = union_metrics(&[Rect::new(0, 0, 4, 4), Rect::new(0, 0, 4, 4)]);
        assert_eq!(area, 16);
        assert_eq!(perim, 16);
        assert_eq!(union_metrics(&[]), (0, 0));
    }

    #[test]
    fn intersection_area_is_exact() {
        let a = [Rect::new(0, 0, 10, 10)];
        let b = [Rect::new(5, 5, 15, 15), Rect::new(8, 0, 12, 4)];
        assert_eq!(intersection_area(&a, &b), 25 + 8);
        assert_eq!(intersection_area(&a, &[]), 0);
    }

    #[test]
    fn oracle_accepts_the_inverter() {
        let lib = Library::from_cif_text(&cells::inverter_cif()).unwrap();
        assert_eq!(oracle_check(&lib).unwrap(), None);
    }

    #[test]
    fn backends_agree_on_inverter_parasitics() {
        let lib = Library::from_cif_text(&cells::inverter_cif()).unwrap();
        let outcome = check_agreement_with_parasitics(&lib, &BackendId::ALL).unwrap();
        assert!(outcome.is_none(), "{}", outcome.unwrap());
    }

    #[test]
    fn multi_terminal_tie_breaks_do_not_diverge() {
        // A channel whose equal terminal edges the backends assign to
        // source and drain differently (shrunk from seed 1983 case 182).
        let lib = Library::from_cif_text(
            "L ND; B 1000 750 3250 875; L NP; B 250 250 2875 1375;
             L ND; B 1000 750 2500 1125; B 500 500 1750 750;
             L NP; B 5000 500 2500 1000; L ND; B 500 1250 1250 625; E",
        )
        .unwrap();
        let outcome = check_agreement_with_parasitics(&lib, &BackendId::ALL).unwrap();
        assert!(outcome.is_none(), "{}", outcome.unwrap());
    }

    #[test]
    fn a_forged_parasitic_difference_reads_well() {
        let expect = vec![("N:OUT".to_string(), NetParasitics::default())];
        let detail = parasitic_diff(&expect, &[]);
        assert!(detail.contains("reference has [N:OUT]"), "{detail}");
    }
}
