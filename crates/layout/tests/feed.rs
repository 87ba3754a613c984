//! The lazy feed must hand the back-end exactly what the eager feed
//! does, stop by stop: the same sequence of tops and, at each top, the
//! same multiset of boxes (order within a stop is free).
//!
//! Hierarchies are random DAGs of cells called through random CIF
//! transform lists (`T`, `M X`, `M Y`, `R`), so every one of the eight
//! orientations appears, nested. Coordinates sit on a coarse grid so
//! boxes in different cells and placements share tops, the top cell
//! places one cell many times, and cells may be empty or hold
//! instances only.

use ace_layout::{EagerFeed, GeometryFeed, LayerBox, LazyFeed, Library};
use proptest::prelude::*;

/// One box in grid units: layer index, lower-left corner, size.
type BoxSpec = (usize, i64, i64, i64, i64);

/// One symbol call: raw child pick, transform list, translation.
type CallSpec = (usize, Vec<u8>, i64, i64);

#[derive(Debug, Clone)]
struct CellSpec {
    boxes: Vec<BoxSpec>,
    calls: Vec<CallSpec>,
}

const GRID: i64 = 10;
const LAYERS: [&str; 4] = ["ND", "NP", "NM", "NC"];

fn box_spec() -> impl Strategy<Value = BoxSpec> {
    (0..LAYERS.len(), -4i64..8, -4i64..8, 1i64..4, 1i64..4)
}

fn call_spec() -> impl Strategy<Value = CallSpec> {
    (
        any::<usize>(),
        prop::collection::vec(0u8..5, 0..4),
        -20i64..20,
        -20i64..20,
    )
}

fn cell_spec() -> impl Strategy<Value = CellSpec> {
    // Empty box lists give instance-only cells, and empty cells when
    // the call list is empty too.
    (
        prop::collection::vec(box_spec(), 0..6),
        prop::collection::vec(call_spec(), 0..4),
    )
        .prop_map(|(boxes, calls)| CellSpec { boxes, calls })
}

fn write_box(cif: &mut String, &(layer, x, y, w, h): &BoxSpec) {
    // `B length width cx cy` with even sizes keeps every edge on the
    // grid.
    cif.push_str(&format!(
        "L {}; B {} {} {} {}; ",
        LAYERS[layer],
        2 * w * GRID,
        2 * h * GRID,
        (2 * x + 2 * w) * GRID,
        (2 * y + 2 * h) * GRID,
    ));
}

fn write_call(cif: &mut String, symbol: usize, ops: &[u8], tx: i64, ty: i64) {
    cif.push_str(&format!("C {symbol}"));
    for op in ops {
        cif.push_str(match op {
            0 => " M X",
            1 => " M Y",
            2 => " R 0 1",
            3 => " R -1 0",
            _ => " R 0 -1",
        });
    }
    cif.push_str(&format!(" T {} {}; ", tx * GRID, ty * GRID));
}

/// CIF text for `cells` (symbol `i + 1` may call only symbols `≤ i`),
/// a top level with its own boxes and calls, and `repeats` placements
/// of the last symbol in a row.
fn hierarchy_cif(cells: &[CellSpec], top: &CellSpec, repeats: usize) -> String {
    let mut cif = String::new();
    for (i, cell) in cells.iter().enumerate() {
        cif.push_str(&format!("DS {}; ", i + 1));
        for b in &cell.boxes {
            write_box(&mut cif, b);
        }
        if i > 0 {
            for (pick, ops, tx, ty) in &cell.calls {
                write_call(&mut cif, pick % i + 1, ops, *tx, *ty);
            }
        }
        cif.push_str("DF; ");
    }
    for b in &top.boxes {
        write_box(&mut cif, b);
    }
    for (pick, ops, tx, ty) in &top.calls {
        write_call(&mut cif, pick % cells.len() + 1, ops, *tx, *ty);
    }
    for k in 0..repeats {
        let ops = [(k % 5) as u8];
        write_call(&mut cif, cells.len(), &ops, 12 * k as i64, (k % 3) as i64);
    }
    cif.push('E');
    cif
}

fn sorted(mut boxes: Vec<LayerBox>) -> Vec<LayerBox> {
    boxes.sort();
    boxes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lazy_feed_matches_eager_feed_stop_by_stop(
        cells in prop::collection::vec(cell_spec(), 1..6),
        top in cell_spec(),
        repeats in 0usize..12,
    ) {
        let cif = hierarchy_cif(&cells, &top, repeats);
        let lib = Library::from_cif_text(&cif).expect("generated CIF builds");
        let mut lazy = LazyFeed::new(&lib);
        let mut eager = EagerFeed::new(&lib);
        loop {
            let y = lazy.peek_top();
            prop_assert_eq!(y, eager.peek_top(), "next top differs\n{}", cif);
            let Some(y) = y else { break };
            let (mut a, mut b) = (Vec::new(), Vec::new());
            lazy.pop_at(y, &mut a);
            eager.pop_at(y, &mut b);
            prop_assert!(!a.is_empty(), "lazy stop at {} emitted nothing", y);
            prop_assert_eq!(sorted(a), sorted(b), "boxes at top {} differ\n{}", y, cif);
        }
        let n = lib.instantiated_box_count();
        prop_assert_eq!(lazy.stats().boxes_emitted, n);
        prop_assert_eq!(eager.stats().boxes_emitted, n);
    }
}
