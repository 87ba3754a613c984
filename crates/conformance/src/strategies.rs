//! Random-layout strategies for the differential fuzzer.
//!
//! A [`LayoutStrategy`] is a *fully materialized* plan: sampling
//! draws every parameter (including per-strategy sub-seeds) up
//! front, so `generate()` is a pure function of the strategy value
//! and a case is reproducible from `(seed, index)` alone.
//!
//! The base strategies cover the repository's workload families —
//! λ-aligned box soups, Bentley–Haken–Hon random squares (λ-aligned
//! variant), worst-case mesh fragments, perturbed hand-designed leaf
//! cells, hierarchical CIF with rotated/mirrored symbol calls, and
//! gated diffusion rings — and two combinators compose them:
//! [`LayoutStrategy::Overlay`] superimposes two layouts,
//! [`LayoutStrategy::Labeled`] decorates one with CIF `94` net labels
//! at backend-safe sites.

use ace_cif::CifWriter;
use ace_geom::{Layer, Point, Rect, Transform, LAMBDA};
use ace_layout::{FlatLayout, Library};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use ace_workloads::bhh::{bhh_cif, BhhParams};
use ace_workloads::cells::{write_inverter_cell, write_nand_cell, write_ram_cell};
use ace_workloads::mesh::mesh_cif;
use ace_workloads::soup::{
    boxes_to_cif, label_sites, overlay_flat_cif, soup_boxes, with_labels, SoupParams,
};

/// Signal names used by the labeling combinator.
const LABEL_POOL: [&str; 6] = ["VDD", "GND", "phi1", "phi2", "out", "in"];

/// A hand-designed leaf cell the perturbation strategy starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafCell {
    /// The Figure 3-3 inverter (10 boxes, 2 devices).
    Inverter,
    /// A row of chained inverters.
    InverterChain(u32),
    /// The one-transistor RAM cell.
    Ram,
    /// The two-input NAND cell.
    Nand,
}

impl LeafCell {
    /// The cell as unlabeled CIF (labels are added, if at all, by the
    /// [`LayoutStrategy::Labeled`] combinator *after* perturbation —
    /// perturbing geometry under a fixed label can legitimately
    /// change what the label resolves to).
    pub fn cif(self) -> String {
        let mut w = CifWriter::new();
        match self {
            LeafCell::Inverter => {
                write_inverter_cell(&mut w, false);
            }
            LeafCell::InverterChain(n) => {
                w.begin_symbol(1);
                write_inverter_cell(&mut w, true);
                w.end_symbol();
                for i in 0..n.max(1) {
                    w.call(1, i as i64 * ace_workloads::cells::INVERTER_PITCH.0, 0);
                }
            }
            LeafCell::Ram => {
                write_ram_cell(&mut w);
            }
            LeafCell::Nand => {
                write_nand_cell(&mut w);
            }
        }
        w.finish()
    }

    fn name(self) -> &'static str {
        match self {
            LeafCell::Inverter => "inverter",
            LeafCell::InverterChain(_) => "inverter-chain",
            LeafCell::Ram => "ram",
            LeafCell::Nand => "nand",
        }
    }
}

/// Parameters of the hierarchical-CIF strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierParams {
    /// Number of distinct symbols (1–3).
    pub symbols: u32,
    /// Number of symbol calls (placements on a coarse grid).
    pub placements: u32,
    /// Whether symbol 2 nests a call to symbol 1.
    pub nested: bool,
    /// Whether symbols placed exactly once carry an internal metal
    /// `94` label (exercising label transformation).
    pub internal_labels: bool,
    /// Sub-seed for symbol contents and call transforms.
    pub seed: u64,
}

/// One composable layout-generation strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutStrategy {
    /// λ-aligned random box soup over all six layers.
    Soup(SoupParams),
    /// BHH random squares, λ-aligned variant (8λ edges so the raster
    /// grid samples them exactly).
    BhhAligned {
        /// Square count (the model's N).
        boxes: u64,
        /// Sub-seed.
        seed: u64,
    },
    /// A random subset of the worst-case N×N poly/diffusion mesh.
    MeshFragment {
        /// Mesh side.
        n: u32,
        /// Percent of boxes kept (the rest are dropped).
        keep_percent: u32,
        /// Sub-seed for the subset choice.
        seed: u64,
    },
    /// A hand-designed leaf cell with random λ-aligned edits applied
    /// (move / delete / duplicate a box).
    PerturbedLeaf {
        /// The starting cell.
        cell: LeafCell,
        /// Number of edits.
        steps: u32,
        /// Sub-seed for the edit sequence.
        seed: u64,
    },
    /// Hierarchical CIF: symbols of random content placed with
    /// rotation/mirror transforms, optionally nested, optionally with
    /// symbol-internal `94` labels.
    Hierarchical(HierParams),
    /// A diffusion ring with a poly gate across one side, optionally
    /// implanted. Both sides of the channel are one net around the
    /// loop, so it is a capacitor; a band seam through the loop parts
    /// the sides within each band.
    LoopedDiffusion {
        /// Sub-seed for the λ sizes, gate position, implant and turn.
        seed: u64,
    },
    /// Superimpose two strategies' layouts at a λ-aligned offset.
    Overlay(Box<LayoutStrategy>, Box<LayoutStrategy>, Point),
    /// Decorate a strategy's layout with up to the given number of
    /// CIF `94` labels at backend-safe sites.
    Labeled(Box<LayoutStrategy>, u32),
}

impl LayoutStrategy {
    /// Short family name for reporting (`soup`, `overlay(soup+mesh)`,
    /// …).
    pub fn name(&self) -> String {
        match self {
            LayoutStrategy::Soup(_) => "soup".into(),
            LayoutStrategy::BhhAligned { .. } => "bhh".into(),
            LayoutStrategy::MeshFragment { .. } => "mesh".into(),
            LayoutStrategy::PerturbedLeaf { cell, .. } => format!("leaf-{}", cell.name()),
            LayoutStrategy::Hierarchical(_) => "hier".into(),
            LayoutStrategy::LoopedDiffusion { .. } => "looped-diffusion".into(),
            LayoutStrategy::Overlay(a, b, _) => format!("overlay({}+{})", a.name(), b.name()),
            LayoutStrategy::Labeled(inner, _) => format!("labeled({})", inner.name()),
        }
    }

    /// Draws a random strategy (with all parameters fixed) from the
    /// default mix.
    pub fn sample(rng: &mut dyn RngCore) -> LayoutStrategy {
        // Weighted pick over the eight families.
        match rng.gen_range(0..20u32) {
            0..=3 => Self::sample_soup(rng),
            4..=5 => Self::sample_bhh(rng),
            6..=7 => Self::sample_mesh(rng),
            8..=9 => Self::sample_leaf(rng),
            10..=12 => Self::sample_hier(rng),
            13..=14 => LayoutStrategy::LoopedDiffusion {
                seed: rng.next_u64(),
            },
            15..=16 => {
                let a = Self::sample_base(rng);
                let b = Self::sample_base(rng);
                let dx = rng.gen_range(-16i64..17) * LAMBDA;
                let dy = rng.gen_range(-16i64..17) * LAMBDA;
                LayoutStrategy::Overlay(Box::new(a), Box::new(b), Point::new(dx, dy))
            }
            _ => {
                let inner = match rng.gen_range(0..4u32) {
                    0 => Self::sample_soup(rng),
                    1 => Self::sample_bhh(rng),
                    2 => Self::sample_mesh(rng),
                    _ => {
                        let a = Self::sample_soup(rng);
                        let b = Self::sample_soup(rng);
                        let dx = rng.gen_range(-12i64..13) * LAMBDA;
                        let dy = rng.gen_range(-12i64..13) * LAMBDA;
                        LayoutStrategy::Overlay(Box::new(a), Box::new(b), Point::new(dx, dy))
                    }
                };
                let labels = rng.gen_range(1..5u32);
                LayoutStrategy::Labeled(Box::new(inner), labels)
            }
        }
    }

    fn sample_base(rng: &mut dyn RngCore) -> LayoutStrategy {
        match rng.gen_range(0..3u32) {
            0 => Self::sample_soup(rng),
            1 => Self::sample_mesh(rng),
            _ => Self::sample_leaf(rng),
        }
    }

    fn sample_soup(rng: &mut dyn RngCore) -> LayoutStrategy {
        let boxes = rng.gen_range(1..40u32);
        let region = rng.gen_range(12..32u32);
        let max_extent = rng.gen_range(2..9u32);
        LayoutStrategy::Soup(
            SoupParams::new(boxes, rng.next_u64())
                .with_region(region)
                .with_max_extent(max_extent),
        )
    }

    fn sample_bhh(rng: &mut dyn RngCore) -> LayoutStrategy {
        LayoutStrategy::BhhAligned {
            boxes: rng.gen_range(8..64u64),
            seed: rng.next_u64(),
        }
    }

    fn sample_mesh(rng: &mut dyn RngCore) -> LayoutStrategy {
        LayoutStrategy::MeshFragment {
            n: rng.gen_range(2..6u32),
            keep_percent: rng.gen_range(40..101u32),
            seed: rng.next_u64(),
        }
    }

    fn sample_leaf(rng: &mut dyn RngCore) -> LayoutStrategy {
        let cell = match rng.gen_range(0..4u32) {
            0 => LeafCell::Inverter,
            1 => LeafCell::InverterChain(rng.gen_range(2..5u32)),
            2 => LeafCell::Ram,
            _ => LeafCell::Nand,
        };
        LayoutStrategy::PerturbedLeaf {
            cell,
            steps: rng.gen_range(1..6u32),
            seed: rng.next_u64(),
        }
    }

    fn sample_hier(rng: &mut dyn RngCore) -> LayoutStrategy {
        LayoutStrategy::Hierarchical(HierParams {
            symbols: rng.gen_range(1..4u32),
            placements: rng.gen_range(2..9u32),
            nested: rng.gen_range(0..2u32) == 1,
            internal_labels: rng.gen_range(0..2u32) == 1,
            seed: rng.next_u64(),
        })
    }

    /// Generates the strategy's layout as CIF text.
    pub fn generate(&self) -> String {
        match self {
            LayoutStrategy::Soup(params) => boxes_to_cif(&soup_boxes(params)),
            LayoutStrategy::BhhAligned { boxes, seed } => bhh_cif(&BhhParams {
                boxes: (*boxes).max(1),
                edge: 8 * LAMBDA, // λ-aligned stand-in for the 7.6λ square
                side_factor: 9.8,
                seed: *seed,
            }),
            LayoutStrategy::MeshFragment {
                n,
                keep_percent,
                seed,
            } => {
                let full = flatten(&mesh_cif(*n));
                let mut rng = ChaCha8Rng::seed_from_u64(*seed);
                let kept: Vec<(Layer, Rect)> = full
                    .boxes()
                    .iter()
                    .filter(|_| rng.gen_range(0..100u32) < *keep_percent)
                    .map(|b| (b.layer, b.rect))
                    .collect();
                if kept.is_empty() {
                    // Degenerate subsets regrow one box so the layout
                    // parses into a non-empty library.
                    boxes_to_cif(&[(Layer::Diffusion, Rect::new(0, 0, LAMBDA, LAMBDA))])
                } else {
                    boxes_to_cif(&kept)
                }
            }
            LayoutStrategy::PerturbedLeaf { cell, steps, seed } => {
                let flat = flatten(&cell.cif());
                let mut boxes: Vec<(Layer, Rect)> =
                    flat.boxes().iter().map(|b| (b.layer, b.rect)).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(*seed);
                for _ in 0..*steps {
                    perturb(&mut boxes, &mut rng);
                }
                boxes_to_cif(&boxes)
            }
            LayoutStrategy::Hierarchical(params) => hierarchical_cif(params),
            LayoutStrategy::LoopedDiffusion { seed } => looped_cif(*seed),
            LayoutStrategy::Overlay(a, b, offset) => {
                overlay_flat_cif(&a.generate(), &b.generate(), *offset)
                    .expect("strategy output parses")
            }
            LayoutStrategy::Labeled(inner, count) => {
                let cif = inner.generate();
                let flat = flatten(&cif);
                let sites = label_sites(&flat, *count as usize);
                let labels: Vec<(String, Point, Layer)> = sites
                    .into_iter()
                    .enumerate()
                    .map(|(i, (at, layer))| {
                        (LABEL_POOL[i % LABEL_POOL.len()].to_string(), at, layer)
                    })
                    .collect();
                with_labels(&cif, &labels)
            }
        }
    }
}

fn flatten(cif: &str) -> FlatLayout {
    FlatLayout::from_library(&Library::from_cif_text(cif).expect("strategy output parses"))
}

/// One random λ-aligned edit: move, delete, or duplicate a box.
fn perturb(boxes: &mut Vec<(Layer, Rect)>, rng: &mut ChaCha8Rng) {
    if boxes.is_empty() {
        return;
    }
    let idx = rng.gen_range(0..boxes.len());
    let delta = Point::new(
        rng.gen_range(-3i64..4) * LAMBDA,
        rng.gen_range(-3i64..4) * LAMBDA,
    );
    match rng.gen_range(0..3u32) {
        0 => boxes[idx].1 = boxes[idx].1.translate(delta),
        1 if boxes.len() > 2 => {
            boxes.remove(idx);
        }
        _ => {
            let copy = (boxes[idx].0, boxes[idx].1.translate(delta));
            boxes.push(copy);
        }
    }
}

/// [`LayoutStrategy::LoopedDiffusion`]: the ring is drawn with its
/// gate across the bottom side, clear of the corners, then turned.
fn looped_cif(seed: u64) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let t = rng.gen_range(1..3i64);
    let gate = rng.gen_range(1..5i64);
    let overhang = rng.gen_range(0..3i64);
    let w = 2 * t + gate + rng.gen_range(2..12i64);
    let h = 2 * t + overhang + rng.gen_range(1..12i64);
    let x = rng.gen_range(t + 1..w - t - gate);
    let mut boxes = vec![
        (Layer::Diffusion, [0, 0, w, t]),
        (Layer::Diffusion, [0, h - t, w, h]),
        (Layer::Diffusion, [0, 0, t, h]),
        (Layer::Diffusion, [w - t, 0, w, h]),
        (Layer::Poly, [x, -overhang, x + gate, t + overhang]),
    ];
    if rng.gen_range(0..2u32) == 1 {
        boxes.push((Layer::Implant, [x - 1, -1, x + gate + 1, t + 1]));
    }
    let turn = Transform::identity().rotate_quarter_turns(rng.gen_range(0..4u32) as u8);
    let boxes: Vec<(Layer, Rect)> = boxes
        .into_iter()
        .map(|(layer, [x0, y0, x1, y1])| {
            let r = Rect::new(x0 * LAMBDA, y0 * LAMBDA, x1 * LAMBDA, y1 * LAMBDA);
            (layer, turn.apply_rect(&r))
        })
        .collect();
    boxes_to_cif(&boxes)
}

/// Grid pitch for hierarchical placements: far enough apart that no
/// two placed symbols (content radius ≤ ~12λ after any orientation)
/// can touch, which keeps per-symbol label sites globally safe.
const HIER_PITCH: i64 = 28 * LAMBDA;

fn hierarchical_cif(params: &HierParams) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    let nsym = params.symbols.clamp(1, 3);

    // Symbol contents: conducting-heavy mini-soups in [0, 6λ]²-ish.
    let symbol_boxes: Vec<Vec<(Layer, Rect)>> = (0..nsym)
        .map(|_| {
            soup_boxes(&SoupParams {
                boxes: rng.gen_range(2..7u32),
                region: 6,
                max_extent: 4,
                weights: [30, 30, 25, 5, 5, 5],
                seed: rng.next_u64(),
            })
        })
        .collect();

    // Placements on a coarse grid (distinct cells, so instance
    // geometry never collides), random orientation per call.
    let mut cells: Vec<(i64, i64)> = (0..4)
        .flat_map(|gx| (0..4).map(move |gy| (gx, gy)))
        .collect();
    let mut calls: Vec<(u32, Transform)> = Vec::new();
    for _ in 0..params.placements.clamp(1, 8) {
        if cells.is_empty() {
            break;
        }
        let cell = cells.remove(rng.gen_range(0..cells.len()));
        let sym = rng.gen_range(1..nsym + 1);
        let mut t = Transform::identity();
        if rng.gen_range(0..2u32) == 1 {
            t = t.mirror_x();
        }
        t = t.rotate_quarter_turns(rng.gen_range(0..4u32) as u8);
        t = t.translate(Point::new(cell.0 * HIER_PITCH, cell.1 * HIER_PITCH));
        calls.push((sym, t));
    }

    let mut w = CifWriter::new();
    for (s, boxes) in symbol_boxes.iter().enumerate() {
        let id = s as u32 + 1;
        w.begin_symbol(id);
        let mut metal: Option<Rect> = None;
        for &(layer, rect) in boxes {
            w.rect_on(layer, rect);
            if layer == Layer::Metal && metal.is_none() {
                metal = Some(rect);
            }
        }
        if params.nested && id == 2 {
            w.call(1, 2 * LAMBDA, 2 * LAMBDA);
        }
        // Symbol-internal labels: only for symbols placed exactly
        // once at top level (the same name stamped from two
        // placements would bind one name to two nets, which the
        // comparator rightly rejects — and the nested call of symbol
        // 1 inside symbol 2 counts as an extra stamping), and only on
        // metal (metal can never become a transistor channel, so the
        // site stays resolvable whatever else the symbol contains).
        let stampings = calls.iter().filter(|&&(sym, _)| sym == id).count()
            + usize::from(params.nested && id == 1 && calls.iter().any(|&(sym, _)| sym == 2));
        if params.internal_labels && stampings == 1 {
            if let Some(r) = metal.filter(|r| r.width() >= LAMBDA && r.height() >= LAMBDA) {
                w.label(
                    &format!("s{id}m"),
                    Point::new(r.x_min + LAMBDA / 2, r.y_min + LAMBDA / 2),
                    Some(Layer::Metal),
                );
            }
        }
        w.end_symbol();
    }
    for (sym, t) in &calls {
        w.call_transformed(*sym, t);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_and_generation_are_deterministic() {
        let draw = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let s = LayoutStrategy::sample(&mut rng);
            (s.name(), s.generate())
        };
        assert_eq!(draw(42), draw(42));
        // Different seeds explore different strategies/geometry.
        let mut names = std::collections::BTreeSet::new();
        for seed in 0..40 {
            names.insert(draw(seed).0);
        }
        assert!(names.len() >= 4, "mix too narrow: {names:?}");
    }

    #[test]
    fn every_family_generates_valid_cif() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..60 {
            let s = LayoutStrategy::sample(&mut rng);
            let cif = s.generate();
            let lib =
                Library::from_cif_text(&cif).unwrap_or_else(|e| panic!("{}: {e}\n{cif}", s.name()));
            assert!(lib.instantiated_box_count() > 0, "{}", s.name());
        }
    }

    #[test]
    fn looped_diffusion_is_one_capacitor() {
        for seed in 0..16 {
            let lib = Library::from_cif_text(&looped_cif(seed)).unwrap();
            let e = ace_core::extract_library(&lib, "loop", ace_core::ExtractOptions::new());
            let kinds: Vec<_> = e
                .unwrap()
                .netlist
                .devices()
                .iter()
                .map(|d| d.kind)
                .collect();
            assert_eq!(kinds, [ace_wirelist::DeviceKind::Capacitor], "seed {seed}");
        }
    }

    #[test]
    fn generated_layouts_are_lambda_aligned() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..40 {
            let s = LayoutStrategy::sample(&mut rng);
            let flat = flatten(&s.generate());
            for b in flat.boxes() {
                for c in [b.rect.x_min, b.rect.y_min, b.rect.x_max, b.rect.y_max] {
                    assert_eq!(c % LAMBDA, 0, "{}: {} not λ-aligned", s.name(), b.rect);
                }
            }
        }
    }
}
