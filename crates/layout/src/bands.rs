//! Horizontal band partitioning for parallel extraction.
//!
//! The scanline sweep is inherently sequential, but a flat layout can
//! be cut into K horizontal bands that are swept concurrently and then
//! stitched back together along the seams (the HEXT idea applied to
//! bands instead of cells). This module does the geometric half of
//! that: picking seam lines and clipping the layout into per-band
//! [`FlatLayout`]s.
//!
//! Cut lines are always chosen from the multiset of existing box
//! edges. That keeps the banded strip structure identical to the flat
//! sweep's (the flat scanline already stops at every box edge), so a
//! band extraction sees exactly the strips the flat extraction saw —
//! which is what makes the stitched result canonically equal.

use ace_geom::{Coord, Rect};

use crate::flatten::{FlatLabel, FlatLayout};

/// The output of [`partition_bands`]: one clipped layout per band,
/// bottom to top, plus the labels that sit exactly on a seam.
#[derive(Debug, Clone, Default)]
pub struct BandPartition {
    /// The interior seam lines, ascending. `bands.len() == cuts.len() + 1`.
    pub cuts: Vec<Coord>,
    /// Clipped per-band layouts, ordered bottom to top: band `i` spans
    /// `[lo_i, cuts[i]]` where `lo_0` is the chip bottom and the last
    /// band ends at the chip top.
    pub bands: Vec<FlatLayout>,
    /// Labels whose y coordinate falls exactly on an interior cut.
    /// Both adjacent bands could claim them, so the stitcher resolves
    /// them against the seam's boundary contacts instead (mirroring
    /// the flat sweep, which tries the strip above first).
    pub seam_labels: Vec<FlatLabel>,
}

/// Picks up to `bands - 1` interior seam lines for a layout.
///
/// Seams sit at quantiles of the sorted box-edge multiset, so dense
/// regions get proportionally narrower bands (the sweep's work is
/// driven by edge count, not by area). Degenerate layouts — fewer
/// distinct interior edges than requested seams — yield fewer cuts,
/// possibly none.
///
/// # Examples
///
/// ```
/// use ace_geom::{Layer, Rect};
/// use ace_layout::{band_cuts, FlatLayout};
///
/// let mut flat = FlatLayout::new();
/// for i in 0..8 {
///     flat.push_box(Layer::Metal, Rect::new(0, i * 100, 50, i * 100 + 100));
/// }
/// let cuts = band_cuts(&flat, 4);
/// assert_eq!(cuts, vec![200, 400, 600]);
/// ```
pub fn band_cuts(flat: &FlatLayout, bands: usize) -> Vec<Coord> {
    let Some(bb) = flat.bounding_box() else {
        return Vec::new();
    };
    if bands <= 1 {
        return Vec::new();
    }
    let mut edges: Vec<Coord> = flat
        .boxes()
        .iter()
        .flat_map(|b| [b.rect.y_min, b.rect.y_max])
        .collect();
    edges.sort_unstable();
    let mut cuts: Vec<Coord> = (1..bands)
        .map(|i| edges[(i * edges.len() / bands).min(edges.len() - 1)])
        .collect();
    cuts.dedup();
    cuts.retain(|&c| bb.y_min < c && c < bb.y_max);
    cuts
}

/// Clips a layout into horizontal bands along the given seam lines
/// (ascending, strictly inside the layout's y-extent).
///
/// A box spanning a seam is clipped into both bands, so each band's
/// window extraction reports it as a boundary contact on the seam
/// face; a box that merely *touches* a seam enters only the band it
/// has interior extent in. Labels go to the band that contains them;
/// labels exactly on a seam are set aside for the stitcher.
pub fn partition_bands(flat: &FlatLayout, cuts: &[Coord]) -> BandPartition {
    debug_assert!(cuts.windows(2).all(|w| w[0] < w[1]), "cuts must ascend");
    let band_count = cuts.len() + 1;
    let mut bands = vec![FlatLayout::new(); band_count];
    let mut seam_labels = Vec::new();

    for b in flat.boxes() {
        route_box(cuts, b.rect, |band, clipped| {
            bands[band].push_box(b.layer, clipped);
        });
    }

    for label in flat.labels() {
        match route_label(cuts, label.at.y) {
            None => seam_labels.push(label.clone()),
            Some(band) => bands[band].push_label(label.name.clone(), label.at, label.layer),
        }
    }

    BandPartition {
        cuts: cuts.to_vec(),
        bands,
        seam_labels,
    }
}

/// Calls `emit(band, clipped)` for every band slice of one box —
/// the exact per-box routing [`partition_bands`] applies, factored
/// out so incremental band maintenance clips edits identically. A
/// box spanning a seam emits into both neighbours; one merely
/// touching a seam emits only where it has interior extent.
pub fn route_box(cuts: &[Coord], rect: Rect, mut emit: impl FnMut(usize, Rect)) {
    // Bands [first..=last] have interior overlap with the box.
    let first = cuts.partition_point(|&c| c <= rect.y_min);
    let last = cuts.partition_point(|&c| c < rect.y_max);
    for band in first..=last {
        let lo = if band == 0 {
            rect.y_min
        } else {
            cuts[band - 1]
        };
        let hi = if band == cuts.len() {
            rect.y_max
        } else {
            cuts[band]
        };
        let mut clipped = rect;
        clipped.y_min = clipped.y_min.max(lo);
        clipped.y_max = clipped.y_max.min(hi);
        if clipped.y_min < clipped.y_max {
            emit(band, clipped);
        }
    }
}

/// The band a label at height `y` belongs to, or `None` when it sits
/// exactly on a seam (the stitcher's job to resolve) — again the
/// routing [`partition_bands`] applies, shared with incremental band
/// maintenance.
pub fn route_label(cuts: &[Coord], y: Coord) -> Option<usize> {
    if cuts.binary_search(&y).is_ok() {
        None
    } else {
        Some(cuts.partition_point(|&c| c < y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_geom::{Layer, Point, Rect};

    fn stack(n: i64) -> FlatLayout {
        let mut flat = FlatLayout::new();
        for i in 0..n {
            flat.push_box(Layer::Poly, Rect::new(0, i * 10, 5, i * 10 + 10));
        }
        flat
    }

    #[test]
    fn cuts_fall_on_edges_and_stay_interior() {
        let flat = stack(10);
        for k in 2..6 {
            let cuts = band_cuts(&flat, k);
            assert!(cuts.len() < k);
            for c in &cuts {
                assert!(c % 10 == 0, "cut {c} is not a box edge");
                assert!(0 < *c && *c < 100);
            }
            assert!(cuts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn no_cuts_for_empty_or_single_band() {
        assert!(band_cuts(&FlatLayout::new(), 4).is_empty());
        assert!(band_cuts(&stack(10), 1).is_empty());
        // One box has no interior edge to cut at.
        assert!(band_cuts(&stack(1), 4).is_empty());
    }

    #[test]
    fn straddling_boxes_are_clipped_into_both_bands() {
        let mut flat = FlatLayout::new();
        flat.push_box(Layer::Diffusion, Rect::new(0, 0, 10, 100));
        flat.push_box(Layer::Metal, Rect::new(20, 0, 30, 40));
        let p = partition_bands(&flat, &[40]);
        assert_eq!(p.bands.len(), 2);
        // The tall box splits at the seam...
        assert_eq!(p.bands[0].boxes()[0].rect, Rect::new(0, 0, 10, 40));
        assert_eq!(p.bands[1].boxes()[0].rect, Rect::new(0, 40, 10, 100));
        // ...the touching box enters only the lower band.
        assert_eq!(p.bands[0].boxes().len(), 2);
        assert_eq!(p.bands[1].boxes().len(), 1);
    }

    #[test]
    fn clipped_area_is_preserved_per_layer() {
        let flat = stack(12);
        let cuts = band_cuts(&flat, 5);
        let p = partition_bands(&flat, &cuts);
        let total: i64 = p
            .bands
            .iter()
            .flat_map(|b| b.boxes())
            .map(|b| b.rect.area())
            .sum();
        let original: i64 = flat.boxes().iter().map(|b| b.rect.area()).sum();
        assert_eq!(total, original);
    }

    #[test]
    fn labels_route_to_their_band_or_the_seam() {
        let mut flat = stack(10);
        flat.push_label("low", Point::new(1, 5), None);
        flat.push_label("seam", Point::new(1, 40), None);
        flat.push_label("high", Point::new(1, 95), Some(Layer::Poly));
        let p = partition_bands(&flat, &[40]);
        assert_eq!(p.bands[0].labels().len(), 1);
        assert_eq!(p.bands[0].labels()[0].name, "low");
        assert_eq!(p.bands[1].labels().len(), 1);
        assert_eq!(p.bands[1].labels()[0].name, "high");
        assert_eq!(p.seam_labels.len(), 1);
        assert_eq!(p.seam_labels[0].name, "seam");
    }
}
