//! Canonical-region geometry: connected components and the
//! morphological operators the rule checks are built from.
//!
//! Everything here consumes and produces *canonical covers* — the
//! maximal-strip decompositions of [`ace_geom::merge_boxes`],
//! [`ace_geom::subtract_boxes`], and [`ace_geom::intersect_boxes`] —
//! which depend only on the union point set. That is what makes the
//! checker decomposition-invariant: two fracturings of the same mask
//! reach identical covers before any rule looks at them.

use std::collections::BTreeMap;

use ace_geom::{merge_boxes, subtract_boxes, Coord, Interval, IntervalMap, Rect};

/// Per-cell component ids for a canonical cover: cell `i` belongs to
/// component `ids[i]`, and components are numbered in canonical order
/// (by their first cell in the cover's `(y_min, x_min)` order).
///
/// Connectivity matches the extractor's electrical semantics: two
/// cells connect when they overlap or share an edge of positive
/// length; touching at a single corner does *not* connect. Canonical
/// covers hold maximal x-spans per strip, so cells can only ever abut
/// vertically — the adjacency scan indexes each strip boundary's
/// starting cells in an [`IntervalMap`] and stabs it with the x-spans
/// of the cells ending there.
pub fn component_ids(cover: &[Rect]) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..cover.len()).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut walk = i;
        while parent[walk] != root {
            let next = parent[walk];
            parent[walk] = root;
            walk = next;
        }
        root
    }
    let mut starts: BTreeMap<Coord, IntervalMap<usize>> = BTreeMap::new();
    for (i, r) in cover.iter().enumerate() {
        starts
            .entry(r.y_min)
            .or_default()
            .insert(Interval::new(r.x_min, r.x_max), i);
    }
    for (i, r) in cover.iter().enumerate() {
        if let Some(below) = starts.get(&r.y_max) {
            for (_, &j) in below.overlapping(Interval::new(r.x_min, r.x_max)) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    // Union by canonical order: the lower cell index
                    // wins, so every root is its component's first cell.
                    parent[ri.max(rj)] = ri.min(rj);
                }
            }
        }
    }
    // A root precedes the rest of its component, so numbering roots as
    // they appear numbers components by first cell.
    let mut ids = vec![0; cover.len()];
    let mut next = 0;
    for i in 0..cover.len() {
        let root = find(&mut parent, i);
        if root == i {
            ids[i] = next;
            next += 1;
        } else {
            ids[i] = ids[root];
        }
    }
    ids
}

/// Groups a canonical cover's cells into connected components (see
/// [`component_ids`]), in canonical order, each as a sub-cover.
pub fn components(cover: &[Rect]) -> Vec<Vec<Rect>> {
    let ids = component_ids(cover);
    let mut groups: Vec<Vec<Rect>> = vec![Vec::new(); ids.iter().max().map_or(0, |&m| m + 1)];
    for (r, &id) in cover.iter().zip(&ids) {
        groups[id].push(*r);
    }
    groups
}

/// Smallest rectangle covering a non-empty cover.
pub fn hull(cover: &[Rect]) -> Rect {
    let first = cover.first().expect("hull of a non-empty cover");
    cover.iter().fold(*first, |acc, r| {
        Rect::new(
            acc.x_min.min(r.x_min),
            acc.y_min.min(r.y_min),
            acc.x_max.max(r.x_max),
            acc.y_max.max(r.y_max),
        )
    })
}

/// Total area of a disjoint cover.
pub fn cover_area(cover: &[Rect]) -> i64 {
    cover.iter().map(Rect::area).sum()
}

/// The morphological-opening deficiency of `cover` for a `w`×`w`
/// square: the canonical cover of every point that belongs to no
/// fully-contained `w`×`w` square — i.e. every point of a feature
/// narrower than `w`.
///
/// Computed by the complement trick on integer unit cells: erode the
/// region (anchors whose square misses the dilated complement), dilate
/// the anchors back into the opened region, and subtract from the
/// original. All three steps are canonical boolean ops, so the result
/// depends only on the region's point set.
pub fn narrow_region(cover: &[Rect], w: Coord) -> Vec<Rect> {
    if cover.is_empty() {
        return Vec::new();
    }
    let bbox = hull(cover);
    let frame = bbox.inflate(w);
    let complement = subtract_boxes(&[frame], cover);
    // Anchors p with [p, p+w)² touching the complement are blocked;
    // dilating the complement by the reflected square marks them all.
    let blocked: Vec<Rect> = complement
        .iter()
        .map(|r| Rect::new(r.x_min - w + 1, r.y_min - w + 1, r.x_max, r.y_max))
        .collect();
    let anchor_frame = Rect::new(
        frame.x_min,
        frame.y_min,
        frame.x_max - w + 1,
        frame.y_max - w + 1,
    );
    let eroded = subtract_boxes(&[anchor_frame], &blocked);
    let opened: Vec<Rect> = eroded
        .iter()
        .map(|r| Rect::new(r.x_min, r.y_min, r.x_max + w - 1, r.y_max + w - 1))
        .collect();
    subtract_boxes(cover, &opened)
}

/// Canonical cover of `cover` inflated by `m` on all sides (Chebyshev
/// dilation). Minkowski sums distribute over unions, so the result is
/// independent of the decomposition of the input.
pub fn inflate_cover(cover: &[Rect], m: Coord) -> Vec<Rect> {
    let inflated: Vec<Rect> = cover.iter().map(|r| r.inflate(m)).collect();
    merge_boxes(&inflated)
}

/// Canonical cover of the axis-aligned cross neighborhood: every
/// point within `g` of `cover` straight up, down, left, or right (but
/// not diagonally). This is the region a crossing's extensions must
/// cover — gate poly past the channel horizontally, diffusion past it
/// vertically, whichever way the transistor is turned.
pub fn axis_cross(cover: &[Rect], g: Coord) -> Vec<Rect> {
    let mut arms: Vec<Rect> = Vec::with_capacity(cover.len() * 2);
    for r in cover {
        arms.push(Rect::new(r.x_min, r.y_min - g, r.x_max, r.y_max + g));
        arms.push(Rect::new(r.x_min - g, r.y_min, r.x_max + g, r.y_max));
    }
    merge_boxes(&arms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_split_on_gaps_and_corners() {
        // Two islands plus a corner contact: three cells, the
        // corner-touching pair stays separate.
        let cover = merge_boxes(&[
            Rect::new(0, 0, 10, 10),
            Rect::new(10, 10, 20, 20), // corner contact with the first
            Rect::new(100, 0, 110, 10),
        ]);
        let comps = components(&cover);
        assert_eq!(comps.len(), 3);
        // An L built from two rects is one component.
        let l = merge_boxes(&[Rect::new(0, 0, 10, 30), Rect::new(0, 0, 30, 10)]);
        assert_eq!(components(&l).len(), 1);
        assert_eq!(component_ids(&l), vec![0; l.len()]);
    }

    #[test]
    fn component_order_is_canonical() {
        let cover = merge_boxes(&[
            Rect::new(50, 0, 60, 10),
            Rect::new(0, 5, 10, 15),
            Rect::new(0, 40, 60, 50),
        ]);
        let comps = components(&cover);
        assert_eq!(comps.len(), 3);
        // First component starts at the cover's first cell.
        assert_eq!(comps[0][0], cover[0]);
    }

    #[test]
    fn narrow_region_flags_thin_features_only() {
        // A w×w square is exactly wide enough.
        assert!(narrow_region(&[Rect::new(0, 0, 750, 750)], 750).is_empty());
        // A thin wire violates everywhere.
        let wire = [Rect::new(0, 0, 500, 2000)];
        assert_eq!(cover_area(&narrow_region(&wire, 750)), 500 * 2000);
        // An L with both arms at the minimum is clean.
        let l = merge_boxes(&[Rect::new(0, 0, 750, 3000), Rect::new(0, 0, 3000, 750)]);
        assert!(narrow_region(&l, 750).is_empty());
        // A wide plate with a thin nub flags just the nub.
        let nub = merge_boxes(&[Rect::new(0, 0, 3000, 3000), Rect::new(0, 3000, 250, 4000)]);
        assert_eq!(cover_area(&narrow_region(&nub, 750)), 250 * 1000);
    }

    #[test]
    fn narrow_region_is_decomposition_invariant() {
        let whole = [Rect::new(0, 0, 400, 4000)];
        let split = [
            Rect::new(0, 0, 400, 1000),
            Rect::new(0, 1000, 400, 2500),
            Rect::new(0, 1700, 300, 4000),
            Rect::new(0, 1700, 400, 4000),
        ];
        assert_eq!(
            narrow_region(&merge_boxes(&whole), 750),
            narrow_region(&merge_boxes(&split), 750)
        );
    }

    #[test]
    fn axis_cross_excludes_diagonals() {
        let n = axis_cross(&[Rect::new(0, 0, 10, 10)], 5);
        assert_eq!(cover_area(&n), 10 * 10 + 4 * 50);
        assert_eq!(hull(&n), Rect::new(-5, -5, 15, 15));
    }

    #[test]
    fn hull_and_area() {
        let cover = vec![Rect::new(0, 0, 10, 10), Rect::new(20, 20, 30, 40)];
        assert_eq!(hull(&cover), Rect::new(0, 0, 30, 40));
        assert_eq!(cover_area(&cover), 100 + 200);
    }
}
