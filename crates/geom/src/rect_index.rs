use crate::{Coord, Rect};

/// Children per node at every level of the tree.
const FANOUT: usize = 16;

/// A static packed R-tree over a fixed set of rectangles: which of
/// them overlap a query window, in time that follows the window's
/// neighbourhood rather than the size of the set.
///
/// The tree is built once, sort-tile-recursive: the rects are sorted
/// by x-centre, cut into ⌈√(n/16)⌉ vertical slabs, each slab is
/// sorted by y-centre, and consecutive runs of 16 become leaves. Each
/// level above groups 16 nodes of the level below and stores only
/// their bounding rects, so the index holds O(n) rects on any input —
/// unlike a uniform grid, whose cells copy every rect they touch and
/// hold n·√n entries for a grating of full-width strips.
///
/// Overlap is *interior* overlap, as in [`Rect::overlaps`]: a rect
/// that only shares an edge or a corner with the window is not a hit,
/// and a rect or window of zero area never matches anything.
///
/// # Examples
///
/// ```
/// use ace_geom::{Rect, RectIndex};
///
/// let rects = [
///     Rect::new(0, 0, 10, 10),
///     Rect::new(10, 0, 20, 10), // shares only an edge with the window
///     Rect::new(5, 5, 6, 6),
///     Rect::new(3, 3, 3, 9), // zero area: never a hit
/// ];
/// let index = RectIndex::new(&rects);
/// let mut hits = Vec::new();
/// index.query(&Rect::new(4, 4, 10, 10), &mut hits);
/// assert_eq!(hits, vec![0, 2]);
/// ```
#[derive(Debug)]
pub struct RectIndex {
    /// The non-empty input rects, in packed order.
    rects: Vec<Rect>,
    /// Input index of each packed rect.
    ids: Vec<usize>,
    /// Node bounds, leaves first: `levels[0][i]` bounds
    /// `rects[16i..16i + 16]`, `levels[k][i]` bounds
    /// `levels[k - 1][16i..16i + 16]`, and the last level holds at
    /// most one rect, the root.
    levels: Vec<Vec<Rect>>,
}

impl RectIndex {
    /// Builds the index over `rects`; [`query`](Self::query) reports
    /// positions in this slice.
    pub fn new(rects: &[Rect]) -> RectIndex {
        // Centres from halved edges, so no coordinate overflows; the
        // rounding can only reorder ties, never change a query's hits.
        let centre = |lo: Coord, hi: Coord| (lo >> 1) + (hi >> 1);
        let mut keyed: Vec<(Coord, Coord, usize)> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(i, r)| (centre(r.x_min, r.x_max), centre(r.y_min, r.y_max), i))
            .collect();
        // Ties on x break by y, so strips sharing one x-centre still
        // fall into slabs by height.
        keyed.sort_unstable();
        let slabs = (keyed.len() as f64 / FANOUT as f64).sqrt().ceil().max(1.0) as usize;
        let slab_len = keyed.len().div_ceil(slabs).next_multiple_of(FANOUT).max(1);
        for slab in keyed.chunks_mut(slab_len) {
            slab.sort_unstable_by_key(|&(x, y, i)| (y, x, i));
        }
        let packed: Vec<Rect> = keyed.iter().map(|&(_, _, i)| rects[i]).collect();
        let order: Vec<usize> = keyed.into_iter().map(|(_, _, i)| i).collect();
        let mut levels = Vec::new();
        let mut level = bounds(&packed);
        while level.len() > 1 {
            let up = bounds(&level);
            levels.push(level);
            level = up;
        }
        levels.push(level);
        RectIndex {
            rects: packed,
            ids: order,
            levels,
        }
    }

    /// Replaces `out` with the input index of every rect that overlaps
    /// `window` with positive area, each once, in ascending order.
    pub fn query(&self, window: &Rect, out: &mut Vec<usize>) {
        out.clear();
        let top = self.levels.len() - 1;
        if !window.is_empty() && self.levels[top].first().is_some_and(|r| r.overlaps(window)) {
            self.visit(top, 0, window, out);
            out.sort_unstable();
        }
    }

    /// Collects the hits under node `node` of `levels[level]`.
    fn visit(&self, level: usize, node: usize, window: &Rect, out: &mut Vec<usize>) {
        let first = node * FANOUT;
        if level == 0 {
            let leaf = self.rects.iter().zip(&self.ids).skip(first).take(FANOUT);
            out.extend(leaf.filter(|(r, _)| r.overlaps(window)).map(|(_, &id)| id));
        } else {
            let children = self.levels[level - 1].iter().enumerate();
            for (child, r) in children.skip(first).take(FANOUT) {
                if r.overlaps(window) {
                    self.visit(level - 1, child, window, out);
                }
            }
        }
    }
}

/// The bounding rect of each run of [`FANOUT`] rects.
fn bounds(rects: &[Rect]) -> Vec<Rect> {
    rects
        .chunks(FANOUT)
        .map(|run| run.iter().fold(run[0], |acc, r| acc.bounding_union(r)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear(rects: &[Rect], window: &Rect) -> Vec<usize> {
        if window.is_empty() {
            return Vec::new();
        }
        (0..rects.len())
            .filter(|&i| !rects[i].is_empty() && rects[i].overlaps(window))
            .collect()
    }

    #[test]
    fn empty_index_matches_nothing() {
        let index = RectIndex::new(&[]);
        let mut hits = vec![7];
        index.query(&Rect::new(0, 0, 10, 10), &mut hits);
        assert_eq!(hits, Vec::<usize>::new());
    }

    #[test]
    fn multi_level_tree_matches_linear_scan() {
        // 40×40 grid of unit squares: 1600 rects, three levels.
        let rects: Vec<Rect> = (0..1600)
            .map(|i| {
                let (x, y) = ((i % 40) * 10, (i / 40) * 10);
                Rect::new(x, y, x + 10, y + 10)
            })
            .collect();
        let index = RectIndex::new(&rects);
        assert_eq!(index.levels.len(), 3);
        let mut hits = Vec::new();
        for window in [
            Rect::new(0, 0, 400, 400),
            Rect::new(95, 95, 105, 105),
            Rect::new(100, 100, 110, 110),
            Rect::new(-50, 200, 1000, 201),
            Rect::new(500, 500, 600, 600),
        ] {
            index.query(&window, &mut hits);
            assert_eq!(hits, linear(&rects, &window), "{window}");
        }
    }

    #[test]
    fn full_width_grating_is_linear_in_size() {
        // Full-width strips: every rect shares one x-centre.
        let rects: Vec<Rect> = (0..1000)
            .map(|i| Rect::new(0, 2 * i, 1_000_000, 2 * i + 1))
            .collect();
        let index = RectIndex::new(&rects);
        let stored: usize = index.rects.len() + index.levels.iter().map(Vec::len).sum::<usize>();
        assert!(stored < 2 * rects.len(), "{stored} rects stored");
        let mut hits = Vec::new();
        index.query(&Rect::new(10, 100, 20, 104), &mut hits);
        assert_eq!(hits, vec![50, 51]);
    }
}
