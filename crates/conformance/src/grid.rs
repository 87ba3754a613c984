//! The coordinate-compressed grid both brute-force oracles color.
//!
//! Every rect bound becomes a grid line, so coverage is constant
//! within each grid cell and a union, intersection, or difference of
//! rectangle sets is a per-cell boolean. The grid deliberately shares
//! nothing with `ace_geom`'s interval machinery: the oracles built on
//! it judge the scanline checkers, so they must not reuse their code.

use ace_geom::{Coord, Rect};

/// A coordinate-compressed grid with one coverage plane per input
/// rectangle set.
pub(crate) struct Grid {
    /// Sorted, distinct vertical grid lines.
    pub(crate) xs: Vec<Coord>,
    /// Sorted, distinct horizontal grid lines.
    pub(crate) ys: Vec<Coord>,
    /// `planes[set][i * rows + j]`
    planes: Vec<Vec<bool>>,
}

impl Grid {
    /// Grid lines come from every rect bound in every set, plus the
    /// explicitly provided extra lines (anchor offsets for erosion).
    pub(crate) fn new(sets: &[&[Rect]], extra_xs: &[Coord], extra_ys: &[Coord]) -> Grid {
        let mut xs: Vec<Coord> = extra_xs.to_vec();
        let mut ys: Vec<Coord> = extra_ys.to_vec();
        for set in sets {
            for r in set.iter() {
                xs.extend([r.x_min, r.x_max]);
                ys.extend([r.y_min, r.y_max]);
            }
        }
        xs.sort_unstable();
        xs.dedup();
        ys.sort_unstable();
        ys.dedup();
        let cols = xs.len().saturating_sub(1);
        let rows = ys.len().saturating_sub(1);
        let mut planes = vec![vec![false; cols * rows]; sets.len()];
        for (plane, set) in planes.iter_mut().zip(sets) {
            for r in set.iter() {
                let i0 = xs.partition_point(|&x| x < r.x_min);
                let i1 = xs.partition_point(|&x| x < r.x_max);
                let j0 = ys.partition_point(|&y| y < r.y_min);
                let j1 = ys.partition_point(|&y| y < r.y_max);
                for i in i0..i1 {
                    for j in j0..j1 {
                        plane[i * rows + j] = true;
                    }
                }
            }
        }
        Grid { xs, ys, planes }
    }

    pub(crate) fn cols(&self) -> usize {
        self.xs.len().saturating_sub(1)
    }

    pub(crate) fn rows(&self) -> usize {
        self.ys.len().saturating_sub(1)
    }

    /// Whether set `set` covers cell `(i, j)`; cells past the last
    /// column or row are uncovered space.
    pub(crate) fn covered(&self, set: usize, i: usize, j: usize) -> bool {
        i < self.cols() && j < self.rows() && self.planes[set][i * self.rows() + j]
    }

    pub(crate) fn cell_rect(&self, i: usize, j: usize) -> Rect {
        Rect::new(self.xs[i], self.ys[j], self.xs[i + 1], self.ys[j + 1])
    }

    /// Every cell, column by column.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (usize, usize)> {
        let rows = self.rows();
        (0..self.cols()).flat_map(move |i| (0..rows).map(move |j| (i, j)))
    }

    /// Total area of the cells where `keep` holds.
    pub(crate) fn area(&self, keep: impl Fn(usize, usize) -> bool) -> i64 {
        self.cells()
            .filter(|&(i, j)| keep(i, j))
            .map(|(i, j)| self.cell_rect(i, j).area())
            .sum()
    }

    /// Connected components of the cells where `keep` holds, by BFS
    /// over edge-sharing grid neighbors (adjacent compressed cells
    /// always share an edge of positive length; corner contact never
    /// connects). Each component is its list of cell rects, returned
    /// in first-cell scan order.
    pub(crate) fn components(&self, keep: impl Fn(usize, usize) -> bool) -> Vec<Vec<Rect>> {
        let rows = self.rows();
        let mut seen = vec![false; self.cols() * rows];
        let mut comps = Vec::new();
        for (si, sj) in self.cells() {
            if seen[si * rows + sj] || !keep(si, sj) {
                continue;
            }
            let mut queue = vec![(si, sj)];
            seen[si * rows + sj] = true;
            let mut cells = Vec::new();
            while let Some((i, j)) = queue.pop() {
                cells.push(self.cell_rect(i, j));
                let neighbors = [
                    i.checked_sub(1).map(|i| (i, j)),
                    Some((i + 1, j)),
                    j.checked_sub(1).map(|j| (i, j)),
                    Some((i, j + 1)),
                ];
                for (ni, nj) in neighbors.into_iter().flatten() {
                    if ni < self.cols() && nj < rows && !seen[ni * rows + nj] && keep(ni, nj) {
                        seen[ni * rows + nj] = true;
                        queue.push((ni, nj));
                    }
                }
            }
            comps.push(cells);
        }
        comps
    }
}
