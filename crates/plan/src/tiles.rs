//! The ONE rectangular tile enumerator of the workspace.
//!
//! Every consumer of a rectangular partition — `alp-codegen`'s
//! iteration-to-processor assignment, `alp-runtime`'s native executor,
//! `alp-machine`'s simulator driver — derives its tiles from this
//! module, so "which iterations does processor `t` own?" has exactly one
//! answer: the same ceiling-division chunking, the same row-major
//! tile→processor numbering, and the same clamping at the upper
//! boundary.  Empty boundary tiles are preserved to keep the numbering
//! aligned with the processor grid.

use crate::PlanError;
use alp_loopir::LoopNest;

/// An axis-aligned box of iterations, inclusive on both ends per
/// dimension.  Empty when any `lo > hi`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterBox {
    /// Inclusive lower corner.
    pub lo: Vec<i64>,
    /// Inclusive upper corner.
    pub hi: Vec<i64>,
}

impl IterBox {
    /// Number of iterations in the box (0 when empty).
    pub fn volume(&self) -> u64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| if h < l { 0 } else { (h - l + 1) as u64 })
            .product()
    }

    /// True when the box contains no iterations.
    pub fn is_empty(&self) -> bool {
        self.volume() == 0
    }

    /// Visit every iteration in row-major order (outermost dimension
    /// slowest), reusing one scratch vector.
    pub fn for_each_point(&self, mut f: impl FnMut(&[i64])) {
        self.try_for_each_point(|p| {
            f(p);
            true
        });
    }

    /// Like [`for_each_point`](IterBox::for_each_point), but stops as
    /// soon as `f` returns `false` (e.g. on a cooperative cancellation
    /// poll).  Returns `true` when every point was visited, `false`
    /// when the walk was stopped early.
    pub fn try_for_each_point(&self, mut f: impl FnMut(&[i64]) -> bool) -> bool {
        if self.is_empty() {
            return true;
        }
        let l = self.lo.len();
        let mut i = self.lo.clone();
        loop {
            if !f(&i) {
                return false;
            }
            let mut k = l;
            loop {
                if k == 0 {
                    return true;
                }
                k -= 1;
                i[k] += 1;
                if i[k] <= self.hi[k] {
                    break;
                }
                i[k] = self.lo[k];
            }
        }
    }

    /// Visit the box as innermost rows, in row-major order.  `f`
    /// receives a scratch coordinate vector with the prefix
    /// `i₀..i_{n−2}` filled in (the last entry is unspecified) and the
    /// inclusive innermost range `lo..=hi` — the callback shape of
    /// [`TransformedDomain::for_each_row`](crate::TransformedDomain::for_each_row);
    /// returning `false` stops the walk early.  Returns `true` when
    /// every row was visited.  A box of depth 0 has no rows.
    pub fn try_for_each_row(&self, mut f: impl FnMut(&mut [i64], i64, i64) -> bool) -> bool {
        let Some(last) = self.lo.len().checked_sub(1) else {
            return true;
        };
        if self.is_empty() {
            return true;
        }
        let mut i = self.lo.clone();
        loop {
            if !f(&mut i, self.lo[last], self.hi[last]) {
                return false;
            }
            let mut k = last;
            loop {
                if k == 0 {
                    return true;
                }
                k -= 1;
                i[k] += 1;
                if i[k] <= self.hi[k] {
                    break;
                }
                i[k] = self.lo[k];
            }
        }
    }
}

/// Split the nest's parallel iteration space into `Π grid` rectangular
/// tiles, one per virtual processor, row-major over the grid.
///
/// Returns the tiles and the per-dimension chunk sizes (the tile
/// extents λ of interior tiles plus one, in the paper's terms).
pub fn rect_tiles(nest: &LoopNest, grid: &[i128]) -> Result<(Vec<IterBox>, Vec<i128>), PlanError> {
    if grid.len() != nest.depth() {
        return Err(PlanError::BadGrid(format!(
            "grid has {} dims, nest has {} parallel loops",
            grid.len(),
            nest.depth()
        )));
    }
    if grid.iter().any(|&g| g <= 0) {
        return Err(PlanError::BadGrid(format!(
            "grid extents must be positive, got {grid:?}"
        )));
    }
    let chunks: Vec<i128> = nest
        .loops
        .iter()
        .zip(grid)
        .map(|(l, &g)| (l.trip_count() + g - 1) / g)
        .collect();

    let tiles_total: i128 = grid.iter().product();
    let tiles_total = usize::try_from(tiles_total)
        .map_err(|_| PlanError::BadGrid(format!("grid too large: {grid:?}")))?;

    let to_i64 = |v: i128, what: &str| -> Result<i64, PlanError> {
        i64::try_from(v).map_err(|_| PlanError::BadGrid(format!("{what} {v} overflows i64")))
    };

    let mut tiles = Vec::with_capacity(tiles_total);
    let dims = grid.len();
    let mut coord = vec![0i128; dims];
    for _ in 0..tiles_total {
        let mut lo = Vec::with_capacity(dims);
        let mut hi = Vec::with_capacity(dims);
        for (k, l) in nest.loops.iter().enumerate() {
            let tile_lo = l.lower + coord[k] * chunks[k];
            let tile_hi = (tile_lo + chunks[k] - 1).min(l.upper);
            lo.push(to_i64(tile_lo, "tile bound")?);
            hi.push(to_i64(tile_hi, "tile bound")?);
        }
        tiles.push(IterBox { lo, hi });
        // Row-major increment over the grid (last dim fastest).
        let mut k = dims;
        while k > 0 {
            k -= 1;
            coord[k] += 1;
            if coord[k] < grid[k] {
                break;
            }
            coord[k] = 0;
        }
    }
    Ok((tiles, chunks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The partition invariant of the single enumerator: one tile per
    /// grid cell, and the tiles disjointly cover the iteration space.
    fn assert_disjoint_cover(nest: &LoopNest, grid: &[i128]) {
        let (tiles, _) = rect_tiles(nest, grid).unwrap();
        let expected: i128 = grid.iter().product();
        assert_eq!(tiles.len() as i128, expected, "tile count == Π grid");
        let mut seen: HashSet<Vec<i64>> = HashSet::new();
        for t in &tiles {
            t.for_each_point(|p| {
                assert!(seen.insert(p.to_vec()), "iteration {p:?} covered twice");
            });
        }
        assert_eq!(seen.len() as i128, nest.iteration_count(), "exact cover");
        let volume: u64 = tiles.iter().map(IterBox::volume).sum();
        assert_eq!(volume as i128, nest.iteration_count());
    }

    #[test]
    fn disjoint_cover_ragged_2d() {
        // 7×5 space on a 2×3 grid: boundary tiles shrink.
        let nest = parse("doall (i, 0, 6) { doall (j, 10, 14) { A[i, j] = A[i, j]; } }").unwrap();
        let (_, chunks) = rect_tiles(&nest, &[2, 3]).unwrap();
        assert_eq!(chunks, vec![4, 2]);
        assert_disjoint_cover(&nest, &[2, 3]);
    }

    #[test]
    fn empty_boundary_tiles_preserved() {
        // 3 iterations on 4 processors: chunk 1, tile 3 is empty.
        let nest = parse("doall (i, 0, 2) { A[i] = A[i]; }").unwrap();
        let (tiles, _) = rect_tiles(&nest, &[4]).unwrap();
        assert_eq!(tiles.len(), 4);
        assert!(tiles[3].is_empty());
        assert_disjoint_cover(&nest, &[4]);
    }

    #[test]
    fn row_major_numbering() {
        let nest = parse("doall (i, 0, 3) { doall (j, 0, 3) { A[i,j] = A[i,j]; } }").unwrap();
        let (tiles, _) = rect_tiles(&nest, &[2, 2]).unwrap();
        // Tile 1 is (rows 0-1, cols 2-3): the j coordinate moves fastest.
        assert_eq!(tiles[1].lo, vec![0, 2]);
        assert_eq!(tiles[2].lo, vec![2, 0]);
    }

    #[test]
    fn grid_dim_mismatch_rejected() {
        let nest = parse("doall (i, 0, 2) { A[i] = A[i]; }").unwrap();
        assert!(rect_tiles(&nest, &[2, 2]).is_err());
        assert!(rect_tiles(&nest, &[0]).is_err());
    }

    #[test]
    fn for_each_point_row_major_within_tile() {
        let b = IterBox {
            lo: vec![1, 5],
            hi: vec![2, 6],
        };
        let mut pts = Vec::new();
        b.for_each_point(|p| pts.push(p.to_vec()));
        assert_eq!(pts, vec![[1, 5], [1, 6], [2, 5], [2, 6]]);
    }

    #[test]
    fn try_for_each_point_stops_early() {
        let b = IterBox {
            lo: vec![0, 0],
            hi: vec![9, 9],
        };
        let mut seen = 0u64;
        let completed = b.try_for_each_point(|_| {
            seen += 1;
            seen < 7
        });
        assert!(!completed);
        assert_eq!(seen, 7);
        // An uninterrupted walk reports completion, as does an empty box.
        assert!(b.try_for_each_point(|_| true));
        let empty = IterBox {
            lo: vec![1],
            hi: vec![0],
        };
        assert!(empty.try_for_each_point(|_| false));
    }

    proptest! {
        #[test]
        fn tiles_always_disjoint_cover(
            ni in 1i128..=9, nj in 1i128..=9,
            gi in 1i128..=4, gj in 1i128..=4,
        ) {
            let nest = parse(&format!(
                "doall (i, 0, {}) {{ doall (j, 0, {}) {{ A[i,j] = A[i,j]; }} }}",
                ni - 1, nj - 1
            )).unwrap();
            assert_disjoint_cover(&nest, &[gi, gj]);
        }

        /// Rows, expanded, are the point walk: same points, same
        /// order, for depth 1..=3, empty boxes (a zero extent in any
        /// dimension) and a walk stopped after `stop` rows.
        #[test]
        fn rows_expand_to_the_point_order(
            dims in (1usize..=3).prop_flat_map(|d| {
                proptest::collection::vec((-3i64..=3, 0i64..=4), d..=d)
            }),
            stop in 1usize..=20,
        ) {
            let bx = IterBox {
                lo: dims.iter().map(|&(lo, _)| lo).collect(),
                hi: dims.iter().map(|&(lo, extent)| lo + extent - 1).collect(),
            };
            let mut points = Vec::new();
            bx.for_each_point(|p| points.push(p.to_vec()));

            let last = dims.len() - 1;
            let mut expanded = Vec::new();
            let mut rows = 0usize;
            let completed = bx.try_for_each_row(|i, lo, hi| {
                for x in lo..=hi {
                    i[last] = x;
                    expanded.push(i.to_vec());
                }
                rows += 1;
                rows < stop
            });

            let row_len = dims[last].1 as usize;
            let total_rows = if points.is_empty() { 0 } else { points.len() / row_len };
            prop_assert_eq!(completed, total_rows < stop);
            prop_assert_eq!(rows, total_rows.min(stop));
            prop_assert_eq!(&expanded[..], &points[..rows * row_len]);
        }
    }
}
