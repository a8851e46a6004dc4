//! Iteration-to-processor assignment.

use alp_linalg::{solve_rational, IMat, IVec, Rat};
use alp_loopir::LoopNest;
use std::collections::HashMap;

/// An assignment of every iteration to exactly one processor.
pub type Assignment = Vec<Vec<IVec>>;

/// Rectangular assignment: split loop `k` into `grid[k]` contiguous
/// chunks of `ceil(n_k / grid[k])` iterations; processor with grid
/// coordinates `(c_0, …)` (row-major linearized) executes the product of
/// its chunks.
///
/// The tiles themselves are an [`alp_plan::Tiling`] — the one tile
/// enumerator of the workspace — so this assignment, the native
/// executor, and the machine simulator agree by construction on which
/// iterations processor `t` owns.
///
/// # Panics
/// Panics if the grid depth mismatches the nest or any factor exceeds
/// the trip count.
pub fn assign_rect(nest: &LoopNest, grid: &[i128]) -> Assignment {
    let l = nest.depth();
    assert_eq!(grid.len(), l, "grid depth mismatch");
    let trips: Vec<i128> = nest.loops.iter().map(|lp| lp.trip_count()).collect();
    for (k, (&g, &n)) in grid.iter().zip(&trips).enumerate() {
        assert!(
            g >= 1 && g <= n,
            "grid factor {g} invalid for loop {k} with {n} iterations"
        );
    }
    alp_plan::Tiling::new(nest, None, grid)
        .expect("asserts above uphold the enumerator's contract")
        .assignment()
}

/// Slab assignment along a hyperplane normal `h` (communication-free
/// partitions): iterations with equal `⌊(h·ī − min)/width⌋` share a
/// processor.
///
/// # Panics
/// Panics if `h` is zero or `p < 1`.
pub fn assign_slabs(nest: &LoopNest, h: &IVec, p: i128) -> Assignment {
    assert!(p >= 1, "need at least one processor");
    assert!(!h.is_zero(), "zero normal");
    let pts = nest.iteration_points();
    let vals: Vec<i128> = pts.iter().map(|i| i.dot(h).expect("depth")).collect();
    let (mn, mx) = match (vals.iter().min(), vals.iter().max()) {
        (Some(&a), Some(&b)) => (a, b),
        _ => return vec![Vec::new(); p as usize],
    };
    let span = mx - mn + 1;
    let width = (span + p - 1) / p;
    let mut out: Assignment = vec![Vec::new(); p as usize];
    for (i, v) in pts.into_iter().zip(vals) {
        let slab = ((v - mn) / width).min(p - 1);
        out[slab as usize].push(i);
    }
    out
}

/// Parallelepiped assignment from a tile matrix `L` (rows are edge
/// vectors): iteration `ī` belongs to the lattice cell
/// `⌊ī·L⁻¹⌋` (componentwise floor of the tile coordinates).  Cells are
/// numbered in first-touch order; the number of processors equals the
/// number of nonempty cells (boundary cells are fragments).
///
/// Returns the assignment and the cell index map.
///
/// # Panics
/// Panics if `L` is singular.
pub fn assign_para(nest: &LoopNest, l_matrix: &IMat) -> (Assignment, HashMap<Vec<i128>, usize>) {
    let l = nest.depth();
    assert!(l_matrix.is_nonsingular(), "tile matrix must be nonsingular");
    // Row `r` of `L⁻¹` is the `x` with `x·L = e_r`.
    let unit = IMat::identity(l);
    let linv: Vec<Vec<Rat>> = (0..l)
        .map(|r| solve_rational(l_matrix, &unit.row(r)).expect("a nonsingular system solves"))
        .collect();
    let mut cells: HashMap<Vec<i128>, usize> = HashMap::new();
    let mut out: Assignment = Vec::new();
    for i in nest.iteration_points() {
        // Tile coordinates a = i · L⁻¹ (exact rationals), cell = floor(a).
        let cell: Vec<i128> = (0..l)
            .map(|col| {
                let terms = i.0.iter().zip(&linv);
                let a = terms.fold(Rat::ZERO, |acc, (&x, row)| acc + Rat::int(x) * row[col]);
                a.floor()
            })
            .collect();
        let next = cells.len();
        let id = *cells.entry(cell).or_insert(next);
        if id == out.len() {
            out.push(Vec::new());
        }
        out[id].push(i);
    }
    (out, cells)
}

/// Reorder one processor's iterations into sub-blocks of the given
/// extents (§2.2: "the size of each loop tile executed at any given time
/// ... must be adjusted so that the data fits in the cache").
///
/// The partition (who executes what) is unchanged — only the execution
/// *order* within each processor changes, visiting one cache-sized
/// sub-block at a time.  Blocks are ordered lexicographically, and
/// iterations inside a block keep lexicographic order.
///
/// # Panics
/// Panics if `sub` has the wrong depth or a non-positive extent.
pub fn block_iterations(points: &[IVec], sub: &[i128]) -> Vec<IVec> {
    if points.is_empty() {
        return Vec::new();
    }
    let l = points[0].len();
    assert_eq!(sub.len(), l, "sub-block depth mismatch");
    assert!(
        sub.iter().all(|&s| s >= 1),
        "sub-block extents must be positive"
    );
    let mins: Vec<i128> = (0..l)
        .map(|k| points.iter().map(|p| p[k]).min().expect("nonempty"))
        .collect();
    let mut out = points.to_vec();
    out.sort_by_key(|p| {
        let block: Vec<i128> = (0..l).map(|k| (p[k] - mins[k]) / sub[k]).collect();
        (block, p.clone())
    });
    out
}

/// Apply [`block_iterations`] to every processor of an assignment.
pub fn block_assignment(assignment: &Assignment, sub: &[i128]) -> Assignment {
    assignment
        .iter()
        .map(|tile| block_iterations(tile, sub))
        .collect()
}

/// Load-balance statistics of an assignment (the paper's §2.1
/// equal-size-tiles constraint, measured).
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentStats {
    /// Number of processors with at least one iteration.
    pub nonempty: usize,
    /// Smallest tile (iterations), over nonempty tiles.
    pub min: usize,
    /// Largest tile.
    pub max: usize,
    /// Mean iterations per processor (including empty ones).
    pub mean: f64,
    /// `max / mean` — 1.0 is perfect balance; the parallel completion
    /// time is proportional to this.
    pub imbalance: f64,
}

/// Compute load-balance statistics.
pub fn assignment_stats(assignment: &Assignment) -> AssignmentStats {
    let sizes: Vec<usize> = assignment.iter().map(Vec::len).collect();
    let total: usize = sizes.iter().sum();
    let nonempty = sizes.iter().filter(|&&s| s > 0).count();
    let min = sizes.iter().copied().filter(|&s| s > 0).min().unwrap_or(0);
    let max = sizes.iter().copied().max().unwrap_or(0);
    let mean = if assignment.is_empty() {
        0.0
    } else {
        total as f64 / assignment.len() as f64
    };
    let imbalance = if mean > 0.0 { max as f64 / mean } else { 0.0 };
    AssignmentStats {
        nonempty,
        min,
        max,
        mean,
        imbalance,
    }
}

/// Verify the partition property: every iteration appears exactly once.
pub fn is_exact_cover(nest: &LoopNest, assignment: &Assignment) -> bool {
    let mut seen = std::collections::HashSet::new();
    let mut count = 0usize;
    for tile in assignment {
        for i in tile {
            if !seen.insert(i.clone()) {
                return false;
            }
            count += 1;
        }
    }
    count as i128 == nest.iteration_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;
    use proptest::prelude::*;

    fn nest_2d(ni: i128, nj: i128) -> LoopNest {
        parse(&format!(
            "doall (i, 0, {}) {{ doall (j, 0, {}) {{ A[i,j] = A[i,j]; }} }}",
            ni - 1,
            nj - 1
        ))
        .unwrap()
    }

    #[test]
    fn rect_even_split() {
        let nest = nest_2d(8, 8);
        let a = assign_rect(&nest, &[2, 4]);
        assert_eq!(a.len(), 8);
        assert!(is_exact_cover(&nest, &a));
        for tile in &a {
            assert_eq!(tile.len(), 8); // 4x2 iterations each
        }
    }

    #[test]
    fn rect_ragged_split() {
        // 10 iterations over 4 processors: chunks of 3 -> 3,3,3,1.
        let nest = parse("doall (i, 0, 9) { A[i] = A[i]; }").unwrap();
        let a = assign_rect(&nest, &[4]);
        assert!(is_exact_cover(&nest, &a));
        let sizes: Vec<usize> = a.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn rect_respects_lower_bounds() {
        let nest = parse("doall (i, 101, 200) { doall (j, 1, 100) { A[i,j] = A[i,j]; } }").unwrap();
        let a = assign_rect(&nest, &[1, 100]);
        assert!(is_exact_cover(&nest, &a));
        assert_eq!(a.len(), 100);
        // Each tile: all 100 i values, one j value.
        assert!(a.iter().all(|t| t.len() == 100));
    }

    #[test]
    fn rect_assignment_is_the_tilings_point_walk() {
        // 7×5 space on a 2×3 grid: boundary tiles shrink, and processor
        // `t` gets exactly the points of the tiling's box `t`, in order.
        let nest = parse("doall (i, 0, 6) { doall (j, 10, 14) { A[i, j] = A[i, j]; } }").unwrap();
        let grid = [2i128, 3];
        let assignment = assign_rect(&nest, &grid);
        let tiling = alp_plan::Tiling::new(&nest, None, &grid).unwrap();
        assert_eq!(tiling.chunks(), [4, 2]);
        assert_eq!(tiling.len(), assignment.len());
        for (tile, pts) in tiling.boxes().iter().zip(&assignment) {
            let mut mine: Vec<IVec> = Vec::new();
            tile.for_each_point(|i| {
                mine.push(IVec(i.iter().map(|&x| x as i128).collect()));
            });
            assert_eq!(&mine, pts);
        }
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn rect_rejects_oversized_grid() {
        let nest = parse("doall (i, 0, 3) { A[i] = A[i]; }").unwrap();
        assign_rect(&nest, &[8]);
    }

    #[test]
    fn slabs_cover_diagonal() {
        let nest = nest_2d(8, 8);
        let a = assign_slabs(&nest, &IVec::new(&[1, 1]), 4);
        assert!(is_exact_cover(&nest, &a));
        assert_eq!(a.len(), 4);
        // Within a slab, h·i values stay within one width.
        for tile in &a {
            let vals: Vec<i128> = tile.iter().map(|i| i[0] + i[1]).collect();
            let (mn, mx) = (vals.iter().min().unwrap(), vals.iter().max().unwrap());
            assert!(mx - mn < 4, "slab too wide: {mn}..{mx}");
        }
    }

    #[test]
    fn para_identity_tiles_are_rect() {
        let nest = nest_2d(8, 8);
        let (a, cells) = assign_para(&nest, &IMat::diag(&[4, 4]));
        assert!(is_exact_cover(&nest, &a));
        assert_eq!(cells.len(), 4);
        for tile in &a {
            assert_eq!(tile.len(), 16);
        }
    }

    #[test]
    fn para_skewed_tiles_cover() {
        let nest = nest_2d(8, 8);
        // Tile rows (4,4) and (0,4): skewed parallelogram of volume 16.
        let (a, _) = assign_para(&nest, &IMat::from_rows(&[&[4, 4], &[0, 4]]));
        assert!(is_exact_cover(&nest, &a));
        // Interior cells hold 16 iterations; boundary fragments less.
        assert!(a.iter().any(|t| t.len() == 16));
    }

    #[test]
    #[should_panic(expected = "nonsingular")]
    fn para_rejects_singular() {
        let nest = nest_2d(4, 4);
        assign_para(&nest, &IMat::from_rows(&[&[1, 1], &[2, 2]]));
    }

    #[test]
    fn block_iterations_groups_subtiles() {
        let nest = nest_2d(4, 4);
        let pts = nest.iteration_points();
        let blocked = block_iterations(&pts, &[2, 2]);
        // Same multiset of points.
        let mut a = pts.clone();
        let mut b = blocked.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // First four visits stay inside the (0,0) 2x2 block.
        for p in &blocked[..4] {
            assert!(p[0] < 2 && p[1] < 2, "{p}");
        }
        // Next four in block (0,1).
        for p in &blocked[4..8] {
            assert!(p[0] < 2 && p[1] >= 2, "{p}");
        }
    }

    #[test]
    fn block_iterations_unit_blocks_are_identity_order() {
        let nest = nest_2d(3, 3);
        let pts = nest.iteration_points();
        assert_eq!(block_iterations(&pts, &[1, 1]), pts);
    }

    #[test]
    fn block_iterations_empty() {
        assert!(block_iterations(&[], &[2, 2]).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn block_iterations_bad_extent() {
        let nest = nest_2d(2, 2);
        block_iterations(&nest.iteration_points(), &[0, 1]);
    }

    #[test]
    fn block_assignment_preserves_cover() {
        let nest = nest_2d(8, 8);
        let a = assign_rect(&nest, &[2, 2]);
        let blocked = block_assignment(&a, &[2, 2]);
        assert!(is_exact_cover(&nest, &blocked));
        // Per-processor sets unchanged.
        for (orig, b) in a.iter().zip(&blocked) {
            let mut x = orig.clone();
            let mut y = b.clone();
            x.sort();
            y.sort();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn stats_balanced_grid() {
        let nest = nest_2d(8, 8);
        let a = assign_rect(&nest, &[4, 4]);
        let s = assignment_stats(&a);
        assert_eq!(s.nonempty, 16);
        assert_eq!(s.min, 4);
        assert_eq!(s.max, 4);
        assert!((s.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_ragged_grid() {
        let nest = parse("doall (i, 0, 9) { A[i] = A[i]; }").unwrap();
        let a = assign_rect(&nest, &[4]); // 3,3,3,1
        let s = assignment_stats(&a);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 3);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.imbalance - 1.2).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_assignment() {
        let s = assignment_stats(&Vec::new());
        assert_eq!(s.max, 0);
        assert_eq!(s.imbalance, 0.0);
    }

    #[test]
    fn slabs_balance_close_to_one() {
        // Diagonal slabs of an 8x8 space: h·i values have a triangular
        // distribution, so imbalance is > 1 but bounded.
        let nest = nest_2d(8, 8);
        let a = assign_slabs(&nest, &IVec::new(&[1, 1]), 4);
        let s = assignment_stats(&a);
        assert!(s.imbalance >= 1.0 && s.imbalance < 2.0, "{s:?}");
    }

    proptest! {
        #[test]
        fn rect_always_exact_cover(
            ni in 1i128..=12, nj in 1i128..=12,
            gi in 1i128..=4, gj in 1i128..=4,
        ) {
            prop_assume!(gi <= ni && gj <= nj);
            let nest = nest_2d(ni, nj);
            let a = assign_rect(&nest, &[gi, gj]);
            prop_assert!(is_exact_cover(&nest, &a));
        }

        #[test]
        fn slabs_always_exact_cover(
            ni in 1i128..=10, nj in 1i128..=10,
            h1 in -2i128..=2, h2 in -2i128..=2,
            p in 1i128..=5,
        ) {
            prop_assume!(h1 != 0 || h2 != 0);
            let nest = nest_2d(ni, nj);
            let a = assign_slabs(&nest, &IVec::new(&[h1, h2]), p);
            prop_assert!(is_exact_cover(&nest, &a));
        }

        #[test]
        fn para_always_exact_cover(
            ni in 1i128..=10, nj in 1i128..=10,
            d in 1i128..=4, s in -2i128..=2,
        ) {
            let nest = nest_2d(ni, nj);
            // L = [[d, s],[0, d]]: always nonsingular.
            let (a, _) = assign_para(&nest, &IMat::from_rows(&[&[d, s], &[0, d]]));
            prop_assert!(is_exact_cover(&nest, &a));
        }
    }
}
