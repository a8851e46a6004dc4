//! Baseline partitioners for the comparison experiments.
//!
//! * [`abraham_hudak_rect`] — an independent implementation of Abraham &
//!   Hudak's compile-time rectangular partitioner \[6\] for their program
//!   class (every reference of the form `A[i₁+c₁, …, i_d+c_d]` to a
//!   single array).  The paper proves (Example 8) that the footprint
//!   framework reproduces its answers; the agreement is checked in
//!   `tests/paper_examples.rs` and E6 of `tests/paper_tables`.
//! * [`naive_partition`] — the by-rows / by-columns / square-blocks
//!   strawmen of §1 and Example 2.

use crate::rect::{factorizations, RectPartition};
use alp_footprint::CostModel;
use alp_linalg::Rat;
use alp_loopir::LoopNest;

/// Abraham & Hudak's restrictions: offset-only references (`G = I`) to a
/// single array.  Returns `None` when the nest is outside their domain.
///
/// Their cost for a tile `(λ₁+1)…(λ_l+1)` is the number of boundary
/// elements communicated per tile: `Σ_k D_k Π_{j≠k}(λ_j+1)` where `D_k`
/// is the spread of the offsets in dimension `k`; the partition chooses
/// the processor grid minimizing it.
pub fn abraham_hudak_rect(nest: &LoopNest, p: i128) -> Option<RectPartition> {
    let l = nest.depth();
    let refs = nest.all_refs();
    // Domain check: single array, G = identity.
    let array = &refs.first()?.array;
    let identity = alp_linalg::IMat::identity(l);
    for r in &refs {
        if &r.array != array || r.dim() != l || *r.g_matrix() != identity {
            return None;
        }
    }
    // D_k: spread of offsets per dimension.
    let d: Vec<i128> = (0..l)
        .map(|k| {
            let os: Vec<i128> = refs.iter().map(|r| r.offset()[k]).collect();
            os.iter().max().unwrap() - os.iter().min().unwrap()
        })
        .collect();
    let trips: Vec<i128> = nest.loops.iter().map(|lp| lp.trip_count()).collect();

    let mut best: Option<RectPartition> = None;
    for grid in factorizations(p, l) {
        if grid.iter().zip(&trips).any(|(&g, &n)| g > n) {
            continue;
        }
        let extents: Vec<i128> = grid
            .iter()
            .zip(&trips)
            .map(|(&g, &n)| (n + g - 1) / g - 1)
            .collect();
        // A&H objective: boundary traffic only.
        let mut cost = Rat::ZERO;
        for (k, &dk) in d.iter().enumerate() {
            let mut term = Rat::int(dk);
            for (j, &lam) in extents.iter().enumerate() {
                if j != k {
                    term = term * Rat::int(lam + 1);
                }
            }
            cost = cost + term;
        }
        let cand = RectPartition {
            proc_grid: grid,
            tile_extents: extents,
            cost,
        };
        match &best {
            Some(b) if b.cost <= cand.cost => {}
            _ => best = Some(cand),
        }
    }
    best
}

/// The naive partition shapes of §1/Example 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NaiveShape {
    /// Split the outermost loop only (`P × 1 × …` grid).
    ByRows,
    /// Split the innermost loop only.
    ByColumns,
    /// As close to an equal split in every dimension as the divisor
    /// structure of `P` allows.
    SquareBlocks,
}

/// Build a naive rectangular partition and evaluate it under the
/// footprint model (so it is comparable with [`crate::partition_rect`]).
///
/// Returns `None` if the shape is infeasible (more processors than
/// iterations along the split dimension).
pub fn naive_partition(nest: &LoopNest, p: i128, shape: NaiveShape) -> Option<RectPartition> {
    let l = nest.depth();
    let trips: Vec<i128> = nest.loops.iter().map(|lp| lp.trip_count()).collect();
    let grid: Vec<i128> = match shape {
        NaiveShape::ByRows => {
            let mut g = vec![1; l];
            g[0] = p;
            g
        }
        NaiveShape::ByColumns => {
            let mut g = vec![1; l];
            g[l - 1] = p;
            g
        }
        NaiveShape::SquareBlocks => factorizations(p, l).into_iter().min_by_key(|g| {
            // most balanced: minimize max/min ratio via max-min spread
            let mx = *g.iter().max().expect("nonempty");
            let mn = *g.iter().min().expect("nonempty");
            (mx - mn, g.clone())
        })?,
    };
    if grid.iter().zip(&trips).any(|(&g, &n)| g > n) {
        return None;
    }
    let extents: Vec<i128> = grid
        .iter()
        .zip(&trips)
        .map(|(&g, &n)| (n + g - 1) / g - 1)
        .collect();
    let model = CostModel::from_nest(nest);
    let cost = model.cost_rect(&extents);
    Some(RectPartition {
        proc_grid: grid,
        tile_extents: extents,
        cost,
    })
}

/// True when the nest fits Abraham & Hudak's program class (used by the
/// experiment harness to label rows).
pub fn in_abraham_hudak_domain(nest: &LoopNest) -> bool {
    let l = nest.depth();
    let identity = alp_linalg::IMat::identity(l);
    let refs = nest.all_refs();
    match refs.first() {
        None => false,
        Some(first) => refs
            .iter()
            .all(|r| r.array == first.array && r.dim() == l && *r.g_matrix() == identity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::partition_rect;
    use alp_loopir::parse;

    #[test]
    fn ah_domain_check() {
        let stencil = parse(
            "doall (i, 1, 32) { doall (j, 1, 32) {
               A[i,j] = A[i+1,j] + A[i,j+2];
             } }",
        )
        .unwrap();
        assert!(in_abraham_hudak_domain(&stencil));
        assert!(abraham_hudak_rect(&stencil, 16).is_some());

        let two_arrays =
            parse("doall (i, 1, 32) { doall (j, 1, 32) { A[i,j] = B[i,j]; } }").unwrap();
        assert!(!in_abraham_hudak_domain(&two_arrays));
        assert!(abraham_hudak_rect(&two_arrays, 16).is_none());

        let affine =
            parse("doall (i, 1, 32) { doall (j, 1, 32) { A[i+j,j] = A[i+j,j]; } }").unwrap();
        assert!(!in_abraham_hudak_domain(&affine));
    }

    #[test]
    fn ah_agrees_with_framework_on_example8() {
        // Example 8 rewritten as a single-array stencil (the agreement
        // claim): both partitioners pick the same processor grid.
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
               A[i,j,k] = A[i-1,j,k+1] + A[i,j+1,k] + A[i+1,j-2,k-3];
             } } }",
        )
        .unwrap();
        let ours = partition_rect(&nest, 64);
        let ah = abraham_hudak_rect(&nest, 64).unwrap();
        assert_eq!(ours.proc_grid, ah.proc_grid);
        assert_eq!(ours.tile_extents, ah.tile_extents);
    }

    #[test]
    fn naive_shapes() {
        let nest = parse("doall (i, 1, 64) { doall (j, 1, 64) { A[i,j] = A[i+1,j]; } }").unwrap();
        let rows = naive_partition(&nest, 8, NaiveShape::ByRows).unwrap();
        assert_eq!(rows.proc_grid, vec![8, 1]);
        let cols = naive_partition(&nest, 8, NaiveShape::ByColumns).unwrap();
        assert_eq!(cols.proc_grid, vec![1, 8]);
        let sq = naive_partition(&nest, 16, NaiveShape::SquareBlocks).unwrap();
        assert_eq!(sq.proc_grid, vec![4, 4]);
        // Spread is along i only: splitting j is free, splitting i costs.
        assert!(cols.cost < rows.cost);
    }

    #[test]
    fn naive_infeasible() {
        let nest = parse("doall (i, 0, 3) { doall (j, 0, 63) { A[i,j] = A[i+1,j]; } }").unwrap();
        assert!(naive_partition(&nest, 8, NaiveShape::ByRows).is_none());
        assert!(naive_partition(&nest, 8, NaiveShape::ByColumns).is_some());
    }

    #[test]
    fn optimizer_never_loses_to_naive() {
        for src in [
            "doall (i, 1, 64) { doall (j, 1, 64) { A[i,j] = A[i+1,j] + A[i,j+3]; } }",
            "doall (i, 1, 64) { doall (j, 1, 64) { A[i,j] = B[i+j,i-j] + B[i+j+2,i-j+2]; } }",
        ] {
            let nest = parse(src).unwrap();
            let ours = partition_rect(&nest, 16);
            for shape in [
                NaiveShape::ByRows,
                NaiveShape::ByColumns,
                NaiveShape::SquareBlocks,
            ] {
                if let Some(n) = naive_partition(&nest, 16, shape) {
                    assert!(ours.cost <= n.cost, "{src} lost to {shape:?}");
                }
            }
        }
    }
}
