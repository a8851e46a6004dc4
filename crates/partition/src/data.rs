//! Data partitioning and alignment, and placement (§4's other two
//! compiler phases).
//!
//! * **Data partitioning & alignment** ([`align_arrays`]) — each array
//!   is cut into data tiles that follow the loop tiles through its
//!   reference matrix, aligned so that the tile a processor's iterations
//!   reference is the tile stored in its local memory module.  The
//!   alignment offset is the class's component-wise median offset — the
//!   minimizer of the cumulative spread `a⁺` (footnote 2).
//! * **Placement** ([`mesh_placement`]) — virtual processors (grid
//!   coordinates) are embedded in Alewife's 2-D mesh; neighbouring tiles
//!   exchange boundary data, so the embedding keeps grid neighbours at
//!   small hop distance.
//!
//! The decisions are made here; their descriptions, [`ArrayPartition`]
//! and [`MeshPlacement`], live in `alp-loopir`, where the simulator
//! reads them.

use alp_footprint::classify;
use alp_linalg::IVec;
use alp_loopir::LoopNest;
pub use alp_loopir::{mesh_placement, ArrayPartition, MeshPlacement};
use std::collections::HashSet;

/// Derive aligned data partitions from a rectangular loop partition
/// (tile extents `lambda`, one loop tile per processor).
///
/// Each array follows its *first* uniformly intersecting class (the one
/// carrying most reuse), with the median member offset `ā`.  Array
/// dimension `k` is distributed when column `k` of `G` has exactly one
/// nonzero `G_rk`, in a loop dimension `r` no earlier column claimed:
/// data tile `c` along `k` then holds what the median-offset reference
/// touches from loop tile `c` along `r` — origin `lo_r·G_rk + ā_k`,
/// signed period `(λ_r+1)·G_rk`.  A constant, mixed (several loop
/// indices) or already-claimed column is not distributed, nor is one
/// whose tile does not fit `i128` (its array has no layout either).
pub fn align_arrays(nest: &LoopNest, lambda: &[i128]) -> Vec<ArrayPartition> {
    let mut seen = HashSet::new();
    classify(nest)
        .into_iter()
        .filter(|class| seen.insert(class.array.clone()))
        .map(|class| {
            let offset = IVec(
                (0..class.g.cols())
                    .map(|k| {
                        let mut col: Vec<i128> = class.offsets.iter().map(|a| a[k]).collect();
                        col.sort_unstable();
                        col[col.len() / 2]
                    })
                    .collect(),
            );
            let mut part = ArrayPartition {
                array: class.array,
                tile_extents: Vec::new(),
                dims: Vec::new(),
                offset,
                owner: Vec::new(),
                origin: Vec::new(),
                period: Vec::new(),
            };
            for k in 0..class.g.cols() {
                let col = class.g.col(k);
                let mut nonzero = (0..col.len()).filter(|&r| col[r] != 0);
                let (Some(r), None) = (nonzero.next(), nonzero.next()) else {
                    continue;
                };
                if part.owner.contains(&r) {
                    continue;
                }
                let g = col[r];
                let tile = || {
                    Some((
                        lambda[r].checked_mul(g.abs())?,
                        nest.loops[r]
                            .lower
                            .checked_mul(g)?
                            .checked_add(part.offset[k])?,
                        lambda[r].checked_add(1)?.checked_mul(g)?,
                    ))
                };
                let Some((extent, origin, period)) = tile() else {
                    continue;
                };
                part.tile_extents.push(extent);
                part.dims.push(k);
                part.owner.push(r);
                part.origin.push(origin);
                part.period.push(period);
            }
            part
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    #[test]
    fn align_stencil() {
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = A[i-1,j] + A[i+1,j] + A[i,j-1] + A[i,j+1];
             } }",
        )
        .unwrap();
        let parts = align_arrays(&nest, &[7, 15]);
        assert_eq!(parts.len(), 1);
        let a = &parts[0];
        assert_eq!(
            a.tile_extents,
            vec![7, 15],
            "same aspect ratio as loop tiles"
        );
        assert_eq!(
            a.offset,
            IVec::new(&[0, 0]),
            "median of {{-1,0,0,0,1}} per dim"
        );
        // Loop tiles start at 1 and step by λ+1.
        assert_eq!(
            (a.owner.clone(), a.origin.clone()),
            (vec![0, 1], vec![1, 1])
        );
        assert_eq!(a.period, vec![8, 16]);
    }

    #[test]
    fn mixed_and_repeated_columns_are_not_distributed() {
        // B[i+j, j]: column 0 mixes i and j; only dimension 1 follows a
        // loop tile.  C[i, 2*i, j]: column 1 repeats i, which column 0
        // already claimed.
        let nest =
            parse("doall (i, 1, 64) { doall (j, 1, 64) { A[i,j] = B[i+j,j] + C[i,2*i,j]; } }")
                .unwrap();
        let parts = align_arrays(&nest, &[8, 4]);
        let b = parts.iter().find(|p| p.array == "B").unwrap();
        assert_eq!((b.dims.clone(), b.tile_extents.clone()), (vec![1], vec![4]));
        assert_eq!(b.owner, vec![1]);
        let c = parts.iter().find(|p| p.array == "C").unwrap();
        assert_eq!((c.dims.clone(), c.owner.clone()), (vec![0, 2], vec![0, 1]));
    }

    #[test]
    fn reversed_and_strided_subscripts_keep_their_sign() {
        // B[257-i]: tile 0 holds 256 down to 193; B[2*j+1]: 3, 5, …, 17.
        let nest =
            parse("doall (i, 1, 256) { doall (j, 1, 32) { A[i,j] = B[257-i] + C[2*j+1]; } }")
                .unwrap();
        let parts = align_arrays(&nest, &[63, 7]);
        let b = parts.iter().find(|p| p.array == "B").unwrap();
        assert_eq!((b.origin.clone(), b.period.clone()), (vec![256], vec![-64]));
        assert_eq!(b.tile_extents, vec![63]);
        let c = parts.iter().find(|p| p.array == "C").unwrap();
        assert_eq!((c.origin.clone(), c.period.clone()), (vec![3], vec![16]));
        assert_eq!(c.tile_extents, vec![14]);
    }

    #[test]
    fn align_offset_median() {
        let nest = parse("doall (i, 1, 64) { A[i] = A[i+4] + A[i+6]; }").unwrap();
        let parts = align_arrays(&nest, &[15]);
        assert_eq!(parts[0].offset, IVec::new(&[4]), "median of 0,4,6");
        assert_eq!(parts[0].origin, vec![5]);
    }
}
