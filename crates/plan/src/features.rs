//! Per-candidate-grid features of the hybrid cost model.
//!
//! Everything here is computed *analytically* from the nest — no probe
//! runs — so the same features score candidates at plan time and label
//! probe measurements at calibration time.

use crate::tiles::{IterBox, Tiling};
use crate::PlanError;
use alp_footprint::CostModel;
use alp_linalg::{IMat, IVec, Rat};
use alp_loopir::{ArrayLayout, LoopNest};

/// The feature vector the hybrid cost model scores one candidate
/// processor grid by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridFeatures {
    /// The candidate processor grid (one factor per parallel loop).
    pub grid: Vec<i128>,
    /// Interior tile extents `λ_k` (inclusive): the tiling's chunk
    /// sizes minus one.
    pub tile_extents: Vec<i128>,
    /// Non-empty tiles in the partition.
    pub tiles: i128,
    /// Modeled worst-tile cumulative footprint — the analytic
    /// objective's own value (Theorem 4 / [`CostModel::cost_rect`] for
    /// a rectangular candidate).
    pub lines: Rat,
    /// Worst-tile address envelope in cache lines: per referenced
    /// array, the span from the lowest to the highest line any
    /// reference touches anywhere in the tile, summed over arrays.
    /// Affine subscripts reach their extremes at tile-box corners, so
    /// the envelope is exact from `2^depth` corner evaluations.
    pub span_lines: i128,
    /// Worst-tile iterations per repetition.
    pub iters: i128,
    /// Outer sequential repetitions of the nest.
    pub reps: i128,
}

/// The address envelope (in lines) of one tile box: for each array, the
/// min and max row-major address any reference evaluates to at any
/// corner of the box, widened to whole lines and summed over arrays.
///
/// With `v = U⁻¹` the box lives in the transformed `j = i·U` space and
/// its corners are mapped back through `v` before evaluating the
/// references, so the envelope is taken over the pre-image
/// parallelepiped.  Affine subscripts composed with a linear map are
/// still affine in `j`, so corner evaluation stays exact for the
/// unclipped box (a sound over-approximation of the clipped tile) —
/// whose corners may fall outside the arrays, hence signed addresses
/// from the layout's strides rather than [`ArrayLayout::line`].
fn span_lines(
    nest: &LoopNest,
    layout: &ArrayLayout,
    tile: &IterBox,
    v: Option<&IMat>,
    line_size: u64,
) -> i128 {
    let depth = tile.lo.len();
    let line = line_size.max(1) as i128;
    let mut envelope: Vec<Option<(i128, i128)>> = vec![None; layout.array_count()];
    for mask in 0u32..(1u32 << depth) {
        let at = |k: usize| {
            i128::from(if mask & (1 << k) != 0 {
                tile.hi[k]
            } else {
                tile.lo[k]
            })
        };
        let corner = IVec(match v {
            None => (0..depth).map(at).collect(),
            Some(v) => (0..depth)
                .map(|d| (0..depth).map(|k| at(k) * v[(k, d)]).sum())
                .collect(),
        });
        for r in nest.all_refs() {
            let Some(id) = layout.array_id(&r.array) else {
                continue;
            };
            let subs = r.eval(&corner);
            let addr: i128 = (subs.0.iter())
                .zip(layout.extents(id))
                .zip(layout.strides(id))
                .map(|((&s, &(lo, _)), &st)| (s - lo) * i128::from(st))
                .sum();
            let (mn, mx) = envelope[id].unwrap_or((addr, addr));
            envelope[id] = Some((mn.min(addr), mx.max(addr)));
        }
    }
    envelope
        .iter()
        .flatten()
        .map(|&(mn, mx)| mx / line - mn / line + 1)
        .sum()
}

/// Per-tile `(span, iters)` labels for every tile of one tiling, indexed
/// like the executor's tile numbering (`None` for a tile that owns no
/// iteration) — the labels probe measurements are fitted against.  `v`
/// is the inverse of the transform the tiling was built with, if any.
/// Fails with [`PlanError::Infeasible`] when the nest's arrays have no
/// `u64` address space to take an envelope in.
pub fn per_tile_features(
    nest: &LoopNest,
    tiling: &Tiling,
    v: Option<&IMat>,
    line_size: u64,
) -> Result<Vec<Option<(i128, i128)>>, PlanError> {
    let lay = ArrayLayout::from_nest(nest)?;
    Ok((tiling.boxes().iter().enumerate())
        .map(|(t, bx)| {
            let points = tiling.points(t);
            (points > 0).then(|| (span_lines(nest, &lay, bx, v, line_size), points.into()))
        })
        .collect())
}

/// Hybrid-cost features of one candidate tiling, rectangular or skewed:
/// tiles are `grid` cells of `tiling` (rectangular in the transformed
/// `j = i·U` space when it was built with a transform, whose inverse is
/// `v`), iterations are counted exactly, and `lines` is the analytic
/// objective's value for the candidate — Theorem 4 for a rectangular
/// one, the parallelepiped Eq.-2 cost for a skewed one.  One feature
/// vector shape scores both, so one fitted latency model ranks both
/// classes.
pub fn features(
    nest: &LoopNest,
    tiling: &Tiling,
    v: Option<&IMat>,
    grid: &[i128],
    lines: Rat,
    line_size: u64,
) -> Result<GridFeatures, PlanError> {
    let (mut tiles, mut span_lines, mut iters) = (0i128, 0i128, 0i128);
    for (span, points) in per_tile_features(nest, tiling, v, line_size)?
        .into_iter()
        .flatten()
    {
        tiles += 1;
        span_lines = span_lines.max(span);
        iters = iters.max(points);
    }
    if tiles == 0 {
        return Err(PlanError::BadGrid(format!(
            "grid {grid:?} produces no non-empty tiles"
        )));
    }
    Ok(GridFeatures {
        grid: grid.to_vec(),
        tile_extents: tiling.extents(),
        tiles,
        lines,
        span_lines,
        iters,
        reps: nest.seq_repetitions(),
    })
}

/// [`features`] of one rectangular candidate grid, its analytic lines
/// the Theorem-4 cost of the grid's interior tile.
pub fn grid_features(
    nest: &LoopNest,
    model: &CostModel,
    grid: &[i128],
    line_size: u64,
) -> Result<GridFeatures, PlanError> {
    let tiling = Tiling::new(nest, None, grid)?;
    let lines = model.cost_rect(&tiling.extents());
    features(nest, &tiling, None, grid, lines, line_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    fn example2() -> LoopNest {
        // The skewed nest whose measured ordering inverts the analytic
        // one: strips [1,16] minimize lines, blocks [4,4] minimize span.
        parse(
            "doall (i, 101, 612) { doall (j, 1, 512) {
               A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
             } }",
        )
        .unwrap()
    }

    #[test]
    fn strips_have_fewer_lines_but_wider_span_than_blocks() {
        let nest = example2();
        let model = CostModel::from_nest(&nest);
        let strips = grid_features(&nest, &model, &[1, 16], 1).unwrap();
        let blocks = grid_features(&nest, &model, &[4, 4], 1).unwrap();
        assert_eq!(strips.tiles, 16);
        assert_eq!(blocks.tiles, 16);
        assert_eq!(strips.reps, 1);
        // The analytic objective prefers strips...
        assert!(
            strips.lines < blocks.lines,
            "{:?} vs {:?}",
            strips.lines,
            blocks.lines
        );
        // ...but their per-tile address envelope is far wider — the
        // signal the measured inversion rides on.
        assert!(
            strips.span_lines > 2 * blocks.span_lines,
            "strips span {} vs blocks span {}",
            strips.span_lines,
            blocks.span_lines
        );
    }

    #[test]
    fn identity_transform_candidate_has_the_rectangular_features() {
        // One extractor: the same grid tiled through the identity
        // transform (clipped walk, corners mapped through V = I) yields
        // the rectangular tile count, span and iteration features.
        let nest = example2();
        let model = CostModel::from_nest(&nest);
        let identity =
            crate::Transform::new(IMat::identity(2), crate::fingerprint_hex(&nest)).unwrap();
        for grid in [[4, 4], [1, 16], [3, 5]] {
            let rect = grid_features(&nest, &model, &grid, 1).unwrap();
            let tiling = Tiling::new(&nest, Some(&identity), &grid).unwrap();
            let skew = features(&nest, &tiling, Some(identity.v()), &grid, rect.lines, 1).unwrap();
            assert_eq!(skew, rect);
        }
    }

    #[test]
    fn span_lines_on_the_paper_examples_are_pinned() {
        // Read off the parent commit, before `span_lines` moved from a
        // private layout twin onto the shared `ArrayLayout`: Examples 2,
        // 8 and 10 under their 16- / 64- / 16-tile block grids, and
        // Example 2's first skewed candidate (corners outside the
        // arrays, so negative addresses are in play).
        let example8 = "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
               A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
             } } }";
        let example10 = "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                      + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1];
             } }";
        for (nest, grid, unit_lines, eight_elem_lines) in [
            (example2(), &[4, 4][..], 330_123, 41_267),
            (parse(example8).unwrap(), &[4, 4, 4], 140_764, 17_596),
            (parse(example10).unwrap(), &[4, 4], 407_845, 50_982),
        ] {
            let model = CostModel::from_nest(&nest);
            let span = |line| grid_features(&nest, &model, grid, line).unwrap().span_lines;
            assert_eq!((span(1), span(8)), (unit_lines, eight_elem_lines));
        }
        let nest = example2();
        let config = alp_partition::ParaSearchConfig::default();
        let skewed = &crate::skewed_candidates(&nest, 16, &config).unwrap()[0];
        assert_eq!(skewed.grid, [8, 4]);
        let tiling = Tiling::new(&nest, Some(&skewed.transform), &skewed.grid).unwrap();
        let v = Some(skewed.transform.v());
        let f = features(&nest, &tiling, v, &skewed.grid, Rat::ZERO, 1).unwrap();
        assert_eq!(f.span_lines, 264_845);
    }

    #[test]
    fn span_respects_line_size() {
        let nest = example2();
        let model = CostModel::from_nest(&nest);
        let l1 = grid_features(&nest, &model, &[4, 4], 1).unwrap().span_lines;
        let l8 = grid_features(&nest, &model, &[4, 4], 8).unwrap().span_lines;
        assert!(l8 < l1 && l8 >= l1 / 8, "1-elem {l1} vs 8-elem {l8}");
    }

    #[test]
    fn per_tile_features_align_with_tiles() {
        let nest = example2();
        let tiling = Tiling::new(&nest, None, &[4, 4]).unwrap();
        let per = per_tile_features(&nest, &tiling, None, 1).unwrap();
        assert_eq!(per.len(), 16);
        assert!(per.iter().all(|f| f.is_some()));
        // Interior tiles of a 512/4 × 512/4 split: 128×128 iterations.
        assert_eq!(per[0].unwrap().1, 128 * 128);
    }
}
