//! Per-candidate-grid features of the hybrid cost model.
//!
//! Everything here is computed *analytically* from the nest — no probe
//! runs.

use crate::tiles::{IterBox, Tiling};
use crate::PlanError;
use alp_footprint::CostModel;
use alp_linalg::{IMat, Rat};
use alp_loopir::{ArrayLayout, ElementForm, LayoutOverflow, LoopNest};

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
    /// objective's own value (Theorem 4, [`CostModel::cost_rect`]).
    pub lines: Rat,
    /// Worst-tile address envelope in cache lines: per referenced
    /// array, the span from the lowest to the highest line any
    /// reference touches anywhere in the tile, summed over arrays.
    /// Exact: each reference's [`ElementForm`] is affine, so its range
    /// over the tile box is taken coefficient by coefficient.
    pub span_lines: i128,
    /// Worst-tile iterations per repetition.
    pub iters: i128,
    /// Outer sequential repetitions of the nest.
    pub reps: i128,
}

/// The address envelope (in lines) of one tile box: for each array, the
/// min and max row-major address — counted from the array's own first
/// element — any of its references' [`ArrayLayout::form`]s takes over
/// the box, widened to whole lines and summed over arrays.  A form's
/// range over a box is exact for the unclipped box (a sound
/// over-approximation of the clipped tile) — whose corners may fall
/// outside the arrays, hence signed addresses rather than
/// [`ArrayLayout::line`].  `None` when an address does not fit `i128`.
fn span_lines(
    forms: &[(usize, i128, ElementForm)],
    arrays: usize,
    tile: &IterBox,
    line_size: u64,
) -> Option<i128> {
    let line = line_size.max(1) as i128;
    let mut envelope: Vec<Option<(i128, i128)>> = vec![None; arrays];
    for (id, base, form) in forms {
        let (lo, hi) = form.range(tile.bounds())?;
        let (lo, hi) = (lo - base, hi - base);
        let (mn, mx) = envelope[*id].unwrap_or((lo, hi));
        envelope[*id] = Some((mn.min(lo), mx.max(hi)));
    }
    let spans = envelope.iter().flatten();
    Some(spans.map(|&(mn, mx)| mx / line - mn / line + 1).sum())
}

/// Each reference's array id, array base and element form, composed
/// with `v` when the boxes live in a transformed space.
fn ref_forms(
    nest: &LoopNest,
    lay: &ArrayLayout,
    v: Option<&IMat>,
) -> Result<Vec<(usize, i128, ElementForm)>, LayoutOverflow> {
    (nest.all_refs().into_iter())
        .map(|r| {
            let id = lay.array_id(&r.array).expect("laid out from this nest");
            Ok((id, lay.base(id).into(), lay.form(r, v)?))
        })
        .collect()
}

/// Hybrid-cost features of one rectangular candidate grid: its
/// non-empty tiles and their exact iteration counts, the worst tile's
/// address span, and `lines`, the Theorem-4 cost of the grid's interior
/// tile.  Fails with [`PlanError::Infeasible`] when the nest's arrays
/// have no `u64` address space to take an envelope in.
pub fn grid_features(
    nest: &LoopNest,
    model: &CostModel,
    grid: &[i128],
    line_size: u64,
) -> Result<GridFeatures, PlanError> {
    let tiling = Tiling::new(nest, None, grid)?;
    let lay = ArrayLayout::from_nest(nest)?;
    let forms = ref_forms(nest, &lay, None)?;
    let (mut tiles, mut span, mut iters) = (0i128, 0i128, 0i128);
    for (t, bx) in tiling.boxes().iter().enumerate() {
        let points = tiling.points(t);
        if points == 0 {
            continue;
        }
        let tile_span = span_lines(&forms, lay.array_count(), bx, line_size)
            .ok_or_else(|| PlanError::Infeasible("tile addresses overflow i128".into()))?;
        tiles += 1;
        span = span.max(tile_span);
        iters = iters.max(points.into());
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
        lines: model.cost_rect(&tiling.extents()),
        span_lines: span,
        iters,
        reps: nest.seq_repetitions(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    fn example2() -> LoopNest {
        // The skewed nest whose two features disagree: strips [1,16]
        // minimize lines, blocks [4,4] minimize span.
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
        // ...but their per-tile address envelope is far wider.
        assert!(
            strips.span_lines > 2 * blocks.span_lines,
            "strips span {} vs blocks span {}",
            strips.span_lines,
            blocks.span_lines
        );
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
        let lay = ArrayLayout::from_nest(&nest).unwrap();
        let forms = ref_forms(&nest, &lay, Some(skewed.transform.v())).unwrap();
        let worst = (tiling.boxes().iter().enumerate())
            .filter(|&(t, _)| tiling.points(t) > 0)
            .map(|(_, bx)| span_lines(&forms, lay.array_count(), bx, 1).unwrap())
            .max();
        assert_eq!(worst, Some(264_845));
    }

    /// The enumeration `span_lines` used to run: every reference
    /// interpreted at all `2^depth` corners of the box (mapped back
    /// through `v`), array-relative, min and max per array.
    fn span_by_corners(nest: &LoopNest, tile: &IterBox, v: Option<&IMat>, line: i128) -> i128 {
        let (lay, depth) = (ArrayLayout::from_nest(nest).unwrap(), tile.lo.len());
        let mut envelope = vec![None; lay.array_count()];
        for mask in 0u32..(1 << depth) {
            let at = |k: usize| i128::from([tile.lo[k], tile.hi[k]][(mask >> k & 1) as usize]);
            let j = alp_linalg::IVec((0..depth).map(at).collect());
            let corner = v.map_or(j.clone(), |v| v.apply_row(&j).unwrap());
            for r in nest.all_refs() {
                let id = lay.array_id(&r.array).unwrap();
                // Row-major by hand: strides are the suffix products of
                // the extents' widths.
                let mut addr = 0i128;
                for (&x, &(lo, hi)) in r.eval(&corner).0.iter().zip(lay.extents(id)) {
                    addr = addr * (hi - lo + 1) + (x - lo);
                }
                let (mn, mx) = envelope[id].unwrap_or((addr, addr));
                envelope[id] = Some((mn.min(addr), mx.max(addr)));
            }
        }
        let spans = envelope.iter().flatten();
        spans
            .map(|&(mn, mx): &(i128, i128)| mx / line - mn / line + 1)
            .sum()
    }

    #[test]
    fn span_is_the_envelope_of_the_box_corners() {
        let nest = example2();
        let config = alp_partition::ParaSearchConfig::default();
        let skewed = crate::skewed_candidates(&nest, 16, &config).unwrap();
        let rect = [vec![4, 4], vec![1, 16], vec![3, 5]].map(|g| (None, g));
        let skew = skewed
            .iter()
            .take(3)
            .map(|c| (Some(&c.transform), c.grid.clone()));
        for (transform, grid) in rect.into_iter().chain(skew) {
            let tiling = Tiling::new(&nest, transform, &grid).unwrap();
            let v = transform.map(crate::Transform::v);
            let lay = ArrayLayout::from_nest(&nest).unwrap();
            let forms = ref_forms(&nest, &lay, v).unwrap();
            for line in [1u64, 8] {
                for (t, bx) in tiling.boxes().iter().enumerate() {
                    if tiling.points(t) == 0 {
                        continue;
                    }
                    let span = span_lines(&forms, lay.array_count(), bx, line).unwrap();
                    assert_eq!(span, span_by_corners(&nest, bx, v, line.into()), "{grid:?}");
                }
            }
        }
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
    fn features_count_every_tile_and_its_iterations() {
        let nest = example2();
        let model = CostModel::from_nest(&nest);
        let f = grid_features(&nest, &model, &[4, 4], 1).unwrap();
        // A 512/4 × 512/4 split: 16 tiles of 128×128 iterations.
        assert_eq!((f.tiles, f.iters), (16, 128 * 128));
    }
}
