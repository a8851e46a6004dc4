//! The plans the integration tests simulate, each a `PartitionPlan` that
//! `alp-cli run --from-plan` could run: a grid's rectangles and the
//! slabs along a hyperplane normal.
#![allow(dead_code)] // each test crate uses its own share

use alp::prelude::*;

/// The rectangular plan of `grid` over `nest`, one processor a tile,
/// recorded as the planner records its own choice.
pub fn grid_plan(nest: &LoopNest, grid: &[i128]) -> PartitionPlan {
    let extents = Tiling::new(nest, None, grid).unwrap().extents();
    let partition = RectPartition {
        cost: CostModel::from_nest(nest).cost_rect(&extents),
        tile_extents: extents,
        proc_grid: grid.to_vec(),
    };
    let (p, verdict) = (grid.iter().product(), LegalityVerdict::Unchecked);
    PartitionPlan::build_with_partition(nest, p, None, verdict, partition, "grid").unwrap()
}

/// The slabs along the hyperplane normal `h` on `p` processors, as a
/// skewed plan ([`SkewedCandidate::slabs`]).
pub fn slab_plan(nest: &LoopNest, h: &IVec, p: i128) -> PartitionPlan {
    let slabs = SkewedCandidate::slabs(nest, h, p).unwrap();
    let verdict = LegalityVerdict::Unchecked;
    PartitionPlan::build_skewed(nest, p, None, verdict, &slabs, "slabs").unwrap()
}

/// Tile `t`'s iterations, in the order the machine runs them.
pub fn tile_points(tiling: &Tiling, t: usize) -> Vec<IVec> {
    let mut points = Vec::new();
    tiling.for_each_point(t, |i| {
        points.push(IVec(i.iter().map(|&x| x.into()).collect()))
    });
    points
}
