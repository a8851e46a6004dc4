//! Rectangular loop partitioning (§3.6, §3.7; Examples 8–10).

use alp_footprint::CostModel;
use alp_linalg::{max_independent_columns, solve_rational, Rat};
use alp_loopir::LoopNest;

/// A rectangular partition of the iteration space among `P` processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RectPartition {
    /// Processors along each loop dimension (`Π = P`, up to the divisor
    /// structure of `P`).
    pub proc_grid: Vec<i128>,
    /// Tile extent `λ_k` per dimension (inclusive; a tile spans
    /// `λ_k + 1` iterations, clipped at the iteration-space boundary).
    pub tile_extents: Vec<i128>,
    /// The model cost (estimated cumulative footprint) of one tile.
    pub cost: Rat,
}

impl RectPartition {
    /// Total number of tiles.
    pub fn tiles(&self) -> i128 {
        self.proc_grid.iter().product()
    }
}

/// The closed-form (continuous) optimal aspect ratio of §3.6.
///
/// When every shape-dependent class reduces (§3.4.1) to a square
/// nonsingular `G`, Theorem 4 makes the footprint
/// `V + Σ_i c_i·Π_{j≠i}(λ_j+1)` with `c_i = Σ_classes |u_i|`, and Lagrange
/// multipliers give `λ_i ∝ c_i` (Example 8's `L_i:L_j:L_k :: 2:3:4`).
///
/// Returns `None` when some active class is rank-deficient (no product
/// form — the caller should fall back to the discrete search of
/// [`partition_rect`]) or when every class is shape-invariant (any shape
/// is optimal).  Dimensions with `c_i = 0` attract no traffic; they are
/// reported as `0` and should be given as much extent as possible.
pub fn optimal_aspect_ratio(model: &CostModel) -> Option<Vec<Rat>> {
    aspect_ratio_with_spread(model, SpreadKind::MaxMin)
}

/// Which spread formulation drives the coefficients (Def. 8 vs
/// footnote 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpreadKind {
    /// `â = max − min` — the cache formulation: data between the extremes
    /// is dynamically cached, so only the envelope costs.
    MaxMin,
    /// `a⁺ = Σ |offset − median|` — the data-partitioning formulation
    /// (footnote 2): without caching, every reference displaced from the
    /// home tile pays on every access.
    Cumulative,
}

/// [`optimal_aspect_ratio`] generalized over the spread formulation.
///
/// `SpreadKind::Cumulative` gives the tile aspect ratio for **data
/// partitioning** on machines whose remote accesses are never cached
/// locally (footnote 2 of the paper).
pub fn aspect_ratio_with_spread(model: &CostModel, kind: SpreadKind) -> Option<Vec<Rat>> {
    let l = model.depth();
    let mut coeffs = vec![Rat::ZERO; l];
    let mut any_active = false;
    for cc in model.active_classes() {
        any_active = true;
        let g = &cc.class.g;
        let keep = max_independent_columns(g);
        let g_red = g.select_columns(&keep);
        if g_red.rows() != g_red.cols() || !g_red.is_nonsingular() {
            return None;
        }
        let spread = match kind {
            SpreadKind::MaxMin => cc.class.spread(),
            SpreadKind::Cumulative => cc.class.cumulative_spread(),
        };
        let spread_red = alp_linalg::IVec(keep.iter().map(|&k| spread[k]).collect());
        let u = solve_rational(&g_red, &spread_red)?;
        for (i, ui) in u.iter().enumerate() {
            coeffs[i] = coeffs[i] + ui.abs();
        }
    }
    if !any_active {
        return None;
    }
    Some(coeffs)
}

/// §2.2's small-cache adjustment: keep the optimal aspect *ratio* but
/// shrink the block a processor executes at one time until its modeled
/// footprint fits the cache.
///
/// Returns the largest extents `λ` with `λ_k + 1 ≈ scale · ratio_k`,
/// clipped to `max_extents`, whose `model.cost_rect` does not exceed
/// `capacity` (in cache lines / elements).  Dimensions with zero ratio
/// coefficient get their full extent (traffic-free directions are free
/// to keep).  Returns `None` if even the 1-iteration block overflows.
///
/// # Panics
/// Panics on dimension mismatches or `capacity < 1`.
pub fn cache_blocked_extents(
    model: &CostModel,
    ratio: &[Rat],
    capacity: i128,
    max_extents: &[i128],
) -> Option<Vec<i128>> {
    assert!(capacity >= 1, "capacity must be positive");
    assert_eq!(ratio.len(), max_extents.len(), "dimension mismatch");
    assert_eq!(ratio.len(), model.depth(), "model depth mismatch");
    let l = ratio.len();
    let extents_for = |scale: f64| -> Vec<i128> {
        (0..l)
            .map(|k| {
                let r = ratio[k].to_f64();
                if r <= 0.0 {
                    max_extents[k]
                } else {
                    (((r * scale).floor() as i128) - 1).clamp(0, max_extents[k])
                }
            })
            .collect()
    };
    // Binary search the largest feasible scale.
    let fits = |scale: f64| model.cost_rect(&extents_for(scale)) <= Rat::int(capacity);
    if !fits(
        1.0 / ratio
            .iter()
            .map(|r| r.to_f64())
            .fold(f64::INFINITY, f64::min)
            .max(1e-9),
    ) {
        // Even the smallest nonzero block may overflow; check the unit block.
        let unit = vec![0i128; l];
        if model.cost_rect(&unit) > Rat::int(capacity) {
            return None;
        }
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while fits(hi) && extents_for(hi) != max_extents.to_vec() {
        lo = hi;
        hi *= 2.0;
        if hi > 1e9 {
            break;
        }
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let ext = extents_for(lo);
    if model.cost_rect(&ext) <= Rat::int(capacity) {
        Some(ext)
    } else {
        let unit = vec![0i128; l];
        (model.cost_rect(&unit) <= Rat::int(capacity)).then_some(unit)
    }
}

/// All ordered factorizations of `p` into `dims` positive factors.
pub fn factorizations(p: i128, dims: usize) -> Vec<Vec<i128>> {
    fn rec(p: i128, dims: usize, acc: &mut Vec<i128>, out: &mut Vec<Vec<i128>>) {
        if dims == 1 {
            acc.push(p);
            out.push(acc.clone());
            acc.pop();
            return;
        }
        let mut d = 1;
        while d * d <= p {
            if p % d == 0 {
                for f in [d, p / d] {
                    acc.push(f);
                    rec(p / f, dims - 1, acc, out);
                    acc.pop();
                    if d * d == p {
                        break; // avoid the duplicate (d, p/d) pair
                    }
                }
            }
            d += 1;
        }
        out.sort();
        out.dedup();
    }
    let mut out = Vec::new();
    if p >= 1 && dims >= 1 {
        rec(p, dims, &mut Vec::new(), &mut out);
    }
    out
}

/// The candidate set of the rectangular search: every ordered
/// factorization of `p` over the nest's parallel loops in which no
/// dimension gets more processors than iterations (`g_k ≤ n_k`), each
/// with its interior tile extents `λ_k = ⌈n_k / g_k⌉ − 1`.  Empty when
/// `p < 1`, the nest has no parallel loops, or no factorization fits.
pub fn feasible_grids(nest: &LoopNest, p: i128) -> Vec<(Vec<i128>, Vec<i128>)> {
    let trips: Vec<i128> = nest.loops.iter().map(|lp| lp.trip_count()).collect();
    factorizations(p, nest.depth())
        .into_iter()
        .filter(|grid| grid.iter().zip(&trips).all(|(&g, &n)| g <= n))
        .map(|grid| {
            let extents = (grid.iter().zip(&trips))
                .map(|(&g, &n)| (n + g - 1) / g - 1)
                .collect();
            (grid, extents)
        })
        .collect()
}

/// The discrete rectangular partitioner implemented in the Alewife
/// compiler subset (§4): evaluate the Theorem-4 cost model on every
/// candidate of [`feasible_grids`] and keep the cheapest (the first
/// one, on ties).  `None` when the candidate set is empty.
///
/// # Panics
/// Panics if the model was built for a different depth.
pub fn try_partition_rect(nest: &LoopNest, p: i128, model: &CostModel) -> Option<RectPartition> {
    assert_eq!(model.depth(), nest.depth(), "model depth mismatch");
    // `min_by_key` keeps the first of several equal minima.
    feasible_grids(nest, p)
        .into_iter()
        .map(|(proc_grid, tile_extents)| RectPartition {
            cost: model.cost_rect(&tile_extents),
            proc_grid,
            tile_extents,
        })
        .min_by_key(|c| c.cost)
}

/// [`try_partition_rect`] under the nest's own Theorem-4 model.
///
/// # Panics
/// Panics if the nest has no feasible grid for `p` processors: `p < 1`,
/// no parallel loops, or every factorization of `p` puts more
/// processors than iterations on some loop.
pub fn partition_rect(nest: &LoopNest, p: i128) -> RectPartition {
    partition_rect_with_model(nest, p, &CostModel::from_nest(nest))
}

/// [`partition_rect`] with a caller-supplied cost model — e.g. one
/// carrying an Appendix-A synchronization weight
/// ([`CostModel::with_sync_weight`]) or other customizations.
///
/// # Panics
/// Panics like [`partition_rect`], or if the model was built for a
/// different depth.
pub fn partition_rect_with_model(nest: &LoopNest, p: i128, model: &CostModel) -> RectPartition {
    try_partition_rect(nest, p, model).expect("no feasible processor grid for this nest")
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    #[test]
    fn factorizations_basics() {
        let mut f = factorizations(12, 2);
        f.sort();
        assert_eq!(
            f,
            vec![
                vec![1, 12],
                vec![2, 6],
                vec![3, 4],
                vec![4, 3],
                vec![6, 2],
                vec![12, 1]
            ]
        );
        assert_eq!(factorizations(7, 1), vec![vec![7]]);
        assert_eq!(factorizations(1, 3), vec![vec![1, 1, 1]]);
        assert_eq!(factorizations(8, 3).len(), 10);
    }

    #[test]
    fn example8_aspect_ratio_2_3_4() {
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
               A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
             } } }",
        )
        .unwrap();
        let model = CostModel::from_nest(&nest);
        let ratio = optimal_aspect_ratio(&model).unwrap();
        // L_i : L_j : L_k :: 2 : 3 : 4 (Example 8, matching Abraham-Hudak).
        assert_eq!(ratio, vec![Rat::int(2), Rat::int(3), Rat::int(4)]);
    }

    #[test]
    fn example9_aspect_ratio() {
        // Example 9: two active classes.  B contributes |u| = (2,1), C
        // contributes |u| = (2,3)... in det form the traffic is
        // 4L11 + 4L22 (the memo's printed 4L11 = 6L22 does not match
        // exact enumeration; see EXPERIMENTS.md).  Our coefficients:
        // B: u = (2,1); C: u solves u·[[1,0],[1,1]] = (1,3) -> u = (-2,3),
        // |u| = (2,3).  c = (4,4) -> square tiles.
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = B[i-2,j] + B[i,j-1] + C[i+j,j] + C[i+j+1,j+3];
             } }",
        )
        .unwrap();
        let model = CostModel::from_nest(&nest);
        let ratio = optimal_aspect_ratio(&model).unwrap();
        assert_eq!(ratio, vec![Rat::int(4), Rat::int(4)]);
    }

    #[test]
    fn example10_aspect_ratio() {
        // Example 10: B class u = (3,1); C pair class (reduced) u = (0,1).
        // c = (3, 2): minimize 3(L_j+1) + 2(L_i+1)... the paper phrases
        // the optimum as 2L_i = 3L_j + 1 via the +1-corrected products;
        // the continuous ratio is λ_i : λ_j :: 3 : 2.
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                      + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1];
             } }",
        )
        .unwrap();
        let model = CostModel::from_nest(&nest);
        let ratio = optimal_aspect_ratio(&model).unwrap();
        assert_eq!(ratio, vec![Rat::int(3), Rat::int(2)]);
    }

    #[test]
    fn partition_rect_example8() {
        // 64^3 iterations over 64 processors: the discrete optimizer
        // should pick a grid whose tiles are close to 2:3:4.
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
               A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
             } } }",
        )
        .unwrap();
        let part = partition_rect(&nest, 64);
        assert_eq!(part.tiles(), 64);
        // The best grid concentrates processors along i (smallest tile
        // side on the dimension with the smallest spread coefficient).
        let (gi, gj, gk) = (part.proc_grid[0], part.proc_grid[1], part.proc_grid[2]);
        assert!(gi >= gj && gj >= gk, "grid {:?}", part.proc_grid);
        // Sanity: beats the worst (slab) partition.
        let model = CostModel::from_nest(&nest);
        let slab = model.cost_rect(&[0, 63, 63]);
        assert!(part.cost < slab);
    }

    #[test]
    fn partition_rect_example2_matches_paper() {
        // Example 2: 100 processors, 100x100 iterations.  The paper's
        // partition a (strips along i) wins with 104 B-misses.
        let nest = parse(
            "doall (i, 101, 200) { doall (j, 1, 100) {
               A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
             } }",
        )
        .unwrap();
        let part = partition_rect(&nest, 100);
        assert_eq!(part.proc_grid, vec![1, 100], "full i-extent strips");
        assert_eq!(part.tile_extents, vec![99, 0]);
    }

    #[test]
    fn feasible_grids_are_the_factorizations_that_fit() {
        let nest = parse(
            "doall (i, 101, 612) { doall (j, 1, 512) {
               A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
             } }",
        )
        .unwrap();
        let grids = feasible_grids(&nest, 16);
        assert_eq!(grids.len(), factorizations(16, 2).len());
        assert!(grids.contains(&(vec![1, 16], vec![511, 31])));
        assert!(grids.contains(&(vec![4, 4], vec![127, 127])));
        // A factor above the trip count is filtered; when every
        // factorization has one, nothing is left.
        let tiny = parse("doall (i, 0, 3) { doall (j, 0, 63) { A[i,j] = A[i,j]; } }").unwrap();
        assert!(feasible_grids(&tiny, 8).iter().all(|(g, _)| g[0] <= 4));
        let three = parse("doall (i, 0, 2) { A[i] = B[i]; }").unwrap();
        assert!(feasible_grids(&three, 4).is_empty());
        assert_eq!(
            try_partition_rect(&three, 4, &CostModel::from_nest(&three)),
            None
        );
        assert!(feasible_grids(&three, 0).is_empty());
    }

    #[test]
    fn partition_rect_is_the_first_minimum_over_feasible_grids() {
        // Examples 2, 8, 9 and 10, at processor counts with many ties.
        for (src, p) in [
            (
                "doall (i, 101, 200) { doall (j, 1, 100) {
                   A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]; } }",
                100,
            ),
            (
                "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
                   A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]; } } }",
                64,
            ),
            (
                "doall (i, 1, 64) { doall (j, 1, 64) {
                   A[i,j] = B[i-2,j] + B[i,j-1] + C[i+j,j] + C[i+j+1,j+3]; } }",
                16,
            ),
            (
                "doall (i, 1, 64) { doall (j, 1, 64) {
                   A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                          + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1]; } }",
                24,
            ),
        ] {
            let nest = parse(src).unwrap();
            let model = CostModel::from_nest(&nest);
            let grids = feasible_grids(&nest, p);
            let costs: Vec<Rat> = grids.iter().map(|(_, e)| model.cost_rect(e)).collect();
            let min = *costs.iter().min().unwrap();
            let first = costs.iter().position(|c| *c == min).unwrap();
            let best = RectPartition {
                proc_grid: grids[first].0.clone(),
                tile_extents: grids[first].1.clone(),
                cost: min,
            };
            assert_eq!(partition_rect(&nest, p), best);
        }
    }

    #[test]
    fn single_processor_takes_everything() {
        let nest = parse("doall (i, 0, 9) { A[i] = A[i+1]; }").unwrap();
        let part = partition_rect(&nest, 1);
        assert_eq!(part.proc_grid, vec![1]);
        assert_eq!(part.tile_extents, vec![9]);
    }

    #[test]
    fn more_processors_than_iterations_in_one_dim() {
        // 4 iterations of i, 8 processors: grid (4, 2) is forced over
        // (8, 1).
        let nest = parse("doall (i, 0, 3) { doall (j, 0, 63) { A[i,j] = A[i,j+1]; } }").unwrap();
        let part = partition_rect(&nest, 8);
        assert!(part.proc_grid[0] <= 4);
        assert_eq!(part.tiles(), 8);
    }

    #[test]
    fn aspect_ratio_none_for_rank_deficient() {
        let nest = parse("doall (i, 0, 9) { doall (j, 0, 9) { A[i+j] = A[i+j+2]; } }").unwrap();
        let model = CostModel::from_nest(&nest);
        assert!(optimal_aspect_ratio(&model).is_none());
        // The discrete search still works: prefer tiles stretched along
        // the diagonal-collapsing direction... both dims symmetric here,
        // so just check it runs.
        let part = partition_rect(&nest, 4);
        assert_eq!(part.tiles(), 4);
    }

    #[test]
    fn cache_blocking_respects_capacity_and_ratio() {
        // Example 8's stencil: ratio 2:3:4.  Ask for blocks fitting 1000
        // elements.
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
               A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
             } } }",
        )
        .unwrap();
        let model = CostModel::from_nest(&nest);
        let ratio = optimal_aspect_ratio(&model).unwrap();
        let ext = cache_blocked_extents(&model, &ratio, 1000, &[63, 63, 63]).unwrap();
        assert!(model.cost_rect(&ext) <= alp_linalg::Rat::int(1000));
        // Near-maximal: doubling any dimension must overflow.
        for k in 0..3 {
            let mut bigger = ext.clone();
            bigger[k] = (2 * (ext[k] + 1) - 1).min(63);
            if bigger[k] > ext[k] {
                assert!(
                    model.cost_rect(&bigger) > alp_linalg::Rat::int(1000),
                    "dim {k}: {ext:?} -> {bigger:?} still fits"
                );
            }
        }
        // Shape follows the 2:3:4 ratio approximately.
        assert!(ext[0] <= ext[1] && ext[1] <= ext[2], "{ext:?}");
    }

    #[test]
    fn cache_blocking_huge_capacity_takes_everything() {
        let nest = parse("doall (i, 0, 31) { doall (j, 0, 31) { A[i,j] = A[i+1,j+2]; } }").unwrap();
        let model = CostModel::from_nest(&nest);
        let ratio = optimal_aspect_ratio(&model).unwrap();
        let ext = cache_blocked_extents(&model, &ratio, 1_000_000, &[31, 31]).unwrap();
        assert_eq!(ext, vec![31, 31]);
    }

    #[test]
    fn cache_blocking_impossible_capacity() {
        let nest = parse("doall (i, 0, 31) { doall (j, 0, 31) { A[i,j] = B[i,j]; } }").unwrap();
        let model = CostModel::from_nest(&nest);
        // Even one iteration touches 2 elements: capacity 1 is infeasible.
        assert_eq!(
            cache_blocked_extents(&model, &[Rat::ONE, Rat::ONE], 1, &[31, 31]),
            None
        );
    }

    #[test]
    fn sync_weight_keeps_matmul_reduction_private() {
        // Fig. 11 matmul: the pure footprint objective tolerates
        // splitting k (C's footprint shrinks), but the accumulated C then
        // ping-pongs.  An Appendix-A sync weight > 1 makes the optimizer
        // keep k whole.
        let nest = parse(
            "doall (i, 1, 32) { doall (j, 1, 32) { doall (k, 1, 32) {
               l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
             } } }",
        )
        .unwrap();
        let pure = partition_rect(&nest, 16);
        assert!(
            pure.proc_grid[2] > 1,
            "pure footprint splits k: {:?}",
            pure.proc_grid
        );

        let weighted = CostModel::from_nest(&nest).with_sync_weight(alp_linalg::Rat::int(4));
        let part = partition_rect_with_model(&nest, 16, &weighted);
        assert_eq!(
            part.proc_grid[2], 1,
            "weighted model keeps k whole: {:?}",
            part.proc_grid
        );
        assert_eq!(part.proc_grid, vec![4, 4, 1]);
    }

    #[test]
    #[should_panic(expected = "sync weight must be >= 1")]
    fn sync_weight_validated() {
        let nest = parse("doall (i, 0, 3) { l$C[i] = l$C[i]; }").unwrap();
        let _ = CostModel::from_nest(&nest).with_sync_weight(alp_linalg::Rat::new(1, 2));
    }

    #[test]
    fn data_partitioning_spread_differs_from_cache_spread() {
        // Four references spaced 0, 1, 2, 3 along i: â_i = 3 but
        // a⁺_i = |0-2| + |1-2| + |2-2| + |3-2| = 4.  Along j a single pair
        // 0/2: â_j = 2, a⁺_j = 2.  Cache ratio 3:2, data ratio 4:2.
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = A[i+1,j] + A[i+2,j] + A[i+3,j+2];
             } }",
        )
        .unwrap();
        let model = CostModel::from_nest(&nest);
        let cache = aspect_ratio_with_spread(&model, SpreadKind::MaxMin).unwrap();
        let data = aspect_ratio_with_spread(&model, SpreadKind::Cumulative).unwrap();
        assert_eq!(cache, vec![Rat::int(3), Rat::int(2)]);
        assert_eq!(data, vec![Rat::int(4), Rat::int(2)]);
    }

    #[test]
    fn aspect_ratio_none_when_everything_invariant() {
        let nest = parse("doall (i, 0, 9) { doall (j, 0, 9) { A[i,j] = B[j,i]; } }").unwrap();
        let model = CostModel::from_nest(&nest);
        assert!(optimal_aspect_ratio(&model).is_none());
    }
}
