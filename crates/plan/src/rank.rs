//! Re-ranking the rectangular candidate tilings with the hybrid cost
//! model.  The planner does not call it: it is the ledger's
//! `calibrate.choose_us` probe, timed under fixed coefficients.

use crate::features::{grid_features, GridFeatures};
use crate::plan::{no_factorization, LatencyCoefficients};
use crate::PlanError;
use alp_footprint::CostModel;
use alp_linalg::Rat;
use alp_loopir::LoopNest;
use alp_partition::{feasible_grids, RectPartition};

impl LatencyCoefficients {
    /// The hybrid cost of one candidate tiling, in (model) nanoseconds:
    ///
    /// `a·tiles + reps·(b·lines + s·span + d·iters) + c·reps`
    ///
    /// Worst-tile features approximate the per-repetition critical
    /// path; the per-tile term charges dispatch overhead for the whole
    /// tile population.
    pub fn hybrid_cost(&self, f: &GridFeatures) -> Rat {
        let reps = Rat::int(f.reps);
        self.per_tile_ns * Rat::int(f.tiles)
            + reps
                * (self.per_line_ns * f.lines
                    + self.per_span_line_ns * Rat::int(f.span_lines)
                    + self.per_iter_ns * Rat::int(f.iters))
            + self.per_rep_ns * Rat::int(f.reps)
    }
}

/// One candidate tiling scored under both objectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ranked {
    /// Which candidate this is: its position in the enumeration order
    /// of [`feasible_grids`].
    pub index: usize,
    /// The hybrid-cost features (grid, extents, lines, span, …).
    pub features: GridFeatures,
    /// The analytic objective (worst-tile footprint, Theorem 4).
    pub analytic_cost: Rat,
    /// The calibrated hybrid cost, in model nanoseconds.
    pub hybrid_cost: Rat,
}

/// True when the calibration carries no candidate-discriminating
/// signal: every candidate lands on the exact same hybrid cost.  For
/// the rectangular factorizations of a fixed processor count the
/// per-tile/per-iter/per-rep terms are constant, so this happens
/// precisely when the fitted per-line *and* per-span coefficients are
/// zero — the model then ranks nothing, and any "calibrated" order out
/// of it is an artifact of sort stability rather than a prediction.
pub fn ranking_is_degenerate(ranked: &[Ranked]) -> bool {
    ranked.len() > 1
        && ranked
            .windows(2)
            .all(|w| w[0].hybrid_cost == w[1].hybrid_cost)
}

/// Score candidates under the calibrated model, best first.  A
/// degenerate calibration (all hybrid costs tied — see
/// [`ranking_is_degenerate`]) falls back to the analytic order
/// *explicitly*, and exact hybrid ties within a live calibration break
/// the same way (then by index), so a no-signal model reproduces the
/// analytic ranking instead of scrambling it.
pub fn rank(candidates: Vec<(usize, GridFeatures)>, latency: &LatencyCoefficients) -> Vec<Ranked> {
    let mut out: Vec<Ranked> = candidates
        .into_iter()
        .map(|(index, features)| Ranked {
            index,
            analytic_cost: features.lines,
            hybrid_cost: latency.hybrid_cost(&features),
            features,
        })
        .collect();
    let degenerate = ranking_is_degenerate(&out);
    out.sort_by(|a, b| {
        let hybrid = if degenerate {
            std::cmp::Ordering::Equal
        } else {
            a.hybrid_cost.cmp(&b.hybrid_cost)
        };
        hybrid
            .then_with(|| a.analytic_cost.cmp(&b.analytic_cost))
            .then_with(|| a.index.cmp(&b.index))
    });
    out
}

/// [`rank`] every feasible processor-grid factorization of `p`
/// ([`feasible_grids`]).
pub fn rank_candidates(
    nest: &LoopNest,
    model: &CostModel,
    latency: &LatencyCoefficients,
    p: i128,
    line_size: u64,
) -> Result<Vec<Ranked>, PlanError> {
    let grids = feasible_grids(nest, p);
    if grids.is_empty() {
        return Err(no_factorization(p));
    }
    let mut scored = Vec::with_capacity(grids.len());
    for (index, (grid, _)) in grids.iter().enumerate() {
        scored.push((index, grid_features(nest, model, grid, line_size)?));
    }
    Ok(rank(scored, latency))
}

/// The calibrated partitioner: like
/// [`partition_rect`](alp_partition::partition_rect) but ranked by the
/// hybrid cost.  The returned partition carries the *analytic* cost of
/// the chosen grid, so it stays comparable with uncalibrated plans.
/// With a degenerate calibration the ranking is the analytic order, so
/// the choice is exactly the analytic partitioner's (first minimum in
/// enumeration order).
pub fn choose_calibrated(
    nest: &LoopNest,
    model: &CostModel,
    latency: &LatencyCoefficients,
    p: i128,
    line_size: u64,
) -> Result<RectPartition, PlanError> {
    let ranked = rank_candidates(nest, model, latency, p, line_size)?;
    let best = &ranked[0];
    Ok(RectPartition {
        proc_grid: best.features.grid.clone(),
        tile_extents: best.features.tile_extents.clone(),
        cost: best.analytic_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;
    use alp_partition::partition_rect;

    fn example2() -> LoopNest {
        parse(
            "doall (i, 101, 612) { doall (j, 1, 512) {
               A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
             } }",
        )
        .unwrap()
    }

    fn model_with(b: (i128, i128), s: (i128, i128)) -> LatencyCoefficients {
        LatencyCoefficients {
            per_tile_ns: Rat::int(1500),
            per_line_ns: Rat::new(b.0, b.1),
            per_span_line_ns: Rat::new(s.0, s.1),
            per_iter_ns: Rat::new(3, 4),
            per_rep_ns: Rat::int(40_000),
            samples: 32,
        }
    }

    #[test]
    fn span_term_resolves_the_example2_inversion() {
        let nest = example2();
        let cost = CostModel::from_nest(&nest);
        // The analytic objective picks strips.
        assert_eq!(partition_rect(&nest, 16).proc_grid, vec![1, 16]);
        // A calibration with a meaningful span coefficient flips the
        // choice to blocks — matching what the machine measures.
        let latency = model_with((2, 1), (1, 10));
        let part = choose_calibrated(&nest, &cost, &latency, 16, 1).unwrap();
        assert_eq!(part.proc_grid, vec![4, 4]);
        // And the recorded cost is the analytic one for that grid.
        assert_eq!(part.cost, cost.cost_rect(&part.tile_extents));
    }

    #[test]
    fn zero_span_coefficient_reproduces_the_analytic_choice() {
        let nest = example2();
        let cost = CostModel::from_nest(&nest);
        let latency = model_with((2, 1), (0, 1));
        let part = choose_calibrated(&nest, &cost, &latency, 16, 1).unwrap();
        assert_eq!(part.proc_grid, partition_rect(&nest, 16).proc_grid);
    }

    #[test]
    fn all_zero_model_falls_back_to_analytic_order() {
        let nest = example2();
        let cost = CostModel::from_nest(&nest);
        let latency = LatencyCoefficients {
            per_tile_ns: Rat::ZERO,
            per_line_ns: Rat::ZERO,
            per_span_line_ns: Rat::ZERO,
            per_iter_ns: Rat::ZERO,
            per_rep_ns: Rat::ZERO,
            samples: 0,
        };
        let ranked = rank_candidates(&nest, &cost, &latency, 16, 1).unwrap();
        assert_eq!(ranked[0].features.grid, vec![1, 16]);
        assert!(
            ranking_is_degenerate(&ranked),
            "all-zero model is no-signal"
        );
    }

    #[test]
    fn zero_line_and_span_coefficients_are_detected_as_degenerate() {
        // Per-tile / per-iter / per-rep terms are constant across the
        // factorizations of a fixed p, so zeroing just the line and
        // span coefficients leaves every hybrid cost tied at the same
        // nonzero value.  The ranking must say so and must equal the
        // analytic order.
        let nest = example2();
        let cost = CostModel::from_nest(&nest);
        let latency = model_with((0, 1), (0, 1));
        let ranked = rank_candidates(&nest, &cost, &latency, 16, 1).unwrap();
        assert!(ranked[0].hybrid_cost > Rat::ZERO, "tied but nonzero");
        assert!(ranking_is_degenerate(&ranked));
        for w in ranked.windows(2) {
            assert_eq!(w[0].hybrid_cost, w[1].hybrid_cost);
            assert!(w[0].analytic_cost <= w[1].analytic_cost, "analytic order");
        }
        let part = choose_calibrated(&nest, &cost, &latency, 16, 1).unwrap();
        assert_eq!(part.proc_grid, partition_rect(&nest, 16).proc_grid);
    }

    #[test]
    fn live_calibration_is_not_degenerate() {
        let nest = example2();
        let cost = CostModel::from_nest(&nest);
        let ranked = rank_candidates(&nest, &cost, &model_with((2, 1), (1, 10)), 16, 1).unwrap();
        assert!(!ranking_is_degenerate(&ranked));
    }

    #[test]
    fn ranking_is_exhaustive_over_feasible_grids() {
        let nest = example2();
        let cost = CostModel::from_nest(&nest);
        let latency = model_with((2, 1), (1, 10));
        let ranked = rank_candidates(&nest, &cost, &latency, 16, 1).unwrap();
        assert_eq!(ranked.len(), feasible_grids(&nest, 16).len());
        for w in ranked.windows(2) {
            assert!(w[0].hybrid_cost <= w[1].hybrid_cost);
        }
    }
}
