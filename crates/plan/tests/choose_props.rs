//! `PartitionPlan::choose` is the one planner.  Each of its arms is
//! checked against the same decision assembled by hand from the public
//! pieces: the least-cost feasible rectangle, or the first skewed
//! candidate, persisted under the arm's label.

use alp_footprint::CostModel;
use alp_loopir::LoopNest;
use alp_partition::{try_partition_rect, ParaSearchConfig, RectPartition};
use alp_plan::{skewed_candidates, LegalityVerdict, PartitionPlan, PlanError};
use proptest::prelude::*;

const VERDICT: LegalityVerdict = LegalityVerdict::Checked { warnings: 0 };

/// A 2-D nest with two reads of `B`: axis-aligned offsets, or — with
/// `skew` — the Example-2 shape `B[i+j, i-j]` that has parallelepiped
/// candidates.
fn nest(ni: i128, nj: i128, a: i128, b: i128, skew: bool) -> LoopNest {
    let body = if skew {
        format!("A[i,j] = B[i+j,i-j] + B[i+j+{a},i-j+{b}];")
    } else {
        format!("A[i,j] = B[i,j] + B[i+{a},j+{b}];")
    };
    alp_loopir::parse(&format!(
        "doall (i, 1, {ni}) {{ doall (j, 1, {nj}) {{ {body} }} }}"
    ))
    .unwrap()
}

/// The rectangular plan by hand: below one processor
/// `build_with_partition` must refuse before it reads its partition, and
/// with no feasible grid the refusal names the processor count.
fn rect_by_hand(nest: &LoopNest, p: i128) -> Result<PartitionPlan, PlanError> {
    let partition = if p < 1 {
        RectPartition {
            proc_grid: vec![1; nest.depth()],
            tile_extents: vec![0; nest.depth()],
            cost: 0.into(),
        }
    } else {
        try_partition_rect(nest, p, &CostModel::from_nest(nest)).ok_or_else(|| {
            PlanError::Infeasible(format!(
                "no feasible factorization of {p} processors for this nest"
            ))
        })?
    };
    PartitionPlan::build_with_partition(nest, p, None, VERDICT, partition, "rect-exhaustive")
}

/// The skewed plan by hand: the first candidate of the sorted search.
fn skewed_by_hand(nest: &LoopNest, p: i128) -> Result<PartitionPlan, PlanError> {
    let cands = skewed_candidates(nest, p, &ParaSearchConfig::default())?;
    let best = cands.first().ok_or_else(|| {
        PlanError::Infeasible("nest has no skewed parallelepiped candidate bases".into())
    })?;
    PartitionPlan::build_skewed(nest, p, None, VERDICT, best, "para-exhaustive")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn build_is_the_least_cost_rectangle(
        ni in 1i128..=24, nj in 1i128..=24, a in 0i128..=4, b in 0i128..=4,
        skew in proptest::bool::ANY, p in -1i128..=16,
    ) {
        let nest = nest(ni, nj, a, b, skew);
        prop_assert_eq!(
            PartitionPlan::build(&nest, p, None, VERDICT),
            rect_by_hand(&nest, p)
        );
    }

    #[test]
    fn skewed_choose_is_the_first_skewed_candidate(
        ni in 1i128..=24, nj in 1i128..=24, a in 0i128..=4, b in 0i128..=4,
        skew in proptest::bool::ANY, p in -1i128..=16,
    ) {
        let nest = nest(ni, nj, a, b, skew);
        prop_assert_eq!(
            PartitionPlan::choose(&nest, p, None, VERDICT, true),
            skewed_by_hand(&nest, p)
        );
    }
}

#[test]
fn infeasible_processor_counts_are_refused_alike() {
    // Below one processor neither arm has a plan; 5 (prime, above both
    // trip counts) on a 2 × 2 nest has no rectangular grid, though a
    // skewed basis may still tile it.  Each refusal is the hand-built
    // one.
    for skew in [false, true] {
        let nest = nest(2, 2, 1, 1, skew);
        for p in [-1, 0, 5] {
            let built = PartitionPlan::build(&nest, p, None, VERDICT);
            assert!(built.is_err(), "p = {p}: {built:?}");
            assert_eq!(built, rect_by_hand(&nest, p), "p = {p}");
            let skewed = PartitionPlan::choose(&nest, p, None, VERDICT, true);
            assert_eq!(skewed.is_err(), p < 1, "p = {p}: {skewed:?}");
            assert_eq!(skewed, skewed_by_hand(&nest, p), "p = {p}");
        }
    }
}
