//! `PartitionPlan::choose` is the one planner: `build` is its analytic
//! rectangular case, and attaching a calibration that carries no signal
//! changes the plan's provenance and nothing else.

use alp_linalg::Rat;
use alp_loopir::LoopNest;
use alp_plan::{ChosenBy, LatencyCoefficients, LegalityVerdict, PartitionPlan};
use proptest::prelude::*;

const VERDICT: LegalityVerdict = LegalityVerdict::Checked { warnings: 0 };

fn zero() -> LatencyCoefficients {
    LatencyCoefficients {
        per_tile_ns: Rat::ZERO,
        per_line_ns: Rat::ZERO,
        per_span_line_ns: Rat::ZERO,
        per_iter_ns: Rat::ZERO,
        per_rep_ns: Rat::ZERO,
        samples: 0,
    }
}

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

/// What a no-signal calibration may change: the label, the ranking
/// name and the recorded coefficients.
fn without_provenance(mut plan: PartitionPlan) -> PartitionPlan {
    plan.optimizer = plan.optimizer.trim_end_matches("+latency").to_string();
    plan.chosen_by = ChosenBy::Analytic;
    plan.calibration = None;
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn build_is_choose_without_skew_or_latency(
        ni in 1i128..=24, nj in 1i128..=24, a in 0i128..=4, b in 0i128..=4,
        skew in proptest::bool::ANY, p in 0i128..=16,
    ) {
        let nest = nest(ni, nj, a, b, skew);
        prop_assert_eq!(
            PartitionPlan::choose(&nest, p, None, VERDICT, false, None),
            PartitionPlan::build(&nest, p, None, VERDICT)
        );
    }

    #[test]
    fn zero_coefficients_change_only_the_provenance(
        ni in 4i128..=24, nj in 4i128..=24, a in 0i128..=4, b in 0i128..=4,
        skew in proptest::bool::ANY, skewed in proptest::bool::ANY, p in 1i128..=16,
    ) {
        let nest = nest(ni, nj, a, b, skew);
        let analytic = PartitionPlan::choose(&nest, p, None, VERDICT, skewed, None);
        let calibrated = PartitionPlan::choose(&nest, p, None, VERDICT, skewed, Some(&zero()));
        match (analytic, calibrated) {
            (Ok(analytic), Ok(calibrated)) => {
                prop_assert_eq!(&calibrated.optimizer, &format!("{}+latency", analytic.optimizer));
                prop_assert_eq!(calibrated.chosen_by, ChosenBy::Calibrated);
                prop_assert_eq!(calibrated.calibration.clone(), Some(zero()));
                prop_assert_eq!(without_provenance(calibrated), analytic);
            }
            (analytic, calibrated) => prop_assert_eq!(analytic, calibrated),
        }
    }
}
