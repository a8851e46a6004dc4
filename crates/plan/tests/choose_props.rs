//! `PartitionPlan::choose` is the one planner: `build` is its
//! rectangular case.

use alp_loopir::LoopNest;
use alp_plan::{LegalityVerdict, PartitionPlan};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn build_is_choose_without_skew(
        ni in 1i128..=24, nj in 1i128..=24, a in 0i128..=4, b in 0i128..=4,
        skew in proptest::bool::ANY, p in 0i128..=16,
    ) {
        let nest = nest(ni, nj, a, b, skew);
        prop_assert_eq!(
            PartitionPlan::choose(&nest, p, None, VERDICT, false),
            PartitionPlan::build(&nest, p, None, VERDICT)
        );
    }
}
