//! Exact footprint counting for rectangular tiles (§3.8 of the paper).
//!
//! For a rectangular tile and a general reference matrix `G` the footprint
//! is the image of a coordinate box under `ī ↦ ī·G`.  When rows of `G`
//! are independent the map is one-to-one (Lemma 1) and the count equals
//! the box size (Theorem 5); otherwise distinct iterations can collide and
//! counting is genuinely harder.  The paper gives closed forms for loop
//! nestings `l ∈ {1, 2}` and for `l = 3, rank ≥ 2`, and suggests table
//! lookup elsewhere; we provide exact enumeration for all cases plus the
//! `l = 2, d = 1` closed form it alludes to.

use alp_linalg::{gcd, walk_box, IMat, IVec};
use std::collections::HashSet;

/// Exact size of the footprint of the rectangular tile
/// `0 ≤ i_k ≤ bounds[k]` under the reference `ī ↦ ī·G` — counted by
/// enumeration.
///
/// Cost is the box volume; intended for validation and for the exact
/// small-tile mode of the analyzer.
///
/// # Panics
/// Panics if `bounds.len() != g.rows()` or any bound is negative.
pub fn count_rect_footprint_exact(g: &IMat, bounds: &[i128]) -> usize {
    assert_eq!(bounds.len(), g.rows(), "bounds/nesting mismatch");
    assert!(bounds.iter().all(|&b| b >= 0), "negative bound");
    let (mut seen, l) = (HashSet::new(), bounds.len());
    walk_box(&vec![0; l], bounds, &mut vec![0; l], |i| {
        seen.insert(g.apply_row(&IVec(i.to_vec())).expect("shape"));
        true
    });
    seen.len()
}

/// Exact number of **distinct values** of `Σ c_k·i_k` over the box
/// `0 ≤ i_k ≤ bounds[k]` — the `d = 1` footprint count (references like
/// `A[2i + 3j]`).
///
/// Uses the closed form when it applies and falls back to enumeration:
///
/// * `l = 1`: the count is `λ + 1` when `c ≠ 0` (all values distinct),
///   else 1.
/// * `l = 2`, both coefficients nonzero: write `|c₁| = g·p`, `|c₂| = g·q`
///   with `gcd(p, q) = 1`.  Every achievable value is a multiple of `g`.
///   When one reduced coefficient is 1 — say `p = 1` — and the unit side
///   spans a full residue window (`λ₁ ≥ q − 1`), the image is the whole
///   interval `[0, λ₁ + q·λ₂]`: count `λ₁ + q·λ₂ + 1`.  With both
///   `p, q ≥ 2` the interval is **never** complete (`p·i + q·j` has
///   numerical-semigroup gaps — e.g. `2i + 3j ≠ 1` — regardless of the
///   bounds), so we enumerate.
/// * `l ≥ 3`: enumerate (the paper's "table lookup" case).
pub fn count_distinct_affine_values(coeffs: &[i128], bounds: &[i128]) -> i128 {
    assert_eq!(coeffs.len(), bounds.len(), "coeffs/bounds mismatch");
    assert!(bounds.iter().all(|&b| b >= 0), "negative bound");
    // Dimensions with zero coefficient contribute nothing.
    let active: Vec<(i128, i128)> = coeffs
        .iter()
        .zip(bounds)
        .filter(|(&c, _)| c != 0)
        .map(|(&c, &b)| (c.abs(), b))
        .collect();
    match active.len() {
        0 => 1,
        1 => active[0].1 + 1,
        2 => {
            let (c1, l1) = active[0];
            let (c2, l2) = active[1];
            let g = gcd(c1, c2);
            let (p, q) = (c1 / g, c2 / g);
            if p == 1 && l1 >= q - 1 {
                // Unit stride covers every residue: contiguous interval.
                l1 + q * l2 + 1
            } else if q == 1 && l2 >= p - 1 {
                p * l1 + l2 + 1
            } else {
                enumerate_values(&active)
            }
        }
        _ => enumerate_values(&active),
    }
}

fn enumerate_values(active: &[(i128, i128)]) -> i128 {
    let (mut seen, n) = (HashSet::<i128>::new(), active.len());
    let (coeffs, bounds): (Vec<i128>, Vec<i128>) = active.iter().copied().unzip();
    walk_box(&vec![0; n], &bounds, &mut vec![0; n], |idx| {
        seen.insert(coeffs.iter().zip(&*idx).map(|(&c, &i)| c * i).sum());
        true
    });
    seen.len() as i128
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn theorem5_independent_rows() {
        // G = I: footprint size == box size (Theorem 5).
        let g = IMat::identity(2);
        assert_eq!(count_rect_footprint_exact(&g, &[3, 4]), 4 * 5);
        // Skewed but independent rows: still box size.
        let g = IMat::from_rows(&[&[1, 1], &[1, -1]]);
        assert_eq!(count_rect_footprint_exact(&g, &[3, 4]), 4 * 5);
        // Nonsingular non-unimodular: injective, still box size.
        let g = IMat::from_rows(&[&[2, 0], &[0, 3]]);
        assert_eq!(count_rect_footprint_exact(&g, &[3, 4]), 4 * 5);
    }

    #[test]
    fn dependent_rows_collide() {
        // A[i+j] in a 2-nest: values 0..λ1+λ2.
        let g = IMat::from_rows(&[&[1], &[1]]);
        assert_eq!(count_rect_footprint_exact(&g, &[3, 4]), 8);
        assert_eq!(count_distinct_affine_values(&[1, 1], &[3, 4]), 8);
    }

    #[test]
    fn single_dim_counts() {
        assert_eq!(count_distinct_affine_values(&[2], &[5]), 6);
        assert_eq!(count_distinct_affine_values(&[0], &[5]), 1);
        assert_eq!(count_distinct_affine_values(&[], &[]), 1);
        assert_eq!(count_distinct_affine_values(&[-3], &[4]), 5);
    }

    #[test]
    fn two_dim_unit_coefficient_formula() {
        // i + 3j over 0..=5, 0..=5: unit stride saturates (5 >= 3-1):
        // count = 5 + 3*5 + 1 = 21.
        assert_eq!(count_distinct_affine_values(&[1, 3], &[5, 5]), 21);
        // Symmetric side: 4i + j over 0..=5, 0..=5 (5 >= 4-1): 4*5+5+1.
        assert_eq!(count_distinct_affine_values(&[4, 1], &[5, 5]), 26);
    }

    #[test]
    fn two_dim_semigroup_gaps_enumerated() {
        // 2i + 3j over 0..=5, 0..=5: the values 1 and 24 are unreachable
        // (numerical-semigroup gap and its mirror), so the count is 24,
        // not the interval length 26.  A naive "saturation" formula gets
        // this wrong; we enumerate.
        assert_eq!(count_distinct_affine_values(&[2, 3], &[5, 5]), 24);
        // The proptest's original counterexample: 2i + 3j, 0..=2, 0..=1.
        assert_eq!(count_distinct_affine_values(&[2, 3], &[2, 1]), 6);
    }

    #[test]
    fn two_dim_gappy() {
        // 3i + 5j over tiny box 0..=1, 0..=1: {0,3,5,8} = 4 values
        // (formula would give 3+5+1 = 9; unsaturated, enumerated).
        assert_eq!(count_distinct_affine_values(&[3, 5], &[1, 1]), 4);
    }

    #[test]
    fn common_factor() {
        // 2i + 4j: all even; reduced 1i+2j over 0..=2, 0..=2 saturated:
        // 1*2+2*2+1 = 7.
        assert_eq!(count_distinct_affine_values(&[2, 4], &[2, 2]), 7);
    }

    #[test]
    fn three_dim_enumerated() {
        // i + j + k over 0..=1 each: values 0..3 = 4.
        assert_eq!(count_distinct_affine_values(&[1, 1, 1], &[1, 1, 1]), 4);
    }

    proptest! {
        #[test]
        fn closed_form_matches_enumeration_2d(
            c1 in 1i128..=6, c2 in 1i128..=6,
            l1 in 0i128..=8, l2 in 0i128..=8,
        ) {
            let fast = count_distinct_affine_values(&[c1, c2], &[l1, l2]);
            let slow = enumerate_values(&[(c1, l1), (c2, l2)]);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn exact_count_injective_when_rows_independent(
            e in proptest::collection::vec(-3i128..=3, 4),
            l1 in 0i128..=4, l2 in 0i128..=4,
        ) {
            let g = IMat::from_vec(2, 2, e);
            if g.rank() == 2 {
                prop_assert_eq!(
                    count_rect_footprint_exact(&g, &[l1, l2]) as i128,
                    (l1 + 1) * (l2 + 1)
                );
            }
        }

        #[test]
        fn footprint_count_bounded_by_box(
            e in proptest::collection::vec(-3i128..=3, 4),
            l1 in 0i128..=4, l2 in 0i128..=4,
        ) {
            let g = IMat::from_vec(2, 2, e);
            let n = count_rect_footprint_exact(&g, &[l1, l2]) as i128;
            prop_assert!(n >= 1 && n <= (l1 + 1) * (l2 + 1));
        }
    }
}
