//! Property tests for the Fourier–Motzkin eliminator: projection
//! soundness and completeness against brute-force enumeration.

use alp_linalg::fm::{eliminate, System};
use alp_linalg::Rat;
use proptest::prelude::*;

/// A random small system over 2 variables: a box plus extra random
/// half-planes.
fn arb_system() -> impl Strategy<Value = System> {
    proptest::collection::vec((-3i128..=3, -3i128..=3, -6i128..=6), 0..=3).prop_map(|cuts| {
        let mut s = System::new(2);
        // Bounding box keeps enumeration finite.
        s.ge(vec![Rat::int(1), Rat::int(0)], Rat::int(-5));
        s.le(vec![Rat::int(1), Rat::int(0)], Rat::int(5));
        s.ge(vec![Rat::int(0), Rat::int(1)], Rat::int(-5));
        s.le(vec![Rat::int(0), Rat::int(1)], Rat::int(5));
        for (a, b, c) in cuts {
            s.le(vec![Rat::int(a), Rat::int(b)], Rat::int(c));
        }
        s
    })
}

fn satisfies(s: &System, x: i128, y: i128) -> bool {
    s.constraints
        .iter()
        .all(|c| c.coeffs[0] * Rat::int(x) + c.coeffs[1] * Rat::int(y) <= c.bound)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After eliminating y, an integer x satisfies the projected system
    /// iff some rational y makes (x, y) feasible.  (FM projection is
    /// exact over the rationals.)
    #[test]
    fn projection_is_exact(s in arb_system()) {
        let proj = eliminate(&s, 1);
        for x in -6i128..=6 {
            // Rational feasibility of the slice: check the y-interval
            // implied by the original constraints at this x.
            let mut lo: Option<Rat> = None;
            let mut hi: Option<Rat> = None;
            let mut slice_infeasible = false;
            for c in &s.constraints {
                let rest = c.bound - c.coeffs[0] * Rat::int(x);
                let cy = c.coeffs[1];
                if cy.is_zero() {
                    if rest < Rat::ZERO {
                        slice_infeasible = true;
                    }
                } else if cy > Rat::ZERO {
                    let b = rest / cy;
                    hi = Some(match hi { Some(h) if h <= b => h, _ => b });
                } else {
                    let b = rest / cy;
                    lo = Some(match lo { Some(l) if l >= b => l, _ => b });
                }
            }
            let feasible = !slice_infeasible
                && match (lo, hi) {
                    (Some(l), Some(h)) => l <= h,
                    _ => true,
                };
            // Projected system restricted to x.
            for c in &proj.constraints {
                prop_assert_eq!(c.coeffs[1], Rat::ZERO, "y not eliminated");
            }
            let proj_ok = proj
                .constraints
                .iter()
                .all(|c| c.coeffs[0] * Rat::int(x) <= c.bound);
            prop_assert_eq!(feasible, proj_ok, "x = {} in {:?}", x, s.constraints.len());
        }
    }

    /// Every feasible integer point stays feasible after eliminating
    /// either variable (soundness).
    #[test]
    fn feasible_points_survive_elimination(s in arb_system()) {
        for x in -6i128..=6 {
            for y in -6i128..=6 {
                if satisfies(&s, x, y) {
                    let px = eliminate(&s, 1);
                    prop_assert!(
                        px.constraints.iter().all(|c| c.coeffs[0] * Rat::int(x) <= c.bound)
                    );
                    let py = eliminate(&s, 0);
                    prop_assert!(
                        py.constraints.iter().all(|c| c.coeffs[1] * Rat::int(y) <= c.bound)
                    );
                }
            }
        }
    }
}
