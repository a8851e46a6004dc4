//! A small exact Fourier–Motzkin eliminator over rational linear
//! inequalities.
//!
//! Two consumers share this machinery: `alp-plan`'s `Tiling::new`
//! eliminates a tile's iteration indices innermost-out, once, into the
//! loop bounds that every walk of the tile evaluates and `alp-codegen`'s
//! `emit_code` prints (§3.7 notes that rectangular tiles make code
//! generation easy; this module is what "hard" costs for the general
//! case), and `alp-analysis`'s exact integer search eliminates
//! variables with [`eliminate`] and, where no elimination is exact, tries
//! the [`dark_shadow`] before splitting the question.

use crate::rat::Rat;

/// A linear inequality `Σ coeffs[k]·x_k ≤ bound`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// Coefficients over the variables.
    pub coeffs: Vec<Rat>,
    /// Right-hand side.
    pub bound: Rat,
}

impl Constraint {
    /// Build a constraint.
    pub fn new(coeffs: Vec<Rat>, bound: Rat) -> Self {
        Constraint { coeffs, bound }
    }

    fn is_trivial(&self) -> bool {
        self.coeffs.iter().all(Rat::is_zero)
    }
}

/// A conjunction of inequalities over `vars` variables.
#[derive(Debug, Clone, Default)]
pub struct System {
    /// The constraints.
    pub constraints: Vec<Constraint>,
    /// Number of variables.
    pub vars: usize,
}

impl System {
    /// Empty system over `vars` variables.
    pub fn new(vars: usize) -> Self {
        System {
            constraints: Vec::new(),
            vars,
        }
    }

    /// Add `Σ c_k x_k ≤ b`.
    pub fn le(&mut self, coeffs: Vec<Rat>, bound: Rat) {
        assert_eq!(coeffs.len(), self.vars);
        self.constraints.push(Constraint::new(coeffs, bound));
    }

    /// Add `Σ c_k x_k ≥ b` (stored negated).
    pub fn ge(&mut self, coeffs: Vec<Rat>, bound: Rat) {
        let neg = coeffs.into_iter().map(|c| -c).collect();
        self.le(neg, -bound);
    }

    /// True when a constraint `0 ≤ negative` proves infeasibility.
    pub fn trivially_infeasible(&self) -> bool {
        self.constraints
            .iter()
            .any(|c| c.is_trivial() && c.bound < Rat::ZERO)
    }

    /// Bounds on variable `k` implied by constraints that mention only
    /// `x_k` (call after eliminating the others): returns
    /// `(max lower, min upper)` as rationals, `None` side if unbounded.
    pub fn interval(&self, k: usize) -> (Option<Rat>, Option<Rat>) {
        let mut lo: Option<Rat> = None;
        let mut hi: Option<Rat> = None;
        for c in &self.constraints {
            let ck = c.coeffs[k];
            if ck.is_zero() {
                continue;
            }
            if c.coeffs
                .iter()
                .enumerate()
                .any(|(j, v)| j != k && !v.is_zero())
            {
                continue; // mentions other variables
            }
            let b = c.bound / ck;
            if ck > Rat::ZERO {
                hi = Some(match hi {
                    Some(h) if h <= b => h,
                    _ => b,
                });
            } else {
                lo = Some(match lo {
                    Some(l) if l >= b => l,
                    _ => b,
                });
            }
        }
        (lo, hi)
    }
}

/// Eliminate variable `k`: pair every upper constraint on `x_k` with
/// every lower constraint, producing a system over the remaining
/// variables (coefficients of `x_k` become zero).  Standard
/// Fourier–Motzkin; exponential in the worst case, fine for tile systems
/// (4·l constraints over `l` indices and `l` grid coordinates).
pub fn eliminate(sys: &System, k: usize) -> System {
    combine(sys, k, |_, _| Rat::ZERO)
}

/// Pugh's *dark shadow* of `x_k`: [`eliminate`] with the bound of each
/// pair `a·x_k ≤ α`, `β ≤ b·x_k` lowered by `(a−1)(b−1)`.  For integer
/// coefficients and bounds, every integer point of the dark shadow
/// extends to an integer `x_k`; where `a` or `b` is 1 it is the real
/// shadow.
pub fn dark_shadow(sys: &System, k: usize) -> System {
    combine(sys, k, |a, b| (a - Rat::ONE) * (b - Rat::ONE))
}

/// Every upper constraint on `x_k` paired with every lower one, each
/// pair's bound lowered by `slack(a, b)` of its two coefficients on
/// `x_k` (made positive).
fn combine(sys: &System, k: usize, slack: impl Fn(Rat, Rat) -> Rat) -> System {
    let mut uppers = Vec::new(); // c_k > 0
    let mut lowers = Vec::new(); // c_k < 0
    let mut out = System::new(sys.vars);
    for c in &sys.constraints {
        let ck = c.coeffs[k];
        if ck > Rat::ZERO {
            uppers.push(c);
        } else if ck < Rat::ZERO {
            lowers.push(c);
        } else {
            out.constraints.push(c.clone());
        }
    }
    for u in &uppers {
        for l in &lowers {
            // u: a·x ≤ b with a_k > 0;  l: c·x ≤ d with c_k < 0.
            // Scale to cancel x_k: (-c_k)·u + a_k·l.
            let au = u.coeffs[k];
            let cl = l.coeffs[k];
            let coeffs: Vec<Rat> = (0..sys.vars)
                .map(|j| (-cl) * u.coeffs[j] + au * l.coeffs[j])
                .collect();
            let bound = (-cl) * u.bound + au * l.bound - slack(au, -cl);
            let c = Constraint::new(coeffs, bound);
            debug_assert!(c.coeffs[k].is_zero());
            if !(c.is_trivial() && c.bound >= Rat::ZERO) {
                out.constraints.push(c);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rat {
        Rat::int(n)
    }

    #[test]
    fn box_bounds() {
        // 0 ≤ x ≤ 3, 0 ≤ y ≤ 5.
        let mut s = System::new(2);
        s.ge(vec![r(1), r(0)], r(0));
        s.le(vec![r(1), r(0)], r(3));
        s.ge(vec![r(0), r(1)], r(0));
        s.le(vec![r(0), r(1)], r(5));
        assert_eq!(s.interval(0), (Some(r(0)), Some(r(3))));
        assert_eq!(s.interval(1), (Some(r(0)), Some(r(5))));
        // Eliminating y leaves x's bounds intact.
        let e = eliminate(&s, 1);
        assert_eq!(e.interval(0), (Some(r(0)), Some(r(3))));
    }

    #[test]
    fn triangle_projection() {
        // x ≥ 0, y ≥ 0, x + y ≤ 4: eliminating y gives 0 ≤ x ≤ 4.
        let mut s = System::new(2);
        s.ge(vec![r(1), r(0)], r(0));
        s.ge(vec![r(0), r(1)], r(0));
        s.le(vec![r(1), r(1)], r(4));
        let e = eliminate(&s, 1);
        assert_eq!(e.interval(0), (Some(r(0)), Some(r(4))));
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 1 and x ≥ 3.
        let mut s = System::new(1);
        s.le(vec![r(1)], r(1));
        s.ge(vec![r(1)], r(3));
        let e = eliminate(&s, 0);
        assert!(e.trivially_infeasible());
    }

    #[test]
    fn dark_shadow_keeps_only_pairs_with_room_for_an_integer() {
        // y − 1 ≤ 2x ≤ y holds an integer x for every y; 2x = y only
        // for even y, so its dark shadow is empty though its real one
        // is all of y.
        let mut s = System::new(2);
        s.le(vec![r(2), r(-1)], r(0));
        s.ge(vec![r(2), r(-1)], r(-1));
        assert!(!dark_shadow(&s, 0).trivially_infeasible());
        let mut s = System::new(2);
        s.le(vec![r(2), r(-1)], r(0));
        s.ge(vec![r(2), r(-1)], r(0));
        assert!(!eliminate(&s, 0).trivially_infeasible());
        assert!(dark_shadow(&s, 0).trivially_infeasible());
    }

    #[test]
    fn parallelogram_scan_bounds() {
        // Tile of Example 6: points i = a·(L1,L1) + b·(L2,0), 0≤a,b≤1,
        // with L1=4, L2=3.  In iteration coordinates (x, y):
        // y = 4a -> 0 ≤ y ≤ 4; x = 4a + 3b = y + 3b -> y ≤ x ≤ y + 3.
        // System over (x, y): 0 ≤ y ≤ 4, 0 ≤ x − y ≤ 3.
        let mut s = System::new(2);
        s.ge(vec![r(0), r(1)], r(0));
        s.le(vec![r(0), r(1)], r(4));
        s.ge(vec![r(1), r(-1)], r(0));
        s.le(vec![r(1), r(-1)], r(3));
        // Outer variable x: eliminate y.
        let e = eliminate(&s, 1);
        assert_eq!(e.interval(0), (Some(r(0)), Some(r(7))));
        // For fixed x, y's bounds mention x: check by substitution at x=5:
        // y ≥ x-3 = 2, y ≤ min(4, x) = 4.
        let mut s5 = System::new(2);
        for c in &s.constraints {
            // substitute x = 5
            let b = c.bound - c.coeffs[0] * r(5);
            s5.le(vec![r(0), c.coeffs[1]], b);
        }
        assert_eq!(s5.interval(1), (Some(r(2)), Some(r(4))));
    }

    #[test]
    fn rational_coefficients() {
        // x/2 ≤ 3 -> x ≤ 6.
        let mut s = System::new(1);
        s.le(vec![Rat::new(1, 2)], r(3));
        assert_eq!(s.interval(0), (None, Some(r(6))).clone());
    }
}
