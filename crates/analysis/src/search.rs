//! Integer feasibility of a conjunctive rational inequality system.
//!
//! The dependence tester reduces "do two distinct in-bounds iterations
//! touch the same element" to: does an integer point satisfy a small
//! system `C·x ≤ b` over the lattice coefficients?  This module answers
//! that exactly: a Fourier–Motzkin elimination chain gives exact rational
//! bounds for each variable given the ones already fixed, and a DFS
//! enumerates the integers inside those bounds, backtracking when a
//! prefix admits a rational completion but no integer one.
//!
//! The systems here are tiny (≤ 2·l variables, a few dozen constraints),
//! but FM doubles pessimistically per elimination, so each projection is
//! normalized and deduplicated to keep only the tightest bound per
//! half-space direction.

use alp_linalg::fm::{eliminate, Constraint, System};
use alp_linalg::{gcd, lcm, Rat};

/// Hard cap on the integers tried for one variable at one DFS node, and
/// on total DFS nodes.  The dependence systems are bounded (independent
/// lattice rows intersected with a finite box), so these are safety
/// valves, not tuning knobs.
const MAX_RANGE: i128 = 1_000_000;
const MAX_NODES: usize = 4_000_000;

/// Scale a constraint so its coefficient vector is a primitive integer
/// vector (gcd 1), which makes syntactically different multiples of the
/// same half-space comparable.
fn normalize(c: &Constraint) -> Option<Constraint> {
    // Common denominator.
    let mut den = 1i128;
    for q in c.coeffs.iter().chain(std::iter::once(&c.bound)) {
        den = lcm(den, q.den());
    }
    let mut ints: Vec<i128> = c.coeffs.iter().map(|q| q.num() * (den / q.den())).collect();
    let mut bound = c.bound.num() * (den / c.bound.den());
    // Divide by the gcd of the coefficients only (not the bound): the
    // bound then floors to the tightest integer form later; here we keep
    // it rational to stay exact.
    let g = ints.iter().fold(0i128, |a, &v| gcd(a, v.abs()));
    if g > 1 {
        for v in &mut ints {
            *v /= g;
        }
        return Some(Constraint::new(
            ints.into_iter().map(Rat::int).collect(),
            Rat::new(bound, g),
        ));
    }
    if g == 0 {
        // Trivial constraint 0 ≤ bound: keep only if it proves
        // infeasibility; the caller checks `trivially_infeasible`.
        if bound >= 0 {
            return None;
        }
        bound = -1; // canonical "false"
    }
    Some(Constraint::new(
        ints.into_iter().map(Rat::int).collect(),
        Rat::int(bound),
    ))
}

/// Normalize every constraint and keep only the tightest bound per
/// direction.
fn dedup(sys: &System) -> System {
    let mut out = System::new(sys.vars);
    let mut best: Vec<(Vec<Rat>, Rat)> = Vec::new();
    for c in &sys.constraints {
        let Some(n) = normalize(c) else { continue };
        match best.iter_mut().find(|(dir, _)| *dir == n.coeffs) {
            Some((_, b)) => {
                if n.bound < *b {
                    *b = n.bound;
                }
            }
            None => best.push((n.coeffs, n.bound)),
        }
    }
    for (coeffs, bound) in best {
        out.constraints.push(Constraint::new(coeffs, bound));
    }
    out
}

/// What [`integer_point`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// An integer point satisfying every constraint.
    Point(Vec<i128>),
    /// Proven: no integer point satisfies the system.
    Empty,
    /// No point was found, but a DFS node's range reached `MAX_RANGE`
    /// (or was unbounded and cut there) or the walk passed `MAX_NODES`,
    /// so part of the region was never looked at: emptiness is **not**
    /// proven.
    GaveUp,
}

/// Find any integer point satisfying every constraint of `sys`, or
/// `None` when none was found — [`integer_point`] with its give-up read
/// as "no point".  That reading is unsound for a caller that takes
/// `None` as a proof of emptiness; the dependence tester still does
/// (ROADMAP, Correctness), the certifier does not.
pub fn find_integer_point(sys: &System) -> Option<Vec<i128>> {
    match integer_point(sys) {
        Answer::Point(p) => Some(p),
        Answer::Empty | Answer::GaveUp => None,
    }
}

/// Decide whether an integer point satisfies every constraint of `sys`.
/// Exact: never reports a point that violates a constraint, and answers
/// [`Answer::Empty`] only when the whole feasible region was ruled out;
/// a region too wide for the safety caps is [`Answer::GaveUp`].
pub fn integer_point(sys: &System) -> Answer {
    let t = sys.vars;
    if t == 0 {
        return if sys.constraints.iter().all(|c| c.bound >= Rat::ZERO) {
            Answer::Point(Vec::new())
        } else {
            Answer::Empty
        };
    }
    // chain[r] mentions only variables 0..=r.
    let mut chain: Vec<System> = Vec::with_capacity(t);
    chain.resize(t, System::new(t));
    chain[t - 1] = dedup(sys);
    for r in (0..t - 1).rev() {
        let projected = eliminate(&chain[r + 1], r + 1);
        chain[r] = dedup(&projected);
        if chain[r].trivially_infeasible() {
            return Answer::Empty;
        }
    }
    let mut assign = vec![0i128; t];
    let mut walk = Walk::default();
    if dfs(&chain, sys, 0, &mut assign, &mut walk) {
        Answer::Point(assign)
    } else if walk.gave_up {
        Answer::GaveUp
    } else {
        Answer::Empty
    }
}

/// What one search has spent, and whether a cap cut any of it short.
#[derive(Default)]
struct Walk {
    nodes: usize,
    gave_up: bool,
}

/// Enumerate integer values of variable `r` within the exact rational
/// interval implied by `chain[r]` under the partial assignment, recursing
/// on the next variable.
fn dfs(
    chain: &[System],
    original: &System,
    r: usize,
    assign: &mut [i128],
    walk: &mut Walk,
) -> bool {
    walk.nodes += 1;
    if walk.nodes > MAX_NODES {
        walk.gave_up = true;
        return false;
    }
    let t = chain.len();
    let sys = &chain[r];
    // Residual interval for x_r given x_0..x_{r-1}.
    let mut lo: Option<Rat> = None;
    let mut hi: Option<Rat> = None;
    for c in &sys.constraints {
        let mut residual = c.bound;
        for (&coeff, &v) in c.coeffs.iter().zip(&assign[..r]) {
            residual = residual - coeff * Rat::int(v);
        }
        let a = c.coeffs[r];
        if a.is_zero() {
            // Constraint is fully determined by the prefix.
            if residual < Rat::ZERO {
                return false;
            }
            continue;
        }
        let b = residual / a;
        if a > Rat::ZERO {
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
    // The dependence systems are bounded; cap unbounded directions
    // (what lies past the cap is not looked at).
    walk.gave_up |= lo.is_none() || hi.is_none();
    let lo_i = lo.map_or(-MAX_RANGE, |q| q.ceil());
    let hi_i = hi.map_or(MAX_RANGE, |q| q.floor());
    if lo_i > hi_i {
        return false;
    }
    if (hi_i - lo_i) >= MAX_RANGE {
        walk.gave_up = true;
        return false;
    }
    for v in lo_i..=hi_i {
        assign[r] = v;
        if r + 1 == t {
            if satisfies(original, assign) {
                return true;
            }
        } else if dfs(chain, original, r + 1, assign, walk) {
            return true;
        }
    }
    false
}

/// Check a full assignment against the original system.
pub fn satisfies(sys: &System, x: &[i128]) -> bool {
    sys.constraints.iter().all(|c| {
        let mut acc = Rat::ZERO;
        for (j, &v) in x.iter().enumerate() {
            acc = acc + c.coeffs[j] * Rat::int(v);
        }
        acc <= c.bound
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rat {
        Rat::int(n)
    }

    #[test]
    fn finds_point_in_box() {
        let mut s = System::new(2);
        s.ge(vec![r(1), r(0)], r(2));
        s.le(vec![r(1), r(0)], r(5));
        s.ge(vec![r(0), r(1)], r(-1));
        s.le(vec![r(0), r(1)], r(1));
        let p = find_integer_point(&s).unwrap();
        assert!(satisfies(&s, &p));
    }

    #[test]
    fn rejects_empty_box() {
        let mut s = System::new(1);
        s.ge(vec![r(1)], r(3));
        s.le(vec![r(1)], r(2));
        assert_eq!(integer_point(&s), Answer::Empty);
    }

    #[test]
    fn a_range_past_the_cap_is_a_give_up_not_a_proof() {
        // 0 ≤ x ≤ 2·10⁶ is full of integer points; the search looks at
        // none of them and must say so.
        let mut s = System::new(1);
        s.ge(vec![r(1)], r(0));
        s.le(vec![r(1)], r(2 * MAX_RANGE));
        assert_eq!(integer_point(&s), Answer::GaveUp);
        assert_eq!(find_integer_point(&s), None);
        // A point found elsewhere still wins over a node that gave up.
        let mut s = System::new(2);
        s.ge(vec![r(1), r(0)], r(0));
        s.le(vec![r(1), r(0)], r(1));
        s.ge(vec![r(0), r(1)], r(0));
        s.le(vec![r(-2 * MAX_RANGE), r(1)], r(0)); // y ≤ 2·10⁶·x
        assert_eq!(integer_point(&s), Answer::Point(vec![0, 0]));
        // A half-line is cut at the cap: finding nothing proves nothing.
        let mut s = System::new(1);
        s.ge(vec![r(2)], r(2 * MAX_RANGE + 1));
        s.le(vec![r(2)], r(2 * MAX_RANGE + 1));
        assert_eq!(integer_point(&s), Answer::Empty, "bounded: 2x = odd");
        let mut s = System::new(1);
        s.ge(vec![r(1)], r(MAX_RANGE + 1));
        assert_eq!(integer_point(&s), Answer::GaveUp);
    }

    #[test]
    fn rational_gap_without_integer() {
        // 1/2 ≤ x ≤ 2/3: rationally feasible, integrally empty.
        let mut s = System::new(1);
        s.ge(vec![r(1)], Rat::new(1, 2));
        s.le(vec![r(1)], Rat::new(2, 3));
        assert!(find_integer_point(&s).is_none());
    }

    #[test]
    fn backtracks_on_integrality() {
        // x + 2y = 1 (as two inequalities), 0 ≤ x ≤ 4, 0 ≤ y ≤ 4:
        // needs x odd; x=0 fails, x=1,y=0 works.
        let mut s = System::new(2);
        s.le(vec![r(1), r(2)], r(1));
        s.ge(vec![r(1), r(2)], r(1));
        s.ge(vec![r(1), r(0)], r(0));
        s.le(vec![r(1), r(0)], r(4));
        s.ge(vec![r(0), r(1)], r(0));
        s.le(vec![r(0), r(1)], r(4));
        let p = find_integer_point(&s).unwrap();
        assert_eq!(p[0] + 2 * p[1], 1);
    }

    #[test]
    fn diagonal_slab() {
        // 3 ≤ x - y ≤ 3 with box bounds: forced difference.
        let mut s = System::new(2);
        s.le(vec![r(1), r(-1)], r(3));
        s.ge(vec![r(1), r(-1)], r(3));
        s.ge(vec![r(1), r(0)], r(0));
        s.le(vec![r(1), r(0)], r(10));
        s.ge(vec![r(0), r(1)], r(0));
        s.le(vec![r(0), r(1)], r(10));
        let p = find_integer_point(&s).unwrap();
        assert_eq!(p[0] - p[1], 3);
        assert!((0..=10).contains(&p[0]) && (0..=10).contains(&p[1]));
    }

    #[test]
    fn zero_vars() {
        let s = System::new(0);
        assert_eq!(find_integer_point(&s), Some(vec![]));
        let mut bad = System::new(0);
        bad.le(vec![], r(-1));
        assert!(find_integer_point(&bad).is_none());
    }

    #[test]
    fn dedup_keeps_tightest() {
        let mut s = System::new(1);
        s.le(vec![r(2)], r(10)); // x ≤ 5
        s.le(vec![r(1)], r(3)); // x ≤ 3 (tighter)
        let d = dedup(&s);
        assert_eq!(d.constraints.len(), 1);
        assert_eq!(d.constraints[0].bound, r(3));
    }
}
