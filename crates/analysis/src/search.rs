//! Integer feasibility of a conjunctive rational inequality system.
//!
//! The dependence tester and the certifier reduce their questions — do
//! two distinct in-bounds iterations touch one element, do two tiles
//! share a point — to: does an integer point satisfy a small system
//! `C·x ≤ b`?  [`integer_point`] answers with a point or with a proof
//! that there is none, by an Omega-test-style elimination (Pugh, CACM
//! 1992) that never enumerates a variable's range:
//!
//! * every constraint is scaled to a primitive integer direction and its
//!   bound floored, which keeps the integer points and makes multiples
//!   of one half-space comparable;
//! * a variable whose upper bounds, or whose lower bounds, all have
//!   coefficient 1 is eliminated exactly: every integer point of its
//!   Fourier–Motzkin shadow extends to an integer value of it;
//! * otherwise the dark shadow ([`dark_shadow`]) is tried, whose integer
//!   points extend too, and then Pugh's splinters: the few equalities
//!   `b·x_k = β + i` on which a point the dark shadow misses must lie,
//!   each parametrized over its integer solutions (the HNF step of
//!   [`ConflictLattice`]) and so one variable smaller.
//!
//! Every step removes a variable — an eliminated one is no longer
//! mentioned, a splinter's plane has one dimension fewer — so the
//! recursion ends without a cap on ranges or nodes, however wide the
//! loops are.

use crate::ConflictLattice;
use alp_linalg::fm::{dark_shadow, eliminate, Constraint, System};
use alp_linalg::{gcd, lcm, IMat, IVec, Rat};

/// An integer point satisfying every constraint of `sys`, or `None`:
/// then no integer point does.
pub fn integer_point(sys: &System) -> Option<Vec<i128>> {
    let sys = dedup(sys)?;
    let Some((k, exact)) = pick(&sys) else {
        return Some(vec![0; sys.vars]);
    };
    let point = if exact {
        integer_point(&eliminate(&sys, k)).map(|p| extend(&sys, k, p))
    } else {
        // No integer point in the real shadow, none at all.
        integer_point(&eliminate(&sys, k))?;
        integer_point(&dark_shadow(&sys, k))
            .map(|p| extend(&sys, k, p))
            .or_else(|| splinters(&sys, k).find_map(|(dir, rhs)| on_plane(&sys, &dir, rhs)))
    };
    debug_assert!(point.as_ref().is_none_or(|p| satisfies(&sys, p)));
    point
}

/// Scale a constraint to a primitive integer direction (gcd 1) and floor
/// its bound: the same integer points.  A constraint with no variable
/// keeps its bound's sign.
fn normalize(c: &Constraint) -> (Vec<i128>, i128) {
    let den = (c.coeffs.iter().chain([&c.bound])).fold(1, |d, q| lcm(d, q.den()));
    let scaled = |q: &Rat| q.num() * (den / q.den());
    let ints: Vec<i128> = c.coeffs.iter().map(scaled).collect();
    let g = ints.iter().fold(0, |a, &v| gcd(a, v)).max(1);
    let dir = ints.into_iter().map(|v| v / g).collect();
    (dir, scaled(&c.bound).div_euclid(g))
}

/// Normalize every constraint and keep the tightest bound per direction;
/// `None` when a constraint without variables is false.
fn dedup(sys: &System) -> Option<System> {
    let mut best: Vec<(Vec<i128>, i128)> = Vec::new();
    for c in &sys.constraints {
        let (dir, bound) = normalize(c);
        if dir.iter().all(|&v| v == 0) {
            if bound < 0 {
                return None;
            }
            continue;
        }
        match best.iter_mut().find(|(d, _)| *d == dir) {
            Some((_, b)) => *b = bound.min(*b),
            None => best.push((dir, bound)),
        }
    }
    let mut out = System::new(sys.vars);
    for (dir, bound) in best {
        out.le(dir.into_iter().map(Rat::int).collect(), Rat::int(bound));
    }
    Some(out)
}

/// The variable to eliminate next, and whether its elimination is exact
/// (its upper or its lower coefficients are all 1, an absent side
/// included): an exact one if there is one, and the one pairing the
/// fewest constraints; `None` when no constraint mentions a variable.
fn pick(sys: &System) -> Option<(usize, bool)> {
    (0..sys.vars)
        .filter_map(|k| {
            let (mut lowers, mut uppers, mut unit_lower, mut unit_upper) = (0, 0, true, true);
            for a in sys.constraints.iter().map(|c| c.coeffs[k].num()) {
                if a > 0 {
                    (uppers, unit_upper) = (uppers + 1, unit_upper && a == 1);
                } else if a < 0 {
                    (lowers, unit_lower) = (lowers + 1, unit_lower && a == -1);
                }
            }
            let exact = unit_lower || unit_upper;
            (lowers + uppers > 0).then_some((!exact, lowers * uppers, k))
        })
        .min()
        .map(|(inexact, _, k)| (k, !inexact))
}

/// `p` with `x_k` set, nearest 0, so that it satisfies every constraint
/// of the normalized `sys` — `p` being an integer point of `x_k`'s exact
/// or dark shadow, such a value exists.
fn extend(sys: &System, k: usize, mut p: Vec<i128>) -> Vec<i128> {
    p[k] = 0;
    let (mut lo, mut hi) = (i128::MIN, i128::MAX);
    for c in &sys.constraints {
        let a = c.coeffs[k].num();
        if a == 0 {
            continue;
        }
        let fixed: i128 = c.coeffs.iter().zip(&p).map(|(q, v)| q.num() * v).sum();
        let rest = c.bound.num() - fixed;
        if a > 0 {
            hi = hi.min(rest.div_euclid(a));
        } else {
            lo = lo.max(Rat::new(rest, a).ceil());
        }
    }
    debug_assert!(lo <= hi, "a shadow point extends");
    p[k] = lo.max(hi.min(0));
    p
}

/// Pugh's splinters of the normalized `sys` on `x_k`: an integer point
/// outside the dark shadow lies on `c·x = bound − i` for a lower bound
/// `c` (coefficient `−b` on `x_k`) and some `0 ≤ i ≤ (m·b − m − b)/m`,
/// `m` the largest coefficient of `x_k` in an upper bound.
fn splinters(sys: &System, k: usize) -> impl Iterator<Item = (Vec<i128>, i128)> + '_ {
    let m = (sys.constraints.iter()).map(|c| c.coeffs[k].num()).max();
    let m = m.expect("an inexact variable has upper bounds");
    (sys.constraints.iter())
        .filter(move |c| c.coeffs[k].num() < 0)
        .flat_map(move |c| {
            let b = -c.coeffs[k].num();
            let dir: Vec<i128> = c.coeffs.iter().map(Rat::num).collect();
            let bound = c.bound.num();
            (0..=(m * b - m - b).div_euclid(m)).map(move |i| (dir.clone(), bound - i))
        })
}

/// An integer point of `sys` on the hyperplane `dir·x = rhs`: the plane's
/// integer solutions `x₀ + Σ t_r·N_r` substituted into `sys` leave a
/// system over the `t_r`, one variable fewer.
fn on_plane(sys: &System, dir: &[i128], rhs: i128) -> Option<Vec<i128>> {
    let column = IMat::from_vec(dir.len(), 1, dir.to_vec());
    let plane = ConflictLattice::solutions(&column, &IVec(vec![rhs]))?;
    let t = plane.rank();
    let mut sub = System::new(t);
    for c in &sys.constraints {
        let (mut coeffs, mut bound) = (vec![Rat::ZERO; t], c.bound);
        for (k, &a) in c.coeffs.iter().enumerate() {
            for (s, n) in coeffs.iter_mut().zip(plane.row(k, t)) {
                *s = *s + a * n;
            }
            bound = bound - a * Rat::int(plane.origin(k));
        }
        sub.le(coeffs, bound);
    }
    integer_point(&sub).map(|t| plane.point(&t))
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
        let p = integer_point(&s).unwrap();
        assert!(satisfies(&s, &p));
    }

    #[test]
    fn rejects_empty_box() {
        let mut s = System::new(1);
        s.ge(vec![r(1)], r(3));
        s.le(vec![r(1)], r(2));
        assert_eq!(integer_point(&s), None);
    }

    #[test]
    fn wide_and_unbounded_ranges_are_decided() {
        // 0 ≤ x ≤ 2⁶⁰: no value is enumerated, so width costs nothing.
        let mut s = System::new(1);
        s.ge(vec![r(1)], r(0));
        s.le(vec![r(1)], r(1 << 60));
        assert_eq!(integer_point(&s), Some(vec![0]));
        let mut s = System::new(2);
        s.ge(vec![r(1), r(0)], r(0));
        s.le(vec![r(1), r(0)], r(1));
        s.ge(vec![r(0), r(1)], r(1 << 40));
        s.le(vec![r(-(1 << 50)), r(1)], r(0)); // y ≤ 2⁵⁰·x
        let p = integer_point(&s).unwrap();
        assert!(satisfies(&s, &p) && p[0] == 1, "{p:?}");
        // 2x = odd, however far out, has no integer point.
        let mut s = System::new(1);
        s.ge(vec![r(2)], r((1 << 61) + 1));
        s.le(vec![r(2)], r((1 << 61) + 1));
        assert_eq!(integer_point(&s), None);
        // Half-lines and free variables have points.
        let mut s = System::new(2);
        s.ge(vec![r(1), r(0)], r(1 << 62));
        assert_eq!(integer_point(&s), Some(vec![1 << 62, 0]));
        let mut s = System::new(1);
        s.le(vec![r(3)], r(-7));
        assert_eq!(integer_point(&s), Some(vec![-3]));
    }

    #[test]
    fn the_omega_nightmare_has_no_integer_point() {
        // Pugh's example: 27 ≤ 11x + 13y ≤ 45, −10 ≤ 7x − 9y ≤ 4 has a
        // real shadow but no integer point; neither variable has a unit
        // coefficient, so only the dark shadow and the splinters decide.
        let mut s = System::new(2);
        s.ge(vec![r(11), r(13)], r(27));
        s.le(vec![r(11), r(13)], r(45));
        s.ge(vec![r(7), r(-9)], r(-10));
        s.le(vec![r(7), r(-9)], r(4));
        assert_eq!(integer_point(&s), None);
        let mut brute = (-10..=10).flat_map(|x| (-10..=10).map(move |y| [x, y]));
        assert!(brute.all(|p| !satisfies(&s, &p)));
        // Widened to −11 ≤ 7x − 9y it holds (1, 2), and the search
        // returns a point of it.
        let mut wide = System::new(2);
        wide.ge(vec![r(11), r(13)], r(27));
        wide.le(vec![r(11), r(13)], r(45));
        wide.ge(vec![r(7), r(-9)], r(-11));
        wide.le(vec![r(7), r(-9)], r(4));
        let p = integer_point(&wide).expect("(1, 2) satisfies it");
        assert!(satisfies(&wide, &p), "{p:?}");
    }

    #[test]
    fn rational_gap_without_integer() {
        // 1/2 ≤ x ≤ 2/3: rationally feasible, integrally empty.
        let mut s = System::new(1);
        s.ge(vec![r(1)], Rat::new(1, 2));
        s.le(vec![r(1)], Rat::new(2, 3));
        assert!(integer_point(&s).is_none());
    }

    #[test]
    fn equalities_without_a_unit_coefficient_go_through_a_splinter() {
        // x + 2y = 1 needs x odd; 3x + 5y = 1 with 0 ≤ x, y ≤ 4 has
        // (2, −1) only outside the box, and 3x + 5y = 13 has (1, 2).
        let mut s = System::new(2);
        s.le(vec![r(1), r(2)], r(1));
        s.ge(vec![r(1), r(2)], r(1));
        s.ge(vec![r(1), r(0)], r(0));
        s.le(vec![r(1), r(0)], r(4));
        s.ge(vec![r(0), r(1)], r(0));
        s.le(vec![r(0), r(1)], r(4));
        let p = integer_point(&s).unwrap();
        assert_eq!(p[0] + 2 * p[1], 1);
        for (rhs, want) in [(1, None), (13, Some(vec![1, 2]))] {
            let mut s = System::new(2);
            s.le(vec![r(3), r(5)], r(rhs));
            s.ge(vec![r(3), r(5)], r(rhs));
            s.ge(vec![r(1), r(0)], r(0));
            s.le(vec![r(1), r(0)], r(4));
            s.ge(vec![r(0), r(1)], r(0));
            s.le(vec![r(0), r(1)], r(4));
            assert_eq!(integer_point(&s), want, "3x + 5y = {rhs}");
        }
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
        let p = integer_point(&s).unwrap();
        assert_eq!(p[0] - p[1], 3);
        assert!((0..=10).contains(&p[0]) && (0..=10).contains(&p[1]));
    }

    #[test]
    fn zero_vars() {
        let s = System::new(0);
        assert_eq!(integer_point(&s), Some(vec![]));
        let mut bad = System::new(0);
        bad.le(vec![], r(-1));
        assert!(integer_point(&bad).is_none());
    }

    #[test]
    fn dedup_keeps_tightest_and_floors() {
        let mut s = System::new(1);
        s.le(vec![r(2)], r(11)); // x ≤ 5
        s.le(vec![r(1)], Rat::new(7, 2)); // x ≤ 3 (tighter)
        let d = dedup(&s).unwrap();
        assert_eq!(d.constraints.len(), 1);
        assert_eq!(d.constraints[0].bound, r(3));
    }
}
