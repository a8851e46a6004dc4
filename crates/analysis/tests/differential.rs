//! Differential validation of the exact dependence tester against a
//! brute-force oracle that enumerates every iteration pair, and of the
//! integer search beneath it against one that enumerates every point of
//! a box.
//!
//! Trip counts stay small (≤ 6) so the oracle is exhaustive; the exact
//! tester must agree on the verdict for every pair, and every witness it
//! produces must be a genuine in-bounds distinct-iteration conflict.

use alp_analysis::search::{integer_point, satisfies};
use alp_analysis::{brute_force_conflict, pair_conflict, witness_is_valid};
use alp_linalg::fm::System;
use alp_linalg::{IMat, IVec, Rat};
use alp_loopir::{AccessKind, ArrayRef, LoopIndex, LoopNest, Statement};

/// A one-dimensional reference `A[c·ī + o]`.
fn a_ref(c: &[i128], o: i128, kind: AccessKind) -> ArrayRef {
    ArrayRef::new(
        "A",
        IMat::from_vec(c.len(), 1, c.to_vec()),
        IVec::new(&[o]),
        kind,
    )
}

/// Deterministic xorshift-free LCG (no external RNG crates available in
/// the verification environment).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform-ish integer in `lo..=hi`.
    fn range(&mut self, lo: i128, hi: i128) -> i128 {
        lo + (self.next() as i128) % (hi - lo + 1)
    }
}

fn check_all_pairs(nest: &LoopNest, ctx: &str) {
    let refs = nest.all_refs();
    for r1 in &refs {
        for r2 in &refs {
            if r1.array != r2.array {
                continue;
            }
            let exact = pair_conflict(nest, r1, r2);
            let brute = brute_force_conflict(nest, r1, r2);
            assert_eq!(
                exact.is_some(),
                brute.is_some(),
                "verdict mismatch ({ctx}):\n{}\nr1={r1:?}\nr2={r2:?}\nexact={exact:?}\nbrute={brute:?}",
                nest.display()
            );
            if let Some(w) = exact {
                assert!(
                    witness_is_valid(nest, r1, r2, &w),
                    "invalid witness ({ctx}):\n{}\n{w:?}",
                    nest.display()
                );
            }
        }
    }
}

/// Exhaustive sweep over depth-1 pairs `A[c1·i+o1]` vs `A[c2·i+o2]` with
/// small coefficients: covers zero coefficients, parity obstructions,
/// reflections and out-of-range offsets.
#[test]
fn exhaustive_depth1_pairs() {
    for c1 in -2i128..=2 {
        for o1 in -2i128..=2 {
            for c2 in -2i128..=2 {
                for o2 in -2i128..=2 {
                    let r1 = a_ref(&[c1], o1, AccessKind::Write);
                    let r2 = a_ref(&[c2], o2, AccessKind::Read);
                    let nest = LoopNest::new(
                        vec![LoopIndex::new("i", 0, 5)],
                        vec![Statement::new(r1, vec![r2])],
                    )
                    .unwrap();
                    check_all_pairs(&nest, &format!("c1={c1} o1={o1} c2={c2} o2={o2}"));
                }
            }
        }
    }
}

/// Exhaustive sweep over depth-2 diagonal pairs `A[i+b·j]` vs
/// `A[c·i+d·j+e]` — the 2-D shapes (skewed, transposed, shifted) the
/// paper's examples revolve around.
#[test]
fn exhaustive_depth2_diagonals() {
    for b in -1i128..=1 {
        for c in -1i128..=1 {
            for d in -1i128..=1 {
                for e in -2i128..=2 {
                    let r1 = a_ref(&[1, b], 0, AccessKind::Write);
                    let r2 = a_ref(&[c, d], e, AccessKind::Read);
                    let nest = LoopNest::new(
                        vec![LoopIndex::new("i", 0, 3), LoopIndex::new("j", 0, 3)],
                        vec![Statement::new(r1, vec![r2])],
                    )
                    .unwrap();
                    check_all_pairs(&nest, &format!("b={b} c={c} d={d} e={e}"));
                }
            }
        }
    }
}

/// Randomized nests: depth 1–3, trip counts ≤ 6, 1–2 statements, array
/// dims 1–2, coefficients in [-2, 2], offsets in [-3, 3].
#[test]
fn random_nests_agree_with_oracle() {
    let mut rng = Lcg(0x5eed_cafe_f00d_0001);
    for case in 0..300 {
        let depth = rng.range(1, 3) as usize;
        let loops: Vec<LoopIndex> = (0..depth)
            .map(|k| {
                let lo = rng.range(-2, 2);
                let trips = rng.range(1, if depth == 1 { 6 } else { 3 });
                LoopIndex::new(format!("i{k}"), lo, lo + trips - 1)
            })
            .collect();
        // Fixed per-array dimensionality, as validation requires.
        let dim_a = rng.range(1, 2) as usize;
        let dim_b = rng.range(1, 2) as usize;
        let mk_ref = |rng: &mut Lcg, kind: AccessKind| {
            let (name, dim) = if rng.range(0, 1) == 0 {
                ("A", dim_a)
            } else {
                ("B", dim_b)
            };
            // Subscript by subscript: a column of `G`, then its offset.
            let (mut cols, mut a) = (Vec::new(), Vec::new());
            for _ in 0..dim {
                cols.extend((0..depth).map(|_| rng.range(-2, 2)));
                a.push(rng.range(-3, 3));
            }
            let g = IMat::from_vec(dim, depth, cols).transpose();
            ArrayRef::new(name, g, IVec(a), kind)
        };
        let body: Vec<Statement> = (0..rng.range(1, 2))
            .map(|_| {
                let lhs = mk_ref(&mut rng, AccessKind::Write);
                let nreads = rng.range(1, 2);
                let rhs = (0..nreads)
                    .map(|_| mk_ref(&mut rng, AccessKind::Read))
                    .collect();
                Statement::new(lhs, rhs)
            })
            .collect();
        let nest = LoopNest::new(loops, body).expect("bounds are non-empty by construction");
        check_all_pairs(&nest, &format!("random case {case}"));
    }
}

/// Every point of the box `[lo_k, hi_k]`, row-major.
fn box_points(bounds: &[(i128, i128)]) -> Vec<Vec<i128>> {
    bounds.iter().fold(vec![Vec::new()], |points, &(lo, hi)| {
        (points.iter())
            .flat_map(|p| (lo..=hi).map(move |v| [p.as_slice(), &[v]].concat()))
            .collect()
    })
}

/// Random 1–3-variable systems inside a box in [−6, 6], with 1–4 extra
/// inequalities or equalities whose coefficients lie in [−4, 4]: most
/// variables have a coefficient other than ±1 somewhere, so the dark
/// shadow and the splinters decide many of them.  The search must agree
/// with brute force over the box and return only points of the system.
/// Lifted by a variable `z ∈ [0, 2²¹]` tied to the others with unit
/// coefficients (`z ≥ Σ x_k`, `z + x_0 ≤ 2²¹`, satisfiable for every
/// point of the box), each system keeps its verdict.
#[test]
fn random_systems_agree_with_the_box_and_lift_to_2_pow_21() {
    let r = Rat::int;
    let mut rng = Lcg(0x5eed_cafe_f00d_0002);
    let (mut feasible, mut empty) = (0, 0);
    for case in 0..3000 {
        let vars = rng.range(1, 3) as usize;
        let bounds: Vec<(i128, i128)> = (0..vars)
            .map(|_| {
                let lo = rng.range(-6, 6);
                (lo, rng.range(lo, 6))
            })
            .collect();
        let mut sys = System::new(vars);
        for (k, &(lo, hi)) in bounds.iter().enumerate() {
            let unit: Vec<Rat> = (0..vars).map(|j| r(i128::from(j == k))).collect();
            sys.ge(unit.clone(), r(lo));
            sys.le(unit, r(hi));
        }
        for _ in 0..rng.range(1, 4) {
            let coeffs: Vec<Rat> = (0..vars).map(|_| r(rng.range(-4, 4))).collect();
            let bound = r(rng.range(-12, 12));
            match rng.range(0, 2) {
                0 => sys.le(coeffs, bound),
                1 => sys.ge(coeffs, bound),
                _ => {
                    sys.le(coeffs.clone(), bound);
                    sys.ge(coeffs, bound);
                }
            }
        }
        let brute = box_points(&bounds).into_iter().find(|p| satisfies(&sys, p));
        let found = integer_point(&sys);
        assert_eq!(found.is_some(), brute.is_some(), "case {case}: {sys:?}");
        if let Some(p) = &found {
            assert!(satisfies(&sys, p), "case {case}: {p:?} outside {sys:?}");
            feasible += 1;
        } else {
            empty += 1;
        }

        let wide = 1i128 << 21;
        let mut lifted = System::new(vars + 1);
        for c in &sys.constraints {
            lifted.le([c.coeffs.as_slice(), &[r(0)]].concat(), c.bound);
        }
        let z = |x: Vec<Rat>, zc| [x, vec![r(zc)]].concat();
        lifted.ge(z(vec![r(0); vars], 1), r(0));
        lifted.le(z(vec![r(0); vars], 1), r(wide));
        lifted.ge(z(vec![r(-1); vars], 1), r(0));
        let mut first = vec![r(0); vars];
        first[0] = r(1);
        lifted.le(z(first, 1), r(wide));
        let point = integer_point(&lifted);
        assert_eq!(point.is_some(), found.is_some(), "case {case} lifted");
        if let Some(p) = point {
            assert!(
                satisfies(&lifted, &p),
                "case {case}: {p:?} outside the lift"
            );
        }
    }
    // Both verdicts are well represented.
    assert!(
        feasible > 500 && empty > 500,
        "{feasible} feasible, {empty} empty"
    );
}
