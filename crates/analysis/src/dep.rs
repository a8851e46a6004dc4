//! Exact dependence testing between affine references.
//!
//! Two references `A[ī·G₁ + ā₁]` and `A[ī·G₂ + ā₂]` of a depth-`l` doall
//! nest conflict iff the Diophantine system
//!
//! ```text
//!   ī₁·G₁ + ā₁ = ī₂·G₂ + ā₂,   ī₁ ≠ ī₂,   both in the loop bounds
//! ```
//!
//! has a solution.  Stacking gives `x·M = b` with `M = [G₁; −G₂]`
//! (`2l×d`), `b = ā₂ − ā₁` and `x = (ī₁ | ī₂)`: a lattice-membership
//! question answered by the same Smith/Hermite machinery the partitioner
//! uses (Def. 4).  The full solution set is `x₀ + c·N` for the integer
//! nullspace basis `N`; intersecting that lattice with the bounds box and
//! the disequality `ī₁ ≠ ī₂` is delegated to [`crate::search`], yielding
//! a concrete **witness pair** of iterations or a proof that none exists.
//!
//! The disequality is handled exactly by branching on the first loop
//! level `m` where the iterations differ and the sign of the difference:
//! each branch (`δ_j = 0` for `j < m`, `±δ_m ≥ 1`) is a pure conjunctive
//! system.  For a reference tested against itself the two signs are
//! symmetric and only one is searched.

use crate::search::integer_point;
use alp_lattice::Lattice;
use alp_linalg::fm::System;
use alp_linalg::{integer_nullspace, solve_integer, IMat, IVec, Rat};
use alp_loopir::{ArrayRef, LoopNest};

/// A concrete pair of distinct in-bounds iterations touching the same
/// array element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Iteration executing the first reference.
    pub iter1: IVec,
    /// Iteration executing the second reference.
    pub iter2: IVec,
    /// The shared array element.
    pub element: IVec,
}

/// Def. 4's system, solved once: every `x = (ī₁ | ī₂)` with
/// `r1(ī₁) == r2(ī₂)`, as a particular solution `x₀` of the stacked
/// `x·M = b` (`M = [G₁; −G₂]`, `b = ā₂ − ā₁`) plus the integer span of a
/// reduced null-space basis `N` (reduced so that the search's systems
/// over the coefficients `c` of `x = x₀ + c·N` keep small coefficients).
/// Bounds, tile boxes and cuts are rows over those coefficients, built by
/// [`row`](ConflictLattice::row) / [`constrain`](ConflictLattice::constrain).
#[derive(Debug, Clone)]
pub struct ConflictLattice {
    x0: IVec,
    basis: Vec<IVec>,
}

impl ConflictLattice {
    /// The lattice for two references of a depth-`l` nest; `None` when
    /// they never name one element, bounds aside (or are malformed —
    /// mismatched dimensions are for other layers to diagnose).
    pub fn new(r1: &ArrayRef, r2: &ArrayRef, l: usize) -> Option<ConflictLattice> {
        let d = r1.dim();
        if d != r2.dim() {
            return None;
        }
        let g1 = r1.g_matrix();
        let g2 = r2.g_matrix();
        let mut m = IMat::zeros(2 * l, d);
        for r in 0..l {
            for c in 0..d {
                m[(r, c)] = g1[(r, c)];
                m[(l + r, c)] = -g2[(r, c)];
            }
        }
        let b = r2.offset().sub(&r1.offset()).expect("dims match");
        ConflictLattice::solutions(&m, &b)
    }

    /// Every integer `x` with `x·m = b` — `None` when there is none.
    pub(crate) fn solutions(m: &IMat, b: &IVec) -> Option<ConflictLattice> {
        let x0 = solve_integer(m, b)?;
        let null = integer_nullspace(m);
        let basis = if null.is_empty() {
            Vec::new()
        } else {
            Lattice::new(IMat::from_row_vecs(&null))
                .reduced_basis()
                .row_vecs()
        };
        Some(ConflictLattice { x0, basis })
    }

    /// Number of free coefficients `c_r` (the basis' size).
    pub fn rank(&self) -> usize {
        self.basis.len()
    }

    /// Coordinate `k` of `x₀`.
    pub fn origin(&self, k: usize) -> i128 {
        self.x0[k]
    }

    /// The coefficient part of coordinate `k` (`x_k − x₀[k]`) as a row
    /// over `vars` unknowns, the first [`rank`](Self::rank) of them the
    /// lattice's own.
    pub fn row(&self, k: usize, vars: usize) -> Vec<Rat> {
        let mut row: Vec<Rat> = self.basis.iter().map(|n| Rat::int(n[k])).collect();
        row.resize(vars, Rat::int(0));
        row
    }

    /// Add `lo ≤ x_k ≤ hi` to a system whose first unknowns are the
    /// lattice's coefficients.
    pub fn constrain(&self, sys: &mut System, k: usize, lo: i128, hi: i128) {
        let row = self.row(k, sys.vars);
        sys.le(row.clone(), Rat::int(hi - self.x0[k]));
        sys.ge(row, Rat::int(lo - self.x0[k]));
    }

    /// Materialize `x = x₀ + Σ c_r·N_r`.
    pub fn point(&self, coeffs: &[i128]) -> Vec<i128> {
        let mut x = self.x0.0.clone();
        for (c, n) in coeffs.iter().zip(&self.basis) {
            for (k, xv) in x.iter_mut().enumerate() {
                *xv += c * n[k];
            }
        }
        x
    }
}

/// Exact conflict test between two references **to the same array**:
/// returns a witness pair of *distinct* doall iterations `(ī₁, ī₂)` with
/// `r1(ī₁) == r2(ī₂)`, both within the nest's doall bounds, or `None`
/// when no such pair exists.
pub fn pair_conflict(nest: &LoopNest, r1: &ArrayRef, r2: &ArrayRef) -> Option<Witness> {
    let l = nest.depth();
    if l == 0 || nest.loops.iter().any(|lp| lp.trip_count() == 0) {
        return None;
    }
    debug_assert_eq!(r1.array, r2.array, "conflict test across different arrays");
    // No lattice point at all ⇒ the references can never touch the same
    // element (malformed nests are reported by other lints).
    let lattice = ConflictLattice::new(r1, r2, l)?;

    // The two signs of the first differing level are symmetric when the
    // references are interchangeable (structural equality ignores spans).
    let signs: &[i128] = if r1 == r2 { &[1] } else { &[1, -1] };
    for mlevel in 0..l {
        for &s in signs {
            if let Some(x) = solve_branch(nest, &lattice, mlevel, s) {
                let iter1 = IVec(x[..l].to_vec());
                let iter2 = IVec(x[l..].to_vec());
                let element = r1.eval(&iter1);
                debug_assert_eq!(element, r2.eval(&iter2), "witness mismatch");
                return Some(Witness {
                    iter1,
                    iter2,
                    element,
                });
            }
        }
    }
    None
}

/// Search the branch "iterations agree below level `m`, differ at `m`
/// with sign `s`": a conjunctive system over the lattice coefficients.
fn solve_branch(
    nest: &LoopNest,
    lattice: &ConflictLattice,
    m: usize,
    s: i128,
) -> Option<Vec<i128>> {
    let l = nest.depth();
    let t = lattice.rank();
    let mut sys = System::new(t);
    // Box: lo_k ≤ x_k ≤ hi_k for all 2l coordinates.
    for k in 0..2 * l {
        let lp = &nest.loops[k % l];
        lattice.constrain(&mut sys, k, lp.lower, lp.upper);
    }
    // δ_j = x_j − x_{l+j}: zero below m, `s`-signed ≥ 1 at m.
    for j in 0..=m {
        let coeffs: Vec<Rat> = (lattice.row(j, t).into_iter())
            .zip(lattice.row(l + j, t))
            .map(|(a, b)| a - b)
            .collect();
        let base = lattice.origin(j) - lattice.origin(l + j);
        if j < m {
            sys.le(coeffs.clone(), Rat::int(-base));
            sys.ge(coeffs, Rat::int(-base));
        } else {
            let signed: Vec<Rat> = coeffs.into_iter().map(|c| c * Rat::int(s)).collect();
            sys.ge(signed, Rat::int(1 - s * base));
        }
    }
    integer_point(&sys).map(|c| lattice.point(&c))
}

/// Brute-force conflict oracle for differential testing: enumerate every
/// ordered pair of distinct iterations and compare touched elements.
/// Exponential in the iteration count — small nests only.
pub fn brute_force_conflict(nest: &LoopNest, r1: &ArrayRef, r2: &ArrayRef) -> Option<Witness> {
    let pts = nest.iteration_points();
    for i1 in &pts {
        let e1 = r1.eval(i1);
        for i2 in &pts {
            if i1 == i2 {
                continue;
            }
            if e1 == r2.eval(i2) {
                return Some(Witness {
                    iter1: i1.clone(),
                    iter2: i2.clone(),
                    element: e1,
                });
            }
        }
    }
    None
}

/// Check a witness against the nest bounds and both references — used by
/// tests to validate exact-tester output without requiring it to match
/// the brute-force witness pair exactly (any valid pair proves the race).
pub fn witness_is_valid(nest: &LoopNest, r1: &ArrayRef, r2: &ArrayRef, w: &Witness) -> bool {
    let in_bounds = |i: &IVec| {
        i.len() == nest.depth()
            && nest
                .loops
                .iter()
                .enumerate()
                .all(|(k, lp)| lp.lower <= i[k] && i[k] <= lp.upper)
    };
    in_bounds(&w.iter1)
        && in_bounds(&w.iter2)
        && w.iter1 != w.iter2
        && r1.eval(&w.iter1) == w.element
        && r2.eval(&w.iter2) == w.element
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    fn refs(nest: &LoopNest) -> Vec<&ArrayRef> {
        nest.all_refs()
    }

    #[test]
    fn stencil_write_read_conflict() {
        // A[i] = A[i+1]: iteration i reads what iteration i+1 writes.
        let n = parse("doall (i, 0, 9) { A[i] = A[i+1]; }").unwrap();
        let rs = refs(&n);
        let w = pair_conflict(&n, rs[0], rs[1]).expect("stencil races");
        assert!(witness_is_valid(&n, rs[0], rs[1], &w));
    }

    #[test]
    fn identity_write_is_clean() {
        // A[i] = B[i]: each iteration owns its element.
        let n = parse("doall (i, 0, 9) { A[i] = B[i]; }").unwrap();
        let rs = refs(&n);
        assert!(pair_conflict(&n, rs[0], rs[0]).is_none());
    }

    #[test]
    fn parity_blocked_pair() {
        // A[2i] vs A[2i+1]: rationally intersecting, integrally disjoint.
        let n = parse("doall (i, 0, 9) { A[2*i] = A[2*i+1]; }").unwrap();
        let rs = refs(&n);
        assert!(pair_conflict(&n, rs[0], rs[1]).is_none());
    }

    #[test]
    fn bounds_exclude_conflict() {
        // A[i] = A[i+20] with only 10 iterations: offset exceeds range.
        let n = parse("doall (i, 0, 9) { A[i] = A[i+20]; }").unwrap();
        let rs = refs(&n);
        assert!(pair_conflict(&n, rs[0], rs[1]).is_none());
    }

    #[test]
    fn constant_subscript_self_race() {
        // A[5] = B[i]: every iteration writes the same element.
        let n = parse("doall (i, 0, 9) { A[5] = B[i]; }").unwrap();
        let rs = refs(&n);
        let w = pair_conflict(&n, rs[0], rs[0]).expect("constant write races");
        assert!(witness_is_valid(&n, rs[0], rs[0], &w));
    }

    #[test]
    fn transpose_conflict_2d() {
        // A[i,j] = A[j,i]: (i,j) and (j,i) touch the same element.
        let n = parse("doall (i, 0, 4) { doall (j, 0, 4) { A[i,j] = A[j,i]; } }").unwrap();
        let rs = refs(&n);
        let w = pair_conflict(&n, rs[0], rs[1]).expect("transpose races");
        assert!(witness_is_valid(&n, rs[0], rs[1], &w));
    }

    #[test]
    fn witness_matches_brute_force_verdict() {
        let cases = [
            "doall (i, 0, 5) { A[i] = A[i+2]; }",
            "doall (i, 0, 5) { A[i] = A[5-i]; }",
            "doall (i, 0, 5) { doall (j, 0, 5) { A[i+j] = B[i]; } }",
            "doall (i, 0, 5) { doall (j, 0, 5) { A[2*i, j] = A[i, j]; } }",
            "doall (i, 1, 4) { doall (j, 1, 4) { A[i, j] = A[i-1, j+1]; } }",
        ];
        for src in cases {
            let n = parse(src).unwrap();
            let rs = n.all_refs();
            for r1 in &rs {
                for r2 in &rs {
                    if r1.array != r2.array {
                        continue;
                    }
                    let exact = pair_conflict(&n, r1, r2);
                    let brute = brute_force_conflict(&n, r1, r2);
                    assert_eq!(exact.is_some(), brute.is_some(), "{src}: {r1:?} vs {r2:?}");
                    if let Some(w) = exact {
                        assert!(witness_is_valid(&n, r1, r2, &w), "{src}");
                    }
                }
            }
        }
    }
}
