//! Bounded lattices: Definition 9, Theorem 3 and Lemma 3 of the paper.

use alp_linalg::{solve_integer, walk_box, IMat, IVec, LinalgError, Result};
use std::collections::HashSet;

/// A bounded lattice `L(ā₁,…,āₗ, λ₁,…,λₗ) = {Σ lᵢāᵢ : lᵢ ∈ Z, 0 ≤ lᵢ ≤ λᵢ}`
/// (Def. 9).
///
/// The generators are required to be linearly independent, which is the
/// setting of Theorem 4: the rows of a nonsingular reference matrix `G`
/// scaled by a rectangular tile.  Independence makes coefficient vectors
/// unique, so membership and intersection tests are exact integer solves.
#[derive(Debug, Clone)]
pub struct BoundedLattice {
    basis: IMat,
    bounds: Vec<i128>,
}

impl BoundedLattice {
    /// Create a bounded lattice from independent generator rows and
    /// non-negative inclusive bounds.
    ///
    /// Errors with [`LinalgError::Singular`] if the rows are dependent and
    /// [`LinalgError::Empty`] on a bounds-length mismatch or a negative
    /// bound.
    pub fn new(basis: IMat, bounds: Vec<i128>) -> Result<Self> {
        if bounds.len() != basis.rows() || bounds.iter().any(|&b| b < 0) {
            return Err(LinalgError::Empty);
        }
        if basis.rank() != basis.rows() {
            return Err(LinalgError::Singular);
        }
        Ok(BoundedLattice { basis, bounds })
    }

    /// Number of generators.
    pub fn dim(&self) -> usize {
        self.basis.rows()
    }

    /// The generator matrix (rows are the `āᵢ`).
    pub fn basis(&self) -> &IMat {
        &self.basis
    }

    /// The inclusive coefficient bounds `λᵢ`.
    pub fn bounds(&self) -> &[i128] {
        &self.bounds
    }

    /// Number of points: `Π (λᵢ + 1)` — exact because independent
    /// generators give distinct points for distinct coefficient vectors.
    pub fn size(&self) -> i128 {
        self.bounds.iter().map(|&b| b + 1).product()
    }

    /// Enumerate every point of the bounded lattice.
    pub fn points(&self) -> Vec<IVec> {
        let mut out = Vec::new();
        let l = self.dim();
        walk_box(&vec![0; l], &self.bounds, &mut vec![0; l], |coeff| {
            out.push(self.basis.apply_row(&IVec(coeff.to_vec())).expect("shape"));
            true
        });
        out
    }

    /// Membership test: integer coefficients within the bounds.
    pub fn contains(&self, x: &IVec) -> bool {
        match solve_integer(&self.basis, x) {
            Some(u) => {
                u.0.iter()
                    .zip(&self.bounds)
                    .all(|(&ui, &b)| 0 <= ui && ui <= b)
            }
            None => false,
        }
    }

    /// Theorem 3: does this bounded lattice intersect its own translation
    /// by `t`?
    ///
    /// True iff `t = Σ uᵢāᵢ` for integer `uᵢ` with `|uᵢ| ≤ λᵢ` (the paper
    /// states `0 ≤ uᵢ ≤ λᵢ` because its translation vectors — spreads —
    /// are non-negative combinations; allowing negative `uᵢ` handles a
    /// translation in any direction, since `L ∩ (L + t) ≠ ∅ ⇔
    /// L ∩ (L − t) ≠ ∅`).
    pub fn intersects_translate(&self, t: &IVec) -> bool {
        match solve_integer(&self.basis, t) {
            Some(u) => u.0.iter().zip(&self.bounds).all(|(&ui, &b)| ui.abs() <= b),
            None => false,
        }
    }

    /// Lemma 3, exact form: `|L ∪ (L + t)| = 2·Π(λⱼ+1) − Π(λⱼ+1−|uⱼ|)`
    /// where `t = Σ uⱼāⱼ`.
    ///
    /// Returns `None` if `t` is not in the (unbounded) lattice — in that
    /// case the union is simply `2·Π(λⱼ+1)` because the translated copy is
    /// disjoint (coefficient uniqueness).
    pub fn union_size_translate_exact(&self, t: &IVec) -> i128 {
        let full = self.size();
        match solve_integer(&self.basis, t) {
            Some(u) => {
                let overlap: i128 =
                    u.0.iter()
                        .zip(&self.bounds)
                        .map(|(&ui, &b)| (b + 1 - ui.abs()).max(0))
                        .product();
                2 * full - overlap
            }
            None => 2 * full,
        }
    }

    /// Lemma 3, the paper's approximation:
    /// `Π(λⱼ+1) + Σᵢ |uᵢ|·Π_{j≠i}(λⱼ+1) − Π|uᵢ|`.
    pub fn union_size_translate_approx(&self, t: &IVec) -> Option<i128> {
        let u = solve_integer(&self.basis, t)?;
        let l = self.dim();
        let full = self.size();
        let mut cross = 0i128;
        for i in 0..l {
            let mut term = u[i].abs();
            for (j, &b) in self.bounds.iter().enumerate() {
                if j != i {
                    term *= b + 1;
                }
            }
            cross += term;
        }
        let corner: i128 = u.0.iter().map(|&ui| ui.abs()).product();
        Some(full + cross - corner)
    }

    /// Brute-force union size (for validating Lemma 3 in tests).
    pub fn union_size_translate_brute(&self, t: &IVec) -> usize {
        let mut set: HashSet<IVec> = self.points().into_iter().collect();
        for p in self.points() {
            set.insert(p.add(t).expect("shape"));
        }
        set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn square_lattice(bounds: &[i128]) -> BoundedLattice {
        BoundedLattice::new(IMat::identity(bounds.len()), bounds.to_vec()).unwrap()
    }

    #[test]
    fn rejects_dependent_generators() {
        let r = BoundedLattice::new(IMat::from_rows(&[&[1, 2], &[2, 4]]), vec![3, 3]);
        assert!(matches!(r, Err(LinalgError::Singular)));
    }

    #[test]
    fn rejects_bad_bounds() {
        assert!(BoundedLattice::new(IMat::identity(2), vec![3]).is_err());
        assert!(BoundedLattice::new(IMat::identity(2), vec![3, -1]).is_err());
    }

    #[test]
    fn size_and_points_agree() {
        let l = square_lattice(&[2, 3]);
        assert_eq!(l.size(), 12);
        let pts = l.points();
        assert_eq!(pts.len(), 12);
        let distinct: HashSet<_> = pts.into_iter().collect();
        assert_eq!(distinct.len(), 12);
    }

    #[test]
    fn membership_box() {
        let l = square_lattice(&[2, 2]);
        assert!(l.contains(&IVec::new(&[0, 0])));
        assert!(l.contains(&IVec::new(&[2, 2])));
        assert!(!l.contains(&IVec::new(&[3, 0])));
        assert!(!l.contains(&IVec::new(&[-1, 0])));
    }

    #[test]
    fn theorem3_box() {
        let l = square_lattice(&[4, 4]);
        assert!(l.intersects_translate(&IVec::new(&[4, 4])));
        assert!(l.intersects_translate(&IVec::new(&[-4, 4])));
        assert!(!l.intersects_translate(&IVec::new(&[5, 0])));
        assert!(l.intersects_translate(&IVec::new(&[0, 0])));
    }

    #[test]
    fn theorem3_skewed_basis() {
        // Basis rows (1,1), (1,-1), bounds 3: t = (4,2) = 3(1,1)+1(1,-1)
        // is inside; t = (8,0) = 4(1,1)+4(1,-1) is out of bounds;
        // t = (1,0) is not even in the lattice.
        let l = BoundedLattice::new(IMat::from_rows(&[&[1, 1], &[1, -1]]), vec![3, 3]).unwrap();
        assert!(l.intersects_translate(&IVec::new(&[4, 2])));
        assert!(!l.intersects_translate(&IVec::new(&[8, 0])));
        assert!(!l.intersects_translate(&IVec::new(&[1, 0])));
    }

    #[test]
    fn example10_class2_intersection() {
        // References C(i,2i,i+2j-1), C(i,2i,i+2j+1), C(i+1,2i+2,i+2j+1):
        // offsets differ by (0,0,2) (intersecting: 2 = 2*1 in the j column)
        // and by (1,2,2).  With G rows g_i = (1,2,1), g_j = (0,0,2):
        // (0,0,2) = 0*g_i + 1*g_j: in lattice.  (1,2,2) = 1*g_i + (1/2)g_j:
        // not an integer combination, so not intersecting (Theorem 3).
        let g = IMat::from_rows(&[&[1, 2, 1], &[0, 0, 2]]);
        let l = BoundedLattice::new(g, vec![10, 10]).unwrap();
        assert!(l.intersects_translate(&IVec::new(&[0, 0, 2])));
        assert!(!l.intersects_translate(&IVec::new(&[1, 2, 2])));
    }

    #[test]
    fn lemma3_exact_simple() {
        // 1-D: λ = 4 (5 points), shift by 2 -> union = {0..6} = 7 = 2*5-3.
        let l = square_lattice(&[4]);
        assert_eq!(l.union_size_translate_exact(&IVec::new(&[2])), 7);
        assert_eq!(l.union_size_translate_brute(&IVec::new(&[2])), 7);
    }

    #[test]
    fn lemma3_disjoint_translate() {
        let l = square_lattice(&[2]);
        // Shift by 7 > λ+1: disjoint, union = 6.
        assert_eq!(l.union_size_translate_exact(&IVec::new(&[7])), 6);
        assert_eq!(l.union_size_translate_brute(&IVec::new(&[7])), 6);
    }

    #[test]
    fn lemma3_off_lattice_translate() {
        // Basis 2Z, translate by 1: copies interleave, never coincide.
        let l = BoundedLattice::new(IMat::from_rows(&[&[2]]), vec![3]).unwrap();
        assert_eq!(l.union_size_translate_exact(&IVec::new(&[1])), 8);
        assert_eq!(l.union_size_translate_brute(&IVec::new(&[1])), 8);
    }

    fn arb_basis_2d() -> impl Strategy<Value = IMat> {
        proptest::collection::vec(-3i128..=3, 4)
            .prop_map(|v| IMat::from_vec(2, 2, v))
            .prop_filter("independent", |m| m.rank() == 2)
    }

    proptest! {
        #[test]
        fn lemma3_exact_matches_brute(
            basis in arb_basis_2d(),
            bounds in proptest::collection::vec(0i128..=4, 2),
            coeffs in proptest::collection::vec(-6i128..=6, 2),
        ) {
            let l = BoundedLattice::new(basis.clone(), bounds).unwrap();
            let t = basis.apply_row(&IVec(coeffs)).unwrap();
            prop_assert_eq!(
                l.union_size_translate_exact(&t),
                l.union_size_translate_brute(&t) as i128
            );
        }

        #[test]
        fn theorem3_matches_brute_membership(
            basis in arb_basis_2d(),
            bounds in proptest::collection::vec(0i128..=3, 2),
            t in proptest::collection::vec(-8i128..=8, 2),
        ) {
            let l = BoundedLattice::new(basis, bounds).unwrap();
            let t = IVec(t);
            // Brute force: some point p with p and p - t both in L.
            let brute = l.points().iter().any(|p| {
                let q = p.sub(&t).unwrap();
                l.contains(&q)
            });
            prop_assert_eq!(l.intersects_translate(&t), brute);
        }

        #[test]
        fn points_all_contained(
            basis in arb_basis_2d(),
            bounds in proptest::collection::vec(0i128..=3, 2),
        ) {
            let l = BoundedLattice::new(basis, bounds).unwrap();
            for p in l.points() {
                prop_assert!(l.contains(&p));
            }
        }
    }
}
