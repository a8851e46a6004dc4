//! Parallelepipeds `S(Q)` in the data space (Def. 7) and their integer
//! points.

use alp_linalg::{solve_rational, walk_box, IMat, IVec, Rat};

/// The closed parallelepiped `S(Q) = {Σ aᵢ·q̄ᵢ : 0 ≤ aᵢ ≤ 1}` spanned by
/// the rows of `Q` (Def. 7 of the paper).
///
/// For a loop tile `L` and reference matrix `G`, the footprint lives on or
/// inside `S(LG)`; when `G` is unimodular the footprint is *exactly* the
/// integer points of `S(LG)` (Theorem 1).
#[derive(Debug, Clone)]
pub struct Parallelepiped {
    q: IMat,
}

impl Parallelepiped {
    /// Parallelepiped spanned by the rows of `q`.
    pub fn new(q: IMat) -> Self {
        Parallelepiped { q }
    }

    /// The spanning matrix.
    pub fn matrix(&self) -> &IMat {
        &self.q
    }

    /// `|det Q|` — the paper's Eq. 2 volume estimate of the footprint
    /// size.  Errors if `Q` is not square.
    pub fn volume(&self) -> alp_linalg::Result<i128> {
        Ok(self.q.det()?.abs())
    }

    /// Membership of a real/integer point: does some `a ∈ [0,1]^m` give
    /// `x = a·Q`?
    ///
    /// Exact over the rationals.  When the rows of `Q` are linearly
    /// independent the coefficient vector is unique, so the test is
    /// complete; with dependent rows a `None` from the single solve may
    /// under-approximate (the analysis always reduces to independent rows
    /// via §3.4.1 before calling this).
    pub fn contains(&self, x: &IVec) -> bool {
        match solve_rational(&self.q, x) {
            Some(a) => a.iter().all(|&ai| Rat::ZERO <= ai && ai <= Rat::ONE),
            None => false,
        }
    }

    /// Axis-aligned bounding box of the parallelepiped:
    /// coordinate `j` ranges over `[Σᵢ min(0, qᵢⱼ), Σᵢ max(0, qᵢⱼ)]`.
    pub fn bounding_box(&self) -> Vec<(i128, i128)> {
        (0..self.q.cols())
            .map(|j| {
                let mut lo = 0i128;
                let mut hi = 0i128;
                for i in 0..self.q.rows() {
                    let e = self.q[(i, j)];
                    if e < 0 {
                        lo += e;
                    } else {
                        hi += e;
                    }
                }
                (lo, hi)
            })
            .collect()
    }

    /// Enumerate all integer points on or inside the parallelepiped.
    ///
    /// Exhaustive scan of the bounding box — exponential in dimension, fine
    /// for the ≤4-dimensional data spaces of loop analysis and used mainly
    /// for validating the determinant estimates.
    pub fn integer_points(&self) -> Vec<IVec> {
        let mut out = Vec::new();
        let (lo, hi): (Vec<i128>, Vec<i128>) = self.bounding_box().into_iter().unzip();
        if lo.is_empty() {
            return out;
        }
        walk_box(&lo, &hi, &mut vec![0; lo.len()], |x| {
            let v = IVec(x.to_vec());
            if self.contains(&v) {
                out.push(v);
            }
            true
        });
        out
    }

    /// Exact count of integer points in a 2-D parallelogram via Pick's
    /// theorem: `#(interior ∪ boundary) = |det| + (gcd(v̄₁) + gcd(v̄₂)) + 1`
    /// where `gcd(v̄)` is the gcd of the components of a side vector.
    ///
    /// Degenerate (zero-area) parallelograms fall back to enumeration.
    /// Errors if `Q` is not 2×2.
    pub fn exact_count_2d(&self) -> alp_linalg::Result<i128> {
        if self.q.rows() != 2 || self.q.cols() != 2 {
            return Err(alp_linalg::LinalgError::ShapeMismatch {
                left: (self.q.rows(), self.q.cols()),
                right: (2, 2),
            });
        }
        let area = self.q.det()?.abs();
        if area == 0 {
            return Ok(self.integer_points().len() as i128);
        }
        let g1 = self.q.row(0).content();
        let g2 = self.q.row(1).content();
        Ok(area + g1 + g2 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unit_square() {
        let p = Parallelepiped::new(IMat::identity(2));
        assert_eq!(p.volume().unwrap(), 1);
        let pts = p.integer_points();
        assert_eq!(pts.len(), 4); // corners of the closed unit square
        assert_eq!(p.exact_count_2d().unwrap(), 4);
    }

    #[test]
    fn scaled_box() {
        let p = Parallelepiped::new(IMat::diag(&[3, 2]));
        assert_eq!(p.volume().unwrap(), 6);
        assert_eq!(p.integer_points().len(), 4 * 3); // (3+1)*(2+1)
        assert_eq!(p.exact_count_2d().unwrap(), 12);
    }

    #[test]
    fn example6_footprint_count() {
        // Example 6 of the paper: LG = [[2L1, L1], [L2, 0]].  The paper
        // counts L1·L2 + L1 + L2 (+1 for the closed corner, which it
        // drops).  Check exactly for L1 = 4, L2 = 3.
        let (l1, l2) = (4i128, 3i128);
        let p = Parallelepiped::new(IMat::from_rows(&[&[2 * l1, l1], &[l2, 0]]));
        assert_eq!(p.volume().unwrap(), l1 * l2);
        let exact = p.integer_points().len() as i128;
        assert_eq!(exact, p.exact_count_2d().unwrap());
        assert_eq!(exact, l1 * l2 + l1 + l2 + 1);
    }

    #[test]
    fn skewed_parallelogram_membership() {
        let p = Parallelepiped::new(IMat::from_rows(&[&[2, 1], &[1, 2]]));
        assert!(p.contains(&IVec::new(&[0, 0])));
        assert!(p.contains(&IVec::new(&[3, 3]))); // far corner
        assert!(p.contains(&IVec::new(&[1, 1]))); // center-ish
        assert!(!p.contains(&IVec::new(&[2, 0]))); // outside the skew
        assert!(!p.contains(&IVec::new(&[4, 4])));
    }

    #[test]
    fn degenerate_segment() {
        // Rank-1 "parallelogram": the segment 0..(2,4).
        let p = Parallelepiped::new(IMat::from_rows(&[&[2, 4], &[0, 0]]));
        let pts = p.integer_points();
        // Points (0,0), (1,2), (2,4).
        assert_eq!(pts.len(), 3);
        assert_eq!(p.exact_count_2d().unwrap(), 3);
    }

    #[test]
    fn bounding_box_mixed_signs() {
        let p = Parallelepiped::new(IMat::from_rows(&[&[3, -1], &[-2, 2]]));
        assert_eq!(p.bounding_box(), vec![(-2, 3), (-1, 2)]);
    }

    #[test]
    fn three_d_volume() {
        let p = Parallelepiped::new(IMat::diag(&[2, 2, 2]));
        assert_eq!(p.volume().unwrap(), 8);
        assert_eq!(p.integer_points().len(), 27);
    }

    fn arb_q() -> impl Strategy<Value = IMat> {
        proptest::collection::vec(-5i128..=5, 4).prop_map(|v| IMat::from_vec(2, 2, v))
    }

    proptest! {
        #[test]
        fn pick_matches_enumeration(q in arb_q()) {
            let p = Parallelepiped::new(q.clone());
            if q.rank() == 2 {
                prop_assert_eq!(
                    p.exact_count_2d().unwrap(),
                    p.integer_points().len() as i128,
                    "Pick count vs enumeration for {}", q
                );
            }
        }

        #[test]
        fn det_lower_bounds_count(q in arb_q()) {
            // The closed parallelepiped always contains at least |det|
            // integer points... strictly speaking |det| counts half-open
            // cells, so closed count >= |det|.
            let p = Parallelepiped::new(q);
            prop_assert!(p.integer_points().len() as i128 >= p.volume().unwrap());
        }

        #[test]
        fn all_enumerated_points_contained(q in arb_q()) {
            let p = Parallelepiped::new(q);
            for x in p.integer_points() {
                prop_assert!(p.contains(&x));
            }
        }
    }
}
