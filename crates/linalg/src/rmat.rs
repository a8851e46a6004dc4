//! Dense rational matrices: exact inverses and linear solves.

use crate::mat::IMat;
use crate::rat::Rat;
use crate::{LinalgError, Result};

/// A dense matrix of exact rationals.
///
/// Tile matrices `L = Λ(H⁻¹)ᵗ` (Def. 2 of the paper) are rational in
/// general, and Theorem 4 needs the rational solution `u` of `â = u·G`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RMat {
    rows: usize,
    cols: usize,
    data: Vec<Rat>,
}

impl RMat {
    /// Build from nested rows of rationals.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[&[Rat]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        RMat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        RMat {
            rows,
            cols,
            data: vec![Rat::ZERO; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Rat::ONE;
        }
        m
    }

    /// Promote an integer matrix.
    pub fn from_int(m: &IMat) -> Self {
        let mut out = Self::zeros(m.rows(), m.cols());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                out[(i, j)] = Rat::int(m[(i, j)]);
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix product.
    pub fn mul(&self, other: &RMat) -> Result<RMat> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = RMat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a.is_zero() {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] = out[(i, j)] + a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// The transpose.
    pub fn transpose(&self) -> RMat {
        let mut t = RMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Exact determinant by Gaussian elimination over the rationals.
    pub fn det(&self) -> Result<Rat> {
        if self.rows != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (self.rows, self.rows),
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut det = Rat::ONE;
        for k in 0..n {
            let Some(p) = (k..n).find(|&i| !a[(i, k)].is_zero()) else {
                return Ok(Rat::ZERO);
            };
            if p != k {
                for j in 0..n {
                    let tmp = a[(k, j)];
                    a[(k, j)] = a[(p, j)];
                    a[(p, j)] = tmp;
                }
                det = -det;
            }
            det = det * a[(k, k)];
            let pivot = a[(k, k)];
            for i in k + 1..n {
                if a[(i, k)].is_zero() {
                    continue;
                }
                let f = a[(i, k)] / pivot;
                for j in k..n {
                    a[(i, j)] = a[(i, j)] - f * a[(k, j)];
                }
            }
        }
        Ok(det)
    }

    /// Exact inverse by Gauss–Jordan elimination.
    pub fn inverse(&self) -> Result<RMat> {
        if self.rows != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (self.rows, self.rows),
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = RMat::identity(n);
        for k in 0..n {
            let Some(p) = (k..n).find(|&i| !a[(i, k)].is_zero()) else {
                return Err(LinalgError::Singular);
            };
            if p != k {
                for j in 0..n {
                    let (x, y) = (a[(k, j)], a[(p, j)]);
                    a[(k, j)] = y;
                    a[(p, j)] = x;
                    let (x, y) = (inv[(k, j)], inv[(p, j)]);
                    inv[(k, j)] = y;
                    inv[(p, j)] = x;
                }
            }
            let pivot = a[(k, k)];
            for j in 0..n {
                a[(k, j)] = a[(k, j)] / pivot;
                inv[(k, j)] = inv[(k, j)] / pivot;
            }
            for i in 0..n {
                if i == k || a[(i, k)].is_zero() {
                    continue;
                }
                let f = a[(i, k)];
                for j in 0..n {
                    a[(i, j)] = a[(i, j)] - f * a[(k, j)];
                    inv[(i, j)] = inv[(i, j)] - f * inv[(k, j)];
                }
            }
        }
        Ok(inv)
    }
}

impl std::ops::Index<(usize, usize)> for RMat {
    type Output = Rat;
    fn index(&self, (i, j): (usize, usize)) -> &Rat {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for RMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Rat {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(n: i128, d: i128) -> Rat {
        Rat::new(n, d)
    }

    #[test]
    fn inverse_2x2() {
        let m = RMat::from_int(&IMat::from_rows(&[&[1, 1], &[1, -1]]));
        let inv = m.inverse().unwrap();
        assert_eq!(inv[(0, 0)], r(1, 2));
        assert_eq!(inv[(0, 1)], r(1, 2));
        assert_eq!(inv[(1, 0)], r(1, 2));
        assert_eq!(inv[(1, 1)], r(-1, 2));
        assert_eq!(m.mul(&inv).unwrap(), RMat::identity(2));
    }

    #[test]
    fn inverse_singular_errors() {
        let m = RMat::from_int(&IMat::from_rows(&[&[1, 2], &[2, 4]]));
        assert_eq!(m.inverse().unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn det_matches_integer_det() {
        let m = IMat::from_rows(&[&[2, 0, 1], &[1, 3, 2], &[1, 1, 1]]);
        assert_eq!(
            RMat::from_int(&m).det().unwrap(),
            Rat::int(m.det().unwrap())
        );
    }

    fn arb_invertible(n: usize) -> impl Strategy<Value = RMat> {
        proptest::collection::vec(-5i128..=5, n * n)
            .prop_map(move |v| IMat::from_vec(n, n, v))
            .prop_filter("nonsingular", |m| m.is_nonsingular())
            .prop_map(|m| RMat::from_int(&m))
    }

    proptest! {
        #[test]
        fn inverse_round_trip(m in arb_invertible(3)) {
            let inv = m.inverse().unwrap();
            prop_assert_eq!(m.mul(&inv).unwrap(), RMat::identity(3));
            prop_assert_eq!(inv.mul(&m).unwrap(), RMat::identity(3));
        }

        #[test]
        fn det_inverse_reciprocal(m in arb_invertible(3)) {
            let d = m.det().unwrap();
            let di = m.inverse().unwrap().det().unwrap();
            prop_assert_eq!(d * di, Rat::ONE);
        }
    }
}
