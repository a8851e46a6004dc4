//! Dense integer matrices with exact arithmetic.

use crate::num::gcd;
use crate::vec::IVec;
use crate::{LinalgError, Result};

/// A dense integer matrix, row-major, with `i128` entries.
///
/// In the paper's notation: reference matrices `G` are `l×d` (loop depth by
/// array rank), tile matrices `L` are `l×l`, and the footprint
/// parallelepiped is described by the product `L·G`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IMat {
    rows: usize,
    cols: usize,
    data: Vec<i128>,
}

impl IMat {
    /// Build a matrix from nested slices of rows.
    ///
    /// # Panics
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[i128]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        IMat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<i128>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat data length mismatch");
        IMat { rows, cols, data }
    }

    /// Build from a list of row vectors.
    ///
    /// # Panics
    /// Panics if the rows have differing lengths.
    pub fn from_row_vecs(rows: &[IVec]) -> Self {
        let slices: Vec<&[i128]> = rows.iter().map(|r| r.0.as_slice()).collect();
        Self::from_rows(&slices)
    }

    /// The `n×n` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        IMat {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// The `n×n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Diagonal matrix with the given entries.
    pub fn diag(entries: &[i128]) -> Self {
        let n = entries.len();
        let mut m = Self::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True for a square matrix.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Copy of row `i` as a vector.
    pub fn row(&self, i: usize) -> IVec {
        IVec(self.data[i * self.cols..(i + 1) * self.cols].to_vec())
    }

    /// Copy of column `j` as a vector.
    pub fn col(&self, j: usize) -> IVec {
        IVec((0..self.rows).map(|i| self[(i, j)]).collect())
    }

    /// All rows as vectors.
    pub fn row_vecs(&self) -> Vec<IVec> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// Replace row `i` with `v` (used for the `LG_{i→â}` matrices of
    /// Theorem 2).
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn with_row(&self, i: usize, v: &IVec) -> IMat {
        assert_eq!(v.len(), self.cols, "row length mismatch");
        let mut m = self.clone();
        m.data[i * self.cols..(i + 1) * self.cols].copy_from_slice(&v.0);
        m
    }

    /// The transpose.
    pub fn transpose(&self) -> IMat {
        let mut t = IMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix sum.
    pub fn add(&self, other: &IMat) -> Result<IMat> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(self.shape_err(other));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(IMat {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Matrix product `self · other`.
    pub fn mul(&self, other: &IMat) -> Result<IMat> {
        if self.cols != other.rows {
            return Err(self.shape_err(other));
        }
        let mut out = IMat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Row-vector × matrix product (`v · self`), the paper's `ī·G`.
    pub fn apply_row(&self, v: &IVec) -> Result<IVec> {
        if v.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                left: (1, v.len()),
                right: (self.rows, self.cols),
            });
        }
        let mut out = vec![0i128; self.cols];
        for (i, &vi) in v.0.iter().enumerate() {
            if vi == 0 {
                continue;
            }
            for j in 0..self.cols {
                out[j] += vi * self[(i, j)];
            }
        }
        Ok(IVec(out))
    }

    /// Scalar multiple.
    pub fn scale(&self, k: i128) -> IMat {
        IMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * k).collect(),
        }
    }

    /// Determinant by Bareiss fraction-free elimination — exact, no
    /// rationals required; [`LinalgError::Overflow`] when a step leaves
    /// `i128`.
    pub fn det(&self) -> Result<i128> {
        if !self.is_square() {
            return Err(LinalgError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (self.rows, self.rows),
            });
        }
        let n = self.rows;
        if n == 0 {
            return Ok(1); // det of the empty matrix is 1 by convention
        }
        let mut a = self.data.clone();
        let idx = |i: usize, j: usize| i * n + j;
        let mut sign = 1i128;
        let mut prev = 1i128;
        for k in 0..n - 1 {
            // Pivot: find a nonzero entry in column k at or below row k.
            if a[idx(k, k)] == 0 {
                let Some(p) = (k + 1..n).find(|&i| a[idx(i, k)] != 0) else {
                    return Ok(0);
                };
                for j in 0..n {
                    a.swap(idx(k, j), idx(p, j));
                }
                sign = -sign;
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    let num = a[idx(i, j)]
                        .checked_mul(a[idx(k, k)])
                        .and_then(|x| {
                            a[idx(i, k)]
                                .checked_mul(a[idx(k, j)])
                                .and_then(|y| x.checked_sub(y))
                        })
                        .ok_or(LinalgError::Overflow)?;
                    debug_assert_eq!(num % prev, 0, "Bareiss divisibility invariant");
                    a[idx(i, j)] = num / prev;
                }
                a[idx(i, k)] = 0;
            }
            prev = a[idx(k, k)];
        }
        a[idx(n - 1, n - 1)]
            .checked_mul(sign)
            .ok_or(LinalgError::Overflow)
    }

    /// Rank over the rationals (via fraction-free elimination).
    pub fn rank(&self) -> usize {
        let mut a = self.data.clone();
        let (r, c) = (self.rows, self.cols);
        let idx = |i: usize, j: usize| i * c + j;
        let mut rank = 0;
        let mut row = 0;
        for col in 0..c {
            if row >= r {
                break;
            }
            let Some(p) = (row..r).find(|&i| a[idx(i, col)] != 0) else {
                continue;
            };
            if p != row {
                for j in 0..c {
                    a.swap(idx(row, j), idx(p, j));
                }
            }
            for i in row + 1..r {
                if a[idx(i, col)] == 0 {
                    continue;
                }
                let g = gcd(a[idx(i, col)], a[idx(row, col)]);
                let (fi, fr) = (a[idx(row, col)] / g, a[idx(i, col)] / g);
                for j in 0..c {
                    a[idx(i, j)] = a[idx(i, j)] * fi - a[idx(row, j)] * fr;
                }
            }
            row += 1;
            rank += 1;
        }
        rank
    }

    /// True if the matrix is square with determinant ±1 (Theorem 1's
    /// condition for `LG` to coincide with the footprint).
    pub fn is_unimodular(&self) -> bool {
        self.is_square() && matches!(self.det(), Ok(1) | Ok(-1))
    }

    /// True if the matrix is square with nonzero determinant (Theorem 4's
    /// condition).
    ///
    /// # Panics
    /// Panics when the determinant does not fit `i128`: an overflow is
    /// no evidence of singularity either way.
    pub fn is_nonsingular(&self) -> bool {
        self.is_square() && self.det().expect("determinant fits i128") != 0
    }

    /// Determinant of the submatrix with row `skip_r` and column
    /// `skip_c` removed (a first minor), used by the adjugate.
    fn minor_det(&self, skip_r: usize, skip_c: usize) -> Result<i128> {
        let n = self.rows;
        let mut sub = IMat::zeros(n - 1, n - 1);
        let mut si = 0;
        for i in 0..n {
            if i == skip_r {
                continue;
            }
            let mut sj = 0;
            for j in 0..n {
                if j == skip_c {
                    continue;
                }
                sub[(si, sj)] = self[(i, j)];
                sj += 1;
            }
            si += 1;
        }
        sub.det()
    }

    /// Exact inverse of a unimodular matrix, via the adjugate:
    /// `U⁻¹ = adj(U) / det(U)`, which is integral exactly when
    /// `det(U) = ±1`.  This is the inverse loop transformation of the
    /// skewed-tile pipeline: with the row-vector convention `j = i·U`,
    /// the original indices are recovered as `i = j·U⁻¹` without any
    /// rational arithmetic.
    ///
    /// Returns [`LinalgError::NotIntegral`] when the determinant is not
    /// ±1 (the inverse exists over the rationals but not the integers),
    /// [`LinalgError::Singular`] for a singular matrix and
    /// [`LinalgError::Overflow`] when a cofactor does not fit `i128`.
    pub fn unimodular_inverse(&self) -> Result<IMat> {
        if !self.is_square() {
            return Err(LinalgError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (self.rows, self.rows),
            });
        }
        let det = self.det()?;
        if det == 0 {
            return Err(LinalgError::Singular);
        }
        if det != 1 && det != -1 {
            return Err(LinalgError::NotIntegral);
        }
        let n = self.rows;
        if n == 0 {
            return Ok(IMat::zeros(0, 0));
        }
        let mut inv = IMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                // Cofactor C_ji transposed into (i, j): the adjugate.
                let sign = if (i + j) % 2 == 0 { 1 } else { -1 };
                inv[(i, j)] = (self.minor_det(j, i)?)
                    .checked_mul(sign * det)
                    .ok_or(LinalgError::Overflow)?;
            }
        }
        Ok(inv)
    }

    /// Keep only the columns listed in `keep`, in order.
    pub fn select_columns(&self, keep: &[usize]) -> IMat {
        let mut m = IMat::zeros(self.rows, keep.len());
        for i in 0..self.rows {
            for (jj, &j) in keep.iter().enumerate() {
                m[(i, jj)] = self[(i, j)];
            }
        }
        m
    }

    /// Indices of columns that are not identically zero.  Example 1 of the
    /// paper: zero columns of `G` make the subscript constant and are
    /// dropped, lowering the effective array dimension.
    pub fn nonzero_columns(&self) -> Vec<usize> {
        (0..self.cols)
            .filter(|&j| (0..self.rows).any(|i| self[(i, j)] != 0))
            .collect()
    }

    /// Iterate over entries in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = i128> + '_ {
        self.data.iter().copied()
    }

    fn shape_err(&self, other: &IMat) -> LinalgError {
        LinalgError::ShapeMismatch {
            left: (self.rows, self.cols),
            right: (other.rows, other.cols),
        }
    }
}

impl std::ops::Index<(usize, usize)> for IMat {
    type Output = i128;
    fn index(&self, (i, j): (usize, usize)) -> &i128 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for IMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut i128 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for IMat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construct_and_index() {
        let m = IMat::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 6);
        assert_eq!(m.row(0), IVec::new(&[1, 2, 3]));
        assert_eq!(m.col(1), IVec::new(&[2, 5]));
    }

    #[test]
    fn identity_and_diag() {
        let i = IMat::identity(3);
        assert_eq!(i.det().unwrap(), 1);
        let d = IMat::diag(&[2, 3, 4]);
        assert_eq!(d.det().unwrap(), 24);
    }

    #[test]
    fn matmul() {
        let a = IMat::from_rows(&[&[1, 2], &[3, 4]]);
        let b = IMat::from_rows(&[&[5, 6], &[7, 8]]);
        assert_eq!(a.mul(&b).unwrap(), IMat::from_rows(&[&[19, 22], &[43, 50]]));
        let i = IMat::identity(2);
        assert_eq!(a.mul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = IMat::from_rows(&[&[1, 2, 3]]);
        let b = IMat::from_rows(&[&[1, 2]]);
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn apply_row_matches_paper_example1() {
        // Example 1: A(i3+2, 5, i2-1, 4) in a triply nested loop.
        let g = IMat::from_rows(&[&[0, 0, 0, 0], &[0, 0, 1, 0], &[1, 0, 0, 0]]);
        let a = IVec::new(&[2, 5, -1, 4]);
        let i = IVec::new(&[10, 20, 30]);
        let d = g.apply_row(&i).unwrap().add(&a).unwrap();
        assert_eq!(d, IVec::new(&[32, 5, 19, 4]));
        // Columns 1 and 3 (0-based) are zero: subscripts 2 and 4 are constant.
        assert_eq!(g.nonzero_columns(), vec![0, 2]);
    }

    #[test]
    fn det_2x2_3x3() {
        assert_eq!(IMat::from_rows(&[&[1, 1], &[1, -1]]).det().unwrap(), -2);
        assert_eq!(IMat::from_rows(&[&[1, 0], &[1, 1]]).det().unwrap(), 1);
        let m = IMat::from_rows(&[&[2, 0, 1], &[1, 3, 2], &[1, 1, 1]]);
        // Cofactor expansion along the first row: 2*(3-2) + 1*(1-3) = 0.
        assert_eq!(m.det().unwrap(), 0);
    }

    #[test]
    fn a_determinant_beyond_i128_is_an_error() {
        let big = i128::MAX / 2;
        let m = IMat::from_rows(&[&[big, 1], &[-1, big]]);
        assert_eq!(m.det(), Err(LinalgError::Overflow));
        assert_eq!(m.unimodular_inverse(), Err(LinalgError::Overflow));
        // `i128::MIN` negated by a row swap does not fit either.
        let m = IMat::from_rows(&[&[0, 1], &[i128::MIN, 0]]);
        assert_eq!(m.det(), Err(LinalgError::Overflow));
    }

    #[test]
    fn det_singular_and_pivoting() {
        assert_eq!(IMat::from_rows(&[&[1, 2], &[2, 4]]).det().unwrap(), 0);
        // Zero pivot forces a row swap.
        assert_eq!(IMat::from_rows(&[&[0, 1], &[1, 0]]).det().unwrap(), -1);
        assert_eq!(
            IMat::from_rows(&[&[0, 0, 1], &[0, 1, 0], &[1, 0, 0]])
                .det()
                .unwrap(),
            -1
        );
    }

    #[test]
    fn det_nonsquare_errors() {
        assert!(IMat::from_rows(&[&[1, 2, 3]]).det().is_err());
    }

    #[test]
    fn rank_cases() {
        assert_eq!(IMat::from_rows(&[&[1, 2], &[2, 4]]).rank(), 1);
        assert_eq!(IMat::from_rows(&[&[1, 2], &[3, 4]]).rank(), 2);
        assert_eq!(IMat::zeros(3, 3).rank(), 0);
        // Example 7: G = [[1,2,1],[0,0,1]] has rank 2.
        assert_eq!(IMat::from_rows(&[&[1, 2, 1], &[0, 0, 1]]).rank(), 2);
    }

    #[test]
    fn unimodularity() {
        assert!(IMat::from_rows(&[&[1, 0], &[1, 1]]).is_unimodular());
        assert!(!IMat::from_rows(&[&[1, 1], &[1, -1]]).is_unimodular()); // det -2
        assert!(IMat::from_rows(&[&[1, 1], &[1, -1]]).is_nonsingular());
        assert!(!IMat::from_rows(&[&[1, 2], &[2, 4]]).is_nonsingular());
    }

    #[test]
    fn with_row_replaces() {
        let m = IMat::from_rows(&[&[1, 2], &[3, 4]]);
        let r = m.with_row(0, &IVec::new(&[9, 9]));
        assert_eq!(r, IMat::from_rows(&[&[9, 9], &[3, 4]]));
        assert_eq!(m[(0, 0)], 1, "original untouched");
    }

    #[test]
    fn select_columns_subsets() {
        let m = IMat::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(
            m.select_columns(&[0, 2]),
            IMat::from_rows(&[&[1, 3], &[4, 6]])
        );
        assert_eq!(m.select_columns(&[]), IMat::zeros(2, 0));
    }

    #[test]
    fn unimodular_inverse_round_trips() {
        let u = IMat::from_rows(&[&[1, 1], &[0, 1]]);
        let v = u.unimodular_inverse().unwrap();
        assert_eq!(v, IMat::from_rows(&[&[1, -1], &[0, 1]]));
        assert_eq!(u.mul(&v).unwrap(), IMat::identity(2));
        assert_eq!(v.mul(&u).unwrap(), IMat::identity(2));
        // det = -1 also divides exactly.
        let w = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        assert_eq!(w.unimodular_inverse().unwrap(), w);
        // 3-D skew.
        let u3 = IMat::from_rows(&[&[1, 0, 0], &[2, 1, 0], &[-1, 3, 1]]);
        let v3 = u3.unimodular_inverse().unwrap();
        assert_eq!(u3.mul(&v3).unwrap(), IMat::identity(3));
    }

    #[test]
    fn unimodular_inverse_rejects_bad_matrices() {
        assert_eq!(
            IMat::from_rows(&[&[1, 2], &[2, 4]]).unimodular_inverse(),
            Err(LinalgError::Singular)
        );
        assert_eq!(
            IMat::from_rows(&[&[2, 0], &[0, 1]]).unimodular_inverse(),
            Err(LinalgError::NotIntegral)
        );
        assert!(IMat::from_rows(&[&[1, 2, 3]]).unimodular_inverse().is_err());
    }

    fn arb_mat(n: usize) -> impl Strategy<Value = IMat> {
        proptest::collection::vec(-6i128..=6, n * n).prop_map(move |v| IMat::from_vec(n, n, v))
    }

    proptest! {
        #[test]
        fn det_transpose_invariant(m in arb_mat(3)) {
            prop_assert_eq!(m.det().unwrap(), m.transpose().det().unwrap());
        }

        #[test]
        fn det_multiplicative(a in arb_mat(3), b in arb_mat(3)) {
            let ab = a.mul(&b).unwrap();
            prop_assert_eq!(ab.det().unwrap(), a.det().unwrap() * b.det().unwrap());
        }

        #[test]
        fn det_row_swap_negates(m in arb_mat(3)) {
            let mut sw = m.clone();
            let r0 = m.row(0);
            let r1 = m.row(1);
            sw = sw.with_row(0, &r1).with_row(1, &r0);
            prop_assert_eq!(sw.det().unwrap(), -m.det().unwrap());
        }

        #[test]
        fn rank_full_iff_nonzero_det(m in arb_mat(3)) {
            prop_assert_eq!(m.rank() == 3, m.det().unwrap() != 0);
        }

        #[test]
        fn unimodular_inverse_is_exact(m in arb_mat(3)) {
            // Whenever the inverse exists it is the exact two-sided
            // inverse, and it exists precisely for det = ±1.
            match m.unimodular_inverse() {
                Ok(inv) => {
                    prop_assert!(m.is_unimodular());
                    prop_assert_eq!(m.mul(&inv).unwrap(), IMat::identity(3));
                    prop_assert_eq!(inv.mul(&m).unwrap(), IMat::identity(3));
                }
                Err(_) => prop_assert!(!m.is_unimodular()),
            }
        }

        #[test]
        fn apply_row_linear(m in arb_mat(3), v in proptest::collection::vec(-10i128..=10, 3), w in proptest::collection::vec(-10i128..=10, 3)) {
            let v = IVec(v);
            let w = IVec(w);
            let lhs = m.apply_row(&v.add(&w).unwrap()).unwrap();
            let rhs = m.apply_row(&v).unwrap().add(&m.apply_row(&w).unwrap()).unwrap();
            prop_assert_eq!(lhs, rhs);
        }
    }
}
