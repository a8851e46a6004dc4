//! Linear solving: integer and rational systems, nullspaces, column
//! selection.

use crate::hnf::row_hnf;
use crate::mat::IMat;
use crate::rat::Rat;
use crate::vec::IVec;

/// Solve `x · a == b` for an **integer** row vector `x`, if one exists.
///
/// This is lattice membership: `b` is in the lattice generated by the rows
/// of `a` iff a solution exists.  The paper's *intersecting* test (Def. 4)
/// reduces to exactly this question on the stacked matrix `[G₁; −G₂]`.
pub fn solve_integer(a: &IMat, b: &IVec) -> Option<IVec> {
    assert_eq!(b.len(), a.cols(), "rhs length mismatch");
    let hnf = row_hnf(a);
    let m = a.rows();
    let mut rem = b.clone();
    let mut y = vec![0i128; m];
    for (r, &c) in hnf.pivots.iter().enumerate() {
        let p = hnf.h[(r, c)];
        if rem[c] % p != 0 {
            return None;
        }
        let q = rem[c] / p;
        y[r] = q;
        if q != 0 {
            for j in 0..a.cols() {
                rem[j] -= q * hnf.h[(r, j)];
            }
        }
    }
    if !rem.is_zero() {
        return None;
    }
    // x = y · u
    Some(hnf.u.apply_row(&IVec(y)).expect("shape"))
}

/// Solve `x · a == b` for a **rational** row vector `x`, if one exists.
///
/// Used to distinguish "no real-space solution" from "real solution exists
/// but no integer one" (e.g. `A[2i]` vs `A[2i+1]`: rationally intersecting,
/// integrally disjoint).
pub fn solve_rational(a: &IMat, b: &IVec) -> Option<Vec<Rat>> {
    assert_eq!(b.len(), a.cols(), "rhs length mismatch");
    // Solve aᵗ · xᵗ = bᵗ by Gauss–Jordan elimination on the augmented
    // system: one row per equation (column of `a`), the rhs last.
    let (m, n) = (a.rows(), a.cols());
    let mut aug: Vec<Vec<Rat>> = (0..n)
        .map(|j| {
            (0..m)
                .map(|i| a[(i, j)])
                .chain([b[j]])
                .map(Rat::int)
                .collect()
        })
        .collect();
    let mut pivots: Vec<usize> = Vec::new(); // unknown of equation row r
    for col in 0..m {
        let row = pivots.len();
        if row >= n {
            break;
        }
        let Some(p) = (row..n).find(|&i| !aug[i][col].is_zero()) else {
            continue;
        };
        aug.swap(row, p);
        let piv = aug[row][col];
        aug[row].iter_mut().for_each(|x| *x = *x / piv);
        let pivot_row = aug[row].clone();
        for (i, eq) in aug.iter_mut().enumerate() {
            let f = eq[col];
            if i == row || f.is_zero() {
                continue;
            }
            eq.iter_mut()
                .zip(&pivot_row)
                .for_each(|(x, &y)| *x = *x - f * y);
        }
        pivots.push(col);
    }
    // Inconsistent if a zero row has nonzero rhs.
    if aug[pivots.len()..].iter().any(|eq| !eq[m].is_zero()) {
        return None;
    }
    // Free unknowns are 0.
    let mut x = vec![Rat::ZERO; m];
    for (r, &c) in pivots.iter().enumerate() {
        x[c] = aug[r][m];
    }
    Some(x)
}

/// A basis for the **left integer nullspace** of `a`: all integer row
/// vectors `x` with `x · a == 0`.
///
/// The returned rows generate the full (saturated) nullspace lattice —
/// this is what communication-free partitioning needs: tile boundary
/// normals annihilating every offset difference.
pub fn integer_nullspace(a: &IMat) -> Vec<IVec> {
    let hnf = row_hnf(a);
    // Rows of u past the rank map to zero rows of h, hence x·a = 0.
    (hnf.rank()..a.rows()).map(|r| hnf.u.row(r)).collect()
}

/// Greedily choose a maximal set of linearly independent columns of `g`
/// (the paper's §3.4.1 reduction for dependent-column reference matrices).
///
/// Returns the 0-based column indices, in increasing order.
pub fn max_independent_columns(g: &IMat) -> Vec<usize> {
    if g.rank() == g.cols() {
        // Every column raises the rank: the greedy pick keeps them all.
        return (0..g.cols()).collect();
    }
    let mut keep: Vec<usize> = Vec::new();
    let mut rank = 0usize;
    for j in 0..g.cols() {
        let mut trial = keep.clone();
        trial.push(j);
        let sub = g.select_columns(&trial);
        if sub.rank() > rank {
            rank += 1;
            keep = trial;
        }
        if rank == g.rows() {
            break;
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn integer_solve_basic() {
        // x·[[1,0],[1,1]] = (3, 2) -> x = (1, 2).
        let a = IMat::from_rows(&[&[1, 0], &[1, 1]]);
        let x = solve_integer(&a, &IVec::new(&[3, 2])).unwrap();
        assert_eq!(a.apply_row(&x).unwrap(), IVec::new(&[3, 2]));
    }

    #[test]
    fn integer_solve_parity_obstruction() {
        // Lattice of [[2]] contains only even numbers: A[2i] vs A[2i+1].
        let a = IMat::from_rows(&[&[2]]);
        assert!(solve_integer(&a, &IVec::new(&[4])).is_some());
        assert!(solve_integer(&a, &IVec::new(&[3])).is_none());
        // But rationally solvable:
        assert!(solve_rational(&a, &IVec::new(&[3])).is_some());
    }

    #[test]
    fn integer_solve_g_example10() {
        // G = [[1,1],[1,-1]]: image lattice = {(x,y) : x+y even}.
        let g = IMat::from_rows(&[&[1, 1], &[1, -1]]);
        assert!(
            solve_integer(&g, &IVec::new(&[4, 2])).is_some(),
            "(4,2) reachable"
        );
        assert!(
            solve_integer(&g, &IVec::new(&[1, 0])).is_none(),
            "(1,0) parity-blocked"
        );
        assert!(solve_rational(&g, &IVec::new(&[1, 0])).is_some());
    }

    #[test]
    fn rational_solve_inconsistent() {
        // x·[[1,1]] = (1, 2): impossible even over Q (1 unknown, 2 equations).
        let a = IMat::from_rows(&[&[1, 1]]);
        assert!(solve_rational(&a, &IVec::new(&[1, 2])).is_none());
        assert!(solve_integer(&a, &IVec::new(&[1, 2])).is_none());
    }

    #[test]
    fn rational_solution_verifies() {
        let a = IMat::from_rows(&[&[2, 0], &[0, 3]]);
        let x = solve_rational(&a, &IVec::new(&[1, 1])).unwrap();
        assert_eq!(x, vec![Rat::new(1, 2), Rat::new(1, 3)]);
    }

    #[test]
    fn nullspace_of_full_rank_is_empty() {
        let a = IMat::from_rows(&[&[1, 0], &[0, 1]]);
        assert!(integer_nullspace(&a).is_empty());
    }

    #[test]
    fn nullspace_annihilates() {
        let a = IMat::from_rows(&[&[1, 2, 3], &[2, 4, 6], &[0, 1, 1]]);
        let ns = integer_nullspace(&a);
        assert_eq!(ns.len(), 1);
        for x in &ns {
            let prod = {
                // x (1×3) · a (3×3)
                let xm = IMat::from_row_vecs(std::slice::from_ref(x));
                xm.mul(&a).unwrap()
            };
            assert!(prod.row(0).is_zero(), "nullspace vector fails: {x}");
        }
    }

    #[test]
    fn max_independent_columns_example7() {
        // Example 7: G = [[1,2,1],[0,0,1]]; columns 0 and 2 are a maximal
        // independent set (greedy picks the earliest).
        let g = IMat::from_rows(&[&[1, 2, 1], &[0, 0, 1]]);
        assert_eq!(max_independent_columns(&g), vec![0, 2]);
        let sub = g.select_columns(&[0, 2]);
        assert!(sub.is_unimodular());
    }

    #[test]
    fn max_independent_columns_full_rank() {
        let g = IMat::identity(3);
        assert_eq!(max_independent_columns(&g), vec![0, 1, 2]);
    }

    #[test]
    fn max_independent_columns_zero() {
        assert!(max_independent_columns(&IMat::zeros(2, 3)).is_empty());
    }

    fn arb_mat(r: usize, c: usize) -> impl Strategy<Value = IMat> {
        proptest::collection::vec(-5i128..=5, r * c).prop_map(move |v| IMat::from_vec(r, c, v))
    }

    proptest! {
        #[test]
        fn solve_round_trip(a in arb_mat(3, 3), x in proptest::collection::vec(-7i128..=7, 3)) {
            // Any b actually in the lattice must be solvable, and the
            // returned solution must reproduce b.
            let x = IVec(x);
            let b = a.apply_row(&x).unwrap();
            let sol = solve_integer(&a, &b).expect("b is in the lattice by construction");
            prop_assert_eq!(a.apply_row(&sol).unwrap(), b);
        }

        #[test]
        fn rational_solves_invert_a_nonsingular_matrix(a in arb_mat(3, 3)) {
            prop_assume!(a.is_nonsingular());
            // Row r of a⁻¹ is the x with x·a = e_r.
            for r in 0..3 {
                let x = solve_rational(&a, &IMat::identity(3).row(r)).unwrap();
                for j in 0..3 {
                    let dot = (0..3).fold(Rat::ZERO, |s, i| s + x[i] * Rat::int(a[(i, j)]));
                    prop_assert_eq!(dot, Rat::int(i128::from(r == j)));
                }
            }
        }

        #[test]
        fn nullspace_vectors_annihilate(a in arb_mat(3, 4)) {
            for x in integer_nullspace(&a) {
                let xm = IMat::from_row_vecs(&[x]);
                prop_assert!(xm.mul(&a).unwrap().row(0).is_zero());
            }
        }

        #[test]
        fn nullspace_dimension(a in arb_mat(3, 4)) {
            prop_assert_eq!(integer_nullspace(&a).len(), 3 - a.rank());
        }

        #[test]
        fn independent_columns_have_full_rank(g in arb_mat(2, 4)) {
            let keep = max_independent_columns(&g);
            let sub = g.select_columns(&keep);
            prop_assert_eq!(sub.rank(), keep.len());
            prop_assert_eq!(keep.len(), g.rank());
        }
    }
}
