//! Size of the footprint of a single reference (§3.4, Theorems 1 & 5,
//! §3.4.1, §3.8).

use crate::tile::Tile;
use alp_linalg::{max_independent_columns, smith_normal_form, walk_box, IMat, IVec};
use std::collections::HashSet;

/// Exact footprint size: the number of distinct data elements
/// `{ī·G + ā : ī ∈ tile}`, by enumeration of the tile's iterations.
///
/// The offset `ā` never changes the count (it translates the footprint,
/// Prop. 1), so only `G` matters here.
pub fn single_footprint_exact(tile: &Tile, g: &IMat) -> usize {
    let mut seen: HashSet<IVec> = HashSet::new();
    for i in tile.points() {
        seen.insert(g.apply_row(&i).expect("depth"));
    }
    seen.len()
}

/// The paper's determinant estimate of a footprint size (Eq. 2,
/// generalized).
///
/// Pipeline:
/// 1. drop zero columns of `G` (Example 1);
/// 2. keep a maximal independent column set `G'` (§3.4.1, Example 7);
/// 3. the footprint lies in `S(L·G')`; its size is estimated by the
///    volume of that region.
///
/// When `L·G'` is square this is `|det L·G'|` — exactly Eq. 2.  When `G`
/// has more rows than its rank (dependent *rows*, e.g. `A[i+j]`), the
/// region `S(L·G')` is a **zonotope** with `l` generators in
/// rank-dimensional space, and its volume is the sum of `|det|` over all
/// maximal row subsets — which reproduces the paper's §3.8 closed forms
/// for the low-dimensional special cases.
pub fn single_footprint_estimate(tile: &Tile, g: &IMat) -> i128 {
    let keep = max_independent_columns(g);
    if keep.is_empty() {
        return 1; // constant reference: one element
    }
    let g_red = g.select_columns(&keep);
    let lg = tile.l_matrix().mul(&g_red).expect("depth");
    zonotope_volume(&lg)
}

/// Lattice-corrected footprint estimate: the determinant estimate divided
/// by the index of `G`'s image lattice in its span.
///
/// Theorem 1 warns that for non-unimodular `G` (e.g. `A[2i]`) not every
/// integer point of `S(LG)` is touched; the image lattice has density
/// `1/index`, so dividing by the Smith-invariant product (the index)
/// recovers an asymptotically exact count.  This is the "exact footprint
/// lattice" refinement benchmarked in the `model_accuracy` experiment.
pub fn single_footprint_lattice_corrected(tile: &Tile, g: &IMat) -> i128 {
    let keep = max_independent_columns(g);
    if keep.is_empty() {
        return 1;
    }
    let g_red = g.select_columns(&keep);
    let vol = single_footprint_estimate(tile, g);
    let index: i128 = smith_normal_form(&g_red).invariants.iter().product();
    if index == 0 {
        vol
    } else {
        vol / index
    }
}

/// Exact footprint size for a **rectangular** tile and a depth-2 nest
/// with *any* reference matrix `G` — §3.8's claim that "the size of the
/// footprint can be computed precisely ... \[when\] the loop nesting
/// l = 2", in closed or semi-closed form (no data-space enumeration):
///
/// * rank 2 (independent rows): `(λ₁+1)(λ₂+1)` — Theorem 5;
/// * rank 1: the image lies on a line `c·v̄` with `v̄` primitive, row `r`
///   of `G` equal to `c_r·v̄`; distinct points = distinct values of
///   `c₁·i + c₂·j` over the box, counted by
///   [`alp_lattice::count_distinct_affine_values`];
/// * rank 0: a single element.
///
/// # Panics
/// Panics unless `g` has exactly 2 rows and `lambda` 2 entries.
pub fn single_footprint_exact_l2(lambda: &[i128], g: &IMat) -> i128 {
    assert_eq!(g.rows(), 2, "depth-2 form");
    assert_eq!(lambda.len(), 2, "depth-2 form");
    match g.rank() {
        0 => 1,
        2 => (lambda[0] + 1) * (lambda[1] + 1),
        _ => {
            // Rank 1: both rows are integer multiples of one primitive
            // direction.
            let r0 = g.row(0);
            let r1 = g.row(1);
            let base = if r0.is_zero() { r1.clone() } else { r0.clone() };
            let v = base.primitive();
            let k0 = (0..v.len()).find(|&k| v[k] != 0).expect("nonzero row");
            let c = [r0[k0] / v[k0], r1[k0] / v[k0]];
            debug_assert_eq!(r0, v.scale(c[0]));
            debug_assert_eq!(r1, v.scale(c[1]));
            alp_lattice::count_distinct_affine_values(&c, lambda)
        }
    }
}

/// Volume of the zonotope spanned by the rows of `q` (m generators in
/// n-space, m ≥ n): `Σ |det Q_S|` over all n-row subsets `S`.
///
/// For square `q` this is `|det q|`.
///
/// # Panics
/// Panics if `q` has fewer rows than columns (not a full-dimensional
/// zonotope; callers reduce columns first).
pub fn zonotope_volume(q: &IMat) -> i128 {
    let (m, n) = (q.rows(), q.cols());
    assert!(m >= n, "zonotope needs at least n generators");
    let mut total = 0i128;
    for subset in combinations(m, n) {
        let rows: Vec<IVec> = subset.iter().map(|&r| q.row(r)).collect();
        let sub = IMat::from_row_vecs(&rows);
        total += sub.det().expect("square").abs();
    }
    total
}

/// All `k`-subsets of `0..m`, lexicographic.
pub(crate) fn combinations(m: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k > m {
        return out;
    }
    // Position `j` of a subset lies in `j..=m−k+j`; the increasing
    // tuples of that box, in its order, are the subsets.
    let (lo, hi): (Vec<usize>, Vec<usize>) = (0..k).map(|j| (j, m - k + j)).unzip();
    walk_box(&lo, &hi, &mut vec![0; k], |idx| {
        if idx.windows(2).all(|w| w[0] < w[1]) {
            out.push(idx.to_vec());
        }
        true
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn combinations_basics() {
        assert_eq!(combinations(3, 2), vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
        assert_eq!(combinations(2, 2), vec![vec![0, 1]]);
        assert_eq!(combinations(4, 1).len(), 4);
        assert!(combinations(2, 3).is_empty());
    }

    #[test]
    fn estimate_identity_reference() {
        // A[i,j] with a rect tile: footprint volume = tile volume.
        let tile = Tile::rect(&[10, 20]);
        let g = IMat::identity(2);
        assert_eq!(single_footprint_estimate(&tile, &g), 200);
        // Exact counts the closed box: 11*21.
        assert_eq!(single_footprint_exact(&tile, &g), 11 * 21);
    }

    #[test]
    fn example6_skewed_footprint() {
        // Example 6: L = [[L1,L1],[L2,0]], G = [[1,0],[1,1]],
        // estimate |det LG| = L1*L2; exact = L1*L2 + L1 + L2 + 1.
        let (l1, l2) = (5i128, 4i128);
        let tile = Tile::general(IMat::from_rows(&[&[l1, l1], &[l2, 0]]));
        let g = IMat::from_rows(&[&[1, 0], &[1, 1]]);
        assert_eq!(single_footprint_estimate(&tile, &g), l1 * l2);
        let exact = single_footprint_exact(&tile, &g) as i128;
        assert_eq!(exact, l1 * l2 + l1 + l2 + 1);
    }

    #[test]
    fn theorem5_independent_rows_count_tile_points() {
        // G = [[1,1],[1,-1]] nonsingular: footprint size == #tile points,
        // even though |det G| = 2 (the estimate would double-count).
        let tile = Tile::rect(&[6, 9]);
        let g = IMat::from_rows(&[&[1, 1], &[1, -1]]);
        assert_eq!(single_footprint_exact(&tile, &g) as i128, 7 * 10);
        // Lattice-corrected estimate: |det LG|/2 = (2*6*9)/2 = 54 ≈ 70-boundary.
        assert_eq!(single_footprint_lattice_corrected(&tile, &g), 54);
        assert_eq!(single_footprint_estimate(&tile, &g), 108);
    }

    #[test]
    fn a2i_density_correction() {
        // A[2i]: tile 0..=9 -> exact 10 distinct elements; det estimate 20;
        // corrected 10.
        let tile = Tile::rect(&[9]);
        let g = IMat::from_rows(&[&[2]]);
        assert_eq!(single_footprint_exact(&tile, &g), 10);
        assert_eq!(single_footprint_estimate(&tile, &g), 18);
        assert_eq!(single_footprint_lattice_corrected(&tile, &g), 9);
    }

    #[test]
    fn dependent_rows_zonotope() {
        // A[i+j]: zonotope generators (λ1), (λ2) in 1-D: volume λ1+λ2;
        // exact λ1+λ2+1.
        let tile = Tile::rect(&[7, 5]);
        let g = IMat::from_rows(&[&[1], &[1]]);
        assert_eq!(single_footprint_estimate(&tile, &g), 12);
        assert_eq!(single_footprint_exact(&tile, &g), 13);
    }

    #[test]
    fn example7_dependent_columns() {
        // A[i,2i,i+j]: G = [[1,2,1],[0,0,1]]; keep cols {0,2} -> G'
        // unimodular; estimate = |det(L·G')| = tile volume.
        let tile = Tile::rect(&[4, 6]);
        let g = IMat::from_rows(&[&[1, 2, 1], &[0, 0, 1]]);
        assert_eq!(single_footprint_estimate(&tile, &g), 24);
        assert_eq!(single_footprint_exact(&tile, &g), 5 * 7);
    }

    #[test]
    fn constant_reference() {
        let tile = Tile::rect(&[4, 4]);
        let g = IMat::zeros(2, 3);
        assert_eq!(single_footprint_estimate(&tile, &g), 1);
        assert_eq!(single_footprint_exact(&tile, &g), 1);
    }

    #[test]
    fn ferrante_comparison_reference() {
        // §5 claims the framework "yields better estimates for references
        // of the form A[i+j+k, 2i+3j+4k]" than Ferrante/Sarkar/Thrash.
        // G = [[1,2],[1,3],[1,4]] (rank 2, three dependent rows): the
        // zonotope estimate handles it directly.
        let g = IMat::from_rows(&[&[1, 2], &[1, 3], &[1, 4]]);
        let tile = Tile::rect(&[7, 7, 7]);
        let est = single_footprint_estimate(&tile, &g);
        let exact = single_footprint_exact(&tile, &g) as i128;
        // Zonotope volume: |det [[7,14],[7,21]]| + |det [[7,14],[7,28]]|
        // + |det [[7,21],[7,28]]| = 49 + 98 + 49 = 196.
        assert_eq!(est, 196);
        // The estimate is within boundary slack of the exact count and
        // FAR better than the naive dense-bounding-box count
        // ((7+7+7+1) x (14+21+28+1)) = 1408.
        let bbox = (7 + 7 + 7 + 1) * (14 + 21 + 28 + 1);
        assert!(
            (est - exact).abs() * 4 < exact,
            "est {est} vs exact {exact}"
        );
        assert!(bbox > 5 * exact, "bbox {bbox} vs exact {exact}");
    }

    #[test]
    fn zonotope_volume_3_generators_2d() {
        // Rows (2,0), (0,3), (1,1): vol = |det[[2,0],[0,3]]| +
        // |det[[2,0],[1,1]]| + |det[[0,3],[1,1]]| = 6 + 2 + 3 = 11.
        let q = IMat::from_rows(&[&[2, 0], &[0, 3], &[1, 1]]);
        assert_eq!(zonotope_volume(&q), 11);
    }

    #[test]
    fn exact_l2_cases() {
        // Rank 2.
        assert_eq!(
            single_footprint_exact_l2(&[4, 6], &IMat::from_rows(&[&[1, 1], &[1, -1]])),
            5 * 7
        );
        // Rank 1: A[i+j] -> values 0..λ1+λ2.
        assert_eq!(
            single_footprint_exact_l2(&[4, 6], &IMat::from_rows(&[&[1], &[1]])),
            11
        );
        // Rank 1 with a gap structure: A[2i+3j, 4i+6j] (both rows
        // multiples of (2... direction (1, ...)): rows (2,4) and (3,6)
        // are multiples of (1,2): c = (2, 3).
        let g = IMat::from_rows(&[&[2, 4], &[3, 6]]);
        assert_eq!(
            single_footprint_exact_l2(&[5, 5], &g),
            single_footprint_exact(&Tile::rect(&[5, 5]), &g) as i128
        );
        // Rank 0.
        assert_eq!(single_footprint_exact_l2(&[3, 3], &IMat::zeros(2, 2)), 1);
    }

    proptest! {
        #[test]
        fn exact_l2_matches_enumeration(
            e in proptest::collection::vec(-3i128..=3, 4),
            l1 in 0i128..=6, l2 in 0i128..=6,
        ) {
            let g = IMat::from_vec(2, 2, e);
            let fast = single_footprint_exact_l2(&[l1, l2], &g);
            let slow = single_footprint_exact(&Tile::rect(&[l1, l2]), &g) as i128;
            prop_assert_eq!(fast, slow, "G = {}", g);
        }

        #[test]
        fn exact_l2_matches_enumeration_1d(
            e in proptest::collection::vec(-4i128..=4, 2),
            l1 in 0i128..=6, l2 in 0i128..=6,
        ) {
            let g = IMat::from_vec(2, 1, e);
            let fast = single_footprint_exact_l2(&[l1, l2], &g);
            let slow = single_footprint_exact(&Tile::rect(&[l1, l2]), &g) as i128;
            prop_assert_eq!(fast, slow, "G = {}", g);
        }

        #[test]
        fn estimate_vs_exact_error_is_boundary_order(
            l1 in 3i128..=10, l2 in 3i128..=10,
            a in -2i128..=2, b in -2i128..=2, flip in proptest::bool::ANY,
        ) {
            // Build a unimodular G as a product of shears (optionally
            // mirrored) so the strategy never rejects.
            let shear1 = IMat::from_rows(&[&[1, a], &[0, 1]]);
            let shear2 = IMat::from_rows(&[&[1, 0], &[b, 1]]);
            let mirror = IMat::from_rows(&[&[1, 0], &[0, if flip { -1 } else { 1 }]]);
            let g = shear1.mul(&shear2).unwrap().mul(&mirror).unwrap();
            assert!(g.is_unimodular());
            let tile = Tile::rect(&[l1, l2]);
            let exact = single_footprint_exact(&tile, &g) as i128;
            let est = single_footprint_estimate(&tile, &g);
            // For unimodular G (Theorem 1), the exact count is the integer
            // points of S(LG): volume + O(perimeter).
            prop_assert!(exact >= est, "exact {} < estimate {}", exact, est);
            let slack = 4 * (l1 + l2) + 4;
            prop_assert!(exact - est <= slack, "error too large: {} vs {}", exact, est);
        }

        #[test]
        fn exact_injective_iff_rows_independent(
            e in proptest::collection::vec(-2i128..=2, 4),
            l1 in 1i128..=5, l2 in 1i128..=5,
        ) {
            let g = IMat::from_vec(2, 2, e);
            let tile = Tile::rect(&[l1, l2]);
            let exact = single_footprint_exact(&tile, &g) as i128;
            if g.rank() == 2 {
                prop_assert_eq!(exact, (l1 + 1) * (l2 + 1));
            } else {
                prop_assert!(exact <= (l1 + 1) * (l2 + 1));
            }
        }
    }
}
