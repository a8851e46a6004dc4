//! Unimodular loop transforms: skewed parallelepiped tiles cut as
//! rectangular boxes of a transformed iteration space.
//!
//! The paper's hyperparallelepiped tiles `(H, γ, λ)` with `H ≠ I`
//! (§3.7, Examples 2 and 10) are parallelograms in the original
//! iteration space.  A **unimodular change of basis** makes them boxes:
//! with row-vector convention `j = i·U` (and the exact integer inverse
//! `i = j·V`, `V = U⁻¹`, which exists because `det U = ±1`), a tile
//! whose edges are the scaled basis vectors `λ_k·B_k` becomes the
//! axis-aligned box with extents `λ_k` in `j`-space when `U = B⁻¹`.
//!
//! The transform decides which iterations a tile owns, not the order
//! they run in.  The *domain* — the image of the original rectangular
//! bounds — is the polyhedron `{j : lo_d ≤ (j·V)_d ≤ hi_d}`;
//! [`Transform::bounds`] is its bounding box, which
//! [`Tiling`](crate::Tiling) chunks exactly as it chunks the loop bounds
//! of an untransformed plan, and whose tiles it walks as exact rows of
//! the nest's own iteration space, in its own lexicographic order.

use crate::fingerprint::fingerprint_hex;
use crate::plan::feasible;
use crate::PlanError;
use alp_footprint::CostModel;
use alp_linalg::{row_hnf, IMat, IVec};
use alp_loopir::{AffineExpr, LoopNest};
use alp_partition::{para_candidates, ParaSearchConfig};

/// A unimodular change of loop basis, bound to the structural
/// fingerprint of the nest it was derived for (like a
/// [`Certificate`](crate::Certificate), a transform cannot be grafted
/// onto a different nest).
///
/// Row-vector convention throughout: transformed coordinates are
/// `j = i·U`, original coordinates are `i = j·V` with `V = U⁻¹` exact
/// and integral.  The inverse is computed once at construction and
/// carried alongside, so consumers never re-invert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transform {
    u: IMat,
    v: IMat,
    fingerprint: String,
}

impl Transform {
    /// Wrap a unimodular matrix as a transform.  Rejects non-square,
    /// singular, and non-unimodular (|det| ≠ 1) matrices with a
    /// [`PlanError::Transform`] diagnostic.
    pub fn new(u: IMat, fingerprint: String) -> Result<Transform, PlanError> {
        if !u.is_square() || u.rows() == 0 {
            return Err(PlanError::Transform(format!(
                "transform matrix must be square and nonempty, got {}x{}",
                u.rows(),
                u.cols()
            )));
        }
        let det = u.det().map_err(|e| {
            PlanError::Transform(format!("transform matrix has no determinant: {e}"))
        })?;
        if det == 0 {
            return Err(PlanError::Transform(
                "transform matrix is singular (det 0), so it has no inverse".into(),
            ));
        }
        if det != 1 && det != -1 {
            return Err(PlanError::Transform(format!(
                "transform matrix has det {det}; a loop transform must be \
                 unimodular (det ±1) so its inverse stays integral"
            )));
        }
        let v = u
            .unimodular_inverse()
            .map_err(|e| PlanError::Transform(format!("transform matrix does not invert: {e}")))?;
        Ok(Transform { u, v, fingerprint })
    }

    /// Build the transform that maps tiles with edge directions given by
    /// the rows of `basis` to axis-aligned boxes: `U = basis⁻¹`, so an
    /// edge `λ_k·B_k` becomes `λ_k·e_k` in `j`-space.
    pub fn from_basis(basis: &IMat, nest: &LoopNest) -> Result<Transform, PlanError> {
        let u = basis.unimodular_inverse().map_err(|e| {
            PlanError::Transform(format!("tile basis {basis} is not unimodular: {e}"))
        })?;
        Transform::new(u, fingerprint_hex(nest))
    }

    /// The forward matrix `U` (`j = i·U`).
    pub fn u(&self) -> &IMat {
        &self.u
    }

    /// The exact inverse `V = U⁻¹` (`i = j·V`); its rows are the tile
    /// edge directions in the original space.
    pub fn v(&self) -> &IMat {
        &self.v
    }

    /// Fingerprint of the nest the transform was derived for.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Rank of the transform (must equal the nest depth).
    pub fn depth(&self) -> usize {
        self.u.rows()
    }

    /// True when the transform is the identity — the "skewed" plan is
    /// really rectangular.
    pub fn is_identity(&self) -> bool {
        self.u == IMat::identity(self.u.rows())
    }

    /// The bounding box of the nest's image in `j`-space: per
    /// transformed dimension `k`, the exact range of `j_k = Σ_d i_d·U[d][k]`
    /// over the loop bounds.  Fails when the rank does not match the nest
    /// or a bound does not fit `i64`.
    pub fn bounds(&self, nest: &LoopNest) -> Result<Vec<(i128, i128)>, PlanError> {
        let n = self.depth();
        if n != nest.depth() {
            return Err(PlanError::Transform(format!(
                "transform rank {} does not match nest depth {}",
                n,
                nest.depth()
            )));
        }
        (0..n)
            .map(|k| {
                let (min, max) = (AffineExpr::new(self.u.col(k).0, 0).range(nest.bounds()))
                    .ok_or_else(|| {
                        PlanError::Transform("transformed bound overflows i128".into())
                    })?;
                match [min, max].into_iter().find(|&v| i64::try_from(v).is_err()) {
                    Some(v) => Err(PlanError::Transform(format!(
                        "transformed bound {v} overflows i64"
                    ))),
                    None => Ok((min, max)),
                }
            })
            .collect()
    }
}

/// One skewed-tile candidate `(H, γ, λ)` realized as a transform plus a
/// rectangular `j`-space grid — the currency of the plan-level skewed
/// candidate enumeration.
#[derive(Debug, Clone)]
pub struct SkewedCandidate {
    /// The unimodular transform (`U = basis⁻¹`).
    pub transform: Transform,
    /// Tile edge directions in the original space (rows).
    pub basis: IMat,
    /// The optimizer's integer edge lengths λ.
    pub lambda: Vec<i128>,
    /// Virtual processors along each `j`-space dimension.
    pub grid: Vec<i128>,
    /// Interior tile extent per `j`-space dimension (inclusive
    /// convention: chunk − 1).
    pub tile_extents: Vec<i128>,
    /// The Theorem-2 modeled cumulative footprint of one tile.
    pub analytic_cost: i128,
}

impl SkewedCandidate {
    /// The slabs along the hyperplane normal `h` (§3.6's
    /// communication-free partitions) for `p` processors: the transform
    /// whose first coordinate is `j_0 = h·ī`, with `h` divided by its
    /// gcd, on the grid `[p, 1, …]`.  Tile `t` owns the points with
    /// `⌊(h·ī − min)/⌈span/p⌉⌋ = t`, where `min` and `span` are those of
    /// `h·ī` over the loop bounds.  `row_hnf` gives a unimodular `u` with
    /// `u·h = e₁`, so `U = u⁻¹` has `h` as its first column.  Fails
    /// when `h` is zero or does not match the nest's depth, and as
    /// [`skewed_candidates`] does.
    pub fn slabs(nest: &LoopNest, h: &IVec, p: i128) -> Result<SkewedCandidate, PlanError> {
        feasible(nest, p)?;
        let n = nest.depth();
        if h.len() != n || h.is_zero() {
            return Err(PlanError::Transform(format!(
                "slab normal {h} is not a nonzero vector of depth {n}"
            )));
        }
        let u = row_hnf(&IMat::from_vec(n, 1, h.primitive().0)).u;
        let u = u
            .unimodular_inverse()
            .map_err(|e| PlanError::Transform(format!("Hermite transform does not invert: {e}")))?;
        let transform = Transform::new(u, fingerprint_hex(nest))?;
        let grid: Vec<i128> = (0..n).map(|k| if k == 0 { p } else { 1 }).collect();
        let lambda: Vec<i128> = (transform.bounds(nest)?.iter().zip(&grid))
            .map(|(&(lo, hi), &g)| (hi - lo + g) / g)
            .collect();
        let mut slabs = SkewedCandidate {
            basis: transform.v().clone(),
            transform,
            tile_extents: lambda.iter().map(|c| c - 1).collect(),
            lambda,
            grid,
            analytic_cost: 0,
        };
        slabs.analytic_cost = CostModel::from_nest(nest).cost_general(&slabs.tile());
        Ok(slabs)
    }

    /// The tile the candidate's grid actually cuts, as the rows of `L`:
    /// edge `k` is `(tile_extents[k] + 1)·basis[k]`.
    pub(crate) fn tile(&self) -> IMat {
        let rows: Vec<IVec> = (self.tile_extents.iter().enumerate())
            .map(|(k, &e)| self.basis.row(k).scale(e + 1))
            .collect();
        IMat::from_row_vecs(&rows)
    }
}

/// Enumerate skewed-tile candidates for `p` processors: every
/// non-identity unimodular basis from the §3.6 parallelepiped search,
/// with its Lagrange-optimal integer edge lengths, realized as a
/// `j`-space processor grid.  Ordered by the analytic Theorem-2 cost,
/// best first.  The identity basis is excluded — that candidate class
/// is exactly the rectangular planner's, which owns it.
pub fn skewed_candidates(
    nest: &LoopNest,
    p: i128,
    config: &ParaSearchConfig,
) -> Result<Vec<SkewedCandidate>, PlanError> {
    feasible(nest, p)?;
    let identity = IMat::identity(nest.depth());
    let mut out = Vec::new();
    for cand in para_candidates(nest, p, config) {
        if cand.basis == identity {
            continue;
        }
        let transform = match Transform::from_basis(&cand.basis, nest) {
            Ok(t) => t,
            Err(_) => continue, // basis not invertible over ℤ: not a tiling we can execute
        };
        let mut grid = Vec::with_capacity(nest.depth());
        let mut tile_extents = Vec::with_capacity(nest.depth());
        for (k, (lo, hi)) in transform.bounds(nest)?.into_iter().enumerate() {
            let extent = (hi - lo + 1).max(1);
            let lam = cand.lambda[k].max(1);
            let g = ((extent + lam - 1) / lam).max(1);
            let chunk = (extent + g - 1) / g;
            grid.push(g);
            tile_extents.push(chunk - 1);
        }
        out.push(SkewedCandidate {
            transform,
            basis: cand.basis,
            lambda: cand.lambda,
            grid,
            tile_extents,
            analytic_cost: cand.cost,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterBox;
    use alp_linalg::IVec;
    use alp_loopir::parse;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn example2() -> LoopNest {
        parse(
            "doall (i, 101, 612) { doall (j, 1, 512) {
               A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
             } }",
        )
        .unwrap()
    }

    fn skew2() -> IMat {
        // U = [[1,1],[0,1]]: j = (i, i+j).
        IMat::from_rows(&[&[1, 1], &[0, 1]])
    }

    #[test]
    fn transform_validates_unimodularity() {
        let nest = example2();
        let fp = fingerprint_hex(&nest);
        assert!(Transform::new(skew2(), fp.clone()).is_ok());
        let singular = IMat::from_rows(&[&[1, 1], &[1, 1]]);
        let err = Transform::new(singular, fp.clone()).unwrap_err();
        assert!(matches!(err, PlanError::Transform(_)), "{err}");
        assert!(err.to_string().contains("singular"), "{err}");
        let det2 = IMat::from_rows(&[&[2, 0], &[0, 1]]);
        let err = Transform::new(det2, fp.clone()).unwrap_err();
        assert!(err.to_string().contains("det 2"), "{err}");
        let nonsquare = IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0]]);
        assert!(Transform::new(nonsquare, fp).is_err());
    }

    #[test]
    fn u_and_v_map_a_point_both_ways() {
        let nest = example2();
        let t = Transform::new(skew2(), fingerprint_hex(&nest)).unwrap();
        let i = IVec::new(&[101, 1]);
        let j = t.u().apply_row(&i).unwrap();
        assert_eq!(j, IVec::new(&[101, 102]));
        assert_eq!(t.v().apply_row(&j).unwrap(), i);
        assert!(!t.is_identity());
        assert!(Transform::new(IMat::identity(2), t.fingerprint().into())
            .unwrap()
            .is_identity());
    }

    #[test]
    fn from_basis_maps_tile_edges_to_axes() {
        // Basis rows (1,1) and (1,0): the diagonal skew direction plus
        // a completing axis (det −1).  An edge λ·(1,1) must land on
        // λ·e₀.
        let nest = example2();
        let basis = IMat::from_rows(&[&[1, 1], &[1, 0]]);
        let t = Transform::from_basis(&basis, &nest).unwrap();
        assert_eq!(t.v(), &basis);
        let p0 = t.u().apply_row(&IVec::new(&[200, 50])).unwrap();
        let p1 = t.u().apply_row(&IVec::new(&[203, 53])).unwrap(); // +3·(1,1)
        assert_eq!(p1[0] - p0[0], 3);
        assert_eq!(p1[1] - p0[1], 0);
    }

    /// The `j`-space walk the original-coordinate walk replaced, by its
    /// definition: every `j` of the box whose pre-image `j·V` lies in the
    /// loop bounds.
    fn j_space_points(nest: &LoopNest, t: &Transform, bx: &IterBox) -> HashSet<Vec<i64>> {
        let mut points = HashSet::new();
        bx.for_each_point(|j| {
            let j = IVec(j.iter().map(|&x| x.into()).collect());
            let i = t.v().apply_row(&j).expect("maps back").0;
            if nest
                .bounds()
                .zip(&i)
                .all(|((lo, hi), x)| (lo..=hi).contains(x))
            {
                points.insert(i.iter().map(|&x| x as i64).collect());
            }
        });
        points
    }

    /// The partition invariant for transformed tiles: each tile's walk
    /// is exactly its `j`-box's pre-image, as lexicographic rows of the
    /// original space, and the tiles cover that space disjointly.
    fn assert_transformed_cover(nest: &LoopNest, t: &Transform, grid: &[i128]) {
        let tiling = crate::Tiling::new(nest, Some(t), grid).unwrap();
        assert_eq!(tiling.len() as i128, grid.iter().product::<i128>());
        let mut seen: HashSet<Vec<i64>> = HashSet::new();
        for (tile, bx) in tiling.boxes().iter().enumerate() {
            let (mut prefixes, mut points) = (Vec::new(), Vec::new());
            tiling.for_each_row(tile, |i, lo, hi| {
                assert!(lo <= hi, "an empty row is not emitted");
                let last = i.len() - 1;
                prefixes.push(i[..last].to_vec());
                for x in lo..=hi {
                    i[last] = x;
                    points.push(i.to_vec());
                }
                true
            });
            // One row per prefix, and points strictly increasing: rows
            // in lexicographic order, no point twice.
            assert!(prefixes.windows(2).all(|w| w[0] < w[1]), "{prefixes:?}");
            assert!(points.windows(2).all(|w| w[0] < w[1]), "{points:?}");
            let want = j_space_points(nest, t, bx);
            assert_eq!(points.len(), want.len());
            assert!(points.iter().all(|p| want.contains(p)));
            assert_eq!(tiling.points(tile), want.len() as u64);
            let mut walked = Vec::new();
            tiling.for_each_point(tile, |i| walked.push(i.to_vec()));
            assert_eq!(walked, points);
            for p in points {
                assert!(seen.insert(p), "original point covered twice");
            }
        }
        assert_eq!(seen.len() as i128, nest.iteration_count(), "exact cover");
    }

    #[test]
    fn skewed_tiling_covers_example2_exactly() {
        let nest = example2();
        let basis = IMat::from_rows(&[&[1, 1], &[1, 0]]);
        let t = Transform::from_basis(&basis, &nest).unwrap();
        assert_transformed_cover(&nest, &t, &[4, 4]);
        assert_transformed_cover(&nest, &t, &[1, 16]);
    }

    #[test]
    fn row_enumeration_is_clipped_exactly() {
        // U=[[1,1],[0,1]] on a small square: j = (i, i+j).
        let nest = parse("doall (i, 0, 3) { doall (j, 0, 3) { A[i,j] = A[i,j]; } }").unwrap();
        let t = Transform::new(skew2(), fingerprint_hex(&nest)).unwrap();
        let tiling = |grid: &[i128]| crate::Tiling::new(&nest, Some(&t), grid).unwrap();
        let panels = |tiling: &crate::Tiling| {
            let mut panels = Vec::new();
            tiling.for_each_panel(0, |i, rows, lo, hi| {
                panels.push((i[0], rows, lo, hi));
                true
            });
            panels
        };
        // Tile 0 of two along j1 is the box j1 = i + j ≤ 3: the triangle
        // below the antidiagonal, walked as rows of `j`: the clip follows
        // the skew, so no two rows share a range and each is a panel of
        // its own.
        let halves = tiling(&[1, 2]);
        assert_eq!(halves.bounds(), [(0, 3), (0, 6)]);
        let lower = IterBox {
            lo: vec![0, 0],
            hi: vec![3, 3],
        };
        assert_eq!(halves.boxes()[0], lower);
        let staircase = [(0, 1, 0, 3), (1, 1, 0, 2), (2, 1, 0, 1), (3, 1, 0, 0)];
        assert_eq!(panels(&halves), staircase);
        assert_eq!(halves.points(0), 10);
        // The whole domain's rows all span 0..=3: one panel of four.
        let whole = tiling(&[1, 1]);
        assert_eq!(panels(&whole), [(0, 4, 0, 3)]);
        assert_eq!(i128::from(whole.points(0)), nest.iteration_count());
        // Early stop propagates.
        let mut visited = 0;
        let done = halves.for_each_panel(0, |_, _, _, _| {
            visited += 1;
            visited < 2
        });
        assert!(!done);
        assert_eq!(visited, 2);
    }

    #[test]
    fn a_transformed_bound_that_overflows_is_refused() {
        // j1 = 2^100·i + j: past i64 for i ≤ 1024, past i128 for
        // i ≤ 2^62 — an error either way, never a wrapped box.
        for (hi, what) in [("1024", "overflows i64"), ("4611686018427387904", "i128")] {
            let src = format!("doall (i, 0, {hi}) {{ doall (j, 0, 3) {{ A[i,j] = A[i,j]; }} }}");
            let nest = parse(&src).unwrap();
            let u = IMat::from_rows(&[&[1, 1 << 100], &[0, 1]]);
            let t = Transform::new(u, fingerprint_hex(&nest)).unwrap();
            match crate::Tiling::new(&nest, Some(&t), &[1, 1]) {
                Err(PlanError::Transform(m)) => assert!(m.contains(what), "{m}"),
                other => panic!("{hi}: {other:?}"),
            }
        }
        // j1 = i + j fits i64 up to i = 2^62, but a row bound is a box
        // bound minus a partial sum: refused up front, not wrapped mid-walk.
        let near = |hi: &str| {
            let src = format!("doall (i, 0, {hi}) {{ doall (j, 0, 3) {{ A[i,j] = A[i,j]; }} }}");
            let nest = parse(&src).unwrap();
            let t = Transform::new(skew2(), fingerprint_hex(&nest)).unwrap();
            crate::Tiling::new(&nest, Some(&t), &[1, 1])
        };
        match near("4611686018427387904") {
            Err(PlanError::Transform(m)) => assert!(m.contains("walk"), "{m}"),
            other => panic!("{other:?}"),
        }
        assert!(near("1152921504606846976").is_ok());
    }

    #[test]
    fn skewed_candidates_exclude_identity_and_rank_by_cost() {
        // Example 3's nest: the translation (1,3) rewards a skewed basis.
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = B[i,j] + B[i+1,j+3];
             } }",
        )
        .unwrap();
        let cands = skewed_candidates(&nest, 16, &ParaSearchConfig::default()).unwrap();
        assert!(!cands.is_empty());
        let identity = IMat::identity(2);
        for c in &cands {
            assert_ne!(c.basis, identity);
            assert!(!c.transform.is_identity());
            assert_eq!(c.grid.len(), 2);
            assert!(c.grid.iter().all(|&g| g >= 1));
            assert!(c.tile_extents.iter().all(|&e| e >= 0));
        }
        for w in cands.windows(2) {
            assert!(w[0].analytic_cost <= w[1].analytic_cost);
        }
        // The winner still tiles the space exactly.
        let best = &cands[0];
        assert_transformed_cover(&nest, &best.transform, &best.grid);
    }

    /// A unimodular matrix: elementary row operations on the identity —
    /// negate a row, swap two, or add a multiple of one to another.
    fn unimodular(depth: usize, ops: &[(usize, usize, i128)]) -> IMat {
        let mut m: Vec<Vec<i128>> = (0..depth).map(|k| IMat::identity(depth).row(k).0).collect();
        for &(a, b, by) in ops {
            let (a, b) = (a % depth, b % depth);
            if a == b {
                m[a].iter_mut().for_each(|x| *x = -*x);
            } else if by == 0 {
                m.swap(a, b);
            } else {
                let add = m[a].clone();
                m[b].iter_mut().zip(add).for_each(|(x, y)| *x += by * y);
            }
        }
        IMat::from_vec(depth, depth, m.concat())
    }

    proptest! {
        /// Random small unimodular transforms over random 2-D and 3-D
        /// nests: each tile's walk is its `j`-box's pre-image (the
        /// `j`-space walk's point set and count) as lexicographic rows of
        /// the original space, and the tiles cover it exactly.
        #[test]
        fn random_transform_tiles_always_cover(
            dims in (2usize..=3).prop_flat_map(|d| {
                proptest::collection::vec((-3i64..=3, 1i64..=(if d == 2 { 7 } else { 4 }), 1i128..=3), d..=d)
            }),
            ops in proptest::collection::vec((0usize..3, 0usize..3, -2i128..=2), 0..=4),
        ) {
            let names = ["i", "j", "k"];
            let open: String = dims.iter().zip(names)
                .map(|(&(lo, n, _), x)| format!("doall ({x}, {lo}, {}) {{ ", lo + n - 1))
                .collect();
            let subs = names[..dims.len()].join(", ");
            let nest = parse(&format!(
                "{open}A[{subs}] = A[{subs}]; {}", "} ".repeat(dims.len())
            )).unwrap();
            let t = Transform::new(unimodular(dims.len(), &ops), fingerprint_hex(&nest)).unwrap();
            let grid: Vec<i128> = dims.iter().map(|d| d.2).collect();
            assert_transformed_cover(&nest, &t, &grid);
        }
    }
}
