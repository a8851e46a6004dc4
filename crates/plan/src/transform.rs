//! Unimodular loop transforms: skewed parallelepiped tiles executed as
//! rectangular tiles over a transformed iteration space.
//!
//! The paper's hyperparallelepiped tiles `(H, γ, λ)` with `H ≠ I`
//! (§3.7, Examples 2 and 10) are parallelograms in the original
//! iteration space.  Rather than teach every downstream layer to clip
//! and walk slanted boxes, we apply a **unimodular change of basis**:
//! with row-vector convention `j = i·U` (and the exact integer inverse
//! `i = j·V`, `V = U⁻¹`, which exists because `det U = ±1`), a tile
//! whose edges are the scaled basis vectors `λ_k·B_k` becomes the
//! axis-aligned box with extents `λ_k` in `j`-space when `U = B⁻¹`.
//!
//! The price of the rotation is that the *domain* — the image of the
//! original rectangular bounds — is no longer rectangular: it is the
//! polyhedron `{j : lo_d ≤ (j·V)_d ≤ hi_d}`.  [`TransformedDomain`]
//! owns that polyhedron: its bounding box (which [`Tiling`](crate::Tiling)
//! chunks exactly as it chunks the loop bounds of an untransformed
//! plan), membership tests, exact row enumeration with
//! per-row clipped trip bounds (each constraint resolves to an exact
//! integer interval at the deepest `j`-level where it has a nonzero
//! coefficient), and exact point counting.  Runtime execution and
//! certificate re-proving both walk rows through this one enumerator,
//! so "which transformed iterations does tile `t` own?" has exactly
//! one answer.

use crate::fingerprint::fingerprint_hex;
use crate::plan::feasible;
use crate::tiles::IterBox;
use crate::PlanError;
use alp_linalg::IMat;
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

    /// Map an original point to transformed coordinates (`j = i·U`).
    pub fn to_j(&self, i: &[i64]) -> Option<Vec<i64>> {
        map_point(&self.u, i)
    }

    /// Map a transformed point back (`i = j·V`).
    pub fn to_i(&self, j: &[i64]) -> Option<Vec<i64>> {
        map_point(&self.v, j)
    }

    /// The image of the nest's rectangular bounds in `j`-space.
    pub fn domain(&self, nest: &LoopNest) -> Result<TransformedDomain, PlanError> {
        let n = self.depth();
        if n != nest.depth() {
            return Err(PlanError::Transform(format!(
                "transform rank {} does not match nest depth {}",
                n,
                nest.depth()
            )));
        }
        let (lo, hi): (Vec<i128>, Vec<i128>) = nest.bounds().unzip();
        // `j_k = Σ_d i_d·U[d][k]` is affine in `ī`: its exact range over
        // the loop-bound box.
        let mut jlo = Vec::with_capacity(n);
        let mut jhi = Vec::with_capacity(n);
        for k in 0..n {
            let (min, max) = (AffineExpr::new(self.u.col(k).0, 0).range(nest.bounds()))
                .ok_or_else(|| PlanError::Transform("transformed bound overflows i128".into()))?;
            jlo.push(to_i64(min, "transformed bound")?);
            jhi.push(to_i64(max, "transformed bound")?);
        }
        // Each original-bound constraint pair is enforced at the deepest
        // j-level with a nonzero coefficient; V is nonsingular, so every
        // column has one.
        let level = (0..n)
            .map(|d| {
                (0..n)
                    .rfind(|&k| self.v[(k, d)] != 0)
                    .expect("V is nonsingular")
            })
            .collect();
        Ok(TransformedDomain {
            v: self.v.clone(),
            lo,
            hi,
            jlo,
            jhi,
            level,
        })
    }
}

/// `x·M` with overflow checking, narrowing back to `i64`.
fn map_point(m: &IMat, x: &[i64]) -> Option<Vec<i64>> {
    if x.len() != m.rows() {
        return None;
    }
    (0..m.cols())
        .map(|k| {
            let s: i128 = x
                .iter()
                .enumerate()
                .map(|(d, &xd)| xd as i128 * m[(d, k)])
                .sum();
            i64::try_from(s).ok()
        })
        .collect()
}

fn to_i64(v: i128, what: &str) -> Result<i64, PlanError> {
    i64::try_from(v).map_err(|_| PlanError::Transform(format!("{what} {v} overflows i64")))
}

fn div_floor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) == (b < 0) {
        q + 1
    } else {
        q
    }
}

/// The image of a nest's rectangular iteration space under a
/// [`Transform`]: the polyhedron `{j : lo_d ≤ (j·V)_d ≤ hi_d ∀d}`,
/// together with its axis-aligned bounding box in `j`-space.
///
/// Row enumeration is **exact**: every constraint is applied as an
/// integer interval at the deepest `j`-level where its `V` coefficient
/// is nonzero (all deeper coefficients are zero there, so the partial
/// sum is final and the division bound is tight).  At the innermost
/// level all constraints are resolved, so each emitted row
/// `(j₀,…,j_{n−2}, jlo..=jhi)` contains exactly the in-domain points —
/// the executor's pointer-bump inner loop needs no per-point test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformedDomain {
    v: IMat,
    lo: Vec<i128>,
    hi: Vec<i128>,
    jlo: Vec<i64>,
    jhi: Vec<i64>,
    /// For each original dimension `d`, the deepest level `k` with
    /// `V[k][d] ≠ 0` — where the `d` bounds pair resolves exactly.
    level: Vec<usize>,
}

impl TransformedDomain {
    /// Inclusive lower corner of the `j`-space bounding box.
    pub fn jlo(&self) -> &[i64] {
        &self.jlo
    }

    /// Inclusive upper corner of the `j`-space bounding box.
    pub fn jhi(&self) -> &[i64] {
        &self.jhi
    }

    /// Nest depth.
    pub fn depth(&self) -> usize {
        self.v.rows()
    }

    /// True when `j` maps back inside the original bounds.
    pub fn contains(&self, j: &[i64]) -> bool {
        (0..self.v.cols()).all(|d| {
            let s: i128 = j
                .iter()
                .enumerate()
                .map(|(k, &jk)| jk as i128 * self.v[(k, d)])
                .sum();
            self.lo[d] <= s && s <= self.hi[d]
        })
    }

    /// Visit every maximal in-domain row inside `bx` in row-major order.
    /// `f` receives a scratch coordinate vector with the prefix
    /// `j₀..j_{n−2}` filled in (the last entry is unspecified) and the
    /// inclusive innermost range `lo..=hi`; returning `false` stops the
    /// walk early.  Returns `true` when every row was visited.
    pub fn for_each_row(
        &self,
        bx: &IterBox,
        mut f: impl FnMut(&mut [i64], i64, i64) -> bool,
    ) -> bool {
        let n = self.depth();
        debug_assert_eq!(bx.lo.len(), n);
        let mut j = vec![0i64; n];
        self.walk(bx, 0, &mut j, &mut f)
    }

    fn walk<F: FnMut(&mut [i64], i64, i64) -> bool>(
        &self,
        bx: &IterBox,
        level: usize,
        j: &mut Vec<i64>,
        f: &mut F,
    ) -> bool {
        let n = self.depth();
        let mut lo = bx.lo[level] as i128;
        let mut hi = bx.hi[level] as i128;
        for d in 0..n {
            if self.level[d] != level {
                continue;
            }
            let c = self.v[(level, d)];
            let s: i128 = (0..level).map(|k| j[k] as i128 * self.v[(k, d)]).sum();
            let a = self.lo[d] - s;
            let b = self.hi[d] - s;
            let (l2, h2) = if c > 0 {
                (div_ceil(a, c), div_floor(b, c))
            } else {
                (div_ceil(b, c), div_floor(a, c))
            };
            lo = lo.max(l2);
            hi = hi.min(h2);
        }
        if lo > hi {
            return true;
        }
        // Clipped within the box's i64 bounds, so the narrowing is safe.
        let (lo, hi) = (lo as i64, hi as i64);
        if level + 1 == n {
            return f(j, lo, hi);
        }
        for x in lo..=hi {
            j[level] = x;
            if !self.walk(bx, level + 1, j, f) {
                return false;
            }
        }
        true
    }

    /// Map an in-domain `j` back to original coordinates (`i = j·V`).
    pub(crate) fn to_i(&self, j: &[i64]) -> Vec<i64> {
        // Unreachable expect: the point lies within the nest's bounds,
        // which `Tiling::new` checked to fit `i64`.
        map_point(&self.v, j).expect("in-domain point fits i64")
    }

    /// Visit every in-domain point inside `bx` in row-major order.
    pub fn for_each_point(&self, bx: &IterBox, mut f: impl FnMut(&[i64])) {
        self.for_each_row(bx, |j, lo, hi| {
            let n = j.len();
            for x in lo..=hi {
                j[n - 1] = x;
                f(j);
            }
            true
        });
    }

    /// Exact number of in-domain points inside `bx`.
    pub fn count(&self, bx: &IterBox) -> i128 {
        let mut total: i128 = 0;
        self.for_each_row(bx, |_, lo, hi| {
            total += (hi - lo + 1) as i128;
            true
        });
        total
    }
}

/// One skewed-tile candidate `(H, γ, λ)` realized as a transform plus a
/// rectangular `j`-space grid — the currency of the plan-level skewed
/// candidate enumeration and of the calibrated hybrid re-ranking.
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
        let domain = transform.domain(nest)?;
        let mut grid = Vec::with_capacity(nest.depth());
        let mut tile_extents = Vec::with_capacity(nest.depth());
        for k in 0..nest.depth() {
            let extent = (domain.jhi()[k] as i128 - domain.jlo()[k] as i128 + 1).max(1);
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
    fn to_j_to_i_round_trip() {
        let nest = example2();
        let t = Transform::new(skew2(), fingerprint_hex(&nest)).unwrap();
        let i = [101, 1];
        let j = t.to_j(&i).unwrap();
        assert_eq!(j, vec![101, 102]);
        assert_eq!(t.to_i(&j).unwrap(), i.to_vec());
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
        let p0 = t.to_j(&[200, 50]).unwrap();
        let p1 = t.to_j(&[203, 53]).unwrap(); // +3·(1,1)
        assert_eq!(p1[0] - p0[0], 3);
        assert_eq!(p1[1] - p0[1], 0);
    }

    /// The partition invariant for transformed tiles: exact disjoint
    /// cover of the original space through the bijection.
    fn assert_transformed_cover(nest: &LoopNest, t: &Transform, grid: &[i128]) {
        let tiling = crate::Tiling::new(nest, Some(t), grid).unwrap();
        let (tiles, domain) = (tiling.boxes(), t.domain(nest).unwrap());
        assert_eq!(tiles.len() as i128, grid.iter().product::<i128>());
        let mut seen: HashSet<Vec<i64>> = HashSet::new();
        let mut count: i128 = 0;
        for bx in tiles {
            domain.for_each_point(bx, |j| {
                assert!(domain.contains(j), "emitted point outside domain");
                let i = t.to_i(j).expect("maps back");
                for (d, l) in nest.loops.iter().enumerate() {
                    assert!(
                        (i[d] as i128) >= l.lower && (i[d] as i128) <= l.upper,
                        "point {i:?} outside original bounds"
                    );
                }
                assert!(seen.insert(i), "original point covered twice");
                count += 1;
            });
            assert_eq!(domain.count(bx), {
                let mut c = 0i128;
                domain.for_each_point(bx, |_| c += 1);
                c
            });
        }
        assert_eq!(count, nest.iteration_count(), "exact cover");
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
        // A triangular j-space domain: U=[[1,1],[0,1]] on a small square.
        let nest = parse("doall (i, 0, 3) { doall (j, 0, 3) { A[i,j] = A[i,j]; } }").unwrap();
        let t = Transform::new(skew2(), fingerprint_hex(&nest)).unwrap();
        let domain = t.domain(&nest).unwrap();
        // j0 = i ∈ [0,3]; j1 = i + j ∈ [0,6].
        assert_eq!(domain.jlo(), &[0, 0]);
        assert_eq!(domain.jhi(), &[3, 6]);
        let whole = IterBox {
            lo: domain.jlo().to_vec(),
            hi: domain.jhi().to_vec(),
        };
        let mut rows = Vec::new();
        domain.for_each_row(&whole, |j, lo, hi| {
            rows.push((j[0], lo, hi));
            true
        });
        // Row at j0 = x is j1 ∈ [x, x+3]: the clip follows the skew.
        assert_eq!(rows, vec![(0, 0, 3), (1, 1, 4), (2, 2, 5), (3, 3, 6)]);
        assert_eq!(domain.count(&whole), nest.iteration_count());
        // Early stop propagates.
        let mut visited = 0;
        let done = domain.for_each_row(&whole, |_, _, _| {
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
            match t.domain(&nest) {
                Err(PlanError::Transform(m)) => assert!(m.contains(what), "{m}"),
                other => panic!("{hi}: {other:?}"),
            }
        }
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

    proptest! {
        /// Random small unimodular transforms over random 2-D nests:
        /// the transformed tiling is always an exact disjoint cover of
        /// the original iteration space (bijectivity + exact clipping).
        #[test]
        fn random_transform_tiles_always_cover(
            ni in 1i64..=7, nj in 1i64..=7,
            o0 in -3i64..=3, o1 in -3i64..=3,
            s in -2i128..=2, flip in proptest::bool::ANY,
            gi in 1i128..=3, gj in 1i128..=3,
        ) {
            let nest = parse(&format!(
                "doall (i, {}, {}) {{ doall (j, {}, {}) {{ A[i,j] = A[i,j]; }} }}",
                o0, o0 + ni - 1, o1, o1 + nj - 1
            )).unwrap();
            // [[1,s],[0,1]] (optionally row-swapped) is always unimodular.
            let u = if flip {
                IMat::from_rows(&[&[0, 1], &[1, s]])
            } else {
                IMat::from_rows(&[&[1, s], &[0, 1]])
            };
            let t = Transform::new(u, fingerprint_hex(&nest)).unwrap();
            assert_transformed_cover(&nest, &t, &[gi, gj]);
        }
    }
}
