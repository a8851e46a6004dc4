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
//! bounds — is the polyhedron `{j : lo_d ≤ (j·V)_d ≤ hi_d}`, and
//! [`TransformedDomain`] owns it: its bounding box (which
//! [`Tiling`](crate::Tiling) chunks exactly as it chunks the loop bounds
//! of an untransformed plan), and the one walk of a box's share of it —
//! exact rows of the nest's own iteration space, in its own
//! lexicographic order — behind row execution, point lists and counts.

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

    /// The image of the nest's rectangular bounds in `j`-space, and the
    /// walk that enumerates a `j`-box's share of it in original
    /// coordinates.  Fails when a transformed bound, or any sum the walk
    /// forms, does not fit `i64`.
    pub fn domain(&self, nest: &LoopNest) -> Result<TransformedDomain, PlanError> {
        let n = self.depth();
        if n != nest.depth() {
            return Err(PlanError::Transform(format!(
                "transform rank {} does not match nest depth {}",
                n,
                nest.depth()
            )));
        }
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
        let (lo, hi): (Vec<i128>, Vec<i128>) = nest.bounds().unzip();
        // Every sum the walk forms — a partial `Σ i_d·U[d][k]`, a box
        // bound minus one — is at most twice `Σ_d max|i_d|·|U[d][k]|`
        // in magnitude: bounding that once keeps the walk in `i64`.
        for k in 0..n {
            let reach = (0..n).try_fold(0i128, |acc, d| {
                let i = lo[d].unsigned_abs().max(hi[d].unsigned_abs());
                let term = i128::try_from(i)
                    .ok()?
                    .checked_mul(self.u[(d, k)].checked_abs()?)?;
                acc.checked_add(term)
            });
            if reach.is_none_or(|r| r > i128::from(i64::MAX / 2)) {
                return Err(PlanError::Transform(format!(
                    "the walk over transformed dimension {k} overflows i64"
                )));
            }
        }
        let to_i64s = |xs: Vec<i128>, what| -> Result<Vec<i64>, PlanError> {
            xs.into_iter().map(|x| to_i64(x, what)).collect()
        };
        let u = (0..n).flat_map(|d| self.u.row(d).0).collect();
        Ok(TransformedDomain {
            u: to_i64s(u, "transform entry")?,
            v: self.v.clone(),
            lo: to_i64s(lo, "loop bound")?,
            hi: to_i64s(hi, "loop bound")?,
            jlo,
            jhi,
        })
    }
}

fn to_i64(v: i128, what: &str) -> Result<i64, PlanError> {
    i64::try_from(v).map_err(|_| PlanError::Transform(format!("{what} {v} overflows i64")))
}

fn div_floor(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i64, b: i64) -> i64 {
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
/// A `j`-box is walked in the nest's **own** coordinates: its share of
/// the domain is the set of in-bounds `ī` whose image `ī·U` lies in the
/// box, scanned as lexicographic rows of `ī` — the order in which the
/// loops `alp-codegen`'s `emit_code` prints scan the tile.  A
/// level's range is the loop bounds and the box's bounding box in `ī`,
/// narrowed by each of the box's 2·l inequalities with the deeper
/// indices relaxed to their range; at the innermost level nothing is
/// relaxed, so each row `(i₀,…,i_{n−2}, lo..=hi)` is the exact integer
/// interval the inequalities leave and holds exactly the tile's points.
/// Every sum is `i64` (bounded once by [`Transform::domain`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformedDomain {
    /// `U` row-major: `j_k = Σ_d i_d·u[d·n + k]`.
    u: Vec<i64>,
    v: IMat,
    /// The nest's loop bounds.
    lo: Vec<i64>,
    hi: Vec<i64>,
    jlo: Vec<i64>,
    jhi: Vec<i64>,
}

/// One box's walk: its inequalities and, per level, what the indices
/// below it can still contribute.
struct BoxWalk {
    blo: Vec<i64>,
    bhi: Vec<i64>,
    /// The box's bounding box in `ī`, within the loop bounds.
    ibox: Vec<(i64, i64)>,
    /// `rest[m·n + k]`: the range of `Σ_{d>m} i_d·U[d][k]` over `ibox`.
    rest: Vec<(i64, i64)>,
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

    /// Visit the in-domain points whose image lies in the `j`-box `bx`
    /// as maximal rows of the original iteration space, in lexicographic
    /// order, grouped into panels: maximal runs of consecutive non-empty
    /// rows with one innermost range (the callback of
    /// [`Tiling::for_each_panel`](crate::Tiling::for_each_panel)).
    /// Returning `false` stops the walk early.  Returns `true` when every
    /// panel was visited.
    pub fn for_each_panel(
        &self,
        bx: &IterBox,
        mut f: impl FnMut(&mut [i64], u64, i64, i64) -> bool,
    ) -> bool {
        let n = self.depth();
        debug_assert_eq!(bx.lo.len(), n);
        // Points of the domain have `j` inside its bounding box, so the
        // box's own bounds can be clipped to it.
        let blo: Vec<i64> = (bx.lo.iter().zip(&self.jlo))
            .map(|(&b, &j)| b.max(j))
            .collect();
        let bhi: Vec<i64> = (bx.hi.iter().zip(&self.jhi))
            .map(|(&b, &j)| b.min(j))
            .collect();
        if blo.iter().zip(&bhi).any(|(l, h)| l > h) {
            return true;
        }
        let jbox = || (blo.iter().zip(&bhi)).map(|(&l, &h)| (i128::from(l), i128::from(h)));
        let mut ibox = Vec::with_capacity(n);
        for d in 0..n {
            // `i_d = Σ_k j_k·V[k][d]` over the box, within the loop
            // bounds: narrowed only when nonempty, so inside them.
            let (mut lo, mut hi) = (i128::from(self.lo[d]), i128::from(self.hi[d]));
            if let Some((a, b)) = AffineExpr::new(self.v.col(d).0, 0).range(jbox()) {
                (lo, hi) = (lo.max(a), hi.min(b));
            }
            if lo > hi {
                return true;
            }
            ibox.push((lo as i64, hi as i64));
        }
        let mut rest = vec![(0, 0); n * n];
        for k in 0..n {
            let (mut min, mut max) = (0, 0);
            for m in (0..n).rev() {
                rest[m * n + k] = (min, max);
                let c = self.u[m * n + k];
                let (a, b) = (ibox[m].0 * c, ibox[m].1 * c);
                (min, max) = (min + a.min(b), max + a.max(b));
            }
        }
        let walk = BoxWalk {
            blo,
            bhi,
            ibox,
            rest,
        };
        // `sums[m·n + k]`: `Σ_{d<m} i_d·U[d][k]` for the current prefix.
        let (mut i, mut sums) = (vec![0i64; n], vec![0i64; n * n]);
        self.walk(&walk, 0, &mut i, &mut sums, &mut f)
    }

    fn walk<F: FnMut(&mut [i64], u64, i64, i64) -> bool>(
        &self,
        w: &BoxWalk,
        m: usize,
        i: &mut [i64],
        sums: &mut [i64],
        f: &mut F,
    ) -> bool {
        let n = self.depth();
        let (lo, hi) = self.level(w, m, &sums[m * n..(m + 1) * n]);
        if m + 1 == n {
            // Depth 1: the one row is its own panel.
            return lo > hi || f(i, 1, lo, hi);
        }
        // At the next-outer level, consecutive rows of one range are
        // held in `run` — `(first, rows, range)` — until one differs.
        let mut run: Option<(i64, u64, (i64, i64))> = None;
        for x in lo..=hi {
            i[m] = x;
            for k in 0..n {
                sums[(m + 1) * n + k] = sums[m * n + k] + x * self.u[m * n + k];
            }
            if m + 2 < n {
                if !self.walk(w, m + 1, i, sums, f) {
                    return false;
                }
                continue;
            }
            let range = self.level(w, m + 1, &sums[(m + 1) * n..]);
            match &mut run {
                Some((_, rows, held)) if *held == range => *rows += 1,
                _ => {
                    if let Some((first, rows, (a, b))) = run.take() {
                        i[m] = first;
                        if !f(i, rows, a, b) {
                            return false;
                        }
                    }
                    run = (range.0 <= range.1).then_some((x, 1, range));
                }
            }
        }
        match run {
            Some((first, rows, (a, b))) => {
                i[m] = first;
                f(i, rows, a, b)
            }
            None => true,
        }
    }

    /// The range of `i_m` given the prefix sums `s`: every inequality
    /// `blo_k ≤ s_k + U[m][k]·i_m + r ≤ bhi_k` must hold for some `r` the
    /// deeper indices can still add (none at the innermost level, where
    /// the range is exact).
    #[inline]
    fn level(&self, w: &BoxWalk, m: usize, s: &[i64]) -> (i64, i64) {
        let n = self.depth();
        let (mut lo, mut hi) = w.ibox[m];
        for (k, &s) in s.iter().enumerate() {
            let (rmin, rmax) = w.rest[m * n + k];
            let (a, b) = (w.blo[k] - (s + rmax), w.bhi[k] - (s + rmin));
            let c = self.u[m * n + k];
            let (l, h) = match c.signum() {
                0 if a > 0 || b < 0 => return (1, 0),
                0 => continue,
                1 => (div_ceil(a, c), div_floor(b, c)),
                _ => (div_ceil(b, c), div_floor(a, c)),
            };
            (lo, hi) = (lo.max(l), hi.min(h));
        }
        (lo, hi)
    }

    /// Exact number of in-domain points of `bx`.
    pub fn count(&self, bx: &IterBox) -> i128 {
        let mut total: i128 = 0;
        self.for_each_panel(bx, |_, rows, lo, hi| {
            total += i128::from(rows) * i128::from(hi - lo + 1);
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
        let domain = t.domain(&nest).unwrap();
        assert_eq!(domain.jlo(), &[0, 0]);
        assert_eq!(domain.jhi(), &[3, 6]);
        let panels = |bx: &IterBox| {
            let mut panels = Vec::new();
            domain.for_each_panel(bx, |i, rows, lo, hi| {
                panels.push((i[0], rows, lo, hi));
                true
            });
            panels
        };
        // The box j1 = i + j ≤ 3 is the triangle below the antidiagonal,
        // walked as rows of `j`: the clip follows the skew, so no two
        // rows share a range and each is a panel of its own.
        let lower = IterBox {
            lo: vec![0, 0],
            hi: vec![3, 3],
        };
        let staircase = [(0, 1, 0, 3), (1, 1, 0, 2), (2, 1, 0, 1), (3, 1, 0, 0)];
        assert_eq!(panels(&lower), staircase);
        assert_eq!(domain.count(&lower), 10);
        // The whole domain's rows all span 0..=3: one panel of four.
        let whole = IterBox {
            lo: domain.jlo().to_vec(),
            hi: domain.jhi().to_vec(),
        };
        assert_eq!(panels(&whole), [(0, 4, 0, 3)]);
        assert_eq!(domain.count(&whole), nest.iteration_count());
        // Early stop propagates.
        let mut visited = 0;
        let done = domain.for_each_panel(&lower, |_, _, _, _| {
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
        // j1 = i + j fits i64 up to i = 2^62, but a row bound is a box
        // bound minus a partial sum: refused up front, not wrapped mid-walk.
        let near = |hi: &str| {
            let src = format!("doall (i, 0, {hi}) {{ doall (j, 0, 3) {{ A[i,j] = A[i,j]; }} }}");
            let nest = parse(&src).unwrap();
            Transform::new(skew2(), fingerprint_hex(&nest))
                .unwrap()
                .domain(&nest)
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
