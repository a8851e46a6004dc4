//! The ONE tile enumerator of the workspace.
//!
//! Every consumer of a partition — `alp-codegen`'s
//! iteration-to-processor assignment, `alp-runtime`'s native executor,
//! `alp-certify`'s coverage proof, `alp-calibrate`'s features,
//! `alp-machine`'s simulator driver — takes a [`Tiling`] from this
//! module, so "which iterations does processor `t` own?" has exactly one
//! answer for rectangular and skewed plans alike: the same
//! ceiling-division chunking, the same row-major tile→processor
//! numbering, and the same clamping at the upper boundary.

use crate::transform::{Transform, TransformedDomain};
use crate::PlanError;
use alp_linalg::{walk_box, IVec};
use alp_loopir::LoopNest;

/// An axis-aligned box of iterations, inclusive on both ends per
/// dimension.  Empty when any `lo > hi`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterBox {
    /// Inclusive lower corner.
    pub lo: Vec<i64>,
    /// Inclusive upper corner.
    pub hi: Vec<i64>,
}

impl IterBox {
    /// The box as inclusive `(lo, hi)` pairs per dimension, in `i128`.
    pub fn bounds(&self) -> impl Iterator<Item = (i128, i128)> + '_ {
        (self.lo.iter().zip(&self.hi)).map(|(&l, &h)| (l.into(), h.into()))
    }

    /// Number of iterations in the box (0 when empty).
    pub fn volume(&self) -> u64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| if h < l { 0 } else { (h - l + 1) as u64 })
            .product()
    }

    /// True when the box contains no iterations.
    pub fn is_empty(&self) -> bool {
        self.volume() == 0
    }

    /// Visit every iteration in row-major order (outermost dimension
    /// slowest), reusing one scratch vector.
    pub fn for_each_point(&self, mut f: impl FnMut(&[i64])) {
        walk_box(&self.lo, &self.hi, &mut vec![0; self.lo.len()], |p| {
            f(p);
            true
        });
    }

    /// Visit the box as panels, in row-major order: one per outer
    /// prefix `i₀..i_{n−3}`, spanning the whole next-outer extent (see
    /// [`Tiling::for_each_panel`] for the callback).  Returns `true` when
    /// every panel was visited.  A box of depth 0 has none.
    pub fn for_each_panel(&self, mut f: impl FnMut(&mut [i64], u64, i64, i64) -> bool) -> bool {
        let n = self.lo.len();
        if n == 0 || self.lo.iter().zip(&self.hi).any(|(l, h)| l > h) {
            return true;
        }
        let (lo, hi) = (self.lo[n - 1], self.hi[n - 1]);
        let mut i = self.lo.clone();
        let Some(across) = n.checked_sub(2) else {
            return f(&mut i, 1, lo, hi);
        };
        let first = self.lo[across];
        let rows = self.hi[across].abs_diff(first) + 1;
        walk_box(&self.lo[..across], &self.hi[..across], &mut i, |i| {
            i[across] = first;
            f(i, rows, lo, hi)
        })
    }
}

/// Run `f` over the rows of the panel `(i, rows, lo, hi)`, in order,
/// until it returns `false`; returns `false` when it did.
fn panel_rows(
    i: &mut [i64],
    rows: u64,
    lo: i64,
    hi: i64,
    f: &mut impl FnMut(&mut [i64], i64, i64) -> bool,
) -> bool {
    let Some(across) = i.len().checked_sub(2) else {
        return f(i, lo, hi);
    };
    let first = i[across];
    (0..rows as i64).all(|r| {
        i[across] = first + r;
        f(i, lo, hi)
    })
}

/// Which iterations tile `t` owns, and in what row order: `Π grid`
/// tiles, one per virtual processor, row-major over the grid (last
/// dimension fastest), cut by ceiling division out of a bounding box
/// and clamped at its upper boundary.  Empty boundary tiles are kept so
/// the numbering stays aligned with the processor grid.
///
/// The bounding box is the loop bounds themselves for a rectangular
/// plan, whose boxes are then *exact*; for a plan with a [`Transform`]
/// it is the bounding box of the transformed domain, and a tile is the
/// set of in-bounds `ī` whose image `ī·U` lies in its box.  Either way
/// every walk — rows, points, counts — runs in the nest's own
/// coordinates and order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tiling {
    boxes: Vec<IterBox>,
    bounds: Vec<(i128, i128)>,
    chunks: Vec<i128>,
    /// `None` means the boxes are exact.
    domain: Option<TransformedDomain>,
}

impl Tiling {
    /// Tile `nest` — or, with a transform, its image `j = i·U` — over
    /// `grid`.  Fails with [`PlanError::BadGrid`] on a grid of the wrong
    /// rank, a non-positive factor, or bounds that overflow `i64` /
    /// a tile count that overflows `usize`, and with
    /// [`PlanError::Transform`] when the transform does not fit the nest.
    pub fn new(
        nest: &LoopNest,
        transform: Option<&Transform>,
        grid: &[i128],
    ) -> Result<Tiling, PlanError> {
        if grid.len() != nest.depth() {
            return Err(PlanError::BadGrid(format!(
                "grid has {} dims, nest has {} parallel loops",
                grid.len(),
                nest.depth()
            )));
        }
        if grid.iter().any(|&g| g <= 0) {
            return Err(PlanError::BadGrid(format!(
                "grid extents must be positive, got {grid:?}"
            )));
        }
        let tiles_total = usize::try_from(grid.iter().product::<i128>())
            .map_err(|_| PlanError::BadGrid(format!("grid too large: {grid:?}")))?;
        let to_i64 = |v: i128, what: &str| {
            i64::try_from(v).map_err(|_| PlanError::BadGrid(format!("{what} {v} overflows i64")))
        };
        // Original-space points are handed out as `i64`, whichever
        // space the boxes live in.
        for l in &nest.loops {
            to_i64(l.lower, "loop bound")?;
            to_i64(l.upper, "loop bound")?;
        }
        let domain = transform.map(|t| t.domain(nest)).transpose()?;
        let bounds: Vec<(i128, i128)> = match &domain {
            None => nest.bounds().collect(),
            Some(d) => (d.jlo().iter().zip(d.jhi()))
                .map(|(&lo, &hi)| (i128::from(lo), i128::from(hi)))
                .collect(),
        };
        let chunks: Vec<i128> = (bounds.iter().zip(grid))
            .map(|(&(lo, hi), &g)| ((hi - lo + 1).max(0) + g - 1) / g)
            .collect();

        let tile = |coord: &[i128]| -> Result<IterBox, PlanError> {
            let mut bx = IterBox {
                lo: Vec::with_capacity(grid.len()),
                hi: Vec::with_capacity(grid.len()),
            };
            for (k, &(lo, hi)) in bounds.iter().enumerate() {
                let tile_lo = lo + coord[k] * chunks[k];
                bx.lo.push(to_i64(tile_lo, "tile bound")?);
                bx.hi
                    .push(to_i64((tile_lo + chunks[k] - 1).min(hi), "tile bound")?);
            }
            Ok(bx)
        };
        let mut boxes = Vec::with_capacity(tiles_total);
        let mut built = Ok(());
        // Row-major over the grid (last dim fastest).
        let (n, last): (usize, Vec<i128>) = (grid.len(), grid.iter().map(|g| g - 1).collect());
        walk_box(&vec![0; n], &last, &mut vec![0; n], |coord| {
            built = tile(coord).map(|bx| boxes.push(bx));
            built.is_ok()
        });
        built?;
        Ok(Tiling {
            boxes,
            bounds,
            chunks,
            domain,
        })
    }

    /// Number of tiles (`Π grid`, empty ones included).
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// True when the tiling has no tiles (never, for a tiling built by
    /// [`Tiling::new`]: every grid factor is at least one).
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// The tiles' boxes, in tile order — iteration space for a
    /// rectangular plan, `j`-space (not yet clipped) for a transformed
    /// one.
    pub fn boxes(&self) -> &[IterBox] {
        &self.boxes
    }

    /// The inclusive bounding box the grid cuts, per dimension, in the
    /// coordinates of [`boxes`](Tiling::boxes): the loop bounds, or the
    /// bounding box of the transformed domain.
    pub fn bounds(&self) -> &[(i128, i128)] {
        &self.bounds
    }

    /// Iterations per interior tile along each dimension (the paper's
    /// tile extents λ plus one).
    pub fn chunks(&self) -> &[i128] {
        &self.chunks
    }

    /// Interior tile extents λ in the paper's inclusive convention (a
    /// tile spans `λ_k + 1` iterations): the chunk sizes minus one.
    pub fn extents(&self) -> Vec<i128> {
        self.chunks.iter().map(|c| c - 1).collect()
    }

    /// True when the boxes over-approximate the tiles and walks clip
    /// them against a transformed domain.
    pub fn is_clipped(&self) -> bool {
        self.domain.is_some()
    }

    /// Exact number of iterations tile `t` owns.
    pub fn points(&self, t: usize) -> u64 {
        match &self.domain {
            None => self.boxes[t].volume(),
            Some(d) => u64::try_from(d.count(&self.boxes[t])).expect("tile point count fits u64"),
        }
    }

    /// Visit tile `t` as *panels* of the nest's **own** iteration space,
    /// in lexicographic order, until `f` returns `false`; returns `false`
    /// when the walk was stopped early.  A panel is a run of consecutive
    /// rows that step the next-outer index and share the outer prefix and
    /// the innermost range: `f` receives a scratch point with the prefix
    /// `i₀..i_{n−2}` of its first row filled in (the last entry is
    /// unspecified; `f` may change both), its row count and the inclusive
    /// range `lo..=hi`.  An exact box gives one panel per outer prefix; a
    /// clipped tile a maximal run of non-empty rows of one range, which
    /// for a skewed tile is often a single row.  A nest of depth 1 has
    /// one-row panels.
    pub fn for_each_panel(
        &self,
        t: usize,
        f: impl FnMut(&mut [i64], u64, i64, i64) -> bool,
    ) -> bool {
        match &self.domain {
            None => self.boxes[t].for_each_panel(f),
            Some(d) => d.for_each_panel(&self.boxes[t], f),
        }
    }

    /// Visit tile `t` as innermost rows `(i[..last], lo..=hi)`: its
    /// [panels](Tiling::for_each_panel) row by row, in the same order.
    pub fn for_each_row(&self, t: usize, mut f: impl FnMut(&mut [i64], i64, i64) -> bool) -> bool {
        self.for_each_panel(t, |i, rows, lo, hi| panel_rows(i, rows, lo, hi, &mut f))
    }

    /// Visit every iteration tile `t` owns, in row order.
    pub fn for_each_point(&self, t: usize, mut f: impl FnMut(&[i64])) {
        match &self.domain {
            None => self.boxes[t].for_each_point(f),
            Some(_) => {
                self.for_each_row(t, |i, lo, hi| {
                    let last = i.len() - 1;
                    for x in lo..=hi {
                        i[last] = x;
                        f(i);
                    }
                    true
                });
            }
        }
    }

    /// Every tile's iterations as explicit original-space point lists —
    /// the form the simulator and the code generator consume.
    pub fn assignment(&self) -> Vec<Vec<IVec>> {
        (0..self.len())
            .map(|t| {
                let mut pts = Vec::new();
                self.for_each_point(t, |i| pts.push(IVec(i.iter().map(|&x| x.into()).collect())));
                pts
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The partition invariant of the single enumerator: one tile per
    /// grid cell, and the tiles disjointly cover the iteration space.
    fn assert_disjoint_cover(nest: &LoopNest, grid: &[i128]) {
        let tiling = Tiling::new(nest, None, grid).unwrap();
        let tiles = tiling.boxes();
        let expected: i128 = grid.iter().product();
        assert_eq!(tiles.len() as i128, expected, "tile count == Π grid");
        let mut seen: HashSet<Vec<i64>> = HashSet::new();
        for t in tiles {
            t.for_each_point(|p| {
                assert!(seen.insert(p.to_vec()), "iteration {p:?} covered twice");
            });
        }
        assert_eq!(seen.len() as i128, nest.iteration_count(), "exact cover");
        let volume: u64 = tiles.iter().map(IterBox::volume).sum();
        assert_eq!(volume as i128, nest.iteration_count());
    }

    #[test]
    fn disjoint_cover_ragged_2d() {
        // 7×5 space on a 2×3 grid: boundary tiles shrink.
        let nest = parse("doall (i, 0, 6) { doall (j, 10, 14) { A[i, j] = A[i, j]; } }").unwrap();
        let tiling = Tiling::new(&nest, None, &[2, 3]).unwrap();
        assert_eq!(tiling.chunks(), [4, 2]);
        assert_disjoint_cover(&nest, &[2, 3]);
    }

    #[test]
    fn empty_boundary_tiles_preserved() {
        // 3 iterations on 4 processors: chunk 1, tile 3 is empty.
        let nest = parse("doall (i, 0, 2) { A[i] = A[i]; }").unwrap();
        let tiling = Tiling::new(&nest, None, &[4]).unwrap();
        assert_eq!(tiling.len(), 4);
        assert!(tiling.boxes()[3].is_empty());
        assert_disjoint_cover(&nest, &[4]);
    }

    #[test]
    fn row_major_numbering() {
        let nest = parse("doall (i, 0, 3) { doall (j, 0, 3) { A[i,j] = A[i,j]; } }").unwrap();
        let tiling = Tiling::new(&nest, None, &[2, 2]).unwrap();
        let tiles = tiling.boxes();
        // Tile 1 is (rows 0-1, cols 2-3): the j coordinate moves fastest.
        assert_eq!(tiles[1].lo, vec![0, 2]);
        assert_eq!(tiles[2].lo, vec![2, 0]);
    }

    #[test]
    fn grid_dim_mismatch_rejected() {
        let nest = parse("doall (i, 0, 2) { A[i] = A[i]; }").unwrap();
        assert!(Tiling::new(&nest, None, &[2, 2]).is_err());
        assert!(Tiling::new(&nest, None, &[0]).is_err());
    }

    #[test]
    fn original_points_outside_i64_are_a_bad_grid_not_a_panic() {
        // i + j stays small while i alone does not fit i64: the j-space
        // boxes narrow fine, the points handed back would not.
        let nest = parse(
            "doall (i, 9223372036854775808, 9223372036854775811) {
               doall (j, -9223372036854775808, -9223372036854775805) { A[i+j] = B[i+j]; } }",
        )
        .unwrap();
        let u = alp_linalg::IMat::from_rows(&[&[1, 0], &[1, 1]]);
        let t = Transform::new(u, crate::fingerprint_hex(&nest)).unwrap();
        let err = Tiling::new(&nest, Some(&t), &[2, 2]).unwrap_err();
        assert!(matches!(err, PlanError::BadGrid(_)), "{err}");
    }

    #[test]
    fn for_each_point_row_major_within_tile() {
        let b = IterBox {
            lo: vec![1, 5],
            hi: vec![2, 6],
        };
        let mut pts = Vec::new();
        b.for_each_point(|p| pts.push(p.to_vec()));
        assert_eq!(pts, vec![[1, 5], [1, 6], [2, 5], [2, 6]]);
    }

    proptest! {
        #[test]
        fn tiles_always_disjoint_cover(
            ni in 1i128..=9, nj in 1i128..=9,
            gi in 1i128..=4, gj in 1i128..=4,
        ) {
            let nest = parse(&format!(
                "doall (i, 0, {}) {{ doall (j, 0, {}) {{ A[i,j] = A[i,j]; }} }}",
                ni - 1, nj - 1
            )).unwrap();
            assert_disjoint_cover(&nest, &[gi, gj]);
        }

        /// A rectangular tiling and the same grid run through the
        /// identity transform are one tiling: same boxes, chunks, point
        /// counts, row sequences and assignment — for depth 1..=3,
        /// ragged boundary tiles and grids with more processors than
        /// iterations along a dimension.
        #[test]
        fn identity_transform_tiles_like_no_transform(
            dims in (1usize..=3).prop_flat_map(|d| {
                proptest::collection::vec((-3i64..=3, 1i64..=5, 1i128..=6), d..=d)
            }),
        ) {
            let names = ["i", "j", "k"];
            let open: String = dims.iter().zip(names)
                .map(|(&(lo, n, _), x)| format!("doall ({x}, {lo}, {}) {{ ", lo + n - 1))
                .collect();
            let subs = names[..dims.len()].join(", ");
            let nest = parse(&format!(
                "{open}A[{subs}] = A[{subs}]; {}", "} ".repeat(dims.len())
            )).unwrap();
            let grid: Vec<i128> = dims.iter().map(|d| d.2).collect();
            let identity = Transform::new(
                alp_linalg::IMat::identity(dims.len()),
                crate::fingerprint_hex(&nest),
            ).unwrap();

            let rect = Tiling::new(&nest, None, &grid).unwrap();
            let skew = Tiling::new(&nest, Some(&identity), &grid).unwrap();
            prop_assert!(!rect.is_clipped() && skew.is_clipped());
            prop_assert_eq!(rect.boxes(), skew.boxes());
            prop_assert_eq!(rect.chunks(), skew.chunks());
            prop_assert_eq!(rect.len() as i128, grid.iter().product::<i128>());
            let rows = |tiling: &Tiling, t: usize| {
                let mut rows = Vec::new();
                tiling.for_each_row(t, |x, lo, hi| {
                    rows.push((x[..x.len() - 1].to_vec(), lo, hi));
                    true
                });
                rows
            };
            for t in 0..rect.len() {
                prop_assert_eq!(rect.points(t), skew.points(t));
                prop_assert_eq!(rows(&rect, t), rows(&skew, t));
            }
            prop_assert_eq!(rect.assignment(), skew.assignment());
            let total: u64 = (0..rect.len()).map(|t| rect.points(t)).sum();
            prop_assert_eq!(i128::from(total), nest.iteration_count());
        }

        /// Panels, expanded row by row, are the point walk: the points
        /// an independent walk gives (the box's own for a rectangular
        /// tiling, the nest's points whose image lies in the box for a
        /// skewed one), in the same order; no two adjacent panels could
        /// have been one; a nest of depth 1 has one-row panels; and a
        /// walk stopped after `stop` panels says so.  Depth 1..=3, grids
        /// that do not divide the trip counts, empty boundary tiles.
        #[test]
        fn panels_expand_to_the_point_order(
            dims in (1usize..=3).prop_flat_map(|d| {
                proptest::collection::vec((-3i64..=3, 1i64..=6, 1i128..=4), d..=d)
            }),
            shears in proptest::collection::vec((0usize..3, 0usize..3, -2i128..=2), 0..=3),
            skewed in any::<bool>(),
            stop in 1usize..=8,
        ) {
            let names = ["i", "j", "k"];
            let depth = dims.len();
            let open: String = dims.iter().zip(names)
                .map(|(&(lo, n, _), x)| format!("doall ({x}, {lo}, {}) {{ ", lo + n - 1))
                .collect();
            let subs = names[..depth].join(", ");
            let nest = parse(&format!(
                "{open}A[{subs}] = A[{subs}]; {}", "} ".repeat(depth)
            )).unwrap();
            let grid: Vec<i128> = dims.iter().map(|d| d.2).collect();
            // `U`: the identity sheared row by row, so unimodular.
            let mut u = alp_linalg::IMat::identity(depth);
            for &(a, b, by) in shears.iter().filter(|s| skewed && s.0 % depth != s.1 % depth) {
                for c in 0..depth {
                    let add = by * u[(a % depth, c)];
                    u[(b % depth, c)] += add;
                }
            }
            let transform = Transform::new(u.clone(), crate::fingerprint_hex(&nest)).unwrap();
            let tiling = Tiling::new(&nest, skewed.then_some(&transform), &grid).unwrap();
            for t in 0..tiling.len() {
                let bx = &tiling.boxes()[t];
                let mut want = Vec::new();
                if skewed {
                    for p in nest.iteration_points() {
                        let j = u.apply_row(&p).unwrap();
                        if bx.bounds().zip(&j.0).all(|((lo, hi), x)| (lo..=hi).contains(x)) {
                            want.push(p.0.iter().map(|&x| x as i64).collect::<Vec<i64>>());
                        }
                    }
                } else {
                    bx.for_each_point(|p| want.push(p.to_vec()));
                }

                let (last, mut got, mut panels) = (depth - 1, Vec::new(), Vec::new());
                let completed = tiling.for_each_panel(t, |i, rows, lo, hi| {
                    assert!(rows >= 1 && lo <= hi, "an empty panel");
                    panels.push((i[..last].to_vec(), rows, lo, hi));
                    true
                });
                prop_assert!(completed);
                for (prefix, rows, lo, hi) in &panels {
                    let mut i = prefix.clone();
                    i.push(0);
                    for r in 0..*rows as i64 {
                        if let Some(across) = last.checked_sub(1) {
                            i[across] = prefix[across] + r;
                        }
                        for x in *lo..=*hi {
                            i[last] = x;
                            got.push(i.clone());
                        }
                    }
                }
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(tiling.points(t), want.len() as u64);
                let mut rows = Vec::new();
                tiling.for_each_row(t, |i, lo, hi| {
                    rows.extend((lo..=hi).map(|x| [&i[..last], &[x]].concat()));
                    true
                });
                prop_assert_eq!(&rows, &want);

                for w in panels.windows(2) {
                    let ((p, rows, lo, hi), (q, _, qlo, qhi)) = (&w[0], &w[1]);
                    let mergeable = match last.checked_sub(1) {
                        None => true,
                        Some(a) => p[..a] == q[..a] && q[a] == p[a] + *rows as i64,
                    };
                    prop_assert!(!(mergeable && (lo, hi) == (qlo, qhi)), "{:?}", panels);
                }
                if depth == 1 {
                    prop_assert!(panels.iter().all(|p| p.1 == 1));
                }
                let mut visited = 0;
                let completed = tiling.for_each_panel(t, |_, _, _, _| {
                    visited += 1;
                    visited < stop
                });
                prop_assert_eq!(completed, panels.len() < stop);
                prop_assert_eq!(visited, panels.len().min(stop));
            }
        }
    }
}
