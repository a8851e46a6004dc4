//! The ONE tile enumerator of the workspace.
//!
//! Every consumer of a partition — `alp-codegen`'s
//! iteration-to-tile assignment and emitted loops, `alp-runtime`'s
//! native executor, `alp-certify`'s coverage proof, the hybrid
//! ranking's features, `alp-machine`'s simulator driver — takes a [`Tiling`] from
//! this module, so "which iterations does tile `t` own?" has exactly
//! one answer for rectangular and skewed plans alike: the same
//! ceiling-division chunking, the same row-major tile numbering over
//! the grid, and the same loop bounds, which `emit_code` prints and
//! [`Tiling::for_each_panel`] walks.  "Which tiles does worker `w` run?"
//! has one answer too, [`Tiling::worker_tiles`], for the executor's
//! threads and the simulator's processors alike.

use crate::transform::Transform;
use crate::PlanError;
use alp_linalg::fm::{eliminate, System};
use alp_linalg::{gcd, walk_box, Rat};
use alp_loopir::{AffineExpr, LoopNest};

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
}

/// Which iterations tile `t` owns, and in what row order: `Π grid`
/// tiles, row-major over the grid (last dimension fastest), cut by
/// ceiling division out of a bounding box and clamped at its upper
/// boundary.  Empty boundary tiles are kept so the numbering stays
/// aligned with the grid.  A plan's `P` processors run them round-robin
/// ([`workers`](Tiling::workers), [`worker_tiles`](Tiling::worker_tiles)):
/// one tile each for a rectangular plan, whose grid factors `P`, and
/// several for a skewed plan, whose grid cuts a bounding box.
///
/// The bounding box is the loop bounds themselves for a rectangular
/// plan, whose boxes are then *exact*; for a plan with a [`Transform`]
/// it is the bounding box of the transformed domain, and a tile is the
/// set of in-bounds `ī` whose image `ī·U` lies in its box.  Either way
/// a tile is one system over `ī` and its grid coordinates `p`: the loop
/// bounds `lo ≤ ī ≤ hi` and the tile box
/// `b_k + c_k·p_k ≤ (ī·U)_k ≤ b_k + c_k·p_k + c_k − 1`, with cuts
/// `(b_k, c_k)` from [`bounds`](Tiling::bounds) and
/// [`chunks`](Tiling::chunks) and `U = I` for a rectangle.
/// Fourier–Motzkin eliminates `ī` innermost-out once, in
/// [`Tiling::new`], and leaves the [`loop_rows`](Tiling::loop_rows) of
/// each index; every walk — panels, rows, points, counts — evaluates
/// those rows in the nest's own coordinates and order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tiling {
    boxes: Vec<IterBox>,
    bounds: Vec<(i128, i128)>,
    chunks: Vec<i128>,
    levels: Vec<Level>,
    /// `free[m]`: no row of a deeper index mentions `i_m`, so the ranges
    /// below `i_m` are the same for each of its values.
    free: Vec<bool>,
    /// True when a transform cut the boxes.
    clipped: bool,
}

/// One index's bounds, for every tile.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Level {
    /// Its rows `[a_0…a_{n−1}, b_0…b_{n−1}, d]` (see
    /// [`Tiling::loop_rows`]), flat.
    rows: Vec<i128>,
    /// Its rows that mention an outer index, as the walk reads them:
    /// `[a_k, a_0, …, a_{n−1}]`, flat.
    outer: Vec<i64>,
    /// Where the walk keeps those rows' constants, `d − Σ_m b_m·p_m`.
    first: usize,
}

impl Tiling {
    /// Tile `nest` — or, with a transform, its image `j = i·U` — over
    /// `grid`.  Fails with [`PlanError::BadGrid`] on a grid of the wrong
    /// rank, a non-positive factor, or bounds that overflow `i64` /
    /// a tile count that overflows `usize`, and with
    /// [`PlanError::Transform`] when the transform does not fit the nest
    /// or a sum the walk forms could leave `i64`.
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
        let bounds: Vec<(i128, i128)> = match transform {
            None => nest.bounds().collect(),
            Some(t) => t.bounds(nest)?,
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
        let rows = loop_rows(nest, transform, &bounds, &chunks)?;
        let (levels, free) = walk_levels(nest, grid, rows)?;
        Ok(Tiling {
            boxes,
            bounds,
            chunks,
            levels,
            free,
            clipped: transform.is_some(),
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

    /// How many workers `processors` processors make of these tiles:
    /// `processors`, at least one and at most the tile count.
    pub fn workers(&self, processors: i128) -> usize {
        processors.clamp(1, self.len().max(1) as i128) as usize
    }

    /// The tiles worker `worker` of `workers` (≥ 1) runs, in order:
    /// `worker`, `worker + workers`, … — the executor's static schedule
    /// and the simulator's processors alike.
    pub fn worker_tiles(&self, worker: usize, workers: usize) -> impl Iterator<Item = usize> {
        (worker..self.len()).step_by(workers)
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
        self.clipped
    }

    /// Loop `k`'s bounds, for every tile at once: each row
    /// `[a_0, …, a_{n−1}, b_0, …, b_{n−1}, d]` is the inequality
    /// `Σ_j a_j·i_j + Σ_m b_m·p_m ≤ d` over the indices `ī` and the grid
    /// coordinates `p`, in coprime integers, with `a_k ≠ 0` (an upper
    /// bound on `i_k` when `a_k > 0`, a lower one otherwise) and
    /// `a_j = 0` for `j > k`.  Distinct, in the order Fourier–Motzkin
    /// first produced them.
    pub fn loop_rows(&self, k: usize) -> impl Iterator<Item = &[i128]> + '_ {
        self.levels[k].rows.chunks_exact(2 * self.bounds.len() + 1)
    }

    /// Exact number of iterations tile `t` owns.
    pub fn points(&self, t: usize) -> u64 {
        let count = self.scan(t, |s, i| s.count(0, i)).unwrap_or(0);
        u64::try_from(count).expect("tile point count fits u64")
    }

    /// Visit tile `t` as *panels* of the nest's **own** iteration space,
    /// in lexicographic order, until `f` returns `false`; returns `false`
    /// when the walk was stopped early.  A panel is a run of consecutive
    /// rows that step the next-outer index and share the outer prefix and
    /// the innermost range: `f` receives a scratch point holding the
    /// panel's first point (`f` may change its last two entries), its row
    /// count and the inclusive range `lo..=hi`.  Panels are maximal: when
    /// no innermost row mentions the next-outer index — every rectangle —
    /// each outer prefix is one panel, and that index's rows are never
    /// visited; otherwise consecutive non-empty rows of one range are
    /// grouped, which for a skewed tile is often a single row.  A nest of
    /// depth 1 has one-row panels.
    pub fn for_each_panel(
        &self,
        t: usize,
        mut f: impl FnMut(&mut [i64], u64, i64, i64) -> bool,
    ) -> bool {
        self.scan(t, |s, i| s.walk(0, i, &mut f)).unwrap_or(true)
    }

    /// Visit tile `t` as innermost rows `(i[..last], lo..=hi)`: its
    /// [panels](Tiling::for_each_panel) row by row, in the same order.
    pub fn for_each_row(&self, t: usize, mut f: impl FnMut(&mut [i64], i64, i64) -> bool) -> bool {
        self.for_each_panel(t, |i, rows, lo, hi| {
            let Some(across) = i.len().checked_sub(2) else {
                return f(i, lo, hi);
            };
            let first = i[across];
            (0..rows as i64).all(|r| {
                i[across] = first + r;
                f(i, lo, hi)
            })
        })
    }

    /// Visit every iteration tile `t` owns, in row order.
    pub fn for_each_point(&self, t: usize, mut f: impl FnMut(&[i64])) {
        self.for_each_row(t, |i, lo, hi| {
            let last = i.len() - 1;
            for x in lo..=hi {
                i[last] = x;
                f(i);
            }
            true
        });
    }

    /// Run `body` on tile `t`'s rows with its grid coordinates
    /// substituted and a scratch point; `None`, without running it, when
    /// the nest has no index or a bound over `p` alone leaves one no value.
    fn scan<R>(&self, t: usize, body: impl FnOnce(Scan, &mut [i64]) -> R) -> Option<R> {
        let n = self.bounds.len();
        let constants = self.levels.last()?;
        let constants = constants.first + constants.outer.len() / (n + 1);
        // The scratch point, then each index's fixed range, then the
        // constants of the rows that mention an outer index.
        let mut buf = vec![0; 3 * n + constants];
        let (i, rest) = buf.split_at_mut(n);
        let (fixed, consts) = rest.split_at_mut(2 * n);
        // Until the walk starts, the scratch point holds `p`.
        let bx = &self.boxes[t];
        for (k, p) in i.iter_mut().enumerate() {
            if self.chunks[k] != 0 {
                *p = ((i128::from(bx.lo[k]) - self.bounds[k].0) / self.chunks[k]) as i64;
            }
        }
        for (k, level) in self.levels.iter().enumerate() {
            let (mut lo, mut hi) = (i128::MIN, i128::MAX);
            let mut c = level.first;
            for r in self.loop_rows(k) {
                // `walk_levels` keeps these sums in `i128`.
                let e = (0..n).fold(r[2 * n], |e, m| e - r[n + m] * i128::from(i[m]));
                if r[..k].iter().any(|&a| a != 0) {
                    consts[c] = e as i64;
                    c += 1;
                    continue;
                }
                match r[k] {
                    1 => hi = hi.min(e),
                    -1 => lo = lo.max(-e),
                    a if a > 0 => hi = hi.min(e.div_euclid(a)),
                    a => lo = lo.max(-e.div_euclid(-a)),
                }
            }
            if lo > hi {
                return None;
            }
            // Within loop `k`'s own bounds, which are among its rows.
            (fixed[2 * k], fixed[2 * k + 1]) = (lo as i64, hi as i64);
        }
        let scan = Scan {
            levels: &self.levels,
            free: &self.free,
            fixed,
            consts,
        };
        Some(body(scan, i))
    }
}

/// One tile's loop bounds, ready to walk.
struct Scan<'a> {
    levels: &'a [Level],
    free: &'a [bool],
    /// Per index, `lo, hi`: the range its rows without an outer index
    /// leave.
    fixed: &'a [i64],
    /// Per row that mentions an outer index, `d − Σ_m b_m·p_m`.
    consts: &'a [i64],
}

impl Scan<'_> {
    /// The range of `i_k` given the outer indices `i[..k]`: the largest
    /// lower bound to the smallest upper one.
    #[inline]
    fn range(&self, k: usize, i: &[i64]) -> (i64, i64) {
        let (mut lo, mut hi) = (self.fixed[2 * k], self.fixed[2 * k + 1]);
        let level = &self.levels[k];
        let rows = level.outer.chunks_exact(i.len() + 1);
        for (r, &e) in rows.zip(&self.consts[level.first..]) {
            // Σ_{j<k} a_j·i_j + a_k·i_k ≤ e.
            let s = e - (0..k).map(|j| r[1 + j] * i[j]).sum::<i64>();
            match r[0] {
                1 => hi = hi.min(s),
                -1 => lo = lo.max(-s),
                a if a > 0 => hi = hi.min(s.div_euclid(a)),
                a => lo = lo.max(-s.div_euclid(-a)),
            }
        }
        (lo, hi)
    }

    /// Visit the panels below the prefix `i[..m]` (see
    /// [`Tiling::for_each_panel`]).
    fn walk<F: FnMut(&mut [i64], u64, i64, i64) -> bool>(
        &self,
        m: usize,
        i: &mut [i64],
        f: &mut F,
    ) -> bool {
        let n = i.len();
        let (lo, hi) = self.range(m, i);
        if lo > hi {
            return true;
        }
        // The panel of `rows` rows from `first` over `range`, handed to
        // `f` as its first point.
        let mut panel = |i: &mut [i64], first: i64, rows: u64, (a, b): (i64, i64)| {
            i[m] = first;
            i[n - 1] = a;
            f(i, rows, a, b)
        };
        if m + 1 == n {
            // Depth 1: the one row is its own panel.
            return panel(i, lo, 1, (lo, hi));
        }
        if m + 2 < n {
            return (lo..=hi).all(|x| {
                i[m] = x;
                self.walk(m + 1, i, f)
            });
        }
        if self.free[m] {
            // Every row of this level has one range: one panel.
            i[m] = lo;
            let range = self.range(m + 1, i);
            return range.0 > range.1 || panel(i, lo, hi.abs_diff(lo) + 1, range);
        }
        // Consecutive rows of one range are held in `run` —
        // `(first, rows, range)` — until one differs.
        let mut run: Option<(i64, u64, (i64, i64))> = None;
        for x in lo..=hi {
            i[m] = x;
            let range = self.range(m + 1, i);
            match &mut run {
                Some((_, rows, held)) if *held == range => *rows += 1,
                _ => {
                    if let Some((first, rows, held)) = run.take() {
                        if !panel(i, first, rows, held) {
                            return false;
                        }
                    }
                    run = (range.0 <= range.1).then_some((x, 1, range));
                }
            }
        }
        run.is_none_or(|(first, rows, held)| panel(i, first, rows, held))
    }

    /// The number of points below the prefix `i[..m]`; an index no
    /// deeper row mentions multiplies rather than steps.
    fn count(&self, m: usize, i: &mut [i64]) -> u128 {
        let n = i.len();
        let (lo, hi) = self.range(m, i);
        if lo > hi {
            return 0;
        }
        let span = u128::from(hi.abs_diff(lo)) + 1;
        if m + 1 == n {
            return span;
        }
        if self.free[m] {
            i[m] = lo;
            return span.saturating_mul(self.count(m + 1, i));
        }
        (lo..=hi).fold(0, |total, x| {
            i[m] = x;
            total.saturating_add(self.count(m + 1, i))
        })
    }
}

/// Per index `k`, the rows bounding `i_k` in every tile (see
/// [`Tiling::loop_rows`]), flat: the tile system eliminated
/// innermost-out.  Rows are kept in coprime integers, equal rows once,
/// and rows that mention no index are dropped — no loop prints them, and
/// each is implied by the rows that remain — so the rows of index `k` are
/// the distinct rows of the system with `i_{n−1}, …, i_{k+1}`
/// eliminated.  Fails when an elimination could leave `i128`.
fn loop_rows(
    nest: &LoopNest,
    transform: Option<&Transform>,
    bounds: &[(i128, i128)],
    chunks: &[i128],
) -> Result<Vec<Vec<i128>>, PlanError> {
    let n = nest.depth();
    // Variables: the indices `ī` are `x_0..x_{n−1}`, the grid
    // coordinates `p` are `x_n..x_{2n−1}`.
    let mut sys = System::new(2 * n);
    for (d, (lo, hi)) in nest.bounds().enumerate() {
        let x: Vec<Rat> = (0..2 * n).map(|v| Rat::int((v == d).into())).collect();
        sys.ge(x.clone(), Rat::int(lo));
        sys.le(x, Rat::int(hi));
    }
    for (k, (&(b, _), &c)) in bounds.iter().zip(chunks).enumerate() {
        let u = |d: usize| transform.map_or((d == k).into(), |t| t.u()[(d, k)]);
        let p = |m: usize| if m == k { -c } else { 0 };
        let row: Vec<Rat> = (0..n).map(u).chain((0..n).map(p)).map(Rat::int).collect();
        sys.ge(row.clone(), Rat::int(b));
        sys.le(row, Rat::int(b + c - 1));
    }
    let mut levels = vec![Vec::new(); n];
    for k in (0..n).rev() {
        tidy(&mut sys, n);
        let cs = &sys.constraints;
        levels[k] = (cs.iter().filter(|c| !c.coeffs[k].is_zero()))
            .flat_map(|c| c.coeffs.iter().chain([&c.bound]).map(Rat::num))
            .collect();
        if k == 0 {
            break;
        }
        // A combined row is `|a|·u + |b|·l`: each entry at most twice
        // the largest coefficient on `x_k` times the largest entry.
        let on_k = cs.iter().map(|c| c.coeffs[k].num().unsigned_abs()).max();
        let entry = (cs.iter().flat_map(|c| c.coeffs.iter().chain([&c.bound])))
            .map(|r| r.num().unsigned_abs())
            .max();
        let combined = on_k.zip(entry).and_then(|(a, e)| a.checked_mul(e));
        if combined.is_none_or(|v| v > (i128::MAX / 2) as u128) {
            return Err(PlanError::Transform(format!(
                "eliminating index {k} from the tile bounds overflows i128"
            )));
        }
        sys = eliminate(&sys, k);
    }
    Ok(levels)
}

/// Scale each row of `sys` (integral) to coprime integers, drop the rows
/// that mention none of the first `n` variables, and keep each row at its
/// first occurrence.
fn tidy(sys: &mut System, n: usize) {
    let cs = &mut sys.constraints;
    cs.retain(|c| c.coeffs[..n].iter().any(|a| !a.is_zero()));
    for c in cs.iter_mut() {
        debug_assert!(c.coeffs.iter().chain([&c.bound]).all(|r| r.den() == 1));
        // Most rows have a unit coefficient: stop at a gcd of 1.
        let g = (c.coeffs.iter().chain([&c.bound]))
            .try_fold(0, |g, r| Some(gcd(g, r.num())).filter(|&g| g != 1));
        if let Some(g) = g.filter(|&g| g > 1) {
            let scaled = |r: &Rat| Rat::int(r.num() / g);
            c.coeffs.iter_mut().for_each(|a| *a = scaled(a));
            c.bound = scaled(&c.bound);
        }
    }
    // Equal rows sort together, the first occurrence first.
    let mut order: Vec<usize> = (0..cs.len()).collect();
    order.sort_by(|&a, &b| (&cs[a].coeffs, cs[a].bound, a).cmp(&(&cs[b].coeffs, cs[b].bound, b)));
    let mut keep = vec![true; cs.len()];
    for w in order.windows(2) {
        keep[w[1]] = cs[w[0]] != cs[w[1]];
    }
    let mut keep = keep.into_iter();
    cs.retain(|_| keep.next().unwrap_or(true));
}

/// The rows as the walk reads them: per index, its rows that mention an
/// outer index in `i64`, and which indices no deeper row mentions.
/// Refuses rows the walk could not evaluate: [`Tiling::scan`] forms
/// `e = d − Σ_m b_m·p_m` in `i128` for every tile, and [`Scan::range`]
/// forms `e − Σ_{j<k} a_j·i_j` for a row that mentions an outer index in
/// `i64`, each of whose partial sums is at most
/// `max|e| + Σ_{j<k} |a_j|·max|i_j|` in magnitude.
fn walk_levels(
    nest: &LoopNest,
    grid: &[i128],
    rows: Vec<Vec<i128>>,
) -> Result<(Vec<Level>, Vec<bool>), PlanError> {
    let n = nest.depth();
    let most: Vec<u128> = (nest.bounds())
        .map(|(lo, hi)| lo.unsigned_abs().max(hi.unsigned_abs()))
        .collect();
    let (mut levels, mut free, mut first) = (Vec::with_capacity(n), vec![true; n], 0);
    for (k, rows) in rows.into_iter().enumerate() {
        let mut outer = Vec::new();
        for r in rows.chunks_exact(2 * n + 1) {
            let e = AffineExpr::new(r[n..2 * n].iter().map(|b| -b).collect(), r[2 * n])
                .range(grid.iter().map(|g| (0, g - 1)))
                .ok_or_else(|| {
                    PlanError::Transform(format!("the tile bounds on index {k} overflow i128"))
                })?;
            if r[..k].iter().all(|&a| a == 0) {
                continue;
            }
            let e = e.0.unsigned_abs().max(e.1.unsigned_abs());
            let reach = (0..k).try_fold(e, |s, j| {
                s.checked_add(r[j].unsigned_abs().checked_mul(most[j])?)
            });
            let wide = |a: &i128| i64::try_from(*a).is_err();
            if reach.is_none_or(|s| s > i64::MAX as u128) || r[..=k].iter().any(wide) {
                return Err(PlanError::Transform(format!(
                    "the walk over index {k} overflows i64"
                )));
            }
            (0..k).filter(|&j| r[j] != 0).for_each(|j| free[j] = false);
            outer.extend([r[k]].iter().chain(&r[..n]).map(|&a| a as i64));
        }
        let count = outer.len() / (n + 1);
        levels.push(Level { rows, outer, first });
        first += count;
    }
    Ok((levels, free))
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
    fn workers_deal_the_tiles_round_robin() {
        let nest = parse("doall (i, 0, 5) { doall (j, 0, 8) { A[i,j] = A[i,j]; } }").unwrap();
        let tiling = Tiling::new(&nest, None, &[2, 3]).unwrap();
        // At least one worker, at most one a tile.
        assert_eq!([0, 4, 6, 100].map(|p| tiling.workers(p)), [1, 4, 6, 6]);
        let dealt: Vec<Vec<usize>> = (0..4)
            .map(|w| tiling.worker_tiles(w, 4).collect())
            .collect();
        assert_eq!(dealt, [vec![0, 4], vec![1, 5], vec![2], vec![3]]);
        assert!((0..6).all(|w| tiling.worker_tiles(w, 6).eq([w])));
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
    fn a_rectangle_at_the_i64_extremes_walks_without_wrapping() {
        // Loop bounds that span all but one value of i64: each tile's
        // bounds fit, and so must every sum the walk forms.
        let nest = parse(
            "doall (i, -9223372036854775808, 9223372036854775806) {
               doall (j, 0, 3) { A[i,j] = A[i,j]; } }",
        )
        .unwrap();
        let tiling = Tiling::new(&nest, None, &[4, 2]).unwrap();
        let first = |t: usize| {
            let mut first = None;
            tiling.for_each_panel(t, |i, rows, lo, hi| {
                first = Some((i.to_vec(), rows, lo, hi));
                false
            });
            first.expect("a panel")
        };
        assert_eq!(first(0), (vec![i64::MIN, 0], 1 << 62, 0, 1));
        assert_eq!(tiling.points(0), 1 << 63);
        assert_eq!(first(7), (vec![1 << 62, 2], (1 << 62) - 1, 2, 3));
        assert_eq!(tiling.points(7), (1 << 63) - 2);
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
            let points = |tiling: &Tiling, t: usize| {
                let mut points = Vec::new();
                tiling.for_each_point(t, |i| points.push(i.to_vec()));
                points
            };
            for t in 0..rect.len() {
                prop_assert_eq!(rect.points(t), skew.points(t));
                prop_assert_eq!(rows(&rect, t), rows(&skew, t));
                prop_assert_eq!(points(&rect, t), points(&skew, t));
            }
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
