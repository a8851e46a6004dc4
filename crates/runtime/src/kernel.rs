//! Lowering loop-nest statements into executable panel kernels.
//!
//! Every affine reference `A[Gī + ā]` meets the array layout in
//! [`ArrayLayout::form`], which folds it into one linear form over the
//! *parallel* iteration vector, `element(ī) = c·ī + c₀`
//! ([`ElementForm`], shared with the simulator and the planner).  The
//! forms are the nest's own, uncomposed: every tile, skewed or not, runs
//! as the *panels* of [`alp_plan::Tiling::for_each_panel`] — runs of
//! rows of the original iteration space that step the next-outer index
//! over one innermost range.  A panel costs one dot product per
//! reference; a row further on adds the form's next-outer coefficient,
//! a point further along its innermost step.
//!
//! The executor cuts a panel's rows so that it polls every
//! `POLL_INTERVAL` points.  When every reference steps one element along
//! a row (each stencil of the ledger), `Kernel::compile` picks the *unit*
//! loop form: a cut checks each reference's row once, by slicing the store,
//! and the loop indexes the slices with no per-point check.  Other steps
//! — zero, negative, a column — take the indexed form, whose references
//! share the whole store so that each keeps just its element and step
//! in a register.  One loop body is instantiated per source count; a
//! wider statement collects its references per cut.
//!
//! An accumulate whose destination does not move along the row —
//! `C[i,j]` over `k` — is summed in a register and published once per
//! cut.  The certified relaxed mode loads the cell, adds the points in
//! row order and stores: no reassociation, exact for any data.  The
//! atomic mode sums the cut's delta first and issues one `fetch_add`;
//! that *does* reassociate, and leans on the exact-sum contract stated
//! in `store.rs`.  Such a reduction is one dependent chain of adds per
//! row.  When the destination does move across rows (`C[i,j]` over `k`
//! steps with `j`, `S[i]` over `j` with `i`), the kernel *jams* a
//! panel's rows [`JAM`] at a time, and runs the rest one by one: one
//! slice per source over the group's elements (a source that does not
//! move across rows is loaded once per point for all of them), and one
//! register accumulator per row.  Each cell is still folded point by
//! point in row order, so the relaxed mode stays exact for any data;
//! the atomic mode issues one `fetch_add` per row per cut.

use crate::store::{load, StoreMode};
use crate::{ArrayStore, RuntimeError};
use alp_loopir::{AccessKind, AccessStream, ArrayRef, ElementForm, LoopNest};
use alp_machine::ArrayLayout;
use std::cell::RefCell;
use std::sync::atomic::AtomicU64;

/// How many consecutive rows a jammed reduction runs together.
pub const JAM: usize = 4;

/// One statement, classified for parallel execution.
#[derive(Debug, Clone)]
struct CompiledStmt {
    /// `lhs += Σ sources`, an Appendix-A accumulate (the self-read is
    /// implicit in the add, so `sources` excludes it), rather than
    /// `lhs = Σ sources`, a plain overwrite: legal doalls guarantee no
    /// other iteration touches `lhs`, so a relaxed store suffices.
    accumulate: bool,
    /// Destination element.
    lhs: ElementForm,
    /// Source elements, summed left to right.
    sources: Vec<ElementForm>,
}

/// A compiled nest body: the statements of one iteration.
#[derive(Debug, Clone)]
pub struct Kernel {
    stmts: Vec<CompiledStmt>,
    /// The unit loop form: every source steps one element along a row,
    /// and so does every destination not summed in a register.
    unit: bool,
    /// Whether a panel runs [`JAM`] rows at a time.
    jams: bool,
    /// What a row touches, for touch tracking: the stream the simulator
    /// builds its traces from, each distinct form once (an accumulate's
    /// self-read is its lhs).
    pub(crate) touches: AccessStream,
}

/// How the executor cuts a panel, and what it does around each cut:
/// its poll cadence and touch tracking.
pub(crate) trait Cuts {
    /// The last column, at most `hi`, of the cut of `rows` rows from `i`
    /// (stepping its next-outer index) that starts at column `x`;
    /// called right before the cut runs.
    fn begin(&mut self, i: &mut [i64], rows: usize, x: i64, hi: i64) -> i64;
    /// Called after a cut of `points` points ran; `false` stops the
    /// panel.
    fn end(&mut self, points: u64) -> bool;
}

impl Kernel {
    /// Lower every statement of `nest` against `layout`.
    ///
    /// Accumulate statements must contain exactly one accumulate-kind
    /// self-reference on the right-hand side (the canonical form the
    /// parser produces for `+=`); it becomes the implicit read of the
    /// atomic add.  An accumulate lhs with *no* self-read degenerates to
    /// a plain overwrite; more than one self-read is rejected.
    ///
    /// The kernel jams when the body is one such accumulate whose
    /// destination stays put along a row but moves along the next-outer
    /// index, and which reads its array nowhere else — so the rows of a
    /// group fold into distinct cells that none of them reads.
    pub fn compile(nest: &LoopNest, layout: &ArrayLayout) -> Result<Kernel, RuntimeError> {
        let unknown = |r: &&ArrayRef| layout.array_id(&r.array).is_none();
        if let Some(r) = nest.all_refs().into_iter().find(unknown) {
            return Err(RuntimeError::UnknownArray(r.array.clone()));
        }
        let accesses = layout.accesses(nest, None)?;
        let mut forms = accesses.refs().iter().map(|(form, _)| form.clone());
        let mut stmts = Vec::with_capacity(nest.body.len());
        let mut reads_own_array = false;
        for st in &nest.body {
            // The stream issues a statement's rhs in order, then its lhs.
            let rhs: Vec<ElementForm> = forms.by_ref().take(st.rhs.len()).collect();
            let lhs = forms.next().expect("one form per reference");
            let is_self =
                |r: &ArrayRef| r.kind == AccessKind::Accumulate && r.same_element(&st.lhs);
            let self_reads = match st.lhs.kind {
                AccessKind::Accumulate => st.rhs.iter().filter(|r| is_self(r)).count(),
                _ => 0,
            };
            let (accumulate, sources) = match self_reads {
                // No old-value read: sequential semantics are a plain
                // overwrite.
                0 => (false, rhs),
                1 => {
                    let others = st.rhs.iter().zip(rhs).filter(|(r, _)| !is_self(r));
                    let (refs, sources): (Vec<&ArrayRef>, _) = others.unzip();
                    reads_own_array |= refs.iter().any(|r| r.array == st.lhs.array);
                    (true, sources)
                }
                n => {
                    return Err(RuntimeError::UnsupportedStatement(format!(
                        "accumulate of `{}` reads its own old value {n} times; \
                         only one self-read is executable",
                        st.lhs.array
                    )));
                }
            };
            stmts.push(CompiledStmt {
                accumulate,
                lhs,
                sources,
            });
        }
        let unit = stmts.iter().all(|st| {
            let summed = st.accumulate && st.lhs.step() == 0;
            st.sources.iter().all(|s| s.step() == 1) && (summed || st.lhs.step() == 1)
        });
        let across = nest.depth().checked_sub(2);
        let jams = match (&stmts[..], across) {
            ([st], Some(d)) => {
                st.accumulate && st.lhs.step() == 0 && st.lhs.coeff(d) != 0 && !reads_own_array
            }
            _ => false,
        };
        Ok(Kernel {
            stmts,
            unit,
            jams,
            touches: accesses.distinct(),
        })
    }

    /// True when a panel runs [`JAM`] rows at a time (see
    /// [`Kernel::compile`]).
    pub fn jams(&self) -> bool {
        self.jams
    }

    /// Execute the panel of `rows` rows from `(i[..last], lo..=hi)`,
    /// stepping its next-outer index, in the cuts `cuts` ends: [`JAM`]
    /// rows at a time when the kernel jams, the rest one by one, in
    /// order; each cut statement by statement (legal doall iterations
    /// are independent, so distributing the statements over a cut
    /// preserves every intra-iteration order).  Returns `false` when
    /// `cuts` stopped the panel; `i`'s next-outer entry is left
    /// unspecified.
    ///
    /// Accumulates go through the atomic CAS loop — always sound —
    /// unless `RELAXED`, which publishes them with a plain
    /// read-add-store.  That is sound only under a re-checked
    /// certificate proving exact coverage and cross-tile write
    /// disjointness: then exactly one thread ever updates each
    /// destination element, and the CAS buys nothing.
    pub(crate) fn execute_panel<const RELAXED: bool>(
        &self,
        i: &mut [i64],
        rows: u64,
        lo: i64,
        hi: i64,
        store: &ArrayStore,
        cuts: &mut impl Cuts,
    ) -> bool {
        let across = i.len().checked_sub(2);
        let first = across.map_or(0, |d| i[d]);
        PANEL.with_borrow_mut(|panel| {
            panel.clear();
            let forms = self
                .stmts
                .iter()
                .flat_map(|st| [&st.lhs].into_iter().chain(&st.sources));
            panel.extend(forms.map(|f| Cursor {
                at: f.row_start(i, lo),
                step: f.step(),
                across: across.map_or(0, |d| f.coeff(d)),
            }));
            let mut r = 0;
            while r < rows {
                let group = if self.jams && rows - r >= JAM as u64 {
                    JAM
                } else {
                    1
                };
                if let Some(d) = across {
                    i[d] = first + r as i64;
                }
                let mut x = lo;
                loop {
                    let end = cuts.begin(i, group, x, hi);
                    let (cut, n) = ((r as i64, x - lo), (end - x) as usize + 1);
                    match (group, self.unit) {
                        (JAM, _) => self.run_cut::<RELAXED, JAM, false>(panel, cut, n, store),
                        (_, true) => self.run_cut::<RELAXED, 1, true>(panel, cut, n, store),
                        _ => self.run_cut::<RELAXED, 1, false>(panel, cut, n, store),
                    }
                    if !cuts.end((n * group) as u64) {
                        return false;
                    }
                    if end == hi {
                        break;
                    }
                    x = end + 1;
                }
                r += group as u64;
            }
            true
        })
    }

    /// Every statement over the `n` points of `ROWS` rows that start
    /// `cut = (rows, columns)` into the panel whose cursors are `panel`.
    #[inline(always)]
    fn run_cut<const RELAXED: bool, const ROWS: usize, const UNIT: bool>(
        &self,
        mut panel: &[Cursor],
        cut: (i64, i64),
        n: usize,
        store: &ArrayStore,
    ) {
        for st in &self.stmts {
            let (lhs, rest) = panel.split_first().expect("a cursor per reference");
            let (srcs, rest) = rest.split_at(st.sources.len());
            panel = rest;
            let lhs = lhs.moved(cut);
            // One call per arm, so each `sweep` sees its mode as a
            // constant and the per-point publish is branch-free.
            match (st.accumulate, RELAXED) {
                (false, _) => sweep::<ROWS, UNIT>(lhs, srcs, cut, n, store, StoreMode::Set),
                (true, true) => sweep::<ROWS, UNIT>(lhs, srcs, cut, n, store, StoreMode::Add),
                (true, false) => sweep::<ROWS, UNIT>(lhs, srcs, cut, n, store, StoreMode::FetchAdd),
            }
        }
    }
}

/// A reference's element at a panel's (or a cut's) first point, and
/// what a step along the row and one across rows add to it.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    at: i64,
    step: i64,
    across: i64,
}

impl Cursor {
    /// The cursor `rows` rows and `columns` points further on.
    #[inline(always)]
    fn moved(&self, (rows, columns): (i64, i64)) -> Cursor {
        let at = self.at + rows * self.across + columns * self.step;
        Cursor { at, ..*self }
    }
}

thread_local! {
    /// The current panel's cursors, statement by statement, the lhs
    /// before the sources: grown once per thread, so no panel
    /// allocates.
    static PANEL: RefCell<Vec<Cursor>> = const { RefCell::new(Vec::new()) };
}

/// A reference over one cut: the cells it touches, checked once, and
/// its current element's offset in them.
struct Src<'s> {
    cells: &'s [AtomicU64],
    at: i64,
    step: i64,
    across: i64,
}

impl<'s> Src<'s> {
    /// The reference `c` over `ROWS` rows of `n` points from `cut`: in
    /// the unit form the row's cells, in the indexed form of one row the
    /// whole store (a slice per reference spills the registers of a
    /// four-source statement), and over a jammed group the group's.
    #[inline(always)]
    fn new<const ROWS: usize, const UNIT: bool>(
        c: &Cursor,
        cut: (i64, i64),
        n: usize,
        store: &'s ArrayStore,
    ) -> Src<'s> {
        let Cursor { at, step, across } = c.moved(cut);
        let (first, len) = match (UNIT, ROWS) {
            (true, _) => (at, n),
            (false, 1) => (0, store.len()),
            _ => {
                let (down, along) = (across * (ROWS as i64 - 1), step * (n as i64 - 1));
                let len = down.unsigned_abs() + along.unsigned_abs() + 1;
                (at + down.min(0) + along.min(0), len as usize)
            }
        };
        let cells = store.cells(first, len);
        Src {
            cells,
            at: at - first,
            step,
            across,
        }
    }

    /// Row `r`'s cell at point `p`.
    #[inline(always)]
    fn cell<const UNIT: bool>(&self, p: usize, r: usize) -> &'s AtomicU64 {
        match UNIT {
            true => &self.cells[p],
            false => &self.cells[(self.at + r as i64 * self.across) as usize],
        }
    }
}

/// Collect the sources' [`Src`]s, built by `$src`, in an array whose
/// length the compiler knows and run `$fold` over them (bound to `$at`);
/// past the widths listed, in a vector.
macro_rules! with_sources {
    ($sources:ident, $src:ident, |$at:ident| $fold:expr; $($w:literal)*) => {
        match $sources.len() {
            $($w => {
                let $at: [Src; $w] = std::array::from_fn(|k| $src(&$sources[k]));
                $fold
            })*
            _ => {
                let $at: Vec<Src> = $sources.iter().map($src).collect();
                $fold
            }
        }
    };
}

/// One statement over `n` points of `ROWS` rows from `cut`, `lhs`
/// already moved there; a destination that does not move along the
/// row is summed in a register per row and published once (see the
/// module docs).
#[inline(always)]
fn sweep<const ROWS: usize, const UNIT: bool>(
    lhs: Cursor,
    sources: &[Cursor],
    cut: (i64, i64),
    n: usize,
    store: &ArrayStore,
    mode: StoreMode,
) {
    let src = |c: &Cursor| Src::new::<ROWS, UNIT>(c, cut, n, store);
    if ROWS == 1 && (lhs.step != 0 || mode == StoreMode::Set) {
        let mut dst = Src::new::<1, UNIT>(&lhs, (0, 0), n, store);
        let each = |p, v: [f64; ROWS]| {
            mode.publish(dst.cell::<UNIT>(p, 0), v[0]);
            dst.at += dst.step;
        };
        with_sources!(sources, src, |at| fold::<ROWS, UNIT>(at, n, each); 0 1 2 3 4 5 6 7 8);
        return;
    }
    let cells: [usize; ROWS] = std::array::from_fn(|r| {
        let e = lhs.at + r as i64 * lhs.across;
        debug_assert!(e >= 0, "element id must be non-negative");
        e as usize
    });
    let mut acc = match mode {
        StoreMode::Add => cells.map(|e| store.get(e)),
        _ => [0.0; ROWS],
    };
    let each = |_, v: [f64; ROWS]| {
        for (acc, v) in acc.iter_mut().zip(v) {
            *acc += v;
        }
    };
    if ROWS == 1 {
        with_sources!(sources, src, |at| fold::<ROWS, UNIT>(at, n, each); 0 1 2 3 4 5 6 7 8);
    } else {
        with_sources!(sources, src, |at| fold::<ROWS, UNIT>(at, n, each); 0 1 2 3 4);
    }
    for (e, acc) in cells.into_iter().zip(acc) {
        match mode {
            StoreMode::Add => store.set(e, acc),
            _ => store.fetch_add(e, acc),
        }
    }
}

/// The point loop: per point `p`, in order, each row's sum of the
/// sources left to right, handed to `each` — a source that does not
/// move across rows is loaded once for all of them.
#[inline(always)]
fn fold<'s, const ROWS: usize, const UNIT: bool>(
    mut src: impl AsMut<[Src<'s>]>,
    n: usize,
    mut each: impl FnMut(usize, [f64; ROWS]),
) {
    let src = src.as_mut();
    for p in 0..n {
        let mut v = [0.0; ROWS];
        for s in src.iter_mut() {
            if ROWS == 1 || s.across == 0 {
                let x = load(s.cell::<UNIT>(p, 0));
                v.iter_mut().for_each(|v| *v += x);
            } else {
                for (r, v) in v.iter_mut().enumerate() {
                    *v += load(s.cell::<UNIT>(p, r));
                }
            }
            s.at += s.step;
        }
        each(p, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    /// Cuts that run a panel whole.
    struct Whole;

    impl Cuts for Whole {
        fn begin(&mut self, _: &mut [i64], _: usize, _: i64, hi: i64) -> i64 {
            hi
        }
        fn end(&mut self, _: u64) -> bool {
            true
        }
    }

    #[test]
    fn nine_source_stencil_matches_reference() {
        // One source past the widest register cursor array: the row
        // loop runs over the thread's spill slice instead.
        let nest = parse(
            "doall (i, 1, 12) { doall (j, 1, 12) {
               A[i,j] = B[i-1,j-1] + B[i-1,j] + B[i-1,j+1] + B[i,j-1] + B[i,j]
                      + B[i,j+1] + B[i+1,j-1] + B[i+1,j] + B[i+1,j+1];
             } }",
        )
        .unwrap();
        let exec = crate::Executor::from_grid(&nest, &[2, 2]).unwrap();
        let outcome = exec.verify(9, &crate::ExecOptions::default()).unwrap();
        assert!(outcome.matches_reference);
        assert_eq!(outcome.report.total_iterations, 144);
    }

    #[test]
    fn relaxed_row_invariant_accumulate_is_the_sequential_left_fold() {
        // Fractional data: any reassociation of the row's additions
        // shows in the last bits.  The relaxed path must continue the
        // cell's own fold, point by point.
        let nest = parse("doall (i, 0, 99) { l$S[0] = l$S[0] + A[i] + B[i]; }").unwrap();
        let layout = ArrayLayout::from_nest(&nest).unwrap();
        let kernel = Kernel::compile(&nest, &layout).unwrap();
        let init: Vec<f64> = (1..=layout.total_lines())
            .map(|k| k as f64 / 10.0)
            .collect();
        let store = ArrayStore::zeroed(layout.total_lines());
        store.load_from(&init);
        assert!(kernel.execute_panel::<true>(&mut [0], 1, 0, 99, &store, &mut Whole));

        let at = |name: &str, i: i128| {
            let id = layout.array_id(name).unwrap();
            layout.line(id, &alp_linalg::IVec::new(&[i])) as usize
        };
        let (mut fold, mut delta) = (init[at("S", 0)], 0.0);
        for i in 0..100 {
            let v = 0.0 + init[at("A", i)] + init[at("B", i)];
            fold += v;
            delta += v;
        }
        assert_eq!(store.get(at("S", 0)).to_bits(), fold.to_bits());
        // The data does discriminate: summing the row first differs.
        assert_ne!(fold.to_bits(), (init[at("S", 0)] + delta).to_bits());
    }

    /// Load fractional data — on which any reassociation shows in the
    /// last bits — into a certified (relaxed) executor for `src` on
    /// `grid`, run it, and hold it to the reference interpreter's bits.
    fn relaxed_run_is_the_reference(src: &str, grid: &[i128]) -> (crate::Executor, Vec<f64>) {
        let nest = parse(src).unwrap();
        let mut exec = crate::Executor::from_grid(&nest, grid).unwrap();
        exec.apply_certificate(true, false);
        let lines = exec.layout().total_lines();
        let init: Vec<f64> = (1..=lines).map(|k| k as f64 / 10.0).collect();
        let store = ArrayStore::zeroed(lines);
        store.load_from(&init);
        exec.run(&store, &crate::ExecOptions::default()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&store.snapshot()),
            bits(&exec.run_reference(&init)),
            "{src}"
        );
        (exec, init)
    }

    fn jams(exec: &crate::Executor) -> bool {
        Kernel::compile(exec.nest(), exec.layout()).unwrap().jams()
    }

    #[test]
    fn a_jammed_relaxed_reduction_is_the_sequential_left_fold() {
        // Tiles of five rows: one jammed group and a row on its own,
        // each row several poll cuts long.  `B[j]` does not move across
        // rows (loaded once per point for the group), `A[i,j]` does.
        let rowsum = "doall (i, 0, 9) { doall (j, 0, 2999) { l$S[i] = l$S[i] + A[i,j] + B[j]; } }";
        let (exec, init) = relaxed_run_is_the_reference(rowsum, &[2, 1]);
        assert!(jams(&exec));
        // The data does discriminate: summing a row first differs.
        let layout = exec.layout();
        let at = |name: &str, i: &[i128]| {
            init[layout.line(layout.array_id(name).unwrap(), &alp_linalg::IVec::new(i)) as usize]
        };
        let reassociates = |i: i128| {
            let (mut fold, mut delta) = (at("S", &[i]), 0.0);
            for j in 0..3000 {
                let v = 0.0 + at("A", &[i, j]) + at("B", &[j]);
                fold += v;
                delta += v;
            }
            fold.to_bits() != (at("S", &[i]) + delta).to_bits()
        };
        assert!((0..10).any(reassociates));
        // Matmul jams along `j`, seven rows a tile: a group and three
        // rows on their own.
        let matmul = "doall (i, 0, 3) { doall (j, 0, 6) { doall (k, 0, 1199) {
                        l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j]; } } }";
        let (exec, _) = relaxed_run_is_the_reference(matmul, &[2, 1, 1]);
        assert!(jams(&exec));
    }

    #[test]
    fn a_reduction_whose_rows_share_a_destination_is_not_jammed() {
        // Every row folds into `S[0]`: jamming would interleave the rows'
        // additions into it.  The rows run one by one and stay exact.
        let src = "doall (i, 0, 9) { doall (j, 0, 2999) { l$S[0] = l$S[0] + A[i,j]; } }";
        let (exec, _) = relaxed_run_is_the_reference(src, &[1, 1]);
        assert!(!jams(&exec));
        // Nor does a reduction that reads its own array elsewhere, nor a
        // body of two statements, nor a nest of one loop.
        for src in [
            "doall (i, 0, 3) { doall (j, 0, 3) { l$S[i] = l$S[i] + S[j]; } }",
            "doall (i, 0, 3) { doall (j, 0, 3) { l$S[i] = l$S[i] + A[i,j]; B[i,j] = A[i,j]; } }",
            "doall (i, 0, 3) { l$S[i] = l$S[i] + A[i]; }",
        ] {
            let nest = parse(src).unwrap();
            let layout = ArrayLayout::from_nest(&nest).unwrap();
            assert!(!Kernel::compile(&nest, &layout).unwrap().jams(), "{src}");
        }
    }

    #[test]
    fn touch_stream_issues_an_accumulates_destination_once() {
        // The simulator's stream has the self-read (a write-like access
        // of its own); the tracker's does not — `C[i,j]` is the element
        // the lhs inserts anyway.
        let nest = parse(
            "doall (i, 0, 3) { doall (j, 0, 3) { doall (k, 0, 3) {
               l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
             } } }",
        )
        .unwrap();
        let layout = ArrayLayout::from_nest(&nest).unwrap();
        let kernel = Kernel::compile(&nest, &layout).unwrap();
        assert_eq!(layout.accesses(&nest, None).unwrap().refs().len(), 4);
        assert_eq!(kernel.touches.refs().len(), 3);
        let CompiledStmt {
            accumulate: true,
            lhs,
            sources,
            ..
        } = &kernel.stmts[0]
        else {
            panic!("an accumulate");
        };
        let tracked: Vec<&ElementForm> = kernel.touches.refs().iter().map(|(f, _)| f).collect();
        assert_eq!(tracked, [lhs, &sources[0], &sources[1]]);
    }

    #[test]
    fn a_layout_that_lacks_an_array_is_refused() {
        let nest = parse("doall (i, 0, 3) { A[i] = B[i]; }").unwrap();
        let other = parse("doall (i, 0, 3) { A[i] = A[i]; }").unwrap();
        let layout = ArrayLayout::from_nest(&other).unwrap();
        let err = Kernel::compile(&nest, &layout).unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownArray(a) if a == "B"));
    }

    #[test]
    fn accumulate_requires_single_self_read() {
        let nest = parse("doall (i, 0, 3) { l$C[i] = l$C[i] + l$C[i] + A[i]; }").unwrap();
        let layout = ArrayLayout::from_nest(&nest).unwrap();
        let err = Kernel::compile(&nest, &layout).unwrap_err();
        assert!(matches!(err, RuntimeError::UnsupportedStatement(_)));
    }

    #[test]
    fn accumulate_without_self_read_is_overwrite() {
        let nest = parse("doall (i, 0, 3) { l$C[i] = A[i]; }").unwrap();
        let layout = ArrayLayout::from_nest(&nest).unwrap();
        let kernel = Kernel::compile(&nest, &layout).unwrap();
        assert!(!kernel.stmts[0].accumulate);
        let store = ArrayStore::zeroed(layout.total_lines());
        let a0 = layout.array_id("A").unwrap();
        store.set(layout.line(a0, &alp_linalg::IVec::new(&[2])) as usize, 9.0);
        for _ in 0..2 {
            // Overwrite, not accumulate.
            assert!(kernel.execute_panel::<false>(&mut [2], 1, 2, 2, &store, &mut Whole));
        }
        let c0 = layout.array_id("C").unwrap();
        assert_eq!(
            store.get(layout.line(c0, &alp_linalg::IVec::new(&[2])) as usize),
            9.0
        );
    }
}
