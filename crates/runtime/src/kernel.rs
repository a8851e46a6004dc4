//! Lowering loop-nest statements into executable row kernels.
//!
//! Every affine reference `A[Gī + ā]` meets the array layout in
//! [`ArrayLayout::form`], which folds it into one linear form over the
//! *parallel* iteration vector, `element(ī) = c·ī + c₀`
//! ([`ElementForm`], shared with the simulator and the planner).  The
//! forms are the nest's own, uncomposed: every tile, skewed or not, is
//! walked as rows of the original iteration space.  A tile executes as
//! innermost rows: one dot product per reference at the start of a row,
//! then each element id advances by the form's innermost step, so an
//! iteration costs one add per reference plus the f64 arithmetic.
//!
//! A row's `(element, step)` cursors sit in an array as long as the
//! statement has sources, which the optimizer keeps in registers: one
//! loop body, instantiated per width (a wider statement runs the same
//! body over a per-thread slice).  An accumulate whose destination
//! does not move along the row — `C[i,j]` over `k` — is summed in a
//! register and published once per row cut, so at least every
//! `POLL_INTERVAL` points.  The certified relaxed mode loads the cell,
//! adds the points in row order and stores: no reassociation, exact
//! for any data.  The atomic mode sums the cut's delta first and
//! issues one `fetch_add`; that *does* reassociate, and leans on the
//! exact-sum contract stated in `store.rs`.
//!
//! Such a reduction is one dependent chain of adds per row.  When the
//! destination does move across consecutive rows (`C[i,j]` over `k`
//! steps with `j`, `S[i]` over `j` with `i`), the kernel *jams* [`JAM`]
//! consecutive rows of equal range: one cursor per source plus a
//! per-row offset (a source with offset 0 is loaded once per point for
//! all rows), and one register accumulator per row.  Each cell is still
//! folded point by point in row order, so the relaxed mode stays exact
//! for any data; the atomic mode issues one `fetch_add` per row per cut.

use crate::store::StoreMode;
use crate::{ArrayStore, RuntimeError};
use alp_loopir::{AccessKind, AccessStream, ArrayRef, ElementForm, LoopNest};
use alp_machine::ArrayLayout;
use std::cell::RefCell;

/// How many consecutive rows a jammed reduction runs together.
pub const JAM: usize = 4;

/// One statement, classified for parallel execution.
#[derive(Debug, Clone)]
enum CompiledStmt {
    /// `lhs = Σ sources` — a plain overwrite.  Legal doalls guarantee no
    /// other iteration touches `lhs`, so a relaxed store suffices.
    Assign {
        /// Destination element.
        lhs: ElementForm,
        /// Source elements, summed.
        sources: Vec<ElementForm>,
    },
    /// `lhs += Σ sources` — an Appendix-A accumulate.  The self-read is
    /// implicit in the atomic add, so `sources` excludes it.
    Accumulate {
        /// Destination element (atomically updated).
        lhs: ElementForm,
        /// Source elements, summed into the delta.
        sources: Vec<ElementForm>,
    },
}

/// A compiled nest body: the statements of one iteration.
#[derive(Debug, Clone)]
pub struct Kernel {
    stmts: Vec<CompiledStmt>,
    /// Whether [`Kernel::execute_jammed`] may run [`JAM`] rows at once.
    jams: bool,
    /// What a row touches, for touch tracking: the stream the simulator
    /// builds its traces from, each distinct form once (an accumulate's
    /// self-read is its lhs).
    pub(crate) touches: AccessStream,
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
            if st.lhs.kind == AccessKind::Accumulate {
                let is_self = |r: &ArrayRef| {
                    r.kind == AccessKind::Accumulate
                        && r.array == st.lhs.array
                        && r.subscripts == st.lhs.subscripts
                };
                let self_count = st.rhs.iter().filter(|r| is_self(r)).count();
                match self_count {
                    0 => {
                        // No old-value read: sequential semantics are a
                        // plain overwrite.
                        stmts.push(CompiledStmt::Assign { lhs, sources: rhs });
                    }
                    1 => {
                        let others = st.rhs.iter().zip(rhs).filter(|(r, _)| !is_self(r));
                        let (refs, sources): (Vec<&ArrayRef>, _) = others.unzip();
                        reads_own_array |= refs.iter().any(|r| r.array == st.lhs.array);
                        stmts.push(CompiledStmt::Accumulate { lhs, sources });
                    }
                    n => {
                        return Err(RuntimeError::UnsupportedStatement(format!(
                            "accumulate of `{}` reads its own old value {n} times; \
                             only one self-read is executable",
                            st.lhs.array
                        )));
                    }
                }
            } else {
                stmts.push(CompiledStmt::Assign { lhs, sources: rhs });
            }
        }
        let across = nest.depth().checked_sub(2);
        let jams = match (&stmts[..], across) {
            ([CompiledStmt::Accumulate { lhs, .. }], Some(d)) => {
                lhs.step() == 0 && lhs.coeff(d) != 0 && !reads_own_array
            }
            _ => false,
        };
        Ok(Kernel {
            stmts,
            jams,
            touches: accesses.distinct(),
        })
    }

    /// True when rows may run [`JAM`] at a time through
    /// [`Kernel::execute_jammed`] (see [`Kernel::compile`]).
    pub fn jams(&self) -> bool {
        self.jams
    }

    /// Execute one contiguous row of iterations: the points
    /// `(j[..last], x)` for `x` in `lo..=hi`, statement by statement
    /// (legal doall iterations are independent, so distributing the
    /// statements over the row preserves every intra-iteration order).
    ///
    /// Accumulates go through the atomic CAS loop — always sound —
    /// unless `RELAXED`, which publishes them with a plain
    /// read-add-store.  That is sound only under a re-checked
    /// certificate proving exact coverage and cross-tile write
    /// disjointness: then exactly one thread ever updates each
    /// destination element, and the CAS buys nothing.
    #[inline]
    pub fn execute_row<const RELAXED: bool>(
        &self,
        j: &[i64],
        lo: i64,
        hi: i64,
        store: &ArrayStore,
    ) {
        if hi < lo {
            return;
        }
        let n = (hi - lo) as u64 + 1;
        for st in &self.stmts {
            // One call per arm, so each `sweep_row` sees its mode as a
            // constant and the per-point publish is branch-free.
            match st {
                CompiledStmt::Assign { lhs, sources } => {
                    sweep_row(lhs, sources, j, lo, n, store, StoreMode::Set);
                }
                CompiledStmt::Accumulate { lhs, sources } if RELAXED => {
                    sweep_row(lhs, sources, j, lo, n, store, StoreMode::Add);
                }
                CompiledStmt::Accumulate { lhs, sources } => {
                    sweep_row(lhs, sources, j, lo, n, store, StoreMode::FetchAdd);
                }
            }
        }
    }

    /// Execute the [`JAM`] consecutive rows `(j[..last−1], j[last−1] + r,
    /// x)`, `r` in `0..JAM`, `x` in `lo..=hi`, of a [jamming](Kernel::jams)
    /// kernel together — with the cells, and the publish modes, that
    /// [`Kernel::execute_row`] on each row in turn would fold into them.
    ///
    /// # Panics
    /// Panics if the kernel does not jam.
    #[inline]
    pub fn execute_jammed<const RELAXED: bool>(
        &self,
        j: &[i64],
        lo: i64,
        hi: i64,
        store: &ArrayStore,
    ) {
        let (true, [CompiledStmt::Accumulate { lhs, sources }]) = (self.jams, &self.stmts[..])
        else {
            panic!("execute_jammed on a kernel that does not jam");
        };
        if hi < lo {
            return;
        }
        let n = (hi - lo) as u64 + 1;
        if RELAXED {
            sweep_jammed(lhs, sources, j, lo, n, store, StoreMode::Add);
        } else {
            sweep_jammed(lhs, sources, j, lo, n, store, StoreMode::FetchAdd);
        }
    }
}

/// `(element, step)` of one source along a row.
type Cursor = (i64, i64);

/// `(element, step, offset to the next row)` of one source along
/// [`JAM`] jammed rows.
type JamCursor = (i64, i64, i64);

thread_local! {
    /// Cursor storage for statements with more sources than
    /// [`sweep_row`] has fixed widths for: grown once per thread, so no
    /// source count allocates per row.
    static SPILL: RefCell<Vec<Cursor>> = const { RefCell::new(Vec::new()) };
    /// The same for [`sweep_jammed`].
    static JAM_SPILL: RefCell<Vec<JamCursor>> = const { RefCell::new(Vec::new()) };
}

/// Start the sources' cursors with `$cursor` in an array whose length
/// the compiler knows and run `$fold` over them (bound to `$at`); past
/// the widths listed, over the thread's `$spill` slice.
macro_rules! with_cursors {
    ($sources:ident, $cursor:ident: $ty:ty, $spill:ident, |$at:ident| $fold:expr; $($w:literal)*) => {
        match $sources.len() {
            $($w => {
                let $at: [$ty; $w] = std::array::from_fn(|k| $cursor(&$sources[k]));
                $fold
            })*
            _ => $spill.with_borrow_mut(|spill| {
                spill.clear();
                spill.extend($sources.iter().map($cursor));
                let $at = &mut spill[..];
                $fold
            }),
        }
    };
}

/// One statement over `n` points of a row starting at `(j[..last], lo)`;
/// a row-invariant accumulate publishes once (see the module docs).
#[inline(always)]
fn sweep_row(
    lhs: &ElementForm,
    sources: &[ElementForm],
    j: &[i64],
    lo: i64,
    n: u64,
    store: &ArrayStore,
    mode: StoreMode,
) {
    let (mut dst, dst_step) = (lhs.row_start(j, lo), lhs.step());
    debug_assert!(dst >= 0, "element id must be non-negative");
    if dst_step != 0 || mode == StoreMode::Set {
        fold_sources(sources, j, lo, n, store, |v| {
            debug_assert!(dst >= 0, "element id must be non-negative");
            store.publish(mode, dst as usize, v);
            dst += dst_step;
        });
    } else if mode == StoreMode::Add {
        let mut acc = store.get(dst as usize);
        fold_sources(sources, j, lo, n, store, |v| acc += v);
        store.set(dst as usize, acc);
    } else {
        let mut delta = 0.0;
        fold_sources(sources, j, lo, n, store, |v| delta += v);
        store.fetch_add(dst as usize, delta);
    }
}

/// Start the sources' cursors at `(j[..last], lo)` and run [`fold_row`]
/// over them.
#[inline(always)]
fn fold_sources(
    sources: &[ElementForm],
    j: &[i64],
    lo: i64,
    n: u64,
    store: &ArrayStore,
    each: impl FnMut(f64),
) {
    let cursor = |s: &ElementForm| (s.row_start(j, lo), s.step());
    with_cursors!(sources, cursor: Cursor, SPILL, |at| fold_row(at, n, store, each); 0 1 2 3 4 5 6 7 8)
}

/// The row loop: per point, sum the sources left to right, bump each
/// cursor by its step and hand the sum to `each`.
#[inline(always)]
fn fold_row(mut at: impl AsMut<[Cursor]>, n: u64, store: &ArrayStore, mut each: impl FnMut(f64)) {
    for _ in 0..n {
        let mut v = 0.0;
        for (e, step) in at.as_mut() {
            debug_assert!(*e >= 0, "element id must be non-negative");
            v += store.get(*e as usize);
            *e += *step;
        }
        each(v);
    }
}

/// A row-invariant accumulate over `n` points of [`JAM`] rows starting
/// at `(j[..last], lo)`: one register accumulator per row, published
/// once, as [`sweep_row`] publishes each row's.
#[inline(always)]
fn sweep_jammed(
    lhs: &ElementForm,
    sources: &[ElementForm],
    j: &[i64],
    lo: i64,
    n: u64,
    store: &ArrayStore,
    mode: StoreMode,
) {
    let (first, across) = (lhs.row_start(j, lo), lhs.coeff(j.len() - 2));
    let dst: [usize; JAM] = std::array::from_fn(|r| {
        let e = first + r as i64 * across;
        debug_assert!(e >= 0, "element id must be non-negative");
        e as usize
    });
    let mut acc = match mode {
        StoreMode::Add => dst.map(|e| store.get(e)),
        _ => [0.0; JAM],
    };
    fold_jammed(sources, j, lo, n, store, |v| {
        for (acc, v) in acc.iter_mut().zip(v) {
            *acc += v;
        }
    });
    for (e, acc) in dst.into_iter().zip(acc) {
        match mode {
            StoreMode::Add => store.set(e, acc),
            _ => store.fetch_add(e, acc),
        }
    }
}

/// Start the sources' jammed cursors at `(j[..last], lo)` and run
/// [`fold_rows`] over them.
#[inline(always)]
fn fold_jammed(
    sources: &[ElementForm],
    j: &[i64],
    lo: i64,
    n: u64,
    store: &ArrayStore,
    each: impl FnMut([f64; JAM]),
) {
    let across = j.len() - 2;
    let cursor = |s: &ElementForm| (s.row_start(j, lo), s.step(), s.coeff(across));
    with_cursors!(sources, cursor: JamCursor, JAM_SPILL, |at| fold_rows(at, n, store, each); 0 1 2 3 4)
}

/// [`fold_row`] over [`JAM`] rows at once: per point, each row's sum of
/// the sources left to right — a source that does not move across rows
/// is loaded once for all of them.
#[inline(always)]
fn fold_rows(
    mut at: impl AsMut<[JamCursor]>,
    n: u64,
    store: &ArrayStore,
    mut each: impl FnMut([f64; JAM]),
) {
    for _ in 0..n {
        let mut v = [0.0; JAM];
        for (e, step, across) in at.as_mut() {
            debug_assert!(*e >= 0, "element id must be non-negative");
            if *across == 0 {
                let x = store.get(*e as usize);
                v.iter_mut().for_each(|v| *v += x);
            } else {
                for (r, v) in v.iter_mut().enumerate() {
                    *v += store.get((*e + r as i64 * *across) as usize);
                }
            }
            *e += *step;
        }
        each(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

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
        kernel.execute_row::<true>(&[0], 0, 99, &store);

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
        let CompiledStmt::Accumulate { lhs, sources } = &kernel.stmts[0] else {
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
        assert!(matches!(kernel.stmts[0], CompiledStmt::Assign { .. }));
        let store = ArrayStore::zeroed(layout.total_lines());
        let a0 = layout.array_id("A").unwrap();
        store.set(layout.line(a0, &alp_linalg::IVec::new(&[2])) as usize, 9.0);
        kernel.execute_row::<false>(&[2], 2, 2, &store);
        kernel.execute_row::<false>(&[2], 2, 2, &store); // overwrite, not accumulate
        let c0 = layout.array_id("C").unwrap();
        assert_eq!(
            store.get(layout.line(c0, &alp_linalg::IVec::new(&[2])) as usize),
            9.0
        );
    }
}
