//! Lowering loop-nest statements into executable row kernels.
//!
//! Every affine reference `A[Gī + ā]` meets the array layout in
//! [`ArrayLayout::form`], which folds it into one linear form over the
//! *parallel* iteration vector, `element(ī) = c·ī + c₀`
//! ([`ElementForm`], shared with the simulator and the planner).  A
//! tile executes as innermost rows: one dot product per reference at
//! the start of a row, then each element id advances by the form's
//! innermost step, so an iteration costs one add per reference plus
//! the f64 arithmetic.
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

use crate::store::StoreMode;
use crate::{ArrayStore, RuntimeError};
use alp_linalg::IMat;
use alp_loopir::{AccessKind, AccessStream, ArrayRef, ElementForm, LoopNest};
use alp_machine::ArrayLayout;
use std::cell::RefCell;

/// One statement, classified for parallel execution.
#[derive(Debug, Clone)]
pub enum CompiledStmt {
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
    /// What a row touches, for touch tracking: the stream the simulator
    /// builds its traces from, in the kernel's coordinates, each
    /// distinct form once (an accumulate's self-read is its lhs).
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
    /// With `v = U⁻¹` of a plan's transform, every form is composed
    /// with it (`ī = j̄·V`) and the kernel is executed with *j-space*
    /// iteration vectors `j̄ = ī·U`; element ids are identical to the
    /// untransformed kernel's at the corresponding i-space point, so
    /// layouts, stores and touch tracking are unchanged.
    pub fn compile(
        nest: &LoopNest,
        layout: &ArrayLayout,
        v: Option<&IMat>,
    ) -> Result<Kernel, RuntimeError> {
        let unknown = |r: &&ArrayRef| layout.array_id(&r.array).is_none();
        if let Some(r) = nest.all_refs().into_iter().find(unknown) {
            return Err(RuntimeError::UnknownArray(r.array.clone()));
        }
        let accesses = layout.accesses(nest, v)?;
        let mut forms = accesses.refs().iter().map(|(form, _)| form.clone());
        let mut stmts = Vec::with_capacity(nest.body.len());
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
                        let sources = others.map(|(_, form)| form).collect();
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
        Ok(Kernel {
            stmts,
            touches: accesses.distinct(),
        })
    }

    /// The compiled statements, in source order.
    pub fn stmts(&self) -> &[CompiledStmt] {
        &self.stmts
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
}

/// `(element, step)` of one source along a row.
type Cursor = (i64, i64);

thread_local! {
    /// Cursor storage for statements with more sources than
    /// [`sweep_row`] has fixed widths for: grown once per thread, so no
    /// source count allocates per row.
    static SPILL: RefCell<Vec<Cursor>> = const { RefCell::new(Vec::new()) };
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

/// Start the sources' cursors at `(j[..last], lo)` in an array whose
/// length the compiler knows and run [`fold_row`] over them; past the
/// widths listed, over the thread's `SPILL` slice.
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
    macro_rules! widths {
        ($($w:literal)*) => {
            match sources.len() {
                $($w => {
                    let at: [Cursor; $w] = std::array::from_fn(|k| cursor(&sources[k]));
                    fold_row(at, n, store, each)
                })*
                _ => SPILL.with_borrow_mut(|at| {
                    at.clear();
                    at.extend(sources.iter().map(cursor));
                    fold_row(&mut at[..], n, store, each)
                }),
            }
        };
    }
    widths!(0 1 2 3 4 5 6 7 8)
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
        let kernel = Kernel::compile(&nest, &layout, None).unwrap();
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
        let kernel = Kernel::compile(&nest, &layout, None).unwrap();
        assert_eq!(layout.accesses(&nest, None).unwrap().refs().len(), 4);
        assert_eq!(kernel.touches.refs().len(), 3);
        let CompiledStmt::Accumulate { lhs, sources } = &kernel.stmts()[0] else {
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
        let err = Kernel::compile(&nest, &layout, None).unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownArray(a) if a == "B"));
    }

    #[test]
    fn accumulate_requires_single_self_read() {
        let nest = parse("doall (i, 0, 3) { l$C[i] = l$C[i] + l$C[i] + A[i]; }").unwrap();
        let layout = ArrayLayout::from_nest(&nest).unwrap();
        let err = Kernel::compile(&nest, &layout, None).unwrap_err();
        assert!(matches!(err, RuntimeError::UnsupportedStatement(_)));
    }

    #[test]
    fn accumulate_without_self_read_is_overwrite() {
        let nest = parse("doall (i, 0, 3) { l$C[i] = A[i]; }").unwrap();
        let layout = ArrayLayout::from_nest(&nest).unwrap();
        let kernel = Kernel::compile(&nest, &layout, None).unwrap();
        assert!(matches!(kernel.stmts()[0], CompiledStmt::Assign { .. }));
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
