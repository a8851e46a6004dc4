//! Lowering loop-nest statements into executable row kernels.
//!
//! Every affine reference `A[Gī + ā]` combined with the array layout's
//! base/strides folds into a single linear form over the *parallel*
//! iteration vector: `element(ī) = c·ī + c₀` (subscripts range over
//! parallel indices only — outer `doseq` loops just repeat the doall).
//! A tile executes as innermost rows: one dot product per reference at
//! the start of a row, then each element id advances by the
//! reference's innermost coefficient, so an iteration costs one add
//! per reference plus the f64 arithmetic.

use crate::{ArrayStore, RuntimeError};
use alp_linalg::IMat;
use alp_loopir::{AccessKind, ArrayRef, LoopNest};
use alp_machine::ArrayLayout;

/// A reference lowered to one linear form over the iteration vector.
#[derive(Debug, Clone)]
pub struct LinRef {
    /// Coefficient per parallel loop index.
    coeffs: Vec<i64>,
    /// Constant term (absorbs the array base and extent lower bounds).
    constant: i64,
}

impl LinRef {
    /// Element id (signed) at the row point `(j[..last], x)` — the last
    /// coordinate is taken from `x`, not from `j`.
    #[inline]
    fn row_start(&self, j: &[i64], x: i64) -> i64 {
        let last = self.coeffs.len() - 1;
        let mut e = self.constant + self.coeffs[last] * x;
        for (c, y) in self.coeffs[..last].iter().zip(j) {
            e += c * y;
        }
        e
    }

    /// Rewrite the linear form from original coordinates `ī` to
    /// transformed coordinates `j̄ = ī·U`: with `V = U⁻¹` and row-vector
    /// convention `ī = j̄·V`, the coefficient on `j_k` becomes
    /// `Σ_d V[k][d]·c_d`.  The constant term is unchanged.
    fn composed(&self, v: &IMat) -> Result<LinRef, RuntimeError> {
        let n = self.coeffs.len();
        debug_assert_eq!(v.rows(), n, "transform rank must match nest depth");
        let mut coeffs = Vec::with_capacity(n);
        for k in 0..n {
            let mut c = 0i128;
            for (d, &cd) in self.coeffs.iter().enumerate() {
                c += v[(k, d)] * cd as i128;
            }
            coeffs.push(i64::try_from(c).map_err(|_| RuntimeError::Overflow {
                array: String::from("<transformed kernel>"),
            })?);
        }
        Ok(LinRef {
            coeffs,
            constant: self.constant,
        })
    }
}

/// One statement, classified for parallel execution.
#[derive(Debug, Clone)]
pub enum CompiledStmt {
    /// `lhs = Σ sources` — a plain overwrite.  Legal doalls guarantee no
    /// other iteration touches `lhs`, so a relaxed store suffices.
    Assign {
        /// Destination element.
        lhs: LinRef,
        /// Source elements, summed.
        sources: Vec<LinRef>,
    },
    /// `lhs += Σ sources` — an Appendix-A accumulate.  The self-read is
    /// implicit in the atomic add, so `sources` excludes it.
    Accumulate {
        /// Destination element (atomically updated).
        lhs: LinRef,
        /// Source elements, summed into the delta.
        sources: Vec<LinRef>,
    },
}

/// A compiled nest body: the statements of one iteration.
#[derive(Debug, Clone)]
pub struct Kernel {
    stmts: Vec<CompiledStmt>,
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
    /// With `v = U⁻¹` of a plan's transform, every linear form is then
    /// rewritten into transformed coordinates `j̄ = ī·U` by composing
    /// with `v` (`ī = j̄·V`).  The resulting kernel is executed with
    /// *j-space* iteration vectors; element ids are identical to the
    /// untransformed kernel's at the corresponding i-space point, so
    /// layouts, stores and touch tracking are unchanged.
    pub fn compile(
        nest: &LoopNest,
        layout: &ArrayLayout,
        v: Option<&IMat>,
    ) -> Result<Kernel, RuntimeError> {
        let mut stmts = Vec::with_capacity(nest.body.len());
        for st in &nest.body {
            let lhs = lower_ref(&st.lhs, layout)?;
            if st.lhs.kind == AccessKind::Accumulate {
                let is_self = |r: &&ArrayRef| {
                    r.kind == AccessKind::Accumulate
                        && r.array == st.lhs.array
                        && r.subscripts == st.lhs.subscripts
                };
                let self_count = st.rhs.iter().filter(|r| is_self(r)).count();
                match self_count {
                    0 => {
                        // No old-value read: sequential semantics are a
                        // plain overwrite.
                        let sources = lower_refs(&st.rhs, layout)?;
                        stmts.push(CompiledStmt::Assign { lhs, sources });
                    }
                    1 => {
                        let others: Vec<&ArrayRef> =
                            st.rhs.iter().filter(|r| !is_self(r)).collect();
                        let sources = others
                            .iter()
                            .map(|r| lower_ref(r, layout))
                            .collect::<Result<_, _>>()?;
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
                let sources = lower_refs(&st.rhs, layout)?;
                stmts.push(CompiledStmt::Assign { lhs, sources });
            }
        }
        let Some(v) = v else {
            return Ok(Kernel { stmts });
        };
        let map = |r: &LinRef| r.composed(v);
        let stmts = stmts
            .iter()
            .map(|st| -> Result<CompiledStmt, RuntimeError> {
                Ok(match st {
                    CompiledStmt::Assign { lhs, sources } => CompiledStmt::Assign {
                        lhs: map(lhs)?,
                        sources: sources.iter().map(map).collect::<Result<_, _>>()?,
                    },
                    CompiledStmt::Accumulate { lhs, sources } => CompiledStmt::Accumulate {
                        lhs: map(lhs)?,
                        sources: sources.iter().map(map).collect::<Result<_, _>>()?,
                    },
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Kernel { stmts })
    }

    /// The compiled statements, in source order.
    pub fn stmts(&self) -> &[CompiledStmt] {
        &self.stmts
    }

    /// Element ids touched by the row `(j[..last], x)`, `x` in
    /// `lo..=hi`.  Used by touch tracking; visits point by point in the
    /// simulator's access order (rhs first, then the lhs write).  Every
    /// id is a fresh dot product, so the counts it feeds are
    /// independent of `execute_row`'s stride arithmetic.
    pub fn for_each_row_access(&self, j: &[i64], lo: i64, hi: i64, mut f: impl FnMut(usize)) {
        for x in lo..=hi {
            for st in &self.stmts {
                let (CompiledStmt::Assign { lhs, sources }
                | CompiledStmt::Accumulate { lhs, sources }) = st;
                for s in sources {
                    f(s.row_start(j, x) as usize);
                }
                f(lhs.row_start(j, x) as usize);
            }
        }
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
            match st {
                CompiledStmt::Assign { lhs, sources } => {
                    sweep_row(lhs, sources, j, lo, n, store, ArrayStore::set);
                }
                CompiledStmt::Accumulate { lhs, sources } if RELAXED => {
                    sweep_row(lhs, sources, j, lo, n, store, ArrayStore::add_relaxed);
                }
                CompiledStmt::Accumulate { lhs, sources } => {
                    sweep_row(lhs, sources, j, lo, n, store, ArrayStore::fetch_add);
                }
            }
        }
    }
}

/// One statement over `n` points of a row starting at `(j[..last], lo)`:
/// element ids advance by each reference's innermost-coordinate stride,
/// so the loop is a pointer bump per reference plus the f64 arithmetic.
#[inline(always)]
fn sweep_row(
    lhs: &LinRef,
    sources: &[LinRef],
    j: &[i64],
    lo: i64,
    n: u64,
    store: &ArrayStore,
    publish: impl Fn(&ArrayStore, usize, f64),
) {
    let last = lhs.coeffs.len() - 1;
    let lhs_step = lhs.coeffs[last];
    let mut lhs_e = lhs.row_start(j, lo);
    // (element, step) per source; small inline buffer covers every
    // realistic statement without allocating per row.
    let mut buf = [(0i64, 0i64); 8];
    let mut spill;
    let srcs: &mut [(i64, i64)] = if sources.len() <= buf.len() {
        for (slot, s) in buf.iter_mut().zip(sources) {
            *slot = (s.row_start(j, lo), s.coeffs[last]);
        }
        &mut buf[..sources.len()]
    } else {
        spill = sources
            .iter()
            .map(|s| (s.row_start(j, lo), s.coeffs[last]))
            .collect::<Vec<_>>();
        &mut spill
    };
    for _ in 0..n {
        let mut v = 0.0;
        for (e, step) in srcs.iter_mut() {
            debug_assert!(*e >= 0, "element id must be non-negative");
            v += store.get(*e as usize);
            *e += *step;
        }
        debug_assert!(lhs_e >= 0, "element id must be non-negative");
        publish(store, lhs_e as usize, v);
        lhs_e += lhs_step;
    }
}

fn lower_refs(refs: &[ArrayRef], layout: &ArrayLayout) -> Result<Vec<LinRef>, RuntimeError> {
    refs.iter().map(|r| lower_ref(r, layout)).collect()
}

/// Fold a reference's subscripts through the layout's strides:
/// `element(ī) = base + Σ_d stride_d · (sub_d(ī) − lo_d)`.
fn lower_ref(r: &ArrayRef, layout: &ArrayLayout) -> Result<LinRef, RuntimeError> {
    let id = layout
        .array_id(&r.array)
        .ok_or_else(|| RuntimeError::UnknownArray(r.array.clone()))?;
    let strides = layout.strides(id);
    let extents = layout.extents(id);
    let depth = r.subscripts.first().map_or(0, |s| s.coeffs.len());

    let mut coeffs = vec![0i128; depth];
    let mut constant = layout.base(id) as i128;
    for (d, sub) in r.subscripts.iter().enumerate() {
        let stride = strides[d] as i128;
        for (k, &c) in sub.coeffs.iter().enumerate() {
            coeffs[k] += stride * c;
        }
        constant += stride * (sub.constant - extents[d].0);
    }

    let narrow = |v: i128| -> Result<i64, RuntimeError> {
        i64::try_from(v).map_err(|_| RuntimeError::Overflow {
            array: r.array.clone(),
        })
    };
    Ok(LinRef {
        coeffs: coeffs.into_iter().map(narrow).collect::<Result<_, _>>()?,
        constant: narrow(constant)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    #[test]
    fn linref_matches_layout_line() {
        // Every compiled element id must equal the interpreted
        // layout.line(eval(i)) on every iteration.
        let nest = parse(
            "doall (i, 2, 5) { doall (j, -1, 3) {
               A[2*i, i+2*j-1] = B[j+6, i] + A[2*i, i+2*j-1];
             } }",
        )
        .unwrap();
        let layout = ArrayLayout::from_nest(&nest);
        let refs = nest.all_refs();
        for r in &refs {
            let lin = lower_ref(r, &layout).unwrap();
            let id = layout.array_id(&r.array).unwrap();
            for pt in nest.iteration_points() {
                let i: Vec<i64> = pt.0.iter().map(|&x| x as i64).collect();
                let start = lin.row_start(&i, i[i.len() - 1]);
                assert_eq!(start as u64, layout.line(id, &r.eval(&pt)));
            }
        }
    }

    #[test]
    fn accumulate_requires_single_self_read() {
        let nest = parse("doall (i, 0, 3) { l$C[i] = l$C[i] + l$C[i] + A[i]; }").unwrap();
        let layout = ArrayLayout::from_nest(&nest);
        let err = Kernel::compile(&nest, &layout, None).unwrap_err();
        assert!(matches!(err, RuntimeError::UnsupportedStatement(_)));
    }

    #[test]
    fn accumulate_without_self_read_is_overwrite() {
        let nest = parse("doall (i, 0, 3) { l$C[i] = A[i]; }").unwrap();
        let layout = ArrayLayout::from_nest(&nest);
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
