//! Row-major memory layout of a nest's arrays, and the one place a
//! reference meets it: `g(ī) = ī·G + ā` (Eq. 1) folded through the
//! strides into [`ElementForm`], `element(ī) = c·ī + c₀`.
//!
//! Everything that needs an element id from an iteration point — the
//! runtime's kernel cursors and touch tracker, the simulator's traces,
//! the planner's span envelope — builds the form here and evaluates,
//! ranges or streams it; the strides do not leave this file.
//! [`ArrayLayout::line`] stays as the interpreted oracle the form is
//! checked against.

use crate::expr::{checked_dot, range_over};
use crate::{ArrayRef, LoopNest};
use alp_linalg::{IMat, IVec};
use std::collections::HashMap;

/// Flattening of every array in a nest into dense line ids — the one
/// layout the planner's address envelopes, the simulator's
/// cache/directory state and the runtime's store and kernel share.
///
/// Each array holds `Π(hi−lo+1)` elements over the extents the loop
/// bounds imply, laid out row-major (strides from the innermost
/// dimension out), arrays back to back in first-appearance order.  With
/// unit cache lines (§2.2) a line is exactly one array element.
#[derive(Debug, Clone)]
pub struct ArrayLayout {
    arrays: Vec<ArrayInfo>,
    by_name: HashMap<String, usize>,
    total_lines: u64,
}

#[derive(Debug, Clone)]
struct ArrayInfo {
    name: String,
    /// Inclusive (lo, hi) extent per dimension.
    extents: Vec<(i128, i128)>,
    /// Base line id.
    base: u64,
    /// Row-major strides.
    strides: Vec<u64>,
}

/// A nest's arrays need more line ids than a `u64` holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutOverflow {
    /// The array whose elements no longer fit.
    pub array: String,
}

impl std::fmt::Display for LayoutOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the arrays up to `{}` hold more than 2^64 elements",
            self.array
        )
    }
}

impl std::error::Error for LayoutOverflow {}

impl ArrayLayout {
    /// Lay out every array touched by the nest, with extents implied by
    /// the loop bounds.  Fails, before anything is sized by it, when an
    /// extent does not fit `i128` or the element count does not fit
    /// `u64`.
    pub fn from_nest(nest: &LoopNest) -> Result<Self, LayoutOverflow> {
        let mut arrays = Vec::new();
        let mut by_name = HashMap::new();
        let mut base = 0u64;
        // The extents are a HashMap; iterate arrays() for a stable order.
        let extents = nest.try_array_extents()?;
        for name in nest.arrays() {
            let ext = extents[&name].clone();
            let overflow = || LayoutOverflow {
                array: name.clone(),
            };
            // Innermost dimension out: `size` is the stride of dimension
            // `k`, and the array's element count (at least one: every
            // extent has `lo ≤ hi`) once all are folded in.
            let mut size = 1u64;
            let mut strides = vec![1u64; ext.len()];
            for (k, &(lo, hi)) in ext.iter().enumerate().rev() {
                strides[k] = size;
                size = (hi.checked_sub(lo))
                    .and_then(|w| u64::try_from(w.checked_add(1)?).ok())
                    .and_then(|dim| size.checked_mul(dim))
                    .ok_or_else(overflow)?;
            }
            let end = base.checked_add(size).ok_or_else(overflow)?;
            by_name.insert(name.clone(), arrays.len());
            arrays.push(ArrayInfo {
                name,
                extents: ext,
                base,
                strides,
            });
            base = end;
        }
        Ok(ArrayLayout {
            arrays,
            by_name,
            total_lines: base,
        })
    }

    /// Total number of distinct lines (elements) across all arrays.
    pub fn total_lines(&self) -> u64 {
        self.total_lines
    }

    /// Array id for a name.
    pub fn array_id(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Line id of an element.
    ///
    /// # Panics
    /// Panics if the subscript is outside the array's extent (would be an
    /// out-of-bounds access in the source program).
    pub fn line(&self, array_id: usize, index: &IVec) -> u64 {
        let a = &self.arrays[array_id];
        debug_assert_eq!(index.len(), a.extents.len(), "rank mismatch");
        let mut off = 0u64;
        for (k, (&x, &(lo, hi))) in index.0.iter().zip(&a.extents).enumerate() {
            assert!(
                lo <= x && x <= hi,
                "{}[{}] out of extent {:?}",
                a.name,
                index,
                a.extents
            );
            off += (x - lo) as u64 * a.strides[k];
        }
        a.base + off
    }

    /// The array holding line `line`, and the element's index in it: the
    /// inverse of [`line`](ArrayLayout::line) (`None` past the last
    /// array).
    pub fn element(&self, line: u64) -> Option<(usize, IVec)> {
        if line >= self.total_lines {
            return None;
        }
        let id = self.arrays.partition_point(|a| a.base <= line) - 1;
        let a = &self.arrays[id];
        let off = line - a.base;
        let index = (a.extents.iter().zip(&a.strides))
            .map(|(&(lo, hi), &stride)| lo + ((off / stride) % (hi - lo + 1) as u64) as i128)
            .collect();
        Some((id, IVec(index)))
    }

    /// Number of arrays.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// The inclusive extents of an array.
    pub fn extents(&self, array_id: usize) -> &[(i128, i128)] {
        &self.arrays[array_id].extents
    }

    /// Base line id of an array (its first element, lowest corner).
    pub fn base(&self, array_id: usize) -> u64 {
        self.arrays[array_id].base
    }

    /// Fold a reference through its array's strides:
    /// `element(ī) = base + (ī·G + ā − lo)·stride`, as one linear form
    /// `ī·(G·stride) + c₀` over the parallel iteration vector.  With
    /// `v = U⁻¹` of a plan's transform its coefficients are
    /// `V·(G·stride)`, as in [`ArrayRef::composed`], and it takes
    /// `j = i·U` points instead.  Fails when a coefficient or the
    /// constant does not fit `i64`.
    ///
    /// # Panics
    /// Panics if the layout does not hold the reference's array.
    pub fn form(&self, r: &ArrayRef, v: Option<&IMat>) -> Result<ElementForm, LayoutOverflow> {
        let a = &self.arrays[self.by_name[&r.array]];
        let fold = || {
            let strides = || a.strides.iter().map(|&s| i128::from(s));
            // `G·stride`, then `V·(G·stride)`, and `base + (ā − lo)·stride`.
            let rows = 0..r.depth();
            let folded: Vec<i128> = (rows.clone())
                .map(|k| checked_dot(r.g_matrix(), k, strides()))
                .collect::<Option<_>>()?;
            let composed = |k| match v {
                Some(v) => checked_dot(v, k, folded.iter().copied()),
                None => Some(folded[k]),
            };
            let lows = a.extents.iter().map(|&(lo, _)| lo);
            let constant = (r.offset().0.iter().zip(lows).zip(strides()))
                .try_fold(i128::from(a.base), |acc, ((&off, lo), s)| {
                    acc.checked_add(off.checked_sub(lo)?.checked_mul(s)?)
                })?;
            let narrow = |c: i128| i64::try_from(c).ok();
            Some(ElementForm {
                coeffs: rows.map(|k| narrow(composed(k)?)).collect::<Option<_>>()?,
                constant: narrow(constant)?,
            })
        };
        fold().ok_or_else(|| LayoutOverflow {
            array: r.array.clone(),
        })
    }

    /// The body's references as forms in the order one iteration issues
    /// them — statement by statement, every right-hand-side reference
    /// then the left-hand side — each flagged write-like or not (the lhs
    /// always is; accumulates are too, Appendix A).
    pub fn accesses(
        &self,
        nest: &LoopNest,
        v: Option<&IMat>,
    ) -> Result<AccessStream, LayoutOverflow> {
        let refs = (nest.body.iter())
            .flat_map(|st| {
                let rhs = st.rhs.iter().map(|r| (r, r.kind.is_write_like()));
                rhs.chain(std::iter::once((&st.lhs, true)))
            })
            .map(|(r, write)| Ok((self.form(r, v)?, write)))
            .collect::<Result<_, _>>()?;
        Ok(AccessStream { refs })
    }
}

/// One reference under a layout: `element(ī) = c·ī + c₀` over the
/// parallel iteration vector (subscripts range over parallel indices
/// only — outer `doseq` loops just repeat the doall).  Built by
/// [`ArrayLayout::form`]; at every in-domain point it equals
/// [`ArrayLayout::line`] of [`ArrayRef::eval`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementForm {
    /// Coefficient per parallel loop index.
    coeffs: Vec<i64>,
    /// Constant term (absorbs the array base and extent lower bounds).
    constant: i64,
}

impl ElementForm {
    /// Element id (signed) at the row point `(j[..last], x)` — the last
    /// coordinate is taken from `x`, not from `j`.
    #[inline]
    pub fn row_start(&self, j: &[i64], x: i64) -> i64 {
        let last = self.coeffs.len() - 1;
        let mut e = self.constant + self.coeffs[last] * x;
        for (c, y) in self.coeffs[..last].iter().zip(j) {
            e += c * y;
        }
        e
    }

    /// What one step along the innermost index adds to the element id.
    #[inline]
    pub fn step(&self) -> i64 {
        self.coeffs[self.coeffs.len() - 1]
    }

    /// What one step along index `d` adds to the element id.
    #[inline]
    pub fn coeff(&self, d: usize) -> i64 {
        self.coeffs[d]
    }

    /// Exact `[min, max]` of the (signed) element id over the inclusive
    /// box `bx`, one `(lo, hi)` per index — whose corners may lie outside
    /// the arrays, as a skewed tile's do.  `None` past `i128`.
    pub fn range(&self, bx: impl IntoIterator<Item = (i128, i128)>) -> Option<(i128, i128)> {
        let coeffs = self.coeffs.iter().map(|&c| i128::from(c));
        range_over(self.constant.into(), coeffs.zip(bx))
    }
}

/// A nest body's accesses under a layout, built by
/// [`ArrayLayout::accesses`]: the one generator of "the elements a row
/// touches, in issue order" behind the simulator's traces and the
/// runtime's touch tracking.
#[derive(Debug, Clone)]
pub struct AccessStream {
    refs: Vec<(ElementForm, bool)>,
}

impl AccessStream {
    /// The forms one iteration issues, in order, each with its
    /// write-like flag.
    pub fn refs(&self) -> &[(ElementForm, bool)] {
        &self.refs
    }

    /// The stream with each repeated form issued once (write-like if
    /// any repeat is): per row the same *set* of elements, for a
    /// consumer that only collects it.
    pub fn distinct(self) -> AccessStream {
        let mut refs: Vec<(ElementForm, bool)> = Vec::with_capacity(self.refs.len());
        for (form, write) in self.refs {
            match refs.iter_mut().find(|(seen, _)| *seen == form) {
                Some((_, w)) => *w |= write,
                None => refs.push((form, write)),
            }
        }
        AccessStream { refs }
    }

    /// `(element id, write-like)` of every access of the row
    /// `(j[..last], x)`, `x` in `lo..=hi`, point by point.  Every id is
    /// a fresh dot product, independent of the kernel's cursor stepping.
    #[inline]
    pub fn for_each(&self, j: &[i64], lo: i64, hi: i64, mut f: impl FnMut(u64, bool)) {
        for x in lo..=hi {
            for (form, write) in &self.refs {
                f(form.row_start(j, x) as u64, *write);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, AccessKind, LoopIndex, Statement};
    use proptest::prelude::*;

    /// A nest of depth 1–3 with negative lower bounds over arrays `A`
    /// (written) and `B` (read, maybe accumulated), subscripts strided,
    /// transposed and mixed as the coefficients fall.
    fn arb_nest() -> impl Strategy<Value = LoopNest> {
        // `(G, ā)`, drawn subscript by subscript (a column of `G` each).
        let subs = |depth, dims| {
            let sub = (proptest::collection::vec(-3i128..=3, depth), -5i128..=5);
            proptest::collection::vec(sub, dims).prop_map(move |subs| {
                let (cols, a): (Vec<Vec<i128>>, Vec<i128>) = subs.into_iter().unzip();
                (
                    IMat::from_vec(dims, depth, cols.concat()).transpose(),
                    IVec(a),
                )
            })
        };
        (1usize..=3, 1usize..=3, 1usize..=3).prop_flat_map(move |(depth, da, db)| {
            let bounds = proptest::collection::vec((-3i128..=3, 0i128..=3), depth);
            let reads = proptest::collection::vec((subs(depth, db), any::<bool>()), 1..=3);
            (bounds, subs(depth, da), reads).prop_map(|(bounds, lhs, reads)| {
                let loops = (bounds.iter().enumerate())
                    .map(|(k, &(lo, n))| LoopIndex::new(format!("i{k}"), lo, lo + n))
                    .collect();
                let kind = |acc| match acc {
                    true => AccessKind::Accumulate,
                    false => AccessKind::Read,
                };
                let rhs = (reads.into_iter())
                    .map(|((g, a), acc)| ArrayRef::new("B", g, a, kind(acc)))
                    .collect();
                let (g, a) = lhs;
                let st = Statement::new(ArrayRef::new("A", g, a, AccessKind::Write), rhs);
                LoopNest::new(loops, vec![st.clone(), st]).unwrap()
            })
        })
    }

    /// A unimodular matrix: elementary row operations on the identity.
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
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The form is the interpreted `line(eval(i))` at every
        /// in-domain point — from `i` itself, and composed with a random
        /// unimodular `V` from `j = i·U` — its `step` is what one
        /// innermost iteration adds, and the access stream is the body's
        /// lines in issue order.
        #[test]
        fn form_matches_layout_line(
            nest in arb_nest(),
            ops in proptest::collection::vec((0usize..3, 0usize..3, -2i128..=2), 0..=4),
        ) {
            let layout = ArrayLayout::from_nest(&nest).unwrap();
            let v = unimodular(nest.depth(), &ops);
            let u = v.unimodular_inverse().unwrap();
            let narrow = |p: &IVec| p.0.iter().map(|&x| x as i64).collect::<Vec<i64>>();
            let (plain, skewed) = (
                layout.accesses(&nest, None).unwrap(),
                layout.accesses(&nest, Some(&v)).unwrap(),
            );
            for pt in nest.iteration_points() {
                let (i, j) = (narrow(&pt), narrow(&u.apply_row(&pt).unwrap()));
                prop_assert_eq!(&v.apply_row(&u.apply_row(&pt).unwrap()).unwrap(), &pt);
                let mut want = Vec::new();
                for st in &nest.body {
                    for r in st.rhs.iter().chain([&st.lhs]) {
                        let id = layout.array_id(&r.array).unwrap();
                        let line = layout.line(id, &r.eval(&pt));
                        for (at, v) in [(&i, None), (&j, Some(&v))] {
                            let (form, x) = (layout.form(r, v).unwrap(), at[at.len() - 1]);
                            prop_assert_eq!(form.row_start(at, x) as u64, line);
                            prop_assert_eq!(form.row_start(at, x + 1) - line as i64, form.step());
                        }
                        want.push((line, r.kind.is_write_like()));
                    }
                }
                for (stream, at) in [(&plain, &i), (&skewed, &j)] {
                    let (mut got, x) = (Vec::new(), at[at.len() - 1]);
                    stream.for_each(at, x, x, |e, w| got.push((e, w)));
                    prop_assert_eq!(&got, &want);
                }
            }
        }

    }

    #[test]
    fn distinct_issues_each_form_once_and_touches_the_same_elements() {
        // The accumulate's self-read and the repeated `A[i]` fold into
        // their twins; `A[i+1]` is a form of its own.
        let nest = parse("doall (i, 0, 5) { l$C[i] = l$C[i] + A[i] + A[i] + A[i+1]; }").unwrap();
        let layout = ArrayLayout::from_nest(&nest).unwrap();
        let all = layout.accesses(&nest, None).unwrap();
        let once = all.clone().distinct();
        assert_eq!((all.refs().len(), once.refs().len()), (5, 3));
        // `C[i]` stays write-like, the reads stay reads, order kept.
        let flags: Vec<bool> = once.refs().iter().map(|&(_, w)| w).collect();
        assert_eq!(flags, [true, false, false]);
        let set = |s: &AccessStream| {
            let mut seen = std::collections::BTreeSet::new();
            s.for_each(&[0], 0, 5, |e, _| {
                seen.insert(e);
            });
            seen
        };
        assert_eq!(set(&all), set(&once));
    }

    #[test]
    fn layout_flattening() {
        let nest = parse("doall (i, 0, 9) { doall (j, 0, 4) { A[i,j] = B[i+j]; } }").unwrap();
        let lay = ArrayLayout::from_nest(&nest).unwrap();
        assert_eq!(lay.array_count(), 2);
        let a = lay.array_id("A").unwrap();
        let b = lay.array_id("B").unwrap();
        // A is 10x5 = 50 lines; B is i+j in 0..13 = 14 lines.
        assert_eq!(lay.total_lines(), 50 + 14);
        assert_eq!(lay.arrays[a].strides, [5, 1]);
        assert_eq!(lay.line(a, &IVec::new(&[0, 0])), 0);
        assert_eq!(lay.line(a, &IVec::new(&[0, 4])), 4);
        assert_eq!(lay.line(a, &IVec::new(&[1, 0])), 5);
        assert_eq!(lay.line(a, &IVec::new(&[9, 4])), 49);
        assert_eq!(lay.line(b, &IVec::new(&[0])), 50);
        assert_eq!(lay.line(b, &IVec::new(&[13])), 63);
        // `element` inverts `line` on every line, and nothing lies past
        // the last array.
        for line in 0..lay.total_lines() {
            let (id, index) = lay.element(line).unwrap();
            assert_eq!(lay.line(id, &index), line);
        }
        assert_eq!(lay.element(64), None);
    }

    #[test]
    fn layout_negative_extents() {
        let nest = parse("doall (i, -5, 5) { A[i-2] = A[i-2]; }").unwrap();
        let lay = ArrayLayout::from_nest(&nest).unwrap();
        let a = lay.array_id("A").unwrap();
        assert_eq!(lay.extents(a), &[(-7, 3)]);
        assert_eq!(lay.line(a, &IVec::new(&[-7])), 0);
        assert_eq!(lay.line(a, &IVec::new(&[3])), 10);
        assert_eq!(lay.element(0), Some((a, IVec::new(&[-7]))));
    }

    #[test]
    #[should_panic(expected = "out of extent")]
    fn out_of_bounds_panics() {
        let nest = parse("doall (i, 0, 9) { A[i] = A[i]; }").unwrap();
        let lay = ArrayLayout::from_nest(&nest).unwrap();
        let a = lay.array_id("A").unwrap();
        lay.line(a, &IVec::new(&[11]));
    }

    #[test]
    fn layouts_beyond_u64_are_refused() {
        // 2^32 × 2^32 elements wrap a u64 product to exactly 0, and
        // (2^32+1)² to a small number: both must be refused, not sized.
        let square = |hi: &str| {
            let src = format!("doall (i, 0, {hi}) {{ doall (j, 0, {hi}) {{ A[i,j] = B[i,j]; }} }}");
            ArrayLayout::from_nest(&parse(&src).unwrap())
        };
        for hi in ["4294967295", "4294967296"] {
            let err = square(hi).expect_err("must not fit");
            assert_eq!(err.array, "A", "{hi}");
        }
        // One array that fits, two that together do not.
        let err = square("3037000499").map(|l| l.total_lines());
        assert_eq!(err, Err(LayoutOverflow { array: "B".into() }));
        // The largest square that does: 2 × (2^31)² = 2^63 lines.
        assert_eq!(square("2147483647").unwrap().total_lines(), 1 << 63);
        // A single dimension wider than u64 — or than i128, where the
        // extent itself (2^126·4, 10^20·10^20) or its width (2^127)
        // used to wrap before anything looked at it.
        for (bounds, coeff, extents_fit) in [
            ("0, 1", "18446744073709551616", true),
            ("0, 4", "85070591730234615865843651857942052864", false),
            ("0, 100000000000000000000", "100000000000000000000", false),
            ("-1, 1", "85070591730234615865843651857942052864", true),
        ] {
            let wide = parse(&format!("doall (i, {bounds}) {{ A[{coeff}*i] = B[i]; }}")).unwrap();
            let err = ArrayLayout::from_nest(&wide).expect_err(coeff);
            assert_eq!(err.array, "A", "{bounds} {coeff}");
            assert_eq!(wide.try_array_extents().is_ok(), extents_fit, "{coeff}");
        }
    }
}
