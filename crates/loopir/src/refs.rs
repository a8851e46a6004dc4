//! Array references `A[ḡ(ī)]` and their `(G, ā)` form.

use crate::expr::{checked_dot, range_over, write_int};
use crate::span::Span;
use crate::IndexName;
use alp_linalg::{IMat, IVec};
use std::fmt;

/// How a reference touches memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain load.
    Read,
    /// Plain store.
    Write,
    /// Fine-grain synchronized accumulate (the paper's `l$` references,
    /// Appendix A): an atomic read-modify-write, treated as a write by the
    /// coherence protocol and modeled as slightly costlier communication.
    Accumulate,
}

impl AccessKind {
    /// True for accesses the coherence protocol treats as writes
    /// (Appendix A: synchronizing reads/writes are both writes to the
    /// protocol).
    pub fn is_write_like(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Accumulate)
    }
}

/// A single array reference `A[ī·G + ā]` (Eq. 1): the array, its
/// reference matrix `G` (`l×d`, column `k` the loop coefficients of
/// subscript `k`) and its offset vector `ā` (length `d`).
///
/// Equality ignores [`span`](ArrayRef::span), which is pure source
/// metadata: a parsed reference equals the same reference built by hand.
#[derive(Clone, Eq)]
pub struct ArrayRef {
    /// Array name (aliasing resolved: distinct names are distinct arrays,
    /// §3.3).
    pub array: String,
    /// The reference matrix `G`.
    pub(crate) g: IMat,
    /// The offset vector `ā`.
    pub(crate) a: IVec,
    /// Access kind.
    pub kind: AccessKind,
    /// Source span when parsed from DSL text (`None` for built IR).
    pub span: Option<Span>,
}

impl PartialEq for ArrayRef {
    fn eq(&self, other: &Self) -> bool {
        self.same_element(other) && self.kind == other.kind
    }
}

/// Subscript by subscript, as `AffineExpr { coeffs, constant }`: the
/// form the IR's pinned `Debug` text was taken in.
impl fmt::Debug for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let subscript = |k| {
            let coeffs = fmt::from_fn(move |f| f.debug_list().entries(self.column(k)).finish());
            fmt::from_fn(move |f| {
                let expr = &mut f.debug_struct("AffineExpr");
                expr.field("coeffs", &coeffs)
                    .field("constant", &self.a[k])
                    .finish()
            })
        };
        let subscripts = fmt::from_fn(|f| {
            f.debug_list()
                .entries((0..self.dim()).map(subscript))
                .finish()
        });
        f.debug_struct("ArrayRef")
            .field("array", &self.array)
            .field("subscripts", &subscripts)
            .field("kind", &self.kind)
            .field("span", &self.span)
            .finish()
    }
}

impl ArrayRef {
    /// Construct a reference from its `G` (`l×d`) and `ā` (length `d`).
    ///
    /// # Panics
    /// Panics unless `ā` has one entry per column of `G`.
    pub fn new(array: impl Into<String>, g: IMat, a: IVec, kind: AccessKind) -> Self {
        assert_eq!(g.cols(), a.len(), "one offset per subscript");
        ArrayRef {
            array: array.into(),
            g,
            a,
            kind,
            span: None,
        }
    }

    /// Attach a source span.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Array dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.a.len()
    }

    /// Nest depth `l` the reference is written against.
    pub fn depth(&self) -> usize {
        self.g.rows()
    }

    /// The reference matrix `G` (`l×d`, Eq. 1): column `k` holds the loop
    /// coefficients of subscript `k`.
    pub fn g_matrix(&self) -> &IMat {
        &self.g
    }

    /// The offset vector `ā` (length `d`).
    pub fn offset(&self) -> &IVec {
        &self.a
    }

    /// Column `k` of `G`: the loop coefficients of subscript `k`.
    fn column(&self, k: usize) -> impl Iterator<Item = i128> + Clone + '_ {
        (0..self.depth()).map(move |r| self.g[(r, k)])
    }

    /// Whether `other` names the same element at every iteration: the
    /// same array and the same `(G, ā)`, whatever the access kinds.
    pub fn same_element(&self, other: &ArrayRef) -> bool {
        self.array == other.array && self.g == other.g && self.a == other.a
    }

    /// The data point touched at iteration `i`, `ī·G + ā`, written
    /// over `out`: `G` row by row, so no column is gathered.
    ///
    /// # Panics
    /// Panics on depth mismatch.
    pub fn eval_into(&self, i: &IVec, out: &mut Vec<i128>) {
        assert_eq!(i.len(), self.depth(), "depth mismatch");
        out.clear();
        out.extend_from_slice(&self.a.0);
        let mut g = self.g.entries();
        for &x in &i.0 {
            for (o, c) in out.iter_mut().zip(g.by_ref()) {
                *o += x * c;
            }
        }
    }

    /// Evaluate the data point touched at iteration `i`.
    pub fn eval(&self, i: &IVec) -> IVec {
        let mut out = Vec::with_capacity(self.dim());
        self.eval_into(i, &mut out);
        IVec(out)
    }

    /// Exact `[min, max]` of subscript `k` over the inclusive box `bx`,
    /// one `(lo, hi)` per index; `None` when a bound does not fit `i128`.
    pub fn range(
        &self,
        k: usize,
        bx: impl IntoIterator<Item = (i128, i128)>,
    ) -> Option<(i128, i128)> {
        range_over(self.a[k], self.column(k).zip(bx))
    }

    /// The reference in transformed coordinates `j̄ = ī·U`: with
    /// `V = U⁻¹` and `ī = j̄·V` it is `(V·G, ā)`, so `self.composed(V)`
    /// at `j̄` touches what `self` touches at `j̄·V`.  `None` when an
    /// entry of `V·G` does not fit `i128`.
    pub fn composed(&self, v: &IMat) -> Option<ArrayRef> {
        debug_assert_eq!(v.rows(), self.depth(), "transform rank is the nest depth");
        let (l, d) = (self.depth(), self.dim());
        let entries = (0..l * d).map(|x| checked_dot(v, x / d, self.column(x % d)));
        Some(ArrayRef {
            array: self.array.clone(),
            g: IMat::from_vec(l, d, entries.collect::<Option<_>>()?),
            a: self.a.clone(),
            kind: self.kind,
            span: self.span,
        })
    }

    /// Drop constant subscripts (zero columns of `G`) — Example 1: a
    /// constant subscript pins one array dimension, so the reference
    /// behaves as a reference to a lower-dimensional array.  Returns the
    /// reduced reference and the kept subscript positions.
    pub fn drop_constant_subscripts(&self) -> (ArrayRef, Vec<usize>) {
        let keep = self.g.nonzero_columns();
        let reduced = ArrayRef {
            array: self.array.clone(),
            g: self.g.select_columns(&keep),
            a: IVec(keep.iter().map(|&k| self.a[k]).collect()),
            kind: self.kind,
            span: self.span,
        };
        (reduced, keep)
    }

    /// Render into `out`, index `k` spelled as the `k`-th of `names`.
    pub fn render<N: IndexName>(
        &self,
        out: &mut impl fmt::Write,
        names: impl Iterator<Item = N> + Clone,
    ) -> fmt::Result {
        if self.kind == AccessKind::Accumulate {
            out.write_str("l$")?;
        }
        out.write_str(&self.array)?;
        out.write_char('[')?;
        for k in 0..self.dim() {
            out.write_str(if k > 0 { ", " } else { "" })?;
            render_subscript(out, self.column(k).zip(names.clone()), self.a[k])?;
        }
        out.write_char(']')
    }

    /// Render with the given index names, e.g. `B[i+j, i-j-1]`.
    pub fn display(&self, names: &[String]) -> String {
        crate::rendered(|s| self.render(s, names.iter()))
    }
}

/// One subscript `Σ c·name + constant`, as the DSL spells it: unit
/// coefficients bare, zero terms dropped, a lone `0` when nothing is
/// left.
fn render_subscript<N: IndexName>(
    out: &mut impl fmt::Write,
    terms: impl Iterator<Item = (i128, N)>,
    constant: i128,
) -> fmt::Result {
    let mut empty = true;
    for (c, n) in terms {
        match c {
            0 => continue,
            1 if empty => {}
            1 => out.write_char('+')?,
            -1 => out.write_char('-')?,
            c => {
                if c > 0 && !empty {
                    out.write_char('+')?;
                }
                write_int(out, c)?;
                out.write_char('*')?;
            }
        }
        n.write_to(out)?;
        empty = false;
    }
    if constant != 0 || empty {
        if constant >= 0 && !empty {
            out.write_char('+')?;
        }
        write_int(out, constant)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        vec!["i".into(), "j".into(), "k".into()]
    }

    /// A reference built from its subscripts' `(coefficients, constant)`.
    fn subscripts(array: &str, subs: &[(&[i128], i128)], kind: AccessKind) -> ArrayRef {
        let rows: Vec<&[i128]> = subs.iter().map(|s| s.0).collect();
        let g = IMat::from_rows(&rows).transpose();
        ArrayRef::new(array, g, IVec(subs.iter().map(|s| s.1).collect()), kind)
    }

    #[test]
    fn g_matrix_example1() {
        // Example 1: A(i3+2, 5, i2-1, 4) in a triply nested loop.
        let src = "doall (i1, 0, 3) { doall (i2, 0, 3) { doall (i3, 0, 3) {
                     X[i1] = A[i3+2, 5, i2-1, 4]; } } }";
        let nest = crate::parse(src).unwrap();
        let r = &nest.body[0].rhs[0];
        assert_eq!(
            r.g_matrix(),
            &IMat::from_rows(&[&[0, 0, 0, 0], &[0, 0, 1, 0], &[1, 0, 0, 0]])
        );
        assert_eq!(r.offset(), &IVec::new(&[2, 5, -1, 4]));
        assert_eq!((r.depth(), r.dim()), (3, 4));
        let names = ["i1", "i2", "i3"].map(String::from);
        assert_eq!(r.display(&names), "A[i3+2, 5, i2-1, 4]");
    }

    #[test]
    fn drop_constant_subscripts_example1() {
        let r = subscripts(
            "A",
            &[
                (&[0, 0, 1], 2),
                (&[0, 0, 0], 5),
                (&[0, 1, 0], -1),
                (&[0, 0, 0], 4),
            ],
            AccessKind::Read,
        );
        let (red, keep) = r.drop_constant_subscripts();
        assert_eq!(keep, vec![0, 2]);
        assert_eq!(
            red,
            subscripts("A", &[(&[0, 0, 1], 2), (&[0, 1, 0], -1)], AccessKind::Read)
        );
    }

    #[test]
    fn eval_matches_g_and_a() {
        let r = subscripts("B", &[(&[1, 1], 4), (&[1, -1], 2)], AccessKind::Read);
        let i = IVec::new(&[10, 3]);
        let via_eval = r.eval(&i);
        let via_mat = r.g_matrix().apply_row(&i).unwrap().add(r.offset()).unwrap();
        assert_eq!(via_eval, via_mat);
        assert_eq!(via_eval, IVec::new(&[17, 9]));
    }

    #[test]
    #[should_panic(expected = "depth mismatch")]
    fn eval_depth_checked() {
        subscripts("B", &[(&[1, 2], 0)], AccessKind::Read).eval(&IVec::new(&[1]));
    }

    #[test]
    fn range_is_per_subscript_and_checked() {
        // B[i - 2j + 3, 7] over i in [0, 4], j in [-1, 5].
        let r = subscripts("B", &[(&[1, -2], 3), (&[0, 0], 7)], AccessKind::Read);
        assert_eq!(r.range(0, [(0, 4), (-1, 5)]), Some((3 - 10, 3 + 4 + 2)));
        assert_eq!(r.range(1, [(0, 4), (-1, 5)]), Some((7, 7)));
        let wide = subscripts("B", &[(&[1 << 126], 0)], AccessKind::Read);
        assert_eq!(wide.range(0, [(0, 4)]), None);
    }

    #[test]
    fn composed_is_v_times_g_and_keeps_overflow_out() {
        // B[i+j, i-j+2] under V = [[1, 1], [0, 1]] (i = j0, j = j0 + j1).
        let r = subscripts("B", &[(&[1, 1], 0), (&[1, -1], 2)], AccessKind::Read);
        let v = IMat::from_rows(&[&[1, 1], &[0, 1]]);
        let c = r.composed(&v).unwrap();
        assert_eq!(c.g_matrix(), &v.mul(r.g_matrix()).unwrap());
        assert_eq!(c.offset(), r.offset());
        let j = IVec::new(&[3, -2]);
        assert_eq!(c.eval(&j), r.eval(&v.apply_row(&j).unwrap()));
        let wide = subscripts("B", &[(&[i128::MAX, 1], 0)], AccessKind::Read);
        assert_eq!(wide.composed(&v), None);
    }

    #[test]
    fn same_element_ignores_kind_and_span() {
        let w = subscripts("C", &[(&[1, 0], 0)], AccessKind::Write);
        let acc =
            subscripts("C", &[(&[1, 0], 0)], AccessKind::Accumulate).with_span(Span::new(3, 7));
        assert!(w.same_element(&acc) && w != acc);
        assert!(!w.same_element(&subscripts("C", &[(&[1, 0], 1)], AccessKind::Write)));
        assert!(!w.same_element(&subscripts("D", &[(&[1, 0], 0)], AccessKind::Write)));
    }

    #[test]
    fn debug_spells_each_subscript() {
        let r = subscripts("B", &[(&[1, 0], -1), (&[0, 1], 0)], AccessKind::Read);
        assert_eq!(
            format!("{r:?}"),
            "ArrayRef { array: \"B\", subscripts: [AffineExpr { coeffs: [1, 0], constant: -1 }, \
             AffineExpr { coeffs: [0, 1], constant: 0 }], kind: Read, span: None }"
        );
    }

    #[test]
    fn write_like() {
        assert!(!AccessKind::Read.is_write_like());
        assert!(AccessKind::Write.is_write_like());
        assert!(AccessKind::Accumulate.is_write_like());
    }

    #[test]
    fn rendering() {
        let r = subscripts("B", &[(&[1, 1, 0], 4), (&[1, -1, 0], 0)], AccessKind::Read);
        assert_eq!(r.display(&names()), "B[i+j+4, i-j]");
        let acc = subscripts("C", &[(&[1, 0, 0], 0)], AccessKind::Accumulate);
        assert_eq!(acc.display(&names()), "l$C[i]");
        let subs: [(&[i128], i128, &str); 6] = [
            (&[1, 1, 0], 0, "i+j"),
            (&[1, -1, 0], -1, "i-j-1"),
            (&[2, 0, 0], 3, "2*i+3"),
            (&[0, 0, 0], 5, "5"),
            (&[0, 0, 0], 0, "0"),
            (&[-2, 0, 0], 0, "-2*i"),
        ];
        for (c, k, text) in subs {
            let r = subscripts("A", &[(c, k)], AccessKind::Read);
            assert_eq!(r.display(&names()), format!("A[{text}]"));
        }
    }
}
