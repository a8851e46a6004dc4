//! Array references `A[ḡ(ī)]` and their `(G, ā)` form.

use crate::expr::AffineExpr;
use crate::span::Span;
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

/// A single array reference with affine subscripts.
///
/// Equality and hashing ignore [`span`](ArrayRef::span), which is pure
/// source metadata: a parsed reference equals the same reference built by
/// hand.
#[derive(Debug, Clone, Eq)]
pub struct ArrayRef {
    /// Array name (aliasing resolved: distinct names are distinct arrays,
    /// §3.3).
    pub array: String,
    /// One affine expression per array dimension.
    pub subscripts: Vec<AffineExpr>,
    /// Access kind.
    pub kind: AccessKind,
    /// Source span when parsed from DSL text (`None` for built IR).
    pub span: Option<Span>,
}

impl PartialEq for ArrayRef {
    fn eq(&self, other: &Self) -> bool {
        self.array == other.array && self.subscripts == other.subscripts && self.kind == other.kind
    }
}

impl std::hash::Hash for ArrayRef {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.array.hash(state);
        self.subscripts.hash(state);
        self.kind.hash(state);
    }
}

impl ArrayRef {
    /// Construct a reference.
    pub fn new(array: impl Into<String>, subscripts: Vec<AffineExpr>, kind: AccessKind) -> Self {
        ArrayRef {
            array: array.into(),
            subscripts,
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
        self.subscripts.len()
    }

    /// Nest depth `l` the subscripts are written against.
    pub fn depth(&self) -> usize {
        self.subscripts.first().map_or(0, AffineExpr::depth)
    }

    /// The reference matrix `G` (`l×d`, Eq. 1): column `k` holds the loop
    /// coefficients of subscript `k`.
    pub fn g_matrix(&self) -> IMat {
        let l = self.depth();
        let d = self.dim();
        let mut g = IMat::zeros(l, d);
        for (k, sub) in self.subscripts.iter().enumerate() {
            for (r, &c) in sub.coeffs.iter().enumerate() {
                g[(r, k)] = c;
            }
        }
        g
    }

    /// The offset vector `ā` (length `d`).
    pub fn offset(&self) -> IVec {
        IVec(self.subscripts.iter().map(|s| s.constant).collect())
    }

    /// Evaluate the data point touched at iteration `i`.
    pub fn eval(&self, i: &IVec) -> IVec {
        IVec(self.subscripts.iter().map(|s| s.eval(i)).collect())
    }

    /// Drop constant subscripts (zero columns of `G`) — Example 1: a
    /// constant subscript pins one array dimension, so the reference
    /// behaves as a reference to a lower-dimensional array.  Returns the
    /// reduced reference and the kept subscript positions.
    pub fn drop_constant_subscripts(&self) -> (ArrayRef, Vec<usize>) {
        let keep: Vec<usize> = (0..self.dim())
            .filter(|&k| !self.subscripts[k].is_constant())
            .collect();
        let reduced = ArrayRef {
            array: self.array.clone(),
            subscripts: keep.iter().map(|&k| self.subscripts[k].clone()).collect(),
            kind: self.kind,
            span: self.span,
        };
        (reduced, keep)
    }

    /// Render into `out`, index `k` spelled as the `k`-th of `names`.
    pub fn render<N: fmt::Display>(
        &self,
        out: &mut impl fmt::Write,
        names: impl Iterator<Item = N> + Clone,
    ) -> fmt::Result {
        if self.kind == AccessKind::Accumulate {
            out.write_str("l$")?;
        }
        write!(out, "{}[", self.array)?;
        for (k, sub) in self.subscripts.iter().enumerate() {
            out.write_str(if k > 0 { ", " } else { "" })?;
            sub.render(out, names.clone())?;
        }
        out.write_char(']')
    }

    /// Render with the given index names, e.g. `B[i+j, i-j-1]`.
    pub fn display(&self, names: &[String]) -> String {
        crate::rendered(|s| self.render(s, names.iter()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        vec!["i".into(), "j".into(), "k".into()]
    }

    #[test]
    fn g_matrix_example1() {
        // Example 1: A(i3+2, 5, i2-1, 4) in a triply nested loop.
        let r = ArrayRef::new(
            "A",
            vec![
                AffineExpr::new(vec![0, 0, 1], 2),
                AffineExpr::constant(3, 5),
                AffineExpr::new(vec![0, 1, 0], -1),
                AffineExpr::constant(3, 4),
            ],
            AccessKind::Read,
        );
        let g = r.g_matrix();
        assert_eq!(
            g,
            IMat::from_rows(&[&[0, 0, 0, 0], &[0, 0, 1, 0], &[1, 0, 0, 0]])
        );
        assert_eq!(r.offset(), IVec::new(&[2, 5, -1, 4]));
    }

    #[test]
    fn drop_constant_subscripts_example1() {
        let r = ArrayRef::new(
            "A",
            vec![
                AffineExpr::new(vec![0, 0, 1], 2),
                AffineExpr::constant(3, 5),
                AffineExpr::new(vec![0, 1, 0], -1),
                AffineExpr::constant(3, 4),
            ],
            AccessKind::Read,
        );
        let (red, keep) = r.drop_constant_subscripts();
        assert_eq!(keep, vec![0, 2]);
        assert_eq!(red.dim(), 2);
        // Reduced G has no zero columns.
        assert_eq!(red.g_matrix().nonzero_columns().len(), 2);
    }

    #[test]
    fn eval_matches_g_and_a() {
        let r = ArrayRef::new(
            "B",
            vec![
                AffineExpr::new(vec![1, 1], 4),
                AffineExpr::new(vec![1, -1], 2),
            ],
            AccessKind::Read,
        );
        let i = IVec::new(&[10, 3]);
        let via_eval = r.eval(&i);
        let via_mat = r
            .g_matrix()
            .apply_row(&i)
            .unwrap()
            .add(&r.offset())
            .unwrap();
        assert_eq!(via_eval, via_mat);
        assert_eq!(via_eval, IVec::new(&[17, 9]));
    }

    #[test]
    fn write_like() {
        assert!(!AccessKind::Read.is_write_like());
        assert!(AccessKind::Write.is_write_like());
        assert!(AccessKind::Accumulate.is_write_like());
    }

    #[test]
    fn rendering() {
        let r = ArrayRef::new(
            "B",
            vec![
                AffineExpr::new(vec![1, 1, 0], 4),
                AffineExpr::new(vec![1, -1, 0], 0),
            ],
            AccessKind::Read,
        );
        assert_eq!(r.display(&names()), "B[i+j+4, i-j]");
        let acc = ArrayRef::new("C", vec![AffineExpr::index(3, 0)], AccessKind::Accumulate);
        assert_eq!(acc.display(&names()), "l$C[i]");
    }
}
