//! Loop nests: the unit of partitioning.

use crate::refs::{AccessKind, ArrayRef};
use crate::span::Span;
use crate::{IrError, LayoutOverflow};
use alp_linalg::{walk_box, IVec};
use std::collections::HashMap;
use std::fmt;

/// One loop level: `Doall (name, lower, upper)` with unit stride (§2.1).
///
/// Equality ignores [`span`](LoopIndex::span) (source metadata only).
#[derive(Debug, Clone, Eq)]
pub struct LoopIndex {
    /// Index variable name.
    pub name: String,
    /// Inclusive lower bound.
    pub lower: i128,
    /// Inclusive upper bound.
    pub upper: i128,
    /// Span of the index name in the loop header, when parsed.
    pub span: Option<Span>,
}

impl PartialEq for LoopIndex {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.lower == other.lower && self.upper == other.upper
    }
}

impl LoopIndex {
    /// Construct a loop level.
    pub fn new(name: impl Into<String>, lower: i128, upper: i128) -> Self {
        LoopIndex {
            name: name.into(),
            lower,
            upper,
            span: None,
        }
    }

    /// Attach a source span (the index name in the header).
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Number of iterations.
    pub fn trip_count(&self) -> i128 {
        (self.upper - self.lower + 1).max(0)
    }
}

/// An assignment statement `lhs = f(rhs…)` (only the reference structure
/// matters to the analysis; arithmetic operators are irrelevant to
/// traffic).
///
/// Equality ignores [`span`](Statement::span) (source metadata only).
#[derive(Debug, Clone, Eq)]
pub struct Statement {
    /// The written (or accumulated) reference.
    pub lhs: ArrayRef,
    /// All references read on the right-hand side.
    pub rhs: Vec<ArrayRef>,
    /// Span of the whole statement (lhs through `;`), when parsed.
    pub span: Option<Span>,
}

impl PartialEq for Statement {
    fn eq(&self, other: &Self) -> bool {
        self.lhs == other.lhs && self.rhs == other.rhs
    }
}

impl Statement {
    /// Construct a statement.
    pub fn new(lhs: ArrayRef, rhs: Vec<ArrayRef>) -> Self {
        Statement {
            lhs,
            rhs,
            span: None,
        }
    }

    /// Attach a source span (lhs through the terminating `;`).
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Every reference of the statement: the write first, then the reads.
    pub fn refs(&self) -> impl Iterator<Item = &ArrayRef> {
        std::iter::once(&self.lhs).chain(self.rhs.iter())
    }
}

/// A perfectly nested loop (Fig. 1), optionally wrapped in outer
/// sequential loops (Fig. 9's `Doseq`), whose body is a list of
/// assignment statements over affine references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNest {
    /// Outer sequential loops (executed serially; they repeat the doall
    /// body and turn cold misses into coherence traffic, §3.6/Fig. 9).
    pub seq_loops: Vec<LoopIndex>,
    /// The parallel `Doall` indices, outermost first.
    pub loops: Vec<LoopIndex>,
    /// Statements of the loop body.
    pub body: Vec<Statement>,
}

impl LoopNest {
    /// Create and validate a nest.
    pub fn new(loops: Vec<LoopIndex>, body: Vec<Statement>) -> Result<Self, IrError> {
        Self::with_seq(Vec::new(), loops, body)
    }

    /// Create a nest with outer sequential loops.
    pub fn with_seq(
        seq_loops: Vec<LoopIndex>,
        loops: Vec<LoopIndex>,
        body: Vec<Statement>,
    ) -> Result<Self, IrError> {
        let nest = LoopNest {
            seq_loops,
            loops,
            body,
        };
        nest.validate()?;
        Ok(nest)
    }

    /// Parallel nest depth `l`.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Names of the parallel indices, outermost first.
    pub fn index_names(&self) -> Vec<String> {
        self.loops.iter().map(|l| l.name.clone()).collect()
    }

    /// Total number of parallel iterations (the iteration-space volume).
    pub fn iteration_count(&self) -> i128 {
        self.loops.iter().map(LoopIndex::trip_count).product()
    }

    /// Number of repetitions contributed by the outer sequential loops.
    pub fn seq_repetitions(&self) -> i128 {
        self.seq_loops.iter().map(LoopIndex::trip_count).product()
    }

    /// The loop bounds as an inclusive box, one `(lower, upper)` per index.
    pub fn bounds(&self) -> impl Iterator<Item = (i128, i128)> + '_ {
        self.loops.iter().map(|l| (l.lower, l.upper))
    }

    /// Every reference in the body, writes and reads.
    pub fn all_refs(&self) -> Vec<&ArrayRef> {
        self.body.iter().flat_map(Statement::refs).collect()
    }

    /// Distinct array names, in first-appearance order.
    pub fn arrays(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for r in self.all_refs() {
            if !seen.contains(&r.array) {
                seen.push(r.array.clone());
            }
        }
        seen
    }

    /// For each array, the extent of each dimension implied by the loop
    /// bounds (the smallest box covering every touched element) — what
    /// [`ArrayLayout`](crate::ArrayLayout) lays the arrays out by.
    /// Fails, naming the array, when an extent does not fit `i128`.
    pub fn try_array_extents(&self) -> Result<HashMap<String, Vec<(i128, i128)>>, LayoutOverflow> {
        let mut out: HashMap<String, Vec<(i128, i128)>> = HashMap::new();
        for r in self.all_refs() {
            let lo_hi = (r.subscripts.iter())
                .map(|s| s.range(self.bounds()))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| LayoutOverflow {
                    array: r.array.clone(),
                })?;
            out.entry(r.array.clone())
                .and_modify(|ext| {
                    for (e, n) in ext.iter_mut().zip(&lo_hi) {
                        e.0 = e.0.min(n.0);
                        e.1 = e.1.max(n.1);
                    }
                })
                .or_insert(lo_hi);
        }
        Ok(out)
    }

    /// Iterate over every point of the iteration space (outermost index
    /// slowest).  Intended for exhaustive validation on small nests.
    pub fn iteration_points(&self) -> Vec<IVec> {
        let mut out = Vec::new();
        if self.depth() == 0 {
            return out;
        }
        let (lo, hi): (Vec<i128>, Vec<i128>) = self.bounds().unzip();
        walk_box(&lo, &hi, &mut vec![0; lo.len()], |i| {
            out.push(IVec(i.to_vec()));
            true
        });
        out
    }

    /// Render in the DSL syntax into `out`, sequential index `k` spelled
    /// as the `k`-th of `seq_names` and parallel index `k` as the `k`-th
    /// of `names`.  This is the one renderer: [`display`](Self::display)
    /// is it with the nest's own names into a `String`, and the plan
    /// fingerprint is it with positional names into a hash.
    pub fn render<W: fmt::Write, N: fmt::Display>(
        &self,
        out: &mut W,
        seq_names: impl Iterator<Item = N>,
        names: impl Iterator<Item = N> + Clone,
    ) -> fmt::Result {
        let pad = |out: &mut W, indent| (0..indent).try_for_each(|_| out.write_str("  "));
        let seq = self.seq_loops.iter().zip(seq_names).map(|h| ("doseq", h));
        let par = self.loops.iter().zip(names.clone()).map(|h| ("doall", h));
        for (indent, (keyword, (l, name))) in seq.chain(par).enumerate() {
            pad(out, indent)?;
            writeln!(out, "{keyword} ({name}, {}, {}) {{", l.lower, l.upper)?;
        }
        let depth = self.seq_loops.len() + self.loops.len();
        for st in &self.body {
            pad(out, depth)?;
            st.lhs.render(out, names.clone())?;
            let accumulates = st.lhs.kind == AccessKind::Accumulate;
            out.write_str(if accumulates { " += " } else { " = " })?;
            out.write_str(if st.rhs.is_empty() { "0" } else { "" })?;
            for (k, r) in st.rhs.iter().enumerate() {
                out.write_str(if k > 0 { " + " } else { "" })?;
                r.render(out, names.clone())?;
            }
            out.write_str(";\n")?;
        }
        (0..depth).rev().try_for_each(|indent| {
            pad(out, indent)?;
            out.write_str("}\n")
        })
    }

    /// Pretty-print in the DSL syntax.
    pub fn display(&self) -> String {
        fn own(loops: &[LoopIndex]) -> impl Iterator<Item = &String> + Clone {
            loops.iter().map(|l| &l.name)
        }
        crate::rendered(|s| self.render(s, own(&self.seq_loops), own(&self.loops)))
    }

    fn validate(&self) -> Result<(), IrError> {
        let mut names = std::collections::HashSet::new();
        for l in self.seq_loops.iter().chain(&self.loops) {
            if l.lower > l.upper {
                return Err(IrError::EmptyLoop {
                    index: l.name.clone(),
                });
            }
            if !names.insert(l.name.as_str()) {
                return Err(IrError::DuplicateIndex {
                    index: l.name.clone(),
                });
            }
        }
        let depth = self.depth();
        let mut dims: HashMap<&str, usize> = HashMap::new();
        for r in self.body.iter().flat_map(Statement::refs) {
            for sub in &r.subscripts {
                if sub.depth() != depth {
                    return Err(IrError::DepthMismatch {
                        depth,
                        found: sub.depth(),
                    });
                }
            }
            match dims.get(r.array.as_str()) {
                Some(&d) if d != r.dim() => {
                    return Err(IrError::DimensionMismatch {
                        array: r.array.clone(),
                        expected: d,
                        found: r.dim(),
                    });
                }
                _ => {
                    dims.insert(&r.array, r.dim());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AffineExpr;

    fn idx(depth: usize, k: usize) -> AffineExpr {
        AffineExpr::index(depth, k)
    }

    fn example2() -> LoopNest {
        // Example 2 of the paper.
        let i = idx(2, 0);
        let j = idx(2, 1);
        let a = ArrayRef::new("A", vec![i.clone(), j.clone()], AccessKind::Write);
        let b1 = ArrayRef::new(
            "B",
            vec![i.add(&j), i.add(&j.scale(-1)).offset(-1)],
            AccessKind::Read,
        );
        let b2 = ArrayRef::new(
            "B",
            vec![i.add(&j).offset(4), i.add(&j.scale(-1)).offset(3)],
            AccessKind::Read,
        );
        LoopNest::new(
            vec![LoopIndex::new("i", 101, 200), LoopIndex::new("j", 1, 100)],
            vec![Statement::new(a, vec![b1, b2])],
        )
        .unwrap()
    }

    #[test]
    fn basic_shape() {
        let n = example2();
        assert_eq!(n.depth(), 2);
        assert_eq!(n.iteration_count(), 10_000);
        assert_eq!(n.arrays(), vec!["A".to_string(), "B".to_string()]);
        assert_eq!(n.all_refs().len(), 3);
        assert_eq!(n.seq_repetitions(), 1);
    }

    #[test]
    fn extents() {
        let n = example2();
        let ext = n.try_array_extents().unwrap();
        assert_eq!(ext["A"], vec![(101, 200), (1, 100)]);
        // B subscripts: i+j in [102, 300]; i-j-1 in [0, 198];
        // i+j+4 in [106, 304]; i-j+3 in [4, 202] -> union.
        assert_eq!(ext["B"], vec![(102, 304), (0, 202)]);
    }

    #[test]
    fn iteration_points_order_and_count() {
        let n = LoopNest::new(
            vec![LoopIndex::new("i", 0, 1), LoopIndex::new("j", 5, 7)],
            vec![],
        )
        .unwrap();
        let pts = n.iteration_points();
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0], IVec::new(&[0, 5]));
        assert_eq!(pts[1], IVec::new(&[0, 6]));
        assert_eq!(pts[5], IVec::new(&[1, 7]));
    }

    #[test]
    fn validation_rejects_empty_loop() {
        let r = LoopNest::new(vec![LoopIndex::new("i", 5, 4)], vec![]);
        assert!(matches!(r, Err(IrError::EmptyLoop { .. })));
    }

    #[test]
    fn validation_rejects_dim_mismatch() {
        let a1 = ArrayRef::new("A", vec![idx(1, 0)], AccessKind::Write);
        let a2 = ArrayRef::new("A", vec![idx(1, 0), idx(1, 0)], AccessKind::Read);
        let r = LoopNest::new(
            vec![LoopIndex::new("i", 0, 9)],
            vec![Statement::new(a1, vec![a2])],
        );
        assert!(matches!(r, Err(IrError::DimensionMismatch { .. })));
    }

    #[test]
    fn validation_rejects_depth_mismatch() {
        let bad = ArrayRef::new("A", vec![idx(3, 0)], AccessKind::Write);
        let r = LoopNest::new(
            vec![LoopIndex::new("i", 0, 9)],
            vec![Statement::new(bad, vec![])],
        );
        assert!(matches!(r, Err(IrError::DepthMismatch { .. })));
    }

    #[test]
    fn display_round_trips_through_parser() {
        let n = example2();
        let text = n.display();
        let reparsed = crate::parse(&text).unwrap();
        assert_eq!(n, reparsed);
    }
}
