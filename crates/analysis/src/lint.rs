//! Structural lints over a loop nest.
//!
//! These fire on legal-but-suspicious shapes (dead parallel dimensions,
//! zero-trip loops, rank-deficient references) and on malformed nests
//! that bypassed [`LoopNest`] validation (shadowed indices).  Race
//! detection itself lives in [`crate::analyze`]; the one overlap is
//! [`reduction_candidates`], which inspects racy statements for the
//! reduction shape `C[ḡ] = C[ḡ] + …` and suggests the legal `+=` form.

use crate::dep::pair_conflict;
use crate::diag::{Diagnostic, Note, Rule};
use alp_loopir::{AccessKind, LoopNest};

/// Run every structural lint.
pub fn run(nest: &LoopNest) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(shadowed_indices(nest));
    out.extend(zero_trip_loops(nest));
    out.extend(dead_doall_dims(nest));
    out.extend(rank_deficient_refs(nest));
    out
}

/// `shadowed-index`: two loops of the nest declare the same index name.
/// [`LoopNest::with_seq`] rejects this, but the fields are public, so an
/// unvalidated nest can still reach the analysis.
pub fn shadowed_indices(nest: &LoopNest) -> Vec<Diagnostic> {
    let mut seen: Vec<&str> = Vec::new();
    let mut out = Vec::new();
    for l in nest.seq_loops.iter().chain(&nest.loops) {
        if seen.contains(&l.name.as_str()) {
            out.push(Diagnostic::new(
                Rule::ShadowedIndex,
                format!("index `{}` is declared by more than one loop", l.name),
                l.span,
            ));
        } else {
            seen.push(&l.name);
        }
    }
    out
}

/// `zero-trip-loop`: a loop with `lower > upper` never runs, so the nest
/// does no work at all.
pub fn zero_trip_loops(nest: &LoopNest) -> Vec<Diagnostic> {
    nest.seq_loops
        .iter()
        .chain(&nest.loops)
        .filter(|l| l.trip_count() == 0)
        .map(|l| {
            Diagnostic::new(
                Rule::ZeroTripLoop,
                format!("loop `{}` never runs ({} > {})", l.name, l.lower, l.upper),
                l.span,
            )
        })
        .collect()
}

/// `dead-doall-dim`: a doall index with zero coefficient in every
/// subscript of every reference — all iterations along that dimension
/// touch identical data, so the parallel dimension only replicates work.
pub fn dead_doall_dims(nest: &LoopNest) -> Vec<Diagnostic> {
    let refs = nest.all_refs();
    if refs.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (k, l) in nest.loops.iter().enumerate() {
        let used = (refs.iter()).any(|r| {
            let g = r.g_matrix();
            k < g.rows() && (0..g.cols()).any(|c| g[(k, c)] != 0)
        });
        if !used {
            out.push(Diagnostic::new(
                Rule::DeadDoallDim,
                format!("doall index `{}` appears in no subscript", l.name),
                l.span,
            ));
        }
    }
    out
}

/// `rank-deficient-ref`: a reference whose nonzero `G` columns are
/// linearly dependent (§3.4.1).  The footprint machinery falls back to a
/// maximal independent column subset, over-approximating the footprint.
pub fn rank_deficient_refs(nest: &LoopNest) -> Vec<Diagnostic> {
    let names = nest.index_names();
    let mut out = Vec::new();
    let mut reported: Vec<&alp_loopir::ArrayRef> = Vec::new();
    for r in nest.all_refs() {
        if r.depth() != nest.depth() {
            continue; // malformed; depth lints are not this rule's job
        }
        let g = r.g_matrix();
        let nonzero = g.nonzero_columns().len();
        if g.rank() < nonzero && !reported.iter().any(|p| **p == *r) {
            reported.push(r);
            out.push(
                Diagnostic::new(
                    Rule::RankDeficientRef,
                    format!(
                        "reference `{}` has linearly dependent subscripts",
                        r.display(&names)
                    ),
                    r.span,
                )
                .with_note(Note::text(
                    "footprint analysis drops to an independent subscript subset (§3.4.1)",
                )),
            );
        }
    }
    out
}

/// `doall-reduction`: a racy statement of the shape `C[ḡ] = C[ḡ] + …`
/// (plain write, same-subscript read of the same array on the rhs).
/// Rewriting it as `C[ḡ] += …` turns both references into fine-grain
/// synchronized accumulates, which Appendix A admits as a legal doall.
pub fn reduction_candidates(nest: &LoopNest) -> Vec<Diagnostic> {
    let names = nest.index_names();
    let mut out = Vec::new();
    for st in &nest.body {
        if st.lhs.kind != AccessKind::Write {
            continue;
        }
        let is_reduction = st.rhs.iter().any(|r| r.same_element(&st.lhs));
        if is_reduction && pair_conflict(nest, &st.lhs, &st.lhs).is_some() {
            out.push(
                Diagnostic::new(
                    Rule::DoallReduction,
                    format!(
                        "`{}` looks like a reduction: distinct iterations accumulate into \
                         the same element",
                        st.lhs.display(&names)
                    ),
                    st.span,
                )
                .with_note(Note::text(format!(
                    "write it as `{} += …` to use fine-grain synchronization \
                     (legal per Appendix A)",
                    st.lhs.display(&names)
                ))),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_linalg::{IMat, IVec};
    use alp_loopir::{parse, ArrayRef, LoopIndex, Statement};

    #[test]
    fn dead_dim_fires() {
        let n = parse("doall (i, 0, 3) { doall (j, 0, 3) { A[i] = B[i]; } }").unwrap();
        let ds = dead_doall_dims(&n);
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("`j`"), "{}", ds[0].message);
        assert_eq!(ds[0].rule, Rule::DeadDoallDim);
    }

    #[test]
    fn dead_dim_quiet_when_used() {
        let n = parse("doall (i, 0, 3) { doall (j, 0, 3) { A[i, j] = B[i]; } }").unwrap();
        assert!(dead_doall_dims(&n).is_empty());
    }

    #[test]
    fn zero_trip_fires_on_unvalidated_nest() {
        let nest = LoopNest {
            seq_loops: vec![],
            loops: vec![LoopIndex::new("i", 5, 2)],
            body: vec![],
        };
        let ds = zero_trip_loops(&nest);
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("5 > 2"), "{}", ds[0].message);
    }

    #[test]
    fn shadowed_index_fires_on_unvalidated_nest() {
        let nest = LoopNest {
            seq_loops: vec![LoopIndex::new("i", 0, 3)],
            loops: vec![LoopIndex::new("i", 0, 3)],
            body: vec![],
        };
        let ds = shadowed_indices(&nest);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, Rule::ShadowedIndex);
    }

    #[test]
    fn rank_deficient_fires_on_example7_shape() {
        // A[i, 2i, i+j] in a 2-deep nest: G = [[1,2,1],[0,0,1]], rank 2,
        // three nonzero columns.
        let n = parse("doall (i, 0, 3) { doall (j, 0, 3) { B[i,j] = A[i, 2*i, i+j]; } }").unwrap();
        let ds = rank_deficient_refs(&n);
        assert_eq!(ds.len(), 1);
        assert!(
            ds[0].message.contains("A[i, 2*i, i+j]"),
            "{}",
            ds[0].message
        );
    }

    #[test]
    fn rank_deficient_ignores_constant_subscripts() {
        // A[i, 5]: the constant column is zero, the rest full-rank.
        let n = parse("doall (i, 0, 3) { B[i] = A[i, 5]; }").unwrap();
        assert!(rank_deficient_refs(&n).is_empty());
    }

    #[test]
    fn reduction_candidate_detected() {
        let n = parse(
            "doall (i, 0, 3) { doall (j, 0, 3) { doall (k, 0, 3) {
               C[i,j] = C[i,j] + A[i,k] + B[k,j];
             } } }",
        )
        .unwrap();
        let ds = reduction_candidates(&n);
        assert_eq!(ds.len(), 1);
        assert!(ds[0].notes[0].message.contains("+="), "{:?}", ds[0].notes);
    }

    #[test]
    fn accumulate_statement_is_not_flagged() {
        let n = parse("doall (i, 0, 3) { doall (k, 0, 3) { C[i] += A[i,k]; } }").unwrap();
        assert!(reduction_candidates(&n).is_empty());
    }

    #[test]
    fn non_racy_self_update_is_not_flagged() {
        // A[i] = A[i] + B[i]: reduction shape but each iteration owns its
        // element — no race, no suggestion.
        let n = parse("doall (i, 0, 3) { A[i] = A[i] + B[i]; }").unwrap();
        assert!(reduction_candidates(&n).is_empty());
    }

    #[test]
    fn hand_built_malformed_depth_is_tolerated() {
        let g = IMat::from_rows(&[&[1], &[0], &[0]]);
        let bad = ArrayRef::new("A", g, IVec::new(&[0]), AccessKind::Write);
        let nest = LoopNest {
            seq_loops: vec![],
            loops: vec![LoopIndex::new("i", 0, 3)],
            body: vec![Statement::new(bad, vec![])],
        };
        // Must not panic.
        let _ = rank_deficient_refs(&nest);
    }
}
