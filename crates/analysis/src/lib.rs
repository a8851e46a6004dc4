//! Exact doall legality and race detection for `alp` loop nests.
//!
//! The partitioner (and the paper) *assume* the input nest is a legal
//! `Doall`: no two distinct iterations may conflict on an array element
//! unless the conflict flows through fine-grain synchronized accumulates
//! (Appendix A).  This crate checks that assumption instead of trusting
//! it:
//!
//! * [`pair_conflict`] solves the affine Diophantine system
//!   `ī₁·G₁ + ā₁ = ī₂·G₂ + ā₂` exactly (Smith/Hermite machinery from
//!   `alp-linalg`, solution lattice via `alp-lattice`), intersects the
//!   solution set with the loop bounds, and produces a concrete
//!   **witness pair** of racing iterations;
//! * [`analyze`] runs that test over every write/write and write/read
//!   pair of a nest plus a small lint suite ([`lint`]) and returns a
//!   structured [`Report`];
//! * [`Report::render`] draws rustc-style caret diagnostics against the
//!   DSL source the nest was parsed from.
//!
//! `alp::Compiler` refuses nests whose report contains errors; the CLI
//! exposes the same analysis as `--check`.

pub mod dep;
pub mod diag;
pub mod lint;
pub mod search;

pub use dep::{brute_force_conflict, pair_conflict, witness_is_valid, ConflictLattice, Witness};
pub use diag::{Diagnostic, Note, Report, Rule, Severity};

use alp_linalg::IVec;
use alp_loopir::{AccessKind, ArrayRef, LoopNest};

/// Analyse a nest: exact race detection over every conflicting reference
/// pair, then the structural lints.  The returned report's
/// [`has_errors`](Report::has_errors) decides doall legality.
pub fn analyze(nest: &LoopNest) -> Report {
    let mut report = Report::default();
    report.diagnostics.extend(races(nest));
    report.diagnostics.extend(lint::reduction_candidates(nest));
    report.diagnostics.extend(lint::run(nest));
    report
}

/// Analyse every nest of a multi-phase program, concatenating findings.
pub fn analyze_program(nests: &[LoopNest]) -> Report {
    let mut report = Report::default();
    for n in nests {
        report.merge(analyze(n));
    }
    report
}

/// How a reference kind reads in a diagnostic.
fn verb(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Read => "reads",
        AccessKind::Write => "writes",
        AccessKind::Accumulate => "accumulates into",
    }
}

/// `(i=1, j=2)` — iteration vectors rendered with their index names.
fn fmt_iter(names: &[String], i: &IVec) -> String {
    let parts: Vec<String> = names
        .iter()
        .zip(i.0.iter())
        .map(|(n, v)| format!("{n}={v}"))
        .collect();
    format!("({})", parts.join(", "))
}

/// `A[2, 1]` — an array element.
fn fmt_element(array: &str, e: &IVec) -> String {
    let parts: Vec<String> = e.0.iter().map(|v| v.to_string()).collect();
    format!("{array}[{}]", parts.join(", "))
}

/// Exact race detection: every pair of same-array references where at
/// least one side is write-like and not both sides are accumulates
/// (accumulate/accumulate conflicts are ordered by fine-grain
/// synchronization, Appendix A).
fn races(nest: &LoopNest) -> Vec<Diagnostic> {
    // Malformed nests (inconsistent depths/dims) are reported by
    // `LoopNest::validate` and the lints; the Diophantine machinery
    // needs consistent shapes.
    let depth = nest.depth();
    if nest.all_refs().iter().any(|r| r.depth() != depth) {
        return Vec::new();
    }
    let names = nest.index_names();
    let refs = nest.all_refs();
    let mut out = Vec::new();
    for i in 0..refs.len() {
        for j in i..refs.len() {
            let (r1, r2) = (refs[i], refs[j]);
            if r1.array != r2.array || r1.dim() != r2.dim() {
                continue;
            }
            if !r1.kind.is_write_like() && !r2.kind.is_write_like() {
                continue; // read/read never conflicts
            }
            if r1.kind == AccessKind::Accumulate && r2.kind == AccessKind::Accumulate {
                continue; // legal: ordered by fine-grain synchronization
            }
            if i == j && !r1.kind.is_write_like() {
                continue;
            }
            if let Some(w) = pair_conflict(nest, r1, r2) {
                out.push(race_diagnostic(&names, r1, r2, &w, i == j));
            }
        }
    }
    out
}

fn race_diagnostic(
    names: &[String],
    r1: &ArrayRef,
    r2: &ArrayRef,
    w: &Witness,
    self_pair: bool,
) -> Diagnostic {
    let elem = fmt_element(&r1.array, &w.element);
    let mut d = Diagnostic::new(
        Rule::DoallRace,
        format!("doall iterations race on array `{}`", r1.array),
        r1.span,
    );
    if self_pair {
        d = d.with_note(Note::text(format!(
            "iterations {} and {} both touch {} through `{}`",
            fmt_iter(names, &w.iter1),
            fmt_iter(names, &w.iter2),
            elem,
            r1.display(names),
        )));
    } else {
        d = d.with_note(Note::spanned(
            format!("conflicting reference `{}`", r2.display(names)),
            r2.span,
        ));
        d = d.with_note(Note::text(format!(
            "iteration {} {} {} via `{}`; iteration {} {} it via `{}`",
            fmt_iter(names, &w.iter1),
            verb(r1.kind),
            elem,
            r1.display(names),
            fmt_iter(names, &w.iter2),
            verb(r2.kind),
            r2.display(names),
        )));
    }
    if r1.kind == AccessKind::Accumulate || r2.kind == AccessKind::Accumulate {
        d = d.with_note(Note::text(
            "fine-grain synchronization orders accumulates only against other \
             accumulates (Appendix A)",
        ));
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    #[test]
    fn stencil_is_illegal() {
        let n = parse("doall (i, 0, 9) { A[i] = A[i+1]; }").unwrap();
        let rep = analyze(&n);
        assert!(rep.has_errors());
        assert!(rep.diagnostics.iter().any(|d| d.rule == Rule::DoallRace));
    }

    #[test]
    fn identity_nest_is_clean() {
        let n =
            parse("doall (i, 0, 9) { doall (j, 0, 9) { A[i,j] = B[i,j] + B[i+1,j]; } }").unwrap();
        let rep = analyze(&n);
        assert!(!rep.has_errors());
        assert!(!rep.has_warnings());
    }

    #[test]
    fn accumulate_matmul_is_legal() {
        // Fig. 11: the k-races on C flow only through accumulates.
        let n = parse(
            "doall (i, 1, 8) { doall (j, 1, 8) { doall (k, 1, 8) {
               l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
             } } }",
        )
        .unwrap();
        let rep = analyze(&n);
        assert!(!rep.has_errors(), "{:?}", rep.diagnostics);
    }

    #[test]
    fn unsynchronized_reduction_is_illegal_but_suggested() {
        // Fixed i, varying k: every k-iteration rewrites the same C[i].
        let n = parse("doall (i, 0, 3) { doall (k, 0, 3) { C[i] = C[i] + A[i,k]; } }").unwrap();
        let rep = analyze(&n);
        assert!(rep.has_errors());
        assert!(
            rep.diagnostics
                .iter()
                .any(|d| d.rule == Rule::DoallReduction),
            "{:?}",
            rep.diagnostics
        );
    }

    #[test]
    fn accumulate_against_plain_read_still_races() {
        // l$A[0] accumulates; B[j] = A[i] reads A unsynchronized.
        let n = parse(
            "doall (i, 0, 3) {
               l$A[0] = l$A[0] + C[i];
               B[i] = A[i];
             }",
        )
        .unwrap();
        let rep = analyze(&n);
        assert!(rep.has_errors(), "{:?}", rep.diagnostics);
    }

    #[test]
    fn render_names_witness_iterations() {
        let src = "doall (i, 0, 9) { A[i] = A[i+1]; }";
        let n = parse(src).unwrap();
        let text = analyze(&n).render(src);
        assert!(text.contains("error[doall-race]"), "{text}");
        assert!(text.contains("i="), "{text}");
        assert!(text.contains("^"), "{text}");
    }

    #[test]
    fn program_analysis_concatenates() {
        let a = parse("doall (i, 0, 3) { A[i] = A[i+1]; }").unwrap();
        let b = parse("doall (i, 0, 3) { B[i] = B[i]; }").unwrap();
        let rep = analyze_program(&[a, b]);
        assert_eq!(rep.count(Severity::Error), 1);
    }
}
