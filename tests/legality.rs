//! End-to-end legality gating: the compiler refuses racy nests, accepts
//! fine-grain-synchronized reductions, and the exact dependence tester
//! agrees with brute-force enumeration on compact nests.

use alp::analysis::{
    analyze, brute_force_conflict, pair_conflict, witness_is_valid, Rule, Severity,
};
use alp::prelude::*;

#[test]
fn compiler_refuses_racy_nest() {
    let err = Compiler::new(4)
        .compile(parse("doall (i, 0, 15) { A[i] = A[i+1]; }").unwrap())
        .unwrap_err();
    match err {
        AlpError::Illegal(report) => {
            assert!(report.has_errors());
            assert!(report.diagnostics.iter().any(|d| d.rule == Rule::DoallRace));
        }
        other => panic!("expected Illegal, got {other:?}"),
    }
}

#[test]
fn unchecked_compiles_racy_nest() {
    let result = Compiler::new(4)
        .unchecked()
        .compile(parse("doall (i, 0, 15) { A[i] = A[i+1]; }").unwrap())
        .unwrap();
    assert_eq!(result.plan.tiles(), 4);
    assert!(result.report.diagnostics.is_empty());
}

#[test]
fn compiler_accepts_accumulate_matmul() {
    // Fig. 11: the C-races flow only through fine-grain synchronized
    // accumulates, which Appendix A admits.
    let result = Compiler::new(8)
        .compile(
            parse(
                "doall (i, 1, 8) { doall (j, 1, 8) { doall (k, 1, 8) {
               l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
             } } }",
            )
            .unwrap(),
        )
        .unwrap();
    assert!(!result.report.has_errors());
}

#[test]
fn compiler_accepts_clean_stencil_reads() {
    // Example 8's shape: writes are identity, reads hit a different
    // array — no write/write or write/read conflicts.
    let result = Compiler::new(16)
        .compile(
            parse(
                "doall (i, 1, 16) { doall (j, 1, 16) {
               A[i,j] = B[i-1,j] + B[i,j+1];
             } }",
            )
            .unwrap(),
        )
        .unwrap();
    assert!(!result.report.has_errors());
    assert!(!result.report.has_warnings());
}

#[test]
fn plain_reduction_is_refused_with_suggestion() {
    let err = Compiler::new(4)
        .compile(parse("doall (i, 0, 3) { doall (k, 0, 3) { C[i] = C[i] + A[i,k]; } }").unwrap())
        .unwrap_err();
    let AlpError::Illegal(report) = err else {
        panic!("expected Illegal")
    };
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.rule == Rule::DoallReduction));
    let text = report.render("");
    assert!(text.contains("+="), "{text}");
}

#[test]
fn witness_pair_is_concrete_and_valid() {
    let nest = parse("doall (i, 0, 9) { doall (j, 0, 9) { A[i,j] = A[j,i]; } }").unwrap();
    let refs = nest.all_refs();
    let w = pair_conflict(&nest, refs[0], refs[1]).expect("transpose races");
    assert!(witness_is_valid(&nest, refs[0], refs[1], &w));
    assert_eq!(refs[0].eval(&w.iter1), refs[1].eval(&w.iter2));
}

#[test]
fn exact_tester_matches_brute_force_on_compact_nests() {
    // Trip counts ≤ 6 keep the oracle exhaustive.
    let cases = [
        "doall (i, 0, 5) { A[i] = A[i+1]; }",
        "doall (i, 0, 5) { A[2*i] = A[2*i+1]; }",
        "doall (i, 0, 5) { A[i] = A[5-i]; }",
        "doall (i, 0, 5) { A[i] = A[i+9]; }",
        "doall (i, 0, 5) { doall (j, 0, 5) { A[i,j] = A[j,i] + B[i+j, i-j]; } }",
        "doall (i, 0, 4) { doall (j, 0, 4) { A[i+j] = B[i]; } }",
        "doall (i, 1, 4) { doall (j, 1, 4) { A[2*i, j] = A[i, j+1]; } }",
    ];
    for src in cases {
        let nest = parse(src).unwrap();
        let refs = nest.all_refs();
        for r1 in &refs {
            for r2 in &refs {
                if r1.array != r2.array {
                    continue;
                }
                let exact = pair_conflict(&nest, r1, r2);
                let brute = brute_force_conflict(&nest, r1, r2);
                assert_eq!(exact.is_some(), brute.is_some(), "{src}");
                if let Some(w) = exact {
                    assert!(witness_is_valid(&nest, r1, r2, &w), "{src}");
                }
            }
        }
    }
}

#[test]
fn lint_only_findings_do_not_block_compilation() {
    // Rank-deficient read reference: warning, not error.
    let result = Compiler::new(4)
        .compile(parse("doall (i, 0, 7) { doall (j, 0, 7) { B[i,j] = A[i, 2*i, i+j]; } }").unwrap())
        .unwrap();
    assert!(result.report.has_warnings());
    assert!(!result.report.has_errors());
    assert_eq!(result.report.count(Severity::Warning), 1);
}

#[test]
fn analyze_renders_caret_against_source() {
    let src = "doall (i, 0, 9) { A[i] = A[i+1]; }";
    let text = analyze(&parse(src).unwrap()).render(src);
    assert!(text.contains("error[doall-race]"), "{text}");
    assert!(text.contains("A[i] = A[i+1];"), "{text}");
    assert!(text.contains("^^^^"), "{text}");
}
