//! Parser differential: the exact `Debug` of what the DSL front end
//! returns — every `LoopNest` with its spans, every `ParseError` with
//! its message, offset, line and column — pinned for the nests the tree
//! ships (examples, the paper's, the goldens, the ledger generator's six
//! families) and for a table of malformed inputs that reaches each
//! error site of the parser.  The pins were taken before the tokens
//! borrowed their text from the source, and hold unchanged after it.

use alp_loopir::{parse_program_with_params, parse_with_params};
use std::collections::HashMap;

fn params() -> HashMap<String, i128> {
    [("N".to_string(), 8), ("S".to_string(), 2)].into()
}

/// Well-formed nests; `parser_differential.expected` holds their IR,
/// one `nest <k>: <Debug>` line each, in this order.
const NESTS: &[&str] = &[
    // examples/*.rs
    "doseq (t, 1, 4) {
                 doall (i, 1, 64) { doall (j, 1, 64) {
                   A[i,j] = A[i-1,j] + A[i+1,j] + A[i,j-1] + A[i,j+1];
                 } }
               }",
    "doall (i, 1, 32) { doall (j, 1, 32) { doall (k, 1, 32) {
                 l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
               } } }",
    "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
                 A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
               } } }",
    "doall (i, 101, 200) { doall (j, 1, 100) {
                 A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
               } }",
    "doall (i, 1, 64) { doall (j, 1, 64) {
                 A[i,j] = B[i,j] + B[i+1,j+3];
               } }",
    // tests/paper_examples.rs
    "doall (i1, 0, 9) { doall (i2, 0, 9) { doall (i3, 0, 9) {
           A[i3+2, 5, i2-1, 4] = A[i3+2, 5, i2-1, 4];
         } } }",
    "doall (i, 0, 99) { doall (j, 0, 99) {
           A[i,j] = B[i+j,j] + B[i+j+1,j+2];
         } }",
    "doall (i, 0, 9) { doall (j, 0, 9) { A[i, 2*i, i+j] = A[i, 2*i, i+j]; } }",
    "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
           A[i,j,k] = A[i-1,j,k+1] + A[i,j+1,k] + A[i+1,j-2,k-3];
         } } }",
    "doseq (t, 1, 3) {
           doall (i, 1, 16) { doall (j, 1, 16) { doall (k, 1, 16) {
             A[i,j,k] = A[i-1,j,k+1] + A[i,j+1,k] + A[i+1,j-2,k-3];
           } } }
         }",
    "doall (i, 1, 100) { doall (j, 1, 100) {
                 A[i,j] = B[i-2,j] + B[i,j-1] + C[i+j,j] + C[i+j+1,j+3];
               } }",
    "doall (i, 1, 64) { doall (j, 1, 64) {
                 A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                        + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1];
               } }",
    "doall (i, 1, 8) { doall (j, 1, 8) { doall (k, 1, 8) {
           l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
         } } }",
    "doall (i, 101, 200) { doall (j, 1, 100) { A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]; } }",
    // tests/golden/*.alp, then the `source` fields of the golden plans
    "doall (i, 101, 612) { doall (j, 1, 512) {
  A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
} }
",
    "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
  A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
} } }
",
    "doall (i, 101, 612) {\n  doall (j, 1, 512) {\n    A[i, j] = B[i+j, i-j-1] + B[i+j+4, i-j+3];\n  }\n}\n",
    "doall (i, 1, 64) {\n  doall (j, 1, 64) {\n    doall (k, 1, 64) {\n      A[i, j, k] = B[i-1, j, k+1] + B[i, j+1, k] + B[i+1, j-2, k-3];\n    }\n  }\n}\n",
    // one nest of each family of the ledger's generator (ledger/src/gen.rs)
    "doall (i, 3, 26) { doall (j, 5, 41) { A[i,j] = B[i-1,j+2] + B[i,j-3] + B[i+3,j]; } }",
    "doall (i, 2, 8) { doall (j, 7, 12) { doall (k, 1, 9) { A[i,j,k] = B[i+1,j,k-2] + B[i-3,j+2,k]; } } }",
    "doall (i, 0, 5) { doall (j, 0, 8) { doall (k, 0, 3) { l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j]; } } }",
    "doall (i, 0, 21) { doall (j, 0, 13) { l$S[i] = l$S[i] + A[i,j+2]; } }",
    "doall (i, 97, 120) { doall (j, 4, 30) { A[i,j] = B[i+j,i-j-2] + B[i+j+3,i-j+1] + C[i+2*j,j] + C[i+2*j+4,j+2]; } }",
    "doall (i, 5, 50, 3) { doall (j, 2, 19) { A[i,j] = B[i,j] + B[i+3,j+2]; } }",
    // the rest of the grammar: parameters, strided doseq, `+=`, signs,
    // coefficients on references, constant terms, comments
    "doseq (t, 1, 10, 4) { doall (i, 1, N, S) { A[i] = A[i]; } }",
    "doall (i, 0, 3) { C[i] += A[i]; }",
    "doall (i, 0, 3) { l$C[i] += l$C[i] + A[i]; C[i] += C[i]; }",
    "// negative lower bound
             doall (i, -5, 5) { A[i] = 2*B[i] - C[-i + 3] + 7; } // done",
    "doall (i, 0, 3) { doall (j, 0, 3) { A[-i - -2*j + +3, 0] = - B[j - 2*i, 4*j] - + - 3; } }",
    "doall (l, 0, 3) { l[l] = l$l[2*l]; }",
];

/// Programs (`parse_program`): `program <k>: <Debug>` lines, after the
/// nests'.
const PROGRAMS: &[&str] = &[
    // examples/adi.rs
    "doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i,j+1] + A[i,j+2]; } }
               doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i+1,j] + A[i+2,j]; } }",
    "doall (i, 0, 3) { A[i] = A[i]; } doall (i, 0, 3) { A[i, i] = B[i]; }",
    "doall (i, 0, 3) { A[i] = A[i]; } garbage",
    "",
];

/// Malformed inputs with the error they get, each error site of the
/// parser reached at least once.
const MALFORMED: &[(&str, &str)] = &[
    (
        "doall (i, 0, 3) { A[i] = B[i] @ 2; }",
        r#"Err(ParseError { message: "unexpected character `@`", offset: 30, line: 1, column: 31 })"#,
    ),
    (
        "doall (i, 0 3) { A[i] = B[i] # 1; }",
        r#"Err(ParseError { message: "unexpected character `#`", offset: 29, line: 1, column: 30 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i] = B[i]; } é",
        r#"Err(ParseError { message: "unexpected character `Ã`", offset: 33, line: 1, column: 34 })"#,
    ),
    (
        "doall (i, 0, 340282366920938463463374607431768211456) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "integer literal out of range", offset: 13, line: 1, column: 14 })"#,
    ),
    (
        "doall (i, 0, 3 { A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected `)`, found Some(Sym('{'))", offset: 15, line: 1, column: 16 })"#,
    ),
    (
        "doall i, 0, 3) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected `(`, found Some(Ident(\"i\"))", offset: 6, line: 1, column: 7 })"#,
    ),
    (
        "doall (i, 0, 3) A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected `{`, found Some(Ident(\"A\"))", offset: 16, line: 1, column: 17 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i] = A[i]; ",
        r#"Err(ParseError { message: "expected `}`, found None", offset: 31, line: 1, column: 32 })"#,
    ),
    (
        "doall += (i, 0, 3) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected `(`, found Some(PlusEq)", offset: 6, line: 1, column: 7 })"#,
    ),
    (
        "doall l$ (i, 0, 3) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected `(`, found Some(AccSigil)", offset: 6, line: 1, column: 7 })"#,
    ),
    (
        "doall 3",
        r#"Err(ParseError { message: "expected `(`, found Some(Int(3))", offset: 6, line: 1, column: 7 })"#,
    ),
    (
        "doall (",
        r#"Err(ParseError { message: "expected loop index name", offset: 7, line: 1, column: 8 })"#,
    ),
    (
        "doall (i, 0, 3) { doseq (t, 0, 3) { A[i] = A[i]; } }",
        r#"Err(ParseError { message: "doseq must enclose all doall loops", offset: 18, line: 1, column: 19 })"#,
    ),
    (
        "doall (i, 0, 3) { doall (i, 0, 3) { A[i] = A[i]; } }",
        r#"Err(ParseError { message: "index `i` is declared by more than one loop", offset: 25, line: 1, column: 26 })"#,
    ),
    (
        "doseq (t, 0, 3) {\n  doall (t, 0, 3) { A[t] = A[t]; }\n}",
        r#"Err(ParseError { message: "index `t` is declared by more than one loop", offset: 27, line: 2, column: 10 })"#,
    ),
    (
        "doall (i, 0, M) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "unbound loop-bound parameter `M`", offset: 13, line: 1, column: 14 })"#,
    ),
    (
        "doall (i, 0, 3) { A[N] = A[i]; }",
        r#"Err(ParseError { message: "parameter `N` cannot appear in a subscript", offset: 21, line: 1, column: 22 })"#,
    ),
    (
        "doall (i, 0, 3) { A[q] = A[i]; }",
        r#"Err(ParseError { message: "unknown index `q`", offset: 21, line: 1, column: 22 })"#,
    ),
    (
        "doall (i, 0, 3) {\n  A[i] = B[2*q];\n}",
        r#"Err(ParseError { message: "unknown index `q`", offset: 32, line: 2, column: 15 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i] = A[i]; } garbage",
        r#"Err(ParseError { message: "trailing input after loop nest", offset: 33, line: 1, column: 34 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i] = A[i]; } }",
        r#"Err(ParseError { message: "trailing input after loop nest", offset: 33, line: 1, column: 34 })"#,
    ),
    (
        "",
        r#"Err(ParseError { message: "expected at least one doall loop", offset: 0, line: 1, column: 1 })"#,
    ),
    (
        "// only a comment",
        r#"Err(ParseError { message: "expected at least one doall loop", offset: 17, line: 1, column: 18 })"#,
    ),
    (
        "doseq (t, 0, 3) { }",
        r#"Err(ParseError { message: "expected at least one doall loop", offset: 18, line: 1, column: 19 })"#,
    ),
    (
        "l$ doall (i, 0, 3) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected at least one doall loop", offset: 0, line: 1, column: 1 })"#,
    ),
    (
        "doall (3, 0, 3) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected loop index name", offset: 7, line: 1, column: 8 })"#,
    ),
    (
        "doall (i, 0, 9, 0) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "loop stride must be at least 1, got 0", offset: 16, line: 1, column: 17 })"#,
    ),
    (
        "doall (i, 0, 9, -2) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "loop stride must be at least 1, got -2", offset: 16, line: 1, column: 17 })"#,
    ),
    (
        "doall (i, -x, 3) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected integer after `-`", offset: 11, line: 1, column: 12 })"#,
    ),
    (
        "doall (i, +, 3) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected loop bound", offset: 10, line: 1, column: 11 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i] B[i]; }",
        r#"Err(ParseError { message: "expected `=` or `+=`", offset: 23, line: 1, column: 24 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i] = ; }",
        r#"Err(ParseError { message: "expected term on right-hand side", offset: 25, line: 1, column: 26 })"#,
    ),
    (
        "// a comment first\ndoall (i, 0, 3) { A[i] += ; }",
        r#"Err(ParseError { message: "expected term on right-hand side", offset: 45, line: 2, column: 27 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i] = B[i] +",
        r#"Err(ParseError { message: "expected term on right-hand side", offset: 31, line: 1, column: 32 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i] = B[i] * C[i]; }",
        r#"Err(ParseError { message: "unexpected `*`", offset: 30, line: 1, column: 31 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i] = B[i] C[i]; }",
        r#"Err(ParseError { message: "expected `+`, `-` or `;`", offset: 30, line: 1, column: 31 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i] = B[i] += C[i]; }",
        r#"Err(ParseError { message: "expected `+`, `-` or `;`", offset: 30, line: 1, column: 31 })"#,
    ),
    (
        "doall (i, 0, 3) { [i] = B[i]; }",
        r#"Err(ParseError { message: "expected array name", offset: 18, line: 1, column: 19 })"#,
    ),
    (
        "doall (i, 0, 3) { l$ = B[i]; }",
        r#"Err(ParseError { message: "expected array name", offset: 21, line: 1, column: 22 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i] = 2*; }",
        r#"Err(ParseError { message: "expected array name", offset: 27, line: 1, column: 28 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i] = l B[i]; }",
        r#"Err(ParseError { message: "expected `[`, found Some(Ident(\"B\"))", offset: 27, line: 1, column: 28 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i; i] = B[i]; }",
        r#"Err(ParseError { message: "expected `,` or `]` in subscripts", offset: 21, line: 1, column: 22 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i",
        r#"Err(ParseError { message: "expected `,` or `]` in subscripts", offset: 21, line: 1, column: 22 })"#,
    ),
    (
        "doall (i, 0, 3) { A[2*3] = B[i]; }",
        r#"Err(ParseError { message: "expected index after `*`", offset: 22, line: 1, column: 23 })"#,
    ),
    (
        "doall (i, 0, 3) { A[2*",
        r#"Err(ParseError { message: "expected index after `*`", offset: 22, line: 1, column: 23 })"#,
    ),
    (
        "doall (i, 0, 3) { A[] = B[i]; }",
        r#"Err(ParseError { message: "expected subscript term", offset: 20, line: 1, column: 21 })"#,
    ),
    (
        "doall (i, 0, 3) {\n  A[170141183460469231731687303715884105727 + 170141183460469231731687303715884105727] = B[i];\n}",
        r#"Err(ParseError { message: "affine subscript term overflows i128", offset: 64, line: 2, column: 47 })"#,
    ),
    (
        "doall (i, 0, 3) { A[170141183460469231731687303715884105727*i + 170141183460469231731687303715884105727*i] = B[i]; }",
        r#"Err(ParseError { message: "affine subscript term overflows i128", offset: 64, line: 1, column: 65 })"#,
    ),
    (
        "doall (i, 4, 8, 2) { A[170141183460469231731687303715884105727*i] = B[i]; }",
        r#"Err(ParseError { message: "stride normalization overflows i128", offset: 21, line: 1, column: 22 })"#,
    ),
    (
        "doall (i, 1, 9, 2) { A[i] = B[i + 170141183460469231731687303715884105727]; }",
        r#"Err(ParseError { message: "stride normalization overflows i128", offset: 28, line: 1, column: 29 })"#,
    ),
    (
        "doall (i, 0, 7, 2) { A[170141183460469231731687303715884105727*i] = B[i]; }",
        r#"Err(ParseError { message: "stride normalization overflows i128", offset: 21, line: 1, column: 22 })"#,
    ),
    (
        "doall (i, -170141183460469231731687303715884105727, 170141183460469231731687303715884105727, 2) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "stride normalization overflows i128", offset: 7, line: 1, column: 8 })"#,
    ),
    (
        "doseq (t, -170141183460469231731687303715884105727, 170141183460469231731687303715884105727, 2) { doall (i, 0, 3) { A[i] = A[i]; } }",
        r#"Err(ParseError { message: "stride normalization overflows i128", offset: 7, line: 1, column: 8 })"#,
    ),
    (
        "doall (i, 5, 4) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "loop `i` has lower > upper", offset: 0, line: 1, column: 1 })"#,
    ),
    (
        "doall (i, 0, 3) { doall (j, 0, 3) {\n  A[i] = B[j];\n  B[i] = A[i, j];\n} }",
        r#"Err(ParseError { message: "array `A` used with 2 subscripts, previously 1", offset: 0, line: 1, column: 1 })"#,
    ),
];

/// `actual` against the pinned `expected`, reporting the first case
/// that moved instead of two walls of text.
fn assert_same_lines(actual: &str, expected: &str) {
    for (k, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "line {} moved", k + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}

#[test]
fn well_formed_nests_and_programs_parse_to_the_pinned_ir() {
    let params = params();
    let mut actual = String::new();
    for (k, src) in NESTS.iter().enumerate() {
        let got = parse_with_params(src, &params);
        assert!(got.is_ok(), "nest {k}: {got:?}");
        actual.push_str(&format!("nest {k}: {got:?}\n"));
    }
    for (k, src) in PROGRAMS.iter().enumerate() {
        let got = parse_program_with_params(src, &params);
        actual.push_str(&format!("program {k}: {got:?}\n"));
    }
    assert_same_lines(&actual, include_str!("parser_differential.expected"));
}

#[test]
fn malformed_inputs_fail_with_the_pinned_error() {
    assert!(MALFORMED.len() >= 30);
    let params = params();
    for (src, expected) in MALFORMED {
        let got = format!("{:?}", parse_with_params(src, &params));
        assert_eq!(&got, expected, "{src}");
    }
}
