//! Parser differential: the exact `Debug` of what the DSL front end
//! returns — every `LoopNest` with its spans, every `ParseError` with
//! its message, offset, line and column — pinned for the nests the tree
//! ships (examples, the paper's, the goldens, the ledger generator's six
//! families) and for a table of malformed inputs that reaches each
//! error site of the parser.  The pins were taken before the tokens
//! borrowed their text from the source, and hold unchanged since the
//! tokens are lexed on demand instead of into a vector first.

mod nests;

use alp_loopir::{parse_program_with_params, parse_with_params};
use nests::{params, NESTS};

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

/// Nests whose bounds, constants, coefficients and strides sit at the
/// `i64` and `u64` edges (±2⁶³, 2⁶⁴) and at or near the `i128` ones
/// (±2¹²⁷, reached by a sum where no literal spells it), with their IR
/// — taken from the parser that built a token vector and read literals
/// with `str::parse`.
const EDGES: &[(&str, &str)] = &[
    (
        "doall (i, -9223372036854775808, 9223372036854775807) { A[9223372036854775808*i - 9223372036854775808] = B[-9223372036854775809*i + 9223372036854775807, 18446744073709551615 - i]; }",
        r#"Ok(LoopNest { seq_loops: [], loops: [LoopIndex { name: "i", lower: -9223372036854775808, upper: 9223372036854775807, span: Some(Span { start: 7, end: 8 }) }], body: [Statement { lhs: ArrayRef { array: "A", subscripts: [AffineExpr { coeffs: [9223372036854775808], constant: -9223372036854775808 }], kind: Write, span: Some(Span { start: 55, end: 101 }) }, rhs: [ArrayRef { array: "B", subscripts: [AffineExpr { coeffs: [-9223372036854775809], constant: 9223372036854775807 }, AffineExpr { coeffs: [-1], constant: 18446744073709551615 }], kind: Read, span: Some(Span { start: 104, end: 177 }) }], span: Some(Span { start: 55, end: 178 }) }] })"#,
    ),
    (
        "doall (i, 18446744073709551615, 18446744073709551616) { doall (j, -18446744073709551616, -18446744073709551615) { A[18446744073709551616*i, 10000000000000000000*j - 9999999999999999999] = B[i - 170141183460469231731687303715884105727 - 1, -170141183460469231731687303715884105727*j + 170141183460469231731687303715884105727]; } }",
        r#"Ok(LoopNest { seq_loops: [], loops: [LoopIndex { name: "i", lower: 18446744073709551615, upper: 18446744073709551616, span: Some(Span { start: 7, end: 8 }) }, LoopIndex { name: "j", lower: -18446744073709551616, upper: -18446744073709551615, span: Some(Span { start: 63, end: 64 }) }], body: [Statement { lhs: ArrayRef { array: "A", subscripts: [AffineExpr { coeffs: [18446744073709551616, 0], constant: 0 }, AffineExpr { coeffs: [0, 10000000000000000000], constant: -9999999999999999999 }], kind: Write, span: Some(Span { start: 114, end: 185 }) }, rhs: [ArrayRef { array: "B", subscripts: [AffineExpr { coeffs: [1, 0], constant: -170141183460469231731687303715884105728 }, AffineExpr { coeffs: [0, -170141183460469231731687303715884105727], constant: 170141183460469231731687303715884105727 }], kind: Read, span: Some(Span { start: 188, end: 324 }) }], span: Some(Span { start: 114, end: 325 }) }] })"#,
    ),
    (
        "doseq (t, -9223372036854775808, 9223372036854775807, 18446744073709551615) { doall (i, 0, 170141183460469231731687303715884105727, 9223372036854775808) { doall (j, 0, 1, 170141183460469231731687303715884105727) { l$C[9223372036854775807*i - 99999999999999999999999999999999999999, j] += B[-i + 100000000000000000000000000000000000000, -j]; } } }",
        r#"Ok(LoopNest { seq_loops: [LoopIndex { name: "t", lower: 0, upper: 1, span: Some(Span { start: 7, end: 8 }) }], loops: [LoopIndex { name: "i", lower: 0, upper: 18446744073709551615, span: Some(Span { start: 84, end: 85 }) }, LoopIndex { name: "j", lower: 0, upper: 0, span: Some(Span { start: 161, end: 162 }) }], body: [Statement { lhs: ArrayRef { array: "C", subscripts: [AffineExpr { coeffs: [85070591730234615856620279821087277056, 0], constant: -99999999999999999999999999999999999999 }, AffineExpr { coeffs: [0, 170141183460469231731687303715884105727], constant: 0 }], kind: Accumulate, span: Some(Span { start: 213, end: 283 }) }, rhs: [ArrayRef { array: "C", subscripts: [AffineExpr { coeffs: [85070591730234615856620279821087277056, 0], constant: -99999999999999999999999999999999999999 }, AffineExpr { coeffs: [0, 170141183460469231731687303715884105727], constant: 0 }], kind: Accumulate, span: Some(Span { start: 213, end: 283 }) }, ArrayRef { array: "B", subscripts: [AffineExpr { coeffs: [-9223372036854775808, 0], constant: 100000000000000000000000000000000000000 }, AffineExpr { coeffs: [0, -170141183460469231731687303715884105727], constant: 0 }], kind: Read, span: Some(Span { start: 287, end: 338 }) }], span: Some(Span { start: 213, end: 339 }) }] })"#,
    ),
    (
        "doall (i, 0, 1) { A[-170141183460469231731687303715884105727*i - i] = B[-9223372036854775808*i - 9223372036854775808, 9223372036854775808*i + 18446744073709551616]; }",
        r#"Ok(LoopNest { seq_loops: [], loops: [LoopIndex { name: "i", lower: 0, upper: 1, span: Some(Span { start: 7, end: 8 }) }], body: [Statement { lhs: ArrayRef { array: "A", subscripts: [AffineExpr { coeffs: [-170141183460469231731687303715884105728], constant: 0 }], kind: Write, span: Some(Span { start: 18, end: 67 }) }, rhs: [ArrayRef { array: "B", subscripts: [AffineExpr { coeffs: [-9223372036854775808], constant: -9223372036854775808 }, AffineExpr { coeffs: [9223372036854775808], constant: 18446744073709551616 }], kind: Read, span: Some(Span { start: 70, end: 163 }) }], span: Some(Span { start: 18, end: 164 }) }] })"#,
    ),
    (
        "doall (i, 170141183460469231731687303715884105726, 170141183460469231731687303715884105727) { doall (j, -170141183460469231731687303715884105727, -170141183460469231731687303715884105726) { A[i, j] = A[i - 1, j + 1] + B[-1 - 170141183460469231731687303715884105727, 170141183460469231731687303715884105727 - 1]; } }",
        r#"Ok(LoopNest { seq_loops: [], loops: [LoopIndex { name: "i", lower: 170141183460469231731687303715884105726, upper: 170141183460469231731687303715884105727, span: Some(Span { start: 7, end: 8 }) }, LoopIndex { name: "j", lower: -170141183460469231731687303715884105727, upper: -170141183460469231731687303715884105726, span: Some(Span { start: 101, end: 102 }) }], body: [Statement { lhs: ArrayRef { array: "A", subscripts: [AffineExpr { coeffs: [1, 0], constant: 0 }, AffineExpr { coeffs: [0, 1], constant: 0 }], kind: Write, span: Some(Span { start: 190, end: 197 }) }, rhs: [ArrayRef { array: "A", subscripts: [AffineExpr { coeffs: [1, 0], constant: -1 }, AffineExpr { coeffs: [0, 1], constant: 1 }], kind: Read, span: Some(Span { start: 200, end: 215 }) }, ArrayRef { array: "B", subscripts: [AffineExpr { coeffs: [0, 0], constant: -170141183460469231731687303715884105728 }, AffineExpr { coeffs: [0, 0], constant: 170141183460469231731687303715884105726 }], kind: Read, span: Some(Span { start: 218, end: 310 }) }], span: Some(Span { start: 190, end: 311 }) }] })"#,
    ),
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
        r#"Err(ParseError { message: "unexpected character `é`", offset: 33, line: 1, column: 34 })"#,
    ),
    (
        "doall (i, 0, 340282366920938463463374607431768211456) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "integer literal out of range", offset: 13, line: 1, column: 14 })"#,
    ),
    (
        "doall (i, 0, 3 { A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected `)`, found `{`", offset: 15, line: 1, column: 16 })"#,
    ),
    (
        "doall i, 0, 3) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected `(`, found `i`", offset: 6, line: 1, column: 7 })"#,
    ),
    (
        "doall (i, 0, 3) A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected `{`, found `A`", offset: 16, line: 1, column: 17 })"#,
    ),
    (
        "doall (i, 0, 3) { A[i] = A[i]; ",
        r#"Err(ParseError { message: "expected `}`, found end of input", offset: 31, line: 1, column: 32 })"#,
    ),
    (
        "doall += (i, 0, 3) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected `(`, found `+=`", offset: 6, line: 1, column: 7 })"#,
    ),
    (
        "doall l$ (i, 0, 3) { A[i] = A[i]; }",
        r#"Err(ParseError { message: "expected `(`, found `l$`", offset: 6, line: 1, column: 7 })"#,
    ),
    (
        "doall 3",
        r#"Err(ParseError { message: "expected `(`, found `3`", offset: 6, line: 1, column: 7 })"#,
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
        r#"Err(ParseError { message: "expected `[`, found `B`", offset: 27, line: 1, column: 28 })"#,
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

#[test]
fn integer_edges_parse_to_the_pinned_ir() {
    let params = params();
    for (src, expected) in EDGES {
        let got = format!("{:?}", parse_with_params(src, &params));
        assert_eq!(&got, expected, "{src}");
    }
}
