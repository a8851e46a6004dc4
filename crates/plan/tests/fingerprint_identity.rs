//! Fingerprint identity: the fingerprint is the cache key, the journal
//! key and the integrity check of every saved plan, so its value for a
//! given nest may never move.  Each nest below has its canonical text
//! and its `fingerprint_hex` pinned as literals (taken before the
//! fingerprint streamed the rendering into the hash instead of hashing
//! a rendered `String`), and the streamed hash must equal FNV-1a over
//! the canonical text.

use alp_loopir::{parse, AccessKind, AffineExpr, ArrayRef, LoopIndex, LoopNest, Statement};
use alp_plan::{canonical_source, fingerprint, fingerprint_hex, fnv1a64};

/// Nests that have no DSL spelling, built in memory: a statement with
/// an empty right-hand side (plain and accumulating), and a nest with
/// no statements at all.
fn built() -> Vec<LoopNest> {
    let a = |kind| ArrayRef::new("A", vec![AffineExpr::index(1, 0)], kind);
    let one = |body| LoopNest::new(vec![LoopIndex::new("i", 0, 9)], body).expect("valid");
    vec![
        one(vec![Statement::new(a(AccessKind::Write), vec![])]),
        one(vec![Statement::new(a(AccessKind::Accumulate), vec![])]),
        LoopNest::with_seq(
            vec![LoopIndex::new("t", -1, 1)],
            vec![LoopIndex::new("x", 0, 1), LoopIndex::new("y", 5, 7)],
            vec![],
        )
        .expect("valid"),
    ]
}

/// DSL sources: depth 1–3, `doseq` wrappers, strided headers, `l$`
/// accumulates and `+=`, negative and non-unit coefficients,
/// constant-only subscripts, several statements, `i128`-wide bounds.
const SOURCES: &[&str] = &[
    "doall (i, 1, 8) { A[i] = B[i]; }",
    "doall (i, 101, 200) { doall (j, 1, 100) { A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]; } }",
    "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
       A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]; } } }",
    "doseq (t, 1, 4) { doseq (u, 0, 1) { doall (x, 1, 64) { doall (y, 1, 64) {
       A[x,y] = A[x-1,y] + A[x+1,y] + A[x,y-1] + A[x,y+1]; } } } }",
    "doall (i, 5, 50, 3) { doall (j, 2, 19) { A[i,j] = B[i,j] + B[i+3,j+2]; } }",
    "doseq (t, 1, 10, 4) { doall (i, 3, 17, 2) { doall (j, 1, 10, 3) { A[i, j] = B[i+j, i-j]; } } }",
    "doall (i, 1, 8) { doall (j, 1, 8) { doall (k, 1, 8) { l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j]; } } }",
    "doall (i, 0, 3) { C[i] += A[i]; }",
    "doall (i, 0, 3) { l$C[i] += l$C[i] + A[i]; C[i] += C[i]; }",
    "doall (i, 0, 3) { doall (j, 0, 3) {
       A[-i - 2*j + 3, -4*i] = B[j - 2*i, 4*j - 1] + B[-j, 3*i + 2*j] + 2*B[i, j]; } }",
    "doall (i1, 0, 9) { doall (i2, 0, 9) { doall (i3, 0, 9) {
       A[i3+2, 5, i2-1, 4] = A[i3+2, 5, i2-1, 4]; } } }",
    "doseq (t, 0, 3) { doall (i, 0, 7) { l$A[0] = l$A[0] + B[i] + D[-7, 0]; } }",
    "doall (i, 0, 3) { A[i] = B[i]; C[i] = B[i+1] + 7; }",
    "doall (i, -170141183460469231731687303715884105727, 170141183460469231731687303715884105727) {
       A[170141183460469231731687303715884105727*i - 170141183460469231731687303715884105727] = A[i]; }",
];

/// `(canonical_source, fingerprint_hex)` of each built nest, then of
/// each source, in order.
const PINNED: &[(&str, &str)] = &[
    (
        "doall (i0, 0, 9) {\n  A[i0] = 0;\n}\n",
        "b9f66dc0365fe5ea",
    ),
    (
        "doall (i0, 0, 9) {\n  l$A[i0] += 0;\n}\n",
        "6158092473315baf",
    ),
    (
        "doseq (s0, -1, 1) {\n  doall (i0, 0, 1) {\n    doall (i1, 5, 7) {\n    }\n  }\n}\n",
        "4d6894be997e4dfe",
    ),
    (
        "doall (i0, 1, 8) {\n  A[i0] = B[i0];\n}\n",
        "5dc32b6fafb4b18d",
    ),
    (
        "doall (i0, 101, 200) {\n  doall (i1, 1, 100) {\n    A[i0, i1] = B[i0+i1, i0-i1-1] + B[i0+i1+4, i0-i1+3];\n  }\n}\n",
        "a87b2e1b0cd77316",
    ),
    (
        "doall (i0, 1, 64) {\n  doall (i1, 1, 64) {\n    doall (i2, 1, 64) {\n      A[i0, i1, i2] = B[i0-1, i1, i2+1] + B[i0, i1+1, i2] + B[i0+1, i1-2, i2-3];\n    }\n  }\n}\n",
        "081cfc8f02be1aaf",
    ),
    (
        "doseq (s0, 1, 4) {\n  doseq (s1, 0, 1) {\n    doall (i0, 1, 64) {\n      doall (i1, 1, 64) {\n        A[i0, i1] = A[i0-1, i1] + A[i0+1, i1] + A[i0, i1-1] + A[i0, i1+1];\n      }\n    }\n  }\n}\n",
        "4e319b8ccbf5c9ca",
    ),
    (
        "doall (i0, 0, 15) {\n  doall (i1, 2, 19) {\n    A[3*i0+5, i1] = B[3*i0+5, i1] + B[3*i0+8, i1+2];\n  }\n}\n",
        "f0fa1dac42121e16",
    ),
    (
        "doseq (s0, 0, 2) {\n  doall (i0, 0, 7) {\n    doall (i1, 0, 3) {\n      A[2*i0+3, 3*i1+1] = B[2*i0+3*i1+4, 2*i0-3*i1+2];\n    }\n  }\n}\n",
        "5ae3b71b2f3ea65b",
    ),
    (
        "doall (i0, 1, 8) {\n  doall (i1, 1, 8) {\n    doall (i2, 1, 8) {\n      l$C[i0, i1] += l$C[i0, i1] + A[i0, i2] + B[i2, i1];\n    }\n  }\n}\n",
        "d98f4f1c2f9c280a",
    ),
    (
        "doall (i0, 0, 3) {\n  l$C[i0] += l$C[i0] + A[i0];\n}\n",
        "7b6824f80f80df74",
    ),
    (
        "doall (i0, 0, 3) {\n  l$C[i0] += l$C[i0] + A[i0];\n  l$C[i0] += l$C[i0] + C[i0];\n}\n",
        "447cd832baa3d88a",
    ),
    (
        "doall (i0, 0, 3) {\n  doall (i1, 0, 3) {\n    A[-i0-2*i1+3, -4*i0] = B[-2*i0+i1, 4*i1-1] + B[-i1, 3*i0+2*i1] + B[i0, i1];\n  }\n}\n",
        "5ec32a1ea3077550",
    ),
    (
        "doall (i0, 0, 9) {\n  doall (i1, 0, 9) {\n    doall (i2, 0, 9) {\n      A[i2+2, 5, i1-1, 4] = A[i2+2, 5, i1-1, 4];\n    }\n  }\n}\n",
        "0c4fd5b033702103",
    ),
    (
        "doseq (s0, 0, 3) {\n  doall (i0, 0, 7) {\n    l$A[0] += l$A[0] + B[i0] + D[-7, 0];\n  }\n}\n",
        "a4fd46cd686a1785",
    ),
    (
        "doall (i0, 0, 3) {\n  A[i0] = B[i0];\n  C[i0] = B[i0+1];\n}\n",
        "752dda327b9769d8",
    ),
    (
        "doall (i0, -170141183460469231731687303715884105727, 170141183460469231731687303715884105727) {\n  A[170141183460469231731687303715884105727*i0-170141183460469231731687303715884105727] = A[i0];\n}\n",
        "ad80e9dcc24486af",
    ),
];

fn nests() -> Vec<LoopNest> {
    let parsed = SOURCES.iter().map(|src| parse(src).expect("parses"));
    built().into_iter().chain(parsed).collect()
}

#[test]
fn canonical_text_and_fingerprint_are_the_pinned_literals() {
    let nests = nests();
    assert_eq!(nests.len(), PINNED.len());
    for (nest, (canonical, hex)) in nests.iter().zip(PINNED) {
        assert_eq!(&canonical_source(nest), canonical);
        assert_eq!(&fingerprint_hex(nest), hex, "{canonical}");
    }
}

#[test]
fn the_fingerprint_is_fnv1a_over_the_canonical_text() {
    for nest in nests() {
        let canonical = canonical_source(&nest);
        assert_eq!(fingerprint(&nest), fnv1a64(canonical.as_bytes()));
        assert_eq!(
            fingerprint_hex(&nest),
            format!("{:016x}", fingerprint(&nest))
        );
    }
}

#[test]
fn the_goldens_keep_the_fingerprints_their_plans_record() {
    for (alp, plan) in [
        (
            include_str!("../../../tests/golden/example2.alp"),
            include_str!("../../../tests/golden/example2.v4.plan.json"),
        ),
        (
            include_str!("../../../tests/golden/example8.alp"),
            include_str!("../../../tests/golden/example8.plan.json"),
        ),
        (
            include_str!("../../../tests/golden/example8.alp"),
            include_str!("../../../tests/golden/example8.v1.plan.json"),
        ),
        (
            include_str!("../../../tests/golden/example8.alp"),
            include_str!("../../../tests/golden/example8.v2.plan.json"),
        ),
    ] {
        let hex = fingerprint_hex(&parse(alp).expect("golden nest parses"));
        assert!(
            plan.contains(&format!("\"fingerprint\": \"{hex}\"")),
            "{hex}"
        );
    }
}
