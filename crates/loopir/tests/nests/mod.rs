//! The well-formed nests the DSL front end's tests share, with the
//! loop-bound parameters they name.

use std::collections::HashMap;

/// The parameters `N` and `S` of the nests below.
pub fn params() -> HashMap<String, i128> {
    [("N".to_string(), 8), ("S".to_string(), 2)].into()
}

/// Well-formed nests; `parser_differential.expected` holds their IR,
/// one `nest <k>: <Debug>` line each, in this order, and the DSL
/// mutation harness (`crates/plan/tests/dsl_mutation.rs`) mutates them.
pub const NESTS: &[&str] = &[
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
