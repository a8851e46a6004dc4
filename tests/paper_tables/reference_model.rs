//! E1 + E14: the affine reference model (Example 1) and the uniformly
//! intersecting classification of Appendix B.

use crate::{header, Table};
use alp::prelude::*;
use alp_footprint::class::{intersecting, uniformly_generated, uniformly_intersecting};

pub fn run() -> String {
    let mut out = String::new();
    header(&mut out, "E1", "reference model: Example 1");
    let nest = parse(
        "doall (i1, 0, 9) { doall (i2, 0, 9) { doall (i3, 0, 9) {
           A[i3+2, 5, i2-1, 4] = A[i3+2, 5, i2-1, 4];
         } } }",
    )
    .unwrap();
    let r = &nest.body[0].lhs;
    outln!(
        out,
        "reference A(i3+2, 5, i2-1, 4) in a triply nested loop:"
    );
    outln!(out, "G =\n{}", r.g_matrix());
    outln!(out, "a = {}", r.offset());
    let (red, kept) = r.drop_constant_subscripts();
    outln!(
        out,
        "zero columns dropped -> effective dimension {} (kept subscripts {:?})\n",
        red.dim(),
        kept
    );

    header(
        &mut out,
        "E14",
        "Appendix B: uniformly intersecting classification",
    );
    let cases: Vec<(&str, &str, bool)> = vec![
        // (source with exactly two refs, description, expected uniformly intersecting)
        (
            "doall (i, 0, 9) { doall (j, 0, 9) { A[i,j] = A[i+1,j-3]; } }",
            "A[i,j] vs A[i+1,j-3]",
            true,
        ),
        (
            "doall (i, 0, 9) { doall (j, 0, 9) { A[i,j] = A[i,j+4]; } }",
            "A[i,j] vs A[i,j+4]",
            true,
        ),
        (
            "doall (i, 0, 9) { doall (j, 0, 9) { A[i,j] = A[2*i,j]; } }",
            "A[i,j] vs A[2i,j]",
            false,
        ),
        (
            "doall (i, 0, 9) { doall (j, 0, 9) { A[i,j] = A[2*i,2*j]; } }",
            "A[i,j] vs A[2i,2j]",
            false,
        ),
        (
            "doall (j, 0, 9) { A[j,2,4] = A[j,3,4]; }",
            "A[j,2,4] vs A[j,3,4]",
            false,
        ),
        (
            "doall (i, 0, 9) { A[2*i] = A[2*i+1]; }",
            "A[2i] vs A[2i+1]",
            false,
        ),
        (
            "doall (i, 0, 9) { A[i+2,2*i+4] = A[i+3,2*i+8]; }",
            "A[i+2,2i+4] vs A[i+3,2i+8]",
            false,
        ),
        (
            "doall (i, 0, 9) { doall (j, 0, 9) { A[i,j] = B[i,j]; } }",
            "A[i,j] vs B[i,j]",
            false,
        ),
    ];
    let t = Table::new(
        &mut out,
        &[
            ("pair", 28),
            ("unif.gen", 9),
            ("intersect", 9),
            ("unif.int", 9),
            ("paper", 6),
            ("ok", 3),
        ],
    );
    for (src, desc, expected) in cases {
        let nest = parse(src).unwrap();
        let refs = nest.all_refs();
        let (a, b) = (refs[0], refs[1]);
        let ug = uniformly_generated(a, b);
        let ix = intersecting(a, b);
        let ui = uniformly_intersecting(a, b);
        t.row(
            &mut out,
            &[
                &desc,
                &ug,
                &ix,
                &ui,
                &expected,
                &if ui == expected { "yes" } else { "NO" },
            ],
        );
        assert_eq!(ui, expected, "{desc}");
    }
    outln!(out, "\nall classifications match Appendix B");
    out
}
