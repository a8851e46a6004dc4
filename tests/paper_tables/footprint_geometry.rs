//! E4: Figs. 5 & 6 / Example 6 — the footprint of a skewed tile is the
//! parallelepiped `LG`, with size `|det LG| = L1·L2` plus boundary.

use crate::{header, Table};
use alp::prelude::*;

pub fn run() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "E4",
        "Example 6 / Figs. 5-6: footprint geometry of a skewed tile",
    );
    let nest = parse(
        "doall (i, 0, 99) { doall (j, 0, 99) {
           A[i,j] = B[i+j,j] + B[i+j+1,j+2];
         } }",
    )
    .unwrap();
    let classes = classify(&nest);
    let b = classes.iter().find(|c| c.array == "B").unwrap();
    outln!(out, "G =\n{}", b.g);

    let t = Table::new(
        &mut out,
        &[
            ("L1", 4),
            ("L2", 4),
            ("|det LG|", 9),
            ("paper L1L2+L1+L2", 16),
            ("exact points", 12),
        ],
    );
    for (l1, l2) in [(4i128, 3i128), (5, 4), (8, 2), (6, 6), (10, 3)] {
        let tile = Tile::general(IMat::from_rows(&[&[l1, l1], &[l2, 0]]));
        let det = single_footprint_estimate(&tile, &b.g);
        let exact = single_footprint_exact(&tile, &b.g);
        t.row(&mut out, &[&l1, &l2, &det, &(l1 * l2 + l1 + l2), &exact]);
        assert_eq!(det, l1 * l2);
        // Paper's count drops the closed-corner +1.
        assert_eq!(exact as i128, l1 * l2 + l1 + l2 + 1);
    }
    outln!(
        out,
        "\nexact = paper's count + 1 (the paper drops the closed corner point);"
    );
    outln!(out, "the |det LG| estimate (Eq. 2) is the area term alone.");

    // Theorem 1's caveat: for non-unimodular G not every point of LG is
    // touched.
    outln!(
        out,
        "\nTheorem 1 caveat (A[2i]): S(LG) overestimates for non-unimodular G:"
    );
    let nest2 = parse("doall (i, 0, 9) { A[2*i] = A[2*i]; }").unwrap();
    let g2 = nest2.body[0].lhs.g_matrix();
    let tile2 = Tile::rect(&[9]);
    outln!(
        out,
        "  tile 0..=9: |det LG| = {}, touched = {} (density 1/2: Smith index {})",
        single_footprint_estimate(&tile2, g2),
        single_footprint_exact(&tile2, g2),
        alp::linalg::smith_normal_form(g2)
            .invariants
            .iter()
            .product::<i128>()
    );
    out
}
