//! E5: §3.5 / Figs. 7-8 — the cumulative footprint of the uniformly
//! intersecting pair `B[i+j,j]`, `B[i+j+1,j+2]`: Theorem 2's determinant
//! sum vs exact enumeration.

use crate::{header, rel_err, Table};
use alp::prelude::*;

pub fn run() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "E5",
        "cumulative footprint (Theorem 2) vs exact enumeration",
    );
    let nest = parse(
        "doall (i, 0, 99) { doall (j, 0, 99) {
           A[i,j] = B[i+j,j] + B[i+j+1,j+2];
         } }",
    )
    .unwrap();
    let classes = classify(&nest);
    let b = classes.iter().find(|c| c.array == "B").unwrap();
    outln!(out, "class B: spread â = {}\n", b.spread());

    let t = Table::new(
        &mut out,
        &[("tile L (rows)", 26), ("thm2", 7), ("exact", 7), ("err", 7)],
    );
    let tiles: Vec<IMat> = vec![
        IMat::from_rows(&[&[10, 4], &[2, 8]]),
        IMat::from_rows(&[&[8, 0], &[0, 8]]),
        IMat::from_rows(&[&[12, 12], &[6, 0]]),
        IMat::from_rows(&[&[16, 4], &[0, 4]]),
        IMat::from_rows(&[&[5, 5], &[5, -5]]),
    ];
    let mut max_err = 0.0f64;
    for l in tiles {
        let tile = Tile::general(l.clone());
        let thm2 = cumulative_footprint_general(&tile, b);
        let exact = cumulative_footprint_exact(&tile, b);
        let e = rel_err(thm2 as f64, exact as f64);
        max_err = max_err.max(e);
        t.row(
            &mut out,
            &[
                &format!("{:?},{:?}", l.row(0).0, l.row(1).0),
                &thm2,
                &exact,
                &format!("{:.1}%", 100.0 * e),
            ],
        );
    }
    outln!(out, "\nmax relative error {:.1}% — the paper's approximation is \"reasonable\nif the constant terms are small compared to the tile size\" (§3.5)", 100.0 * max_err);
    assert!(
        max_err < 0.35,
        "Theorem 2 should stay in the right ballpark"
    );

    // Error shrinks as tiles grow (the asymptotic claim).
    outln!(out, "\nscaling: relative error vs tile size (square tiles)");
    let t = Table::new(
        &mut out,
        &[("side", 6), ("thm2", 8), ("exact", 8), ("err", 7)],
    );
    for side in [4i128, 8, 16, 32, 64] {
        let tile = Tile::rect(&[side, side]);
        let thm2 = cumulative_footprint_general(&tile, b);
        let exact = cumulative_footprint_exact(&tile, b);
        t.row(
            &mut out,
            &[
                &side,
                &thm2,
                &exact,
                &format!("{:.1}%", 100.0 * rel_err(thm2 as f64, exact as f64)),
            ],
        );
    }
    out
}
