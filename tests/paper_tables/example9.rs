//! E7: Example 9 — two active classes (B and C); the rectangular
//! optimum, with exact enumeration adjudicating the memo's printed
//! objective (see EXPERIMENTS.md).

use crate::{header, Table};
use alp::prelude::*;

pub fn run() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "E7",
        "Example 9: multiple uniformly intersecting sets",
    );
    let src = "doall (i, 1, 100) { doall (j, 1, 100) {
                 A[i,j] = B[i-2,j] + B[i,j-1] + C[i+j,j] + C[i+j+1,j+3];
               } }";
    let nest = parse(src).unwrap();
    let classes = classify(&nest);
    outln!(out, "classes:");
    for c in &classes {
        outln!(out, "  {} ({} refs), â = {}", c.array, c.len(), c.spread());
    }

    // Our derivation: B contributes |u| = (2,1); C contributes |u| = (2,3)
    // => traffic ≈ 4·(λ_i+1)·0 + ... => coefficients (4, 4): square tiles.
    let model = CostModel::from_nest(&nest);
    let ratio = optimal_aspect_ratio(&model).unwrap();
    outln!(
        out,
        "\nLagrange coefficients (λ_i : λ_j) = {} : {}",
        ratio[0],
        ratio[1]
    );
    outln!(
        out,
        "memo prints \"2L11L22 + 4L11 + 6L22\" (optimum 4L11 = 6L22);"
    );
    outln!(
        out,
        "our Theorem-2 evaluation gives 2L11L22 + 4L11 + 4L22 (optimum square)."
    );
    outln!(out, "exact enumeration decides:\n");

    // Exact adjudication: fix the tile area at exactly 240 and sweep the
    // aspect ratio through the divisor pairs.
    let t = Table::new(
        &mut out,
        &[
            ("tile", 10),
            ("exact footprint", 15),
            ("model", 8),
            ("memo formula", 12),
        ],
    );
    let mut best: Option<(i128, i128, usize)> = None;
    for (l11, l22) in [
        (40i128, 6i128),
        (30, 8),
        (24, 10),
        (20, 12),
        (16, 15),
        (15, 16),
        (12, 20),
        (10, 24),
        (8, 30),
        (6, 40),
    ] {
        let tile = Tile::rect(&[l11 - 1, l22 - 1]);
        let exact: usize = classes
            .iter()
            .map(|c| cumulative_footprint_exact(&tile, c))
            .sum();
        let model_cost = model.cost_rect(&[l11 - 1, l22 - 1]);
        let memo = 2 * l11 * l22 + 4 * l11 + 6 * l22;
        t.row(
            &mut out,
            &[&format!("{l11}x{l22}"), &exact, &model_cost, &memo],
        );
        match best {
            Some((_, _, e)) if e <= exact => {}
            _ => best = Some((l11, l22, exact)),
        }
    }
    let (best_l11, best_l22, _) = best.unwrap();
    outln!(
        out,
        "\nexact minimum at {best_l11}x{best_l22} (the most square divisor pair):\n\
         matches our symmetric 4L11 + 4L22 objective, not the memo's\n\
         4L11 = 6L22 (which would favor 20x12).  We conclude the memo's\n\
         \"6L22\" is a typo for \"4L22\"."
    );
    assert!(
        (best_l11, best_l22) == (16, 15) || (best_l11, best_l22) == (15, 16),
        "most-square pair wins, got {best_l11}x{best_l22}"
    );
    out
}
