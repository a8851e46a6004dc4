//! E8: Example 10 — nonsingular-but-not-unimodular G, singular G with
//! column selection, a reference that is uniformly generated but not
//! intersecting, and an optimum beyond communication-free methods.

use crate::{grid_plan, header, simulate, Table};
use alp::prelude::*;

pub fn run() -> String {
    let mut out = String::new();
    header(&mut out, "E8", "Example 10: the general case");
    let src = "doall (i, 1, 60) { doall (j, 1, 60) {
                 A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                        + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1];
               } }";
    let nest = parse(src).unwrap();
    let classes = classify(&nest);
    outln!(
        out,
        "classes found: {} (paper: B pair, C pair, C singleton, A singleton)",
        classes.len()
    );
    for c in &classes {
        outln!(
            out,
            "  {} ({} refs): rank {} / {} rows, â = {}",
            c.array,
            c.len(),
            c.g.rank(),
            c.g.rows(),
            c.spread()
        );
    }
    assert_eq!(classes.len(), 4);

    // Paper's closed forms for the two active classes.
    let b = classes.iter().find(|c| c.array == "B").unwrap();
    let c_pair = classes
        .iter()
        .find(|c| c.array == "C" && c.len() == 2)
        .unwrap();
    outln!(out, "\nclosed forms at tile (L_i, L_j) = (9, 5):");
    let (li, lj) = (9i128, 5i128);
    let b_model = cumulative_footprint_rect(&[li, lj], b);
    let c_model = cumulative_footprint_rect(&[li, lj], c_pair);
    outln!(
        out,
        "  B: model {} vs paper (Li+1)(Lj+1)+3(Lj+1)+(Li+1) = {}",
        b_model,
        (li + 1) * (lj + 1) + 3 * (lj + 1) + (li + 1)
    );
    outln!(
        out,
        "  C: model {} vs paper (Li+1)(Lj+1)+(Li+1) = {}",
        c_model,
        (li + 1) * (lj + 1) + (li + 1)
    );
    assert_eq!(
        b_model,
        Rat::int((li + 1) * (lj + 1) + 3 * (lj + 1) + (li + 1))
    );
    assert_eq!(c_model, Rat::int((li + 1) * (lj + 1) + (li + 1)));

    // Exact enumeration cross-check for B (non-unimodular G!).
    outln!(
        out,
        "\nexact vs Theorem 4 for the B class (G nonsingular, det ±2):"
    );
    let t = Table::new(&mut out, &[("tile", 8), ("thm4", 7), ("exact", 7)]);
    for (l1, l2) in [(9i128, 5i128), (5, 9), (12, 12), (20, 6)] {
        let thm4 = cumulative_footprint_rect(&[l1, l2], b);
        let tile = Tile::rect(&[l1, l2]);
        let exact = cumulative_footprint_exact(&tile, b);
        t.row(
            &mut out,
            &[&format!("{}x{}", l1 + 1, l2 + 1), &thm4, &exact],
        );
        // Theorem 4 uses the bounded-lattice count (Lemma 3 approx):
        // it matches the exact union up to the dropped corner term.
        let diff = thm4 - Rat::int(exact as i128);
        assert!(diff.abs() <= Rat::int(3), "thm4 {thm4} exact {exact}");
    }

    // The optimization: minimize 2(L_i+1) + 3(L_j+1) (after dropping
    // constants) subject to fixed area.
    let model = CostModel::from_nest(&nest);
    let ratio = optimal_aspect_ratio(&model).unwrap();
    outln!(
        out,
        "\naspect ratio λ_i : λ_j = {} : {} (paper's optimality condition 2L_i = 3L_j + 1)",
        ratio[0],
        ratio[1]
    );
    assert_eq!(ratio, vec![Rat::int(3), Rat::int(2)]);

    // No communication-free partition exists — the case [7] cannot
    // handle — yet the optimizer still returns the traffic-minimal
    // rectangle, validated on the machine.
    outln!(
        out,
        "\ncommunication-free? {}",
        is_communication_free(&nest)
    );
    assert!(!is_communication_free(&nest));

    outln!(out, "\nshape sweep on the machine (P = 36, 60x60 space):");
    let t = Table::new(
        &mut out,
        &[("grid", 10), ("tile", 8), ("sim misses/tile", 15)],
    );
    let mut best: Option<(Vec<i128>, u64)> = None;
    for grid in [
        vec![36i128, 1],
        vec![12, 3],
        vec![6, 6],
        vec![4, 9],
        vec![3, 12],
        vec![1, 36],
    ] {
        let extents: Vec<i128> = grid.iter().map(|&g| 60 / g - 1).collect();
        let report = simulate(
            &grid_plan(&nest, &grid),
            MachineConfig::uniform(36),
            &UniformHome,
        );
        let per_tile = report.total_cold_misses() / 36;
        t.row(
            &mut out,
            &[
                &format!("{:?}", grid),
                &format!("{}x{}", extents[0] + 1, extents[1] + 1),
                &per_tile,
            ],
        );
        match &best {
            Some((_, m)) if *m <= per_tile => {}
            _ => best = Some((grid.clone(), per_tile)),
        }
    }
    let (best_grid, _) = best.unwrap();
    let ours = partition_rect(&nest, 36);
    outln!(
        out,
        "\nmachine minimum at {best_grid:?}; partition_rect picks {:?}",
        ours.proc_grid
    );
    assert_eq!(
        best_grid, ours.proc_grid,
        "the optimizer's grid is the machine's best"
    );
    out
}
