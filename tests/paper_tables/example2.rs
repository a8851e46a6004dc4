//! E2: Example 2 / Fig. 3 — partition a (strips) vs partition b
//! (blocks) on 100 processors.
//!
//! Paper: 104 vs 140 cache misses per tile (B-class footprints), and
//! partition a has zero coherence traffic.

use crate::{grid_plan, header, simulate, Table};
use alp::prelude::*;

pub fn run() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "E2",
        "Example 2 / Fig. 3: strips vs blocks, 100 processors",
    );
    let src = "doall (i, 101, 200) { doall (j, 1, 100) {
                 A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
               } }";
    let nest = parse(src).unwrap();
    let model = CostModel::from_nest(&nest);

    let t = Table::new(
        &mut out,
        &[
            ("partition", 18),
            ("model/tile", 10),
            ("sim/tile", 9),
            ("B-class", 8),
            ("paper", 6),
            ("invalidations", 13),
            ("coherence", 9),
        ],
    );
    for (name, grid, paper) in [
        ("a: strips 1x100", vec![1i128, 100], 104i128),
        ("b: blocks 10x10", vec![10, 10], 140),
    ] {
        let extents: Vec<i128> = grid
            .iter()
            .zip([100i128, 100])
            .map(|(&g, n)| (n + g - 1) / g - 1)
            .collect();
        let modeled = model.cost_rect(&extents);
        let plan = grid_plan(&nest, &grid);
        let report = simulate(&plan, MachineConfig::uniform(100), &UniformHome);
        let per_tile = report.total_cold_misses() / 100;
        let b_class = per_tile as i128 - 100;
        t.row(
            &mut out,
            &[
                &name,
                &modeled,
                &per_tile,
                &b_class,
                &paper,
                &report.total_invalidations(),
                &report.total_coherence_misses(),
            ],
        );
        assert_eq!(b_class, paper, "per-tile B-class misses match the paper");
    }

    // The framework's own choice.
    let part = partition_rect(&nest, 100);
    outln!(
        out,
        "\npartition_rect picks grid {:?} (the paper's partition a); \
         communication-free normals: {:?}",
        part.proc_grid,
        communication_free_normals(&nest)
            .iter()
            .map(|h| h.to_string())
            .collect::<Vec<_>>()
    );

    // Doseq-wrapped variant: partition a stays coherence-free, partition
    // b pays every sweep.
    let seq_src = "doseq (t, 1, 3) { doall (i, 101, 200) { doall (j, 1, 100) {
                     A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
                   } } }";
    let seq = parse(seq_src).unwrap();
    outln!(out, "\nwith 3 repetitions (Fig. 9 pattern):");
    let t = Table::new(
        &mut out,
        &[("partition", 18), ("total misses", 12), ("coherence", 9)],
    );
    for (name, grid) in [
        ("a: strips 1x100", vec![1i128, 100]),
        ("b: blocks 10x10", vec![10, 10]),
    ] {
        let report = simulate(
            &grid_plan(&seq, &grid),
            MachineConfig::uniform(100),
            &UniformHome,
        );
        t.row(
            &mut out,
            &[
                &name,
                &report.total_misses(),
                &report.total_coherence_misses(),
            ],
        );
    }
    out
}
