//! E11: Fig. 11 / Appendix A — matrix multiply with fine-grain
//! synchronized accumulates: blocks beat rows/columns; accumulate
//! references behave as writes in the protocol.

use crate::{grid_plan, header, simulate, Table};
use alp::prelude::*;

pub fn run() -> String {
    let mut out = String::new();
    header(&mut out, "E11", "Fig. 11: matmul with l$ accumulates");
    let src = "doall (i, 1, 32) { doall (j, 1, 32) { doall (k, 1, 32) {
                 l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
               } } }";
    let nest = parse(src).unwrap();
    let p = 16usize;

    let t = Table::new(
        &mut out,
        &[
            ("partition", 20),
            ("cold", 8),
            ("coherence", 9),
            ("invalidations", 13),
            ("total", 8),
        ],
    );
    let mut block_total = 0u64;
    let mut rows_total = 0u64;
    for (name, grid) in [
        ("rows 16x1x1", vec![16i128, 1, 1]),
        ("cols 1x16x1", vec![1, 16, 1]),
        ("blocks 4x4x1", vec![4, 4, 1]),
        ("k-split 1x1x16", vec![1, 1, 16]),
    ] {
        let report = simulate(
            &grid_plan(&nest, &grid),
            MachineConfig::uniform(p),
            &UniformHome,
        );
        assert!(report.check_conservation());
        t.row(
            &mut out,
            &[
                &name,
                &report.total_cold_misses(),
                &report.total_coherence_misses(),
                &report.total_invalidations(),
                &report.total_misses(),
            ],
        );
        if name.starts_with("blocks") {
            block_total = report.total_misses();
        }
        if name.starts_with("rows") {
            rows_total = report.total_misses();
        }
    }
    assert!(
        block_total < rows_total,
        "blocks must beat rows (the §1 motivation)"
    );
    outln!(out,
        "\nblocks beat rows by {:.2}x (paper §1: \"matrix multiply distributed by\nsquare blocks has a much higher degree of reuse\")",
        rows_total as f64 / block_total as f64
    );

    // Accumulate semantics: k-split shares C lines and must invalidate.
    let ksplit = simulate(
        &grid_plan(&nest, &[1, 1, 16]),
        MachineConfig::uniform(p),
        &UniformHome,
    );
    assert!(
        ksplit.total_invalidations() > 0,
        "accumulates are writes to the protocol"
    );
    let blocks = simulate(
        &grid_plan(&nest, &[4, 4, 1]),
        MachineConfig::uniform(p),
        &UniformHome,
    );
    assert_eq!(
        blocks.total_invalidations(),
        0,
        "private C tiles never invalidate"
    );
    outln!(out,
        "k-split invalidations: {} (Appendix A: synchronizing accesses are\ntreated as writes by the coherence system) vs blocks: 0",
        ksplit.total_invalidations()
    );

    // The footprint model's block-size prediction for C/A/B classes.
    let model = CostModel::from_nest(&nest);
    outln!(out, "\nmodel cost by shape (per tile):");
    let t = Table::new(&mut out, &[("tile", 12), ("model", 10)]);
    for extents in [vec![31i128, 1, 31], vec![7, 7, 31], vec![1, 31, 31]] {
        t.row(
            &mut out,
            &[
                &format!("{}x{}x{}", extents[0] + 1, extents[1] + 1, extents[2] + 1),
                &model.cost_rect(&extents),
            ],
        );
    }
    out
}
