//! E15 (extension): the effect of larger cache lines, which §2.2 says
//! "can be included as suggested in \[6\]" — spatial locality rewards
//! tiles contiguous in the fastest-varying dimension, and false sharing
//! punishes tiles that cut across lines.

use crate::{grid_plan, header, simulate, Table};
use alp::prelude::*;

pub fn run() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "E15",
        "cache-line size: spatial locality vs false sharing",
    );
    // Row-major arrays: the j dimension is contiguous.
    let src = "doseq (t, 1, 2) {
                 doall (i, 0, 63) { doall (j, 0, 63) {
                   A[i,j] = A[i,j] + B[i,j];
                 } }
               }";
    let nest = parse(src).unwrap();
    let p = 16usize;

    outln!(
        out,
        "per-partition misses as the line grows (64x64, P = 16, 2 sweeps):\n"
    );
    let t = Table::new(
        &mut out,
        &[
            ("grid", 10),
            ("line", 5),
            ("cold", 7),
            ("coherence", 9),
            ("invalidations", 13),
            ("total", 7),
        ],
    );
    let mut summary: Vec<(String, u64, u64)> = Vec::new();
    for grid in [vec![16i128, 1], vec![4, 4], vec![1, 16]] {
        let plan = grid_plan(&nest, &grid);
        for line in [1u64, 4, 16] {
            let report = simulate(
                &plan,
                MachineConfig::uniform(p).with_line_size(line),
                &UniformHome,
            );
            assert!(report.check_conservation());
            t.row(
                &mut out,
                &[
                    &format!("{:?}", grid),
                    &line,
                    &report.total_cold_misses(),
                    &report.total_coherence_misses(),
                    &report.total_invalidations(),
                    &report.total_misses(),
                ],
            );
            if line == 16 {
                summary.push((
                    format!("{grid:?}"),
                    report.total_misses(),
                    report.total_invalidations(),
                ));
            }
        }
    }

    // With 16-element lines, strips of full rows ([16,1]: tiles span
    // whole i-rows... wait: grid [16,1] splits i, keeping j (the
    // contiguous dim) whole — each tile owns complete lines: maximal
    // spatial locality, zero false sharing.  Grid [1,16] splits j and
    // cuts every line across 4 processors: false sharing.
    let rows = summary.iter().find(|s| s.0 == "[16, 1]").expect("present");
    let cols = summary.iter().find(|s| s.0 == "[1, 16]").expect("present");
    outln!(
        out,
        "\nat line size 16: splitting i (lines intact) -> {} misses, {} invalidations;\n\
         splitting j (lines cut) -> {} misses, {} invalidations.",
        rows.1,
        rows.2,
        cols.1,
        cols.2
    );
    assert!(
        rows.1 < cols.1,
        "line-preserving tiles must win at large line size"
    );
    assert!(rows.2 <= cols.2);
    outln!(
        out,
        "\nwith multi-element lines the effective footprint is counted in lines:\n\
         tiles whose boundaries respect line boundaries (split only slow\n\
         dimensions) keep both the spatial-locality gain and coherence-free\n\
         boundaries — [6]'s adjustment, reproduced on the simulator."
    );
    out
}
