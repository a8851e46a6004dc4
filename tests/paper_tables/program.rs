//! E17 (extension): program-level partitioning — the common-grid vs
//! per-phase-plus-redistribution decision for multi-phase programs
//! (§4's compiler setting).

use crate::{header, Table};
use alp::prelude::*;

pub fn run() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "E17",
        "multi-phase programs: common grid vs redistribution",
    );
    let cases: Vec<(&str, &str)> = vec![
        (
            "ADI row+col sweeps (shared A)",
            "doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i,j+1] + A[i,j+2]; } }
             doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i+1,j] + A[i+2,j]; } }",
        ),
        (
            "independent phases (A then B)",
            "doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i,j+3]; } }
             doall (i, 0, 63) { doall (j, 0, 63) { B[i,j] = B[i+3,j]; } }",
        ),
        (
            "same-preference phases",
            "doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i+2,j]; } }
             doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i+4,j]; } }",
        ),
        (
            "tiny array, huge conflict",
            "doall (i, 0, 15) { doall (j, 0, 15) { A[i,j] = A[i,j+4] + A[i,j+5]; } }
             doall (i, 0, 15) { doall (j, 0, 15) { A[i,j] = A[i+4,j] + A[i+5,j]; } }",
        ),
    ];

    let t = Table::new(
        &mut out,
        &[
            ("program", 30),
            ("strategy", 10),
            ("grids", 22),
            ("cost", 8),
            ("alt cost", 8),
            ("redist", 7),
        ],
    );
    for (name, src) in cases {
        let nests = parse_program(src).unwrap();
        let prog = partition_program(&nests, 16);
        t.row(
            &mut out,
            &[
                &name,
                &format!("{:?}", prog.strategy),
                &format!(
                    "{:?}",
                    prog.phases
                        .iter()
                        .map(|p| p.proc_grid.clone())
                        .collect::<Vec<_>>()
                ),
                &prog.total_cost,
                &prog.alternative_cost,
                &prog.redistribution,
            ],
        );
        assert!(prog.total_cost <= prog.alternative_cost);
    }

    outln!(
        out,
        "\nconflicting phases over a shared array choose the compromise grid\n\
         (redistribution dominates); phases over disjoint arrays or with the\n\
         same preference keep their solo optima at zero redistribution."
    );
    out
}
