//! E18 (extension): the load-balance side of the equal-size-tiles
//! constraint (§2.1) — how the three partition families trade traffic
//! against balance.

use crate::{header, Table};
use alp::prelude::*;
use alp_codegen::assignment_stats;

pub fn run() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "E18",
        "load balance: rectangles vs slabs vs parallelepipeds",
    );
    let src = "doall (i, 1, 64) { doall (j, 1, 64) {
                 A[i,j] = B[i,j] + B[i+1,j+3];
               } }";
    let nest = parse(src).unwrap();
    let p = 16i128;

    let t = Table::new(
        &mut out,
        &[
            ("partition", 26),
            ("tiles", 6),
            ("min", 6),
            ("max", 6),
            ("imbalance", 9),
            ("misses", 8),
        ],
    );

    // Rectangle.
    let rect = partition_rect(&nest, p);
    let ra = assign_rect(&nest, &rect.proc_grid);
    let rs = assignment_stats(&ra);
    let rr = run_nest(&nest, &ra, MachineConfig::uniform(p as usize), &UniformHome);
    t.row(
        &mut out,
        &[
            &format!("rect {:?}", rect.proc_grid),
            &rs.nonempty,
            &rs.min,
            &rs.max,
            &format!("{:.3}", rs.imbalance),
            &rr.total_cold_misses(),
        ],
    );

    // Communication-free slabs.
    let normals = communication_free_normals(&nest);
    let sa = assign_slabs(&nest, &normals[0], p);
    let ss = assignment_stats(&sa);
    let sr = run_nest(&nest, &sa, MachineConfig::uniform(p as usize), &UniformHome);
    t.row(
        &mut out,
        &[
            &format!("slabs h={}", normals[0]),
            &ss.nonempty,
            &ss.min,
            &ss.max,
            &format!("{:.3}", ss.imbalance),
            &sr.total_cold_misses(),
        ],
    );

    // Parallelepiped cells (lattice tiling, boundary fragments and all).
    let para = optimize_parallelepiped(&nest, p, &ParaSearchConfig::default());
    let (pa, cells) = assign_para(&nest, para.tile.l_matrix());
    let ps = assignment_stats(&pa);
    let procs = pa.len().max(1);
    let pr = run_nest(
        &nest,
        &pa,
        MachineConfig::uniform(procs.min(128)),
        &UniformHome,
    );
    t.row(
        &mut out,
        &[
            &format!("para cells ({} tiles)", cells.len()),
            &ps.nonempty,
            &ps.min,
            &ps.max,
            &format!("{:.3}", ps.imbalance),
            &pr.total_cold_misses(),
        ],
    );

    outln!(
        out,
        "\nthe paper keeps rectangles 'because it is easy to produce efficient\n\
         code' and because parallelogram load balancing 'is harder' (§3.1):\n\
         measured — rectangles balance perfectly ({:.3}), slabs stay close\n\
         ({:.3}), raw parallelepiped lattice cells fragment at the iteration\n\
         space boundary ({:.3} over {} cells for {} processors).",
        rs.imbalance,
        ss.imbalance,
        ps.imbalance,
        cells.len(),
        p
    );
    assert!(rs.imbalance <= ss.imbalance);
    assert!(ss.imbalance <= ps.imbalance + 1.0);
    out
}
