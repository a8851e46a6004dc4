//! E18 (extension): the load-balance side of the equal-size-tiles
//! constraint (§2.1) — how the three partition families trade traffic
//! against balance.

use crate::{grid_plan, header, simulate, slab_plan, Table};
use alp::prelude::*;

/// How evenly a plan spreads its iterations over the processors that
/// run any: §2.1's equal-size-tiles constraint, measured.
struct Balance {
    /// Processors with at least one iteration.
    busy: usize,
    min: u64,
    max: u64,
    /// `max / mean` over the busy processors: 1.0 is perfect balance,
    /// and the parallel completion time is proportional to it.
    imbalance: f64,
}

fn balance(plan: &PartitionPlan) -> Balance {
    let tiling = plan.tiling(&plan.nest().unwrap()).unwrap();
    let workers = tiling.workers(plan.processors);
    let sizes: Vec<u64> = (0..workers)
        .map(|w| {
            tiling
                .worker_tiles(w, workers)
                .map(|t| tiling.points(t))
                .sum::<u64>()
        })
        .filter(|&n| n > 0)
        .collect();
    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
    let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
    Balance {
        busy: sizes.len(),
        min: *min,
        max: *max,
        imbalance: *max as f64 / mean,
    }
}

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
    let row = |out: &mut String, name: String, plan: &PartitionPlan| {
        let b = balance(plan);
        let r = simulate(plan, MachineConfig::uniform(0), &UniformHome);
        let imbalance = format!("{:.3}", b.imbalance);
        t.row(
            out,
            &[
                &name,
                &b.busy,
                &b.min,
                &b.max,
                &imbalance,
                &r.total_cold_misses(),
            ],
        );
        b
    };

    // Rectangle.
    let rect = partition_rect(&nest, p);
    let rs = row(
        &mut out,
        format!("rect {:?}", rect.proc_grid),
        &grid_plan(&nest, &rect.proc_grid),
    );

    // Communication-free slabs.
    let normals = communication_free_normals(&nest);
    let slabs = slab_plan(&nest, &normals[0], p);
    let ss = row(&mut out, format!("slabs h={}", normals[0]), &slabs);

    // Parallelepiped cells: the search's winning basis as a skewed plan
    // with one processor per cell, boundary fragments and all.
    let config = ParaSearchConfig::default();
    let para = optimize_parallelepiped(&nest, p, &config);
    let cells = (skewed_candidates(&nest, p, &config).unwrap().into_iter())
        .find(|c| c.basis == para.basis)
        .expect("the winning basis is skewed");
    let tiles: i128 = cells.grid.iter().product();
    let verdict = LegalityVerdict::Unchecked;
    let cell_plan =
        PartitionPlan::build_skewed(&nest, tiles, None, verdict, &cells, "cells").unwrap();
    let ps = row(&mut out, format!("para cells ({tiles} tiles)"), &cell_plan);

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
        ps.busy,
        p
    );
    assert!(rs.imbalance <= ss.imbalance);
    assert!(ss.imbalance <= ps.imbalance + 1.0);
    out
}
