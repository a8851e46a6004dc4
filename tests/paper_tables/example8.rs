//! E6: Example 8 / Fig. 9 — the 3-D stencil: optimal aspect ratio
//! 2:3:4, agreement with Abraham & Hudak, coherence traffic of the
//! Doseq variant, and the shape sweep showing the model's minimum is the
//! machine's minimum.

use crate::{grid_plan, header, simulate, Table};
use alp::prelude::*;

pub fn run() -> String {
    let mut out = String::new();
    header(&mut out, "E6", "Example 8: 3-D stencil, ratio 2:3:4");
    let src = "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
                 A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
               } } }";
    let nest = parse(src).unwrap();
    let model = CostModel::from_nest(&nest);
    let ratio = optimal_aspect_ratio(&model).unwrap();
    outln!(
        out,
        "closed-form aspect ratio: {} (paper: 2 : 3 : 4)\n",
        ratio
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(" : ")
    );
    assert_eq!(ratio, vec![Rat::int(2), Rat::int(3), Rat::int(4)]);

    // Shape sweep on 64 processors: model vs simulated misses per tile.
    outln!(out, "shape sweep (P = 64, iteration space 64^3):");
    let t = Table::new(
        &mut out,
        &[
            ("grid", 12),
            ("tile", 12),
            ("model/tile", 10),
            ("sim/tile", 10),
            ("traffic/tile", 12),
        ],
    );
    let mut results: Vec<(Vec<i128>, i128, u64)> = Vec::new();
    for grid in [
        vec![64i128, 1, 1],
        vec![1, 64, 1],
        vec![1, 1, 64],
        vec![4, 4, 4],
        vec![8, 4, 2],
        vec![2, 4, 8],
        vec![16, 2, 2],
    ] {
        let extents: Vec<i128> = grid.iter().map(|&g| 64 / g - 1).collect();
        let cost = model.cost_rect(&extents);
        let traffic = model.traffic_rect(&extents);
        let report = simulate(
            &grid_plan(&nest, &grid),
            MachineConfig::uniform(64),
            &UniformHome,
        );
        let per_tile = report.total_cold_misses() / 64;
        t.row(
            &mut out,
            &[
                &format!("{:?}", grid),
                &format!("{}x{}x{}", extents[0] + 1, extents[1] + 1, extents[2] + 1),
                &cost,
                &per_tile,
                &traffic,
            ],
        );
        results.push((grid, cost.floor(), per_tile));
    }
    // Model's best grid is also the machine's best grid.
    let best_model = results.iter().min_by_key(|r| r.1).unwrap().0.clone();
    let best_machine = results.iter().min_by_key(|r| r.2).unwrap().0.clone();
    outln!(
        out,
        "\nmodel minimum at grid {best_model:?}, machine minimum at grid {best_machine:?}"
    );
    assert_eq!(
        best_model, best_machine,
        "model and machine agree on the winner"
    );

    // Agreement with Abraham & Hudak on their domain.
    let ah_nest = parse(
        "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
           A[i,j,k] = A[i-1,j,k+1] + A[i,j+1,k] + A[i+1,j-2,k-3];
         } } }",
    )
    .unwrap();
    let ours = partition_rect(&ah_nest, 64);
    let ah = abraham_hudak_rect(&ah_nest, 64).unwrap();
    outln!(
        out,
        "\nAbraham-Hudak agreement: ours {:?} vs A&H {:?} -> {}",
        ours.proc_grid,
        ah.proc_grid,
        if ours.proc_grid == ah.proc_grid {
            "MATCH"
        } else {
            "MISMATCH"
        }
    );
    assert_eq!(ours.proc_grid, ah.proc_grid);

    // Fig. 9: coherence traffic under repetition, optimal vs slab shape.
    outln!(
        out,
        "\nFig. 9 (doseq-wrapped, 3 sweeps, P = 8, 16^3 space): coherence traffic"
    );
    let seq = parse(
        "doseq (t, 1, 3) { doall (i, 1, 16) { doall (j, 1, 16) { doall (k, 1, 16) {
           A[i,j,k] = A[i-1,j,k+1] + A[i,j+1,k] + A[i+1,j-2,k-3];
         } } } }",
    )
    .unwrap();
    let t = Table::new(
        &mut out,
        &[("grid", 12), ("coherence", 10), ("invalidations", 13)],
    );
    for grid in [vec![8i128, 1, 1], vec![2, 2, 2], vec![1, 2, 4]] {
        let report = simulate(
            &grid_plan(&seq, &grid),
            MachineConfig::uniform(8),
            &UniformHome,
        );
        t.row(
            &mut out,
            &[
                &format!("{:?}", grid),
                &report.total_coherence_misses(),
                &report.total_invalidations(),
            ],
        );
    }

    // Bonus: the framework finds Example 8's hidden communication-free
    // skewed family (translations span only 2 of 3 dimensions).
    let normals = communication_free_normals(&nest);
    outln!(
        out,
        "\nbeyond the paper: communication-free normals exist for Example 8: {:?}",
        normals.iter().map(|h| h.to_string()).collect::<Vec<_>>()
    );

    // The planner's skewed plans beside its rectangles, each run on its
    // own P processors: a skewed grid cuts the transformed space's
    // bounding box into more tiles than P, dealt round-robin, so the
    // machine's count is per processor (model traffic is rectangular
    // only).
    outln!(
        out,
        "\nplanner's plans, each simulated on its P processors (64^3 space):"
    );
    let t = Table::new(
        &mut out,
        &[
            ("P", 3),
            ("plan", 7),
            ("grid", 12),
            ("tile", 12),
            ("model/tile", 10),
            ("sim/tile", 10),
            ("traffic/tile", 12),
        ],
    );
    let mut verdicts = Vec::new();
    for (p, model_cost) in [(64i128, 8704), (8, 67584)] {
        let mut sims = Vec::new();
        for compiler in [Compiler::new(p), Compiler::new(p).with_skewed_tiles()] {
            let plan = compiler.plan(&nest).unwrap();
            let skewed = plan.transform.is_some();
            let report = run_plan(&plan, MachineConfig::uniform(0), &UniformHome).unwrap();
            assert_eq!(report.per_processor.len() as i128, p);
            let per_proc = report.total_cold_misses() / p as u64;
            let chunks: Vec<String> = plan
                .tile_extents
                .iter()
                .map(|e| (e + 1).to_string())
                .collect();
            let traffic = if skewed {
                "n/a".to_string()
            } else {
                model.traffic_rect(&plan.tile_extents).to_string()
            };
            t.row(
                &mut out,
                &[
                    &p,
                    &if skewed { "skewed" } else { "rect" },
                    &format!("{:?}", plan.proc_grid),
                    &chunks.join("x"),
                    &plan.cost,
                    &per_proc,
                    &traffic,
                ],
            );
            sims.push((plan.cost, per_proc));
        }
        assert_eq!(sims[1].0, Rat::int(model_cost));
        let pick = |skewed_wins: bool| if skewed_wins { "skewed" } else { "rect" };
        verdicts.push(format!(
            "P = {p}: model prefers {}, machine prefers {}",
            pick(sims[1].0 < sims[0].0),
            pick(sims[1].1 < sims[0].1)
        ));
    }
    outln!(out, "\n{}", verdicts.join("\n"));
    out
}
