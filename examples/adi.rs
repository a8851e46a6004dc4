//! ADI-style multi-phase program: a row sweep then a column sweep over
//! the same array — the classic case where consecutive phases prefer
//! conflicting partitions and the compiler must choose between a common
//! compromise grid and per-phase optima plus redistribution.
//!
//! ```sh
//! cargo run --example adi
//! ```

use alp::prelude::*;

fn main() {
    let src = "doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i,j+1] + A[i,j+2]; } }
               doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i+1,j] + A[i+2,j]; } }";
    let nests = parse_program(src).expect("parses");
    let p = 16i128;

    println!("== per-phase analysis ==");
    for (k, nest) in nests.iter().enumerate() {
        let solo = partition_rect(nest, p);
        let model = CostModel::from_nest(nest);
        let ratio = optimal_aspect_ratio(&model);
        println!(
            "  phase {}: solo optimum grid {:?} (cost {}), aspect ratio {:?}",
            k + 1,
            solo.proc_grid,
            solo.cost,
            ratio.map(|r| r.iter().map(ToString::to_string).collect::<Vec<_>>())
        );
    }

    let prog = partition_program(&nests, p);
    println!("\n== program decision ==");
    println!("  strategy          : {:?}", prog.strategy);
    println!(
        "  grids             : {:?}",
        prog.phases
            .iter()
            .map(|ph| ph.proc_grid.clone())
            .collect::<Vec<_>>()
    );
    println!("  total cost        : {}", prog.total_cost);
    println!("  alternative cost  : {}", prog.alternative_cost);
    println!(
        "  redistribution    : {} elements (if per-phase)",
        prog.redistribution
    );

    // Validate on the machine: simulate both strategies phase by phase
    // with warm caches carried across phases.
    //
    // Common grid: both phases use prog grid.  Per-phase: each phase its
    // solo optimum (the redistribution shows up as coherence misses when
    // the second phase's processors pull A from the first phase's
    // owners' caches).
    let simulate = |grids: [&[i128]; 2]| -> u64 {
        // Concatenate the two phases into one trace per processor by
        // running them against one shared machine: emulate by running a
        // doseq-style combined nest is not possible (different bodies),
        // so run phase 1, then REPLAY phase 2 with the same machine
        // state... the public API runs one nest at a time, so
        // approximate: phase 1 misses + phase 2 misses where phase 2's
        // cold misses against data phase 1 loaded are what
        // redistribution models.
        let r1 = simulate_grid(&nests[0], grids[0]);
        let r2 = simulate_grid(&nests[1], grids[1]);
        r1.total_misses() + r2.total_misses()
    };
    let common = prog.phases[0].proc_grid.clone();
    let solo1 = partition_rect(&nests[0], p).proc_grid;
    let solo2 = partition_rect(&nests[1], p).proc_grid;
    println!("\n== simulated (cold-start per phase) ==");
    println!(
        "  common grid {:?}         : {} misses",
        common,
        simulate([&common, &common])
    );
    println!(
        "  per-phase {:?} then {:?} : {} misses + {} redistributed",
        solo1,
        solo2,
        simulate([&solo1, &solo2]),
        prog.redistribution
    );
    println!("\nwith a shared array, the common grid avoids moving A between\nphases — the compiler-level choice §4's pipeline has to make.");
}

/// Simulate `grid`'s rectangles, one processor each, as the plan that
/// runs them (infinite caches, unit lines).
fn simulate_grid(nest: &LoopNest, grid: &[i128]) -> TrafficReport {
    let extents = Tiling::new(nest, None, grid)
        .expect("the grid fits")
        .extents();
    let partition = RectPartition {
        cost: CostModel::from_nest(nest).cost_rect(&extents),
        tile_extents: extents,
        proc_grid: grid.to_vec(),
    };
    let (p, verdict) = (grid.iter().product(), LegalityVerdict::Unchecked);
    let plan = PartitionPlan::build_with_partition(nest, p, None, verdict, partition, "grid")
        .expect("a rectangular plan");
    run_plan(&plan, MachineConfig::uniform(0), &UniformHome).expect("the plan simulates")
}
