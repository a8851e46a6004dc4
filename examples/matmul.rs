//! Matrix multiply (Fig. 11 / Appendix A): fine-grain synchronized
//! accumulates, and why square blocks beat row or column partitions.
//!
//! ```sh
//! cargo run --example matmul
//! ```

use alp::prelude::*;

fn main() {
    // Fig. 11: C accumulated with atomic `l$` accumulates; all three
    // loops parallel.  N = 32 to keep the simulation quick.
    let src = "doall (i, 1, 32) { doall (j, 1, 32) { doall (k, 1, 32) {
                 l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
               } } }";
    let nest = parse(src).expect("parses");
    println!("matmul, N = 32, P = 16 processors\n");

    // The classes: C (accumulate), A, B — all rank-2 G matrices in a
    // depth-3 nest; their footprints depend on tile shape even though
    // each array has a single uniformly-intersecting class.
    let classes = classify(&nest);
    for c in &classes {
        println!(
            "  class {:<2} refs {}  G =\n{}",
            c.array,
            c.len(),
            indent(&format!("{}", c.g), 4)
        );
    }

    let p = 16usize;
    let shapes: Vec<(&str, Vec<i128>)> = vec![
        ("rows (i split)", vec![16, 1, 1]),
        ("cols (j split)", vec![1, 16, 1]),
        ("k split", vec![1, 1, 16]),
        ("blocks (4x4 in i,j)", vec![4, 4, 1]),
        ("blocks (4x1x4)", vec![4, 1, 4]),
    ];

    println!(
        "\n{:<22} {:>12} {:>12} {:>14} {:>12}",
        "partition", "cold", "coherence", "invalidations", "total"
    );
    let mut rows = Vec::new();
    for (name, grid) in shapes {
        let report = simulate_grid(&nest, &grid);
        assert!(report.check_conservation());
        println!(
            "{:<22} {:>12} {:>12} {:>14} {:>12}",
            name,
            report.total_cold_misses(),
            report.total_coherence_misses(),
            report.total_invalidations(),
            report.total_misses()
        );
        rows.push((name, report.total_misses()));
    }

    // The framework's own choice.
    let part = partition_rect(&nest, p as i128);
    let report = simulate_grid(&nest, &part.proc_grid);
    println!(
        "{:<22} {:>12} {:>12} {:>14} {:>12}   <- partition_rect {:?}",
        "framework optimum",
        report.total_cold_misses(),
        report.total_coherence_misses(),
        report.total_invalidations(),
        report.total_misses(),
        part.proc_grid
    );
    // The footprint model minimizes *cold* misses (the paper's
    // objective): the framework's tile must touch the fewest distinct
    // elements.
    let _ = rows;
    println!(
        "\nblocks win on footprint: matmul reuse is 2-D (A along j, B along i),\n\
         so (i,j)-blocked tiles maximize it — the motivating example of §1.\n\
         Note the k-split rows: splitting k makes several processors\n\
         accumulate into the same C elements; the footprint shrinks but the\n\
         fine-grain-synchronized writes ping-pong (Appendix A's caveat that\n\
         synchronizing references cost extra communication).  A production\n\
         compiler would keep k sequential or weight accumulate classes\n\
         higher; `partition_rect` faithfully optimizes the paper's\n\
         footprint objective."
    );
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

fn indent(s: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    s.lines().map(|l| format!("{pad}{l}\n")).collect()
}
