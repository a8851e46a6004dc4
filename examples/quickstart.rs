//! Quickstart: partition the paper's Example 8 stencil end-to-end.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use alp::prelude::*;

fn main() {
    // Example 8 of the paper: a 3-D stencil over B, written to A.
    let src = "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
                 A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
               } } }";

    println!("== source ==\n{src}\n");

    // 1. Analyze: classify references into uniformly intersecting classes.
    let nest = parse(src).expect("parses");
    let classes = classify(&nest);
    println!("== uniformly intersecting classes ==");
    for c in &classes {
        println!(
            "  array {:<2} refs {}  G rank {}  spread â = {}",
            c.array,
            c.len(),
            c.g.rank(),
            c.spread()
        );
    }

    // 2. The closed-form optimal aspect ratio (Lagrange, §3.6).
    let model = CostModel::from_nest(&nest);
    if let Some(ratio) = optimal_aspect_ratio(&model) {
        let parts: Vec<String> = ratio.iter().map(|r| r.to_string()).collect();
        println!(
            "\noptimal tile aspect ratio  L_i : L_j : L_k  ::  {}",
            parts.join(" : ")
        );
    }

    // 3. Full pipeline for 64 processors.
    let result = Compiler::new(64)
        .with_mesh(8, 8)
        .compile(nest)
        .expect("compiles");
    println!("\n== chosen partition ==");
    println!("  processor grid : {:?}", result.plan.proc_grid);
    println!("  tile extents λ : {:?}", result.plan.tile_extents);
    println!(
        "  modeled cost   : {} data elements per tile",
        result.plan.cost
    );

    // 4. Generated SPMD code.
    println!("\n== generated code ==\n{}", result.code);

    // 5. Simulate on the cache-coherent machine and compare with a naive
    //    partition.
    let report =
        run_plan(&result.plan, MachineConfig::uniform(0), &UniformHome).expect("plan simulates");
    println!("== simulated (optimal partition) ==");
    println!("  accesses      : {}", report.total_accesses());
    println!("  cold misses   : {}", report.total_cold_misses());
    println!("  miss rate     : {:.4}", report.miss_rate());

    let naive = naive_partition(&result.nest, 64, NaiveShape::ByRows).expect("feasible");
    let verdict = LegalityVerdict::Unchecked;
    let naive = PartitionPlan::build_with_partition(&result.nest, 64, None, verdict, naive, "rows")
        .expect("a by-rows plan");
    let naive_report =
        run_plan(&naive, MachineConfig::uniform(0), &UniformHome).expect("the plan simulates");
    println!("\n== simulated (naive by-rows partition) ==");
    println!("  cold misses   : {}", naive_report.total_cold_misses());
    println!(
        "\noptimal partition saves {:.1}% of misses over by-rows",
        100.0 * (naive_report.total_cold_misses() as f64 - report.total_cold_misses() as f64)
            / naive_report.total_cold_misses() as f64
    );
}
