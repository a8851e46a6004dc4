//! The full Alewife-style compiler pipeline (§4, Fig. 10): loop
//! partitioning, data partitioning & alignment, and placement on a 2-D
//! mesh — showing how alignment turns remote misses into local ones.
//!
//! ```sh
//! cargo run --example alewife_pipeline
//! ```

use alp::machine::HomeMap;
use alp::prelude::*;

fn main() {
    // A 2-D relaxation step run repeatedly (Fig. 9 pattern).
    let src = "doseq (t, 1, 4) {
                 doall (i, 1, 64) { doall (j, 1, 64) {
                   A[i,j] = A[i-1,j] + A[i+1,j] + A[i,j-1] + A[i,j+1];
                 } }
               }";
    let nest = parse(src).expect("parses");
    let p = 16i128;

    // The in-place relaxation races across doall iterations; the paper
    // partitions it anyway (convergence tolerates stale reads), so skip
    // the legality gate.
    let compiler = Compiler::new(p).with_mesh(4, 4).unchecked();
    let result = compiler.compile(nest).expect("compiles");

    println!("== loop partitioning ==");
    println!(
        "  classes          : {}",
        result.plan.class_footprints.len()
    );
    println!("  processor grid   : {:?}", result.plan.proc_grid);
    println!("  tile extents λ   : {:?}", result.plan.tile_extents);

    println!("\n== data partitioning & alignment ==");
    for ap in &result.data_partitions {
        println!(
            "  array {:<2} tile extents {:?} over dims {:?}, offset {}",
            ap.array, ap.tile_extents, ap.dims, ap.offset
        );
    }

    println!("\n== placement ==");
    if let Some(pl) = &result.placement {
        println!("  mesh {:?}, grid {:?}", pl.mesh, pl.grid);
        println!(
            "  avg neighbour hops (uniform weights): {:.2}",
            pl.weighted_neighbor_hops(&vec![1.0; result.plan.proc_grid.len()])
        );
    }

    // --- Simulate two memory configurations on the plan's mesh. ---------
    let simulate = |home: &dyn HomeMap| {
        run_plan(&result.plan, MachineConfig::uniform(0), home).expect("the plan simulates")
    };
    let layout = ArrayLayout::from_nest(&result.nest).expect("arrays fit");

    // (1) Naive block distribution of memory.
    let r_block = simulate(&BlockRowMajorHome::new(p as usize, layout.total_lines()));

    // (2) Aligned distribution: each element lives with the loop tile
    //     that references it — the data partitions printed above (§4).
    let r_aligned = simulate(&alp::aligned_home(&result.plan).expect("a rectangular plan"));

    println!("\n== simulated remote traffic (4 repetitions, 4x4 mesh) ==");
    println!(
        "  {:<22} {:>10} {:>10} {:>12} {:>10}",
        "memory layout", "misses", "remote", "remote frac", "hops"
    );
    for (name, r) in [
        ("block row-major", &r_block),
        ("aligned to tiles", &r_aligned),
    ] {
        println!(
            "  {:<22} {:>10} {:>10} {:>11.1}% {:>10}",
            name,
            r.total_misses(),
            r.total_remote_misses(),
            100.0 * r.remote_fraction(),
            r.total_hop_traffic()
        );
    }
    assert!(
        r_aligned.total_remote_misses() < r_block.total_remote_misses(),
        "alignment must reduce remote misses"
    );
    println!("\nalignment keeps each tile's interior in its own memory module;\nonly the stencil halo goes remote.");
}
