//! Stencils: Example 2 (communication-free strips) and Example 3
//! (parallelogram tiles beat every rectangle).
//!
//! ```sh
//! cargo run --example stencil
//! ```

use alp::prelude::*;

fn main() {
    example2();
    println!();
    example3();
}

/// Example 2: the partition choice the paper opens with.
fn example2() {
    let src = "doall (i, 101, 200) { doall (j, 1, 100) {
                 A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
               } }";
    let nest = parse(src).expect("parses");
    println!("== Example 2: 100x100 iterations, 100 processors ==");

    // Partition a: strips (full i extent, one j each).
    // Partition b: 10x10 blocks.
    for (name, grid) in [
        ("a: strips (1x100)", vec![1i128, 100]),
        ("b: blocks (10x10)", vec![10, 10]),
    ] {
        let assignment = assign_rect(&nest, &grid);
        let report = run_nest(
            &nest,
            &assignment,
            MachineConfig::uniform(100),
            &UniformHome,
        );
        // Per-tile misses: paper counts the B-class footprint (A adds a
        // constant 100 per tile).
        let per_tile = report.total_cold_misses() / 100;
        println!(
            "  partition {name:<18} misses/tile = {per_tile} (B-class: {}), invalidations = {}",
            per_tile - 100,
            report.total_invalidations()
        );
    }

    // The framework discovers partition a via the communication-free
    // normals (Ramanujam & Sadayappan's case).
    let normals = communication_free_normals(&nest);
    println!(
        "  communication-free normals: {:?}",
        normals.iter().map(|h| h.to_string()).collect::<Vec<_>>()
    );
    let part = partition_rect(&nest, 100);
    println!(
        "  partition_rect picks grid {:?} (tile λ = {:?})",
        part.proc_grid, part.tile_extents
    );
}

/// Example 3: parallelogram tiles internalize the (1,3) translation.
fn example3() {
    let src = "doall (i, 1, 64) { doall (j, 1, 64) {
                 A[i,j] = B[i,j] + B[i+1,j+3];
               } }";
    let nest = parse(src).expect("parses");
    println!("== Example 3: B[i,j] + B[i+1,j+3], 16 processors ==");

    let p = 16i128;
    // Best rectangle.
    let rect = partition_rect(&nest, p);
    println!(
        "  best rectangle   : grid {:?}, modeled cost {}",
        rect.proc_grid, rect.cost
    );

    // Parallelepiped search.
    let para = optimize_parallelepiped(
        &nest,
        p,
        &ParaSearchConfig {
            max_entry: 3,
            threads: 4,
        },
    );
    println!(
        "  best parallelogram: basis rows {:?}, modeled cost {}",
        (0..2)
            .map(|r| para.basis.row(r).0.clone())
            .collect::<Vec<_>>(),
        para.cost
    );

    // Simulate both: slab assignment along the comm-free normal vs the
    // rectangle.
    let rect_assign = assign_rect(&nest, &rect.proc_grid);
    let rect_report = run_nest(
        &nest,
        &rect_assign,
        MachineConfig::uniform(p as usize),
        &UniformHome,
    );

    let normals = communication_free_normals(&nest);
    let slab_assign = assign_slabs(&nest, &normals[0], p);
    let slab_report = run_nest(
        &nest,
        &slab_assign,
        MachineConfig::uniform(p as usize),
        &UniformHome,
    );

    println!(
        "  simulated misses : rectangle {} vs parallelogram-slabs {}",
        rect_report.total_cold_misses(),
        slab_report.total_cold_misses()
    );
    // The code `lower` emits for the skewed plan: each processor scans
    // its own tile, clipped to the loop bounds.
    let skewed = Compiler::new(p)
        .with_skewed_tiles()
        .unchecked()
        .compile(nest)
        .expect("a skewed plan for 16 processors");
    println!("  code for the skewed plan:\n{}", skewed.code);
}
