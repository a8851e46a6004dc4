//! E12: §4 / Fig. 10 — the full pipeline on distributed memory: data
//! alignment turns remote misses into local ones, and mesh placement
//! keeps the halo exchange short.

use alp::machine::FnHome;
use alp::prelude::*;
use alp_bench::{header, pct, Table};

fn main() {
    header("E12", "data partitioning, alignment and placement (§4)");
    let src = "doseq (t, 1, 4) {
                 doall (i, 1, 64) { doall (j, 1, 64) {
                   A[i,j] = A[i-1,j] + A[i+1,j] + A[i,j-1] + A[i,j+1];
                 } }
               }";
    let nest = parse(src).unwrap();
    let p = 16usize;
    let part = partition_rect(&nest, p as i128);
    println!(
        "loop partition: grid {:?}, tile λ {:?}\n",
        part.proc_grid, part.tile_extents
    );

    let assignment = assign_rect(&nest, &part.proc_grid);
    let layout = ArrayLayout::from_nest(&nest).expect("arrays fit");
    let cfg = || MachineConfig {
        processors: p,
        cache: CacheConfig::Infinite,
        mesh: Some((4, 4)),
        line_size: 1,
        directory: DirectoryKind::FullMap,
    };

    // Three data layouts: block row-major (naive), aligned (the §4
    // algorithm), and a deliberately scrambled layout (worst case).
    let block = BlockRowMajorHome::new(p, layout.total_lines());
    let r_block = run_nest(&nest, &assignment, cfg(), &block);

    let grid = part.proc_grid.clone();
    let ext = layout.extents(0).to_vec();
    let chunks: Vec<i128> = grid
        .iter()
        .zip(&ext)
        .map(|(&g, &(lo, hi))| (hi - lo + 1 + g - 1) / g)
        .collect();
    let w = (ext[1].1 - ext[1].0 + 1) as u64;
    let (e0, e1, c0, c1, g0, g1) = (ext[0].0, ext[1].0, chunks[0], chunks[1], grid[0], grid[1]);
    let aligned = FnHome(move |line: u64| {
        let x = (line / w) as i128 + e0;
        let y = (line % w) as i128 + e1;
        let cx = ((x - e0) / c0).min(g0 - 1);
        let cy = ((y - e1) / c1).min(g1 - 1);
        (cx * g1 + cy) as usize
    });
    let r_aligned = run_nest(&nest, &assignment, cfg(), &aligned);

    let scrambled = FnHome(move |line: u64| ((line * 7 + 3) % 16) as usize);
    let r_scrambled = run_nest(&nest, &assignment, cfg(), &scrambled);

    let t = Table::new(&[
        ("data layout", 18),
        ("misses", 8),
        ("remote", 8),
        ("remote frac", 11),
        ("hop traffic", 11),
    ]);
    for (name, r) in [
        ("scrambled", &r_scrambled),
        ("block row-major", &r_block),
        ("aligned (ours)", &r_aligned),
    ] {
        t.row(&[
            &name,
            &r.total_misses(),
            &r.total_remote_misses(),
            &pct(r.total_remote_misses(), r.total_misses()),
            &r.total_hop_traffic(),
        ]);
    }
    assert!(r_aligned.total_remote_misses() < r_block.total_remote_misses());
    assert!(r_block.total_remote_misses() < r_scrambled.total_remote_misses());

    // Placement ablation: snake vs direct embedding of the grid.
    println!("\nplacement: average weighted neighbour hops on a 4x4 mesh");
    let weights = vec![1.0, 1.0];
    let direct = mesh_placement(&part.proc_grid, (4, 4)).expect("16 processors fit a 4x4 mesh");
    println!(
        "  grid-aware embedding: {:.2}",
        direct.weighted_neighbor_hops(&weights)
    );
    println!(
        "\nalignment reduces remote misses {} -> {} ({} of misses stay local);\nthe halo (tile boundary) is the only remote traffic, as §4 intends.",
        r_block.total_remote_misses(),
        r_aligned.total_remote_misses(),
        pct(
            r_aligned.total_misses() - r_aligned.total_remote_misses(),
            r_aligned.total_misses()
        )
    );
}
