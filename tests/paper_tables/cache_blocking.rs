//! E19 (extension): §2.2's small-cache adjustment — "the optimal loop
//! partition aspect ratios do not change, rather, the size of each loop
//! tile executed at any given time on the processor must be adjusted so
//! that the data fits in the cache."  Measured with the finite-cache
//! simulator.

use crate::{header, Table};
use alp::prelude::*;
use alp_codegen::block_assignment;
use alp_partition::cache_blocked_extents;

pub fn run() -> String {
    let mut out = String::new();
    header(&mut out, "E19", "cache-capacity tile blocking (§2.2)");
    // A kernel with genuine 2-D reuse: B is reused along j, C along i.
    let src = "doall (i, 0, 63) { doall (j, 0, 63) {
                 A[i,j] = B[i] + C[j];
               } }";
    let nest = parse(src).unwrap();
    let p = 4usize;
    // Strip tiles (16 x 64): each processor's row of C is wider than the
    // cache, so the lexicographic order re-misses C on every i — the
    // situation §2.2's adjustment exists for.
    let grid = vec![4i128, 1];
    let tile_extents = vec![15i128, 63];
    let assignment = assign_rect(&nest, &grid);
    outln!(
        out,
        "partition: grid {:?}, per-processor tile {:?} iterations\n",
        grid,
        tile_extents.iter().map(|&x| x + 1).collect::<Vec<_>>()
    );

    // A small 64-line cache per processor.
    let cache = CacheConfig::Finite { sets: 16, ways: 4 };
    let cfg = || MachineConfig {
        processors: p,
        cache,
        mesh: None,
        line_size: 1,
        directory: DirectoryKind::FullMap,
    };

    let t = Table::new(
        &mut out,
        &[
            ("execution order", 24),
            ("capacity misses", 15),
            ("total misses", 12),
            ("miss rate", 9),
        ],
    );
    // Unblocked lexicographic order.
    let base = run_nest(&nest, &assignment, cfg(), &UniformHome);
    t.row(
        &mut out,
        &[
            &"lexicographic",
            &base.total_capacity_misses(),
            &base.total_misses(),
            &format!("{:.3}", base.miss_rate()),
        ],
    );

    // Cache-blocked order, sized by the model.
    let model = CostModel::from_nest(&nest);
    let ratio = vec![Rat::ONE, Rat::ONE];
    let sub =
        cache_blocked_extents(&model, &ratio, 48, &tile_extents).expect("a feasible block exists");
    let sub_sizes: Vec<i128> = sub.iter().map(|&x| x + 1).collect();
    let blocked = block_assignment(&assignment, &sub_sizes);
    let br = run_nest(&nest, &blocked, cfg(), &UniformHome);
    t.row(
        &mut out,
        &[
            &format!("blocked {sub_sizes:?}"),
            &br.total_capacity_misses(),
            &br.total_misses(),
            &format!("{:.3}", br.miss_rate()),
        ],
    );

    // A coarser blocking for contrast (clipped to the 16-row tile).
    let too_big = block_assignment(&assignment, &[32, 32]);
    let tr = run_nest(&nest, &too_big, cfg(), &UniformHome);
    t.row(
        &mut out,
        &[
            &"blocked [32, 32]",
            &tr.total_capacity_misses(),
            &tr.total_misses(),
            &format!("{:.3}", tr.miss_rate()),
        ],
    );

    assert!(
        br.total_capacity_misses() < base.total_capacity_misses(),
        "model-sized blocks must cut capacity misses: {} vs {}",
        br.total_capacity_misses(),
        base.total_capacity_misses()
    );
    outln!(
        out,
        "\nmodel-sized blocks (footprint ≤ cache) cut capacity misses {:.1}x;\n\
         the partition itself (who owns what) never changed — §2.2's claim\n\
         that small caches rescale the tile, not reshape the partition.",
        base.total_capacity_misses() as f64 / br.total_capacity_misses().max(1) as f64
    );
    out
}
