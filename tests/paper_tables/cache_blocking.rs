//! E19 (extension): §2.2's small-cache adjustment — "the optimal loop
//! partition aspect ratios do not change, rather, the size of each loop
//! tile executed at any given time on the processor must be adjusted so
//! that the data fits in the cache."  Measured with the finite-cache
//! simulator.

use crate::{grid_plan, header, simulate, tile_points, Table};
use alp::machine::Machine;
use alp::prelude::*;
use alp_partition::cache_blocked_extents;

/// §2.2's execution blocking of one processor's `points`: sub-blocks of
/// `sub` iterations, in lexicographic order, each block's points in
/// lexicographic order.  Who runs what does not change, only when.
fn blocked(points: &[IVec], sub: &[i128]) -> Vec<IVec> {
    let Some(first) = points.first() else {
        return Vec::new();
    };
    let mins: Vec<i128> = (0..first.len())
        .map(|k| points.iter().map(|i| i[k]).min().unwrap())
        .collect();
    let mut out = points.to_vec();
    out.sort_by_key(|i| {
        let block: Vec<i128> = (0..i.len()).map(|k| (i[k] - mins[k]) / sub[k]).collect();
        (block, i.clone())
    });
    out
}

/// Run processor `p`'s points in the order `lists[p]` gives them, with
/// the accesses interleaved one per processor per round, as `run_plan`
/// interleaves a plan's.  Blocking is not yet a plan property, so the
/// blocked orders are simulated from their own point lists.
fn run_in_order(nest: &LoopNest, lists: &[Vec<IVec>], config: MachineConfig) -> TrafficReport {
    let layout = ArrayLayout::from_nest(nest).unwrap();
    let accesses = layout.accesses(nest, None).unwrap();
    let traces: Vec<Vec<(u64, bool)>> = (lists.iter())
        .map(|points| {
            let mut trace = Vec::new();
            for i in points {
                let j: Vec<i64> = i.0.iter().map(|&x| i64::try_from(x).unwrap()).collect();
                let x = j[j.len() - 1];
                accesses.for_each(&j, x, x, |element, write| trace.push((element, write)));
            }
            trace
        })
        .collect();
    let reps = nest.seq_repetitions().max(1) as u64;
    let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
    let mut machine = Machine::new(config, None, &UniformHome);
    for _ in 0..reps {
        for k in 0..longest {
            for (p, trace) in traces.iter().enumerate() {
                if let Some(&(element, write)) = trace.get(k) {
                    machine.access(p, element, write);
                }
            }
        }
    }
    machine.into_report(reps)
}

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
    let plan = grid_plan(&nest, &grid);
    let tiling = plan.tiling(&nest).unwrap();
    let tiles: Vec<Vec<IVec>> = (0..tiling.len()).map(|t| tile_points(&tiling, t)).collect();
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
    // Unblocked lexicographic order: the plan itself, which the loop
    // that runs the blocked orders reproduces exactly.
    let base = simulate(&plan, cfg(), &UniformHome);
    assert_eq!(
        run_in_order(&nest, &tiles, cfg()).per_processor,
        base.per_processor
    );
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
    let block =
        |sub: &[i128]| -> Vec<Vec<IVec>> { tiles.iter().map(|t| blocked(t, sub)).collect() };
    let br = run_in_order(&nest, &block(&sub_sizes), cfg());
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
    let tr = run_in_order(&nest, &block(&[32, 32]), cfg());
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
