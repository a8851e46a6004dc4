//! Integration tests: the analytical footprint model against the
//! simulated machine.
//!
//! The paper's claim is that the cumulative footprint predicts the cache
//! misses a partition incurs.  These tests check that the prediction is
//! faithful on the simulator: per-tile cold misses equal the exact
//! cumulative footprint, and the model's *ranking* of partitions matches
//! the machine's.

mod common;

use alp::machine::HomeMap;
use alp::prelude::*;
use common::{grid_plan, tile_points};
use proptest::prelude::*;

/// Simulate a plan on its own processors and mesh (infinite caches,
/// unit lines) with memory laid out by `home`.
fn simulate(plan: &PartitionPlan, home: &dyn HomeMap) -> TrafficReport {
    run_plan(plan, MachineConfig::uniform(0), home).unwrap()
}

/// Infinite caches: each processor's cold misses are exactly the size of
/// its tile's cumulative footprint.
#[test]
fn cold_misses_equal_exact_footprint_per_tile() {
    let src = "doall (i, 0, 47) { doall (j, 0, 47) {
                 A[i,j] = B[i,j] + B[i+2,j+1] + B[i-1,j+3];
               } }";
    let nest = parse(src).unwrap();
    let classes = classify(&nest);
    let report = simulate(&grid_plan(&nest, &[4, 2]), &UniformHome);

    // Interior tiles all have the same extents: 12x24.
    let tile = Tile::rect(&[11, 23]);
    let predicted: usize = classes
        .iter()
        .map(|c| cumulative_footprint_exact(&tile, c))
        .sum();
    for (p, counters) in report.per_processor.iter().enumerate() {
        assert_eq!(
            counters.cold_misses as usize, predicted,
            "processor {p} cold misses"
        );
    }
}

/// Theorem 4's estimate is within boundary slack of the simulated
/// per-tile misses across a sweep of shapes.
#[test]
fn theorem4_estimate_tracks_simulation() {
    let src = "doall (i, 0, 63) { doall (j, 0, 63) {
                 A[i,j] = A[i+1,j] + A[i,j+2] + A[i+3,j+1];
               } }";
    let nest = parse(src).unwrap();
    let model = CostModel::from_nest(&nest);
    for grid in [
        vec![1i128, 16],
        vec![2, 8],
        vec![4, 4],
        vec![8, 2],
        vec![16, 1],
    ] {
        let extents: Vec<i128> = grid.iter().map(|&g| 64 / g - 1).collect();
        let est = model.cost_rect(&extents);
        let report = simulate(&grid_plan(&nest, &grid), &UniformHome);
        let per_tile = report.total_cold_misses() as i128 / 16;
        let diff = (est - Rat::int(per_tile)).abs();
        // Slack: Theorem 4 over-counts by at most the corner product and
        // clipping effects at the iteration-space edge.
        assert!(
            diff <= Rat::int(16),
            "grid {grid:?}: est {est} vs simulated {per_tile}"
        );
    }
}

/// Model ranking matches machine ranking across candidate partitions.
#[test]
fn model_ranking_matches_machine() {
    let src = "doall (i, 0, 63) { doall (j, 0, 63) {
                 A[i,j] = B[i,j] + B[i+4,j] + B[i,j+1];
               } }";
    let nest = parse(src).unwrap();
    let model = CostModel::from_nest(&nest);
    let mut results: Vec<(Rat, u64)> = Vec::new();
    for grid in [vec![16i128, 1], vec![4, 4], vec![1, 16]] {
        let extents: Vec<i128> = grid.iter().map(|&g| 64 / g - 1).collect();
        let est = model.cost_rect(&extents);
        let report = simulate(&grid_plan(&nest, &grid), &UniformHome);
        results.push((est, report.total_cold_misses()));
    }
    // Spread is (4, 1): splitting j is cheap, splitting i is expensive.
    // Model order and machine order must agree.
    let model_order: Vec<usize> = argsort(&results.iter().map(|r| r.0).collect::<Vec<_>>());
    let machine_order: Vec<usize> = argsort(&results.iter().map(|r| r.1).collect::<Vec<_>>());
    assert_eq!(model_order, machine_order, "{results:?}");
}

fn argsort<T: PartialOrd + Copy>(xs: &[T]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("total order"));
    idx
}

/// Communication-free partitions really produce zero invalidations and
/// zero coherence misses, even across repetitions.
#[test]
fn comm_free_partition_is_invalidation_free() {
    let src = "doseq (t, 1, 3) {
                 doall (i, 101, 200) { doall (j, 1, 100) {
                   A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
                 } }
               }";
    let nest = parse(src).unwrap();
    assert!(is_communication_free(&nest));
    let report = simulate(&grid_plan(&nest, &[1, 100]), &UniformHome);
    assert_eq!(report.total_invalidations(), 0);
    assert_eq!(report.total_coherence_misses(), 0);
    // All repeat sweeps hit: misses = first-sweep footprint only.
    assert_eq!(report.total_misses(), report.total_cold_misses());
}

/// The optimizer's partition never does worse on the machine than both
/// naive strawmen, across several nests.
#[test]
fn optimizer_beats_naive_on_machine() {
    let sources = [
        "doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i+2,j] + A[i,j+5]; } }",
        "doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = B[i+j,i-j] + B[i+j+2,i-j]; } }",
    ];
    for src in sources {
        let nest = parse(src).unwrap();
        let ours = partition_rect(&nest, 16);
        let our_misses =
            simulate(&grid_plan(&nest, &ours.proc_grid), &UniformHome).total_cold_misses();
        for shape in [NaiveShape::ByRows, NaiveShape::ByColumns] {
            if let Some(n) = naive_partition(&nest, 16, shape) {
                let naive_misses =
                    simulate(&grid_plan(&nest, &n.proc_grid), &UniformHome).total_cold_misses();
                assert!(
                    our_misses <= naive_misses,
                    "{src}: ours {our_misses} vs {shape:?} {naive_misses}"
                );
            }
        }
    }
}

/// Alignment reduces remote misses on the distributed machine (the §4
/// data-partitioning claim): block-distributed memory against memory
/// aligned to the loop partition.
#[test]
fn alignment_improves_locality() {
    let src = "doseq (t, 1, 2) {
                 doall (i, 1, 32) { doall (j, 1, 32) {
                   A[i,j] = A[i-1,j] + A[i+1,j] + A[i,j-1] + A[i,j+1];
                 } }
               }";
    // The relaxation races across iterations (Jacobi-in-place); the
    // paper still partitions it, so opt out of the legality gate.
    let compiler = Compiler::new(16).with_mesh(4, 4).unchecked();
    let plan = compiler.plan(&parse(src).unwrap()).unwrap();
    let lines = ArrayLayout::from_nest(&plan.nest().unwrap())
        .unwrap()
        .total_lines();
    let dist = simulate(&plan, &BlockRowMajorHome::new(16, lines));
    // Block row-major homes do not match the 2-D tiles: many remote
    // misses.
    assert!(dist.total_remote_misses() > 0);
    assert!(dist.check_conservation());

    // The §4 aligned distribution strictly improves locality and hop
    // traffic.
    let aligned = simulate(&plan, &alp::aligned_home(&plan).unwrap());
    assert!(aligned.check_conservation());
    assert!(
        aligned.total_remote_misses() < dist.total_remote_misses(),
        "aligned {} vs block {}",
        aligned.total_remote_misses(),
        dist.total_remote_misses()
    );
    assert!(aligned.total_hop_traffic() < dist.total_hop_traffic());
    // Total miss count is layout-independent (only locality changes).
    assert_eq!(aligned.total_misses(), dist.total_misses());
}

/// Aligned homes handle transposed references without panicking and keep
/// the lion's share of accesses local for the identity-reference array.
#[test]
fn aligned_home_transposed_reference() {
    let src = "doall (i, 1, 32) { doall (j, 1, 32) {
                 A[i,j] = A[i,j] + B[j,i];
               } }";
    let compiler = Compiler::new(16).with_mesh(4, 4);
    let plan = compiler.plan(&parse(src).unwrap()).unwrap();
    let aligned = simulate(&plan, &alp::aligned_home(&plan).unwrap());
    assert!(aligned.check_conservation());
    // A is perfectly aligned: its misses are local.  B is transposed;
    // its tiles are aligned through the transposed owner mapping, which
    // is exactly right for B[j,i] (processor (ci,cj) reads B tile
    // (cj,ci)... which lives with loop tile (cj,ci)) — so B's accesses
    // are remote unless ci == cj.  Either way, nothing panics and at
    // least A's share stays local.
    let local = aligned.total_misses() - aligned.total_remote_misses();
    assert!(
        local * 2 >= aligned.total_misses() / 2,
        "some locality retained"
    );
}

/// A reversed subscript counts its data tiles down from the loop's
/// first iteration: `B[257-i]` puts `B[256..=193]` with loop tile 0,
/// and the only remote misses are the halo.  Loop tile `c` (64 rows of
/// `i`) also reads `B[256-i]`, one element past its block into tile
/// `c+1`'s: `B[192-64c]` for `c` = 0, 1, 2 (tile 3's `B[0]` lies beyond
/// the loop's image and stays with it), in each of the 4 columns.
#[test]
fn reversed_subscripts_are_homed_with_their_loop_tiles() {
    let src = "doall (i, 1, 256) { doall (j, 1, 4) {
                 A[i,j] = B[257-i,j] + B[256-i,j];
               } }";
    let plan = Compiler::new(16)
        .with_mesh(4, 4)
        .plan(&parse(src).unwrap())
        .unwrap();
    assert_eq!(plan.proc_grid, vec![4, 4]);
    let aligned = simulate(&plan, &alp::aligned_home(&plan).unwrap());
    assert_eq!(aligned.total_misses(), 2064);
    assert_eq!(aligned.total_remote_misses(), 3 * 4);
}

/// A skewed plan lowers to no data partition, so it has no aligned
/// memory to simulate.
#[test]
fn aligned_home_refuses_a_skewed_plan() {
    let golden = include_str!("golden/example2.v4.plan.json");
    let plan = PartitionPlan::from_json_str(golden).unwrap();
    assert!(plan.transform.is_some());
    assert!(Compiler::lower(plan.clone())
        .unwrap()
        .data_partitions
        .is_empty());
    let err = alp::aligned_home(&plan).unwrap_err();
    assert!(matches!(err, PlanError::Infeasible(_)), "{err:?}");
}

/// Subscripts for one array: each dimension one loop index times ±1 or
/// ±2 (so indices repeat and transpose as they fall), optionally one
/// more dimension mixing the first and last index, and 1–3 references
/// differing in their constants.
fn arb_array(depth: usize) -> impl Strategy<Value = (Vec<(usize, i128)>, bool, Vec<Vec<i128>>)> {
    use proptest::collection::vec as pvec;
    let coeff = prop_oneof![Just(-2i128), Just(-1), Just(1), Just(2)];
    (pvec((0..depth, coeff), 1..=3), any::<bool>()).prop_flat_map(|(cols, mixed)| {
        let dims = cols.len() + usize::from(mixed);
        let consts = pvec(pvec(-3i128..=3, dims), 1..=3);
        (Just(cols), Just(mixed), consts)
    })
}

fn arb_nest() -> impl Strategy<Value = LoopNest> {
    use alp::loopir::{ArrayRef, LoopIndex, Statement};
    use proptest::collection::vec as pvec;
    (1usize..=3).prop_flat_map(|depth| {
        let bounds = pvec((-3i128..=3, 0i128..=11), depth);
        (bounds, pvec(arb_array(depth), 1..=2)).prop_map(move |(bounds, arrays)| {
            let loops = (bounds.iter().enumerate())
                .map(|(r, &(lo, n))| LoopIndex::new(format!("i{r}"), lo, lo + n))
                .collect();
            let unit = |r: usize, c: i128| {
                let mut v = vec![0; depth];
                v[r] = c;
                v
            };
            let mut rhs = Vec::new();
            for (a, (cols, mixed, consts)) in arrays.into_iter().enumerate() {
                let mut rows: Vec<Vec<i128>> = cols.iter().map(|&(r, c)| unit(r, c)).collect();
                if mixed {
                    let mut both = unit(0, 1);
                    both[depth - 1] += 1;
                    rows.push(both);
                }
                // Each of `rows` is one subscript's coefficients: a column of `G`.
                let g = IMat::from_vec(rows.len(), depth, rows.concat()).transpose();
                for k in consts {
                    rhs.push(ArrayRef::new(
                        format!("B{a}"),
                        g.clone(),
                        IVec(k),
                        AccessKind::Read,
                    ));
                }
            }
            let (g, a) = (IMat::identity(depth), IVec::zeros(depth));
            let lhs = ArrayRef::new("A", g, a, AccessKind::Write);
            LoopNest::new(loops, vec![Statement::new(lhs, rhs)]).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a rectangular plan, the element every iteration touches through
    /// its array's median offset is homed on the processor whose grid
    /// coordinate is the iteration's tile along every dimension the
    /// array's partition distributes.
    #[test]
    fn every_median_element_is_homed_with_its_iteration_s_tile(
        nest in arb_nest(),
        processors in 1i128..=16,
    ) {
        let plan = Compiler::new(processors).unchecked().plan(&nest);
        prop_assume!(plan.is_ok());
        let plan = plan.unwrap();
        let lowered = Compiler::lower(plan.clone()).unwrap();
        let home = alp::aligned_home(&plan).unwrap();
        let layout = ArrayLayout::from_nest(&nest).unwrap();
        let classes = classify(&nest);
        let grid = &plan.proc_grid;
        let coords = |mut p: usize| {
            let mut c = vec![0usize; grid.len()];
            for r in (0..grid.len()).rev() {
                c[r] = p % grid[r] as usize;
                p /= grid[r] as usize;
            }
            c
        };
        let tiling = plan.tiling(&nest).unwrap();
        for t in 0..tiling.len() {
            let tile = coords(t);
            for part in &lowered.data_partitions {
                let class = classes.iter().find(|c| c.array == part.array).unwrap();
                for (&k, &r) in part.dims.iter().zip(&part.owner) {
                    let col = class.g.col(k);
                    prop_assert!((0..col.len()).all(|s| (col[s] != 0) == (s == r)));
                }
                let id = layout.array_id(&part.array).unwrap();
                for i in &tile_points(&tiling, t) {
                    let x = IVec((0..class.g.cols())
                        .map(|k| (0..i.len()).map(|r| i[r] * class.g[(r, k)]).sum::<i128>() + part.offset[k])
                        .collect());
                    let homed = coords(home.home(layout.line(id, &x)));
                    for &r in &part.owner {
                        prop_assert_eq!(homed[r], tile[r], "{} at {:?} (tile {:?})", part.array, x, tile);
                    }
                }
            }
        }
    }
}
