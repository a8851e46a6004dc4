//! End-to-end: compile Example 8, execute the chosen partition natively
//! on OS threads, and check (a) the parallel result is bitwise equal to
//! the sequential reference and (b) the measured worst-tile footprint is
//! within 2x of the cost model's cumulative-footprint prediction.

use alp::prelude::*;

fn example8() -> LoopNest {
    parse(
        "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
           A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
         } } }",
    )
    .unwrap()
}

#[test]
fn example8_executes_and_matches_model() {
    let compiler = Compiler::new(24);
    let result = compiler.compile(example8()).unwrap();
    // 24 processors factor into the paper's 2:3:4 tile proportions.
    let mut sorted = result.plan.proc_grid.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![2, 3, 4]);

    let opts = ExecOptions {
        threads: 4,
        schedule: Schedule::Static,
        line_size: 1,
        track_touches: true,
        ..ExecOptions::default()
    };
    let summary = Compiler::execute(&result.plan, &opts, 0xE8).unwrap();
    assert!(
        summary.outcome.matches_reference,
        "parallel result differs from sequential reference"
    );
    assert_eq!(summary.outcome.report.threads, 4);
    assert_eq!(summary.outcome.report.tiles, 24);
    assert_eq!(summary.outcome.report.total_iterations, 64 * 64 * 64);

    let cmp = summary
        .model_comparison
        .expect("touch tracking was on, so a comparison exists");
    assert!(cmp.exact, "64^3 nest fits the exact bitset tracker");
    assert!(
        cmp.within(2.0),
        "measured worst-tile footprint {} not within 2x of predicted {:.1} (ratio {:.2})",
        cmp.measured_max_tile,
        cmp.predicted_per_tile,
        cmp.ratio
    );
}

#[test]
fn example8_dynamic_schedule_agrees() {
    let compiler = Compiler::new(24);
    let result = compiler.compile(example8()).unwrap();
    let opts = ExecOptions {
        threads: 6,
        schedule: Schedule::Dynamic,
        line_size: 4,
        track_touches: false,
        ..ExecOptions::default()
    };
    let summary = Compiler::execute(&result.plan, &opts, 7).unwrap();
    assert!(summary.outcome.matches_reference);
    // Touch tracking off: no footprint measurement, no comparison.
    assert!(summary.model_comparison.is_none());
}

#[test]
fn runtime_footprints_agree_with_simulator() {
    // Unit lines + infinite caches: the runtime's distinct-line counts
    // and the simulator's per-processor cold misses both count "first
    // touches", so they must agree — tile by tile where each processor
    // runs one tile, and thread by processor where a plan's processors
    // share more tiles than they number.
    let nest = parse(
        "doall (i, 1, 32) { doall (j, 1, 32) {
           A[i,j] = B[i,j] + B[i+1,j+3];
         } }",
    )
    .unwrap();
    let result = Compiler::new(16).compile(nest).unwrap();
    let traffic = run_plan(&result.plan, MachineConfig::uniform(0), &UniformHome).unwrap();

    let exec = Executor::from_grid(&result.nest, &result.plan.proc_grid).unwrap();
    let store = exec.seeded_store(3);
    let report = exec.run(&store, &ExecOptions::default()).unwrap();
    for (tile, (measured, cold)) in report.compare_with_traffic(&traffic).iter().enumerate() {
        assert_eq!(
            measured, cold,
            "tile {tile}: runtime touched {measured} lines, simulator took {cold} cold misses"
        );
    }

    // The skewed Example-2 golden: P = 16 over a [8, 4] grid of 32
    // tiles, dealt round-robin to threads and processors alike.
    let golden = include_str!("golden/example2.v4.plan.json");
    let plan = alp::plan::PartitionPlan::from_json_str(golden).unwrap();
    assert_eq!((plan.processors, plan.tiles()), (16, 32));
    let traffic = run_plan(&plan, MachineConfig::uniform(0), &UniformHome).unwrap();
    let exec = Executor::from_plan(&plan).unwrap();
    let opts = ExecOptions {
        threads: 16,
        schedule: Schedule::Static,
        line_size: 1,
        track_touches: true,
        ..ExecOptions::default()
    };
    let report = exec.run(&exec.seeded_store(3), &opts).unwrap();
    assert!(report.touches_exact);
    let measured: Vec<u64> = (report.per_thread.iter())
        .map(|t| t.distinct_lines.unwrap())
        .collect();
    let cold: Vec<u64> = (traffic.per_processor.iter())
        .map(|c| c.cold_misses)
        .collect();
    assert_eq!(measured.len(), 16);
    assert_eq!(measured, cold);
}
