//! Workloads `exec-rect-atomic` and `exec-skewed-certified`: the native
//! executor on fixed nests, used two ways.
//!
//! `exec-rect-atomic` runs uncertified rectangular plans: every point
//! pays `LinRef::eval`, accumulates use compare-exchange.
//! `exec-skewed-certified` runs transformed plans on the `execute_row`
//! path and certified plans on relaxed stores.  A kernel change that
//! speeds one path by slowing the other shows as a loss on one of them.
//!
//! Plans are made once in set-up.  One operation resets the store
//! (untimed), calls `Executor::run` and compares the store's checksum
//! with the reference interpreter's.  A case's figure is its undisturbed
//! run (`undisturbed_ms`): `RunReport::wall` with every tile at the
//! floor of its busy time across the window's runs.

use crate::pass::{repeat_setup, Ctx, Pass, Pieces};
use crate::stats;
use crate::trace::{self, Tracer};
use alp::footprint::CostModel;
use alp::loopir::LoopNest;
use alp::machine::{MachineConfig, UniformHome};
use alp::partition::RectPartition;
use alp::plan::{LegalityVerdict, PartitionPlan};
use alp::runtime::{ArrayStore, ExecOptions, Executor, RunReport, Schedule};
use alp::Compiler;
use std::time::Instant;

/// Tiles per plan.  More tiles than threads, so static round-robin
/// assignment and tile-boundary polling are both exercised.
const PROCESSORS: i128 = 16;

/// Elements per 64-byte cache line (`f64` stores).
const LINE_ELEMS: u64 = 8;

#[derive(Debug, Clone)]
enum Planner {
    /// The planner's own rectangular grid.
    Rect,
    /// `with_skewed_tiles()`; set-up insists on a non-identity transform.
    Skewed,
    /// An explicit grid, certified; set-up insists the certificate
    /// unlocks relaxed stores.
    CertifiedGrid(Vec<i128>),
}

#[derive(Debug, Clone)]
struct Case {
    name: String,
    source: String,
    planner: Planner,
}

fn stencil3d(n: i64) -> String {
    format!(
        "doall (i, 1, {n}) {{ doall (j, 1, {n}) {{ doall (k, 1, {n}) {{ \
         A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]; }} }} }}"
    )
}

fn stencil2d(n: i64) -> String {
    format!(
        "doall (i, 1, {n}) {{ doall (j, 1, {n}) {{ \
         A[i,j] = B[i,j] + B[i-1,j] + B[i+1,j] + B[i,j-1] + B[i,j+1]; }} }}"
    )
}

fn matmul(n: i64) -> String {
    format!(
        "doall (i, 0, {0}) {{ doall (j, 0, {0}) {{ doall (k, 0, {0}) {{ \
         l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j]; }} }} }}",
        n - 1
    )
}

fn rowsum(rows: i64, cols: i64) -> String {
    format!(
        "doall (i, 0, {}) {{ doall (j, 0, {}) {{ l$S[i] = l$S[i] + A[i,j]; }} }}",
        rows - 1,
        cols - 1
    )
}

/// The cases of a workload.  Full sizes put two 33 MB arrays behind the
/// 3-D stencil and 25–100 MB behind the others — several times the 2 MiB
/// per-core L2 of the builder's host, though inside its shared 260 MiB
/// L3 (README "Load sizing").  `quick` shrinks them for the smoke test.
fn cases(workload: &str, quick: bool) -> Vec<Case> {
    let case = |name: String, source: String, planner: Planner| Case {
        name,
        source,
        planner,
    };
    let (s3, s2, mm, (rr, rc), ex2, dsk) = if quick {
        (24, 128, 24, (32, 512), 96, 64)
    } else {
        (160, 2048, 192, (256, 16384), 1536, 768)
    };
    match workload {
        "exec-rect-atomic" => vec![
            case(format!("stencil3d-{s3}"), stencil3d(s3), Planner::Rect),
            case(format!("stencil2d-{s2}"), stencil2d(s2), Planner::Rect),
            case(format!("matmul-acc-{mm}"), matmul(mm), Planner::Rect),
            case(format!("rowsum-{rr}x{rc}"), rowsum(rr, rc), Planner::Rect),
        ],
        "exec-skewed-certified" => vec![
            case(
                format!("ex2-skewed-{ex2}"),
                format!(
                    "doall (i, 101, {}) {{ doall (j, 1, {ex2}) {{ \
                     A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]; }} }}",
                    100 + ex2
                ),
                Planner::Skewed,
            ),
            case(
                format!("dskew-{dsk}"),
                format!(
                    "doall (i, 1, {dsk}) {{ doall (j, 1, {dsk}) {{ \
                     A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2] + C[i+2*j,j] + C[i+2*j+2,j+1]; }} }}"
                ),
                Planner::Skewed,
            ),
            case(
                format!("matmul-acc-{mm}-ijblocks"),
                matmul(mm),
                Planner::CertifiedGrid(vec![4, 4, 1]),
            ),
            case(
                format!("rowsum-{rr}x{rc}-cert"),
                rowsum(rr, rc),
                Planner::CertifiedGrid(vec![16, 1]),
            ),
        ],
        other => unreachable!("`{other}` is not an exec workload"),
    }
}

/// A case planned, lowered, seeded and checked against the reference
/// interpreter once.
struct Ready {
    name: String,
    nest: LoopNest,
    plan: PartitionPlan,
    exec: Executor,
    store: ArrayStore,
    init: Vec<f64>,
    /// Checksum of the reference interpreter's result from `init`.
    reference_sum: u64,
    iterations: u64,
    lower_us: f64,
    store_ms: f64,
    reference_ms: f64,
}

/// Order-sensitive fold of every element's bit pattern.
fn checksum(values: impl Iterator<Item = f64>) -> u64 {
    values.fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn store_checksum(store: &ArrayStore) -> u64 {
    checksum((0..store.len()).map(|k| store.get(k)))
}

fn plan_case(case: &Case, nest: &LoopNest) -> Result<PartitionPlan, String> {
    let err = |e: alp::AlpError| e.to_string();
    match &case.planner {
        Planner::Rect => Compiler::new(PROCESSORS).plan(nest).map_err(err),
        Planner::Skewed => {
            let plan = Compiler::new(PROCESSORS)
                .with_skewed_tiles()
                .plan(nest)
                .map_err(err)?;
            if plan.transform.as_ref().is_none_or(|t| t.is_identity()) {
                return Err("skewed case came back without a non-identity transform".into());
            }
            let cert = alp::certify::certify(&plan).map_err(|e| e.to_string())?;
            Ok(plan.with_certificate(cert.certificate))
        }
        Planner::CertifiedGrid(grid) => {
            let report = alp::analysis::analyze(nest);
            if report.has_errors() {
                return Err("legality analysis refused the case".into());
            }
            let tile_extents: Vec<i128> = grid
                .iter()
                .zip(&nest.loops)
                .map(|(&g, l)| (l.trip_count() + g - 1) / g - 1)
                .collect();
            let partition = RectPartition {
                cost: CostModel::from_nest(nest).cost_rect(&tile_extents),
                proc_grid: grid.clone(),
                tile_extents,
            };
            let verdict = LegalityVerdict::Checked {
                warnings: report.count(alp::analysis::Severity::Warning),
            };
            let plan = PartitionPlan::build_with_partition(
                nest,
                PROCESSORS,
                None,
                verdict,
                partition,
                "explicit-grid",
            )
            .map_err(|e| e.to_string())?;
            let cert = alp::certify::certify(&plan).map_err(|e| e.to_string())?;
            Ok(plan.with_certificate(cert.certificate))
        }
    }
}

fn options(ctx: &Ctx) -> ExecOptions {
    ExecOptions {
        threads: ctx.host.threads,
        schedule: Schedule::Static,
        track_touches: false,
        ..ExecOptions::default()
    }
}

/// What the reference interpreter made of a case from its seeded store.
/// It is the benchmark's oracle, not part of the program's set-up: it
/// runs once, outside `setup_s`, however often set-up is repeated.
#[derive(Debug, Clone, Copy)]
struct Oracle {
    sum: u64,
    ms: f64,
}

/// Set one case up, each step a piece: plan, lower, seed, first run,
/// check.  Without an `oracle` from an earlier repetition the reference
/// interpreter runs first, untimed.
fn setup_case(
    ctx: &Ctx,
    case: &Case,
    oracle: Option<Oracle>,
    pieces: &mut Pieces,
) -> Result<Ready, String> {
    let at = |e: String| format!("{}: {e}", case.name);
    let (nest, plan) = pieces
        .time(|| {
            let nest = alp::loopir::parse(&case.source).map_err(|e| e.to_string())?;
            let plan = plan_case(case, &nest)?;
            // A stored plan reaches the executor through its JSON form.
            let plan =
                PartitionPlan::from_json_str(&plan.to_json_string()).map_err(|e| e.to_string())?;
            Ok((nest, plan))
        })
        .map_err(at)?;

    let (exec, lower_us) = pieces
        .time(|| {
            let t0 = Instant::now();
            let mut exec = Executor::from_plan(&plan).map_err(|e| e.to_string())?;
            let lower_us = t0.elapsed().as_secs_f64() * 1e6;
            if plan.certificate.is_some() {
                // As `Compiler::execute` does: only re-proven verdicts
                // configure the executor, never the stored bits.
                let proven = alp::certify::recheck(&plan).map_err(|e| e.to_string())?;
                exec.apply_certificate(proven.coverage && proven.write_disjoint, proven.idempotent);
            }
            Ok((exec, lower_us))
        })
        .map_err(at)?;
    if matches!(case.planner, Planner::CertifiedGrid(_)) && !exec.uses_relaxed_stores() {
        return Err(at(
            "certified case did not unlock the relaxed-store path".into()
        ));
    }

    let (store, init, store_ms) = pieces.time(|| {
        let t0 = Instant::now();
        let store = exec.seeded_store(ctx.seed);
        let store_ms = t0.elapsed().as_secs_f64() * 1e3;
        let init = store.snapshot();
        (store, init, store_ms)
    });
    let oracle = oracle.unwrap_or_else(|| {
        let t0 = Instant::now();
        let reference = exec.run_reference(&init);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        Oracle {
            sum: checksum(reference.iter().copied()),
            ms,
        }
    });

    // The first run warms the store's pages and proves the case before
    // anything is timed.
    let report = pieces
        .time(|| exec.run(&store, &options(ctx)))
        .map_err(|e| at(e.to_string()))?;
    if pieces.time(|| store_checksum(&store)) != oracle.sum {
        return Err(at("first run differs from the reference interpreter".into()));
    }
    Ok(Ready {
        name: case.name.clone(),
        iterations: report.total_iterations,
        nest,
        plan,
        exec,
        store,
        init,
        reference_sum: oracle.sum,
        lower_us,
        store_ms,
        reference_ms: oracle.ms,
    })
}

/// Reset, run, check.  Returns the run's report when the checksum holds.
fn run_once(r: &Ready, opts: &ExecOptions, t: &mut Tracer, pass: &mut Pass) -> Option<RunReport> {
    let root = t.open("exec.op");
    let s = t.open("runtime.store.reset");
    r.store.load_from(&r.init);
    t.close(s);
    let s = t.open("runtime.run");
    let report = r.exec.run(&r.store, opts);
    t.close(s);
    let s = t.open("exec.checksum");
    let sum = store_checksum(&r.store);
    t.close(s);
    t.close(root);
    pass.attempted += 1;
    match report {
        Ok(rep) if sum == r.reference_sum => Some(rep),
        Ok(_) => {
            pass.fail(|| format!("{}: store differs from the reference interpreter", r.name));
            None
        }
        Err(e) => {
            pass.fail(|| format!("{}: {e}", r.name));
            None
        }
    }
}

/// Reports of every run in a window, per case.
type Runs = Vec<Vec<RunReport>>;

/// Cycle the cases round-robin until the window closes, adding to
/// `runs`; the window is checked between rounds so every case gets the
/// same number of runs.
fn measure(
    ctx: &Ctx,
    ready: &[Ready],
    window: std::time::Duration,
    t: &mut Tracer,
    pass: &mut Pass,
    runs: &mut Runs,
) {
    let opts = options(ctx);
    let begin = Instant::now();
    loop {
        for (r, reps) in ready.iter().zip(runs.iter_mut()) {
            t.set_op(pass.attempted);
            if let Some(rep) = run_once(r, &opts, t, pass) {
                reps.push(rep);
            }
        }
        if begin.elapsed() >= window {
            return;
        }
    }
}

fn wall_ms(rep: &RunReport) -> f64 {
    rep.wall.as_secs_f64() * 1e3
}

/// Floor of a case's wall times in milliseconds.
fn floor_wall_ms(reps: &[RunReport]) -> Option<f64> {
    if reps.is_empty() {
        return None;
    }
    Some(stats::floor(&reps.iter().map(wall_ms).collect::<Vec<_>>()))
}

/// What [`undisturbed_ms`] reads of one run, in milliseconds.
#[derive(Debug)]
struct Timing {
    wall: f64,
    threads: usize,
    /// `(thread, busy)` of every tile, indexed by tile.
    tiles: Vec<(usize, f64)>,
}

impl From<&RunReport> for Timing {
    fn from(rep: &RunReport) -> Self {
        let mut tiles = vec![(0, 0.0); rep.per_tile.len()];
        for t in &rep.per_tile {
            tiles[t.tile] = (t.thread, t.busy.as_secs_f64() * 1e3);
        }
        Timing {
            wall: wall_ms(rep),
            threads: rep.threads,
            tiles,
        }
    }
}

/// The undisturbed run of a case, in milliseconds, put together from the
/// window's runs under the static schedule: every tile takes its floor
/// across the runs, the tiles of a thread add up, and the slowest thread
/// plus the floor of what a run spends outside its tiles is the run.
///
/// The same tile over the same store costs the same every run; what
/// differs is the host, whose quiet moments are milliseconds long far
/// more often than they are a whole run long.  A tile is a sixteenth of
/// a run.
fn undisturbed_ms(runs: &[Timing]) -> Option<f64> {
    let first = runs.first()?;
    let slowest = |busy: &[f64]| busy.iter().copied().fold(0.0, f64::max);
    let mut tile_floor = vec![f64::INFINITY; first.tiles.len()];
    let mut outside = f64::INFINITY;
    for run in runs {
        let mut thread_busy = vec![0.0; run.threads];
        for (floor, &(thread, busy)) in tile_floor.iter_mut().zip(&run.tiles) {
            *floor = floor.min(busy);
            thread_busy[thread] += busy;
        }
        outside = outside.min(run.wall - slowest(&thread_busy));
    }
    // Static assignment: a tile runs on the same thread in every run.
    let mut thread_floor = vec![0.0; first.threads];
    for (&(thread, _), floor) in first.tiles.iter().zip(&tile_floor) {
        thread_floor[thread] += floor;
    }
    Some(slowest(&thread_floor) + outside.max(0.0))
}

fn floor_run_ms(reps: &[RunReport]) -> Option<f64> {
    undisturbed_ms(&reps.iter().map(Timing::from).collect::<Vec<_>>())
}

/// Per-case undisturbed runs, or an error naming the case that never
/// completed.
fn case_floors(ready: &[Ready], runs: &Runs) -> Result<Vec<f64>, String> {
    ready
        .iter()
        .zip(runs)
        .map(|(r, reps)| {
            floor_run_ms(reps).ok_or_else(|| format!("{}: no run completed correctly", r.name))
        })
        .collect()
}

/// Floor of `n` extra runs of one case under `opts`.
fn probe_runs(
    r: &Ready,
    opts: &ExecOptions,
    n: usize,
    pass: &mut Pass,
) -> Option<(f64, RunReport)> {
    let mut t = Tracer::new(false);
    let reps: Vec<RunReport> = (0..n)
        .filter_map(|_| run_once(r, opts, &mut t, pass))
        .collect();
    let floor_ms = floor_wall_ms(&reps)?;
    reps.into_iter().next().map(|first| (floor_ms, first))
}

/// The per-layer probes that need runs of their own: touch tracking,
/// the other schedule, one thread, `verify`, and the simulator.
fn probe_layers(ctx: &Ctx, ready: &[Ready], pass: &mut Pass) -> Result<(), String> {
    let base = options(ctx);
    let (mut tracked_ms, mut dyn_ratio, mut scaling, mut ratios) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut lines_max, mut model_lines) = (0u64, 0.0f64);
    for r in ready {
        let gone = || format!("{}: a probe run failed", r.name);
        // Worst-tile distinct 64-byte lines, from one tracked run.
        let tracked = ExecOptions {
            track_touches: true,
            line_size: LINE_ELEMS,
            ..base.clone()
        };
        let (ms, rep) = probe_runs(r, &tracked, 1, pass).ok_or_else(gone)?;
        if !rep.touches_exact {
            return Err(format!("{}: touch counts are approximate", r.name));
        }
        tracked_ms.push(ms);
        lines_max += rep.max_tile_footprint().unwrap_or(0);
        // Eq. 2 predicts distinct elements of rectangular tiles; a
        // transformed plan's extents are j-space quantities it says
        // nothing about.
        if r.plan.transform.is_none() {
            let unit = ExecOptions {
                track_touches: true,
                line_size: 1,
                ..base.clone()
            };
            let (_, rep) = probe_runs(r, &unit, 1, pass).ok_or_else(gone)?;
            let model = CostModel::from_nest(&r.nest);
            if let Some(cmp) = rep.compare_with_model(&model, r.exec.tile_extents()) {
                model_lines += cmp.predicted_per_tile;
                ratios.push(cmp.ratio);
            }
        }
        let dynamic = ExecOptions {
            schedule: Schedule::Dynamic,
            ..base.clone()
        };
        // Wall floors of three runs each, back to back, so both sides of
        // the ratio are the same estimate under the same host.
        let (static_ms, _) = probe_runs(r, &base, 3, pass).ok_or_else(gone)?;
        let (dynamic_ms, _) = probe_runs(r, &dynamic, 3, pass).ok_or_else(gone)?;
        dyn_ratio.push(dynamic_ms / static_ms);
        // t₁ ÷ (W·t_W) with W = `Host::wide` threads, whatever count the
        // windows ran on.
        let with_threads = |threads: usize| ExecOptions {
            threads,
            ..base.clone()
        };
        let (one_ms, _) = probe_runs(r, &with_threads(1), 3, pass).ok_or_else(gone)?;
        let wide = ctx.host.wide();
        let (wide_ms, _) = probe_runs(r, &with_threads(wide), 3, pass).ok_or_else(gone)?;
        scaling.push(one_ms / (wide as f64 * wide_ms));
        pass.rows.push(format!(
            "case {} tracked_lines_max={} dynamic_over_static={:.3} scaling_eff={:.3}",
            r.name,
            rep.max_tile_footprint().unwrap_or(0),
            dyn_ratio.last().expect("pushed above"),
            scaling.last().expect("pushed above"),
        ));
    }
    let m = &mut pass.metrics;
    m.set(
        "runtime.tracked_run_ms",
        stats::geomean(&tracked_ms),
        tracked_ms.len(),
    );
    m.set("runtime.lines_max_tile", lines_max as f64, 1);
    m.set("footprint.model_lines", model_lines, 1);
    if !ratios.is_empty() {
        m.set(
            "footprint.model_ratio",
            stats::geomean(&ratios),
            ratios.len(),
        );
    }
    m.set(
        "runtime.dynamic_over_static",
        stats::geomean(&dyn_ratio),
        dyn_ratio.len(),
    );
    m.set(
        "runtime.scaling_eff",
        stats::geomean(&scaling),
        scaling.len(),
    );
    if !ctx.host.resolves_scaling() {
        pass.rows.push(format!(
            "runtime.scaling_eff is unresolved: host.parallel_speedup_2t={:.2} < 1.5",
            ctx.host.parallel_speedup_2t
        ));
    }

    // `verify` = run + reference interpreter + compare, on the case
    // whose reference is cheapest.
    let cheapest = ready
        .iter()
        .min_by(|a, b| a.reference_ms.total_cmp(&b.reference_ms))
        .expect("a workload has cases");
    let t0 = Instant::now();
    let outcome = cheapest
        .exec
        .verify(ctx.seed, &base)
        .map_err(|e| e.to_string())?;
    m.set("runtime.verify_ms", t0.elapsed().as_secs_f64() * 1e3, 1);
    pass.attempted += 1;
    if !outcome.matches_reference {
        pass.fail(|| format!("{}: verify reports a mismatch", cheapest.name));
    }
    probe_machine(ctx, pass)
}

/// Simulate the smallest stencil and hold the simulator's cold misses to
/// the executor's measured first touches, tile by tile.
fn probe_machine(ctx: &Ctx, pass: &mut Pass) -> Result<(), String> {
    let nest = alp::loopir::parse(
        "doall (i, 1, 64) { doall (j, 1, 64) { A[i,j] = B[i,j] + B[i+1,j] + B[i,j+1]; } }",
    )
    .map_err(|e| e.to_string())?;
    // The simulator builds traces on one thread per tile.
    let tiles = ctx.host.wide() as i128;
    let plan = Compiler::new(tiles)
        .plan(&nest)
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let traffic = alp::machine::run_plan(&plan, MachineConfig::uniform(0), &UniformHome)
        .map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    let exec = Executor::from_plan(&plan).map_err(|e| e.to_string())?;
    let opts = ExecOptions {
        track_touches: true,
        line_size: 1,
        ..options(ctx)
    };
    let report = exec
        .run(&exec.seeded_store(ctx.seed), &opts)
        .map_err(|e| e.to_string())?;
    pass.attempted += 1;
    let pairs = report.compare_with_traffic(&traffic);
    if pairs.is_empty() || pairs.iter().any(|(touched, cold)| touched != cold) {
        pass.fail(|| format!("machine.cold_misses differ from first touches: {pairs:?}"));
    }
    let m = &mut pass.metrics;
    m.set("machine.simulate_ms", secs * 1e3, 1);
    m.set(
        "machine.accesses_per_s",
        traffic.total_accesses() as f64 / secs.max(1e-9),
        1,
    );
    m.set("machine.cold_misses", traffic.total_cold_misses() as f64, 1);
    Ok(())
}

/// Run one pass of `workload`.
pub fn run(ctx: &Ctx, workload: &str) -> Result<Pass, String> {
    let cases = cases(workload, ctx.quick);
    let mut pass = Pass::default();
    let mut oracles: Vec<Oracle> = Vec::new();
    let (ready, setup_s, setup_reps) = repeat_setup(ctx.setup_budget(), |_, pieces| {
        let ready = cases
            .iter()
            .enumerate()
            .map(|(k, c)| setup_case(ctx, c, oracles.get(k).copied(), pieces))
            .collect::<Result<Vec<_>, _>>()?;
        oracles = ready
            .iter()
            .map(|r| Oracle {
                sum: r.reference_sum,
                ms: r.reference_ms,
            })
            .collect();
        Ok(ready)
    })?;
    for r in &ready {
        pass.rows.push(format!(
            "case {} grid={:?} transform={} relaxed={} iterations={} store_mb={:.1} reference_ms={:.1}",
            r.name,
            r.plan.proc_grid,
            r.plan.transform.is_some(),
            r.exec.uses_relaxed_stores(),
            r.iterations,
            r.exec.store_bytes() as f64 / 1e6,
            r.reference_ms,
        ));
    }

    ctx.condition(ctx.host.threads);
    let no_runs = || -> Runs { ready.iter().map(|_| Vec::new()).collect() };
    if !ctx.traced {
        let mut runs = no_runs();
        measure(
            ctx,
            &ready,
            ctx.window,
            &mut Tracer::new(false),
            &mut pass,
            &mut runs,
        );
        let floors = case_floors(&ready, &runs)?;
        let rates: Vec<f64> = ready
            .iter()
            .zip(&floors)
            .map(|(r, ms)| r.iterations as f64 / (ms / 1e3))
            .collect();
        for ((r, ms), (rate, reps)) in ready.iter().zip(&floors).zip(rates.iter().zip(&runs)) {
            let sorted = stats::sorted(reps.iter().map(wall_ms).collect());
            let tail = stats::tail(&sorted)
                .filter(|(p, _)| *p > 50.0)
                .map_or(String::new(), |(p, v)| format!(" p{p}={v:.3}"));
            pass.rows.push(format!(
                "case {} run_ms undisturbed={ms:.3} wall: floor={:.3} p50={:.3}{tail} iters_per_s={rate:.0} runs={}",
                r.name,
                sorted[0],
                stats::percentile(&sorted, 50.0),
                reps.len()
            ));
        }
        let samples = runs.iter().map(Vec::len).min().unwrap_or(0);
        let m = &mut pass.metrics;
        m.set("setup_s", setup_s, setup_reps);
        m.set("work_per_s", stats::geomean(&rates), samples);
        m.set("op_ms", stats::geomean(&floors), samples);
        return Ok(pass);
    }

    // A third of the window untraced and a third under spans, in
    // alternating turns so a slow phase of the host falls on both.
    const TURNS: u32 = 3;
    let turn = ctx.window / (3 * TURNS);
    let (mut base, mut traced) = (no_runs(), no_runs());
    let mut tracer = Tracer::new(true);
    for _ in 0..TURNS {
        measure(
            ctx,
            &ready,
            turn,
            &mut Tracer::new(false),
            &mut pass,
            &mut base,
        );
        measure(ctx, &ready, turn, &mut tracer, &mut pass, &mut traced);
    }
    let base_ms = case_floors(&ready, &base)?;
    let traced_ms = case_floors(&ready, &traced)?;
    pass.spans = tracer.finish();
    let summary = trace::summarize(&pass.spans);

    let all: Vec<&RunReport> = traced.iter().flatten().collect();
    let pooled = |f: &dyn Fn(&RunReport) -> f64| {
        stats::median(&all.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let busy_share = pooled(&|r| {
        let busy: f64 = r.per_thread.iter().map(|t| t.busy.as_secs_f64()).sum();
        busy / (r.threads as f64 * r.wall.as_secs_f64()).max(1e-12)
    });
    let barrier_ms = pooled(&|r| {
        let wait: f64 = r
            .per_thread
            .iter()
            .map(|t| t.barrier_wait.as_secs_f64())
            .sum();
        wait / r.threads.max(1) as f64 * 1e3
    });
    let imbalance = pooled(&|r| {
        let busy: Vec<f64> = r.per_tile.iter().map(|t| t.busy.as_secs_f64()).collect();
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        busy.iter().copied().fold(0.0, f64::max) / mean.max(1e-12)
    });
    let geo = |f: &dyn Fn(&Ready) -> f64| stats::geomean(&ready.iter().map(f).collect::<Vec<_>>());
    let ns_per_iter: Vec<f64> = ready
        .iter()
        .zip(&traced_ms)
        .map(|(r, ms)| ms * 1e6 / r.iterations as f64)
        .collect();
    let relaxed = ready
        .iter()
        .filter(|r| r.exec.uses_relaxed_stores())
        .count();
    let n = all.len();
    let m = &mut pass.metrics;
    m.set("runtime.lower_us", geo(&|r| r.lower_us), ready.len());
    m.set("runtime.store_ms", geo(&|r| r.store_ms), ready.len());
    m.set(
        "runtime.reference_ms",
        geo(&|r| r.reference_ms),
        ready.len(),
    );
    m.set(
        "runtime.reference_ns_per_iter",
        geo(&|r| r.reference_ms * 1e6 / r.iterations as f64),
        ready.len(),
    );
    m.set("runtime.run_ms", stats::geomean(&traced_ms), n);
    m.set("runtime.ns_per_iter", stats::geomean(&ns_per_iter), n);
    m.set("runtime.busy_share", busy_share, n);
    m.set("runtime.barrier_wait_ms", barrier_ms, n);
    m.set("runtime.tile_busy_max_over_mean", imbalance, n);
    // Counts of one run of each case, so they repeat from pass to pass.
    let per_round = |f: &dyn Fn(&RunReport) -> u64| -> f64 {
        traced
            .iter()
            .filter_map(|reps| reps.first())
            .map(f)
            .sum::<u64>() as f64
    };
    m.set(
        "runtime.cancellation_polls",
        per_round(&|r| r.cancellation_polls),
        ready.len(),
    );
    m.set("runtime.retries", per_round(&|r| r.retries), ready.len());
    m.set(
        "certify.fastpath_share",
        relaxed as f64 / ready.len() as f64,
        ready.len(),
    );
    m.set(
        "plan.json_bytes",
        ready
            .iter()
            .map(|r| r.plan.to_json_string().len())
            .sum::<usize>() as f64,
        1,
    );
    m.set(
        "exec.residual_rel",
        trace::residual_rel(&summary, "exec.op"),
        summary.get("exec.op").map_or(0, |s| s.count),
    );
    m.set(
        "trace.overhead_rel",
        1.0 - stats::geomean(&base_ms) / stats::geomean(&traced_ms),
        n,
    );
    pass.rows.extend(trace::share_rows(&summary, "exec.op"));
    probe_layers(ctx, &ready, &mut pass)?;
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_undisturbed_run_takes_every_tile_at_its_floor() {
        // Four tiles on two threads, tile t on thread t mod 2; a slow
        // phase falls on different tiles in each run.
        let run = |wall: f64, busy: [f64; 4]| Timing {
            wall,
            threads: 2,
            tiles: busy.iter().enumerate().map(|(t, &b)| (t % 2, b)).collect(),
        };
        let runs = [
            // threads busy 4+9 = 13 and 2+3 = 5; 1.0 outside the tiles
            run(14.0, [4.0, 2.0, 9.0, 3.0]),
            // threads busy 8+5 = 13 and 6+3 = 9; 0.5 outside
            run(13.5, [8.0, 6.0, 5.0, 3.0]),
        ];
        // Floors 4, 2, 5, 3: threads 4+5 = 9 and 2+3 = 5; 9 + 0.5.
        assert_eq!(undisturbed_ms(&runs), Some(9.5));
        assert_eq!(undisturbed_ms(&runs[..1]), Some(14.0));
        assert_eq!(undisturbed_ms(&[]), None);
    }
}
