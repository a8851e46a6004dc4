//! E-RT: native runtime wall-clock — the model-optimal tile shape vs
//! naive baselines at the same thread count, on real threads and real
//! `f64` arrays (not the simulator).
//!
//! Four experiments:
//!
//! * Example 8's 3-D stencil: `partition_rect`'s grid vs naive square
//!   blocks and row slabs;
//! * an additive matmul-style accumulate nest: uncontended `i,j` blocks
//!   vs a naive `k`-split whose tiles all CAS on the same output
//!   elements;
//! * a row reduction: `i`-split vs square blocks vs a contended
//!   `j`-split;
//! * Example 2's skewed 2-D nest: strips (the analytic model's choice)
//!   vs square blocks.
//!
//! Every configuration is validated bitwise against the sequential
//! reference before timing.  Timing runs do `WARMUP` untimed passes and
//! then `TRIALS` timed passes, reporting the minimum (the noise floor)
//! and the median; touch tracking stays off so the timing measures only
//! kernel execution.  A separate tracked run measures each tiling's
//! worst-tile distinct-line footprint next to the model's prediction.
//!
//! Before the cases run, the harness calibrates the hybrid latency
//! model on this machine (`fit_nest` over the same four nests) and
//! reports three rankings per case — analytic footprint cost,
//! calibrated hybrid cost, and measured wall time — plus an explicit
//! `inversion` flag whenever the analytic choice is measurably not the
//! fastest (the Example-2 defect this flag was built to expose).
//! Candidates whose walls differ by less than `NOISE_REL` count as
//! tied, so agreement is judged only on measurably ordered pairs.
//!
//! Two skewed cases (Examples 2 and 10) then time the best
//! parallelepiped candidate — executed natively as rectangular tiles in
//! `j = i·U` with `U⁻¹` composed into the kernels — against the
//! rectangular planner's choice, recording which model (calibrated or
//! analytic fallback) ranked the skewed candidates.
//!
//! A hardening check re-times Example 8's optimal tiling with the
//! executor's guards armed (deadline + cancel token + retry budget) to
//! show the fault-free overhead of the hardened path stays within
//! noise.  A final sweep plans every (nest, P) pair through a `PlanCache`
//! and lowers what comes out, to measure the plan cache.  `--json` additionally
//! writes `BENCH_runtime.json` with walls, footprints, rankings, the
//! fitted coefficients, and the cache figures.

use alp::calibrate::grid_features;
use alp::prelude::*;
use alp::Compiler;
use alp_bench::{detected_cores, header, min_median, Table};
use std::time::{Duration, Instant};

const THREADS: usize = 8;
const TRIALS: usize = 7;
const WARMUP: usize = 2;
/// Walls within this relative distance count as tied: on an
/// oversubscribed or noisy box, orderings inside the noise band flip
/// run to run and prove nothing.
const NOISE_REL: f64 = 0.05;

struct GridResult {
    label: &'static str,
    grid: Vec<i128>,
    wall: Duration,
    wall_median: Duration,
    model_cost: f64,
    hybrid_cost: f64,
    measured_lines: u64,
    matches: bool,
}

struct CaseResult {
    name: &'static str,
    results: Vec<GridResult>,
    analytic_ranking: Vec<&'static str>,
    calibrated_ranking: Vec<&'static str>,
    measured_ranking: Vec<&'static str>,
    inversion: bool,
    calibrated_agrees: bool,
    degenerate_calibration: bool,
    speedup_first_over_fastest: f64,
}

/// `WARMUP` untimed passes, then best-of-`TRIALS` and median wall time
/// for one grid, with touch tracking off so the timing measures only
/// kernel execution.  A separate tracked run measures the worst tile's
/// distinct-line footprint, and a verified run checks bitwise equality
/// with the sequential reference.
fn bench_grid(
    nest: &LoopNest,
    grid: &[i128],
    label: &'static str,
    latency: &LatencyModel,
) -> GridResult {
    let exec = Executor::from_grid(nest, grid).expect("executable nest");
    let timing = ExecOptions {
        threads: THREADS,
        schedule: Schedule::Static,
        line_size: 1,
        track_touches: false,
        ..ExecOptions::default()
    };
    let outcome = exec.verify(42, &timing).expect("fault-free run succeeds");
    for _ in 0..WARMUP {
        let store = exec.seeded_store(42);
        exec.run(&store, &timing).expect("fault-free run");
    }
    let walls: Vec<Duration> = (0..TRIALS)
        .map(|_| {
            let store = exec.seeded_store(42);
            exec.run(&store, &timing).expect("fault-free run").wall
        })
        .collect();
    let (wall, wall_median) = min_median(&walls);
    let tracked = ExecOptions {
        track_touches: true,
        ..timing
    };
    let store = exec.seeded_store(42);
    let measured_lines = exec
        .run(&store, &tracked)
        .expect("fault-free run")
        .max_tile_footprint()
        .unwrap_or(0);
    let model = CostModel::from_nest(nest);
    let model_cost = model.cost_rect(exec.tile_extents()).to_f64();
    let features = grid_features(nest, &model, grid, 1).expect("benchmark grid is feasible");
    let hybrid_cost = latency.hybrid_cost(&features).to_f64();
    GridResult {
        label,
        grid: grid.to_vec(),
        wall,
        wall_median,
        model_cost,
        hybrid_cost,
        measured_lines,
        matches: outcome.matches_reference,
    }
}

/// Labels sorted ascending by a per-result score (stable: the input
/// order breaks exact ties).
fn ranking_by(results: &[GridResult], score: impl Fn(&GridResult) -> f64) -> Vec<&'static str> {
    let mut idx: Vec<usize> = (0..results.len()).collect();
    idx.sort_by(|&a, &b| {
        score(&results[a])
            .partial_cmp(&score(&results[b]))
            .expect("finite scores")
    });
    idx.into_iter().map(|i| results[i].label).collect()
}

/// True when `a` beats `b` by more than the noise band.
fn measurably_faster(a: Duration, b: Duration) -> bool {
    a.as_secs_f64() < b.as_secs_f64() * (1.0 - NOISE_REL)
}

fn run_case(
    name: &'static str,
    nest: &LoopNest,
    grids: Vec<(&'static str, Vec<i128>)>,
    latency: &LatencyModel,
) -> CaseResult {
    println!(
        "\n{name} ({} threads, min/median of {TRIALS} after {WARMUP} warmup):",
        THREADS
    );
    let t = Table::new(&[
        ("tiling", 16),
        ("grid", 14),
        ("wall-min", 11),
        ("wall-med", 11),
        ("model/tile", 10),
        ("hybrid-ns", 12),
        ("meas/tile", 9),
        ("bitwise", 7),
    ]);
    let results: Vec<GridResult> = grids
        .into_iter()
        .map(|(label, grid)| bench_grid(nest, &grid, label, latency))
        .collect();
    for r in &results {
        t.row(&[
            &r.label,
            &format!("{:?}", r.grid),
            &format!("{:.3?}", r.wall),
            &format!("{:.3?}", r.wall_median),
            &format!("{:.0}", r.model_cost),
            &format!("{:.0}", r.hybrid_cost),
            &r.measured_lines,
            &if r.matches { "ok" } else { "FAIL" },
        ]);
        assert!(r.matches, "{name}/{}: parallel != sequential", r.label);
    }

    let analytic_ranking = ranking_by(&results, |r| r.model_cost);
    // With the per-line and per-span coefficients fitted to zero every
    // candidate gets the same hybrid cost; a "calibrated" ranking would
    // just echo the input order.  Detect the tie and fall back to the
    // analytic order explicitly so the report never presents sort
    // stability as a prediction.
    let degenerate_calibration = results.len() > 1
        && results
            .windows(2)
            .all(|w| w[0].hybrid_cost == w[1].hybrid_cost);
    let calibrated_ranking = if degenerate_calibration {
        analytic_ranking.clone()
    } else {
        ranking_by(&results, |r| r.hybrid_cost)
    };
    let measured_ranking = ranking_by(&results, |r| r.wall.as_secs_f64());

    // The first listed tiling is the analytic model's choice; an
    // inversion means some baseline measurably beats it.
    let first = &results[0];
    let fastest = results
        .iter()
        .min_by_key(|r| r.wall)
        .expect("at least one tiling");
    let inversion = results
        .iter()
        .any(|r| measurably_faster(r.wall, first.wall));
    let speedup_first_over_fastest = fastest.wall.as_secs_f64() / first.wall.as_secs_f64();
    if inversion {
        eprintln!(
            "warning: {name}: inversion — model choice `{}` ({:.3?}) is not the \
             measured fastest; `{}` runs {:.2}x faster",
            first.label,
            first.wall,
            fastest.label,
            first.wall.as_secs_f64() / fastest.wall.as_secs_f64()
        );
    }

    // The calibrated ranking agrees when every measurably ordered pair
    // of walls is ordered the same way by its score.  Under a
    // degenerate calibration the score in force is the analytic
    // fallback — comparing the tied hybrid costs would report `false`
    // for every ordered pair regardless of what the fallback predicts.
    let score = |r: &GridResult| {
        if degenerate_calibration {
            r.model_cost
        } else {
            r.hybrid_cost
        }
    };
    let mut calibrated_agrees = true;
    for a in &results {
        for b in &results {
            if measurably_faster(a.wall, b.wall) && score(a) >= score(b) {
                calibrated_agrees = false;
            }
        }
    }

    let leanest = results.iter().min_by_key(|r| r.measured_lines).unwrap();
    println!(
        "fastest: {} at {:.3?}; smallest measured footprint: {} ({} lines/tile)",
        fastest.label, fastest.wall, leanest.label, leanest.measured_lines
    );
    println!(
        "rankings  analytic: {analytic_ranking:?}  calibrated: {calibrated_ranking:?}  \
         measured: {measured_ranking:?}"
    );
    println!(
        "calibrated ranking {} the measured ordering{}{}",
        if calibrated_agrees {
            "agrees with"
        } else {
            "DISAGREES with"
        },
        if inversion { "  [inversion]" } else { "" },
        if degenerate_calibration {
            "  [degenerate calibration: analytic fallback]"
        } else {
            ""
        }
    );
    CaseResult {
        name,
        results,
        analytic_ranking,
        calibrated_ranking,
        measured_ranking,
        inversion,
        calibrated_agrees,
        degenerate_calibration,
        speedup_first_over_fastest,
    }
}

struct SkewedCase {
    name: &'static str,
    /// Rows of the chosen unimodular `U` (j = i·U).
    u_rows: Vec<Vec<i128>>,
    /// Which model picked the skewed candidate: `"calibrated"` when the
    /// hybrid costs separate the candidates, `"analytic"` when the
    /// calibration is degenerate and the Theorem-2 order decided.
    ranked_by: &'static str,
    /// `[0]` = the skewed choice, `[1]` = the rectangular baseline.
    results: Vec<GridResult>,
    /// True when the rectangular baseline measurably beats the skewed
    /// choice — same noise band as the rectangular cases.
    inversion: bool,
    speedup_skewed_over_rect: f64,
}

/// Time the best skewed parallelepiped candidate — executed natively as
/// rectangular tiles in `j = i·U` with `U⁻¹` composed into the kernels —
/// against the rectangular planner's choice on the same nest, at the
/// same thread count and trial protocol as every other case.
fn bench_skewed_case(
    name: &'static str,
    nest: &LoopNest,
    p: i128,
    latency: &LatencyModel,
) -> SkewedCase {
    let timing = ExecOptions {
        threads: THREADS,
        schedule: Schedule::Static,
        line_size: 1,
        track_touches: false,
        ..ExecOptions::default()
    };
    let cands = skewed_candidates(nest, p, &ParaSearchConfig::default())
        .expect("nest has skewed candidates");
    let ranked = rank_skewed(nest, latency, &cands, 1).expect("skewed ranking");
    // A degenerate ranking is the analytic order, so its head is the
    // Theorem-2 winner either way; the flag records which model decided.
    let best = &ranked[0];
    let cand = &cands[best.index];
    let ranked_by = if ranking_is_degenerate(&ranked) {
        "analytic"
    } else {
        "calibrated"
    };

    let exec =
        Executor::from_transformed(nest, &cand.transform, &cand.grid).expect("skewed executable");
    let outcome = exec.verify(42, &timing).expect("skewed run succeeds");
    assert!(outcome.matches_reference, "{name}: skewed != sequential");
    for _ in 0..WARMUP {
        let store = exec.seeded_store(42);
        exec.run(&store, &timing).expect("fault-free run");
    }
    let walls: Vec<Duration> = (0..TRIALS)
        .map(|_| {
            let store = exec.seeded_store(42);
            exec.run(&store, &timing).expect("fault-free run").wall
        })
        .collect();
    let (wall, wall_median) = min_median(&walls);
    let tracked = ExecOptions {
        track_touches: true,
        ..timing
    };
    let store = exec.seeded_store(42);
    let measured_lines = exec
        .run(&store, &tracked)
        .expect("fault-free run")
        .max_tile_footprint()
        .unwrap_or(0);
    let skewed_result = GridResult {
        label: "skewed",
        grid: cand.grid.clone(),
        wall,
        wall_median,
        model_cost: cand.analytic_cost as f64,
        hybrid_cost: best.hybrid_cost.to_f64(),
        measured_lines,
        matches: outcome.matches_reference,
    };

    let rect_grid = partition_rect(nest, p).proc_grid;
    let rect_result = bench_grid(nest, &rect_grid, "rect-optimal", latency);
    assert!(rect_result.matches, "{name}: rect != sequential");

    let inversion = measurably_faster(rect_result.wall, skewed_result.wall);
    let speedup_skewed_over_rect =
        rect_result.wall.as_secs_f64() / skewed_result.wall.as_secs_f64();
    let d = cand.transform.depth();
    let u_rows: Vec<Vec<i128>> = (0..d)
        .map(|r| (0..d).map(|c| cand.transform.u()[(r, c)]).collect())
        .collect();
    SkewedCase {
        name,
        u_rows,
        ranked_by,
        results: vec![skewed_result, rect_result],
        inversion,
        speedup_skewed_over_rect,
    }
}

fn report_skewed_cases(cases: &[SkewedCase]) {
    println!("\nskewed vs rectangular (native transformed execution, {THREADS} threads):");
    let t = Table::new(&[
        ("case", 28),
        ("tiling", 12),
        ("grid", 12),
        ("wall-min", 11),
        ("wall-med", 11),
        ("meas/tile", 9),
        ("bitwise", 7),
    ]);
    for c in cases {
        for r in &c.results {
            t.row(&[
                &c.name,
                &r.label,
                &format!("{:?}", r.grid),
                &format!("{:.3?}", r.wall),
                &format!("{:.3?}", r.wall_median),
                &r.measured_lines,
                &if r.matches { "ok" } else { "FAIL" },
            ]);
        }
        println!(
            "  {}: U = {:?} (ranked by {}), skewed/rect speedup {:.2}x{}",
            c.name,
            c.u_rows,
            c.ranked_by,
            c.speedup_skewed_over_rect,
            if c.inversion {
                "  [inversion: rect measurably faster]"
            } else {
                ""
            }
        );
    }
}

struct Hardening {
    plain: Duration,
    guarded: Duration,
    overhead_pct: f64,
}

/// Fault-free overhead of the hardened execution path on one tiling:
/// identical runs with and without the guards armed (a far-future
/// deadline, a live cancel token, and a retry budget).  The guards cost
/// one relaxed atomic load per `POLL_INTERVAL` kernel iterations plus a
/// clock read at tile boundaries, so best-of-N walls should agree to
/// within noise (the budget is 3%).
fn bench_hardening(nest: &LoopNest, grid: &[i128]) -> Hardening {
    const HARDENING_TRIALS: usize = 7;
    let exec = Executor::from_grid(nest, grid).expect("executable nest");
    let plain_opts = ExecOptions {
        threads: THREADS,
        schedule: Schedule::Static,
        line_size: 1,
        track_touches: false,
        ..ExecOptions::default()
    };
    let guarded_opts = ExecOptions {
        deadline: Some(Duration::from_secs(3600)),
        cancel: Some(CancelToken::new()),
        max_retries: 1,
        ..plain_opts.clone()
    };
    let best = |opts: &ExecOptions| {
        (0..HARDENING_TRIALS)
            .map(|_| {
                let store = exec.seeded_store(42);
                exec.run(&store, opts).expect("fault-free run").wall
            })
            .min()
            .expect("at least one trial")
    };
    // Interleave-resistant: measure plain after guarded so neither side
    // systematically benefits from cache warm-up.
    let _warmup = best(&plain_opts);
    let guarded = best(&guarded_opts);
    let plain = best(&plain_opts);
    let overhead_pct = (guarded.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0;
    Hardening {
        plain,
        guarded,
        overhead_pct,
    }
}

fn report_hardening(h: &Hardening) {
    println!("\nhardened-path overhead (example8 optimal tiling, fault-free):");
    println!(
        "  plain {:.3?}, guarded (deadline+cancel+retry armed) {:.3?}  ->  {:+.2}%",
        h.plain, h.guarded, h.overhead_pct
    );
}

struct CertCase {
    name: &'static str,
    grid: Vec<i128>,
    unlocked: bool,
    certify_ms: f64,
    atomic_wall: Duration,
    relaxed_wall: Option<Duration>,
    speedup: f64,
}

/// What the certified fast path is worth: for each accumulate nest ×
/// grid, prove (or refute) cross-tile write disjointness, then time the
/// default atomic-CAS accumulate path against the certificate-gated
/// relaxed-store path on identical tiles.  A grid the certifier refutes
/// (the contended k-split) records `unlocked: false` and times only the
/// atomic path — exactly what the executor would do.  Every relaxed run
/// is validated bitwise against the sequential reference before timing,
/// and the certify wall itself is recorded as the fast path's one-time
/// admission cost.
fn bench_cert_fastpath(nests: &[(&'static str, &LoopNest, Vec<i128>)]) -> Vec<CertCase> {
    let timing = ExecOptions {
        threads: THREADS,
        schedule: Schedule::Static,
        line_size: 1,
        track_touches: false,
        ..ExecOptions::default()
    };
    let best = |exec: &Executor| {
        for _ in 0..WARMUP {
            let store = exec.seeded_store(42);
            exec.run(&store, &timing).expect("fault-free run");
        }
        (0..TRIALS)
            .map(|_| {
                let store = exec.seeded_store(42);
                exec.run(&store, &timing).expect("fault-free run").wall
            })
            .min()
            .expect("at least one trial")
    };
    nests
        .iter()
        .map(|(name, nest, grid)| {
            let tiling = Tiling::new(nest, None, grid).expect("benchmark grid is feasible");
            let partition = RectPartition {
                tile_extents: tiling.extents(),
                proc_grid: grid.clone(),
                cost: Rat::int(0),
            };
            let plan = PartitionPlan::build_with_partition(
                nest,
                grid.iter().product(),
                None,
                LegalityVerdict::Unchecked,
                partition,
                "bench-fixed-grid",
            )
            .expect("benchmark plan builds");
            let t0 = Instant::now();
            let report = certify(&plan).expect("benchmark plan certifies");
            let certify_ms = t0.elapsed().as_secs_f64() * 1e3;
            let unlocked = report.unlocks_fastpath();

            let atomic_exec = Executor::from_grid(nest, grid).expect("executable nest");
            let atomic_wall = best(&atomic_exec);
            let (relaxed_wall, speedup) = if unlocked {
                let mut relaxed_exec = Executor::from_grid(nest, grid).expect("executable nest");
                relaxed_exec.apply_certificate(true, report.certificate.idempotent);
                assert!(relaxed_exec.uses_relaxed_stores());
                let outcome = relaxed_exec
                    .verify(42, &timing)
                    .expect("relaxed run succeeds");
                assert!(
                    outcome.matches_reference,
                    "{name}: certified relaxed stores diverge from the sequential \
                     reference — the certificate proof is wrong"
                );
                let w = best(&relaxed_exec);
                (Some(w), atomic_wall.as_secs_f64() / w.as_secs_f64())
            } else {
                (None, 1.0)
            };
            CertCase {
                name,
                grid: grid.clone(),
                unlocked,
                certify_ms,
                atomic_wall,
                relaxed_wall,
                speedup,
            }
        })
        .collect()
}

fn report_cert_fastpath(cases: &[CertCase]) {
    println!("\ncertified fast path (relaxed vs atomic accumulate stores):");
    let t = Table::new(&[
        ("case", 24),
        ("grid", 14),
        ("certified", 9),
        ("certify-ms", 10),
        ("atomic", 11),
        ("relaxed", 11),
        ("speedup", 8),
    ]);
    for c in cases {
        t.row(&[
            &c.name,
            &format!("{:?}", c.grid),
            &if c.unlocked { "yes" } else { "REFUTED" },
            &format!("{:.3}", c.certify_ms),
            &format!("{:.3?}", c.atomic_wall),
            &c.relaxed_wall
                .map_or("-".to_string(), |w| format!("{w:.3?}")),
            &if c.unlocked {
                format!("{:.2}x", c.speedup)
            } else {
                "-".to_string()
            },
        ]);
    }
}

struct CacheSweep {
    keys: usize,
    warm_rounds: usize,
    cold_ms_per_compile: f64,
    warm_ms_per_compile: f64,
    speedup: f64,
    stats: CacheStats,
}

/// Plan every (nest, P) key through one `PlanCache` and lower the
/// result: one cold round that populates the cache, then `WARM_ROUNDS`
/// rounds of pure hits.  The warm path skips the legality analysis and
/// the partition search entirely and only re-runs alignment, placement,
/// and code emission.
fn bench_plan_cache(nests: &[(&'static str, &LoopNest)]) -> CacheSweep {
    const WARM_ROUNDS: usize = 5;
    // Alewife-scale machine sizes: the partition search a cold compile
    // pays for grows with the factorization count of P.
    let procs: [i128; 3] = [64, 256, 512];
    let mut cache = PlanCache::new(64);
    let mut cold = Duration::ZERO;
    let mut warm = Duration::ZERO;
    let keys = nests.len() * procs.len();
    for round in 0..=WARM_ROUNDS {
        for (_, nest) in nests {
            for &p in &procs {
                let compiler = Compiler::new(p);
                let start = Instant::now();
                let result = cache
                    .get_or_try_insert_with(compiler.plan_key(nest), || compiler.plan(nest))
                    .and_then(Compiler::lower)
                    .expect("sweep nests compile");
                let elapsed = start.elapsed();
                assert!(!result.code.is_empty());
                if round == 0 {
                    cold += elapsed;
                } else {
                    warm += elapsed;
                }
            }
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.misses as usize, keys, "every key misses exactly once");
    assert_eq!(stats.hits as usize, keys * WARM_ROUNDS, "then always hits");
    let cold_ms_per_compile = cold.as_secs_f64() * 1e3 / keys as f64;
    let warm_ms_per_compile = warm.as_secs_f64() * 1e3 / (keys * WARM_ROUNDS) as f64;
    CacheSweep {
        keys,
        warm_rounds: WARM_ROUNDS,
        cold_ms_per_compile,
        warm_ms_per_compile,
        speedup: cold_ms_per_compile / warm_ms_per_compile,
        stats,
    }
}

fn report_plan_cache(sweep: &CacheSweep) {
    println!(
        "\nplan cache ({} keys, {} warm rounds):",
        sweep.keys, sweep.warm_rounds
    );
    println!(
        "  cold compile {:.3} ms, warm compile {:.3} ms  ->  {:.1}x warm speedup",
        sweep.cold_ms_per_compile, sweep.warm_ms_per_compile, sweep.speedup
    );
    println!(
        "  hits {}  misses {}  evictions {}  hit rate {:.3}",
        sweep.stats.hits,
        sweep.stats.misses,
        sweep.stats.evictions,
        sweep.stats.hit_rate()
    );
}

fn json_escape_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

fn json_labels(labels: &[&'static str]) -> String {
    let quoted: Vec<String> = labels.iter().map(|l| format!("\"{l}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

fn write_json(
    cases: &[CaseResult],
    skewed: &[SkewedCase],
    latency: &LatencyModel,
    hardening: &Hardening,
    certs: &[CertCase],
    sweep: &CacheSweep,
) {
    let cores = detected_cores();
    let mut s = String::from("{\n");
    s.push_str("  \"benchmark\": \"runtime\",\n");
    s.push_str(&format!("  \"threads\": {THREADS},\n"));
    s.push_str(&format!("  \"cores\": {cores},\n"));
    s.push_str(&format!("  \"oversubscribed\": {},\n", THREADS > cores));
    s.push_str(&format!("  \"trials\": {TRIALS},\n"));
    s.push_str(&format!("  \"warmup\": {WARMUP},\n"));
    s.push_str(&format!("  \"noise_rel\": {NOISE_REL},\n"));
    s.push_str("  \"calibration\": {\n");
    for (key, r) in [
        ("per_tile_ns", &latency.per_tile_ns),
        ("per_line_ns", &latency.per_line_ns),
        ("per_span_line_ns", &latency.per_span_line_ns),
        ("per_iter_ns", &latency.per_iter_ns),
        ("per_rep_ns", &latency.per_rep_ns),
    ] {
        s.push_str(&format!(
            "    \"{key}\": \"{}/{}\", \"{key}_f64\": {:.6},\n",
            r.num(),
            r.den(),
            r.to_f64()
        ));
    }
    s.push_str(&format!("    \"samples\": {}\n  }},\n", latency.samples));
    s.push_str("  \"cases\": [\n");
    for (ci, case) in cases.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", case.name));
        s.push_str("      \"tilings\": [\n");
        for (ri, r) in case.results.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"label\": \"{}\", \"grid\": {:?}, \"wall_ms\": {}, \
                 \"wall_median_ms\": {}, \"model_cost_per_tile\": {:.1}, \
                 \"hybrid_cost_ns\": {:.1}, \"measured_max_tile_lines\": {}, \
                 \"matches_reference\": {}}}{}\n",
                r.label,
                r.grid,
                json_escape_ms(r.wall),
                json_escape_ms(r.wall_median),
                r.model_cost,
                r.hybrid_cost,
                r.measured_lines,
                r.matches,
                if ri + 1 < case.results.len() { "," } else { "" }
            ));
        }
        s.push_str("      ],\n");
        s.push_str(&format!(
            "      \"analytic_ranking\": {},\n",
            json_labels(&case.analytic_ranking)
        ));
        s.push_str(&format!(
            "      \"calibrated_ranking\": {},\n",
            json_labels(&case.calibrated_ranking)
        ));
        s.push_str(&format!(
            "      \"measured_ranking\": {},\n",
            json_labels(&case.measured_ranking)
        ));
        s.push_str(&format!("      \"inversion\": {},\n", case.inversion));
        s.push_str(&format!(
            "      \"calibrated_agrees_with_measured\": {},\n",
            case.calibrated_agrees
        ));
        s.push_str(&format!(
            "      \"degenerate_calibration\": {},\n",
            case.degenerate_calibration
        ));
        s.push_str(&format!(
            "      \"speedup_first_over_fastest\": {:.3},\n",
            case.speedup_first_over_fastest
        ));
        let opt = &case.results[0];
        let slowest = case.results[1..]
            .iter()
            .max_by_key(|r| r.wall)
            .unwrap_or(opt);
        s.push_str(&format!(
            "      \"speedup_first_over_slowest\": {:.3}\n",
            slowest.wall.as_secs_f64() / opt.wall.as_secs_f64()
        ));
        s.push_str(&format!(
            "    }}{}\n",
            if ci + 1 < cases.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"skewed_cases\": [\n");
    for (ci, c) in skewed.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", c.name));
        s.push_str(&format!("      \"u\": {:?},\n", c.u_rows));
        s.push_str(&format!(
            "      \"skewed_ranked_by\": \"{}\",\n",
            c.ranked_by
        ));
        s.push_str("      \"tilings\": [\n");
        for (ri, r) in c.results.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"label\": \"{}\", \"grid\": {:?}, \"wall_ms\": {}, \
                 \"wall_median_ms\": {}, \"model_cost_per_tile\": {:.1}, \
                 \"hybrid_cost_ns\": {:.1}, \"measured_max_tile_lines\": {}, \
                 \"matches_reference\": {}}}{}\n",
                r.label,
                r.grid,
                json_escape_ms(r.wall),
                json_escape_ms(r.wall_median),
                r.model_cost,
                r.hybrid_cost,
                r.measured_lines,
                r.matches,
                if ri + 1 < c.results.len() { "," } else { "" }
            ));
        }
        s.push_str("      ],\n");
        s.push_str(&format!("      \"inversion\": {},\n", c.inversion));
        s.push_str(&format!(
            "      \"speedup_skewed_over_rect\": {:.3}\n",
            c.speedup_skewed_over_rect
        ));
        s.push_str(&format!(
            "    }}{}\n",
            if ci + 1 < skewed.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"hardening\": {{\"case\": \"example8-stencil-64^3/optimal\", \
         \"plain_wall_ms\": {}, \"guarded_wall_ms\": {}, \"overhead_pct\": {:.2}}},\n",
        json_escape_ms(hardening.plain),
        json_escape_ms(hardening.guarded),
        hardening.overhead_pct
    ));
    s.push_str("  \"cert_fastpath\": [\n");
    for (ci, c) in certs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"case\": \"{}\", \"grid\": {:?}, \"fastpath_unlocked\": {}, \
             \"certify_ms\": {:.3}, \"atomic_wall_ms\": {}, \"relaxed_wall_ms\": {}, \
             \"speedup_relaxed_over_atomic\": {:.3}}}{}\n",
            c.name,
            c.grid,
            c.unlocked,
            c.certify_ms,
            json_escape_ms(c.atomic_wall),
            c.relaxed_wall.map_or("null".to_string(), json_escape_ms),
            c.speedup,
            if ci + 1 < certs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"plan_cache\": {{\"keys\": {}, \"warm_rounds\": {}, \
         \"cold_ms_per_compile\": {:.3}, \"warm_ms_per_compile\": {:.3}, \
         \"warm_speedup\": {:.1}, \"hits\": {}, \"misses\": {}, \
         \"evictions\": {}, \"hit_rate\": {:.3}}}\n",
        sweep.keys,
        sweep.warm_rounds,
        sweep.cold_ms_per_compile,
        sweep.warm_ms_per_compile,
        sweep.speedup,
        sweep.stats.hits,
        sweep.stats.misses,
        sweep.stats.evictions,
        sweep.stats.hit_rate()
    ));
    s.push_str("}\n");
    std::fs::write("BENCH_runtime.json", &s).expect("write BENCH_runtime.json");
    println!("\nwrote BENCH_runtime.json");
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    header("E-RT", "native runtime: model-optimal vs naive tilings");
    let cores = detected_cores();
    if cores < THREADS {
        eprintln!(
            "warning: oversubscribed: {THREADS} threads on {cores} core(s) — wall \
             times reflect interleaved execution, not parallel speedup"
        );
    }

    // Example 8's stencil.  The first tiling is partition_rect's choice;
    // the baselines get the same processor count.
    let ex8 = parse(
        "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
           A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
         } } }",
    )
    .unwrap();
    // Accumulates: every iteration adds into C[i,j].  Blocking over i,j
    // keeps each output element on one thread (uncontended CAS); the
    // naive k-split makes all 16 tiles hammer the same C elements.
    let acc = parse(
        "doall (i, 0, 127) { doall (j, 0, 127) { doall (k, 0, 127) {
           C[i,j] += A[i,k] + B[k,j];
         } } }",
    )
    .unwrap();
    // Row reduction: S[i] += A[i,j].  partition_rect splits the i axis
    // (smallest footprint, and each S element stays on one thread);
    // naive square blocks make 4 threads CAS the same S rows
    // concurrently, and a j-split makes all 16 collide.
    let red = parse(
        "doall (i, 0, 127) { doall (j, 0, 8191) {
           S[i] += A[i,j];
         } }",
    )
    .unwrap();
    // Example 2's skewed references: strips (the paper's partition a)
    // vs square blocks, scaled up to make the wall time measurable.
    let ex2 = parse(
        "doall (i, 101, 612) { doall (j, 1, 512) {
           A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
         } }",
    )
    .unwrap();

    // Calibrate the hybrid latency model on this machine by probing the
    // same nests the cases measure, so the calibrated ranking is a real
    // prediction of the walls below (fit on per-tile busy times, then
    // asked to order whole-grid walls).
    // Probe at the detected core count, not the benchmark thread count:
    // on an oversubscribed box per-tile busy times measured under 8:1
    // interleaving are dominated by scheduler noise and the fit
    // collapses into its intercept.
    println!(
        "\ncalibrating hybrid latency model (probing 4 nests at p=16, {} thread(s))...",
        cores.min(THREADS)
    );
    let probe_cfg = ProbeConfig {
        threads: cores.min(THREADS),
        trials: 3,
        warmup: 1,
        line_size: 1,
        seed: 42,
        max_grids: 8,
    };
    let latency = fit_nest(
        &[(&ex8, 16), (&acc, 16), (&red, 16), (&ex2, 16)],
        &probe_cfg,
    )
    .expect("calibration fit succeeds");
    println!(
        "fitted over {} samples: per-tile {:.1} ns, per-line {:.3} ns, \
         per-span-line {:.3} ns, per-iter {:.3} ns, per-rep {:.1} ns",
        latency.samples,
        latency.per_tile_ns.to_f64(),
        latency.per_line_ns.to_f64(),
        latency.per_span_line_ns.to_f64(),
        latency.per_iter_ns.to_f64(),
        latency.per_rep_ns.to_f64()
    );

    let mut cases = Vec::new();

    let optimal = partition_rect(&ex8, 16).proc_grid;
    let square = naive_partition(&ex8, 16, NaiveShape::SquareBlocks)
        .expect("square blocks")
        .proc_grid;
    let mut grids = vec![("optimal", optimal.clone())];
    if square != optimal {
        grids.push(("square", square));
    }
    grids.push(("row-slabs", vec![16, 1, 1]));
    cases.push(run_case("example8-stencil-64^3", &ex8, grids, &latency));

    cases.push(run_case(
        "accumulate-matmul-128^3",
        &acc,
        vec![("ij-blocks", vec![4, 4, 1]), ("k-split", vec![1, 1, 16])],
        &latency,
    ));

    let red_opt = partition_rect(&red, 16).proc_grid;
    let red_square = naive_partition(&red, 16, NaiveShape::SquareBlocks)
        .expect("square blocks")
        .proc_grid;
    cases.push(run_case(
        "row-reduction-128x8192",
        &red,
        vec![
            ("optimal", red_opt),
            ("square", red_square),
            ("j-split", vec![1, 16]),
        ],
        &latency,
    ));

    cases.push(run_case(
        "example2-skewed-512^2",
        &ex2,
        vec![("strips", vec![1, 16]), ("blocks", vec![4, 4])],
        &latency,
    ));

    let agreeing = cases.iter().filter(|c| c.calibrated_agrees).count();
    println!(
        "\ncalibrated ranking agrees with measured ordering on {agreeing}/{} cases",
        cases.len()
    );

    // Example 10's doubly-skewed references (B wants i±j, C wants
    // i+2j): the parallelepiped search finds a non-identity basis for
    // both nests, and the runtime executes it natively.
    let ex10 = parse(
        "doall (i, 1, 60) { doall (j, 1, 60) {
           A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2] + C[i,2*i,i+2*j-1]
                  + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1];
         } }",
    )
    .unwrap();
    let skewed_cases = vec![
        bench_skewed_case("example2-skewed-vs-rect-512^2", &ex2, 16, &latency),
        bench_skewed_case("example10-skewed-vs-rect-60^2", &ex10, 16, &latency),
    ];
    report_skewed_cases(&skewed_cases);

    let hardening = bench_hardening(&ex8, &optimal);
    report_hardening(&hardening);

    // The certified fast path pays off exactly where the default path
    // pays for atomicity: accumulate nests.  The red i-split and acc
    // ij-blocks certify write-disjoint (one owner per output element);
    // the contended k-split is refuted and must stay on the CAS path.
    let certs = bench_cert_fastpath(&[
        ("accumulate-ij-blocks", &acc, vec![4, 4, 1]),
        ("row-reduction-i-split", &red, vec![16, 1]),
        ("accumulate-k-split", &acc, vec![1, 1, 16]),
    ]);
    report_cert_fastpath(&certs);

    let sweep = bench_plan_cache(&[
        ("example8", &ex8),
        ("accumulate", &acc),
        ("reduction", &red),
        ("example2", &ex2),
    ]);
    report_plan_cache(&sweep);

    if json {
        write_json(&cases, &skewed_cases, &latency, &hardening, &certs, &sweep);
    }
}
