//! Workload `compile-cold`: the compile path does all the work.
//!
//! One operation takes DSL text to a certified, encoded, decoded and
//! byte-stably re-encoded plan:
//! `parse → Compiler::plan → certify → to_json_string → from_json_str`.
//! The corpus is cycled in order, so every cycle has the same mix.

use crate::gen::{self, Family, NestSpec};
use crate::pass::{repeat_setup, Ctx, Pass, Pieces};
use crate::stats;
use crate::trace::{self, Tracer};
use alp::calibrate::LatencyModel;
use alp::linalg::Rat;
use alp::loopir::LoopNest;
use alp::partition::ParaSearchConfig;
use alp::plan::{LegalityVerdict, PartitionPlan};
use alp::Compiler;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// One operation of the cycle: a nest, or the skewed twin of a 2-D
/// skewed-reference nest.
#[derive(Debug, Clone)]
pub struct Op {
    /// The generated nest.
    pub spec: NestSpec,
    /// Plan `with_skewed_tiles()`.
    pub skewed: bool,
    /// Processors this operation plans for.
    pub processors: i128,
}

/// A skewed plan tiles the bounding box of the transformed space, so an
/// elongated nest gets many more tiles than processors and its
/// certificate, pairwise in tiles, costs 15–220 ms at P = 16 and about
/// 200 ms at P = 64 — hundreds of median operations, and a different
/// handful of them for every seed.  They would decide throughput on
/// their own, so the twin is planned for at most this many processors.
const SKEWED_TWIN_MAX_PROCESSORS: i128 = 4;

/// The cycle for a corpus: every nest, and after each 2-D skewed nest its
/// twin planned `with_skewed_tiles()`.
pub fn ops(corpus: &[NestSpec]) -> Vec<Op> {
    let mut out = Vec::with_capacity(corpus.len() + corpus.len() / 6 + 1);
    for spec in corpus {
        out.push(Op {
            spec: spec.clone(),
            skewed: false,
            processors: spec.processors,
        });
        if spec.family == Family::Skewed2d {
            out.push(Op {
                spec: spec.clone(),
                skewed: true,
                processors: spec.processors.min(SKEWED_TWIN_MAX_PROCESSORS),
            });
        }
    }
    out
}

fn compiler(op: &Op) -> Compiler {
    let c = Compiler::new(op.processors);
    if op.skewed {
        c.with_skewed_tiles()
    } else {
        c
    }
}

/// Certify, encode, decode and re-encode; the tail every operation shares.
fn certify_and_round_trip(plan: PartitionPlan, t: &mut Tracer) -> Result<String, String> {
    let s = t.open("certify.certify");
    let report = alp::certify::certify(&plan);
    t.close(s);
    let plan = plan.with_certificate(report.map_err(|e| e.to_string())?.certificate);
    let s = t.open("plan.encode");
    let json = plan.to_json_string();
    t.close(s);
    let s = t.open("plan.decode");
    let back = PartitionPlan::from_json_str(&json);
    t.close(s);
    let s = t.open("plan.encode");
    let again = back.map_err(|e| e.to_string())?.to_json_string();
    t.close(s);
    if again != json {
        return Err("plan does not re-encode byte-stably".into());
    }
    Ok(json)
}

/// The operation as a user of the facade runs it.
pub fn compile_once(op: &Op) -> Result<String, String> {
    let nest = alp::loopir::parse(&op.spec.source).map_err(|e| e.to_string())?;
    let plan = compiler(op).plan(&nest).map_err(|e| e.to_string())?;
    certify_and_round_trip(plan, &mut Tracer::new(false))
}

/// The same operation with `Compiler::plan` taken apart into the layer
/// calls it makes, one span around each.  Its output must equal
/// [`compile_once`]'s byte for byte, which is what licenses reading the
/// spans as a breakdown of the facade call.
pub fn compile_once_layers(op: &Op, t: &mut Tracer) -> Result<String, String> {
    let root = t.open("compile.op");
    let out = (|| {
        let s = t.open("loopir.parse");
        let nest = alp::loopir::parse(&op.spec.source);
        t.close(s);
        let nest = nest.map_err(|e| e.to_string())?;
        let s = t.open("analysis.analyze");
        let report = alp::analysis::analyze(&nest);
        t.close(s);
        if report.has_errors() {
            return Err("legality analysis refused a generated nest".to_string());
        }
        let verdict = LegalityVerdict::Checked {
            warnings: report.count(alp::analysis::Severity::Warning),
        };
        let plan = if op.skewed {
            let s = t.open("partition.para2d");
            let cands =
                alp::plan::skewed_candidates(&nest, op.processors, &ParaSearchConfig::default());
            t.close(s);
            let cands = cands.map_err(|e| e.to_string())?;
            let best = cands.first().ok_or("no skewed candidate")?;
            let s = t.open("plan.build");
            let plan = PartitionPlan::build_skewed(
                &nest,
                op.processors,
                None,
                verdict,
                best,
                "para-exhaustive",
            );
            t.close(s);
            plan
        } else {
            let s = t.open("partition.rect");
            let partition = alp::partition::partition_rect(&nest, op.processors);
            t.close(s);
            let s = t.open("plan.build");
            let plan = PartitionPlan::build_with_partition(
                &nest,
                op.processors,
                None,
                verdict,
                partition,
                "rect-exhaustive",
            );
            t.close(s);
            plan
        };
        certify_and_round_trip(plan.map_err(|e| e.to_string())?, t)
    })();
    t.close(root);
    out
}

/// What set-up leaves behind: the cycle and each operation's reference
/// output.
#[derive(Debug)]
pub struct Ready {
    /// The cycle.
    pub ops: Vec<Op>,
    /// `expected[k]` is the plan JSON of `ops[k]` from the set-up pass.
    pub expected: Vec<String>,
    /// Share of plans whose certificate unlocks the relaxed-store path.
    pub fastpath_share: f64,
}

/// The verdicts a generated nest must get, known from how it was built:
/// every tiling covers and stays in bounds; identity writes never
/// collide, while an accumulate collides exactly when the grid splits a
/// loop its left-hand side does not name; only accumulates are not
/// idempotent.  A skewed twin tiles the bounding box of the transformed
/// space, so its tile count is not `P`, and the certifier may refuse to
/// prove its writes disjoint (it over-approximates clipped tiles): those
/// two facts are pinned for rectangular plans only.
fn check_known_answers(op: &Op, plan: &PartitionPlan) -> Result<(), String> {
    let cert = plan.certificate.as_ref().ok_or("plan has no certificate")?;
    let reduced_dim = match op.spec.family {
        Family::Matmul => Some(2),
        Family::RowSum => Some(1),
        _ => None,
    };
    let disjoint = reduced_dim.is_none_or(|d| plan.proc_grid[d] == 1);
    let expect = [
        ("coverage", cert.coverage, true),
        ("in_bounds", cert.in_bounds, true),
        ("idempotent", cert.idempotent, !op.spec.family.accumulates()),
    ];
    for (fact, got, want) in expect {
        if got != want {
            return Err(format!("certificate says {fact}={got}, built to be {want}"));
        }
    }
    if op.skewed {
        return Ok(());
    }
    if cert.write_disjoint != disjoint {
        return Err(format!(
            "certificate says write_disjoint={}, grid {:?} makes it {disjoint}",
            cert.write_disjoint, plan.proc_grid
        ));
    }
    if plan.tiles() != op.processors {
        return Err(format!(
            "plan has {} tiles for {} processors",
            plan.tiles(),
            op.processors
        ));
    }
    Ok(())
}

/// Generate the corpus, compile every operation once, and check each
/// result: the certificate re-proves (`recheck`), its verdicts are the
/// ones the generator built the nest to have, and no two nests share a
/// fingerprint.  The corpus and each operation are one piece of the
/// set-up each.
pub fn setup(seed: u64, nests: usize, pieces: &mut Pieces) -> Result<Ready, String> {
    let ops = pieces.time(|| ops(&gen::corpus(seed, nests, &gen::COMPILE_SHAPE)));
    let mut expected = Vec::with_capacity(ops.len());
    let mut fingerprints = HashSet::new();
    let mut fastpath = 0usize;
    for op in &ops {
        let at = |e: String| format!("{e}\n  nest: {}", op.spec.source);
        let (json, proven) = pieces
            .time(|| {
                let json = compile_once(op)?;
                let plan = PartitionPlan::from_json_str(&json).map_err(|e| e.to_string())?;
                let proven = alp::certify::recheck(&plan).map_err(|e| e.to_string())?;
                check_known_answers(op, &plan)?;
                if !op.skewed && !fingerprints.insert(plan.fingerprint.clone()) {
                    return Err("two corpus nests share a fingerprint".to_string());
                }
                Ok((json, proven))
            })
            .map_err(at)?;
        fastpath += usize::from(proven.coverage && proven.write_disjoint);
        expected.push(json);
    }
    Ok(Ready {
        fastpath_share: fastpath as f64 / ops.len() as f64,
        ops,
        expected,
    })
}

/// Samples of one measured window.
#[derive(Debug, Default)]
struct Window {
    /// `per_op_ms[k]`: the latency of `ops[k]` in each cycle that reached it.
    per_op_ms: Vec<Vec<f64>>,
}

impl Window {
    fn new(ops: usize) -> Self {
        Window {
            per_op_ms: vec![Vec::new(); ops],
        }
    }

    /// Every operation's latency as run, ascending.
    fn sorted_ms(&self) -> Vec<f64> {
        stats::sorted(self.per_op_ms.iter().flatten().copied().collect())
    }

    /// Each operation's floor across cycles: the same nest compiled twenty
    /// times costs the same twenty times, and what differs is the host.
    fn floors_ms(&self) -> Vec<f64> {
        self.per_op_ms
            .iter()
            .filter(|xs| !xs.is_empty())
            .map(|xs| stats::floor(xs))
            .collect()
    }

    /// Plans per second of one undisturbed cycle.
    fn plans_per_s(&self) -> f64 {
        let floors = self.floors_ms();
        floors.len() as f64 / (floors.iter().sum::<f64>() / 1e3).max(1e-12)
    }

    /// Geometric mean over the corpus of each operation's floor.  The
    /// corpus's costs come in clusters (family × processor count) with
    /// gaps between them, and its median sits at a gap: which side it
    /// lands on turns on a seed's trip counts and moved it by 15 % from
    /// seed to seed.  The geometric mean weighs every operation and, unlike
    /// the arithmetic mean behind `plans_per_s`, not by its cost.
    fn op_ms(&self) -> f64 {
        stats::geomean(&self.floors_ms())
    }

    fn cycles(&self) -> usize {
        self.per_op_ms.first().map_or(0, Vec::len)
    }

    /// Seconds each complete cycle took, in order: how steady the host
    /// was while the window ran.
    fn cycle_seconds(&self) -> Vec<f64> {
        let complete = self.per_op_ms.last().map_or(0, Vec::len);
        (0..complete)
            .map(|c| self.per_op_ms.iter().map(|xs| xs[c]).sum::<f64>() / 1e3)
            .collect()
    }
}

/// Cycle the corpus for `window`, adding to `w` and checking every output
/// against the set-up pass byte for byte.
fn measure(
    ready: &Ready,
    window: Duration,
    pass: &mut Pass,
    w: &mut Window,
    mut run: impl FnMut(&Op) -> Result<String, String>,
) {
    let begin = Instant::now();
    'window: loop {
        for (k, (op, expected)) in ready.ops.iter().zip(&ready.expected).enumerate() {
            if begin.elapsed() >= window {
                break 'window;
            }
            let t0 = Instant::now();
            let out = run(op);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            w.per_op_ms[k].push(ms);
            pass.attempted += 1;
            match out {
                Ok(json) if json == *expected => {}
                Ok(_) => {
                    pass.fail(|| format!("plan JSON changed between passes: {}", op.spec.source))
                }
                Err(e) => pass.fail(|| format!("{e}: {}", op.spec.source)),
            }
        }
    }
}

/// Fixed, committed coefficients for the calibrated ranker's probe: the
/// ledger times the ranking, it does not fit a model.
fn fixed_latency_model() -> LatencyModel {
    LatencyModel {
        per_tile_ns: Rat::int(1500),
        per_line_ns: Rat::new(1, 2),
        per_span_line_ns: Rat::new(1, 8),
        per_iter_ns: Rat::new(3, 4),
        per_rep_ns: Rat::int(40_000),
        samples: 32,
    }
}

fn time_us<R>(samples: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    samples.push(t0.elapsed().as_secs_f64() * 1e6);
    r
}

/// Direct timed calls into the layers `Compiler::plan` hides, and the
/// exact counts of the corpus.
fn probe_layers(ctx: &Ctx, ready: &Ready, pass: &mut Pass) -> Result<(), String> {
    let m = &mut pass.metrics;
    let (mut classify, mut fingerprint, mut choose, mut emit, mut recheck) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut classes, mut findings, mut candidates, mut json_bytes) =
        (0usize, 0usize, 0usize, 0usize);
    let latency = fixed_latency_model();
    let mut first_3d: Option<(LoopNest, i128)> = None;
    for (k, (op, json)) in ready.ops.iter().zip(&ready.expected).enumerate() {
        json_bytes += json.len();
        let nest = alp::loopir::parse(&op.spec.source).map_err(|e| e.to_string())?;
        if op.skewed {
            candidates +=
                alp::plan::skewed_candidates(&nest, op.processors, &ParaSearchConfig::default())
                    .map_err(|e| e.to_string())?
                    .len();
            continue;
        }
        findings += alp::analysis::analyze(&nest).diagnostics.len();
        classes += time_us(&mut classify, || alp::footprint::classify(&nest)).len();
        time_us(&mut fingerprint, || alp::plan::fingerprint(&nest));
        let plan = PartitionPlan::from_json_str(json).map_err(|e| e.to_string())?;
        time_us(&mut emit, || {
            alp::codegen::emit_rect_code(&nest, &plan.proc_grid)
        });
        // The dearer probes sample the corpus: every fourth nest keeps
        // all families and processor counts in the sample.
        if k % 4 == 0 {
            let model = alp::footprint::CostModel::from_nest(&nest);
            time_us(&mut choose, || {
                alp::calibrate::choose_calibrated(&nest, &model, &latency, op.processors, 8)
            })
            .map_err(|e| e.to_string())?;
            time_us(&mut recheck, || alp::certify::recheck(&plan)).map_err(|e| e.to_string())?;
        }
        if op.spec.family == Family::Stencil3d && first_3d.is_none() {
            first_3d = Some((nest, op.processors));
        }
    }
    m.set(
        "footprint.classify_us",
        stats::median(&classify),
        classify.len(),
    );
    m.set("footprint.classes", classes as f64, 1);
    m.set("analysis.findings", findings as f64, 1);
    m.set("partition.para_candidates", candidates as f64, 1);
    m.set("plan.json_bytes", json_bytes as f64, 1);
    m.set(
        "plan.fingerprint_us",
        stats::median(&fingerprint),
        fingerprint.len(),
    );
    m.set("codegen.emit_us", stats::median(&emit), emit.len());
    m.set("calibrate.choose_us", stats::median(&choose), choose.len());
    m.set("certify.recheck_us", stats::median(&recheck), recheck.len());
    m.set(
        "certify.fastpath_share",
        ready.fastpath_share,
        ready.ops.len(),
    );

    // The 3-D parallelepiped search is about 3000 rect plans; it is
    // measured once here and kept out of the operation mix.
    if let Some((nest, processors)) = first_3d {
        let config = ParaSearchConfig {
            max_entry: if ctx.quick { 1 } else { 2 },
            threads: ctx.host.threads,
        };
        let t0 = Instant::now();
        std::hint::black_box(alp::partition::optimize_parallelepiped(
            &nest, processors, &config,
        ));
        m.set("partition.para3d_ms", t0.elapsed().as_secs_f64() * 1e3, 1);
    }
    Ok(())
}

/// Turns each of the untraced and the traced operation takes in the
/// traced pass.
const TURNS: u32 = 3;

/// Run one pass of the workload.
pub fn run(ctx: &Ctx) -> Result<Pass, String> {
    let nests = if ctx.quick { 36 } else { 256 };
    let mut pass = Pass::default();
    let (ready, setup_s, setup_reps) = repeat_setup(ctx.setup_budget(), |_, pieces| {
        setup(ctx.seed, nests, pieces)
    })?;
    pass.rows.push(format!(
        "corpus: {nests} nests, {} ops per cycle, set-up x{setup_reps}",
        ready.ops.len()
    ));

    // Set-up compiled every operation once; that was the warm-up.
    ctx.condition(1);
    if !ctx.traced {
        let mut w = Window::new(ready.ops.len());
        measure(&ready, ctx.window, &mut pass, &mut w, compile_once);
        let sorted = w.sorted_ms();
        let m = &mut pass.metrics;
        m.set("setup_s", setup_s, setup_reps);
        m.set("work_per_s", w.plans_per_s(), w.cycles());
        m.set("op_ms", w.op_ms(), w.cycles());
        let tail = stats::tail(&sorted).map_or(String::new(), |(p, v)| format!(" p{p}={v:.3}"));
        pass.rows.push(format!(
            "compile_ms as run: p50={:.3}{tail} n={} cycles={}",
            stats::percentile(&sorted, 50.0),
            sorted.len(),
            w.cycles()
        ));
        let series: Vec<String> = w
            .cycle_seconds()
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect();
        pass.rows
            .push(format!("cycle seconds: {}", series.join(" ")));
        return Ok(pass);
    }

    // Traced pass: a third of the window untraced as the baseline and a
    // third with the operation taken apart under spans, in alternating
    // turns so a slow phase of the host falls on both; then the probes.
    let turn = ctx.window / (3 * TURNS);
    let (mut base, mut traced) = (Window::new(ready.ops.len()), Window::new(ready.ops.len()));
    let mut tracer = Tracer::new(true);
    let (mut op_id, mut parsed_bytes) = (0u64, 0usize);
    for _ in 0..TURNS {
        measure(&ready, turn, &mut pass, &mut base, compile_once);
        measure(&ready, turn, &mut pass, &mut traced, |op| {
            op_id += 1;
            parsed_bytes += op.spec.source.len();
            tracer.set_op(op_id);
            compile_once_layers(op, &mut tracer)
        });
    }
    pass.spans = tracer.finish();
    let summary = trace::summarize(&pass.spans);
    let p50 = |name: &str| summary.get(name).map_or(0.0, |s| s.p50_us());
    let count = |name: &str| summary.get(name).map_or(0, |s| s.count);

    let parse = summary.get("loopir.parse").cloned().unwrap_or_default();
    let m = &mut pass.metrics;
    m.set("loopir.parse_us", parse.p50_us(), parse.count);
    m.set(
        "loopir.bytes_per_s",
        parsed_bytes as f64 / (parse.total_ns as f64 / 1e9).max(1e-9),
        parse.count,
    );
    for (metric, span) in [
        ("analysis.analyze_us", "analysis.analyze"),
        ("partition.rect_us", "partition.rect"),
        ("partition.para2d_us", "partition.para2d"),
        ("plan.build_us", "plan.build"),
        ("plan.encode_us", "plan.encode"),
        ("plan.decode_us", "plan.decode"),
        ("certify.certify_us", "certify.certify"),
    ] {
        m.set(metric, p50(span), count(span));
    }
    let base_sorted = base.sorted_ms();
    m.set(
        "compile.ms.p95",
        stats::percentile(&base_sorted, 95.0),
        base_sorted.len(),
    );
    m.set(
        "compile.residual_rel",
        trace::residual_rel(&summary, "compile.op"),
        count("compile.op"),
    );
    m.set(
        "trace.overhead_rel",
        1.0 - traced.plans_per_s() / base.plans_per_s(),
        traced.cycles(),
    );
    pass.rows.extend(trace::share_rows(&summary, "compile.op"));
    probe_layers(ctx, &ready, &mut pass)?;
    Ok(pass)
}
