//! Probe runs: execute candidate tilings on the real machine and turn
//! the executor's reports into fit samples.

use crate::{fit, CalibrateError, LatencyModel, TileSample};
use alp_loopir::LoopNest;
use alp_partition::feasible_grids;
use alp_plan::{per_tile_features, Tiling, Transform};
use alp_runtime::{ExecOptions, Executor, Schedule};
use std::time::Duration;

/// Knobs for a calibration probe.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// OS threads per run (0 = one per tile: the probe builds its
    /// executors from grids, not plans).
    pub threads: usize,
    /// Timed trials per candidate grid; per-tile busy times keep the
    /// minimum across trials (noise floors, not noise averages).
    pub trials: usize,
    /// Untimed warmup runs per candidate grid (page faults, frequency
    /// ramp).
    pub warmup: usize,
    /// Elements per cache line for touch counting and span features.
    pub line_size: u64,
    /// Seed for the probe arrays.
    pub seed: u64,
    /// Cap on candidate grids probed per nest (evenly subsampled); the
    /// fit needs diverse shapes, not every factorization.
    pub max_grids: usize,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            threads: 4,
            trials: 3,
            warmup: 1,
            line_size: 1,
            seed: 42,
            max_grids: 8,
        }
    }
}

/// What a probe produced: fit samples plus the averaged critical-path
/// barrier wait.
#[derive(Debug, Clone, Default)]
pub struct ProbeReport {
    /// One sample per (probed grid, non-empty tile).
    pub samples: Vec<TileSample>,
    /// Mean per-repetition critical-path barrier wait, nanoseconds.
    pub barrier_ns: f64,
    /// Timed runs executed.
    pub runs: usize,
}

impl ProbeReport {
    /// Merge another probe's observations into this one (barrier means
    /// are combined weighted by run count).
    pub fn merge(&mut self, other: ProbeReport) {
        let total = self.runs + other.runs;
        if total > 0 {
            self.barrier_ns = (self.barrier_ns * self.runs as f64
                + other.barrier_ns * other.runs as f64)
                / total as f64;
        }
        self.runs = total;
        self.samples.extend(other.samples);
    }
}

fn runtime_err(e: alp_runtime::RuntimeError) -> CalibrateError {
    CalibrateError::Runtime(e.to_string())
}

/// Probe one nest: run up to `max_grids` feasible tilings of `p`
/// processors and extract per-tile samples.
pub fn probe_nest(
    nest: &LoopNest,
    p: i128,
    cfg: &ProbeConfig,
) -> Result<ProbeReport, CalibrateError> {
    let grids = feasible_grids(nest, p);
    if grids.is_empty() {
        return Err(CalibrateError::Plan(alp_plan::PlanError::Infeasible(
            format!("no feasible factorization of {p} processors for this nest"),
        )));
    }
    // Evenly subsample so the probed set still spans the shape range
    // (strips at both ends, blocks in the middle).
    let n = cfg.max_grids.max(1).min(grids.len());
    let selected: Vec<(Option<&Transform>, &[i128])> = (0..n)
        .map(|k| (None, &grids[k * (grids.len() - 1) / (n - 1).max(1)].0[..]))
        .collect();
    probe(nest, &selected, cfg)
}

/// Run each tiling — a grid over the nest's iteration space, or over
/// its image under a transform — natively and extract per-tile samples
/// labeled with the tiling's span/iteration features.
///
/// Samples of rectangular and skewed tilings are comparable because
/// every tile executes as rows of the nest's own space through the same
/// kernel, so `busy_ns` per iteration differs between the classes only
/// through the lines a tile touches.
fn probe(
    nest: &LoopNest,
    tilings: &[(Option<&Transform>, &[i128])],
    cfg: &ProbeConfig,
) -> Result<ProbeReport, CalibrateError> {
    let mut report = ProbeReport::default();
    for &(transform, grid) in tilings {
        let exec = match transform {
            None => Executor::from_grid(nest, grid),
            Some(t) => Executor::from_transformed(nest, t, grid),
        }
        .map_err(runtime_err)?;
        let tiling = Tiling::new(nest, transform, grid)?;
        let v = transform.map(Transform::v);
        let spans = per_tile_features(nest, &tiling, v, cfg.line_size)?;
        report.merge(probe_executor(&exec, &spans, cfg)?);
    }
    Ok(report)
}

/// Probe one tiling: a tracked run for the measured distinct-line
/// counts, then warm-up and timed runs with tracking off, keeping each
/// tile's fastest observation.  `spans[tile]` is the tile's
/// `(span, iters)` label (`None` for an empty tile).
fn probe_executor(
    exec: &Executor,
    spans: &[Option<(i128, i128)>],
    cfg: &ProbeConfig,
) -> Result<ProbeReport, CalibrateError> {
    let store = exec.seeded_store(cfg.seed);
    let mut opts = ExecOptions {
        threads: cfg.threads,
        schedule: Schedule::Static,
        line_size: cfg.line_size,
        track_touches: true,
        ..ExecOptions::default()
    };
    let touched = exec.run(&store, &opts).map_err(runtime_err)?;
    opts.track_touches = false;
    let mut best_busy: Vec<Option<Duration>> = vec![None; touched.per_tile.len()];
    let mut barrier_ns_sum = 0.0f64;
    let mut timed = 0usize;
    for round in 0..cfg.warmup + cfg.trials.max(1) {
        let run = exec.run(&store, &opts).map_err(runtime_err)?;
        if round < cfg.warmup {
            continue;
        }
        timed += 1;
        if let Some(w) = run.mean_barrier_wait() {
            barrier_ns_sum += w.as_secs_f64() * 1e9;
        }
        for t in &run.per_tile {
            let slot = &mut best_busy[t.tile];
            *slot = Some(slot.map_or(t.busy, |b| b.min(t.busy)));
        }
    }
    let reps = touched.repetitions.max(1) as f64;
    let mut samples = Vec::new();
    for t in &touched.per_tile {
        let Some(Some((span, iters))) = spans.get(t.tile) else {
            continue;
        };
        let Some(busy) = best_busy[t.tile] else {
            continue;
        };
        if *iters == 0 {
            continue;
        }
        let lines = t.distinct_lines.map(|n| n as f64).unwrap_or(*span as f64);
        samples.push(TileSample {
            busy_ns: busy.as_secs_f64() * 1e9 / reps,
            lines,
            span_lines: *span as f64,
            iters: *iters as f64,
        });
    }
    Ok(ProbeReport {
        samples,
        // At least one round is timed (`trials.max(1)`).
        barrier_ns: barrier_ns_sum / timed as f64,
        runs: timed,
    })
}

/// Probe several nests and fit one latency model from the pooled
/// samples — the one-call entry `alp-cli calibrate` uses.
pub fn fit_nest(
    nests: &[(&LoopNest, i128)],
    cfg: &ProbeConfig,
) -> Result<LatencyModel, CalibrateError> {
    let mut pooled = ProbeReport::default();
    for &(nest, p) in nests {
        pooled.merge(probe_nest(nest, p, cfg)?);
    }
    fit(&pooled.samples, pooled.barrier_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    fn quick_cfg() -> ProbeConfig {
        ProbeConfig {
            threads: 2,
            trials: 1,
            warmup: 0,
            max_grids: 4,
            ..ProbeConfig::default()
        }
    }

    #[test]
    fn probe_produces_labeled_samples() {
        let nest =
            parse("doall (i, 0, 31) { doall (j, 0, 31) { A[i,j] = B[i,j] + B[i+1,j]; } }").unwrap();
        let report = probe_nest(&nest, 4, &quick_cfg()).unwrap();
        assert!(report.runs >= 1);
        assert!(!report.samples.is_empty());
        for s in &report.samples {
            assert!(s.busy_ns >= 0.0);
            assert!(s.lines > 0.0);
            assert!(s.span_lines > 0.0);
            assert!(s.iters > 0.0);
        }
    }

    #[test]
    fn skewed_probe_produces_labeled_samples() {
        // The Example-2 shape at probe scale: skewed candidates exist
        // and the transformed executor runs them natively.
        let nest = parse(
            "doall (i, 101, 164) { doall (j, 1, 64) {
               A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
             } }",
        )
        .unwrap();
        let cands =
            alp_plan::skewed_candidates(&nest, 4, &alp_partition::ParaSearchConfig::default())
                .unwrap();
        assert!(!cands.is_empty());
        let tilings: Vec<(Option<&Transform>, &[i128])> = (cands.iter().take(4))
            .map(|c| (Some(&c.transform), &c.grid[..]))
            .collect();
        let report = probe(&nest, &tilings, &quick_cfg()).unwrap();
        assert!(report.runs >= 1);
        assert!(!report.samples.is_empty());
        for s in &report.samples {
            assert!(s.busy_ns >= 0.0);
            assert!(s.lines > 0.0);
            assert!(s.span_lines > 0.0);
            assert!(s.iters > 0.0);
        }
    }

    #[test]
    fn fit_nest_yields_a_model_end_to_end() {
        let a =
            parse("doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = B[i,j] + B[i+1,j]; } }").unwrap();
        let b = parse(
            "doall (i, 101, 228) { doall (j, 1, 128) {
               A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
             } }",
        )
        .unwrap();
        let model = fit_nest(&[(&a, 4), (&b, 4)], &quick_cfg()).unwrap();
        assert!(model.samples >= 8);
        assert!(model.per_tile_ns >= alp_linalg::Rat::ZERO);
    }
}
