//! Per-run observability: what each thread did, what each tile touched,
//! and how the measurements line up against the cost model and the
//! simulator.

use alp_footprint::CostModel;
use alp_machine::TrafficReport;
use std::time::Duration;

/// How tiles are handed to threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Tile `t` runs on thread `t mod threads`, fixed up front.
    Static,
    /// Threads claim tiles from a shared counter as they go idle
    /// (self-scheduling / work stealing from a central queue).
    Dynamic,
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Schedule::Static => write!(f, "static"),
            Schedule::Dynamic => write!(f, "dynamic"),
        }
    }
}

/// What one tile's execution touched (measured during the first
/// sequential repetition; later repetitions touch the same lines).
#[derive(Debug, Clone)]
pub struct TileMetrics {
    /// Tile id (== the processor id of `assign_rect`'s numbering).
    pub tile: usize,
    /// Thread that executed the tile in the first repetition (under
    /// [`Schedule::Dynamic`] a later repetition may run it elsewhere).
    pub thread: usize,
    /// Iterations in the tile (per repetition).
    pub iterations: u64,
    /// Distinct cache lines the tile touched, or `None` when touch
    /// tracking was off.
    pub distinct_lines: Option<u64>,
    /// Time spent executing the tile, summed over repetitions,
    /// whichever thread ran each.
    pub busy: Duration,
}

/// What one OS thread did over the whole run.
#[derive(Debug, Clone)]
pub struct ThreadMetrics {
    /// Thread index.
    pub thread: usize,
    /// Tiles this thread executed (counting each tile once even though
    /// every repetition revisits it).
    pub tiles_run: usize,
    /// Total iterations executed across all repetitions.
    pub iterations: u64,
    /// Distinct cache lines touched across all its tiles, or `None`
    /// when touch tracking was off.
    pub distinct_lines: Option<u64>,
    /// Time spent inside tile execution (excludes barrier waits).
    pub busy: Duration,
    /// Total time parked at end-of-repetition barriers (load imbalance
    /// plus barrier mechanics), summed over repetitions.
    pub barrier_wait: Duration,
}

/// The result of one parallel execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// OS threads used.
    pub threads: usize,
    /// Tiles (virtual processors) in the partition.
    pub tiles: usize,
    /// Scheduling mode.
    pub schedule: Schedule,
    /// Cache-line size used for touch counting (elements per line).
    pub line_size: u64,
    /// Outer sequential repetitions executed.
    pub repetitions: u64,
    /// Total iterations executed (all threads, all repetitions).
    pub total_iterations: u64,
    /// End-to-end wall-clock time.
    pub wall: Duration,
    /// Whether touch counts are exact (bitset) or Bloom estimates.
    pub touches_exact: bool,
    /// Contained tile panics that were successfully retried in place
    /// (see `ExecOptions::max_retries`); 0 on a fault-free run.
    pub retries: u64,
    /// In-kernel cooperative cancellation polls performed (one per
    /// `POLL_INTERVAL` iterations inside tiles; between-tile polls are
    /// not counted).  Observability for the hardening overhead.
    pub cancellation_polls: u64,
    /// Per-thread metrics, indexed by thread.
    pub per_thread: Vec<ThreadMetrics>,
    /// Per-tile metrics, indexed by tile.
    pub per_tile: Vec<TileMetrics>,
    /// Per-repetition barrier cost: the longest time any thread spent
    /// parked at that repetition's end-of-doall barrier(s), the
    /// repetition's synchronization cost.  One entry per completed
    /// repetition.
    pub barrier_waits: Vec<Duration>,
}

impl RunReport {
    /// Largest per-tile distinct-line count — the measured analogue of
    /// the model's worst-tile cumulative footprint.  `None` when touch
    /// tracking was off.
    pub fn max_tile_footprint(&self) -> Option<u64> {
        self.per_tile.iter().filter_map(|t| t.distinct_lines).max()
    }

    /// Mean per-repetition barrier wait on the critical path, or `None`
    /// when no repetition completed a barrier (e.g. an empty run).
    pub fn mean_barrier_wait(&self) -> Option<Duration> {
        if self.barrier_waits.is_empty() {
            return None;
        }
        let total: Duration = self.barrier_waits.iter().sum();
        Some(total / self.barrier_waits.len() as u32)
    }

    /// Compare measured per-tile footprints against the model's
    /// cumulative-footprint prediction for tiles of `tile_extents`
    /// (Theorem 4 / Eq. 2).
    pub fn compare_with_model(
        &self,
        model: &CostModel,
        tile_extents: &[i128],
    ) -> Option<ModelComparison> {
        let measured = self.max_tile_footprint()?;
        let predicted = model.cost_rect(tile_extents).to_f64();
        Some(ModelComparison {
            predicted_per_tile: predicted,
            measured_max_tile: measured,
            ratio: if predicted > 0.0 {
                measured as f64 / predicted
            } else {
                f64::INFINITY
            },
            exact: self.touches_exact,
        })
    }

    /// Compare per-tile distinct lines against the simulator's
    /// per-processor cold misses.  With unit lines and infinite caches
    /// both count exactly "first touches", so tile `t` should match the
    /// simulator's processor `t` up to repetition effects — where each
    /// processor runs one tile, as a rectangular plan's do.  Where a
    /// plan's processors share its tiles, a static run on as many
    /// threads matches thread by processor instead (`per_thread`).
    pub fn compare_with_traffic(&self, traffic: &TrafficReport) -> Vec<(u64, u64)> {
        self.per_tile
            .iter()
            .zip(&traffic.per_processor)
            .map(|(t, c)| (t.distinct_lines.unwrap_or(0), c.cold_misses))
            .collect()
    }

    /// Human-oriented table of per-thread metrics.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "threads {}  tiles {}  schedule {}  reps {}  line-size {}  wall {:.3?}\n",
            self.threads, self.tiles, self.schedule, self.repetitions, self.line_size, self.wall
        ));
        s.push_str("thread   tiles  iterations  distinct-lines        busy     barrier\n");
        for t in &self.per_thread {
            let lines = match t.distinct_lines {
                Some(n) if self.touches_exact => n.to_string(),
                Some(n) => format!("~{n}"),
                None => "-".to_string(),
            };
            s.push_str(&format!(
                "{:>6}  {:>6}  {:>10}  {:>14}  {:>10.3?}  {:>10.3?}\n",
                t.thread, t.tiles_run, t.iterations, lines, t.busy, t.barrier_wait
            ));
        }
        let max_fp = self
            .max_tile_footprint()
            .map_or("-".to_string(), |n| n.to_string());
        s.push_str(&format!(
            "total iterations {}  max tile footprint {} lines\n",
            self.total_iterations, max_fp
        ));
        if self.retries > 0 {
            s.push_str(&format!("tile retries {}\n", self.retries));
        }
        s
    }
}

/// Measured-vs-predicted footprint summary.
#[derive(Debug, Clone)]
pub struct ModelComparison {
    /// Model prediction: cumulative footprint of one (interior) tile.
    pub predicted_per_tile: f64,
    /// Measured: distinct lines of the worst tile.
    pub measured_max_tile: u64,
    /// measured / predicted.
    pub ratio: f64,
    /// Whether the measurement is exact.
    pub exact: bool,
}

impl ModelComparison {
    /// True when measured is within `factor` of predicted in either
    /// direction (e.g. `factor = 2.0` accepts 0.5×..2×).
    pub fn within(&self, factor: f64) -> bool {
        self.ratio.is_finite() && self.ratio >= 1.0 / factor && self.ratio <= factor
    }
}
