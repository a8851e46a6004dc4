//! The parallel executor: P workers — the calling thread and P − 1
//! scoped OS threads — running a compiled kernel over the tiles of a
//! partition, with a barrier at the end of each outer sequential
//! repetition.
//!
//! # Failure model
//!
//! The executor is *hardened*: a misbehaving tile cannot take the run
//! (or the process) down with it.
//!
//! * **Panic containment** — every tile executes under
//!   `catch_unwind`.  A panicking kernel yields a structured
//!   [`RuntimeError::TileFailed`] carrying the tile id, repetition, and
//!   panic payload; the end-of-repetition barrier is a
//!   [`CancellableBarrier`](crate::CancellableBarrier), so surviving
//!   workers wake, drain, and join instead of blocking on a cohort
//!   member that will never arrive.
//! * **Deadlines & cancellation** — [`ExecOptions::deadline`] arms a
//!   wall-clock watchdog and [`ExecOptions::cancel`] accepts an external
//!   [`CancelToken`]; both are polled between tiles and *inside* the
//!   kernel loop (the cancel flag every [`POLL_INTERVAL`] iterations,
//!   the deadline clock every `DEADLINE_POLL_STRIDE`-th such poll), so
//!   even a single runaway tile is interrupted promptly.  The run returns
//!   [`RuntimeError::DeadlineExceeded`] / [`RuntimeError::Cancelled`].
//! * **Resource guard** — [`ExecOptions::memory_budget`] bounds the
//!   bytes a run may allocate (array store + touch-tracking bitsets);
//!   over-budget runs are refused up front with
//!   [`RuntimeError::ResourceExceeded`] instead of OOM-ing mid-flight.
//! * **Bounded retry** — with [`ExecOptions::max_retries`] > 0, a
//!   contained panic in a *retry-safe* tile is re-executed in place on
//!   the surviving worker, at any repetition.  Retry safety is one bit
//!   (see [`Executor::retry_safe`]): by default a nest whose statements
//!   are plain assigns reading only arrays the nest never writes, so a
//!   re-run recomputes the values the first attempt was writing; a
//!   re-checked certificate replaces it with its idempotence verdict.
//!   Everything else fails fast, because a partial attempt may already
//!   have published state a re-run would observe (an accumulate has
//!   folded deltas into shared cells; a read-after-write nest would feed
//!   the second attempt its own output).

use crate::kernel::{self, Kernel, JAM};
use crate::report::{RunReport, Schedule, ThreadMetrics, TileMetrics};
use crate::store::ArrayStore;
use crate::sync::{CancelToken, CancellableBarrier};
use crate::touch::TouchSet;
use crate::RuntimeError;
use alp_linalg::IVec;
use alp_loopir::{AccessKind, ArrayRef, LoopNest};
use alp_machine::ArrayLayout;
use alp_plan::{Tiling, Transform};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many kernel iterations run between two cooperative cancellation
/// polls inside a tile.  A poll is one relaxed atomic load, so at this
/// granularity the fault-free overhead is far below a percent while a
/// runaway tile is still interrupted within microseconds of a stop flag
/// or cancel token firing.
pub const POLL_INTERVAL: u64 = 1024;

/// Of the in-tile polls, how often the (much pricier) deadline clock is
/// actually read: every `DEADLINE_POLL_STRIDE`-th poll, plus once at
/// every tile boundary.  `Instant::now()` can cost hundreds of
/// nanoseconds on kernels without a vDSO fast path, so reading it at
/// every poll shows up as percent-level overhead on short kernels; at
/// this stride a deadline is still detected within
/// `POLL_INTERVAL * DEADLINE_POLL_STRIDE` iterations.
const DEADLINE_POLL_STRIDE: u64 = 8;

/// Knobs for one run.
#[derive(Clone)]
pub struct ExecOptions {
    /// OS threads to use, capped at the tile count; 0 means the plan's
    /// processors for an executor built by [`Executor::from_plan`], one
    /// per tile for the others.
    pub threads: usize,
    /// Static round-robin ([`Tiling::worker_tiles`]) or dynamic
    /// self-scheduling.
    pub schedule: Schedule,
    /// Elements per cache line for touch counting.
    pub line_size: u64,
    /// Record distinct-line touch counts (small overhead, first
    /// repetition only).
    pub track_touches: bool,
    /// Wall-clock budget for the whole run; exceeded runs are cancelled
    /// cooperatively and return [`RuntimeError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// External cooperative cancellation; when the token fires the run
    /// winds down and returns [`RuntimeError::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// How many times a contained tile panic may be retried in place
    /// (only on retry-safe nests, see [`Executor::retry_safe`]).
    pub max_retries: u32,
    /// Byte budget for the run's allocations (array store plus touch
    /// bitsets); over-budget runs are refused with
    /// [`RuntimeError::ResourceExceeded`] before allocating.
    pub memory_budget: Option<u64>,
    /// Deterministic fault injection hook (chaos testing only).
    #[cfg(feature = "chaos")]
    pub fault_injector: Option<std::sync::Arc<dyn FaultInjector>>,
}

impl std::fmt::Debug for ExecOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("ExecOptions");
        d.field("threads", &self.threads)
            .field("schedule", &self.schedule)
            .field("line_size", &self.line_size)
            .field("track_touches", &self.track_touches)
            .field("deadline", &self.deadline)
            .field("cancel", &self.cancel.is_some())
            .field("max_retries", &self.max_retries)
            .field("memory_budget", &self.memory_budget);
        #[cfg(feature = "chaos")]
        d.field("fault_injector", &self.fault_injector.is_some());
        d.finish()
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 0,
            schedule: Schedule::Static,
            line_size: 1,
            track_touches: true,
            deadline: None,
            cancel: None,
            max_retries: 0,
            memory_budget: None,
            #[cfg(feature = "chaos")]
            fault_injector: None,
        }
    }
}

/// Deterministic fault-injection hooks, called around every tile
/// execution when the `chaos` feature is enabled.  Implemented by
/// `alp-chaos`'s `FaultPlan`; both hooks run *inside* the executor's
/// panic containment, so an injected panic exercises exactly the
/// production failure path.
#[cfg(feature = "chaos")]
pub trait FaultInjector: Send + Sync + std::fmt::Debug {
    /// Called before tile `tile` executes in repetition `rep`.  May
    /// panic (panic fault) or sleep (delay fault).
    fn before_tile(&self, tile: usize, rep: u64);
    /// Called after tile `tile` completes in repetition `rep`.  May
    /// corrupt `store` (silent-fault injection).
    fn after_tile(&self, tile: usize, rep: u64, store: &ArrayStore);
}

/// Why a run is winding down, recorded once by the first thread that
/// notices; everyone else just drains.
struct RunControl<'a> {
    barrier: CancellableBarrier,
    stop: AtomicBool,
    reason: Mutex<Option<RuntimeError>>,
    external: Option<&'a CancelToken>,
    deadline: Option<(Instant, Duration)>,
}

impl RunControl<'_> {
    /// One cooperative cancellation poll.  Returns `false` when the run
    /// must stop (and records the reason on the first detection).
    /// `check_clock` gates the deadline's `Instant::now()` read — the
    /// stop flag and cancel token are always checked.
    fn keep_going(&self, check_clock: bool) -> bool {
        if self.stop.load(Ordering::Relaxed) {
            return false;
        }
        if let Some(tok) = self.external {
            if tok.is_cancelled() {
                self.fail(RuntimeError::Cancelled);
                return false;
            }
        }
        if check_clock {
            if let Some((at, budget)) = self.deadline {
                if Instant::now() >= at {
                    self.fail(RuntimeError::DeadlineExceeded { deadline: budget });
                    return false;
                }
            }
        }
        true
    }

    /// Record the first failure and wake everyone parked at the
    /// barrier.  Later failures are dropped: the run already has a
    /// cause, and surviving workers drain regardless.
    fn fail(&self, err: RuntimeError) {
        {
            let mut slot = self
                .reason
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(err);
            }
        }
        self.stop.store(true, Ordering::Relaxed);
        self.barrier.cancel();
    }

    fn into_reason(self) -> Option<RuntimeError> {
        self.reason
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }
}

/// A nest compiled and partitioned, ready to run any number of times.
#[derive(Debug)]
pub struct Executor {
    nest: LoopNest,
    layout: ArrayLayout,
    kernel: Kernel,
    /// Which rows each tile runs, in the nest's own coordinates (a
    /// transformed plan's boxes only decide which points a tile owns).
    tiling: Tiling,
    /// Exact iteration count per tile, precomputed at build time.
    points: Vec<u64>,
    /// Interior-tile extents λ.
    tile_extents: Vec<i128>,
    /// Workers a run takes when [`ExecOptions::threads`] is 0: the
    /// plan's processors ([`Tiling::workers`]), or the tile count.
    workers: usize,
    repetitions: u64,
    /// Whether re-running a partially executed tile recomputes the same
    /// values, at any repetition: the single retry decision.  The
    /// syntactic rule's answer until a certificate's re-proven verdict
    /// replaces it.
    idempotent: bool,
    /// Certified fast path: accumulate via plain read-add-store instead
    /// of atomic CAS.  Set only by [`Executor::apply_certificate`].
    relaxed_stores: bool,
}

/// Refuse a transform derived for another nest than the one that
/// hashes to `fp`.
fn transform_fits(transform: &Transform, fp: &str) -> Result<(), RuntimeError> {
    if transform.fingerprint() == fp {
        return Ok(());
    }
    Err(RuntimeError::BadPlan(alp_plan::PlanError::Transform(
        format!(
            "transform was derived for fingerprint {} but the nest hashes to {fp}",
            transform.fingerprint()
        ),
    )))
}

impl Executor {
    /// Partition the nest's iteration space over a rectangular virtual
    /// processor grid (one tile per grid cell, numbered as [`Tiling`]
    /// numbers them: row-major, last dimension fastest).
    ///
    /// The nest must be a *legal* doall — no dependence between
    /// different iterations, accumulates aside — which this constructor
    /// does not check (`alp-loopir`'s legality analysis does).  A tile
    /// runs each innermost row statement by statement, which preserves
    /// the order of statements *within* an iteration but not across
    /// iterations of a row, so on a nest like `A[i]=B[i]; C[i]=A[i+1];`
    /// the result differs from [`Executor::run_reference`] even on one
    /// thread.
    pub fn from_grid(nest: &LoopNest, grid: &[i128]) -> Result<Executor, RuntimeError> {
        Executor::build(nest, None, grid)
    }

    /// Build an executor straight from a saved [`alp_plan::PartitionPlan`]:
    /// the nest is reconstructed from the plan's embedded source (with
    /// its fingerprint re-verified) and tiled on the plan's processor
    /// grid.  A schema-v4 plan carrying a [`Transform`] executes its
    /// skewed tiles natively, as [`Executor::from_transformed`] does.  A
    /// run takes the plan's processors by default, however many tiles
    /// they share.
    pub fn from_plan(plan: &alp_plan::PartitionPlan) -> Result<Executor, RuntimeError> {
        // `plan.nest()` checked that the nest hashes to `plan.fingerprint`.
        let nest = plan.nest()?;
        if let Some(t) = &plan.transform {
            transform_fits(t, &plan.fingerprint)?;
        }
        let mut exec = Executor::build(&nest, plan.transform.as_ref(), &plan.proc_grid)?;
        exec.workers = exec.tiling.workers(plan.processors);
        Ok(exec)
    }

    /// Partition the *transformed* space `j = i·U` over a rectangular
    /// grid: tile `t` owns the in-bounds `ī` whose image `ī·U` lies in
    /// its `j`-box, and runs them as rows of the nest's own iteration
    /// space, in its own order, through the same uncomposed kernel as a
    /// rectangular plan.  The sequential reference
    /// ([`Executor::run_reference`]) interprets the nest directly, so
    /// verification stays an independent end-to-end differential check.
    pub fn from_transformed(
        nest: &LoopNest,
        transform: &Transform,
        grid: &[i128],
    ) -> Result<Executor, RuntimeError> {
        transform_fits(transform, &alp_plan::fingerprint_hex(nest))?;
        Executor::build(nest, Some(transform), grid)
    }

    fn build(
        nest: &LoopNest,
        transform: Option<&Transform>,
        grid: &[i128],
    ) -> Result<Executor, RuntimeError> {
        let layout = ArrayLayout::from_nest(nest)?;
        let kernel = Kernel::compile(nest, &layout)?;
        let tiling = Tiling::new(nest, transform, grid)?;
        // The tiles partition the iteration space, so once its volume
        // fits `u64` (the bounds fit `i64`: the tiling checked) no tile's
        // point count nor `run`'s sum over them can wrap — a count that
        // wrapped to zero would read as "nothing to execute".
        (nest.loops.iter())
            .try_fold(1u64, |n, l| {
                n.checked_mul(u64::try_from(l.trip_count()).ok()?)
            })
            .ok_or_else(|| RuntimeError::Overflow {
                array: "<iteration space>".into(),
            })?;
        Ok(Executor {
            idempotent: syntactic_retry_safe(nest),
            relaxed_stores: false,
            nest: nest.clone(),
            repetitions: reps(nest)?,
            layout,
            kernel,
            points: (0..tiling.len()).map(|t| tiling.points(t)).collect(),
            tile_extents: tiling.extents(),
            workers: tiling.len(),
            tiling,
        })
    }

    /// The nest this executor runs.
    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }

    /// The memory layout shared by executor and simulator.
    pub fn layout(&self) -> &ArrayLayout {
        &self.layout
    }

    /// Number of tiles (virtual processors).
    pub fn tile_count(&self) -> usize {
        self.tiling.len()
    }

    /// Interior-tile extents λ, in the paper's inclusive convention
    /// (a tile spans `λ_k + 1` iterations along dimension `k`).
    pub fn tile_extents(&self) -> &[i128] {
        &self.tile_extents
    }

    /// Whether a contained tile panic may be retried, at any repetition
    /// (see the module docs and [`ExecOptions::max_retries`]).  By
    /// default the syntactic rule of [`syntactic_retry_safe`]: every
    /// statement is a plain assign and no statement reads an array the
    /// nest writes, so re-running a partially executed tile recomputes
    /// exactly the same values.  Accumulate nests are never
    /// syntactically retry-safe — a partial attempt has already folded
    /// deltas into shared cells and a re-run would double-count them —
    /// and neither are read-after-write nests, whose second attempt
    /// could observe the first attempt's output.
    /// [`Executor::apply_certificate`] replaces the answer with an
    /// element-precise certified verdict.
    pub fn retry_safe(&self) -> bool {
        self.idempotent
    }

    /// Consume a *re-checked* plan certificate's verdicts.
    ///
    /// `write_disjoint` must be the conjunction of the certificate's
    /// proven coverage and cross-tile write-disjointness facts — both
    /// are needed before relaxed accumulate stores are sound (coverage
    /// rules out one iteration running in two tiles; disjointness rules
    /// out two tiles writing one element).  `idempotent` is the
    /// certificate's dataflow idempotence verdict and replaces the
    /// syntactic retry rule.
    ///
    /// Callers must pass verdicts from `alp_certify::recheck`-style recomputation,
    /// never bits read straight from a plan file — a tampered file would
    /// otherwise unlock an unsound path.
    pub fn apply_certificate(&mut self, write_disjoint: bool, idempotent: bool) {
        self.relaxed_stores = write_disjoint;
        self.idempotent = idempotent;
    }

    /// True when a certificate unlocked the plain-store accumulate path.
    pub fn uses_relaxed_stores(&self) -> bool {
        self.relaxed_stores
    }

    /// Bytes this nest's backing store needs (`total_lines × 8`).
    pub fn store_bytes(&self) -> u64 {
        self.layout.total_lines().saturating_mul(8)
    }

    /// Pre-flight estimate of the bytes `run` will allocate under
    /// `opts`: the shared f64 store plus, when touch tracking is on,
    /// two distinct-line sets per worker thread.
    pub fn estimate_run_bytes(&self, opts: &ExecOptions) -> u64 {
        let threads = self.resolve_threads(opts) as u64;
        let touch = if opts.track_touches {
            let lines = self
                .layout
                .total_lines()
                .div_ceil(opts.line_size.max(1))
                .max(1);
            let per_set = if lines <= crate::touch::EXACT_LIMIT_BITS {
                lines.div_ceil(8)
            } else {
                (crate::touch::BLOOM_BITS as u64) / 8
            };
            threads.saturating_mul(2).saturating_mul(per_set)
        } else {
            0
        };
        self.store_bytes().saturating_add(touch)
    }

    /// Enforce [`ExecOptions::memory_budget`] before allocating
    /// anything.
    fn check_budget(&self, opts: &ExecOptions) -> Result<(), RuntimeError> {
        if let Some(budget) = opts.memory_budget {
            let required = self.estimate_run_bytes(opts);
            if required > budget {
                return Err(RuntimeError::ResourceExceeded { required, budget });
            }
        }
        Ok(())
    }

    fn resolve_threads(&self, opts: &ExecOptions) -> usize {
        match opts.threads {
            0 => self.workers,
            t => t.min(self.tiling.len()),
        }
    }

    /// A store sized for this nest, seeded with integer-valued data.
    pub fn seeded_store(&self, seed: u64) -> ArrayStore {
        ArrayStore::seeded(self.layout.total_lines(), seed)
    }

    /// Execute the nest in parallel, mutating `store` in place.
    ///
    /// Of the run's workers, worker 0 runs on the calling thread and the
    /// other `threads − 1` on scoped OS threads, so a one-thread run
    /// spawns none.  Every worker, the caller's included, runs under the
    /// same containment: a panic inside a tile is that tile's
    /// [`RuntimeError::TileFailed`], and an unwind outside any tile is
    /// `TileFailed { tile: usize::MAX, .. }`; neither reaches the caller
    /// as a panic, and both cancel the barrier so no worker is left
    /// waiting.
    ///
    /// Fails (with every worker thread joined and the store in an
    /// unspecified partial state) on a contained tile panic, a missed
    /// deadline, external cancellation, or an exceeded memory budget —
    /// see the module docs for the failure model.
    pub fn run(&self, store: &ArrayStore, opts: &ExecOptions) -> Result<RunReport, RuntimeError> {
        self.check_budget(opts)?;
        let tiles = self.tiling.len();
        let per_rep: u64 = self.points.iter().sum();
        if tiles == 0 || self.repetitions == 0 || per_rep == 0 {
            // Nothing to execute: no tiles, a zero-trip nest, or zero
            // repetitions.  Report the empty run instead of
            // spawning workers against a zero-party barrier.
            return Ok(RunReport {
                threads: 0,
                tiles,
                schedule: opts.schedule,
                line_size: opts.line_size.max(1),
                repetitions: self.repetitions,
                total_iterations: 0,
                wall: Duration::ZERO,
                touches_exact: true,
                retries: 0,
                cancellation_polls: 0,
                per_thread: Vec::new(),
                per_tile: Vec::new(),
                barrier_waits: Vec::new(),
            });
        }
        let threads = self.resolve_threads(opts);
        let ctrl = RunControl {
            barrier: CancellableBarrier::new(threads),
            stop: AtomicBool::new(false),
            reason: Mutex::new(None),
            external: opts.cancel.as_ref(),
            deadline: opts.deadline.map(|d| (Instant::now() + d, d)),
        };
        let next_tile = AtomicUsize::new(0);
        // Nanoseconds each tile was busy in repetitions after the first,
        // whichever thread ran it (8 B per tile, like `per_tile` itself
        // outside the memory budget's store-and-bitsets accounting).
        let late_busy: Vec<AtomicU64> = (0..tiles).map(|_| AtomicU64::new(0)).collect();
        let wall_start = Instant::now();

        let worker = |t: usize| {
            let mut w = WorkerState::new(self, &ctrl, opts, store, &late_busy, t);
            'reps: for rep in 0..self.repetitions {
                match opts.schedule {
                    Schedule::Static => {
                        for tile in self.tiling.worker_tiles(t, threads) {
                            if !w.run_tile(tile, rep) {
                                break 'reps;
                            }
                        }
                    }
                    Schedule::Dynamic => loop {
                        let tile = next_tile.fetch_add(1, Ordering::SeqCst);
                        if tile >= tiles {
                            break;
                        }
                        if !w.run_tile(tile, rep) {
                            break 'reps;
                        }
                    },
                }
                // End-of-doall barrier: no thread starts repetition r+1
                // until all finish r.  A cancelled barrier means the run
                // is being torn down — drain with partial metrics.  The
                // time parked here is measured per repetition: it is the
                // synchronization cost (load imbalance + barrier
                // mechanics).
                let wait_start = Instant::now();
                let Ok(leader) = ctrl.barrier.wait() else {
                    break 'reps;
                };
                let mut waited = wait_start.elapsed();
                if opts.schedule == Schedule::Dynamic {
                    if leader {
                        next_tile.store(0, Ordering::SeqCst);
                    }
                    let wait_start = Instant::now();
                    if ctrl.barrier.wait().is_err() {
                        w.barrier_wait += waited;
                        w.rep_waits.push(waited);
                        break 'reps;
                    }
                    waited += wait_start.elapsed();
                }
                w.barrier_wait += waited;
                w.rep_waits.push(waited);
            }
            w.finish()
        };
        // A worker that unwinds outside the per-tile containment (a bug
        // in metrics bookkeeping, not in a kernel) fails the run, which
        // cancels the barrier the others may be parked at, so they drain
        // and join instead of waiting for a party that never comes.
        let contained = |t: usize| match catch_unwind(AssertUnwindSafe(|| worker(t))) {
            Ok(out) => Some(out),
            Err(payload) => {
                ctrl.fail(RuntimeError::TileFailed {
                    tile: usize::MAX,
                    rep: 0,
                    payload: format!(
                        "worker panicked outside tile containment: {}",
                        payload_string(payload.as_ref())
                    ),
                });
                None
            }
        };

        // Worker 0 is the calling thread; only the other `threads − 1`
        // are spawned, so a one-thread run starts no thread at all.
        let mut outs: Vec<ThreadOut> = crossbeam::scope(|scope| {
            let contained = &contained;
            let handles: Vec<_> = (1..threads)
                .map(|t| scope.spawn(move |_| contained(t)))
                .collect();
            let mut outs: Vec<ThreadOut> = contained(0).into_iter().collect();
            for h in handles {
                // `contained` catches every unwind, so a join never errs.
                outs.extend(h.join().expect("contained worker"));
            }
            outs
        })
        // Only an unwind that escaped `contained` reaches here.
        .map_err(|payload| RuntimeError::TileFailed {
            tile: usize::MAX,
            rep: 0,
            payload: format!(
                "executor thread scope failed: {}",
                payload_string(payload.as_ref())
            ),
        })?;

        if let Some(err) = ctrl.into_reason() {
            return Err(err);
        }

        let wall = wall_start.elapsed();
        outs.sort_by_key(|o| o.metrics.thread);
        let touches_exact = outs.iter().all(|o| o.exact);
        let retries = outs.iter().map(|o| o.retries).sum();
        let cancellation_polls = outs.iter().map(|o| o.polls).sum();
        let mut per_tile: Vec<TileMetrics> =
            outs.iter().flat_map(|o| o.tiles.iter().cloned()).collect();
        per_tile.sort_by_key(|m| m.tile);
        for m in &mut per_tile {
            m.busy += Duration::from_nanos(late_busy[m.tile].load(Ordering::Relaxed));
        }
        // Per-repetition critical-path barrier cost: the slowest wait of
        // any thread for that repetition (threads that drained early
        // simply contribute fewer entries).
        let completed_reps = outs.iter().map(|o| o.rep_waits.len()).max().unwrap_or(0);
        let barrier_waits: Vec<Duration> = (0..completed_reps)
            .map(|rep| {
                outs.iter()
                    .filter_map(|o| o.rep_waits.get(rep).copied())
                    .max()
                    .unwrap_or(Duration::ZERO)
            })
            .collect();
        let per_thread: Vec<ThreadMetrics> = outs.into_iter().map(|o| o.metrics).collect();
        Ok(RunReport {
            threads,
            tiles,
            schedule: opts.schedule,
            line_size: opts.line_size.max(1),
            repetitions: self.repetitions,
            total_iterations: per_thread.iter().map(|m| m.iterations).sum(),
            wall,
            touches_exact,
            retries,
            cancellation_polls,
            per_thread,
            per_tile,
            barrier_waits,
        })
    }

    /// Execute the nest *sequentially* from `init`, interpreting the IR
    /// directly (each `ArrayRef`'s `ī·G + ā`, then `ArrayLayout::line`)
    /// rather than through the compiled kernel — an independent
    /// implementation path that the parallel result must match bit for
    /// bit.
    ///
    /// It materialises `nest.iteration_points()` once per repetition:
    /// one `IVec` per point, about 500 MB for the ledger's 4–7 M-point
    /// cases.  Walking the box instead (`alp_linalg::walk_box`) reads
    /// `exec-rect-atomic` `peak_rss_mb` 857 → 358, but the ledger runs
    /// this oracle before its set-up, whose stores then no longer reuse
    /// the pages it freed: their floors double and `setup_s` moves past
    /// its bound (ROADMAP 12(b)).  Streaming waits on the ledger running
    /// its oracle after set-up.
    pub fn run_reference(&self, init: &[f64]) -> Vec<f64> {
        let mut data = init.to_vec();
        let layout = &self.layout;
        let stmts: Vec<RefStmt> = (self.nest.body.iter())
            .map(|st| RefStmt::new(st, layout))
            .collect();
        // Every subscript is evaluated into this one vector, so the walk
        // allocates per point (the point itself), not per reference.
        let mut index = IVec(Vec::new());
        for _rep in 0..self.repetitions {
            for pt in self.nest.iteration_points() {
                let mut line = |&(id, r): &(usize, &ArrayRef)| {
                    r.eval_into(&pt, &mut index.0);
                    layout.line(id, &index) as usize
                };
                for st in &stmts {
                    let lhs = line(&st.lhs);
                    match st.mode {
                        RefMode::Accumulate => {
                            let mut delta = 0.0;
                            for r in &st.sources {
                                delta += data[line(r)];
                            }
                            data[lhs] += delta;
                        }
                        RefMode::Assign => {
                            let mut v = 0.0;
                            for r in &st.sources {
                                v += data[line(r)];
                            }
                            data[lhs] = v;
                        }
                    }
                }
            }
        }
        data
    }

    /// Run on a seeded store and check the parallel result against the
    /// sequential reference, bit for bit.  A mismatch on a nest with a
    /// cross-iteration dependence is expected, not an executor fault:
    /// see the legality precondition on [`Executor::from_grid`].
    pub fn verify(&self, seed: u64, opts: &ExecOptions) -> Result<ExecOutcome, RuntimeError> {
        self.check_budget(opts)?;
        let store = self.seeded_store(seed);
        let init = store.snapshot();
        let report = self.run(&store, opts)?;
        let reference = self.run_reference(&init);
        let parallel = store.snapshot();
        let matches_reference = parallel.len() == reference.len()
            && parallel
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        Ok(ExecOutcome {
            report,
            matches_reference,
        })
    }
}

/// Per-worker mutable state, factored out so the tile loop stays
/// readable now that it contains containment, retry, and polling.
struct WorkerState<'a> {
    exec: &'a Executor,
    ctrl: &'a RunControl<'a>,
    opts: &'a ExecOptions,
    store: &'a ArrayStore,
    thread: usize,
    thread_touch: Option<TouchSet>,
    scratch: Option<TouchSet>,
    tile_metrics: Vec<TileMetrics>,
    /// Shared per-tile busy nanoseconds of repetitions after the first
    /// (such a repetition may land on a thread that holds no metrics
    /// row for the tile); folded into `per_tile` by `run`.
    late_busy: &'a [AtomicU64],
    iterations: u64,
    busy: Duration,
    barrier_wait: Duration,
    /// Time parked at the end-of-repetition barrier(s), one entry per
    /// completed repetition.
    rep_waits: Vec<Duration>,
    retries: u64,
    polls: u64,
}

struct ThreadOut {
    metrics: ThreadMetrics,
    tiles: Vec<TileMetrics>,
    rep_waits: Vec<Duration>,
    exact: bool,
    retries: u64,
    polls: u64,
}

impl<'a> WorkerState<'a> {
    fn new(
        exec: &'a Executor,
        ctrl: &'a RunControl<'a>,
        opts: &'a ExecOptions,
        store: &'a ArrayStore,
        late_busy: &'a [AtomicU64],
        thread: usize,
    ) -> Self {
        let touch_set = || {
            opts.track_touches
                .then(|| TouchSet::new(exec.layout.total_lines(), opts.line_size))
        };
        WorkerState {
            exec,
            ctrl,
            opts,
            store,
            thread,
            thread_touch: touch_set(),
            scratch: touch_set(),
            tile_metrics: Vec::new(),
            late_busy,
            iterations: 0,
            busy: Duration::ZERO,
            barrier_wait: Duration::ZERO,
            rep_waits: Vec::new(),
            retries: 0,
            polls: 0,
        }
    }

    /// Execute one tile (with containment, polling, and bounded retry).
    /// Returns `false` when this worker must stop scheduling and drain.
    fn run_tile(&mut self, tile: usize, rep: u64) -> bool {
        if !self.ctrl.keep_going(true) {
            return false;
        }
        let mut attempts = 0u32;
        loop {
            match catch_unwind(AssertUnwindSafe(|| self.run_tile_once(tile, rep))) {
                Ok(completed) => return completed,
                Err(payload) => {
                    let payload = payload_string(payload.as_ref());
                    // Retry only when re-execution is provably
                    // idempotent.
                    if self.exec.idempotent && attempts < self.opts.max_retries {
                        attempts += 1;
                        self.retries += 1;
                        continue;
                    }
                    self.ctrl
                        .fail(RuntimeError::TileFailed { tile, rep, payload });
                    return false;
                }
            }
        }
    }

    /// One attempt at a tile.  Returns `false` if a cancellation poll
    /// stopped the kernel loop mid-tile.
    fn run_tile_once(&mut self, tile: usize, rep: u64) -> bool {
        // Touches repeat identically every rep: track, and record the
        // tile's metrics row, only in the first.
        let first_rep = rep == 0;
        let t0 = Instant::now();
        let points = self.exec.points[tile];
        #[cfg(feature = "chaos")]
        if let Some(inj) = &self.opts.fault_injector {
            inj.before_tile(tile, rep);
        }
        // Atomic vs relaxed accumulates: resolved here, once per tile.
        let completed = if self.exec.relaxed_stores {
            self.run_rows::<true>(tile, first_rep)
        } else {
            self.run_rows::<false>(tile, first_rep)
        };
        let dt = t0.elapsed();
        self.busy += dt;
        if !completed {
            return false;
        }
        #[cfg(feature = "chaos")]
        if let Some(inj) = &self.opts.fault_injector {
            inj.after_tile(tile, rep, self.store);
        }
        self.iterations += points;
        if first_rep {
            let scratch = self.scratch.as_ref();
            if let (Some(tt), Some(sc)) = (self.thread_touch.as_mut(), scratch) {
                tt.merge(sc);
            }
            self.tile_metrics.push(TileMetrics {
                tile,
                thread: self.thread,
                iterations: points,
                distinct_lines: scratch.map(TouchSet::count),
                busy: dt,
            });
        } else {
            self.late_busy[tile].fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
        }
        true
    }

    /// The tile loop: the one place that calls into the kernel, a
    /// panel at a time.  With `track` (and touch tracking on) each
    /// cut's accesses are recorded in `scratch` right before the cut
    /// executes, so a tracked run is interrupted within the same
    /// interval as an untracked one.
    fn run_rows<const RELAXED: bool>(&mut self, tile: usize, track: bool) -> bool {
        let (exec, store) = (self.exec, self.store);
        let scratch = self.scratch.as_mut().filter(|_| track);
        let mut cuts = TileCuts {
            kernel: &exec.kernel,
            ctrl: self.ctrl,
            scratch,
            until_poll: POLL_INTERVAL,
            polls: 0,
        };
        if let Some(sc) = cuts.scratch.as_deref_mut() {
            sc.clear();
        }
        let completed = exec.tiling.for_each_panel(tile, |i, rows, lo, hi| {
            exec.kernel
                .execute_panel::<RELAXED>(i, rows, lo, hi, store, &mut cuts)
        });
        self.polls += cuts.polls;
        completed
    }

    fn finish(self) -> ThreadOut {
        let exact = self.thread_touch.as_ref().is_none_or(TouchSet::is_exact);
        ThreadOut {
            metrics: ThreadMetrics {
                thread: self.thread,
                tiles_run: self.tile_metrics.len(),
                iterations: self.iterations,
                distinct_lines: self.thread_touch.as_ref().map(TouchSet::count),
                busy: self.busy,
                barrier_wait: self.barrier_wait,
            },
            tiles: self.tile_metrics,
            rep_waits: self.rep_waits,
            exact,
            retries: self.retries,
            polls: self.polls,
        }
    }
}

/// One tile attempt's poll cuts: rows — or [`JAM`] rows at once — are
/// cut so that a cancellation poll fires once per [`POLL_INTERVAL`]
/// points, counted across rows (a jammed cut rounds up to whole
/// columns, so a poll may come up to `JAM − 1` points late).
struct TileCuts<'a> {
    kernel: &'a Kernel,
    ctrl: &'a RunControl<'a>,
    scratch: Option<&'a mut TouchSet>,
    until_poll: u64,
    polls: u64,
}

impl kernel::Cuts for TileCuts<'_> {
    fn begin(&mut self, i: &mut [i64], rows: usize, x: i64, hi: i64) -> i64 {
        debug_assert!(rows == 1 || rows == JAM);
        let columns = ((hi - x) as u64 + 1).min(self.until_poll.div_ceil(rows as u64));
        let end = x + (columns - 1) as i64;
        if let Some(sc) = self.scratch.as_deref_mut() {
            let touches = &self.kernel.touches;
            if rows == 1 {
                touches.for_each(i, x, end, |e, _| sc.insert(e as usize));
            } else {
                let across = i.len() - 2;
                let base = i[across];
                for r in 0..rows as i64 {
                    i[across] = base + r;
                    touches.for_each(i, x, end, |e, _| sc.insert(e as usize));
                }
                i[across] = base;
            }
        }
        end
    }

    fn end(&mut self, points: u64) -> bool {
        self.until_poll = self.until_poll.saturating_sub(points);
        if self.until_poll > 0 {
            return true;
        }
        self.until_poll = POLL_INTERVAL;
        self.polls += 1;
        self.ctrl
            .keep_going(self.polls.is_multiple_of(DEADLINE_POLL_STRIDE))
    }
}

/// Best-effort extraction of a panic payload into a printable string.
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<opaque panic payload>".to_string()
    }
}

/// The conservative *syntactic* idempotence rule behind
/// [`ExecOptions::max_retries`] (documented in DESIGN.md "Failure
/// model"): every statement is a plain (non-accumulate) assign, and no
/// right-hand side reads an array that any statement writes.
///
/// Array-name granularity makes this a sound under-approximation of the
/// certifier's element-precise dataflow idempotence: whenever this rule
/// accepts a nest, the certifier's verdict is also `idempotent` (the
/// converse fails on nests like `A[i] = A[i+N]` whose read and write
/// regions the bounds keep apart).  Public so the property test pinning
/// that containment can call both sides.
pub fn syntactic_retry_safe(nest: &LoopNest) -> bool {
    let written: std::collections::HashSet<&str> =
        nest.body.iter().map(|st| st.lhs.array.as_str()).collect();
    nest.body.iter().all(|st| {
        st.lhs.kind != AccessKind::Accumulate
            && st
                .rhs
                .iter()
                .all(|r| r.kind != AccessKind::Accumulate && !written.contains(r.array.as_str()))
    })
}

/// Result of [`Executor::verify`].
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Metrics from the parallel run.
    pub report: RunReport,
    /// Whether the parallel result equals the sequential reference
    /// bit for bit.
    pub matches_reference: bool,
}

enum RefMode {
    Assign,
    Accumulate,
}

/// A statement pre-classified for the interpreted reference path, using
/// the same accumulate rule as the kernel compiler but none of its code.
/// Each reference carries its array id, looked up once.
struct RefStmt<'a> {
    lhs: (usize, &'a ArrayRef),
    mode: RefMode,
    sources: Vec<(usize, &'a ArrayRef)>,
}

impl<'a> RefStmt<'a> {
    fn new(st: &'a alp_loopir::Statement, layout: &ArrayLayout) -> Self {
        // Unreachable expect: the layout was built from this same nest,
        // so every array the body names has an id.
        let with_id = |r: &'a ArrayRef| (layout.array_id(&r.array).expect("known array"), r);
        let is_self = |r: &ArrayRef| r.kind == AccessKind::Accumulate && r.same_element(&st.lhs);
        let accumulate = st.lhs.kind == AccessKind::Accumulate
            && st.rhs.iter().filter(|r| is_self(r)).count() == 1;
        let (mode, sources) = if accumulate {
            let sources = st.rhs.iter().filter(|r| !is_self(r)).map(with_id);
            (RefMode::Accumulate, sources.collect())
        } else {
            (RefMode::Assign, st.rhs.iter().map(with_id).collect())
        };
        RefStmt {
            lhs: with_id(&st.lhs),
            mode,
            sources,
        }
    }
}

fn reps(nest: &LoopNest) -> Result<u64, RuntimeError> {
    u64::try_from(nest.seq_repetitions())
        .map_err(|_| RuntimeError::BadGrid("sequential repetition count overflows u64".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-thread run whose stop flag is already set.
    fn stopped() -> RunControl<'static> {
        RunControl {
            barrier: CancellableBarrier::new(1),
            stop: AtomicBool::new(true),
            reason: Mutex::new(None),
            external: None,
            deadline: None,
        }
    }

    #[test]
    fn nests_beyond_u64_are_overflow_at_construction() {
        // 2^32 × 2^32: an unchecked layout wraps the first nest's 2^64
        // elements per array to a two-element store that passes any
        // budget, and an unchecked count wraps the second's 2^64 points
        // to "nothing to execute" — after which `verify` would walk the
        // reference interpreter over them with no deadline.  Both must
        // be refused by the constructors, in debug and release alike.
        let bounds = "doall (i, 0, 4294967295) { doall (j, 0, 4294967295)";
        for (body, what) in [
            ("A[i,j] = B[i,j];", "A"),
            ("l$S[0] = l$S[0] + A[0];", "<iteration space>"),
        ] {
            let nest = alp_loopir::parse(&format!("{bounds} {{ {body} }} }}")).unwrap();
            let overflow = Some(RuntimeError::Overflow { array: what.into() });
            for grid in [[1, 4], [2, 2], [1, 1]] {
                assert_eq!(Executor::from_grid(&nest, &grid).err(), overflow, "{body}");
            }
            let plan = alp_plan::PartitionPlan::build(
                &nest,
                4,
                None,
                alp_plan::LegalityVerdict::Unchecked,
            )
            .unwrap();
            assert_eq!(
                plan.store_bytes,
                Some(if what == "A" { u64::MAX } else { 16 })
            );
            assert_eq!(Executor::from_plan(&plan).err(), overflow, "{body}");
        }
        // A nest that is merely huge (2^40 points over 16 bytes) still
        // lowers: stopping it is the deadline's job.
        let huge = "doall (i, 0, 1048575) { doall (j, 0, 1048575) { l$S[0] = l$S[0] + A[0]; } }";
        let exec = Executor::from_grid(&alp_loopir::parse(huge).unwrap(), &[2, 2]).unwrap();
        assert_eq!(exec.points.iter().sum::<u64>(), 1 << 40);
        assert_eq!(exec.store_bytes(), 16);
    }

    #[test]
    fn a_plan_whose_transform_fits_another_nest_is_refused() {
        // `from_plan` checks the transform against the plan's verified
        // fingerprint instead of hashing the nest a second time, with
        // the error `from_transformed` gives.
        let nest =
            alp_loopir::parse("doall (i, 0, 39) { doall (j, 0, 22) { A[i,j] = B[i+j,j]; } }")
                .unwrap();
        let other =
            alp_loopir::parse("doall (i, 0, 39) { doall (j, 0, 23) { A[i,j] = B[i+j,j]; } }")
                .unwrap();
        let mut plan =
            alp_plan::PartitionPlan::build(&nest, 4, None, alp_plan::LegalityVerdict::Unchecked)
                .unwrap();
        let u = alp_linalg::IMat::from_rows(&[&[1, 0], &[1, 1]]);
        let stale = Transform::new(u.clone(), alp_plan::fingerprint_hex(&other)).unwrap();
        let refused = Executor::from_transformed(&nest, &stale, &plan.proc_grid).err();
        assert!(
            matches!(&refused, Some(RuntimeError::BadPlan(e)) if e.to_string().contains(&plan.fingerprint)),
            "{refused:?}"
        );
        plan.transform = Some(stale);
        assert_eq!(Executor::from_plan(&plan).err(), refused);
        plan.transform = Some(Transform::new(u, plan.fingerprint.clone()).unwrap());
        assert!(Executor::from_plan(&plan).is_ok());
    }

    #[test]
    fn tracked_long_row_stops_within_one_poll_interval() {
        // One tile, one row of 2^20 points, tracking on, stop already
        // set: the tile must give up at its first poll having executed
        // *and tracked* POLL_INTERVAL points — tracking the whole row
        // up front would run a million inserts before any poll.
        let nest = alp_loopir::parse("doall (i, 0, 1048575) { A[i] = B[i]; }").unwrap();
        let exec = Executor::from_grid(&nest, &[1]).unwrap();
        let ctrl = stopped();
        let (opts, store) = (ExecOptions::default(), exec.seeded_store(0));
        assert!(opts.track_touches);
        let mut w = WorkerState::new(&exec, &ctrl, &opts, &store, &[], 0);
        assert!(!w.run_rows::<false>(0, true));
        assert_eq!(w.polls, 1);
        assert_eq!(w.scratch.as_ref().unwrap().count(), 2 * POLL_INTERVAL);
    }

    #[test]
    fn a_tile_of_short_rows_stops_within_one_poll_interval() {
        // Rows of 48 (and 47) points, seven to a panel: one jammed group
        // and three rows on their own, or seven rows on their own.  A
        // stopped tile must give up at its first poll, POLL_INTERVAL
        // points in — a jammed cut rounds up to whole columns, so up to
        // JAM − 1 more.  All-ones data: each point adds one to its cell.
        for len in [48, 47] {
            for (dest, jams) in [("S[i,j]", true), ("S[i]", false)] {
                let src = format!(
                    "doall (i, 0, 3) {{ doall (j, 0, 6) {{ doall (k, 0, {}) {{
                       l${dest} = l${dest} + A[i,j,k]; }} }} }}",
                    len - 1
                );
                let exec = Executor::from_grid(&alp_loopir::parse(&src).unwrap(), &[1, 1, 1]);
                let exec = exec.unwrap();
                assert_eq!(exec.kernel.jams(), jams);
                let (ctrl, opts) = (stopped(), ExecOptions::default());
                let store = ArrayStore::zeroed(exec.layout.total_lines());
                store.load_from(&vec![1.0; store.len()]);
                let mut w = WorkerState::new(&exec, &ctrl, &opts, &store, &[], 0);
                assert!(!w.run_rows::<false>(0, false));
                assert_eq!(w.polls, 1);
                let ran = store.snapshot().iter().sum::<f64>() as u64 - store.len() as u64;
                let slack = if jams { JAM as u64 - 1 } else { 0 };
                assert!(
                    (POLL_INTERVAL..=POLL_INTERVAL + slack).contains(&ran),
                    "{src}: {ran} points"
                );
            }
        }
    }

    #[test]
    fn a_fixed_nest_polls_as_often_as_it_always_has() {
        // Panels of 23 rows of 47 points (five jammed groups, three rows
        // on their own) on two tiles, and a skewed plan of the same nest
        // whose panels are single rows: the count of polls is the cut
        // sequence's fingerprint, pinned as the row-by-row executor
        // counted it.
        let src = "doall (i, 0, 39) { doall (j, 0, 22) { doall (k, 0, 46) {
                     l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j]; } } }";
        let nest = alp_loopir::parse(src).unwrap();
        let rect = Executor::from_grid(&nest, &[2, 1, 1]).unwrap();
        let u = alp_linalg::IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0], &[0, 1, 1]]);
        let t = Transform::new(u, alp_plan::fingerprint_hex(&nest)).unwrap();
        let skewed = Executor::from_transformed(&nest, &t, &[2, 3, 1]).unwrap();
        let polls = |exec: &Executor| {
            let opts = ExecOptions {
                threads: 1,
                ..ExecOptions::default()
            };
            (exec.run(&exec.seeded_store(1), &opts).unwrap()).cancellation_polls
        };
        assert_eq!((polls(&rect), polls(&skewed)), (42, 40));
    }

    #[test]
    fn interrupted_row_invariant_accumulate_publishes_its_prefix() {
        // A row-invariant accumulate is summed in a register and
        // published once per poll cut, so a tile stopped at its first
        // poll must already have folded its first POLL_INTERVAL points
        // into the cell: an interrupted tile leaves a prefix of its
        // iterations in the store, not a sum that was never written.
        // A jammed group counts its points across its JAM rows: each
        // row's cell holds that row's first POLL_INTERVAL / JAM points.
        for (src, grid, rows) in [
            (
                "doall (i, 0, 1048575) { l$S[0] = l$S[0] + A[i]; }",
                &[1][..],
                1,
            ),
            (
                "doall (i, 0, 3) { doall (j, 0, 262143) { l$S[i] = l$S[i] + A[i,j]; } }",
                &[1, 1][..],
                JAM,
            ),
        ] {
            let exec = Executor::from_grid(&alp_loopir::parse(src).unwrap(), grid).unwrap();
            assert_eq!(exec.kernel.jams(), rows == JAM);
            let (ctrl, opts) = (stopped(), ExecOptions::default());
            let (s, a) = (
                exec.layout.array_id("S").unwrap(),
                exec.layout.array_id("A").unwrap(),
            );
            let line = |id, i: &[i128]| exec.layout.line(id, &IVec::new(i)) as usize;
            for relaxed in [false, true] {
                let store = exec.seeded_store(3);
                let init = store.snapshot();
                let mut w = WorkerState::new(&exec, &ctrl, &opts, &store, &[], 0);
                let completed = if relaxed {
                    w.run_rows::<true>(0, true)
                } else {
                    w.run_rows::<false>(0, true)
                };
                assert!(!completed);
                assert_eq!(w.polls, 1);
                // Row `r` folds `A[r, j]` (`A[j]`) into `S[r]`.
                let points = (POLL_INTERVAL / rows as u64) as i128;
                for r in 0..rows as i128 {
                    let a_at = |j| match rows {
                        1 => line(a, &[j]),
                        _ => line(a, &[r, j]),
                    };
                    let prefix: f64 = (0..points).map(|j| init[a_at(j)]).sum();
                    let cell = line(s, &[r]);
                    assert!(prefix > 0.0);
                    assert_eq!(store.get(cell), init[cell] + prefix, "{src} row {r}");
                }
            }
        }
    }
}
