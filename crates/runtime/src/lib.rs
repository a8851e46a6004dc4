#![forbid(unsafe_code)]
//! A native multithreaded executor for partitioned doall nests.
//!
//! Where `alp-machine` *simulates* the memory system of a partitioned
//! loop nest, this crate actually *runs* the nest: real f64 arrays, one
//! OS thread per (group of) tile(s), atomic accumulates for `l$`
//! statements, and a barrier at the end of each outer sequential
//! repetition.  Three things come out of a run:
//!
//! * **Results** — the array contents, checked bit-for-bit against an
//!   independently interpreted sequential reference
//!   ([`Executor::verify`]).
//! * **Metrics** — per-thread/per-tile iteration counts, wall time, and
//!   distinct-cache-line touch counts ([`RunReport`]).
//! * **Validation** — the touch counts are directly comparable to the
//!   cost model's per-tile cumulative footprints (Theorem 4) and the
//!   simulator's per-processor cold misses
//!   ([`RunReport::compare_with_model`],
//!   [`RunReport::compare_with_traffic`]).
//!
//! ```
//! use alp_runtime::{ExecOptions, Executor};
//!
//! let nest = alp_loopir::parse(
//!     "doall (i, 0, 31) { doall (j, 0, 31) { A[i, j] = B[i, j] + B[i+1, j]; } }",
//! ).unwrap();
//! let exec = Executor::from_grid(&nest, &[2, 2]).unwrap();
//! let outcome = exec.verify(42, &ExecOptions::default()).unwrap();
//! assert!(outcome.matches_reference);
//! assert_eq!(outcome.report.total_iterations, 32 * 32);
//! ```
//!
//! The executor is hardened — panics are contained per tile, runs can
//! carry deadlines, cancellation tokens, memory budgets, and bounded
//! retry — see the failure model in [`exec`](ExecOptions)'s module docs
//! and the `sync` primitives ([`CancellableBarrier`], [`CancelToken`]).

mod exec;
mod kernel;
mod report;
mod store;
mod sync;
mod touch;

pub use exec::{syntactic_retry_safe, ExecOptions, ExecOutcome, Executor, POLL_INTERVAL};
pub use kernel::{Kernel, JAM};
pub use report::{ModelComparison, RunReport, Schedule, ThreadMetrics, TileMetrics};
pub use store::ArrayStore;
pub use sync::{BarrierCancelled, CancelToken, CancellableBarrier};
pub use touch::TouchSet;

#[cfg(feature = "chaos")]
pub use exec::FaultInjector;

/// Why a nest could not be compiled for native execution — or why a
/// run was stopped before completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A reference names an array the layout does not know.
    UnknownArray(String),
    /// A statement has no executable lowering (e.g. an accumulate
    /// reading its own old value more than once).
    UnsupportedStatement(String),
    /// Array addressing does not fit native integer arithmetic: an
    /// element id or coefficient beyond `i64`, arrays of more than 2⁶⁴
    /// elements, or (as `<iteration space>`) more than 2⁶⁴ iterations
    /// per repetition.  Reported by the constructors, before anything is
    /// allocated or spawned.
    Overflow {
        /// The array whose address computation overflowed.
        array: String,
    },
    /// The processor grid does not fit the nest.
    BadGrid(String),
    /// A saved plan could not be turned into an executor (corrupt file,
    /// fingerprint mismatch, unsupported schema version).
    BadPlan(alp_plan::PlanError),
    /// A tile's kernel panicked and the panic was contained; all worker
    /// threads were joined and the store is in an unspecified partial
    /// state.  `tile == usize::MAX` marks the rare case of a worker
    /// failing outside any tile.
    TileFailed {
        /// The tile (virtual processor) whose execution failed.
        tile: usize,
        /// The outer sequential repetition during which it failed.
        rep: u64,
        /// The stringified panic payload.
        payload: String,
    },
    /// The run's wall-clock deadline ([`ExecOptions::deadline`]) passed
    /// before the run finished; workers were cancelled cooperatively.
    DeadlineExceeded {
        /// The deadline that was exceeded.
        deadline: std::time::Duration,
    },
    /// The caller's [`CancelToken`] ([`ExecOptions::cancel`]) fired;
    /// workers wound down cooperatively.
    Cancelled,
    /// The run's estimated allocations exceed the configured memory
    /// budget ([`ExecOptions::memory_budget`]); nothing was allocated.
    ResourceExceeded {
        /// Bytes the run would need.
        required: u64,
        /// The configured budget in bytes.
        budget: u64,
    },
}

impl RuntimeError {
    /// The stable `ALP00xx` diagnostic code: `ALP0007` deadline
    /// exceeded / run cancelled, `ALP0008` contained tile fault,
    /// `ALP0009` memory budget exceeded, the plan's own code for a plan
    /// that cannot be executed, `ALP0005` every other lowering failure.
    pub fn code(&self) -> &'static str {
        match self {
            RuntimeError::DeadlineExceeded { .. } | RuntimeError::Cancelled => "ALP0007",
            RuntimeError::TileFailed { .. } => "ALP0008",
            RuntimeError::ResourceExceeded { .. } => "ALP0009",
            RuntimeError::BadPlan(e) => e.code(),
            _ => "ALP0005",
        }
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::UnknownArray(a) => write!(f, "unknown array `{a}`"),
            RuntimeError::UnsupportedStatement(m) => write!(f, "unsupported statement: {m}"),
            RuntimeError::Overflow { array } => {
                write!(f, "address computation for `{array}` overflows i64")
            }
            RuntimeError::BadGrid(m) => write!(f, "bad processor grid: {m}"),
            RuntimeError::BadPlan(e) => write!(f, "cannot execute plan: {e}"),
            RuntimeError::TileFailed { tile, rep, payload } if *tile == usize::MAX => {
                write!(f, "worker failed during repetition {rep}: {payload}")
            }
            RuntimeError::TileFailed { tile, rep, payload } => {
                write!(f, "tile {tile} failed during repetition {rep}: {payload}")
            }
            RuntimeError::DeadlineExceeded { deadline } => {
                write!(f, "run exceeded its {deadline:?} deadline")
            }
            RuntimeError::Cancelled => write!(f, "run cancelled by caller"),
            RuntimeError::ResourceExceeded { required, budget } => write!(
                f,
                "run needs {required} bytes of array and touch-tracking storage, \
                 over the {budget}-byte budget"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::BadPlan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<alp_loopir::LayoutOverflow> for RuntimeError {
    fn from(e: alp_loopir::LayoutOverflow) -> Self {
        RuntimeError::Overflow { array: e.array }
    }
}

impl From<alp_plan::PlanError> for RuntimeError {
    fn from(e: alp_plan::PlanError) -> Self {
        match e {
            // Grid-shape problems keep their established variant so
            // callers matching on BadGrid see no change.
            alp_plan::PlanError::BadGrid(m) => RuntimeError::BadGrid(m),
            e => RuntimeError::BadPlan(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    fn example2() -> alp_loopir::LoopNest {
        parse(
            "doall (i, 0, 15) { doall (j, 0, 15) {
               A[i, j] = B[i+j, i-j-1] + B[i+j+4, i-j+3];
             } }",
        )
        .unwrap()
    }

    #[test]
    fn parallel_matches_reference_static() {
        let exec = Executor::from_grid(&example2(), &[2, 2]).unwrap();
        let outcome = exec.verify(1, &ExecOptions::default()).unwrap();
        assert!(outcome.matches_reference);
        assert_eq!(outcome.report.total_iterations, 256);
        assert_eq!(outcome.report.threads, 4);
    }

    #[test]
    fn parallel_matches_reference_dynamic() {
        let opts = ExecOptions {
            threads: 3,
            schedule: Schedule::Dynamic,
            ..ExecOptions::default()
        };
        let exec = Executor::from_grid(&example2(), &[4, 2]).unwrap();
        let outcome = exec.verify(2, &opts).unwrap();
        assert!(outcome.matches_reference);
        assert_eq!(outcome.report.threads, 3);
        assert_eq!(outcome.report.tiles, 8);
        assert_eq!(outcome.report.total_iterations, 256);
    }

    #[test]
    fn accumulate_matmul_matches_reference() {
        // Fig. 11 matmul: k-dimension split forces concurrent atomic
        // accumulates into the same C elements.
        let nest = parse(
            "doall (i, 0, 7) { doall (j, 0, 7) { doall (k, 0, 7) {
               l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
             } } }",
        )
        .unwrap();
        let exec = Executor::from_grid(&nest, &[1, 1, 8]).unwrap();
        let outcome = exec.verify(3, &ExecOptions::default()).unwrap();
        assert!(outcome.matches_reference);
    }

    #[test]
    fn doseq_repeats_with_barrier() {
        // Fig. 9 shape: each repetition re-reads what the previous one
        // wrote, so reps must be barrier-separated to stay correct.
        let nest = parse(
            "doseq (s, 0, 3) { doall (i, 0, 63) {
               l$A[0] = l$A[0] + B[i];
             } }",
        )
        .unwrap();
        let exec = Executor::from_grid(&nest, &[8]).unwrap();
        let outcome = exec.verify(4, &ExecOptions::default()).unwrap();
        assert!(outcome.matches_reference);
        assert_eq!(outcome.report.repetitions, 4);
        assert_eq!(outcome.report.total_iterations, 4 * 64);
    }

    #[test]
    fn touch_counts_match_footprint() {
        // 1 processor, unit lines: distinct touches == whole-nest
        // cumulative footprint (A 10 + B 11 = 21, as in the simulator's
        // cold-miss test).
        let nest = parse("doall (i, 0, 9) { A[i] = B[i] + B[i+1]; }").unwrap();
        let exec = Executor::from_grid(&nest, &[1]).unwrap();
        let outcome = exec.verify(5, &ExecOptions::default()).unwrap();
        assert!(outcome.matches_reference);
        assert!(outcome.report.touches_exact);
        assert_eq!(outcome.report.max_tile_footprint(), Some(21));
    }

    #[test]
    fn fewer_threads_than_tiles() {
        let exec = Executor::from_grid(&example2(), &[4, 4]).unwrap();
        let opts = ExecOptions {
            threads: 2,
            ..ExecOptions::default()
        };
        let outcome = exec.verify(6, &opts).unwrap();
        assert!(outcome.matches_reference);
        assert_eq!(outcome.report.threads, 2);
        assert_eq!(outcome.report.tiles, 16);
        let tiles_run: usize = outcome.report.per_thread.iter().map(|m| m.tiles_run).sum();
        assert_eq!(tiles_run, 16);
    }

    #[test]
    fn zero_iteration_tiles_return_empty_report() {
        // The parser rejects zero-trip source loops, but a nest built
        // or edited in memory can still hand the executor tiles with no
        // work: the run must return an empty report, not spawn threads
        // against a 0-party barrier or divide by zero.
        let mut nest = parse("doall (i, 0, 3) { A[i] = A[i]; }").unwrap();
        nest.loops[0].upper = nest.loops[0].lower - 1;
        let exec = Executor::from_grid(&nest, &[2]).unwrap();
        assert_eq!(exec.tile_count(), 2);
        let report = exec
            .run(&exec.seeded_store(0), &ExecOptions::default())
            .unwrap();
        assert_eq!(report.threads, 0);
        assert_eq!(report.total_iterations, 0);
        assert!(report.per_thread.is_empty());
        assert!(report.per_tile.is_empty());
    }

    #[test]
    fn pre_cancelled_token_stops_the_run() {
        let token = CancelToken::new();
        token.cancel();
        let opts = ExecOptions {
            cancel: Some(token),
            ..ExecOptions::default()
        };
        let exec = Executor::from_grid(&example2(), &[2, 2]).unwrap();
        let err = exec.run(&exec.seeded_store(0), &opts).unwrap_err();
        assert_eq!(err, RuntimeError::Cancelled);
    }

    #[test]
    fn elapsed_deadline_stops_the_run() {
        // A zero deadline is already past when the first poll runs; the
        // run must come back (all threads joined) with the structured
        // error instead of executing to completion.
        let deadline = std::time::Duration::ZERO;
        let opts = ExecOptions {
            deadline: Some(deadline),
            ..ExecOptions::default()
        };
        let exec = Executor::from_grid(&example2(), &[2, 2]).unwrap();
        let err = exec.run(&exec.seeded_store(0), &opts).unwrap_err();
        assert_eq!(err, RuntimeError::DeadlineExceeded { deadline });
    }

    #[test]
    fn memory_budget_refuses_oversized_runs() {
        let exec = Executor::from_grid(&example2(), &[2, 2]).unwrap();
        let enough = exec.estimate_run_bytes(&ExecOptions::default());
        // At the estimate the run is admitted; one byte under, refused.
        let opts = ExecOptions {
            memory_budget: Some(enough),
            ..ExecOptions::default()
        };
        assert!(exec.verify(9, &opts).unwrap().matches_reference);
        let opts = ExecOptions {
            memory_budget: Some(enough - 1),
            ..ExecOptions::default()
        };
        let err = exec.verify(9, &opts).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::ResourceExceeded {
                required: enough,
                budget: enough - 1,
            }
        );
    }

    #[test]
    fn retry_safety_classification() {
        // Plain assigns reading a disjoint array: safe to re-run.
        let safe = parse("doall (i, 0, 3) { A[i] = B[i] + B[i+1]; }").unwrap();
        assert!(Executor::from_grid(&safe, &[2]).unwrap().retry_safe());
        // Accumulate: a partial attempt already folded deltas in.
        let acc = parse("doall (i, 0, 3) { l$S[0] = l$S[0] + B[i]; }").unwrap();
        assert!(!Executor::from_grid(&acc, &[2]).unwrap().retry_safe());
        // Read-after-write: a re-run could observe its own output.
        let raw = parse("doall (i, 0, 3) { A[i] = A[i] + B[i]; }").unwrap();
        assert!(!Executor::from_grid(&raw, &[2]).unwrap().retry_safe());
    }

    #[test]
    fn certified_relaxed_stores_match_atomic_reference() {
        // ij-block matmul: each tile owns its C elements, so a
        // certificate's coverage + write-disjointness verdicts unlock
        // plain read-add-store accumulates.  Must stay bitwise equal to
        // the sequential reference (and hence to the CAS path).
        let nest = parse(
            "doall (i, 0, 7) { doall (j, 0, 7) { doall (k, 0, 7) {
               l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
             } } }",
        )
        .unwrap();
        let mut exec = Executor::from_grid(&nest, &[4, 2, 1]).unwrap();
        assert!(!exec.uses_relaxed_stores());
        exec.apply_certificate(true, false);
        assert!(exec.uses_relaxed_stores());
        let outcome = exec.verify(11, &ExecOptions::default()).unwrap();
        assert!(outcome.matches_reference);
    }

    #[test]
    fn retry_safety_is_one_bit_a_certificate_replaces() {
        // The syntactic rule's answer until a re-proven verdict arrives,
        // which replaces it either way.
        let safe = parse("doall (i, 0, 3) { A[i] = B[i]; }").unwrap();
        let mut exec = Executor::from_grid(&safe, &[2]).unwrap();
        assert!(exec.retry_safe());
        exec.apply_certificate(true, false);
        assert!(!exec.retry_safe());
        // Reads and writes of `A` the bounds keep apart: refused by the
        // array-name rule, accepted by an element-precise certificate.
        let apart = parse("doall (i, 0, 3) { A[i] = A[i+4]; }").unwrap();
        let mut exec = Executor::from_grid(&apart, &[2]).unwrap();
        assert!(!exec.retry_safe());
        exec.apply_certificate(true, true);
        assert!(exec.retry_safe());
    }

    #[test]
    fn multi_statement_body_keeps_intra_iteration_order() {
        // Rows run statement by statement, cut at poll boundaries; a
        // legal doall whose second statement reads what the first wrote
        // in the *same* iteration must still match the reference.
        let nest = parse(
            "doall (i, 0, 3) { doall (j, 0, 2047) {
               A[i, j] = B[i, j] + B[i, j+1];
               C[i, j] = A[i, j] + B[i+1, j];
             } }",
        )
        .unwrap();
        for grid in [[1, 1], [2, 2]] {
            let exec = Executor::from_grid(&nest, &grid).unwrap();
            let outcome = exec.verify(14, &ExecOptions::default()).unwrap();
            assert!(outcome.matches_reference);
        }
    }

    #[test]
    fn cancellation_polls_count_iterations_not_rows() {
        // RunReport documents one in-tile poll per POLL_INTERVAL
        // iterations.  64 rows of 40 points, two tiles of 1280
        // iterations, two repetitions: one poll per tile per repetition
        // — for the rectangular plan and for the skewed one, whose rows
        // are short enough that a poll per row would read 128.
        let nest = parse(
            "doseq (t, 0, 1) { doall (i, 0, 63) { doall (j, 0, 39) {
               A[i, j] = B[i, j] + B[i+1, j];
             } } }",
        )
        .unwrap();
        let mut u = alp_linalg::IMat::identity(2);
        u[(0, 1)] = 1;
        let skew = alp_plan::Transform::new(u, alp_plan::fingerprint_hex(&nest)).unwrap();
        for exec in [
            Executor::from_grid(&nest, &[2, 1]).unwrap(),
            Executor::from_transformed(&nest, &skew, &[2, 1]).unwrap(),
        ] {
            let report = exec.verify(12, &ExecOptions::default()).unwrap().report;
            let per_rep: u64 = report
                .per_tile
                .iter()
                .map(|t| t.iterations / POLL_INTERVAL)
                .sum();
            assert_eq!(per_rep, 2);
            assert_eq!(report.cancellation_polls, per_rep * report.repetitions);
        }
    }

    #[test]
    fn per_tile_busy_accounts_for_every_repetition_under_dynamic() {
        // Under self-scheduling a later repetition's tile may land on a
        // thread that did not run it in repetition 0; its time must
        // still reach the tile's row.
        let nest = parse(
            "doseq (t, 0, 15) { doall (i, 0, 63) {
               l$A[0] = l$A[0] + B[i];
             } }",
        )
        .unwrap();
        let exec = Executor::from_grid(&nest, &[8]).unwrap();
        let opts = ExecOptions {
            threads: 2,
            schedule: Schedule::Dynamic,
            ..ExecOptions::default()
        };
        let report = exec.verify(13, &opts).unwrap().report;
        let by_tile: std::time::Duration = report.per_tile.iter().map(|t| t.busy).sum();
        let by_thread: std::time::Duration = report.per_thread.iter().map(|t| t.busy).sum();
        assert_eq!(by_tile, by_thread);
    }
}
