//! Differential containment suite: every injected fault class must
//! terminate the run with all worker threads joined and the documented
//! structured error / `ALP000x` code — and a single contained panic
//! with retry enabled must still bitwise-match the sequential
//! reference.
//!
//! None of these tests sleeps longer than 300 ms; the suite is safe
//! under `RUST_TEST_THREADS=2`.

#![cfg(feature = "chaos")]

use alp::AlpError;
use alp_chaos::FaultPlan;
use alp_runtime::{CancelToken, ExecOptions, Executor, RuntimeError, Schedule};
use std::sync::Arc;
use std::time::Duration;

/// A retry-safe 2-D stencil (plain assigns, disjoint read/write arrays)
/// on a 2×2 grid — 4 tiles.
fn stencil() -> Executor {
    let nest = alp_loopir::parse(
        "doall (i, 0, 15) { doall (j, 0, 15) { A[i, j] = B[i, j] + B[i+1, j+1]; } }",
    )
    .unwrap();
    Executor::from_grid(&nest, &[2, 2]).unwrap()
}

/// An accumulate nest (never retry-safe) on 4 tiles.
fn accumulator() -> Executor {
    let nest =
        alp_loopir::parse("doseq (t, 0, 1) { doall (i, 0, 63) { l$S[0] = l$S[0] + B[i]; } }")
            .unwrap();
    Executor::from_grid(&nest, &[4]).unwrap()
}

fn with_faults(plan: FaultPlan) -> (ExecOptions, Arc<FaultPlan>) {
    let plan = Arc::new(plan);
    let opts = ExecOptions {
        fault_injector: Some(plan.clone()),
        ..ExecOptions::default()
    };
    (opts, plan)
}

#[test]
fn injected_panic_is_contained_as_tile_failed() {
    let exec = stencil();
    let (opts, plan) = with_faults(FaultPlan::new().with_panic(2, 0));
    // run() returns (rather than hanging or aborting): every worker
    // joined, and the error names the failing tile and repetition.
    let err = exec.run(&exec.seeded_store(1), &opts).unwrap_err();
    match &err {
        RuntimeError::TileFailed { tile, rep, payload } => {
            assert_eq!(*tile, 2);
            assert_eq!(*rep, 0);
            assert!(payload.contains("injected panic"), "{payload}");
        }
        e => panic!("wrong error: {e}"),
    }
    assert_eq!(plan.fired_count(), 1);
    assert_eq!(AlpError::from(err).code(), "ALP0008");
}

#[test]
fn single_fault_retry_matches_reference_bitwise() {
    let exec = stencil();
    assert!(exec.retry_safe());
    let (opts, plan) = with_faults(FaultPlan::new().with_panic(1, 0));
    let opts = ExecOptions {
        max_retries: 1,
        ..opts
    };
    // The fault is one-shot: the in-place retry re-runs tile 1 cleanly
    // and the run must be indistinguishable from a fault-free one.
    let outcome = exec.verify(42, &opts).unwrap();
    assert!(outcome.matches_reference);
    assert_eq!(outcome.report.retries, 1);
    assert_eq!(outcome.report.total_iterations, 256);
    assert_eq!(plan.fired_count(), 1);
}

#[test]
fn accumulate_nest_fails_fast_despite_retry_budget() {
    // A partially executed accumulate tile has already folded deltas
    // into shared cells; retrying would double-count them, so the
    // executor must fail fast even with retries available.
    let exec = accumulator();
    assert!(!exec.retry_safe());
    let (opts, _plan) = with_faults(FaultPlan::new().with_panic(1, 0));
    let opts = ExecOptions {
        max_retries: 3,
        ..opts
    };
    let err = exec.run(&exec.seeded_store(2), &opts).unwrap_err();
    assert!(
        matches!(
            err,
            RuntimeError::TileFailed {
                tile: 1,
                rep: 0,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn later_repetition_panic_is_retried() {
    // A retry-safe nest reads no array it writes, so re-running a tile
    // at repetition 1 recomputes the values it was writing, whatever
    // the other tiles published at repetition 0.
    let nest = alp_loopir::parse("doseq (t, 0, 1) { doall (i, 0, 15) { A[i] = B[i] + B[i+1]; } }")
        .unwrap();
    let exec = Executor::from_grid(&nest, &[4]).unwrap();
    assert!(exec.retry_safe());
    let (opts, plan) = with_faults(FaultPlan::new().with_panic(2, 1));
    let opts = ExecOptions {
        max_retries: 3,
        ..opts
    };
    let outcome = exec.verify(3, &opts).unwrap();
    assert!(outcome.matches_reference);
    assert_eq!(outcome.report.retries, 1);
    assert_eq!(plan.fired_count(), 1);
}

#[test]
fn injected_delay_trips_the_deadline() {
    let exec = stencil();
    let (opts, plan) = with_faults(FaultPlan::new().with_delay(0, 0, Duration::from_millis(300)));
    let deadline = Duration::from_millis(100);
    let opts = ExecOptions {
        deadline: Some(deadline),
        threads: 1,
        ..opts
    };
    let err = exec.run(&exec.seeded_store(4), &opts).unwrap_err();
    assert_eq!(err, RuntimeError::DeadlineExceeded { deadline });
    assert_eq!(plan.fired_count(), 1);
    assert_eq!(AlpError::from(err).code(), "ALP0007");
}

#[test]
fn cancellation_interrupts_a_delayed_run() {
    let exec = stencil();
    let (opts, _plan) = with_faults(FaultPlan::new().with_delay(0, 0, Duration::from_millis(200)));
    let token = CancelToken::new();
    let opts = ExecOptions {
        cancel: Some(token.clone()),
        threads: 1,
        ..opts
    };
    let store = exec.seeded_store(5);
    let err = crossbeam::scope(|s| {
        let h = s.spawn(|_| exec.run(&store, &opts).unwrap_err());
        std::thread::sleep(Duration::from_millis(50));
        token.cancel();
        h.join().unwrap()
    })
    .unwrap();
    assert_eq!(err, RuntimeError::Cancelled);
    assert_eq!(AlpError::from(err).code(), "ALP0007");
}

#[test]
fn flipped_output_is_caught_by_differential_validation() {
    let exec = stencil();
    // Flip one element after the LAST tile of a single-threaded run:
    // nothing executes afterwards, so the corruption survives to the
    // final snapshot and only the bitwise check can see it.
    let (opts, plan) = with_faults(FaultPlan::new().with_flip(3, 0, 0));
    let opts = ExecOptions { threads: 1, ..opts };
    let outcome = exec.verify(6, &opts).unwrap();
    assert_eq!(plan.fired_count(), 1);
    assert!(
        !outcome.matches_reference,
        "a flipped bit must fail the bitwise check"
    );
    // The identical run without the fault passes, pinning the cause.
    let clean = exec
        .verify(
            6,
            &ExecOptions {
                threads: 1,
                ..ExecOptions::default()
            },
        )
        .unwrap();
    assert!(clean.matches_reference);
}

#[test]
fn dynamic_schedule_contains_faults_too() {
    let exec = stencil();
    let (opts, _plan) = with_faults(FaultPlan::new().with_panic(3, 0));
    let opts = ExecOptions {
        schedule: Schedule::Dynamic,
        threads: 2,
        ..opts
    };
    let err = exec.run(&exec.seeded_store(7), &opts).unwrap_err();
    assert!(
        matches!(
            err,
            RuntimeError::TileFailed {
                tile: 3,
                rep: 0,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn seeded_plans_reproduce_identical_outcomes() {
    // Same seed → same fault → same structured result, run to run.
    let describe = |seed: u64| -> String {
        let exec = stencil();
        let (opts, _plan) = with_faults(FaultPlan::seeded(seed, exec.tile_count(), 1));
        let opts = ExecOptions { threads: 1, ..opts };
        match exec.verify(9, &opts) {
            Ok(o) => format!("ok matches={}", o.matches_reference),
            Err(e) => format!("err {e}"),
        }
    };
    for seed in 0..6 {
        assert_eq!(describe(seed), describe(seed), "seed {seed} not stable");
    }
}
