//! The daemon's compile/execute pipeline: [`build_plan`] brackets the
//! one planner, [`PartitionPlan::choose`], with parsing, the legality
//! analysis and optional certification — the same bracket the root
//! facade's `Compiler::plan` puts around it, which is why the two emit
//! the same bytes.  (`alp-serve` cannot call the facade itself: the root
//! `alp` crate's binary links this crate back.)  Every failure is folded
//! into the `Clone`-able [`ServeError`] under the code its own layer
//! assigns (`PlanError::code`, `RuntimeError::code`,
//! `CertifyError::code`), which is what lets one failed compile be
//! handed to every coalesced waiter.

use crate::ServeError;
use alp_certify::CertifyError;
use alp_loopir::LoopNest;
use alp_plan::{LegalityVerdict, PartitionPlan, PlanError, PlanKey};
use alp_runtime::{ExecOptions, Executor, RuntimeError};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        let message = match &e {
            PlanError::Infeasible(m) => format!("infeasible: {m}"),
            e => e.to_string(),
        };
        ServeError::new(e.code(), message)
    }
}

impl From<CertifyError> for ServeError {
    fn from(e: CertifyError) -> Self {
        ServeError::new(e.code(), format!("certification failed: {e}"))
    }
}

impl From<RuntimeError> for ServeError {
    fn from(e: RuntimeError) -> Self {
        ServeError::new(e.code(), e.to_string())
    }
}

/// Parameters of one plan request, normalized.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    /// DSL source of the nest.
    pub source: String,
    /// Processors to partition for.
    pub processors: i128,
    /// Run the doall legality analysis (default on).
    pub check: bool,
    /// Embed a freshly decided certificate in the plan (`ALP0011` when
    /// the plan cannot be interpreted by the certifier): the structural
    /// decider's verdicts, which are the pairwise prover's without its
    /// witness notes (`alp_certify::decide`).  Certified plans survive
    /// restarts with their certificates attached.
    pub certify: bool,
}

impl PlanSpec {
    /// Parse the source and name its cache slot, once: the nest, and
    /// its structural fingerprint plus every parameter that can change
    /// the plan.  Everything a request needs from its source comes out
    /// of this one call — the server resolves on the reader thread and
    /// hands the result to the worker.
    pub fn resolve(&self) -> Result<(LoopNest, PlanKey), ServeError> {
        let nest = alp_loopir::parse(&self.source)
            .map_err(|e| ServeError::new("ALP0001", e.to_string()))?;
        let key = self.key_for(alp_plan::fingerprint(&nest));
        Ok((nest, key))
    }

    /// The cache key of this spec were its source's fingerprint
    /// `fingerprint`: what a lookup by the text alone checks a recorded
    /// key against.
    pub(crate) fn key_for(&self, fingerprint: u64) -> PlanKey {
        PlanKey {
            fingerprint,
            processors: self.processors,
            mesh: None,
            checked: self.check,
            calibrated: false,
            skewed: false,
            certified: self.certify,
        }
    }

    /// The cache key for this spec: the key half of [`PlanSpec::resolve`].
    pub fn key(&self) -> Result<PlanKey, ServeError> {
        self.resolve().map(|(_, key)| key)
    }

    /// Analysis + partitioning (+ certification) of this spec's
    /// [resolved](PlanSpec::resolve) nest — the expensive phase the
    /// sharded cache memoizes.
    pub(crate) fn build(&self, nest: &LoopNest) -> Result<PartitionPlan, ServeError> {
        let verdict = if self.check {
            let report = alp_analysis::analyze(nest);
            if report.has_errors() {
                return Err(ServeError::new("ALP0003", report.render("").trim_end()));
            }
            LegalityVerdict::Checked {
                warnings: report.count(alp_analysis::Severity::Warning),
            }
        } else {
            LegalityVerdict::Unchecked
        };
        let plan = PartitionPlan::choose(nest, self.processors, None, verdict, false)?;
        if self.certify {
            let certificate = alp_certify::decide(&plan)?;
            return Ok(plan.with_certificate(certificate));
        }
        Ok(plan)
    }
}

/// [`PlanSpec::resolve`] then plan: one spec, source to plan.
pub fn build_plan(spec: &PlanSpec) -> Result<PartitionPlan, ServeError> {
    let (nest, _) = spec.resolve()?;
    spec.build(&nest)
}

/// Execution knobs of one run request.
#[derive(Debug, Clone, Default)]
pub struct RunSpec {
    /// OS threads (0 = the host's available parallelism); either way no
    /// more than the tiles, nor than the host's available parallelism.
    pub threads: usize,
    /// Store seed for the verified run.
    pub seed: u64,
    /// Per-request wall-clock deadline (`ALP0007` when exceeded).
    pub timeout_ms: Option<u64>,
    /// Per-request store-byte budget (`ALP0009` when exceeded).
    pub max_store_bytes: Option<u64>,
    /// Chaos: panic injection at `(tile, rep)` — honored only when the
    /// crate is built with the `chaos` feature, ignored otherwise.
    pub fault_panic: Option<(usize, u64)>,
}

/// Outcome of a native verified run through the server.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Whether the parallel result matched the sequential reference
    /// bit for bit.
    pub matches_reference: bool,
    /// Total iterations executed.
    pub iterations: u64,
    /// OS threads the executor actually used.
    pub threads: usize,
}

/// The host's available parallelism, read once: on Linux the standard
/// library reads the cgroup's CPU quota files for it on every call.
pub(crate) fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The OS threads a run request asks the executor for (which caps them
/// at the plan's tiles): the request's count, 0 meaning all the host's
/// `cores`, capped at `cores`.  Processor and tile counts are unbounded,
/// so one frame asking for `"processors": 4096` must not make the
/// daemon start a thread per processor.
fn run_threads(requested: usize, cores: usize) -> usize {
    match requested {
        0 => cores,
        t => t.min(cores),
    }
}

/// Natively execute a plan and check it against the sequential
/// reference, under the request's deadline and memory budget, on
/// [`RunSpec::threads`] threads at most the host's processors.  The
/// summary reports no touch counts, so the run tracks none: the budget
/// counts the store, which is all it allocates.
pub fn run_plan(plan: &Arc<PartitionPlan>, spec: &RunSpec) -> Result<RunSummary, ServeError> {
    let exec = Executor::from_plan(plan)?;
    #[allow(unused_mut)]
    let mut opts = ExecOptions {
        threads: run_threads(spec.threads, host_cores()),
        track_touches: false,
        deadline: spec.timeout_ms.map(Duration::from_millis),
        memory_budget: spec.max_store_bytes,
        ..ExecOptions::default()
    };
    #[cfg(feature = "chaos")]
    if let Some((tile, rep)) = spec.fault_panic {
        opts.fault_injector = Some(std::sync::Arc::new(
            alp_chaos::FaultPlan::new().with_panic(tile, rep),
        ));
    }
    #[cfg(not(feature = "chaos"))]
    let _ = spec.fault_panic;
    let outcome = exec.verify(spec.seed, &opts)?;
    Ok(RunSummary {
        matches_reference: outcome.matches_reference,
        iterations: outcome.report.total_iterations,
        threads: outcome.report.threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_is_budgeted_for_its_store_alone() {
        // Touch bitsets would add two per thread on top of the store;
        // a run that tracks nothing fits a budget of the store's bytes.
        let spec = PlanSpec {
            source: "doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = B[i,j]; } }".into(),
            processors: 4,
            check: true,
            certify: false,
        };
        let plan = Arc::new(build_plan(&spec).unwrap());
        let store_bytes = Executor::from_plan(&plan).unwrap().store_bytes();
        let run = |budget| {
            let spec = RunSpec {
                max_store_bytes: Some(budget),
                ..RunSpec::default()
            };
            run_plan(&plan, &spec)
        };
        let summary = run(store_bytes).unwrap();
        assert!(summary.matches_reference);
        assert_eq!(summary.iterations, 64 * 64);
        assert_eq!(run(store_bytes - 1).unwrap_err().code, "ALP0009");
    }

    #[test]
    fn a_run_gets_no_more_threads_than_the_host_has_processors() {
        // One per tile of a 4 096-tile plan on a 2-processor host is
        // two, and so is an explicit 4 096.
        assert_eq!(run_threads(0, 2), 2);
        assert_eq!(run_threads(4096, 2), 2);
        // Under the cap the request stands.
        assert_eq!(run_threads(3, 8), 3);
        assert_eq!(run_threads(1, 1), 1);
    }
}
