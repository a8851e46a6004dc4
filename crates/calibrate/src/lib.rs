//! # alp-calibrate — measured-latency calibration for the partitioner
//!
//! The Theorem-4 objective ranks candidate tilings by the cumulative
//! footprint of one tile — a pure *capacity* proxy.  Two shapes the
//! proxy holds nearly equal need not cost the same on a real memory
//! system: Example 2's column strips minimize distinct lines but sweep
//! an address envelope more than twice as wide as the square blocks the
//! model ranks second, which the line count does not charge for.
//! (Which of the two runs faster is unresolved: no instrument runs one
//! nest under both tilings — ROADMAP, "Close the model loop".)  This
//! crate is the empirical side:
//!
//! 1. **Probe** ([`probe_nest`]) — run the candidate tilings of a nest
//!    on the actual machine, collecting per-tile busy times, measured
//!    distinct-line counts, and per-repetition barrier waits from the
//!    executor's [`RunReport`](alp_runtime::RunReport).
//! 2. **Fit** ([`fit`]) — least-squares the per-tile latency
//!    `busy ≈ a + b·lines + s·span + d·iters` (coefficients clamped
//!    non-negative, snapped to exact rationals) and average the barrier
//!    cost into a per-repetition coefficient `c`.
//! 3. **Persist** ([`Calibration`]) — the fitted coefficients as a
//!    versioned, byte-deterministic artifact `alp-cli plan --calibrated`
//!    reads back.
//!
//! That is all this crate does — probe, fit, artifact.  The fitted
//! model *is* [`alp_plan::LatencyCoefficients`] ([`LatencyModel`] is
//! its name here), and scoring candidates with it — the hybrid cost
//! `a·tiles + reps·(b·lines + s·span + d·iters) + c·reps`, [`rank`]
//! and its callers — belongs to the planner
//! ([`PartitionPlan::choose`](alp_plan::PartitionPlan::choose)) in
//! `alp-plan`; the names are re-exported here.  The artifact writes the
//! coefficients through the same field codec as a plan's `calibration`
//! provenance block, so a plan records *which* objective chose its
//! tiling.
//!
//! The span term is what breaks the Example-2 tie: with the nest and
//! processor count fixed, `tiles` and `reps` are constant across
//! candidate grids and strips genuinely touch *fewer* distinct lines
//! than blocks — but their per-tile address envelope (`span`) is
//! wider, and a fit that gives `s` weight charges them for it.

#![warn(missing_docs)]

mod artifact;
mod fit;
mod probe;

// The ranking the fitted model feeds lives with the planner
// (`PartitionPlan::choose`); re-exported so `alp_calibrate::…` paths
// keep resolving.
pub use alp_plan::{
    choose_calibrated, features, rank, rank_candidates, rank_skewed, ranking_is_degenerate,
    GridFeatures, LatencyCoefficients as LatencyModel, Ranked,
};
pub use artifact::{Calibration, ARTIFACT_VERSION};
pub use fit::{fit, TileSample};
pub use probe::{fit_nest, probe_nest, ProbeConfig, ProbeReport};

/// Everything that can go wrong probing, fitting, or (de)serializing a
/// calibration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalibrateError {
    /// The calibration file is not well-formed JSON.
    Json(alp_plan::JsonError),
    /// Well-formed JSON that does not match the calibration schema.
    Schema(String),
    /// The calibration file declares a schema version this build cannot
    /// read.
    UnsupportedVersion {
        /// Version found in the file.
        found: i128,
        /// Newest version this build understands.
        supported: u32,
    },
    /// Too few probe samples to fit the latency model.
    NotEnoughSamples {
        /// Samples collected.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// The probe data cannot identify the coefficients (e.g. every
    /// candidate tiling produced identical features).
    Degenerate(String),
    /// Tile enumeration / plan plumbing failed.
    Plan(alp_plan::PlanError),
    /// A probe run failed in the executor.
    Runtime(String),
}

impl CalibrateError {
    /// The stable `ALP00xx` diagnostic code: the plan's own code for
    /// plan plumbing failures, `ALP0010` for everything about the
    /// calibration itself (artifact, probe, fit).
    pub fn code(&self) -> &'static str {
        match self {
            CalibrateError::Plan(e) => e.code(),
            _ => "ALP0010",
        }
    }
}

impl std::fmt::Display for CalibrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrateError::Json(e) => write!(f, "calibration is not valid JSON: {e}"),
            CalibrateError::Schema(msg) => {
                write!(f, "calibration does not match the schema: {msg}")
            }
            CalibrateError::UnsupportedVersion { found, supported } => write!(
                f,
                "calibration schema version {found} is not supported (this build reads \
                 version {supported}); re-run `alp-cli calibrate`"
            ),
            CalibrateError::NotEnoughSamples { got, need } => write!(
                f,
                "only {got} probe samples collected, need at least {need}; raise --trials \
                 or probe a larger nest"
            ),
            CalibrateError::Degenerate(msg) => {
                write!(f, "probe data cannot identify the latency model: {msg}")
            }
            CalibrateError::Plan(e) => write!(f, "{e}"),
            CalibrateError::Runtime(msg) => write!(f, "probe run failed: {msg}"),
        }
    }
}

impl std::error::Error for CalibrateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CalibrateError::Json(e) => Some(e),
            CalibrateError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<alp_plan::JsonError> for CalibrateError {
    fn from(e: alp_plan::JsonError) -> Self {
        CalibrateError::Json(e)
    }
}

impl From<alp_plan::json::FieldError> for CalibrateError {
    fn from(e: alp_plan::json::FieldError) -> Self {
        CalibrateError::Schema(e.to_string())
    }
}

impl From<alp_plan::PlanError> for CalibrateError {
    fn from(e: alp_plan::PlanError) -> Self {
        CalibrateError::Plan(e)
    }
}
