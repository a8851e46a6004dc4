//! # alp-calibrate — measured-latency calibration for the partitioner
//!
//! The Theorem-4 objective ranks candidate tilings by the cumulative
//! footprint of one tile — a pure *capacity* proxy.  On real machines
//! that proxy can invert: Example 2's column strips minimize distinct
//! lines but spread each tile's accesses across a huge address
//! envelope, and the measured wall time favors the blocked tiling the
//! model ranks second.  This crate closes the loop:
//!
//! 1. **Probe** ([`probe_nest`]) — run the candidate tilings of a nest
//!    on the actual machine, collecting per-tile busy times, measured
//!    distinct-line counts, and per-repetition barrier waits from the
//!    executor's [`RunReport`](alp_runtime::RunReport).
//! 2. **Fit** ([`fit`]) — least-squares the per-tile latency
//!    `busy ≈ a + b·lines + s·span + d·iters` (coefficients clamped
//!    non-negative, snapped to exact rationals) and average the barrier
//!    cost into a per-repetition coefficient `c`.
//! 3. **Re-rank** ([`rank`]) — score candidates with the hybrid cost
//!    `a·tiles + reps·(b·lines + s·span + d·iters) + c·reps`
//!    and pick the cheapest, breaking ties toward the analytic choice.
//!    [`rank_candidates`] / [`choose_calibrated`] feed it every feasible
//!    processor-grid factorization, [`rank_skewed`] the parallelepiped
//!    candidates; both describe a candidate by the same [`features`]
//!    of its [`Tiling`](alp_plan::Tiling).
//!
//! The fitted coefficients serialize to a versioned artifact
//! ([`Calibration`]) and travel inside
//! [`PartitionPlan`](alp_plan::PartitionPlan) provenance as
//! [`LatencyCoefficients`](alp_plan::LatencyCoefficients), so a plan
//! records *which* objective chose its tiling.
//!
//! The span term is what breaks the Example-2 tie: with the nest and
//! processor count fixed, `tiles` and `reps` are constant across
//! candidate grids and strips genuinely touch *fewer* distinct lines
//! than blocks — but their per-tile address envelope (`span`) is an
//! order of magnitude wider, which is exactly what the measured busy
//! times punish.

#![warn(missing_docs)]

mod artifact;
mod features;
mod fit;
mod probe;
mod rank;

pub use artifact::{Calibration, ARTIFACT_VERSION};
pub use features::{features, grid_features, GridFeatures};
pub use fit::{fit, LatencyModel, TileSample};
pub use probe::{fit_nest, probe_nest, ProbeConfig, ProbeReport};
pub use rank::{
    choose_calibrated, rank, rank_candidates, rank_skewed, ranking_is_degenerate, Ranked,
};

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

impl From<alp_plan::PlanError> for CalibrateError {
    fn from(e: alp_plan::PlanError) -> Self {
        CalibrateError::Plan(e)
    }
}
