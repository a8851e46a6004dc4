//! # alp-plan — the partitioning decision as a first-class artifact
//!
//! Every layer of the pipeline used to trade in loose tuples of
//! `(RectPartition, Report, …)`; this crate makes the decision itself
//! the currency.  A [`PartitionPlan`] bundles
//!
//! * a **structural fingerprint** of the nest (stable FNV-1a over a
//!   canonically-renamed rendering — invariant under loop-index
//!   renaming, stable across platforms and Rust versions),
//! * the chosen **partition** — processor grid and tile extents, over
//!   the iteration space itself or, with a unimodular [`Transform`]
//!   attached, over its image `j = i·U` where skewed parallelepiped
//!   tiles are rectangular — with the optimizer's objective value,
//! * the predicted **Eq.-2 cumulative footprints** per uniformly
//!   intersecting reference class,
//! * the **legality verdict** and **provenance** (processor count,
//!   mesh, optimizer name),
//! * the nest's **canonical source**, so a plan file alone suffices to
//!   re-execute or re-simulate the computation.
//!
//! [`PartitionPlan::choose`] is **the planner**: the one function that
//! owns the tile-shape policy — the candidate set (feasible processor
//! grids, or the skewed parallelepiped candidates), the pick (the
//! paper's analytic objective), and the optimizer label.  The facade,
//! the CLI and the daemon bracket it with analysis and certification
//! and decide nothing themselves.  [`choose_calibrated`] re-ranks the
//! rectangular candidates under a [`LatencyCoefficients`] hybrid cost;
//! the planner never calls it (the benchmark times it).
//!
//! Plans serialize to a versioned JSON schema through [`json`], the
//! tree's one hand-rolled, float-free codec (the journal and the wire
//! use it too), whose output is byte-deterministic
//! — the golden-snapshot tests diff the exact bytes.
//! [`ShardedPlanCache::get_or_compute`] memoizes plans by [`PlanKey`]
//! (fingerprint plus every parameter that can change the plan) with
//! hit/miss/coalesced/eviction counters, and a [`Tiling`]
//! ([`PartitionPlan::tiling`]) is the one answer to "which iterations
//! does tile `t` own, and in what row order" that every consumer
//! (codegen, runtime, certifier, machine simulation) takes
//! instead of branching on the plan's shape.  Every [`PlanError`] names
//! its own stable `ALP00xx` code ([`PlanError::code`]).

#![warn(missing_docs)]

pub mod cache;
mod features;
pub mod fingerprint;
pub mod json;
mod plan;
mod rank;
pub mod shard;
pub mod store;
pub mod tiles;
pub mod transform;

pub use cache::PlanKey;
pub use features::{grid_features, GridFeatures};
pub use fingerprint::{canonical_source, fingerprint, fingerprint_hex, fnv1a64};
pub use json::{Json, JsonError};
pub use plan::{
    Certificate, ChosenBy, ClassFootprint, LatencyCoefficients, LegalityVerdict, PartitionPlan,
    MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};
pub use rank::{choose_calibrated, rank, rank_candidates, ranking_is_degenerate, Ranked};
pub use shard::{Fetched, ShardOccupancy, ShardedCacheStats, ShardedPlanCache};
pub use store::{JournalFrame, PlanStore, RecoveryReport, StoredEntry};
pub use tiles::{IterBox, Tiling};
pub use transform::{skewed_candidates, SkewedCandidate, Transform};

/// Everything that can go wrong building, encoding, or decoding a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A tile grid that does not fit the nest (wrong rank, non-positive
    /// extent, or overflow).
    BadGrid(String),
    /// The plan file is not well-formed JSON (includes truncation).
    Json(JsonError),
    /// The plan file declares a schema version this build cannot read.
    UnsupportedVersion {
        /// Version found in the file.
        found: i128,
        /// Newest version this build understands.
        supported: u32,
    },
    /// Well-formed JSON that does not match the plan schema.
    Schema(String),
    /// The embedded source no longer matches the recorded fingerprint.
    FingerprintMismatch {
        /// Fingerprint recorded in the plan.
        expected: String,
        /// Fingerprint of the embedded source.
        found: String,
    },
    /// The nest cannot be partitioned as requested.
    Infeasible(String),
    /// The plan's embedded certificate block is malformed, truncated,
    /// or inconsistent with the plan it is attached to.  Kept separate
    /// from [`Schema`](PlanError::Schema) so tampered certificates map
    /// to the stable `ALP0011` diagnostic code.
    Certificate(String),
    /// The plan's embedded transform block is invalid: not a square
    /// unimodular matrix (det ±1), wrong rank for the nest, or bound to
    /// a different fingerprint.  Kept separate from
    /// [`Schema`](PlanError::Schema) so tampered transforms map to the
    /// stable `ALP0013` diagnostic code.
    Transform(String),
}

impl PlanError {
    /// The code of [`PlanError::Infeasible`], for callers that carry
    /// infeasibility as a variant of their own.
    pub const INFEASIBLE_CODE: &'static str = "ALP0004";

    /// The stable `ALP00xx` diagnostic code: `ALP0004` infeasible,
    /// `ALP0011` certificate block damage, `ALP0013` transform block
    /// damage, `ALP0006` every other plan-artifact failure.
    pub fn code(&self) -> &'static str {
        match self {
            PlanError::Infeasible(_) => Self::INFEASIBLE_CODE,
            PlanError::Certificate(_) => "ALP0011",
            PlanError::Transform(_) => "ALP0013",
            _ => "ALP0006",
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadGrid(msg) => write!(f, "bad tile grid: {msg}"),
            PlanError::Json(e) => write!(f, "plan is not valid JSON: {e}"),
            PlanError::UnsupportedVersion { found, supported } => write!(
                f,
                "plan schema version {found} is not supported (this build reads version \
                 {supported}); re-emit the plan with `alp-cli plan --emit`"
            ),
            PlanError::Schema(msg) => write!(f, "plan does not match the schema: {msg}"),
            PlanError::FingerprintMismatch { expected, found } => write!(
                f,
                "plan fingerprint {expected} does not match its embedded source \
                 (which hashes to {found}); the plan file was edited or corrupted"
            ),
            PlanError::Infeasible(msg) => write!(f, "cannot plan nest: {msg}"),
            PlanError::Certificate(msg) => write!(f, "invalid plan certificate: {msg}"),
            PlanError::Transform(msg) => write!(f, "invalid plan transform: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<alp_loopir::LayoutOverflow> for PlanError {
    fn from(e: alp_loopir::LayoutOverflow) -> Self {
        PlanError::Infeasible(e.to_string())
    }
}

impl From<JsonError> for PlanError {
    fn from(e: JsonError) -> Self {
        PlanError::Json(e)
    }
}

/// A field the codec refused is a schema violation, unless the decoder
/// says which block it damaged ([`PlanError::Certificate`],
/// [`PlanError::Transform`]).
impl From<json::FieldError> for PlanError {
    fn from(e: json::FieldError) -> Self {
        PlanError::Schema(e.to_string())
    }
}
