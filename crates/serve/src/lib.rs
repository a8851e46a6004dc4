//! # alp-serve — the partition-plan compiler as a long-running service
//!
//! The pipeline's economics are "plan once, amortize across many
//! requests": planning a nest is the expensive end (legality analysis,
//! reference classification, exhaustive tile-shape search), while a
//! cached [`PartitionPlan`](alp_plan::PartitionPlan) is an `Arc` clone.
//! This crate turns that into a daemon:
//!
//! * **Wire protocol** ([`protocol`]) — newline-delimited JSON frames
//!   over a local Unix socket, versioned like the plan codec and read
//!   through a size bound ([`server::MAX_REQUEST_BYTES`]).  Ops: `plan`,
//!   `run`, `stats`, `ping`, `shutdown`.
//! * **Sharded, coalescing cache** — the server fronts
//!   [`ShardedPlanCache`](alp_plan::ShardedPlanCache): per-shard locks
//!   keyed by the structural fingerprint, and N concurrent requests
//!   for the same [`PlanKey`](alp_plan::PlanKey) trigger exactly one
//!   compile.
//! * **Admission control** ([`server`]) — a bounded queue in front of
//!   the worker pool.  Requests that would overflow it are shed with
//!   the stable `ALP0012` code instead of queueing unboundedly; the
//!   deadline (`ALP0007`) and memory-budget (`ALP0009`) guards of the
//!   hardened executor bound each admitted request.
//! * **Graceful degradation** — `run` requests shed earlier than
//!   `plan` requests (they cost strictly more), and cache hits are
//!   served inline from the connection reader, bypassing the queue
//!   entirely — so a saturated worker pool still answers every request
//!   whose plan is already cached.
//!
//! The crate depends only on the leaf pipeline crates (`alp-loopir`,
//! `alp-analysis`, `alp-plan`, `alp-certify`, `alp-runtime`), not on the
//! root `alp` facade — the facade's CLI links *this* crate, and the
//! error-code contract (`ALP0001`…`ALP0015`: the pipeline crates name
//! their own codes, and this one adds the shed, `ALP0012`, and the
//! drain refusal, `ALP0015`) is small enough to restate at the boundary
//! ([`ServeError`]).

#![warn(missing_docs)]

pub mod client;
pub mod pipeline;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientConfig, ClientError};
pub use protocol::{Request, RequestOp, Response, PROTOCOL_VERSION};
pub use server::{DrainOutcome, ServeConfig, Server, ServerStats};

/// A serve-layer error: a stable `ALP00xx` code plus a rendered
/// message.  `Clone` so one failed compile can be shared verbatim with
/// every coalesced waiter (the root `AlpError` lives above this crate
/// and cannot cross that boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Stable machine-readable code (`ALP0001`…`ALP0015`).
    pub code: String,
    /// Human-readable rendering of the underlying failure.
    pub message: String,
}

impl ServeError {
    /// An error with the given code and message.
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        ServeError {
            code: code.to_string(),
            message: message.into(),
        }
    }

    /// The `ALP0012` load-shedding error for a queue observed at
    /// `depth` of `capacity`.
    pub fn overloaded(depth: usize, capacity: usize) -> Self {
        ServeError::new(
            "ALP0012",
            format!(
                "server overloaded: admission queue at depth {depth} of {capacity}; \
                 request shed — retry later"
            ),
        )
    }

    /// The `ALP0006` answer to a frame that cannot be taken: oversized,
    /// not UTF-8, not JSON, the wrong protocol version, or — where the
    /// codec's [`FieldError`](alp_plan::json::FieldError) lands — a field
    /// that is missing, mistyped or out of its type's range.
    pub fn bad_frame(what: impl std::fmt::Display) -> Self {
        ServeError::new("ALP0006", format!("bad frame: {what}"))
    }

    /// The `ALP0015` refusal sent while the server is draining: the
    /// request was never admitted, so retrying (against a replacement
    /// instance) is always safe.
    pub fn draining() -> Self {
        ServeError::new(
            "ALP0015",
            "server draining: new work refused; retry against a live instance",
        )
    }

    /// True when this is the `ALP0015` draining refusal.
    pub fn is_draining(&self) -> bool {
        self.code == "ALP0015"
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServeError {}

impl From<alp_plan::json::FieldError> for ServeError {
    fn from(e: alp_plan::json::FieldError) -> Self {
        ServeError::bad_frame(e)
    }
}
