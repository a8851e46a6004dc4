//! # alp-calibrate — the benchmark probe's import path
//!
//! The ledger's `calibrate.choose_us` probe times the hybrid re-ranking
//! of the rectangular candidates under fixed coefficients through
//! `alp::calibrate::{LatencyModel, choose_calibrated}`.  Both are
//! `alp-plan`'s, re-exported here under those names; the planner ranks
//! by the paper's objective only and never calls them.

#![warn(missing_docs)]

pub use alp_plan::{choose_calibrated, LatencyCoefficients as LatencyModel};
