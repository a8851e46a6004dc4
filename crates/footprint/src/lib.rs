//! Data footprints of loop tiles — the core analysis of Agarwal, Kranz &
//! Natarajan (ICPP 1993).
//!
//! Given a loop nest and a candidate iteration-space tile, this crate
//! answers: *how many distinct data elements does one tile touch?*  That
//! count (the **cumulative footprint**, §3.3–3.5 of the paper) is the
//! paper's proxy for the cache misses and coherence traffic a processor
//! generates, and minimizing it over tile shapes is the loop-partitioning
//! problem solved in `alp-partition`.
//!
//! The pipeline:
//!
//! 1. [`classify`] groups the body's references into **uniformly
//!    intersecting classes** (Defs. 4–6): same `G`, offsets differing by
//!    a vector of the image lattice of `G`.
//! 2. Each class gets a **spread** vector `â` (Def. 8) — or the
//!    cumulative spread `a⁺` for data partitioning (footnote 2).
//! 3. [`cumulative`] sizes the union of the class's footprints with
//!    Theorem 2 (general hyperparallelepiped tiles) or Theorem 4
//!    (rectangular tiles, via bounded lattices), and
//!    [`size`] sizes single-reference footprints (Eq. 2, Theorems 1 & 5,
//!    the §3.4.1 column reduction, and the exact counts of §3.8).
//! 4. [`model::CostModel`] sums the classes into one objective function
//!    of the tile shape, flagging classes that cannot affect the optimum
//!    (Example 10, case 3).
//!
//! Every estimate has an exact-by-enumeration counterpart used in tests
//! and in the `model_accuracy` experiment.

pub mod class;
pub mod cumulative;
pub mod model;
pub mod size;
pub mod tile;

pub use class::{classify, cumulative_spread, spread, RefClass};
pub use cumulative::{
    cumulative_footprint_exact, cumulative_footprint_general, cumulative_footprint_rect,
    cumulative_footprint_rect_exact_lattice, RectFootprint,
};
pub use model::{ClassCost, CostModel};
pub use size::{single_footprint_estimate, single_footprint_exact, single_footprint_exact_l2};
pub use tile::Tile;
