//! Loop and data partitioning (§3.6–3.7 and §4 of Agarwal, Kranz &
//! Natarajan).
//!
//! Consumes the cost model of `alp-footprint` and produces the tile shape
//! that minimizes communication:
//!
//! * [`rect`] — rectangular partitions: the closed-form Lagrange aspect
//!   ratio (Examples 8–10) and the integer search over processor-grid
//!   factorizations that the Alewife compiler implements;
//! * [`para`] — hyperparallelepiped partitions: a search over small
//!   unimodular bases with per-basis Lagrange scaling (Examples 3 & 6);
//! * [`commfree`] — Ramanujam & Sadayappan-style communication-free
//!   partitions, recovered here as the integer nullspace of the
//!   iteration-space translation vectors (Example 2);
//! * [`baselines`] — Abraham & Hudak's rectangular algorithm and naive
//!   row/column/square partitions, for the comparison experiments;
//! * [`data`] — data partitioning, alignment and 2-D mesh placement
//!   (§4's other two compiler phases).

pub mod baselines;
pub mod commfree;
pub mod data;
pub mod para;
pub mod program;
pub mod rect;

pub use baselines::{abraham_hudak_rect, naive_partition, NaiveShape};
pub use commfree::{communication_free_normals, is_communication_free};
pub use data::{align_arrays, mesh_placement, ArrayPartition, MeshPlacement};
pub use para::{optimize_parallelepiped, para_candidates, ParaPartition, ParaSearchConfig};
pub use program::{partition_program, ProgramPartition, ProgramStrategy};
pub use rect::{
    aspect_ratio_with_spread, cache_blocked_extents, feasible_grids, optimal_aspect_ratio,
    partition_rect, partition_rect_with_model, try_partition_rect, RectPartition, SpreadKind,
};
