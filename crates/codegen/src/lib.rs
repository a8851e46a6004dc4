//! Code generation for partitioned loops.
//!
//! The analysis side of `alp` decides tile *shapes*; this crate turns a
//! shape into executable structure:
//!
//! * [`assign`] — iteration-to-processor assignment: rectangular grids
//!   (an [`alp_plan::Tiling`]'s point lists), hyperplane slabs, and
//!   parallelepiped lattice cells, with load-balance statistics and an
//!   exact-cover check;
//! * [`emit`] — the per-processor loop nest of a plan's own tiles,
//!   rectangular and skewed alike: [`emit_code`] scans the tile of
//!   processor `p` with bounds that Fourier–Motzkin
//!   ([`alp_linalg::fm`]) derives from the tiling's cuts.

pub mod assign;
pub mod emit;

pub use assign::{
    assign_para, assign_rect, assign_slabs, assignment_stats, block_assignment, block_iterations,
    is_exact_cover, Assignment, AssignmentStats,
};
pub use emit::{emit_code, emit_rect_code};
