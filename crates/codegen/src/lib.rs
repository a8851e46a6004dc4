//! Code generation for partitioned loops.
//!
//! The analysis side of `alp` decides tile *shapes*; this crate prints
//! the per-processor loop nest of a plan's own tiles, rectangular and
//! skewed alike: [`emit_code`] scans the tile of processor `p` with the
//! bounds that Fourier–Motzkin ([`alp_linalg::fm`]) derives from the
//! tiling's cuts ([`alp_plan::Tiling::loop_rows`]).

pub mod emit;

pub use emit::{emit_code, emit_rect_code};
