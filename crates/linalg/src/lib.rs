//! Exact integer and rational linear algebra for loop-partitioning analysis.
//!
//! This crate is the numeric substrate of the `alp` workspace, the Rust
//! reproduction of Agarwal, Kranz & Natarajan, *Automatic Partitioning of
//! Parallel Loops for Cache-Coherent Multiprocessors* (ICPP 1993).  The
//! paper's framework manipulates small integer matrices — reference
//! matrices `G`, tile matrices `L`, lattice bases — and needs *exact*
//! arithmetic: determinants (footprint volumes, Eq. 2 of the paper),
//! Hermite/Smith normal forms (lattice membership, Lemma 2), unimodularity
//! tests (Theorem 1), rational solves (Theorem 4's `u`, a tile's
//! `L⁻¹`), integer nullspaces (communication-free hyperplanes), and the
//! one lexicographic walk over a coordinate box ([`walk_box`]) that
//! tiles, bounded lattices, footprints and processor grids enumerate by.
//!
//! All matrices here are dense and small (loop nests rarely exceed depth 4
//! and array rank 4), so the implementation favours exactness and clarity
//! over asymptotics: Bareiss fraction-free elimination for determinants,
//! textbook HNF/SNF with transform tracking, `i128` entries to keep
//! intermediate products exact.
//!
//! Row-vector convention: following the paper, index vectors are **row**
//! vectors and references map `i ↦ i·G + a`, so `G` has one row per loop
//! index and one column per array dimension.

pub mod fm;
pub mod hnf;
pub mod mat;
pub mod num;
pub mod rat;
pub mod snf;
pub mod solve;
pub mod vec;
pub mod walk;

pub use fm::{eliminate, Constraint, System};
pub use hnf::{column_hnf, row_hnf, Hnf};
pub use mat::IMat;
pub use num::{gcd, gcd_many, lcm, xgcd};
pub use rat::Rat;
pub use snf::{smith_normal_form, Snf};
pub use solve::{integer_nullspace, max_independent_columns, solve_integer, solve_rational};
pub use vec::IVec;
pub use walk::walk_box;

/// Errors produced by exact linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes do not conform (e.g. `a.cols != b.rows`).
    ShapeMismatch {
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
    },
    /// A square, invertible matrix was required.
    Singular,
    /// A division had a nonzero remainder where an exact result was required.
    NotIntegral,
    /// The requested operation needs a nonempty matrix.
    Empty,
    /// An exact result, or a step towards it, does not fit `i128`.
    Overflow,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { left, right } => {
                write!(
                    f,
                    "shape mismatch: {}x{} vs {}x{}",
                    left.0, left.1, right.0, right.1
                )
            }
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NotIntegral => write!(f, "result is not integral"),
            LinalgError::Empty => write!(f, "empty matrix"),
            LinalgError::Overflow => write!(f, "exact result overflows i128"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenient `Result` alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
