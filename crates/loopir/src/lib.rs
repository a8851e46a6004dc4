//! Loop-nest intermediate representation for the `alp` partitioning
//! analysis.
//!
//! The paper analyses perfectly nested `Doall` loops (Fig. 1) whose array
//! subscripts are affine in the loop indices, `ḡ(ī) = ī·G + ā` (Eq. 1).
//! This crate provides:
//!
//! * [`AffineExpr`] — one affine subscript (a row of `G` plus a component
//!   of `ā` in the making);
//! * [`ArrayRef`] — a full reference `A[ḡ(ī)]` with its access kind
//!   (read / write / fine-grain-synchronized accumulate, cf. Appendix A);
//! * [`LoopNest`] — the nest itself, with optional outer sequential loops
//!   (Fig. 9's `Doseq`), bounds, and a statement list;
//! * a small text DSL ([`parse`]) so the paper's examples can be written
//!   verbatim in tests, examples and benches;
//! * [`ArrayLayout`] — the row-major flattening of the nest's arrays into
//!   line ids that the planner, the simulator and the runtime share;
//! * [`ArrayPartition`] and [`MeshPlacement`] — where `alp-partition`
//!   puts each array's data tiles and each processor (§4), described
//!   here so the simulator reads what the compiler emits.
//!
//! This is the `alp` equivalent of the Alewife compiler's WAIF front end
//! (§4): everything downstream consumes only the `(G, ā)` pairs and the
//! iteration-space geometry captured here.

pub mod distribution;
pub mod expr;
pub mod layout;
pub mod nest;
pub mod parser;
pub mod refs;
pub mod span;

pub use distribution::{mesh_placement, ArrayPartition, MeshPlacement};
pub use expr::AffineExpr;
pub use layout::{AccessStream, ArrayLayout, ElementForm, LayoutOverflow};
pub use nest::{LoopIndex, LoopNest, Statement};
pub use parser::{parse, parse_program, parse_program_with_params, parse_with_params, ParseError};
pub use refs::{AccessKind, ArrayRef};
pub use span::{line_col, line_text, Span};

/// The text a renderer writes, as a `String` (which never refuses a
/// write).
fn rendered(render: impl FnOnce(&mut String) -> std::fmt::Result) -> String {
    let mut out = String::new();
    render(&mut out).expect("writing to a String does not fail");
    out
}

/// Errors raised while constructing or validating IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// An array is used with inconsistent dimensionality.
    DimensionMismatch {
        /// Array name.
        array: String,
        /// Previously seen dimensionality.
        expected: usize,
        /// Conflicting dimensionality.
        found: usize,
    },
    /// A subscript references more loop indices than the nest has.
    DepthMismatch {
        /// Loop-nest depth.
        depth: usize,
        /// Coefficients supplied.
        found: usize,
    },
    /// A loop has `lower > upper`.
    EmptyLoop {
        /// Index name.
        index: String,
    },
    /// The same index name is used by two loops of the nest (counting
    /// both `doseq` and `doall` levels): the inner loop would shadow the
    /// outer and every subscript would be ambiguous.
    DuplicateIndex {
        /// The repeated index name.
        index: String,
    },
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::DimensionMismatch {
                array,
                expected,
                found,
            } => write!(
                f,
                "array `{array}` used with {found} subscripts, previously {expected}"
            ),
            IrError::DepthMismatch { depth, found } => {
                write!(
                    f,
                    "subscript has {found} coefficients in a depth-{depth} nest"
                )
            }
            IrError::EmptyLoop { index } => write!(f, "loop `{index}` has lower > upper"),
            IrError::DuplicateIndex { index } => {
                write!(f, "index `{index}` is declared by more than one loop")
            }
        }
    }
}

impl std::error::Error for IrError {}
