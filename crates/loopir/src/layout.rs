//! Row-major memory layout of a nest's arrays.

use crate::LoopNest;
use alp_linalg::IVec;
use std::collections::HashMap;

/// Flattening of every array in a nest into dense line ids — the one
/// layout the planner's address envelopes, the simulator's
/// cache/directory state and the runtime's store and kernel share.
///
/// Each array holds `Π(hi−lo+1)` elements over the extents the loop
/// bounds imply, laid out row-major (strides from the innermost
/// dimension out), arrays back to back in first-appearance order.  With
/// unit cache lines (§2.2) a line is exactly one array element.
#[derive(Debug, Clone)]
pub struct ArrayLayout {
    arrays: Vec<ArrayInfo>,
    by_name: HashMap<String, usize>,
    total_lines: u64,
}

#[derive(Debug, Clone)]
struct ArrayInfo {
    name: String,
    /// Inclusive (lo, hi) extent per dimension.
    extents: Vec<(i128, i128)>,
    /// Base line id.
    base: u64,
    /// Row-major strides.
    strides: Vec<u64>,
}

/// A nest's arrays need more line ids than a `u64` holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutOverflow {
    /// The array whose elements no longer fit.
    pub array: String,
}

impl std::fmt::Display for LayoutOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the arrays up to `{}` hold more than 2^64 elements",
            self.array
        )
    }
}

impl std::error::Error for LayoutOverflow {}

impl ArrayLayout {
    /// Lay out every array touched by the nest, with extents implied by
    /// the loop bounds.  Fails, before anything is sized by it, when the
    /// element count does not fit `u64`.
    pub fn from_nest(nest: &LoopNest) -> Result<Self, LayoutOverflow> {
        let mut arrays = Vec::new();
        let mut by_name = HashMap::new();
        let mut base = 0u64;
        // array_extents is a HashMap; iterate arrays() for a stable order.
        let extents = nest.array_extents();
        for name in nest.arrays() {
            let ext = extents[&name].clone();
            let overflow = || LayoutOverflow {
                array: name.clone(),
            };
            // Innermost dimension out: `size` is the stride of dimension
            // `k`, and the array's element count (at least one: every
            // extent has `lo ≤ hi`) once all are folded in.
            let mut size = 1u64;
            let mut strides = vec![1u64; ext.len()];
            for (k, &(lo, hi)) in ext.iter().enumerate().rev() {
                strides[k] = size;
                size = u64::try_from(hi - lo + 1)
                    .ok()
                    .and_then(|dim| size.checked_mul(dim))
                    .ok_or_else(overflow)?;
            }
            let end = base.checked_add(size).ok_or_else(overflow)?;
            by_name.insert(name.clone(), arrays.len());
            arrays.push(ArrayInfo {
                name,
                extents: ext,
                base,
                strides,
            });
            base = end;
        }
        Ok(ArrayLayout {
            arrays,
            by_name,
            total_lines: base,
        })
    }

    /// Total number of distinct lines (elements) across all arrays.
    pub fn total_lines(&self) -> u64 {
        self.total_lines
    }

    /// Array id for a name.
    pub fn array_id(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Line id of an element.
    ///
    /// # Panics
    /// Panics if the subscript is outside the array's extent (would be an
    /// out-of-bounds access in the source program).
    pub fn line(&self, array_id: usize, index: &IVec) -> u64 {
        let a = &self.arrays[array_id];
        debug_assert_eq!(index.len(), a.extents.len(), "rank mismatch");
        let mut off = 0u64;
        for (k, (&x, &(lo, hi))) in index.0.iter().zip(&a.extents).enumerate() {
            assert!(
                lo <= x && x <= hi,
                "{}[{}] out of extent {:?}",
                a.name,
                index,
                a.extents
            );
            off += (x - lo) as u64 * a.strides[k];
        }
        a.base + off
    }

    /// Number of arrays.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// The inclusive extents of an array.
    pub fn extents(&self, array_id: usize) -> &[(i128, i128)] {
        &self.arrays[array_id].extents
    }

    /// Base line id of an array (its first element, lowest corner).
    pub fn base(&self, array_id: usize) -> u64 {
        self.arrays[array_id].base
    }

    /// Row-major element strides of an array, one per dimension.
    ///
    /// Together with [`ArrayLayout::base`] and the extent lower bounds
    /// this lets callers (e.g. a runtime kernel compiler) fold the whole
    /// element-id computation `base + Σ_d stride_d·(x_d − lo_d)` into an
    /// affine form instead of calling [`ArrayLayout::line`] per access.
    pub fn strides(&self, array_id: usize) -> &[u64] {
        &self.arrays[array_id].strides
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn layout_flattening() {
        let nest = parse("doall (i, 0, 9) { doall (j, 0, 4) { A[i,j] = B[i+j]; } }").unwrap();
        let lay = ArrayLayout::from_nest(&nest).unwrap();
        assert_eq!(lay.array_count(), 2);
        let a = lay.array_id("A").unwrap();
        let b = lay.array_id("B").unwrap();
        // A is 10x5 = 50 lines; B is i+j in 0..13 = 14 lines.
        assert_eq!(lay.total_lines(), 50 + 14);
        assert_eq!(lay.strides(a), &[5, 1]);
        assert_eq!(lay.line(a, &IVec::new(&[0, 0])), 0);
        assert_eq!(lay.line(a, &IVec::new(&[0, 4])), 4);
        assert_eq!(lay.line(a, &IVec::new(&[1, 0])), 5);
        assert_eq!(lay.line(a, &IVec::new(&[9, 4])), 49);
        assert_eq!(lay.line(b, &IVec::new(&[0])), 50);
        assert_eq!(lay.line(b, &IVec::new(&[13])), 63);
    }

    #[test]
    fn layout_negative_extents() {
        let nest = parse("doall (i, -5, 5) { A[i-2] = A[i-2]; }").unwrap();
        let lay = ArrayLayout::from_nest(&nest).unwrap();
        let a = lay.array_id("A").unwrap();
        assert_eq!(lay.extents(a), &[(-7, 3)]);
        assert_eq!(lay.line(a, &IVec::new(&[-7])), 0);
        assert_eq!(lay.line(a, &IVec::new(&[3])), 10);
    }

    #[test]
    #[should_panic(expected = "out of extent")]
    fn out_of_bounds_panics() {
        let nest = parse("doall (i, 0, 9) { A[i] = A[i]; }").unwrap();
        let lay = ArrayLayout::from_nest(&nest).unwrap();
        let a = lay.array_id("A").unwrap();
        lay.line(a, &IVec::new(&[11]));
    }

    #[test]
    fn layouts_beyond_u64_are_refused() {
        // 2^32 × 2^32 elements wrap a u64 product to exactly 0, and
        // (2^32+1)² to a small number: both must be refused, not sized.
        let square = |hi: &str| {
            let src = format!("doall (i, 0, {hi}) {{ doall (j, 0, {hi}) {{ A[i,j] = B[i,j]; }} }}");
            ArrayLayout::from_nest(&parse(&src).unwrap())
        };
        for hi in ["4294967295", "4294967296"] {
            let err = square(hi).expect_err("must not fit");
            assert_eq!(err.array, "A", "{hi}");
        }
        // One array that fits, two that together do not.
        let err = square("3037000499").map(|l| l.total_lines());
        assert_eq!(err, Err(LayoutOverflow { array: "B".into() }));
        // The largest square that does: 2 × (2^31)² = 2^63 lines.
        assert_eq!(square("2147483647").unwrap().total_lines(), 1 << 63);
        // A single dimension wider than u64.
        let wide = parse("doall (i, 0, 1) { A[18446744073709551616*i] = B[i]; }").unwrap();
        assert!(ArrayLayout::from_nest(&wide).is_err());
    }
}
