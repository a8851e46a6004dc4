//! Affine subscript expressions.

use crate::IndexName;
use alp_linalg::{IMat, IVec};
use std::fmt;

/// One affine subscript: `c₁·i₁ + c₂·i₂ + … + c_l·i_l + constant`.
///
/// A subscript is one column of the paper's reference matrix `G` together
/// with one component of the offset vector `ā` (Eq. 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineExpr {
    /// Coefficient of each loop index, outermost first; length = nest depth.
    pub coeffs: Vec<i128>,
    /// The constant term.
    pub constant: i128,
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(depth: usize, c: i128) -> Self {
        AffineExpr {
            // Not `vec![0; depth]`: that asks the allocator for zeroed
            // memory, which glibc's `calloc` serves slower than a plain
            // allocation of a few bytes (the parser builds one of these
            // per subscript).
            coeffs: std::iter::repeat_n(0, depth).collect(),
            constant: c,
        }
    }

    /// The single index `i_k` (0-based) in a nest of the given depth, with
    /// unit coefficient and no offset.
    ///
    /// # Panics
    /// Panics if `k >= depth`.
    pub fn index(depth: usize, k: usize) -> Self {
        assert!(k < depth, "index out of nest");
        let mut coeffs = vec![0; depth];
        coeffs[k] = 1;
        AffineExpr {
            coeffs,
            constant: 0,
        }
    }

    /// Build from explicit coefficients and constant.
    pub fn new(coeffs: Vec<i128>, constant: i128) -> Self {
        AffineExpr { coeffs, constant }
    }

    /// Nest depth this expression is written against.
    pub fn depth(&self) -> usize {
        self.coeffs.len()
    }

    /// Add another expression (matching depth).
    ///
    /// # Panics
    /// Panics on depth mismatch.
    pub fn add(&self, other: &AffineExpr) -> AffineExpr {
        assert_eq!(self.depth(), other.depth(), "depth mismatch");
        AffineExpr {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a + b)
                .collect(),
            constant: self.constant + other.constant,
        }
    }

    /// Scale by an integer.
    pub fn scale(&self, k: i128) -> AffineExpr {
        AffineExpr {
            coeffs: self.coeffs.iter().map(|c| c * k).collect(),
            constant: self.constant * k,
        }
    }

    /// Add a constant.
    pub fn offset(&self, c: i128) -> AffineExpr {
        AffineExpr {
            coeffs: self.coeffs.clone(),
            constant: self.constant + c,
        }
    }

    /// Evaluate at an iteration point.
    ///
    /// # Panics
    /// Panics on depth mismatch.
    pub fn eval(&self, i: &IVec) -> i128 {
        assert_eq!(i.len(), self.depth(), "depth mismatch");
        self.constant
            + self
                .coeffs
                .iter()
                .zip(&i.0)
                .map(|(c, x)| c * x)
                .sum::<i128>()
    }

    /// Exact `[min, max]` over the inclusive box `bx`, one `(lo, hi)` per
    /// index; `None` when a bound does not fit `i128`.
    pub fn range(&self, bx: impl IntoIterator<Item = (i128, i128)>) -> Option<(i128, i128)> {
        range_over(self.constant, self.coeffs.iter().copied().zip(bx))
    }

    /// Rewrite from original coordinates `ī` to transformed coordinates
    /// `j̄ = ī·U`: with `V = U⁻¹` and row-vector convention `ī = j̄·V`,
    /// the coefficient on `j_k` becomes `Σ_d V[k][d]·c_d`; the constant
    /// is unchanged.  `self.composed(V)` at `j̄` is `self` at `j̄·V`.
    /// `None` when a coefficient does not fit `i128`.
    pub fn composed(&self, v: &IMat) -> Option<AffineExpr> {
        debug_assert_eq!(v.rows(), self.depth(), "transform rank is the nest depth");
        let coeff = |k| {
            (self.coeffs.iter().enumerate()).try_fold(0i128, |c, (d, &cd)| {
                c.checked_add(v[(k, d)].checked_mul(cd)?)
            })
        };
        Some(AffineExpr {
            coeffs: (0..self.depth()).map(coeff).collect::<Option<_>>()?,
            constant: self.constant,
        })
    }

    /// True when no loop index appears (a pure constant subscript —
    /// Example 1's droppable dimensions).
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Render into `out`, index `k` spelled as the `k`-th of `names`.
    pub fn render<N: IndexName>(
        &self,
        out: &mut impl fmt::Write,
        names: impl Iterator<Item = N>,
    ) -> fmt::Result {
        let mut empty = true;
        for (&c, n) in self.coeffs.iter().zip(names) {
            match c {
                0 => continue,
                1 if empty => {}
                1 => out.write_char('+')?,
                -1 => out.write_char('-')?,
                c => {
                    if c > 0 && !empty {
                        out.write_char('+')?;
                    }
                    write_int(out, c)?;
                    out.write_char('*')?;
                }
            }
            n.write_to(out)?;
            empty = false;
        }
        if self.constant != 0 || empty {
            if self.constant >= 0 && !empty {
                out.write_char('+')?;
            }
            write_int(out, self.constant)?;
        }
        Ok(())
    }

    /// Render using the given index names.
    pub fn display(&self, names: &[String]) -> String {
        crate::rendered(|s| self.render(s, names.iter()))
    }
}

/// Write `n` in decimal, as `{}` does, without the formatter: the
/// renderer writes every bound, coefficient and constant through it,
/// and the plan fingerprint the position of every index.
pub fn write_int(out: &mut impl fmt::Write, n: i128) -> fmt::Result {
    // `u128` division is a library call, so it only splits off 19
    // digits at a time; `u64` writes each chunk.
    const TEN19: u128 = 10_000_000_000_000_000_000;
    // |i128::MIN| has 39 digits, and the sign takes one byte more.
    let mut buf = [0u8; 40];
    let mut at = buf.len();
    let mut m = n.unsigned_abs();
    loop {
        let (rest, mut chunk) = match u64::try_from(m) {
            Ok(chunk) => (0, chunk),
            Err(_) => (m / TEN19, (m % TEN19) as u64),
        };
        // A chunk below a higher one is zero-padded to 19 digits; the
        // highest has at least one.
        let floor = at - if rest > 0 { 19 } else { 1 };
        while at > floor || chunk > 0 {
            at -= 1;
            buf[at] = b'0' + (chunk % 10) as u8;
            chunk /= 10;
        }
        if rest == 0 {
            break;
        }
        m = rest;
    }
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
}

/// `[min, max]` of `constant + Σ c·x` over `lo ≤ x ≤ hi` per
/// `(c, (lo, hi))` term, in checked arithmetic: an affine form takes its
/// extremes at the box's corners, coefficient by coefficient.  The one
/// range every subscript and every [`ElementForm`](crate::ElementForm)
/// goes through.
pub(crate) fn range_over(
    constant: i128,
    terms: impl Iterator<Item = (i128, (i128, i128))>,
) -> Option<(i128, i128)> {
    let (mut min, mut max) = (constant, constant);
    for (c, (lo, hi)) in terms {
        let (a, z) = (c.checked_mul(lo)?, c.checked_mul(hi)?);
        min = min.checked_add(a.min(z))?;
        max = max.checked_add(a.max(z))?;
    }
    Some((min, max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_is_exact_and_checked() {
        let e = AffineExpr::new(vec![1, -2], 3); // i - 2j + 3
        assert_eq!(e.range([(0, 4), (-1, 5)]), Some((3 - 10, 3 + 4 + 2)));
        assert_eq!(
            AffineExpr::constant(2, 7).range([(0, 9), (0, 9)]),
            Some((7, 7))
        );
        // 2^126 · 4 and MAX + 1 do not fit: refused, not wrapped.
        assert_eq!(AffineExpr::new(vec![1 << 126], 0).range([(0, 4)]), None);
        assert_eq!(AffineExpr::new(vec![1], i128::MAX).range([(0, 1)]), None);
    }

    #[test]
    fn write_int_matches_the_formatter() {
        let edges = [
            0,
            1,
            9,
            10,
            1 << 63,
            1 << 64,
            10_i128.pow(19),
            10_i128.pow(38),
        ];
        let around = edges.iter().flat_map(|&e| [e - 1, e, e + 1]);
        for n in around.flat_map(|n| [n, -n]).chain([i128::MIN, i128::MAX]) {
            let mut text = String::new();
            write_int(&mut text, n).unwrap();
            assert_eq!(text, n.to_string());
        }
    }

    #[test]
    fn builders() {
        let i = AffineExpr::index(3, 0);
        let j = AffineExpr::index(3, 1);
        let e = i.add(&j.scale(2)).offset(-1); // i + 2j - 1
        assert_eq!(e.coeffs, vec![1, 2, 0]);
        assert_eq!(e.constant, -1);
        assert!(!e.is_constant());
        assert!(AffineExpr::constant(3, 5).is_constant());
    }

    #[test]
    fn evaluation() {
        let e = AffineExpr::new(vec![1, 2], -1); // i + 2j - 1
        assert_eq!(e.eval(&IVec::new(&[3, 4])), 3 + 8 - 1);
    }

    #[test]
    #[should_panic(expected = "depth mismatch")]
    fn eval_depth_checked() {
        AffineExpr::new(vec![1, 2], 0).eval(&IVec::new(&[1]));
    }

    #[test]
    fn rendering() {
        let names = vec!["i".to_string(), "j".to_string()];
        assert_eq!(AffineExpr::new(vec![1, 1], 0).display(&names), "i+j");
        assert_eq!(AffineExpr::new(vec![1, -1], -1).display(&names), "i-j-1");
        assert_eq!(AffineExpr::new(vec![2, 0], 3).display(&names), "2*i+3");
        assert_eq!(AffineExpr::new(vec![0, 0], 5).display(&names), "5");
        assert_eq!(AffineExpr::new(vec![0, 0], 0).display(&names), "0");
        assert_eq!(AffineExpr::new(vec![-2, 0], 0).display(&names), "-2*i");
    }
}
