//! The general affine form, and the integer writer the renderer shares.

use alp_linalg::IMat;
use std::fmt;

/// An affine form `c₁·x₁ + c₂·x₂ + … + c_l·x_l + constant` over a loop
/// space: a tile bound or a transformed loop bound.  A reference keeps
/// its subscripts as the pair `(G, ā)` of [`ArrayRef`](crate::ArrayRef)
/// instead.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineExpr {
    /// Coefficient of each loop index, outermost first; length = nest depth.
    pub coeffs: Vec<i128>,
    /// The constant term.
    pub constant: i128,
}

impl AffineExpr {
    /// Build from explicit coefficients and constant.
    pub fn new(coeffs: Vec<i128>, constant: i128) -> Self {
        AffineExpr { coeffs, constant }
    }

    /// Exact `[min, max]` over the inclusive box `bx`, one `(lo, hi)` per
    /// index; `None` when a bound does not fit `i128`.
    pub fn range(&self, bx: impl IntoIterator<Item = (i128, i128)>) -> Option<(i128, i128)> {
        range_over(self.constant, self.coeffs.iter().copied().zip(bx))
    }
}

/// `Σ_d m[k][d]·c_d`, row `k` of `m` against the vector `c`, in checked
/// arithmetic: with `m = V = U⁻¹`, one coefficient in transformed
/// coordinates `j̄ = ī·U` (where `ī = j̄·V`) of a form whose
/// coefficients are `c`.
pub(crate) fn checked_dot(m: &IMat, k: usize, c: impl Iterator<Item = i128>) -> Option<i128> {
    (c.enumerate()).try_fold(0i128, |s, (d, cd)| {
        s.checked_add(m[(k, d)].checked_mul(cd)?)
    })
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
            AffineExpr::new(vec![0, 0], 7).range([(0, 9), (0, 9)]),
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
}
