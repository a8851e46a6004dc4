//! Exact rational numbers on `i128`.

use crate::num::gcd;

/// An exact rational number, always stored in lowest terms with a positive
/// denominator.
///
/// Used wherever the partitioning analysis needs non-integer exact values:
/// tile matrices `L = Λ(H⁻¹)ᵗ` (Def. 2), the decomposition `â = Σ uᵢ·ḡᵢ` of
/// Theorem 4, and the closed-form Lagrange optima of §3.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

impl Rat {
    /// Construct `num/den`, reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        if den == 1 {
            // Already in lowest terms: integer arithmetic, the common
            // case of the footprint sums, pays no gcd.
            return Rat { num, den };
        }
        assert_ne!(den, 0, "zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// The integer `n` as a rational.
    pub const fn int(n: i128) -> Self {
        Rat { num: n, den: 1 }
    }

    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Numerator (sign-carrying).
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn den(&self) -> i128 {
        self.den
    }

    /// True when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Nearest `f64` (used only for reporting and heuristic search seeds).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Absolute value.
    pub fn abs(&self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Floor to an integer.
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Ceiling to an integer.
    pub fn ceil(&self) -> i128 {
        -(-self.num).div_euclid(self.den)
    }
}

impl std::ops::Add for Rat {
    type Output = Rat;
    fn add(self, o: Rat) -> Rat {
        Rat::new(self.num * o.den + o.num * self.den, self.den * o.den)
    }
}

impl std::ops::Sub for Rat {
    type Output = Rat;
    fn sub(self, o: Rat) -> Rat {
        Rat::new(self.num * o.den - o.num * self.den, self.den * o.den)
    }
}

impl std::ops::Mul for Rat {
    type Output = Rat;
    fn mul(self, o: Rat) -> Rat {
        Rat::new(self.num * o.num, self.den * o.den)
    }
}

impl std::ops::Div for Rat {
    type Output = Rat;
    fn div(self, o: Rat) -> Rat {
        assert_ne!(o.num, 0, "division by zero");
        Rat::new(self.num * o.den, self.den * o.num)
    }
}

impl std::ops::Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Denominators are positive, so cross-multiplication preserves order.
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Self {
        Rat::int(n)
    }
}

impl std::fmt::Display for Rat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reduction_and_sign() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, -7), Rat::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
    }

    #[test]
    fn floors_and_ceils() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::new(-1, 3));
        assert!(Rat::int(2) > Rat::new(3, 2));
    }

    fn arb_rat() -> impl Strategy<Value = Rat> {
        (-100i128..=100, 1i128..=30).prop_map(|(n, d)| Rat::new(n, d))
    }

    proptest! {
        #[test]
        fn field_axioms(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!((a + b) + c, a + (b + c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
            prop_assert_eq!(a - a, Rat::ZERO);
            if !b.is_zero() {
                prop_assert_eq!(a / b * b, a);
            }
        }

        #[test]
        fn floor_ceil_bracket(a in arb_rat()) {
            let f = a.floor();
            let c = a.ceil();
            prop_assert!(Rat::int(f) <= a && a <= Rat::int(c));
            prop_assert!(c - f <= 1);
        }
    }
}
