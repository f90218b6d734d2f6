//! Fixed-point monetary amounts.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of micro-dollars in one dollar.
pub const MICROS_PER_DOLLAR: i128 = 1_000_000;

/// A signed monetary amount stored as an integer count of micro-dollars.
///
/// Every price in the paper (cents-per-GB rates, fractional-cent tier rates)
/// is an exact multiple of one micro-dollar, so all of the paper's worked
/// examples are reproduced without floating-point drift. Amounts may be
/// negative: including a materialized view can *reduce* total cost, and the
/// selection algorithms reason about such deltas directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Money(i128);

impl Money {
    /// The zero amount.
    pub const ZERO: Money = Money(0);

    /// Largest representable amount; used as an "infinite" sentinel by the
    /// dynamic-programming solvers.
    pub const MAX: Money = Money(i128::MAX);

    /// Builds an amount from raw micro-dollars.
    #[inline]
    pub const fn from_micros(micros: i128) -> Self {
        Money(micros)
    }

    /// Builds an amount from whole dollars.
    #[inline]
    pub const fn from_dollars(dollars: i64) -> Self {
        Money(dollars as i128 * MICROS_PER_DOLLAR)
    }

    /// Builds an amount from whole cents.
    #[inline]
    pub const fn from_cents(cents: i64) -> Self {
        Money(cents as i128 * 10_000)
    }

    /// Parses a decimal dollar string such as `"0.12"`, `"-3.5"` or `"924"`.
    ///
    /// At most six fractional digits are accepted because that is the
    /// resolution of the representation; this is a parser for *prices written
    /// in configuration and tests*, not for arbitrary user input.
    pub fn from_dollars_str(s: &str) -> Result<Self, MoneyParseError> {
        let s = s.trim();
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() {
            return Err(MoneyParseError::Empty);
        }
        let (int_part, frac_part) = match digits.split_once('.') {
            Some((i, f)) => (i, f),
            None => (digits, ""),
        };
        if frac_part.len() > 6 {
            return Err(MoneyParseError::TooPrecise);
        }
        let int_part = if int_part.is_empty() { "0" } else { int_part };
        let whole: i128 = int_part
            .parse::<i128>()
            .map_err(|_| MoneyParseError::Invalid)?;
        let mut frac: i128 = 0;
        if !frac_part.is_empty() {
            frac = frac_part
                .parse::<i128>()
                .map_err(|_| MoneyParseError::Invalid)?;
            // "0.12" means 120_000 micro-dollars: right-pad to six digits.
            for _ in frac_part.len()..6 {
                frac *= 10;
            }
        }
        let micros = whole
            .checked_mul(MICROS_PER_DOLLAR)
            .and_then(|w| w.checked_add(frac))
            .ok_or(MoneyParseError::Overflow)?;
        Ok(Money(if neg { -micros } else { micros }))
    }

    /// Raw micro-dollar count.
    #[inline]
    pub const fn micros(self) -> i128 {
        self.0
    }

    /// Lossy conversion to floating-point dollars (reporting only).
    #[inline]
    pub fn to_dollars_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_DOLLAR as f64
    }

    /// Multiplies the amount by a dimensionless `f64` factor (a number of
    /// gigabytes, hours, instances, …), rounding the result to the nearest
    /// micro-dollar (ties away from zero, like `f64::round`).
    ///
    /// This is the *single* place where continuous quantities meet money;
    /// keeping the rounding here makes the cost formulas deterministic.
    #[inline]
    pub fn scale(self, factor: f64) -> Money {
        debug_assert!(factor.is_finite(), "money scaled by non-finite factor");
        Money(((self.0 as f64) * factor).round() as i128)
    }

    /// `true` when the amount is strictly negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Saturating addition; used by solvers that mix `Money::MAX` sentinels.
    #[inline]
    pub const fn saturating_add(self, rhs: Money) -> Money {
        Money(self.0.saturating_add(rhs.0))
    }

    /// Absolute value.
    #[inline]
    pub const fn abs(self) -> Money {
        Money(self.0.abs())
    }

    /// The larger of two amounts.
    #[inline]
    pub fn max(self, other: Money) -> Money {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two amounts.
    #[inline]
    pub fn min(self, other: Money) -> Money {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

/// Error returned by [`Money::from_dollars_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoneyParseError {
    /// The input contained no digits.
    Empty,
    /// More than six fractional digits were supplied.
    TooPrecise,
    /// A component was not a valid number.
    Invalid,
    /// The value does not fit in the representation.
    Overflow,
}

impl fmt::Display for MoneyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoneyParseError::Empty => write!(f, "empty money literal"),
            MoneyParseError::TooPrecise => {
                write!(f, "money literal has more than six fractional digits")
            }
            MoneyParseError::Invalid => write!(f, "malformed money literal"),
            MoneyParseError::Overflow => write!(f, "money literal out of range"),
        }
    }
}

impl std::error::Error for MoneyParseError {}

impl fmt::Display for Money {
    /// Renders as `$d.cc`, trimming trailing zeros beyond two decimals:
    /// `$12.00`, `$1.08`, `$2101.76`, `$0.0001`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        let whole = abs / MICROS_PER_DOLLAR as u128;
        let micros = (abs % MICROS_PER_DOLLAR as u128) as u32;
        if micros.is_multiple_of(10_000) {
            write!(f, "{sign}${whole}.{:02}", micros / 10_000)
        } else {
            let mut frac = format!("{micros:06}");
            while frac.ends_with('0') {
                frac.pop();
            }
            write!(f, "{sign}${whole}.{frac}")
        }
    }
}

impl fmt::Debug for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Money({self})")
    }
}

impl Add for Money {
    type Output = Money;
    #[inline]
    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    #[inline]
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl Sub for Money {
    type Output = Money;
    #[inline]
    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl SubAssign for Money {
    #[inline]
    fn sub_assign(&mut self, rhs: Money) {
        self.0 -= rhs.0;
    }
}

impl Neg for Money {
    type Output = Money;
    #[inline]
    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Mul<i64> for Money {
    type Output = Money;
    #[inline]
    fn mul(self, rhs: i64) -> Money {
        Money(self.0 * rhs as i128)
    }
}

impl Mul<u32> for Money {
    type Output = Money;
    #[inline]
    fn mul(self, rhs: u32) -> Money {
        Money(self.0 * rhs as i128)
    }
}

impl Mul<i32> for Money {
    type Output = Money;
    #[inline]
    fn mul(self, rhs: i32) -> Money {
        Money(self.0 * rhs as i128)
    }
}

impl Div<i64> for Money {
    type Output = Money;
    #[inline]
    fn div(self, rhs: i64) -> Money {
        Money(self.0 / rhs as i128)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Money> for Money {
    fn sum<I: Iterator<Item = &'a Money>>(iter: I) -> Money {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_prices() {
        assert_eq!(Money::from_dollars_str("0.12").unwrap().micros(), 120_000);
        assert_eq!(Money::from_dollars_str("0.14").unwrap().micros(), 140_000);
        assert_eq!(Money::from_dollars_str("0.125").unwrap().micros(), 125_000);
        assert_eq!(
            Money::from_dollars_str("924").unwrap(),
            Money::from_dollars(924)
        );
        assert_eq!(Money::from_dollars_str(".5").unwrap().micros(), 500_000);
        assert_eq!(Money::from_dollars_str("-0.03").unwrap().micros(), -30_000);
    }

    #[test]
    fn rejects_bad_literals() {
        assert_eq!(Money::from_dollars_str(""), Err(MoneyParseError::Empty));
        assert_eq!(
            Money::from_dollars_str("1.1234567"),
            Err(MoneyParseError::TooPrecise)
        );
        assert_eq!(
            Money::from_dollars_str("12a"),
            Err(MoneyParseError::Invalid)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Money::from_dollars(12).to_string(), "$12.00");
        assert_eq!(
            Money::from_dollars_str("1.08").unwrap().to_string(),
            "$1.08"
        );
        assert_eq!(
            Money::from_dollars_str("-2101.76").unwrap().to_string(),
            "-$2101.76"
        );
        assert_eq!(Money::from_micros(100).to_string(), "$0.0001");
        assert_eq!(Money::from_micros(123_456).to_string(), "$0.123456");
    }

    #[test]
    fn scale_rounds_to_nearest_micro() {
        let rate = Money::from_dollars_str("0.12").unwrap();
        assert_eq!(rate.scale(9.0), Money::from_dollars_str("1.08").unwrap());
        // A third of a micro-dollar rounds away.
        assert_eq!(Money::from_micros(1).scale(0.4), Money::ZERO);
        assert_eq!(Money::from_micros(1).scale(0.6), Money::from_micros(1));
    }

    #[test]
    fn arithmetic_and_sum() {
        let a = Money::from_dollars(50);
        let b = Money::from_dollars_str("9.6").unwrap();
        assert_eq!((a - b).to_string(), "$40.40");
        assert_eq!((-b).to_string(), "-$9.60");
        let total: Money = [a, b, Money::from_cents(40)].iter().sum();
        assert_eq!(total.to_string(), "$60.00");
        assert_eq!(b * 2, Money::from_dollars_str("19.2").unwrap());
        assert_eq!(a / 2, Money::from_dollars(25));
    }

    #[test]
    fn ordering_helpers() {
        let a = Money::from_dollars(1);
        let b = Money::from_dollars(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(Money::from_micros(-1).is_negative());
        assert!(!Money::ZERO.is_negative());
        assert_eq!(Money::from_micros(-5).abs(), Money::from_micros(5));
    }
}
