//! Fixed-point monetary amounts.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of micro-dollars in one dollar.
pub(crate) const MICROS_PER_DOLLAR: i128 = 1_000_000;

/// 2^63: [`Money::scale`] rounds a product below it in `i64`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

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
    ///
    /// The result is `((micros as f64) * factor).round() as i128`, bit for
    /// bit, but x86-64 has no instruction for either `i128`↔`f64`
    /// conversion, so the common case takes a 64-bit path. An amount that
    /// fits in `i64` converts with `i64 as f64`, which rounds the same
    /// integer by the same IEEE rule, so the product `x` is the same
    /// `f64`. When `|x| < 2^63` it is rounded half away from zero in
    /// integers: `t = x as i64` truncates, and `x - t` is exact — below
    /// 2^52 it is the fractional part of `x`, which `x`'s significand
    /// holds; at or above 2^52 `x` is already integral and it is zero —
    /// so `t ± 1` when that fraction reaches ±½ is exactly `x.round()`.
    /// Amounts outside `i64`, products at or beyond 2^63 and NaN take the
    /// expression above.
    #[inline]
    pub fn scale(self, factor: f64) -> Money {
        debug_assert!(factor.is_finite(), "money scaled by non-finite factor");
        if let Ok(micros) = i64::try_from(self.0) {
            let x = micros as f64 * factor;
            if x.abs() < TWO_POW_63 {
                let t = x as i64;
                let fraction = x - t as f64;
                let rounded = if fraction >= 0.5 {
                    t + 1
                } else if fraction <= -0.5 {
                    t - 1
                } else {
                    t
                };
                return Money(rounded as i128);
            }
        }
        Money(((self.0 as f64) * factor).round() as i128)
    }

    /// `true` when the amount is strictly negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
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

    /// [`Money::scale`] as one expression, the reference its 64-bit path
    /// is held to.
    fn scale_reference(amount: Money, factor: f64) -> Money {
        Money(((amount.0 as f64) * factor).round() as i128)
    }

    /// `scale` against its one-expression reference, raw micros compared
    /// with `==`; the panic message carries the inputs.
    fn assert_scale_matches(micros: i128, factor: f64, context: fmt::Arguments<'_>) {
        let fast = Money(micros).scale(factor).micros();
        let reference = scale_reference(Money(micros), factor).micros();
        assert!(
            fast == reference,
            "{context}: Money({micros}).scale({factor:e} = {:#018x}) = {fast}, reference {reference}",
            factor.to_bits()
        );
    }

    #[test]
    fn scale_matches_the_reference_at_the_edges() {
        const P52: i128 = 1 << 52;
        const P53: i128 = 1 << 53;
        const P62: i128 = 1 << 62;
        let i64_min = i64::MIN as i128;
        let i64_max = i64::MAX as i128;
        // (micros, factor, expected micros): rounding half away from zero
        // at both signs, on and around the fast path's bounds.
        let pinned: &[(i128, f64, i128)] = &[
            (5, 0.5, 3),
            (3, 0.5, 2),
            (1, 0.5, 1),
            (-1, 0.5, -1),
            (-3, 0.5, -2),
            (5, -0.5, -3),
            (7, 0.5, 4),
            (0, -0.0, 0),
            (12, -0.0, 0),
            (-12, -0.0, 0),
            (1, f64::from_bits(1), 0),
            (i64_max, f64::MIN_POSITIVE / 4.0, 0),
            // 2^52 − ½, the largest f64 below 2^52, rounds up to 2^52.
            (P53 - 1, 0.5, P52),
            (-(P53 - 1), 0.5, -P52),
            (P52, 1.0, P52),
            // 2^53 + 1 is not an f64: it rounds to even, 2^53.
            (P53 + 1, 1.0, P53),
            // 2^63 is where the 64-bit path ends.
            (P62, 2.0, 1 << 63),
            (-P62, 2.0, -(1 << 63)),
            (i64_max, 1.0, 1 << 63),
            (i64_min, 1.0, i64_min),
            (i64_max + 1, 1.0, 1 << 63),
            (i64_min - 1, 1.0, i64_min),
            (i128::MAX, 1.0, i128::MAX),
            (i128::MIN, 1.0, i128::MIN),
            (
                1_000_000_000_000_000_000,
                100.0,
                100_000_000_000_000_000_000,
            ),
            (i64_max, -3.0, -(3 << 63)),
            (i64_max, 1e300, i128::MAX),
            (i64_min, 1e300, i128::MIN),
        ];
        for &(micros, factor, expected) in pinned {
            assert_eq!(
                Money(micros).scale(factor).micros(),
                expected,
                "Money({micros}).scale({factor:e})"
            );
            assert_scale_matches(micros, factor, format_args!("pinned"));
        }

        let amounts = [
            0,
            1,
            -1,
            2,
            3,
            -3,
            999_999,
            P52 - 1,
            P52,
            P52 + 1,
            P53 - 1,
            P53,
            P53 + 1,
            P62,
            i64_min,
            i64_min + 1,
            i64_max - 1,
            i64_max,
            i64_min - 1,
            i64_max + 1,
            i128::MIN,
            i128::MAX,
        ];
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        let factors = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            below_one,
            -below_one,
            1.0,
            -1.0,
            1.0 + f64::EPSILON,
            2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            1e-30,
            0.12,
            1.0 / 3.0,
            24.0 * 30.0,
            1e10,
            1e20,
            f64::MAX,
            f64::MIN,
        ];
        for &micros in &amounts {
            for &factor in &factors {
                assert_scale_matches(micros, factor, format_args!("edge grid"));
                // The products on either side of each tie: k ± ½ ± one ulp.
                let x = micros as f64 * factor;
                for target in [x.trunc() + 0.5, x.trunc() - 0.5] {
                    for nudge in [-1i64, 0, 1] {
                        let y = f64::from_bits((target.to_bits() as i64 + nudge) as u64);
                        if micros != 0 && y.is_finite() {
                            assert_scale_matches(
                                micros,
                                y / micros as f64,
                                format_args!("near a tie"),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Xorshift64: the sweep's inputs are a pure function of its seed.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// `pairs` random (amount, factor) pairs from `seed`: amounts of every
    /// magnitude up to `i128`, around the `i64` bounds, and paper-sized;
    /// factors from raw bits, log-uniform magnitudes, dyadic fractions
    /// (which land products exactly on `.5`) and exact half-integer
    /// quotients.
    fn sweep_scale(seed: u64, pairs: u64) {
        let mut state = seed;
        for i in 0..pairs {
            let pick = xorshift(&mut state);
            let r = xorshift(&mut state);
            let micros: i128 = match pick % 5 {
                0 => (r as i64 >> ((pick >> 8) % 64)) as i128,
                1 => (r as i64 >> 36) as i128,
                2 => (((r as i128) << 64) | xorshift(&mut state) as i128) >> ((pick >> 8) % 128),
                3 => {
                    let edge = if r & 1 == 0 { i64::MIN } else { i64::MAX } as i128;
                    edge + ((r >> 1) % 4096) as i128 - 2048
                }
                _ => ((r % (1 << 40)) as i128) - (1 << 39),
            };
            let s = xorshift(&mut state);
            let sign = if s & 1 == 0 { 1.0 } else { -1.0 };
            let factor = match (pick >> 16) % 4 {
                0 => {
                    let bits = f64::from_bits(s);
                    if bits.is_finite() {
                        bits
                    } else {
                        sign * (s >> 12) as f64
                    }
                }
                1 => {
                    let exponent = ((s >> 1) % 140) as i32 - 70;
                    sign * (1.0 + (s >> 12) as f64 / (1u64 << 52) as f64) * 2f64.powi(exponent)
                }
                2 => sign * ((s >> 1) % 4096) as f64 / (1u64 << ((s >> 13) % 16)) as f64,
                _ => {
                    let half = ((s >> 1) % (1 << 20)) as f64 + 0.5;
                    if micros == 0 {
                        half
                    } else {
                        sign * half / micros as f64
                    }
                }
            };
            assert_scale_matches(micros, factor, format_args!("seed {seed:#x}, pair {i}"));
        }
    }

    #[test]
    fn scale_matches_the_reference_on_a_random_sweep() {
        sweep_scale(0x9e37_79b9_7f4a_7c15, 2_000_000);
    }

    /// The release-build twin: `cargo test --release -p mv-units --lib
    /// scale_matches_the_reference -- --include-ignored`.
    #[test]
    #[ignore = "100 M pairs; run in release"]
    fn scale_matches_the_reference_on_a_100m_sweep() {
        sweep_scale(0xd1b5_4a32_d192_ed03, 100_000_000);
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
    }
}
