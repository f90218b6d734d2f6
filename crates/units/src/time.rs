//! Duration quantities: compute hours and storage months.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A non-negative duration in hours — the unit compute time is billed in.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hours(f64);

impl Hours {
    /// Zero duration.
    pub const ZERO: Hours = Hours(0.0);

    /// Builds a duration; panics on negative or non-finite input.
    #[inline]
    pub fn new(hours: f64) -> Self {
        assert!(
            hours.is_finite() && hours >= 0.0,
            "duration must be finite and >= 0, got {hours}"
        );
        Hours(hours)
    }

    /// Builds a duration from minutes.
    #[inline]
    pub fn from_minutes(minutes: f64) -> Self {
        Hours::new(minutes / 60.0)
    }

    /// The duration in hours.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Rounds up to the next whole hour: the paper's `RoundUp` in Example 2
    /// ("every started hour is charged"). Exact whole hours stay unchanged.
    #[inline]
    pub fn round_up_whole(self) -> Hours {
        Hours(self.0.ceil())
    }

    /// Subtraction clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Hours) -> Hours {
        Hours((self.0 - rhs.0).max(0.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Hours) -> Hours {
        Hours(self.0.min(other.0))
    }

    /// Total-order comparison (durations are never NaN).
    #[inline]
    pub fn cmp_total(self, other: Hours) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Hours {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 || self.0 == 0.0 {
            write!(f, "{:.2} h", self.0)
        } else if self.0 >= 1.0 / 60.0 {
            write!(f, "{:.1} min", self.0 * 60.0)
        } else {
            write!(f, "{:.2} s", self.0 * 3600.0)
        }
    }
}

impl fmt::Debug for Hours {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hours({})", self.0)
    }
}

impl Add for Hours {
    type Output = Hours;
    #[inline]
    fn add(self, rhs: Hours) -> Hours {
        Hours(self.0 + rhs.0)
    }
}

impl AddAssign for Hours {
    #[inline]
    fn add_assign(&mut self, rhs: Hours) {
        self.0 += rhs.0;
    }
}

impl Sub for Hours {
    type Output = Hours;
    #[inline]
    fn sub(self, rhs: Hours) -> Hours {
        debug_assert!(self.0 >= rhs.0, "duration subtraction underflow");
        Hours((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for Hours {
    #[inline]
    fn sub_assign(&mut self, rhs: Hours) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Hours {
    type Output = Hours;
    #[inline]
    fn mul(self, rhs: f64) -> Hours {
        Hours::new(self.0 * rhs)
    }
}

impl Div<f64> for Hours {
    type Output = Hours;
    #[inline]
    fn div(self, rhs: f64) -> Hours {
        Hours::new(self.0 / rhs)
    }
}

impl Sum for Hours {
    fn sum<I: Iterator<Item = Hours>>(iter: I) -> Hours {
        iter.fold(Hours::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Hours> for Hours {
    fn sum<I: Iterator<Item = &'a Hours>>(iter: I) -> Hours {
        iter.copied().sum()
    }
}

/// A non-negative duration in months — the unit storage is billed in.
///
/// Months are kept distinct from [`Hours`] on purpose: the paper bills
/// storage per month and compute per hour, and mixing the clocks is a unit
/// error the type system should catch.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Months(f64);

impl Months {
    /// Zero duration.
    pub const ZERO: Months = Months(0.0);

    /// Builds a duration; panics on negative or non-finite input.
    #[inline]
    pub fn new(months: f64) -> Self {
        assert!(
            months.is_finite() && months >= 0.0,
            "duration must be finite and >= 0, got {months}"
        );
        Months(months)
    }

    /// The duration in months.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Months) -> Months {
        Months(self.0.min(other.0))
    }
}

impl fmt::Display for Months {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mo", self.0)
    }
}

impl fmt::Debug for Months {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Months({})", self.0)
    }
}

impl Add for Months {
    type Output = Months;
    #[inline]
    fn add(self, rhs: Months) -> Months {
        Months(self.0 + rhs.0)
    }
}

impl Sub for Months {
    type Output = Months;
    #[inline]
    fn sub(self, rhs: Months) -> Months {
        debug_assert!(self.0 >= rhs.0, "duration subtraction underflow");
        Months((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Months {
    type Output = Months;
    #[inline]
    fn mul(self, rhs: f64) -> Months {
        Months::new(self.0 * rhs)
    }
}

impl Sum for Months {
    fn sum<I: Iterator<Item = Months>>(iter: I) -> Months {
        iter.fold(Months::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_up_whole_hours() {
        assert_eq!(Hours::new(50.0).round_up_whole().value(), 50.0);
        assert_eq!(Hours::new(49.01).round_up_whole().value(), 50.0);
        assert_eq!(Hours::new(0.2).round_up_whole().value(), 1.0);
        assert_eq!(Hours::ZERO.round_up_whole(), Hours::ZERO);
    }

    #[test]
    fn conversions() {
        assert_eq!(Hours::from_minutes(90.0).value(), 1.5);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Hours::new(40.0).to_string(), "40.00 h");
        assert_eq!(Hours::new(0.5).to_string(), "30.0 min");
        assert_eq!(Hours::new(10.0 / 3600.0).to_string(), "10.00 s");
        assert_eq!(Months::new(12.0).to_string(), "12.0 mo");
    }

    #[test]
    fn saturating_and_ordering() {
        assert_eq!(Hours::new(1.0).saturating_sub(Hours::new(2.0)), Hours::ZERO);
        assert_eq!(Hours::new(3.0).min(Hours::new(2.0)).value(), 2.0);
        assert_eq!(Months::new(3.0).min(Months::new(2.0)).value(), 2.0);
    }

    #[test]
    fn sums() {
        let t: Hours = [Hours::new(0.2), Hours::new(0.3)].iter().sum();
        assert!((t.value() - 0.5).abs() < 1e-12);
        let m: Months = [Months::new(7.0), Months::new(5.0)].into_iter().sum();
        assert_eq!(m.value(), 12.0);
    }

    #[test]
    #[should_panic(expected = "duration must be finite")]
    fn negative_duration_panics() {
        let _ = Hours::new(-0.1);
    }
}
