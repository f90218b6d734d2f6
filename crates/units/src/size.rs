//! Data-size quantities.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Gigabytes per terabyte.
///
/// The paper uses binary multiples: its Example 3 writes "0.5 TB (512 GB)"
/// and "2 TB (2048 GB)", so tier thresholds such as "first 1 TB" mean
/// 1024 GB here.
pub const GB_PER_TB: f64 = 1024.0;

/// A non-negative data size in gigabytes.
///
/// Sizes are the unit the paper's functions `s()` return (e.g. `s(DS)` is the
/// dataset size in GB). Construction panics on negative or non-finite input —
/// a negative size is always a logic error, never data.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Gb(f64);

impl Gb {
    /// Zero bytes.
    pub const ZERO: Gb = Gb(0.0);

    /// Builds a size from gigabytes.
    #[inline]
    pub fn new(gb: f64) -> Self {
        assert!(
            gb.is_finite() && gb >= 0.0,
            "size must be finite and >= 0, got {gb}"
        );
        Gb(gb)
    }

    /// Builds a size from terabytes (binary: 1 TB = 1024 GB).
    #[inline]
    pub fn from_tb(tb: f64) -> Self {
        Gb::new(tb * GB_PER_TB)
    }

    /// Builds a size from raw bytes (1 GB = 2^30 bytes).
    #[inline]
    pub fn from_bytes(bytes: u64) -> Self {
        Gb(bytes as f64 / (1u64 << 30) as f64)
    }

    /// The size in gigabytes.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The size in bytes (1 GB = 2^30 bytes), saturating.
    #[inline]
    pub fn as_bytes(self) -> u64 {
        (self.0 * (1u64 << 30) as f64) as u64
    }

    /// Subtraction clamped at zero: `10 GB - 1 GB free tier = 9 GB`,
    /// `0.5 GB - 1 GB free tier = 0 GB`.
    #[inline]
    pub fn saturating_sub(self, rhs: Gb) -> Gb {
        Gb((self.0 - rhs.0).max(0.0))
    }

    /// The smaller of two sizes.
    #[inline]
    pub fn min(self, other: Gb) -> Gb {
        Gb(self.0.min(other.0))
    }
}

impl fmt::Display for Gb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= GB_PER_TB {
            write!(f, "{:.2} TB", self.0 / GB_PER_TB)
        } else if self.0 >= 1.0 || self.0 == 0.0 {
            write!(f, "{:.2} GB", self.0)
        } else {
            write!(f, "{:.1} MB", self.0 * 1024.0)
        }
    }
}

impl fmt::Debug for Gb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gb({})", self.0)
    }
}

impl Add for Gb {
    type Output = Gb;
    #[inline]
    fn add(self, rhs: Gb) -> Gb {
        Gb(self.0 + rhs.0)
    }
}

impl AddAssign for Gb {
    #[inline]
    fn add_assign(&mut self, rhs: Gb) {
        self.0 += rhs.0;
    }
}

impl Sub for Gb {
    type Output = Gb;
    /// Panics (in debug) if the result would be negative; use
    /// [`Gb::saturating_sub`] when the clamp is intended.
    #[inline]
    fn sub(self, rhs: Gb) -> Gb {
        debug_assert!(self.0 >= rhs.0, "size subtraction underflow");
        Gb((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for Gb {
    #[inline]
    fn sub_assign(&mut self, rhs: Gb) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Gb {
    type Output = Gb;
    #[inline]
    fn mul(self, rhs: f64) -> Gb {
        Gb::new(self.0 * rhs)
    }
}

impl Div<f64> for Gb {
    type Output = Gb;
    #[inline]
    fn div(self, rhs: f64) -> Gb {
        Gb::new(self.0 / rhs)
    }
}

impl Sum for Gb {
    fn sum<I: Iterator<Item = Gb>>(iter: I) -> Gb {
        iter.fold(Gb::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Gb> for Gb {
    fn sum<I: Iterator<Item = &'a Gb>>(iter: I) -> Gb {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Gb::from_tb(0.5).value(), 512.0);
        assert_eq!(Gb::from_tb(2.0).value(), 2048.0);
        assert_eq!(Gb::from_bytes(1 << 30).value(), 1.0);
        assert_eq!(Gb::new(1.0).as_bytes(), 1 << 30);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Gb::new(10.0).saturating_sub(Gb::new(1.0)).value(), 9.0);
        assert_eq!(Gb::new(0.5).saturating_sub(Gb::new(1.0)), Gb::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Gb::new(500.0).to_string(), "500.00 GB");
        assert_eq!(Gb::from_tb(2.5).to_string(), "2.50 TB");
        assert_eq!(Gb::new(0.5).to_string(), "512.0 MB");
        assert_eq!(Gb::ZERO.to_string(), "0.00 GB");
    }

    #[test]
    #[should_panic(expected = "size must be finite")]
    fn negative_size_panics() {
        let _ = Gb::new(-1.0);
    }

    #[test]
    fn arithmetic() {
        let total: Gb = [Gb::new(500.0), Gb::new(50.0)].iter().sum();
        assert_eq!(total.value(), 550.0);
        assert_eq!((Gb::new(10.0) * 2.0).value(), 20.0);
        assert_eq!((Gb::new(10.0) / 2.0).value(), 5.0);
        assert_eq!(Gb::new(3.0).min(Gb::new(4.0)).value(), 3.0);
    }
}
