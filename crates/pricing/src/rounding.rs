//! Billing-time rounding rules.
//!
//! The paper's Example 2 rounds total processing time *up* to whole hours
//! ("every started hour is charged"). Real invoices differ in two ways that
//! matter to an optimizer: the granularity (hour / minute / exact) and the
//! scope (is each job rounded separately, or the instance's total on-time?).
//! Both knobs are modelled so the ablation bench `A5` can quantify their
//! effect on selection decisions.

use mv_units::Hours;

/// Granularity to which billable time is rounded up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BillingRounding {
    /// Every started hour is charged (the paper's rule).
    PerStartedHour,
    /// Every started minute is charged.
    PerStartedMinute,
    /// No rounding: bill exact fractional hours.
    Exact,
}

impl BillingRounding {
    /// Applies the rule to a duration.
    pub fn apply(self, t: Hours) -> Hours {
        match self {
            BillingRounding::PerStartedHour => t.round_up_whole(),
            BillingRounding::PerStartedMinute => Hours::from_minutes((t.value() * 60.0).ceil()),
            BillingRounding::Exact => t,
        }
    }
}

/// Whether rounding applies to each charged item or once to the total.
///
/// The paper rounds the *total* workload time (Example 2 rounds 50 h once,
/// not each of the ten queries). Per-item rounding penalises many short
/// jobs, which changes the materialization-cost trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundingScope {
    /// Round the sum of all durations once (the paper's convention).
    Total,
    /// Round each duration separately before summing.
    PerItem,
}

impl RoundingScope {
    /// Total billable duration of `items` under `rounding` and this scope.
    pub fn billable(self, rounding: BillingRounding, items: &[Hours]) -> Hours {
        match self {
            RoundingScope::Total => rounding.apply(items.iter().copied().sum()),
            RoundingScope::PerItem => items.iter().map(|t| rounding.apply(*t)).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_started_hour_is_paper_rule() {
        assert_eq!(
            BillingRounding::PerStartedHour
                .apply(Hours::new(50.0))
                .value(),
            50.0
        );
        assert_eq!(
            BillingRounding::PerStartedHour
                .apply(Hours::new(40.2))
                .value(),
            41.0
        );
    }

    #[test]
    fn per_minute_and_per_second() {
        assert_eq!(
            BillingRounding::PerStartedMinute
                .apply(Hours::from_minutes(12.4))
                .value(),
            Hours::from_minutes(13.0).value()
        );
    }

    #[test]
    fn exact_is_identity() {
        let t = Hours::new(1.2345);
        assert_eq!(BillingRounding::Exact.apply(t), t);
    }

    #[test]
    fn scope_total_vs_per_item() {
        let items = [Hours::new(0.2); 10]; // ten 12-minute queries
                                           // Total: 2.0 h exactly, no rounding needed.
        assert_eq!(
            RoundingScope::Total
                .billable(BillingRounding::PerStartedHour, &items)
                .value(),
            2.0
        );
        // Per item: each 0.2 h query bills a full hour.
        assert_eq!(
            RoundingScope::PerItem
                .billable(BillingRounding::PerStartedHour, &items)
                .value(),
            10.0
        );
    }

    #[test]
    fn scope_on_empty_is_zero() {
        assert_eq!(
            RoundingScope::Total.billable(BillingRounding::PerStartedHour, &[]),
            Hours::ZERO
        );
        assert_eq!(
            RoundingScope::PerItem.billable(BillingRounding::PerStartedHour, &[]),
            Hours::ZERO
        );
    }
}
