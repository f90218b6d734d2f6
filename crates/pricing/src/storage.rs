//! Storage pricing over time (paper Table 4 and Formula 5).
//!
//! The paper assumes "the storage period in the cloud is divided into
//! intervals; in each interval, the size of the stored data is fixed". A
//! [`StorageTimeline`] records the size-changing events (initial upload,
//! inserted batches, materialized views, deletions) and yields exactly those
//! constant-size intervals; [`StoragePricing::period_cost`] then evaluates
//! `Σ cs(DS) × (t_end − t_start) × s(DS)` over them.

use mv_units::{Gb, Money, Months};

use crate::{PricingError, TierSchedule};

/// Monthly storage pricing: a $/GB-month tier schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct StoragePricing {
    /// The `cs(DS)` schedule (paper Table 4).
    pub monthly: TierSchedule,
}

impl StoragePricing {
    /// Wraps a schedule.
    pub fn new(monthly: TierSchedule) -> Self {
        StoragePricing { monthly }
    }

    /// Cost of holding `size` for one month.
    pub fn monthly_cost(&self, size: Gb) -> Money {
        self.monthly.cost_for(size)
    }

    /// Cost of holding `size` for `duration` (fractional months allowed).
    pub fn cost(&self, size: Gb, duration: Months) -> Money {
        self.monthly_cost(size).scale(duration.value())
    }

    /// The least [`StoragePricing::cost`] over `duration` of any size at
    /// or above `size` (the schedule's least charge from that volume
    /// on; `Money::scale` never falls as the amount grows).
    pub fn floor_cost(&self, size: Gb, duration: Months) -> Money {
        self.monthly.least_cost_from(size).scale(duration.value())
    }

    /// Formula 5: total cost of a timeline's intervals.
    pub fn period_cost(&self, timeline: &StorageTimeline) -> Money {
        timeline
            .intervals()
            .iter()
            .map(|iv| self.cost(iv.size, iv.duration()))
            .sum()
    }

    /// Returns a copy with every bracket's $/GB-month rate multiplied by
    /// `factor` — the price-drift hook used by `mv-market` to model
    /// storage-cost decay. A factor of exactly `1.0` returns a
    /// bit-identical clone.
    pub(crate) fn scale_rates(&self, factor: f64) -> StoragePricing {
        StoragePricing {
            monthly: self.monthly.scale_rates(factor),
        }
    }
}

/// One interval of constant stored size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageInterval {
    /// Interval start, in months from the beginning of the period.
    pub start: Months,
    /// Interval end.
    pub end: Months,
    /// Constant stored size during the interval.
    pub size: Gb,
}

impl StorageInterval {
    /// `t_end − t_start`.
    pub(crate) fn duration(&self) -> Months {
        self.end - self.start
    }
}

/// A chronology of stored-size changes over a billing horizon.
///
/// Events must be recorded in chronological order; the timeline is closed by
/// the horizon given at construction. The paper's Example 3 is the timeline
/// `512 GB at month 0, +2048 GB at month 7, horizon 12 months`.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageTimeline {
    horizon: Months,
    /// `(time, size-after-event)` pairs before `last`; the first point of
    /// the timeline (here, or `last` when this is empty) is at time 0.
    earlier: Vec<(Months, Gb)>,
    /// The latest `(time, size-after-event)`: held apart so that a
    /// timeline always has one.
    last: (Months, Gb),
}

impl StorageTimeline {
    /// Starts a timeline holding `initial` from month 0 through `horizon`.
    pub fn new(initial: Gb, horizon: Months) -> Self {
        StorageTimeline {
            horizon,
            earlier: Vec::new(),
            last: (Months::ZERO, initial),
        }
    }

    /// Records `added` gigabytes uploaded at month `at`.
    pub fn insert(&mut self, at: Months, added: Gb) -> Result<(), PricingError> {
        let size = self.size_at_end() + added;
        let last = self.last.0;
        if at.value() < last.value() {
            return Err(PricingError::OutOfOrderEvent);
        }
        // Coalesce same-instant events; any other instant (NaN included)
        // starts a new point.
        if at.value() != last.value() {
            self.earlier.push(self.last);
            self.last.0 = at;
        }
        self.last.1 = size;
        Ok(())
    }

    /// The billing horizon.
    pub(crate) fn horizon(&self) -> Months {
        self.horizon
    }

    /// Stored size after the last recorded event.
    pub(crate) fn size_at_end(&self) -> Gb {
        self.last.1
    }

    /// The constant-size intervals covering `[0, horizon]`. Events at or
    /// after the horizon are ignored; zero-length intervals are skipped.
    pub fn intervals(&self) -> Vec<StorageInterval> {
        let mut out = Vec::with_capacity(self.earlier.len() + 1);
        let mut points = self.earlier.iter().chain([&self.last]).peekable();
        while let Some(&(start, size)) = points.next() {
            if start.value() >= self.horizon.value() {
                break;
            }
            let end = points
                .peek()
                .map(|(t, _)| t.min(self.horizon))
                .unwrap_or(self.horizon);
            if end.value() > start.value() {
                out.push(StorageInterval { start, end, size });
            }
        }
        out
    }

    /// GB-months integral of the whole timeline (used by reports).
    pub(crate) fn gb_months(&self) -> f64 {
        self.intervals()
            .iter()
            .map(|iv| iv.size.value() * iv.duration().value())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tier, TierMode};
    use mv_units::GB_PER_TB;

    fn paper_storage() -> StoragePricing {
        StoragePricing::new(
            TierSchedule::new(
                vec![
                    Tier::upto_gb(GB_PER_TB, Money::from_dollars_str("0.14").unwrap()),
                    Tier::upto_gb(50.0 * GB_PER_TB, Money::from_dollars_str("0.125").unwrap()),
                    Tier::rest(Money::from_dollars_str("0.11").unwrap()),
                ],
                TierMode::FlatByVolume,
            )
            .unwrap(),
        )
    }

    #[test]
    fn example3_two_intervals() {
        // 512 GB for 12 months, +2048 GB inserted at the start of month 8
        // (i.e. after 7 elapsed months).
        let mut tl = StorageTimeline::new(Gb::new(512.0), Months::new(12.0));
        tl.insert(Months::new(7.0), Gb::from_tb(2.0)).unwrap();

        let ivs = tl.intervals();
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].size.value(), 512.0);
        assert_eq!(ivs[0].duration().value(), 7.0);
        assert_eq!(ivs[1].size.value(), 2560.0);
        assert_eq!(ivs[1].duration().value(), 5.0);

        // 512×0.14×7 + 2560×0.125×5 = 501.76 + 1600 = 2101.76.
        // (The paper prints $2131.76 — a typo; its own formula gives this.)
        let cost = paper_storage().period_cost(&tl);
        assert_eq!(cost, Money::from_dollars_str("2101.76").unwrap());
    }

    #[test]
    fn example9_single_interval() {
        // 550 GB for 12 months at $0.14 = $924.
        let tl = StorageTimeline::new(Gb::new(550.0), Months::new(12.0));
        assert_eq!(paper_storage().period_cost(&tl), Money::from_dollars(924));
    }

    #[test]
    fn events_past_horizon_ignored() {
        let mut tl = StorageTimeline::new(Gb::new(100.0), Months::new(6.0));
        tl.insert(Months::new(9.0), Gb::new(100.0)).unwrap();
        assert_eq!(tl.intervals().len(), 1);
        assert_eq!(tl.gb_months(), 600.0);
    }

    #[test]
    fn same_instant_events_coalesce() {
        let mut tl = StorageTimeline::new(Gb::new(100.0), Months::new(12.0));
        tl.insert(Months::new(3.0), Gb::new(10.0)).unwrap();
        tl.insert(Months::new(3.0), Gb::new(10.0)).unwrap();
        let ivs = tl.intervals();
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[1].size.value(), 120.0);
    }

    #[test]
    fn out_of_order_rejected() {
        let mut tl = StorageTimeline::new(Gb::new(100.0), Months::new(12.0));
        tl.insert(Months::new(6.0), Gb::new(1.0)).unwrap();
        assert_eq!(
            tl.insert(Months::new(3.0), Gb::new(1.0)),
            Err(PricingError::OutOfOrderEvent)
        );
    }

    #[test]
    fn size_queries() {
        let mut tl = StorageTimeline::new(Gb::new(100.0), Months::new(12.0));
        tl.insert(Months::new(4.0), Gb::new(50.0)).unwrap();
        let sizes: Vec<f64> = tl.intervals().iter().map(|i| i.size.value()).collect();
        assert_eq!(sizes, [100.0, 150.0]);
        assert_eq!(tl.size_at_end().value(), 150.0);
    }

    #[test]
    fn fractional_month_cost() {
        let pricing = paper_storage();
        // Half a month of 100 GB at $0.14/GB-month.
        assert_eq!(
            pricing.cost(Gb::new(100.0), Months::new(0.5)),
            Money::from_dollars_str("7").unwrap()
        );
    }
}
