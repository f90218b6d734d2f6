//! Volume-tiered rate schedules.
//!
//! Both the bandwidth table (Table 3) and the storage table (Table 4) of the
//! paper are *tier schedules*: a sequence of volume brackets, each with a
//! $/GB rate, "with an earned rate when volume increases". The paper's own
//! arithmetic applies them in two different ways, so the mode is explicit:
//!
//! * [`TierMode::Graduated`] — each bracket's rate applies only to the bytes
//!   that fall inside it (marginal pricing). The paper's Example 1 computes
//!   `(10 − 1) × 0.12`: the first free gigabyte is carved out, the remainder
//!   is billed at tier 2's rate.
//! * [`TierMode::FlatByVolume`] — the bracket the *total* volume lands in
//!   prices every gigabyte. The paper's Example 3 charges all
//!   `512 + 2048 = 2560` GB at tier 2's `$0.125` once the total crosses
//!   1 TB.

use std::cmp::Ordering::Less;

use mv_units::{Gb, Money};

use crate::PricingError;

/// How a schedule's brackets combine into a total price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierMode {
    /// Marginal pricing: each bracket bills only its own bytes.
    Graduated,
    /// The bracket containing the total volume prices all bytes.
    FlatByVolume,
}

/// One bracket of a schedule: volumes up to `upto` (exclusive upper bound,
/// `None` = unbounded) cost `rate` dollars per GB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tier {
    /// Exclusive upper volume bound of this bracket; `None` for the last tier.
    pub upto: Option<Gb>,
    /// Price per gigabyte inside this bracket.
    pub rate: Money,
}

impl Tier {
    /// Bracket covering volumes up to `upto_gb` gigabytes.
    pub fn upto_gb(upto_gb: f64, rate: Money) -> Self {
        Tier {
            upto: Some(Gb::new(upto_gb)),
            rate,
        }
    }

    /// Final, unbounded bracket.
    pub fn rest(rate: Money) -> Self {
        Tier { upto: None, rate }
    }
}

/// A validated sequence of brackets plus the combination mode.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSchedule {
    tiers: Vec<Tier>,
    mode: TierMode,
}

impl TierSchedule {
    /// Builds a schedule, validating that thresholds strictly increase, that
    /// only the final tier is unbounded, and that no rate is negative.
    pub fn new(tiers: Vec<Tier>, mode: TierMode) -> Result<Self, PricingError> {
        if tiers.is_empty() {
            return Err(PricingError::EmptySchedule);
        }
        let mut prev = Gb::ZERO;
        let last = tiers.len() - 1;
        for (i, tier) in tiers.iter().enumerate() {
            if tier.rate.is_negative() {
                return Err(PricingError::NegativeRate { index: i });
            }
            match tier.upto {
                Some(upto) => {
                    if i == last {
                        return Err(PricingError::BoundedFinalTier);
                    }
                    if upto.value() <= prev.value() {
                        return Err(PricingError::NonMonotonicTiers { index: i });
                    }
                    prev = upto;
                }
                None => {
                    if i != last {
                        return Err(PricingError::UnboundedInnerTier { index: i });
                    }
                }
            }
        }
        Ok(TierSchedule { tiers, mode })
    }

    /// A single-rate schedule: every gigabyte costs `rate`.
    pub(crate) fn flat(rate: Money) -> Self {
        TierSchedule {
            tiers: vec![Tier::rest(rate)],
            mode: TierMode::Graduated,
        }
    }

    /// A schedule that charges nothing (the paper's inbound transfer).
    pub(crate) fn free() -> Self {
        TierSchedule::flat(Money::ZERO)
    }

    /// Returns a copy of this schedule with a different [`TierMode`]
    /// (used by the tier-mode ablation bench).
    pub fn with_mode(&self, mode: TierMode) -> Self {
        TierSchedule {
            tiers: self.tiers.clone(),
            mode,
        }
    }

    /// The brackets.
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// Returns a copy of this schedule with every bracket's rate
    /// multiplied by `factor` (volume thresholds unchanged) — the
    /// price-drift hook used by `mv-market` to compile per-epoch pricing
    /// models. A factor of exactly `1.0` returns a bit-identical clone,
    /// so a zero-volatility market reproduces the base schedule exactly.
    pub(crate) fn scale_rates(&self, factor: f64) -> TierSchedule {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "rate factor must be finite and non-negative, got {factor}"
        );
        if factor == 1.0 {
            return self.clone();
        }
        TierSchedule {
            tiers: self
                .tiers
                .iter()
                .map(|t| Tier {
                    upto: t.upto,
                    rate: t.rate.scale(factor),
                })
                .collect(),
            mode: self.mode,
        }
    }

    /// Total price of `volume` gigabytes under this schedule.
    pub fn cost_for(&self, volume: Gb) -> Money {
        if volume == Gb::ZERO {
            return Money::ZERO;
        }
        match self.mode {
            TierMode::Graduated => {
                let mut remaining = volume;
                let mut bracket_start = Gb::ZERO;
                let mut total = Money::ZERO;
                for tier in &self.tiers {
                    let width = match tier.upto {
                        Some(upto) => (upto - bracket_start).min(remaining),
                        None => remaining,
                    };
                    total += tier.rate.scale(width.value());
                    remaining = remaining.saturating_sub(width);
                    if remaining == Gb::ZERO {
                        break;
                    }
                    if let Some(upto) = tier.upto {
                        bracket_start = upto;
                    }
                }
                total
            }
            TierMode::FlatByVolume => self.marginal_rate(volume).scale(volume.value()),
        }
    }

    /// The least [`TierSchedule::cost_for`] of any volume at or above
    /// `volume` (finite and ≥ 0): a floor on the price of a volume that
    /// can only grow from here. [`TierMode::Graduated`]: the price of
    /// `volume` itself — the price never falls
    /// ([`TierSchedule::monotone_between`]). [`TierMode::FlatByVolume`]:
    /// the least, over `volume`'s bracket and every bracket above it, of
    /// its rate times the least volume it can bill — `volume` in its own
    /// bracket, the bracket's lower threshold in a higher one. A volume
    /// `v ≥ volume` lands in one of those brackets, at or above that
    /// least volume, and `Money::scale` never falls as its factor grows,
    /// so `cost_for(v)` is at least the bracket's term (zero volume
    /// bills zero, and is only reached from zero).
    pub(crate) fn least_cost_from(&self, volume: Gb) -> Money {
        match self.mode {
            TierMode::Graduated => self.cost_for(volume),
            TierMode::FlatByVolume => {
                // Bracket `b` starts at bracket `b − 1`'s threshold.
                let starts =
                    std::iter::once(Gb::ZERO).chain(self.tiers.iter().filter_map(|t| t.upto));
                self.tiers
                    .iter()
                    .zip(starts)
                    .skip(self.bracket(volume))
                    .map(|(tier, start)| tier.rate.scale(volume.value().max(start.value())))
                    .min()
                    .unwrap_or(Money::ZERO)
            }
        }
    }

    /// Whether [`TierSchedule::cost_for`] never falls as the volume grows
    /// anywhere from `lo` to `hi`. [`TierMode::Graduated`]: always — each
    /// bracket's width grows with the volume and rates are validated
    /// ≥ 0. [`TierMode::FlatByVolume`]: only over a range inside one
    /// bracket, `0 < lo ≤ hi`. Across a threshold the whole volume is
    /// repriced at the next bracket's rate, which on an "earned rate"
    /// sheet is lower (AWS-2012 storage bills 1 023 GB above 1 025 GB),
    /// and zero volume bills nothing at all; both are answered `false`,
    /// whatever the rates.
    pub fn monotone_between(&self, lo: Gb, hi: Gb) -> bool {
        match self.mode {
            TierMode::Graduated => true,
            TierMode::FlatByVolume => {
                lo.value() > 0.0 && lo.value() <= hi.value() && self.bracket(lo) == self.bracket(hi)
            }
        }
    }

    /// The index of the bracket `volume` falls in: the first whose
    /// exclusive upper bound lies above it, counted as the bounded
    /// brackets it is not below (a NaN volume is below none). Always a
    /// valid index: only the last tier is unbounded
    /// ([`TierSchedule::new`], [`TierSchedule::flat`]), and the count
    /// stops there.
    fn bracket(&self, volume: Gb) -> usize {
        self.tiers
            .iter()
            .take_while(|t| {
                t.upto
                    .is_some_and(|upto| volume.partial_cmp(&upto) != Some(Less))
            })
            .count()
    }

    /// The $/GB rate of the bracket that `volume` falls in. A volume exactly
    /// on a threshold belongs to the *next* bracket (thresholds are exclusive
    /// upper bounds), matching the paper's Example 3 where 2560 GB > 1 TB is
    /// priced at the second tier; zero volume is in the first.
    pub fn marginal_rate(&self, volume: Gb) -> Money {
        self.tiers[self.bracket(volume)].rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_units::GB_PER_TB;

    fn dollars(s: &str) -> Money {
        Money::from_dollars_str(s).unwrap()
    }

    /// The paper's bandwidth schedule (Table 3, outbound).
    fn bandwidth() -> TierSchedule {
        TierSchedule::new(
            vec![
                Tier::upto_gb(1.0, Money::ZERO),
                Tier::upto_gb(10.0 * GB_PER_TB, dollars("0.12")),
                Tier::upto_gb(50.0 * GB_PER_TB, dollars("0.09")),
                Tier::upto_gb(150.0 * GB_PER_TB, dollars("0.07")),
                Tier::rest(dollars("0.05")),
            ],
            TierMode::Graduated,
        )
        .unwrap()
    }

    /// The paper's storage schedule (Table 4).
    fn storage() -> TierSchedule {
        TierSchedule::new(
            vec![
                Tier::upto_gb(GB_PER_TB, dollars("0.14")),
                Tier::upto_gb(50.0 * GB_PER_TB, dollars("0.125")),
                Tier::upto_gb(500.0 * GB_PER_TB, dollars("0.11")),
                Tier::rest(dollars("0.095")),
            ],
            TierMode::FlatByVolume,
        )
        .unwrap()
    }

    #[test]
    fn example1_graduated_bandwidth() {
        // (10 - 1) GB at $0.12 = $1.08.
        assert_eq!(bandwidth().cost_for(Gb::new(10.0)), dollars("1.08"));
        // Entirely inside the free tier.
        assert_eq!(bandwidth().cost_for(Gb::new(0.5)), Money::ZERO);
        assert_eq!(bandwidth().cost_for(Gb::new(1.0)), Money::ZERO);
    }

    #[test]
    fn graduated_spans_brackets() {
        // 11 TB: 1 GB free + (10 TB - 1 GB) at 0.12 + 1 TB at 0.09.
        let vol = Gb::from_tb(11.0);
        let expected =
            dollars("0.12").scale(10.0 * GB_PER_TB - 1.0) + dollars("0.09").scale(GB_PER_TB);
        assert_eq!(bandwidth().cost_for(vol), expected);
    }

    #[test]
    fn example3_flat_by_volume_storage() {
        // 512 GB total: first bracket, $0.14 each.
        assert_eq!(
            storage().cost_for(Gb::new(512.0)),
            dollars("0.14").scale(512.0)
        );
        // 2560 GB total: second bracket prices everything at $0.125.
        assert_eq!(
            storage().cost_for(Gb::new(2560.0)),
            dollars("0.125").scale(2560.0)
        );
    }

    #[test]
    fn marginal_rate_boundaries() {
        let s = storage();
        assert_eq!(s.marginal_rate(Gb::new(100.0)), dollars("0.14"));
        // Exactly 1 TB belongs to the next bracket (exclusive upper bound).
        assert_eq!(s.marginal_rate(Gb::from_tb(1.0)), dollars("0.125"));
        assert_eq!(s.marginal_rate(Gb::from_tb(600.0)), dollars("0.095"));
        assert_eq!(s.marginal_rate(Gb::ZERO), dollars("0.14"));
    }

    #[test]
    fn graduated_is_monotone_everywhere() {
        let s = bandwidth();
        assert!(s.monotone_between(Gb::ZERO, Gb::from_tb(200.0)));
        assert!(s.monotone_between(Gb::new(0.5), Gb::new(2.0)));
        let volumes = [0.0, 0.5, 1.0, 1.5, 10.0, 10_240.0, 10_241.0, 200_000.0];
        for pair in volumes.windows(2) {
            assert!(s.cost_for(Gb::new(pair[0])) <= s.cost_for(Gb::new(pair[1])));
        }
    }

    #[test]
    fn flat_by_volume_is_monotone_inside_one_bracket_only() {
        let s = storage();
        // Inside the first bracket, and inside the second.
        assert!(s.monotone_between(Gb::new(1.0), Gb::new(1023.0)));
        assert!(s.monotone_between(Gb::new(512.0), Gb::new(512.0)));
        assert!(s.monotone_between(Gb::from_tb(1.0), Gb::new(2560.0)));
        // Across the 1 TB threshold the bill drops: 1 023 GB at $0.14
        // costs more than 1 025 GB at $0.125.
        assert!(!s.monotone_between(Gb::new(1023.0), Gb::new(1025.0)));
        assert!(s.cost_for(Gb::new(1023.0)) > s.cost_for(Gb::new(1025.0)));
        // Zero volume is answered `false`; an empty or reversed range
        // vouches for nothing either.
        assert!(!s.monotone_between(Gb::ZERO, Gb::new(10.0)));
        assert!(!s.monotone_between(Gb::new(20.0), Gb::new(10.0)));
    }

    #[test]
    fn least_cost_from_is_the_least_price_of_any_larger_volume() {
        let flat = storage();
        let graduated = storage().with_mode(TierMode::Graduated);
        // Volumes on a grid through every threshold, each against every
        // volume at or above it on a finer grid.
        let grid: Vec<f64> = (0..=64)
            .map(|i| f64::from(i) * 40.0)
            .chain([1023.0, 1023.9, 1024.0, 1024.1, 51_199.0, 51_200.0, 51_201.0])
            .collect();
        for (s, exact) in [(&flat, false), (&graduated, true)] {
            for &v in &grid {
                let floor = s.least_cost_from(Gb::new(v));
                let reachable = grid.iter().filter(|&&w| w >= v);
                let least = reachable.map(|&w| s.cost_for(Gb::new(w))).min().unwrap();
                assert!(floor <= least, "{v} GB: {floor} above {least}");
                // Graduated: the floor is the price itself.
                if exact {
                    assert_eq!(floor, s.cost_for(Gb::new(v)), "{v} GB");
                }
            }
        }
        // 1 000 GB on the flat sheet may grow past 1 TB, where all of it
        // bills at $0.125: the floor is 1 024 GB at that rate, below the
        // standing $140.
        assert_eq!(
            flat.least_cost_from(Gb::new(1000.0)),
            dollars("0.125").scale(1024.0)
        );
        assert!(flat.least_cost_from(Gb::new(1000.0)) < flat.cost_for(Gb::new(1000.0)));
        // Past the last threshold nothing is cheaper than the price.
        let far = Gb::from_tb(600.0);
        assert_eq!(flat.least_cost_from(far), flat.cost_for(far));
        assert_eq!(flat.least_cost_from(Gb::ZERO), Money::ZERO);
    }

    #[test]
    fn zero_volume_is_free() {
        assert_eq!(bandwidth().cost_for(Gb::ZERO), Money::ZERO);
        assert_eq!(storage().cost_for(Gb::ZERO), Money::ZERO);
    }

    #[test]
    fn validation_rejects_bad_schedules() {
        assert_eq!(
            TierSchedule::new(vec![], TierMode::Graduated),
            Err(PricingError::EmptySchedule)
        );
        assert_eq!(
            TierSchedule::new(
                vec![
                    Tier::upto_gb(10.0, Money::ZERO),
                    Tier::upto_gb(5.0, Money::ZERO),
                    Tier::rest(Money::ZERO),
                ],
                TierMode::Graduated
            ),
            Err(PricingError::NonMonotonicTiers { index: 1 })
        );
        assert_eq!(
            TierSchedule::new(
                vec![Tier::rest(Money::ZERO), Tier::rest(Money::ZERO)],
                TierMode::Graduated
            ),
            Err(PricingError::UnboundedInnerTier { index: 0 })
        );
        assert_eq!(
            TierSchedule::new(vec![Tier::upto_gb(5.0, Money::ZERO)], TierMode::Graduated),
            Err(PricingError::BoundedFinalTier)
        );
        assert_eq!(
            TierSchedule::new(
                vec![Tier::rest(Money::from_dollars(-1))],
                TierMode::Graduated
            ),
            Err(PricingError::NegativeRate { index: 0 })
        );
    }

    #[test]
    fn flat_and_free_helpers() {
        let f = TierSchedule::flat(dollars("0.10"));
        assert_eq!(f.cost_for(Gb::new(500.0)), dollars("50"));
        assert_eq!(
            TierSchedule::free().cost_for(Gb::from_tb(100.0)),
            Money::ZERO
        );
    }

    #[test]
    fn with_mode_switches_interpretation() {
        let s = storage().with_mode(TierMode::Graduated);
        // Graduated: first 1024 GB at 0.14, remaining 1536 GB at 0.125.
        let expected = dollars("0.14").scale(1024.0) + dollars("0.125").scale(1536.0);
        assert_eq!(s.cost_for(Gb::new(2560.0)), expected);
    }
}
