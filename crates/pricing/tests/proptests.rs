//! Property-based invariants of the pricing substrate.

use mv_pricing::{presets, BillingRounding, StorageTimeline, Tier, TierMode, TierSchedule};
use mv_units::{Gb, Hours, Money, Months};
use proptest::prelude::*;

/// Strategy producing a valid random tier schedule: 1–5 brackets with
/// strictly increasing thresholds and non-negative rates.
fn arb_schedule() -> impl Strategy<Value = TierSchedule> {
    (
        proptest::collection::vec((1.0f64..1e6, 0i64..50_000), 0..4),
        0i64..50_000,
        prop::bool::ANY,
    )
        .prop_map(|(bounded, last_rate_cents, graduated)| {
            let mut tiers = Vec::new();
            let mut threshold = 0.0;
            for (width, rate_cents) in bounded {
                threshold += width;
                tiers.push(Tier::upto_gb(threshold, Money::from_cents(rate_cents)));
            }
            tiers.push(Tier::rest(Money::from_cents(last_rate_cents)));
            let mode = if graduated {
                TierMode::Graduated
            } else {
                TierMode::FlatByVolume
            };
            TierSchedule::new(tiers, mode).expect("constructed schedule is valid")
        })
}

proptest! {
    /// Total cost is non-negative for any volume.
    #[test]
    fn tier_cost_non_negative(schedule in arb_schedule(), vol in 0.0f64..1e7) {
        prop_assert!(schedule.cost_for(Gb::new(vol)) >= Money::ZERO);
    }

    /// Graduated cost is monotone non-decreasing in volume. (Flat-by-volume
    /// can legitimately *decrease* at a bracket edge when the next rate is
    /// lower — that is the paper's "earned rate" — so monotonicity is only
    /// asserted for graduated mode.)
    #[test]
    fn graduated_cost_monotone(schedule in arb_schedule(), a in 0.0f64..1e6, b in 0.0f64..1e6) {
        let schedule = schedule.with_mode(TierMode::Graduated);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(schedule.cost_for(Gb::new(lo)) <= schedule.cost_for(Gb::new(hi)));
    }

    /// Graduated total never exceeds (max rate × volume) and never falls
    /// below (min rate × volume).
    #[test]
    fn graduated_cost_bounded_by_extreme_rates(
        schedule in arb_schedule(),
        vol in 0.0f64..1e6,
    ) {
        let schedule = schedule.with_mode(TierMode::Graduated);
        let rates: Vec<Money> = schedule.tiers().iter().map(|t| t.rate).collect();
        let max = rates.iter().copied().fold(Money::ZERO, Money::max);
        let min = rates.iter().copied().fold(max, Money::min);
        let cost = schedule.cost_for(Gb::new(vol));
        // Allow one micro-dollar of rounding slack per bracket.
        let slack = Money::from_micros(rates.len() as i128);
        prop_assert!(cost <= max.scale(vol) + slack);
        prop_assert!(cost + slack >= min.scale(vol));
    }

    /// Flat-by-volume equals (bracket rate × volume) exactly.
    #[test]
    fn flat_by_volume_is_rate_times_volume(schedule in arb_schedule(), vol in 0.001f64..1e6) {
        let schedule = schedule.with_mode(TierMode::FlatByVolume);
        let rate = schedule.marginal_rate(Gb::new(vol));
        prop_assert_eq!(schedule.cost_for(Gb::new(vol)), rate.scale(vol));
    }

    /// Rounding rules never reduce billable time, and per-started-hour is
    /// within one hour of exact.
    #[test]
    fn rounding_never_shrinks(t in 0.0f64..10_000.0) {
        let t = Hours::new(t);
        for rule in [
            BillingRounding::PerStartedHour,
            BillingRounding::PerStartedMinute,
            BillingRounding::Exact,
        ] {
            prop_assert!(rule.apply(t).value() >= t.value());
        }
        prop_assert!(BillingRounding::PerStartedHour.apply(t).value() <= t.value() + 1.0);
    }

    /// A storage timeline's intervals exactly tile [0, horizon].
    #[test]
    fn storage_intervals_tile_horizon(
        initial in 0.0f64..1e5,
        events in proptest::collection::vec((0.0f64..24.0, 0.0f64..1e4), 0..6),
        horizon in 1.0f64..24.0,
    ) {
        let mut tl = StorageTimeline::new(Gb::new(initial), Months::new(horizon));
        let mut sorted = events;
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (at, add) in sorted {
            tl.insert(Months::new(at), Gb::new(add)).unwrap();
        }
        let ivs = tl.intervals();
        prop_assert!(!ivs.is_empty());
        prop_assert_eq!(ivs[0].start.value(), 0.0);
        prop_assert_eq!(ivs.last().unwrap().end.value(), horizon);
        for w in ivs.windows(2) {
            prop_assert_eq!(w[0].end.value(), w[1].start.value());
        }
    }

    /// Under any preset, invoicing is additive in compute time: billing
    /// t1 + t2 as one entry costs no more than two separate entries
    /// (rounding the total once never exceeds rounding twice).
    #[test]
    fn total_rounding_never_worse(t1 in 0.0f64..100.0, t2 in 0.0f64..100.0) {
        let aws = presets::aws_2012();
        let small = aws.compute.instance("small").unwrap();
        let joint = aws.compute.cost(Hours::new(t1 + t2), small, 1);
        let split = aws.compute.cost(Hours::new(t1), small, 1)
            + aws.compute.cost(Hours::new(t2), small, 1);
        prop_assert!(joint <= split);
    }
}
