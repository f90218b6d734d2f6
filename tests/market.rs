//! Zero-volatility consistency: a market with constant prices and zero
//! interruption probability must reproduce `solve_horizon` bit for bit.
//!
//! This is the market counterpart of PR 3's zero-drift guarantee, and
//! it pins the whole identity chain at once: unit quotes re-price every
//! pricing component to a bit-identical policy (`scale_rates` clones on
//! factor 1.0), the re-resolved instance is the same catalog entry, a
//! unit-factor `PoolCharge` at probability 0 returns the charge
//! unchanged, and `EpochChain::solve_with` under identity pool charges
//! is the `ChainSpec::default()` solve itself — so every per-epoch
//! charged cost, processing time, selection and billed instance-hour
//! of `Advisor::solve_market` must equal the risk-free horizon solve
//! exactly, for every sampled path, and the quantile envelope must
//! collapse to a point.

use std::sync::OnceLock;

use mvcloud::market::{
    AnnouncedCut, CorrelatedHazard, MarketConfig, MarketScenario, PriceProcess, SpotMarket,
};
use mvcloud::{sales_domain, Advisor, AdvisorConfig, HorizonConfig, Scenario};
use proptest::prelude::*;

/// One measured advisor shared by every proptest case (building one is
/// the expensive part; the properties only vary the solve).
fn advisor() -> &'static Advisor {
    static ADVISOR: OnceLock<Advisor> = OnceLock::new();
    ADVISOR.get_or_init(|| {
        Advisor::build(sales_domain(1_000, 4, 5.0, 42), AdvisorConfig::default()).unwrap()
    })
}

/// A constant-price, zero-interruption market: either no processes at
/// all, or a stack whose members all quote the identity (a unit-factor
/// cut plus a zero-volatility spot pinned at the on-demand price).
fn zero_volatility_market(epochs: usize, seed: u64, with_processes: bool) -> MarketScenario {
    let market = MarketScenario::constant(epochs, seed);
    if !with_processes {
        return market;
    }
    market
        .with(PriceProcess::Cut(AnnouncedCut::compute(0, 1.0)))
        .with(PriceProcess::Spot(SpotMarket::with_volatility(0.0)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn zero_volatility_market_reproduces_solve_horizon_bit_for_bit(
        epochs in 1usize..6,
        paths in 1usize..20,
        seed in 0u64..1_000,
        with_processes in 0u8..2,
        kind in 0u8..2,
        knob in 0.0f64..1.0,
    ) {
        let a = advisor();
        let baseline = a.problem().baseline();
        let scenario = match kind {
            0 => Scenario::time_limit(mvcloud::units::Hours::new(
                baseline.time.value() * (0.05 + 0.9 * knob),
            )),
            _ => Scenario::tradeoff_normalized(knob),
        };
        let horizon = a
            .solve_horizon(scenario, &HorizonConfig { epochs, ..HorizonConfig::default() })
            .unwrap();
        let market = a
            .solve_market(
                scenario,
                &MarketConfig {
                    market: zero_volatility_market(epochs, seed, with_processes == 1),
                    paths,
                    ..MarketConfig::default()
                },
            )
            .unwrap();

        prop_assert_eq!(market.paths.len(), paths);
        prop_assert_eq!(market.epochs.len(), epochs);
        prop_assert_eq!(market.plan_stability, 1.0);
        for (j, p) in market.paths.iter().enumerate() {
            prop_assert_eq!(p.path, j);
            // Bit-for-bit per-path equality with the horizon solve.
            prop_assert_eq!(p.total_cost, horizon.total_cost, "path {}", j);
            prop_assert_eq!(p.total_time, horizon.total_time, "path {}", j);
            prop_assert_eq!(
                p.billed_instance_hours,
                horizon.billed_instance_hours,
                "path {}",
                j
            );
            prop_assert_eq!(p.switches, 0);
            prop_assert_eq!(p.interruptions, 0);
            for (e, step) in horizon.steps.iter().enumerate() {
                prop_assert_eq!(
                    p.epoch_costs[e],
                    step.outcome.evaluation.cost(),
                    "path {} epoch {}",
                    j,
                    e
                );
                prop_assert_eq!(
                    &p.selections[e],
                    step.selection(),
                    "path {} epoch {}",
                    j,
                    e
                );
            }
        }
        // The Monte-Carlo envelope collapses to the horizon's numbers.
        for (e, er) in market.epochs.iter().enumerate() {
            let expected = horizon.epochs[e].charged_cost.to_dollars_f64();
            prop_assert_eq!(er.charged_cost.min, expected, "epoch {}", e);
            prop_assert_eq!(er.charged_cost.max, expected, "epoch {}", e);
            prop_assert_eq!(er.charged_cost.spread(), 0.0, "epoch {}", e);
            prop_assert_eq!(er.time_hours.min, horizon.epochs[e].time_hours, "epoch {}", e);
            prop_assert_eq!(er.time_hours.max, horizon.epochs[e].time_hours, "epoch {}", e);
            prop_assert_eq!(er.distinct_plans, 1);
            prop_assert_eq!(er.modal_share, 1.0);
            prop_assert_eq!(er.interruption.max, 0.0);
            prop_assert_eq!(er.compute_factor.min, 1.0);
            prop_assert_eq!(er.compute_factor.max, 1.0);
            prop_assert_eq!(&er.modal_selection, &horizon.epochs[e].selected, "epoch {}", e);
        }
    }
}

/// Risk is not a no-op: cranking interruption probability up makes the
/// risk-adjusted bill strictly dearer whenever any view is built or
/// maintained (the premium lands on materialization + maintenance).
/// Priced on Cumulus (per-started-minute billing): under AWS's
/// whole-hour rounding a sub-hour build bills the same hour whether it
/// runs once or an expected 2× — the premium only reaches the invoice
/// when the billing granularity can see it.
#[test]
fn interruption_risk_raises_the_bill() {
    let pricing = mvcloud::pricing::presets::cumulus();
    let a = Advisor::build(
        sales_domain(1_000, 4, 5.0, 42),
        AdvisorConfig {
            pricing,
            instance: "c.std".to_string(),
            ..AdvisorConfig::default()
        },
    )
    .unwrap();
    let a = &a;
    let scenario = Scenario::tradeoff_normalized(0.5);
    let calm = a
        .solve_market(
            scenario,
            &MarketConfig {
                market: MarketScenario::constant(4, 7),
                paths: 2,
                ..MarketConfig::default()
            },
        )
        .unwrap();
    let risky = a
        .solve_market(
            scenario,
            &MarketConfig {
                // An always-crunching regime: p = 0.5 in every epoch at
                // unit prices.
                market: MarketScenario::constant(4, 7).with(PriceProcess::Correlated(
                    CorrelatedHazard::bursty(1.0, 0.0, 0.5),
                )),
                paths: 2,
                ..MarketConfig::default()
            },
        )
        .unwrap();
    assert!(calm.paths[0].selections[0].count_ones() > 0);
    assert!(
        risky.total_cost.median > calm.total_cost.median,
        "risk premium should show up in the bill: {} vs {}",
        risky.total_cost.median,
        calm.total_cost.median
    );
}
