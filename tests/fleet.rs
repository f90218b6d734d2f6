//! Degenerate-fleet conformance: the mixed-fleet solver must collapse
//! to the existing single-fleet solvers exactly.
//!
//! Three pins, mirroring PR 4's zero-volatility guarantee:
//!
//! * an **all-spot** [`FleetPlan`] at market parity reproduces
//!   `Advisor::solve_market` **bit-for-bit per path** — same models
//!   (the primary sheet rides the quotes), same risk-adjusted charges
//!   (the spot pool's `PoolCharge` is a unit factor under the quote's
//!   `InterruptionRisk`),
//!   same move enumeration (placement pinned ⇒ the joint improvement
//!   pass is the plain one);
//! * an **all-reserved** plan at on-demand parity never sees the
//!   market at all and reproduces the risk-free `solve_horizon`
//!   bit-for-bit on every path;
//! * a **zero-persistence** [`CorrelatedHazard`] is the independent
//!   i.i.d. hazard exactly — one uniform per epoch against the
//!   stationary crunch share, reconstructed by hand from the same
//!   seeded generator.
//!
//! Plus the fix-en-route equality: the single-fleet
//! `SpotCommitmentReport` is the pure-fleet special case of the fleet
//! comparison — both go through
//! `SpotCommitmentReport::from_path_bills`, and this test pins that
//! they can never disagree.

use std::sync::OnceLock;

use mvcloud::fleet::{FleetConfig, FleetPathSummary};
use mvcloud::market::{
    CorrelatedHazard, MarketConfig, MarketScenario, PriceFactors, PriceProcess, SpotMarket,
};
use mvcloud::pricing::{FleetPlan, Placement};
use mvcloud::{sales_domain, Advisor, AdvisorConfig, HorizonConfig, Scenario};
use proptest::prelude::*;

/// One measured advisor shared by every proptest case.
fn advisor() -> &'static Advisor {
    static ADVISOR: OnceLock<Advisor> = OnceLock::new();
    ADVISOR.get_or_init(|| {
        Advisor::build(sales_domain(1_000, 4, 5.0, 42), AdvisorConfig::default()).unwrap()
    })
}

/// A genuinely moving market: discounted volatile spot plus a bursty
/// correlated crunch regime.
fn moving_market(epochs: usize, seed: u64) -> MarketScenario {
    MarketScenario::constant(epochs, seed)
        .with(PriceProcess::Spot(SpotMarket::discounted(0.5, 0.35)))
        .with(PriceProcess::Correlated(
            CorrelatedHazard::bursty(0.3, 0.7, 0.5).with_crunch_compute(1.3),
        ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pure-spot fleet ≡ `solve_market`, bit for bit, path by path.
    #[test]
    fn pure_spot_fleet_reproduces_solve_market_bit_for_bit(
        epochs in 1usize..5,
        paths in 1usize..6,
        seed in 0u64..1_000,
        knob in 0.0f64..1.0,
    ) {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(knob);
        let market = moving_market(epochs, seed);
        let single = a
            .solve_market(
                scenario,
                &MarketConfig {
                    market: market.clone(),
                    paths,
                    ..MarketConfig::default()
                },
            )
            .unwrap();
        let fleet = a
            .solve_fleet(
                scenario,
                &FleetConfig {
                    market,
                    paths,
                    fleet: FleetPlan::pure_spot(),
                    compare_pure: false,
                    ..FleetConfig::default()
                },
            )
            .unwrap();

        // The market report keeps the fleet's rows whole; its one
        // override sums billed hours by epoch subtotal.
        prop_assert_eq!(fleet.paths.len(), single.paths.len());
        for (f, m) in fleet.paths.iter().zip(&single.paths) {
            let by_epoch = FleetPathSummary {
                billed_instance_hours: f.epoch_billed_hours.iter().copied().sum(),
                ..f.clone()
            };
            prop_assert_eq!(&by_epoch, m, "path {}", f.path);
            prop_assert_eq!(f.billed_instance_hours, m.billed_instance_hours, "path {}", f.path);
            prop_assert_eq!(f.moves, 0, "path {}", f.path);
            // Every selected view really is spot-placed.
            for (e, sel) in f.selections.iter().enumerate() {
                for k in sel.ones() {
                    prop_assert_eq!(f.placements[e][k], Placement::Spot);
                }
            }
        }
        prop_assert_eq!(&fleet.epochs, &single.epochs);
        prop_assert_eq!(fleet.total_cost, single.total_cost);
        prop_assert_eq!(fleet.plan_stability, single.plan_stability);
        prop_assert_eq!(fleet.hedge_ratio.max, 1.0);
    }

    /// Pure-reserved fleet ≡ the risk-free `solve_horizon` on every
    /// sampled path: market dynamics never reach reserved capacity.
    #[test]
    fn pure_reserved_fleet_reproduces_solve_horizon_bit_for_bit(
        epochs in 1usize..5,
        paths in 1usize..6,
        seed in 0u64..1_000,
        knob in 0.0f64..1.0,
    ) {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(knob);
        let horizon = a
            .solve_horizon(
                scenario,
                &HorizonConfig { epochs, ..HorizonConfig::default() },
            )
            .unwrap();
        let fleet = a
            .solve_fleet(
                scenario,
                &FleetConfig {
                    market: moving_market(epochs, seed),
                    paths,
                    fleet: FleetPlan::pure_reserved(),
                    compare_pure: false,
                    ..FleetConfig::default()
                },
            )
            .unwrap();
        prop_assert_eq!(fleet.paths.len(), paths);
        for p in &fleet.paths {
            prop_assert_eq!(p.total_cost, horizon.total_cost, "path {}", p.path);
            prop_assert_eq!(p.total_time, horizon.total_time, "path {}", p.path);
            prop_assert_eq!(
                p.billed_instance_hours,
                horizon.billed_instance_hours,
                "path {}",
                p.path
            );
            prop_assert_eq!(p.spot_hours, mvcloud::units::Hours::ZERO);
            prop_assert_eq!(p.spot_share, 0.0);
            for (e, step) in horizon.steps.iter().enumerate() {
                prop_assert_eq!(
                    p.epoch_costs[e],
                    step.outcome.evaluation.cost(),
                    "path {} epoch {}",
                    p.path,
                    e
                );
                prop_assert_eq!(&p.selections[e], step.selection(), "path {} epoch {}", p.path, e);
            }
        }
        // Reserved capacity is insulated: the envelope collapses even
        // though the market is stochastic.
        for e in &fleet.epochs {
            prop_assert_eq!(e.charged_cost.spread(), 0.0, "epoch {}", e.epoch);
            prop_assert_eq!(e.hedge_ratio.max, 0.0, "epoch {}", e.epoch);
        }
        prop_assert_eq!(fleet.plan_stability, 1.0);
    }

    /// Zero-persistence correlated hazard ≡ the independent hazard:
    /// reconstruct the i.i.d. Bernoulli draws by hand from the same
    /// seeded generator and match the scenario's quotes bit-for-bit.
    #[test]
    fn zero_persistence_hazard_reproduces_the_independent_path(
        epochs in 1usize..12,
        seed in 0u64..10_000,
        path in 0usize..8,
        share in 0.05f64..0.95,
        crunch in 0.05f64..0.9,
    ) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let market = MarketScenario::constant(epochs, seed)
            .with(PriceProcess::Correlated(CorrelatedHazard::bursty(share, 0.0, crunch)));
        let sampled = market.path(path);

        // The scenario derives path generators by splitmix-ing the path
        // index into the master seed; reproduce that, then draw one
        // uniform per epoch against the stationary share — the
        // independent-hazard construction.
        let mixed = seed.wrapping_add((path as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut rng = StdRng::seed_from_u64(mixed);
        for (e, q) in sampled.quotes.iter().enumerate() {
            let is_crunch = rng.random_range(0.0f64..1.0) < share;
            // The scenario combines hazards as survival probabilities
            // (`1 − Π(1 − pᵢ)`), so a single process's quote makes the
            // same float roundtrip.
            let expected = if is_crunch { 1.0 - (1.0 - crunch) } else { 0.0 };
            prop_assert_eq!(q.interruption, expected, "epoch {}", e);
            prop_assert_eq!(q.factors, PriceFactors::UNIT, "epoch {}", e);
        }
    }
}

/// Fix-en-route equality: the single-fleet `SpotCommitmentReport` and
/// the pure-spot fleet's commitment leg price through the same
/// constructor and must agree field-for-field.
#[test]
fn commitment_report_is_the_pure_fleet_special_case() {
    let a = advisor();
    let scenario = Scenario::tradeoff_normalized(0.5);
    let market =
        MarketScenario::constant(8, 77).with(PriceProcess::Spot(SpotMarket::discounted(0.45, 0.3)));
    let plan = mvcloud::pricing::CommitmentPlan::aws_small_1yr();
    let single = a
        .solve_market(
            scenario,
            &MarketConfig {
                market: market.clone(),
                paths: 8,
                commitment: Some(plan.clone()),
                ..MarketConfig::default()
            },
        )
        .unwrap();
    let mut fleet_plan = FleetPlan::pure_spot();
    fleet_plan.reserved.commitment = Some(plan);
    let fleet = a
        .solve_fleet(
            scenario,
            &FleetConfig {
                market,
                paths: 8,
                fleet: fleet_plan,
                compare_pure: false,
                ..FleetConfig::default()
            },
        )
        .unwrap();
    let s = single.commitment.expect("plan supplied");
    let f = fleet.commitment.expect("plan supplied");
    assert_eq!(s.plan, f.plan);
    assert_eq!(s.spot_compute, f.spot_compute);
    assert_eq!(s.reserved, f.reserved);
    assert_eq!(s.saving, f.saving);
    assert_eq!(s.reserved_wins_share, f.reserved_wins_share);
}
