//! Shared ≡ unshared identity: the K-path Monte-Carlo solves must
//! reproduce every sampled path solved **alone**, bit for bit.
//!
//! The K-path solve factors the sampled paths into a prefix forest,
//! solves each shared quote-prefix once and branches the warm evaluator
//! at split points. `Advisor::solve_fleet_paths` on one path is the
//! same driver step over a one-leaf forest: nothing shared, nothing
//! forked. A node's search trajectory depends only on its costing
//! model, its effective charges and the state it inherits — all shared
//! along a prefix — so the two must agree exactly: same per-path bills,
//! hours, selections, placements and churn. These properties drive both
//! `Advisor::solve_market` (volatile spot markets) and
//! `Advisor::solve_fleet` (hedged fleets under correlated interruption
//! crunches) over random market shapes.

use std::sync::OnceLock;

use mvcloud::fleet::{FleetConfig, FleetPathSummary};
use mvcloud::lattice::WorkloadEvolution;
use mvcloud::market::{CorrelatedHazard, MarketConfig, MarketScenario, PriceProcess, SpotMarket};
use mvcloud::pricing::FleetPlan;
use mvcloud::units::Hours;
use mvcloud::{sales_domain, Advisor, AdvisorConfig, Scenario};
use proptest::prelude::*;

/// One measured advisor shared by every proptest case (building one is
/// the expensive part; the properties only vary the solve).
fn advisor() -> &'static Advisor {
    static ADVISOR: OnceLock<Advisor> = OnceLock::new();
    ADVISOR.get_or_init(|| {
        Advisor::build(sales_domain(1_000, 4, 5.0, 42), AdvisorConfig::default()).unwrap()
    })
}

/// A genuinely volatile market: a mean-reverting spot process with a
/// random discount and volatility, optionally stacked with a bursty
/// correlated-hazard regime (correlated interruption epochs).
fn volatile_market(
    epochs: usize,
    seed: u64,
    discount: f64,
    volatility: f64,
    hazard: Option<(f64, f64)>,
) -> MarketScenario {
    let mut market = MarketScenario::constant(epochs, seed).with(PriceProcess::Spot(
        SpotMarket::discounted(discount, volatility),
    ));
    if let Some((calm_to_crunch, crunch_hazard)) = hazard {
        market = market.with(PriceProcess::Correlated(
            CorrelatedHazard::bursty(calm_to_crunch, 0.7, crunch_hazard).with_crunch_compute(1.3),
        ));
    }
    market
}

/// Sampled path `j` of `market` solved alone: a one-leaf forest, so
/// one full-horizon solve over exactly `epochs` nodes (none at all when
/// the fleet is market-insulated).
fn alone(
    scenario: Scenario,
    evolution: &WorkloadEvolution,
    fleet: &FleetPlan,
    market: &MarketScenario,
    j: usize,
) -> FleetPathSummary {
    let solved = advisor().solve_fleet_paths(scenario, evolution, fleet, &[market.path(j)]);
    assert_eq!(solved.distinct_solves, 1);
    assert!(solved.tree_nodes.is_none_or(|nodes| nodes == market.epochs));
    solved
        .paths
        .into_iter()
        .next()
        .expect("one path in, one out")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tree_market_solve_matches_flat_bit_for_bit(
        epochs in 2usize..6,
        paths in 2usize..14,
        seed in 0u64..1_000,
        discount in 0.3f64..0.9,
        volatility in 0.1f64..0.7,
        alpha in 0.1f64..0.9,
    ) {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(alpha);
        let tree_cfg = MarketConfig {
            market: volatile_market(epochs, seed, discount, volatility, None),
            paths,
            commitment: Some(mvcloud::pricing::CommitmentPlan::aws_small_1yr()),
            ..MarketConfig::default()
        };
        let tree = a.solve_market(scenario, &tree_cfg).unwrap();
        let fleet = tree_cfg.as_fleet().fleet;

        // Per-path bills and plans.
        prop_assert_eq!(tree.paths.len(), paths);
        for (j, t) in tree.paths.iter().enumerate() {
            let f = alone(scenario, &tree_cfg.evolution, &fleet, &tree_cfg.market, j);
            prop_assert_eq!(t.total_cost, f.total_cost);
            prop_assert_eq!(t.total_time, f.total_time);
            prop_assert_eq!(
                t.billed_instance_hours,
                f.epoch_billed_hours.iter().copied().sum::<Hours>()
            );
            prop_assert_eq!(t.compute_bill, f.compute_bill);
            prop_assert_eq!(&t.epoch_costs, &f.epoch_costs);
            prop_assert_eq!(&t.selections, &f.selections);
            prop_assert_eq!(t.switches, f.switches);
            prop_assert_eq!(t.interruptions, f.interruptions);
        }
        prop_assert!(tree.commitment.is_some());
        // The shared solve never pays more epoch-solves than the
        // distinct paths solved alone.
        let nodes = tree.tree_nodes.unwrap();
        prop_assert!(nodes <= tree.distinct_solves * epochs);
    }

    #[test]
    fn tree_fleet_solve_matches_flat_bit_for_bit(
        epochs in 2usize..5,
        paths in 2usize..10,
        seed in 0u64..1_000,
        discount in 0.3f64..0.8,
        volatility in 0.0f64..0.5,
        calm_to_crunch in 0.1f64..0.6,
        crunch_hazard in 0.2f64..0.8,
        rebalance in proptest::bool::ANY,
        alpha in 0.2f64..0.8,
    ) {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(alpha);
        let mut fleet = mvcloud::pricing::FleetPlan::hedged("hedged");
        fleet.rebalance = rebalance;
        let tree_cfg = FleetConfig {
            market: volatile_market(
                epochs, seed, discount, volatility,
                Some((calm_to_crunch, crunch_hazard)),
            ),
            paths,
            fleet,
            compare_pure: false,
            ..FleetConfig::default()
        };
        let tree = a.solve_fleet(scenario, &tree_cfg).unwrap();

        prop_assert_eq!(tree.paths.len(), paths);
        for (j, t) in tree.paths.iter().enumerate() {
            let f = alone(scenario, &tree_cfg.evolution, &tree_cfg.fleet, &tree_cfg.market, j);
            prop_assert_eq!(t.total_cost, f.total_cost);
            prop_assert_eq!(t.total_time, f.total_time);
            prop_assert_eq!(t.billed_instance_hours, f.billed_instance_hours);
            prop_assert_eq!(t.reserved_hours, f.reserved_hours);
            prop_assert_eq!(t.spot_hours, f.spot_hours);
            prop_assert_eq!(t.spot_share, f.spot_share);
            prop_assert_eq!(&t.epoch_costs, &f.epoch_costs);
            prop_assert_eq!(&t.selections, &f.selections);
            prop_assert_eq!(&t.placements, &f.placements);
            prop_assert_eq!(t.switches, f.switches);
            prop_assert_eq!(t.moves, f.moves);
            prop_assert_eq!(t.interruptions, f.interruptions);
        }
        match tree.tree_nodes {
            Some(nodes) => prop_assert!(nodes <= tree.distinct_solves * epochs),
            // A non-rebalancing hedged fleet pins every view to its
            // initial reserved placement and never sees the market:
            // one path is solved and stands for all.
            None => prop_assert_eq!(tree.distinct_solves, 1),
        }
    }
}
