//! Shared ≡ unshared: the K-path Monte-Carlo solves must reproduce
//! every sampled path solved **alone**, bit for bit.
//!
//! The K-path solve factors the sampled paths into a prefix forest,
//! solves each shared quote-prefix once and branches the warm evaluator
//! at split points. [`Advisor::solve_sampled_paths`] on one path is the
//! same driver step over a one-leaf forest: nothing shared, nothing
//! forked. A node's search trajectory depends only on its costing
//! model, its effective charges and the state it inherits — all shared
//! along a prefix — so the two must agree exactly: same per-path bills,
//! hours, selections, placements and churn. The properties below drive
//! both [`Advisor::solve_market`] (volatile spot markets) and
//! [`Advisor::solve_fleet`] (hedged fleets under correlated
//! interruption crunches) over random market shapes; `fleet.rs`'s and
//! `market.rs`'s tests pin fixed ones.

use std::sync::OnceLock;

use mv_market::{CorrelatedHazard, PriceProcess, SpotMarket};
use mv_obs::{Counter, CounterGuard};
use proptest::prelude::*;

use super::*;
use crate::market::MarketConfig;
use crate::{sales_domain, AdvisorConfig};

impl Advisor {
    /// Solves exactly these sampled paths under one fleet plan — the
    /// driver's inner step, without sampling, validation or the
    /// envelope fold. Paths that share a quote prefix share its solves;
    /// one path alone is a one-leaf forest: the unshared reference path
    /// `j` of any K-path solve must equal bit for bit.
    ///
    /// # Panics
    /// Panics when `sampled` is empty or its paths span different (or
    /// zero-length) horizons.
    pub(crate) fn solve_sampled_paths(
        &self,
        scenario: Scenario,
        evolution: &WorkloadEvolution,
        fleet: &FleetPlan,
        sampled: &[MarketPath],
    ) -> SolvedPaths {
        let epochs = sampled.first().map_or(0, |p| p.quotes.len());
        let base = self.epoch_models(epochs, evolution);
        self.solve_forest(scenario, &Forest::new(sampled, &base), fleet)
    }
}

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
    let solved = advisor().solve_sampled_paths(scenario, evolution, fleet, &[market.path(j)]);
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
            commitment: Some(mv_pricing::CommitmentPlan::aws_small_1yr()),
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
        let mut fleet = FleetPlan::hedged("hedged");
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

/// Without sharing, the paths `tests/market_no_rebuild.rs` solves as a
/// forest pay per path × epoch: each one solved alone is a one-leaf
/// forest — one evaluator build, one retarget per epoch boundary and no
/// fork. A one-leaf forest runs inline on the calling thread, so the
/// calling thread's own counters are exact whatever other tests do.
#[test]
fn a_path_alone_pays_per_path_work() {
    const PATHS: usize = 16;
    const EPOCHS: usize = 6;
    let market = MarketScenario::constant(EPOCHS, 99)
        .with(PriceProcess::Spot(SpotMarket::discounted(0.5, 0.4)));
    let config = MarketConfig {
        market: market.clone(),
        paths: PATHS,
        ..MarketConfig::default()
    };
    let pure_spot = config.as_fleet().fleet;
    let a = advisor();
    let mut counters = CounterGuard::scoped();
    for j in 0..PATHS {
        counters.rebase();
        let alone = a.solve_sampled_paths(
            Scenario::tradeoff_normalized(0.5),
            &config.evolution,
            &pure_spot,
            &[market.path(j)],
        );
        assert_eq!(alone.tree_nodes, Some(EPOCHS));
        let work = [
            Counter::EvaluatorBuild,
            Counter::EvaluatorRetarget,
            Counter::EvaluatorFork,
        ]
        .map(|c| counters.local_delta(c));
        assert_eq!(work, [1, EPOCHS as u64 - 1, 0], "path {j} alone");
    }
}
