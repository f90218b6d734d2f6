//! Acceptance: the Monte-Carlo hot path of `Advisor::solve_market` /
//! `solve_fleet` pays *tree-shaped* work — one evaluator build per
//! scenario-tree root, one warm `retarget` per tree edge, one
//! evaluator fork per extra sibling at each split — instead of per
//! path × epoch, which is what the same paths cost solved one at a
//! time (pinned beside the driver, in `mvcloud`'s
//! `fleet/paths_tests.rs`).
//!
//! The evaluator reports those operations through the [`mv_obs`]
//! counter registry. [`mv_obs::CounterGuard`] owns the delta sections:
//! it serializes concurrent guard windows process-wide, enables
//! telemetry for its lifetime, and baselines every counter — so the
//! deltas below cannot interleave with another guarded test. This file
//! still holds exactly one test: unguarded solver work elsewhere in
//! the same process would count into an open guard window.

use mv_obs::Counter;
use mvcloud::fleet::FleetConfig;
use mvcloud::market::{
    CorrelatedHazard, MarketConfig, MarketScenario, PriceProcess, ScenarioTree, SpotMarket,
};
use mvcloud::{sales_domain, Advisor, AdvisorConfig, Scenario};

/// The work a tree-aware solve must pay for this market: (evaluator
/// builds = roots, retargets = edges, forks = Σ max(0, children − 1)).
fn tree_shape(market: &MarketScenario, paths: usize) -> (u64, u64, u64) {
    let sampled: Vec<_> = (0..paths).map(|j| market.path(j)).collect();
    let tree = ScenarioTree::from_paths(&sampled);
    let forks = tree
        .nodes()
        .iter()
        .map(|n| n.children.len().saturating_sub(1) as u64)
        .sum();
    let roots = tree.nodes().iter().filter(|n| n.parent.is_none()).count();
    (roots as u64, (tree.len() - roots) as u64, forks)
}

/// The three evaluator counter deltas since the guard's baseline.
fn deltas(guard: &mv_obs::CounterGuard) -> (u64, u64, u64) {
    (
        guard.delta(Counter::EvaluatorBuild),
        guard.delta(Counter::EvaluatorRetarget),
        guard.delta(Counter::EvaluatorFork),
    )
}

#[test]
fn market_solves_pay_tree_shaped_work() {
    const PATHS: usize = 16;
    const EPOCHS: usize = 6;
    let advisor =
        Advisor::build(sales_domain(1_000, 4, 5.0, 42), AdvisorConfig::default()).unwrap();
    // A stochastic market, so paths genuinely diverge (while still
    // sharing prefixes — the spot process pins epoch 0, so the forest
    // is one tree). The spot premium also re-risks charges at every
    // boundary, so the loop really does splice per transition —
    // through update_charge, not rebuilds.
    let market = MarketScenario::constant(EPOCHS, 99)
        .with(PriceProcess::Spot(SpotMarket::discounted(0.5, 0.4)));
    let config = MarketConfig {
        market: market.clone(),
        paths: PATHS,
        ..MarketConfig::default()
    };
    let (roots, edges, forks) = tree_shape(&market, PATHS);
    assert!(
        roots + edges < (PATHS * EPOCHS) as u64,
        "fixture must actually share prefixes"
    );

    let mut counters = mv_obs::CounterGuard::scoped();
    let report = advisor
        .solve_market(Scenario::tradeoff_normalized(0.5), &config)
        .unwrap();
    let (builds, retargets, forked) = deltas(&counters);

    assert_eq!(report.paths.len(), PATHS);
    assert_eq!(report.epochs.len(), EPOCHS);
    assert_eq!(report.tree_nodes, Some((roots + edges) as usize));
    assert_eq!(
        builds, roots,
        "expected one evaluator build per tree root; more means the \
         hot loop is rebuilding instead of branching the warm state"
    );
    assert_eq!(
        retargets,
        edges,
        "expected one retarget per tree edge ({edges}), not per \
         path × epoch ({})",
        PATHS * (EPOCHS - 1)
    );
    assert_eq!(
        forked, forks,
        "expected one evaluator fork per extra sibling at each split"
    );

    // Without sharing the same paths pay per path × epoch (each one
    // alone is a one-leaf forest: one build and one retarget per epoch
    // boundary, pinned by `mvcloud`'s `fleet/paths_tests.rs`).
    assert!(
        roots + edges < (report.distinct_solves * EPOCHS) as u64,
        "the forest must pay fewer epoch-solves than its distinct paths alone"
    );

    // The mixed-fleet case: joint selection + placement over a hedged
    // fleet with correlated crunch epochs. Placement flips are charge
    // splices on the same warm evaluator, so the bounds are identical
    // tree-shaped work — no matter how many views move pools.
    let fleet_market = market.with(PriceProcess::Correlated(
        CorrelatedHazard::bursty(0.35, 0.8, 0.6).with_crunch_compute(1.5),
    ));
    let fleet_config = FleetConfig {
        market: fleet_market.clone(),
        paths: PATHS,
        compare_pure: false,
        ..FleetConfig::default()
    };
    let (roots, edges, forks) = tree_shape(&fleet_market, PATHS);
    counters.rebase();
    let before = mv_obs::Snapshot::capture();
    let fleet_report = advisor
        .solve_fleet(Scenario::tradeoff_normalized(0.5), &fleet_config)
        .unwrap();
    let telemetry = mv_obs::Snapshot::capture().since(&before);
    let (builds, retargets, forked) = deltas(&counters);

    assert_eq!(fleet_report.paths.len(), PATHS);
    assert_eq!(fleet_report.epochs.len(), EPOCHS);
    assert_eq!(fleet_report.tree_nodes, Some((roots + edges) as usize));
    assert_eq!(
        builds, roots,
        "expected one evaluator build per fleet tree root"
    );
    assert_eq!(retargets, edges);
    assert_eq!(forked, forks);

    // A registry delta over the solve reconciles with the guard: the
    // same enabled window, read as a snapshot.
    assert_eq!(telemetry.counter("evaluator/build"), roots);
    // The node span, whatever it nested under.
    let node_spans = telemetry
        .spans
        .iter()
        .filter(|s| s.path.ends_with("solve_tree/node"));
    assert_eq!(node_spans.map(|s| s.count).sum::<u64>(), roots + edges);
}
