//! The finite-horizon DP reference solver as an oracle for the
//! sequential chain.
//!
//! `EpochChain::solve_dp_exact` enumerates every selection trajectory
//! over a tiny pool (exact over selection states per epoch), minimizing
//! total constraint violation first and total scenario objective
//! second. The transition-aware chain commits each epoch greedily, so
//! it can only do as well or worse — the DP pins the chain from below
//! and quantifies its optimality gap, closing the PR 3 ROADMAP
//! follow-up ("a finite-horizon DP upper bound to quantify how far the
//! sequential chain sits from the true horizon optimum on small
//! pools").

use mv_cost::{
    CloudCostModel, CostContext, InterruptionRisk, Placement, PoolCharge, QueryCharge, ViewCharge,
};
use mv_select::epoch::{ChainSpec, EpochChain};
use mv_select::{fixtures, EpochStep, Scenario};
use mv_units::{Gb, Hours, Money, Months};
use proptest::prelude::*;

/// Total (violation, objective) of solved chain steps under `scenario`
/// — the same per-epoch terms the DP sums.
fn chain_totals(steps: &[EpochStep], scenario: Scenario) -> (f64, f64) {
    steps
        .iter()
        .map(|s| {
            (
                scenario.violation(&s.outcome.evaluation),
                scenario.objective(&s.outcome.evaluation, &s.outcome.baseline),
            )
        })
        .fold((0.0, 0.0), |(v, o), (sv, so)| (v + sv, o + so))
}

/// The fleet chain over its own epochs: every candidate starts
/// reserved and the search may move it.
fn rebalancing_chain(
    chain: &EpochChain,
    scenario: Scenario,
    pools: &[[PoolCharge; 2]],
) -> Vec<EpochStep> {
    let spec = ChainSpec {
        pools: Some(pools),
        initial: Some(Placement::Reserved),
        rebalance: true,
    };
    chain.solve_with(scenario, &spec).remove(0)
}

/// A fleet table with a calm/crunch break: reserved work bills at the
/// primary sheet, spot work at `spot(e)` times the reserved hours.
fn spot_pools(epochs: usize, spot: impl Fn(usize) -> f64) -> Vec<[PoolCharge; 2]> {
    (0..epochs)
        .map(|e| {
            let spot = PoolCharge::new(spot(e), InterruptionRisk::NONE);
            [PoolCharge::IDENTITY, spot]
        })
        .collect()
}

/// Paper-like pool with per-epoch sinusoidal frequency drift (the same
/// shape as `mv_select::epoch`'s unit-test chain).
fn drifting_chain(problem: &mv_select::SelectionProblem, epochs: usize) -> EpochChain {
    let models = (0..epochs)
        .map(|e| {
            let mut ctx = problem.model().context().clone();
            let m = ctx.workload.len() as f64;
            for (i, q) in ctx.workload.iter_mut().enumerate() {
                let phase = (e as f64 + i as f64 / m) * std::f64::consts::TAU / 3.0;
                q.frequency = 1.0 + 0.8 * phase.sin();
            }
            mv_cost::CloudCostModel::new(ctx)
        })
        .collect();
    EpochChain::new(models, problem.candidates().to_vec())
}

const EPS: f64 = 1e-9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The DP never loses to the chain in the lexicographic
    /// (violation, objective) order it optimizes.
    #[test]
    fn dp_lower_bounds_the_sequential_chain(
        seed in 0u64..10_000,
        n_queries in 2usize..5,
        n_candidates in 3usize..7,
        epochs in 2usize..5,
        kind in 0u8..3,
        knob in 0.0f64..1.0,
    ) {
        let p = fixtures::random_problem(seed, n_queries, n_candidates);
        let baseline = p.baseline();
        let scenario = match kind {
            0 => Scenario::budget(
                baseline.cost() + Money::from_dollars(1) + baseline.cost().scale(knob),
            ),
            1 => Scenario::time_limit(Hours::new(baseline.time.value() * (0.05 + 0.9 * knob))),
            _ => Scenario::tradeoff_normalized(knob),
        };
        let chain = drifting_chain(&p, epochs);
        let steps = chain.solve(scenario);
        let (chain_viol, chain_obj) = chain_totals(&steps, scenario);
        let dp = chain.solve_dp_exact(scenario);
        prop_assert_eq!(dp.selections.len(), epochs);
        prop_assert_eq!(dp.evaluations.len(), epochs);

        // Lexicographic domination: strictly less violation, or equal
        // violation and no worse objective.
        prop_assert!(
            dp.total_violation <= chain_viol + EPS,
            "DP violation {} exceeds chain {}",
            dp.total_violation,
            chain_viol
        );
        if (dp.total_violation - chain_viol).abs() <= EPS {
            prop_assert!(
                dp.total_objective <= chain_obj + EPS,
                "DP objective {} exceeds chain {} (gap {})",
                dp.total_objective,
                chain_obj,
                chain_obj - dp.total_objective
            );
        }
    }

    /// The joint selection+placement DP never loses to the fleet chain
    /// in the lexicographic (violation, objective) order it optimizes —
    /// the mixed-fleet extension of the PR 4 pin.
    #[test]
    fn dp_fleet_lower_bounds_the_joint_chain(
        seed in 0u64..10_000,
        n_queries in 2usize..5,
        n_candidates in 2usize..6,
        epochs in 2usize..5,
        spot_rate in 0.3f64..1.2,
        crunch_epoch in 0usize..4,
        kind in 0u8..3,
        knob in 0.0f64..1.0,
    ) {
        let p = fixtures::random_problem(seed, n_queries, n_candidates);
        let baseline = p.baseline();
        let scenario = match kind {
            0 => Scenario::budget(
                baseline.cost() + Money::from_dollars(1) + baseline.cost().scale(knob),
            ),
            1 => Scenario::time_limit(Hours::new(baseline.time.value() * (0.05 + 0.9 * knob))),
            _ => Scenario::tradeoff_normalized(knob),
        };
        let chain = drifting_chain(&p, epochs);
        // Spot work is discounted (or dear) and doubles once the crunch
        // arrives.
        let pools = spot_pools(epochs, |e| spot_rate * if e >= crunch_epoch { 2.0 } else { 1.0 });
        let steps = rebalancing_chain(&chain, scenario, &pools);
        let (chain_viol, chain_obj) = chain_totals(&steps, scenario);
        let dp = chain.solve_dp_fleet(scenario, &pools);
        prop_assert_eq!(dp.selections.len(), epochs);
        prop_assert_eq!(dp.placements.len(), epochs);
        prop_assert!(
            dp.total_violation <= chain_viol + EPS,
            "joint DP violation {} exceeds chain {}",
            dp.total_violation,
            chain_viol
        );
        if (dp.total_violation - chain_viol).abs() <= EPS {
            prop_assert!(
                dp.total_objective <= chain_obj + EPS,
                "joint DP objective {} exceeds chain {} (gap {})",
                dp.total_objective,
                chain_obj,
                chain_obj - dp.total_objective
            );
        }
    }

    /// On a single-epoch horizon the DP degenerates to the exhaustive
    /// single-period optimum.
    #[test]
    fn single_epoch_dp_matches_exhaustive(
        seed in 0u64..10_000,
        n_queries in 2usize..5,
        n_candidates in 3usize..7,
        knob in 0.0f64..1.0,
    ) {
        let p = fixtures::random_problem(seed, n_queries, n_candidates);
        let baseline = p.baseline();
        let scenario = Scenario::tradeoff_normalized(knob);
        let chain = EpochChain::new(vec![p.model().clone()], p.candidates().to_vec());
        let dp = chain.solve_dp_exact(scenario);
        let exhaustive = mv_select::solve_exhaustive(&p, scenario);
        let dp_obj = scenario.objective(&dp.evaluations[0], &baseline);
        let ex_obj = scenario.objective(&exhaustive.evaluation, &baseline);
        prop_assert!(
            (dp_obj - ex_obj).abs() <= EPS,
            "single-epoch DP objective {} vs exhaustive {}",
            dp_obj,
            ex_obj
        );
    }
}

/// The churn fixture is the canonical gap witness — and the DP exposes
/// a *strictly positive* chain gap on it: the chain, greedy per epoch,
/// only materializes the cold specialist once its query turns hot in
/// epoch 1, while the DP — which sees the whole horizon — pre-builds
/// both specialists in epoch 0 and never touches the selection again.
/// Quantifying exactly this kind of lookahead gap is what the oracle is
/// for.
#[test]
fn dp_quantifies_a_positive_lookahead_gap_on_the_churn_fixture() {
    let chain = fixtures::churn_chain(4);
    let scenario = Scenario::tradeoff(0.02);
    let steps = chain.solve(scenario);
    let (chain_viol, chain_obj) = chain_totals(&steps, scenario);
    let dp = chain.solve_dp_exact(scenario);
    assert_eq!(dp.total_violation, 0.0);
    assert_eq!(chain_viol, 0.0);
    let gap = chain_obj - dp.total_objective;
    assert!(gap > 0.0, "the chain should trail the DP here, gap {gap}");
    // The DP settles on both specialists from epoch 0; the chain only
    // reaches that set in epoch 1.
    assert_eq!(dp.selections[0].count_ones(), 2);
    assert_eq!(steps[0].selection().count_ones(), 1);
    for sel in &dp.selections[1..] {
        assert_eq!(sel, &dp.selections[0]);
    }
    // And the DP's total bill is strictly cheaper.
    let chain_cost: Money = steps.iter().map(|s| s.outcome.evaluation.cost()).sum();
    assert!(
        dp.total_cost() < chain_cost,
        "dp {} vs chain {}",
        dp.total_cost(),
        chain_cost
    );
}

#[test]
#[should_panic(expected = "at most 12 candidates")]
fn dp_rejects_oversized_pools() {
    let p = fixtures::random_problem(1, 3, 13);
    let chain = EpochChain::new(vec![p.model().clone()], p.candidates().to_vec());
    chain.solve_dp_exact(Scenario::tradeoff_normalized(0.5));
}

/// One always-hot query whose specialist view is mandatory under the
/// time limit; placement is the only real decision. Spot work clears
/// at 90% of reserved until a capacity crunch doubles it from epoch 1
/// onward. Integer-hour charges so AWS hour rounding is exact.
fn crunch_fleet_chain(epochs: usize) -> EpochChain {
    let pricing = mv_pricing::presets::aws_2012();
    let instance = pricing.compute.instance("small").unwrap().clone();
    let models: Vec<CloudCostModel> = (0..epochs)
        .map(|_| {
            let mut q = QueryCharge::new("Q", Gb::new(0.01), Hours::new(10.0));
            q.frequency = 5.0;
            CloudCostModel::new(CostContext {
                pricing: pricing.clone(),
                instance: instance.clone(),
                nb_instances: 1,
                months: Months::new(1.0),
                dataset_size: Gb::new(10.0),
                inserts: vec![],
                workload: vec![q],
            })
        })
        .collect();
    let pool = vec![ViewCharge::new(
        "spec-Q",
        Gb::new(1.0),
        Hours::new(10.0),
        Hours::new(10.0),
        1,
    )
    .answers(0, Hours::new(0.5))];
    EpochChain::new(models, pool)
}

/// The placement lookahead gap, pinned strictly positive: spot is the
/// myopically cheaper pool in epoch 0 (18 h of effective work vs 20 h
/// reserved), so the greedy chain parks the specialist on spot — and
/// once the crunch doubles spot work, staying put (18 h/epoch) is
/// always locally cheaper than moving (a 20 h rebuild+refresh), so the
/// chain never escapes. The DP sees the whole horizon and pre-places
/// the view on reserved **ahead of the crunch**, paying 2 h more up
/// front to save 8 h every crunch epoch.
#[test]
fn dp_fleet_pre_places_on_reserved_ahead_of_a_crunch() {
    let chain = crunch_fleet_chain(4);
    // The view is mandatory: 50 h of base processing vs a 10 h limit.
    let scenario = Scenario::time_limit(Hours::new(10.0));
    let pools = spot_pools(4, |e| 0.9 * if e >= 1 { 2.0 } else { 1.0 });
    let steps = rebalancing_chain(&chain, scenario, &pools);
    let (chain_viol, chain_obj) = chain_totals(&steps, scenario);
    // The chain takes the myopic bait: spot in epoch 0, spot forever.
    for (e, s) in steps.iter().enumerate() {
        assert_eq!(s.selection().count_ones(), 1, "epoch {e}");
        assert_eq!(s.placements[0], Placement::Spot, "epoch {e}");
    }
    let dp = chain.solve_dp_fleet(scenario, &pools);
    assert_eq!(dp.total_violation, 0.0);
    assert_eq!(chain_viol, 0.0);
    // The DP keeps the view reserved from epoch 0 and never moves it.
    for (e, assignment) in dp.placements.iter().enumerate() {
        assert_eq!(dp.selections[e].count_ones(), 1, "epoch {e}");
        assert_eq!(assignment[0], Placement::Reserved, "epoch {e}");
    }
    let gap = chain_obj - dp.total_objective;
    assert!(
        gap > 0.0,
        "the chain should trail the joint DP here, gap {gap}"
    );
    // And the bills agree with the hour arithmetic: chain 18 h/epoch of
    // view work vs DP 20 h then 10 h/epoch — a 22 h horizon saving at
    // $0.12/h.
    let chain_cost: Money = steps.iter().map(|s| s.outcome.evaluation.cost()).sum();
    assert_eq!(
        chain_cost - dp.total_cost(),
        Money::from_dollars_str("2.64").unwrap()
    );
}
