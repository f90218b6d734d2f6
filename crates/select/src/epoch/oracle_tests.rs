//! The references the transition-aware chain is measured against, kept
//! beside the tests that compare it with them.
//!
//! * [`EpochChain::rebuild_per_epoch`] is the rebuild-per-epoch
//!   reference of [`EpochChain::solve_with`] on a path: identical
//!   transition, placement and re-pricing semantics, but each epoch
//!   builds a fresh charged problem and a fresh evaluator repositioned
//!   by O(n) flips. Its steps are bit-identical to the warm path's: the
//!   correctness anchor of the retarget-and-splice machinery.
//! * [`EpochChain::dp_optimum`] is the exact finite-horizon optimum over
//!   a tiny pool, by dynamic programming over every trajectory of
//!   per-epoch states. The chain commits each epoch greedily, so it can
//!   only do as well or worse: the DP pins it from below and measures
//!   its *lookahead* gap — skipping a build that only pays off two
//!   epochs later, or parking a view on cheap spot capacity ahead of a
//!   crunch a reserved placement would have ridden out.
//!
//! Both need the chain's private `effective`, `charged`, `path`,
//! `check_pools`, `initial_placements` and `step`, which a child module
//! sees.

use mv_cost::{CostContext, InterruptionRisk, QueryCharge};
use mv_units::{Gb, Months};
use proptest::prelude::*;

use super::*;
use crate::fixtures;

/// The exhaustive optimum [`EpochChain::dp_optimum`] finds.
#[derive(Debug, Clone)]
pub(super) struct DpOptimum {
    /// The optimal selection per epoch.
    pub selections: Vec<SelectionSet>,
    /// The optimal pool of every candidate per epoch (an unselected
    /// candidate reports its charge's own placement).
    pub placements: Vec<Vec<Placement>>,
    /// The charged evaluation of each epoch along the optimal
    /// trajectory, re-derived through [`SelectionProblem::evaluate`] on
    /// its charged problem, so it reproduces externally.
    pub evaluations: Vec<Evaluation>,
    /// Total constraint violation along the trajectory (0 when every
    /// epoch is feasible).
    pub total_violation: f64,
    /// Total scenario objective along the trajectory — the number the
    /// sequential chain's optimality gap is measured against.
    pub total_objective: f64,
}

impl DpOptimum {
    /// Total charged cost of the optimal trajectory.
    pub(crate) fn total_cost(&self) -> Money {
        self.evaluations.iter().map(|e| e.cost()).sum()
    }
}

impl EpochChain {
    /// The rebuild-per-epoch reference of [`EpochChain::solve_with`] on
    /// a path (see the module docs).
    pub(super) fn rebuild_per_epoch(
        &self,
        scenario: Scenario,
        spec: &ChainSpec<'_>,
    ) -> Vec<EpochStep> {
        let epochs = self.path();
        self.check_pools(spec.pools);
        let n = self.pool.len();
        let max_moves = local_search::default_move_budget(n);
        let mut placements = self.initial_placements(spec.initial);
        let mut prev = SelectionSet::empty(n);
        let mut steps = Vec::with_capacity(epochs.len());
        for (e, model) in epochs.iter().enumerate() {
            let effective = |k, p, carried| self.effective(spec.pools, e, k, p, carried);
            let charged = self.charged(|k| effective(k, placements[k], prev.contains(k)));
            let problem = SelectionProblem::new(model.clone(), charged);
            let baseline = problem.baseline();
            let mut ev = IncrementalEvaluator::with_selection(&problem, &prev);
            if e == 0 {
                local_search::greedy_fill(&mut ev, scenario, &baseline);
            }
            let entry = placements.clone();
            let evaluation = if spec.rebalance {
                let charge_for = |k, p| effective(k, p, prev.contains(k) && p == entry[k]);
                local_search::improve_joint(
                    &mut ev,
                    scenario,
                    &baseline,
                    max_moves,
                    &mut placements,
                    &charge_for,
                )
            } else {
                local_search::improve(&mut ev, scenario, &baseline, max_moves)
            };
            let outcome = Outcome::new(evaluation, baseline, scenario, SolverKind::LocalSearch);
            steps.push(self.step(model, e, outcome, &prev, &entry, &placements));
            prev = steps.last().expect("just pushed").selection().clone();
        }
        steps
    }

    /// The exact finite-horizon optimum over a tiny pool on a path.
    ///
    /// A candidate's state in an epoch is *off* or *on one allowed
    /// pool*: its charge's own placement with no pool table (radix 2),
    /// reserved or spot with one (radix 3, one `[reserved, spot]` pair
    /// per epoch as [`ChainSpec::pools`]). Entering state `cur` from
    /// `prev` charges materialization for every candidate on in `cur`
    /// that was not on *the same pool* in `prev` — the chain's
    /// transition accounting, where a placement move rebuilds the view.
    /// The value function minimizes total violation first, then total
    /// objective, as [`Scenario::better`] ranks candidates. The state
    /// space is radixⁿ per epoch and its square per boundary, so the
    /// pool is capped at 12 candidates on one pool and 6 on two.
    ///
    /// The returned evaluations are re-derived through the trajectory's
    /// charged problems; the DP's internal tallies only pick it.
    pub(super) fn dp_optimum(
        &self,
        scenario: Scenario,
        pools: Option<&[[PoolCharge; 2]]>,
    ) -> DpOptimum {
        let n = self.pool.len();
        let (radix, cap): (usize, usize) = if pools.is_some() { (3, 6) } else { (2, 12) };
        assert!(
            n <= cap,
            "the DP oracle supports at most {cap} candidates on {} pool(s), got {n}",
            radix - 1
        );
        let models = self.path();
        self.check_pools(pools);
        let epochs = models.len();
        let states = radix.pow(n as u32);
        let digit = |s: usize, k: usize| s / radix.pow(k as u32) % radix;
        let placement = |k: usize, d: usize| match (pools, d) {
            (Some(_), 1) => Placement::Reserved,
            (Some(_), 2) => Placement::Spot,
            _ => self.pool[k].placement,
        };
        let sets: Vec<SelectionSet> = (0..states)
            .map(|s| (0..n).map(|k| digit(s, k) != 0).collect::<Vec<_>>().into())
            .collect();

        // Per epoch: every candidate's full effective price per digit,
        // the baseline, and per state the time (placement-independent:
        // prices carry no answers) and the breakdown with
        // materialization zeroed, the one transition-dependent part.
        let mut prices: Vec<Vec<[Price; 3]>> = Vec::with_capacity(epochs);
        let mut baselines = Vec::with_capacity(epochs);
        let mut partial: Vec<Vec<(Hours, CostBreakdown)>> = Vec::with_capacity(epochs);
        for (e, model) in models.iter().enumerate() {
            let on: Vec<[Price; 3]> = (0..n)
                .map(|k| {
                    std::array::from_fn(|d| self.effective(pools, e, k, placement(k, d), false))
                })
                .collect();
            let problem = SelectionProblem::new(model.clone(), self.pool.clone());
            baselines.push(problem.baseline());
            let mut times = Vec::with_capacity(1 << n);
            crate::sweep::sweep_masks(&problem, 0, 1 << n, |_, ev| times.push(ev.score().time));
            let per_state = (0..states)
                .map(|s| {
                    let mut maintenance = Hours::ZERO;
                    let mut size = Gb::ZERO;
                    for (k, price) in on.iter().enumerate() {
                        let d = digit(s, k);
                        if d != 0 {
                            maintenance += price[d].maintenance;
                            size += price[d].size;
                        }
                    }
                    let time = times[sets[s].as_mask() as usize];
                    let breakdown =
                        model.breakdown_from_totals(time, maintenance, Hours::ZERO, size);
                    (time, breakdown)
                })
                .collect();
            prices.push(on);
            partial.push(per_state);
        }

        // The charged evaluation of entering `cur` from `prev` in epoch `e`.
        let charged = |e: usize, prev: usize, cur: usize| -> Evaluation {
            let mut materialization = Hours::ZERO;
            for (k, price) in prices[e].iter().enumerate() {
                let d = digit(cur, k);
                if d != 0 && digit(prev, k) != d {
                    materialization += price[d].materialization;
                }
            }
            let (time, breakdown) = partial[e][cur];
            Evaluation {
                time,
                breakdown: CostBreakdown {
                    compute_materialization: models[e].compute_cost(materialization),
                    ..breakdown
                },
                selection: sets[cur].clone(),
            }
        };
        let path = best_trajectory(states, epochs, |e, prev, cur| {
            let ev = charged(e, prev, cur);
            (
                scenario.violation(&ev),
                scenario.objective(&ev, &baselines[e]),
            )
        });

        // Re-derive the chosen trajectory exactly, through the charged
        // problems the chain would bill.
        let mut solution = DpOptimum {
            selections: Vec::with_capacity(epochs),
            placements: Vec::with_capacity(epochs),
            evaluations: Vec::with_capacity(epochs),
            total_violation: 0.0,
            total_objective: 0.0,
        };
        let mut prev = 0;
        for (e, &cur) in path.iter().enumerate() {
            let charges = self.charged(|k| {
                let d = digit(cur, k);
                self.effective(pools, e, k, placement(k, d), d != 0 && digit(prev, k) == d)
            });
            let ev = SelectionProblem::new(models[e].clone(), charges).evaluate(&sets[cur]);
            solution.total_violation += scenario.violation(&ev);
            solution.total_objective += scenario.objective(&ev, &baselines[e]);
            solution.evaluations.push(ev);
            solution.selections.push(sets[cur].clone());
            solution
                .placements
                .push((0..n).map(|k| placement(k, digit(cur, k))).collect());
            prev = cur;
        }
        solution
    }
}

/// The DP's trajectory search over `states` states per epoch:
/// `cost(e, prev, cur)` is the (violation, objective) of entering `cur`
/// from `prev` in epoch `e` (epoch 0 enters from state 0). Minimizes the
/// summed violation first, then the summed objective — the order
/// [`Scenario::better`] ranks candidates by — and returns the optimal
/// state per epoch. Ties break toward the first-visited predecessor and
/// the lowest terminal state, so the result is deterministic.
fn best_trajectory(
    states: usize,
    epochs: usize,
    cost: impl Fn(usize, usize, usize) -> (f64, f64),
) -> Vec<usize> {
    let better = |a: (f64, f64), b: (f64, f64)| a.0 < b.0 || (a.0 == b.0 && a.1 < b.1);
    // value[cur]: the best trajectory ending in `cur` so far.
    let mut value: Vec<(f64, f64)> = (0..states).map(|cur| cost(0, 0, cur)).collect();
    let mut back: Vec<Vec<u32>> = Vec::with_capacity(epochs.saturating_sub(1));
    for e in 1..epochs {
        let mut next = vec![(f64::INFINITY, f64::INFINITY); states];
        let mut prevptr = vec![0u32; states];
        for (prev, &base) in value.iter().enumerate() {
            for (cur, slot) in next.iter_mut().enumerate() {
                let (violation, objective) = cost(e, prev, cur);
                let cand = (base.0 + violation, base.1 + objective);
                if better(cand, *slot) {
                    *slot = cand;
                    prevptr[cur] = prev as u32;
                }
            }
        }
        value = next;
        back.push(prevptr);
    }
    // Best terminal state, then backtrack the trajectory.
    let mut best = 0usize;
    for cur in 1..states {
        if better(value[cur], value[best]) {
            best = cur;
        }
    }
    let mut path = vec![best; epochs];
    for e in (1..epochs).rev() {
        path[e - 1] = back[e - 1][path[e]] as usize;
    }
    path
}

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

/// `problem`'s pool with per-epoch sinusoidal frequency drift (a
/// third of a period per epoch).
pub(super) fn drifting_horizon(problem: &SelectionProblem, epochs: usize) -> EpochChain {
    let models = (0..epochs)
        .map(|e| {
            let mut ctx = problem.model().context().clone();
            let m = ctx.workload.len() as f64;
            for (i, q) in ctx.workload.iter_mut().enumerate() {
                let phase = (e as f64 + i as f64 / m) * std::f64::consts::TAU / 3.0;
                q.frequency = 1.0 + 0.8 * phase.sin();
            }
            CloudCostModel::new(ctx)
        })
        .collect();
    EpochChain::new(models, problem.candidates().to_vec())
}

/// The DP proptests' scenario draw over `p`: a budget (`kind` 0), a
/// time limit (1) or the normalized tradeoff, each placed by `knob`.
pub(super) fn drawn_scenario(p: &SelectionProblem, kind: u8, knob: f64) -> Scenario {
    let baseline = p.baseline();
    match kind {
        0 => {
            Scenario::budget(baseline.cost() + Money::from_dollars(1) + baseline.cost().scale(knob))
        }
        1 => Scenario::time_limit(Hours::new(baseline.time.value() * (0.05 + 0.9 * knob))),
        _ => Scenario::tradeoff_normalized(knob),
    }
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
        let scenario = drawn_scenario(&p, kind, knob);
        let chain = drifting_horizon(&p, epochs);
        let steps = chain.solve(scenario);
        let (chain_viol, chain_obj) = chain_totals(&steps, scenario);
        let dp = chain.dp_optimum(scenario, None);
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
    /// in the lexicographic (violation, objective) order it optimizes.
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
        let scenario = drawn_scenario(&p, kind, knob);
        let chain = drifting_horizon(&p, epochs);
        // Spot work is discounted (or dear) and doubles once the crunch
        // arrives.
        let pools = spot_pools(epochs, |e| spot_rate * if e >= crunch_epoch { 2.0 } else { 1.0 });
        let steps = rebalancing_chain(&chain, scenario, &pools);
        let (chain_viol, chain_obj) = chain_totals(&steps, scenario);
        let dp = chain.dp_optimum(scenario, Some(&pools));
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
        let dp = chain.dp_optimum(scenario, None);
        let exhaustive = crate::solve_exhaustive(&p, scenario);
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
#[test]
fn dp_quantifies_a_positive_lookahead_gap_on_the_churn_fixture() {
    let chain = fixtures::churn_chain(4);
    let scenario = Scenario::tradeoff(0.02);
    let steps = chain.solve(scenario);
    let (chain_viol, chain_obj) = chain_totals(&steps, scenario);
    let dp = chain.dp_optimum(scenario, None);
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
    let chain_cost = horizon_cost(&steps);
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
    chain.dp_optimum(Scenario::tradeoff_normalized(0.5), None);
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
    let dp = chain.dp_optimum(scenario, Some(&pools));
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
    assert_eq!(
        horizon_cost(&steps) - dp.total_cost(),
        Money::from_dollars_str("2.64").unwrap()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A horizon of identical epochs (zero drift) reproduces the
    /// single-period solve bit for bit, per epoch. With no drift the
    /// chain's epoch 0 *is* the single-period problem. Every later epoch
    /// carries the standing selection — its materialization sunk — and
    /// hour rounding makes the marginal cost of any move at least what
    /// it was in the single-period problem (`ceil(a+b) − ceil(a) ≤
    /// ceil(b)`), so the selection is still a local optimum and must
    /// not move; its `full_price` reference, through an evaluator
    /// retargeted and charge-spliced at every boundary, must equal the
    /// single-period evaluation. The warm chain must also equal the
    /// rebuild-per-epoch reference. MV1 is excluded: under a budget the
    /// carried discount frees headroom (see the parent module's docs).
    #[test]
    fn zero_drift_horizon_reproduces_the_single_period_solve(
        seed in 0u64..10_000,
        n_queries in 2usize..6,
        n_candidates in 3usize..9,
        epochs in 2usize..6,
        kind in 0u8..2,
        knob in 0.0f64..1.0,
    ) {
        let p = fixtures::random_problem(seed, n_queries, n_candidates);
        let baseline = p.baseline();
        let scenario = match kind {
            0 => Scenario::time_limit(Hours::new(
                baseline.time.value() * (0.05 + 0.9 * knob),
            )),
            _ => Scenario::tradeoff_normalized(knob),
        };
        // Both sides run the default move budget, which on these pools
        // reaches a true local optimum (a budget-truncated epoch would
        // let later epochs "continue" the search and drift legitimately).
        let solo = crate::solve_local_search(&p, scenario);
        let chain = EpochChain::new(vec![p.model().clone(); epochs], p.candidates().to_vec());
        let spec = ChainSpec::default();
        let steps = chain.solve_with(scenario, &spec).remove(0);
        prop_assert_eq!(steps.len(), epochs);

        // Epoch 0 is the single-period solve, bit for bit.
        prop_assert_eq!(&steps[0].outcome.evaluation, &solo.evaluation);
        prop_assert_eq!(&steps[0].outcome.baseline, &solo.baseline);

        for (e, step) in steps.iter().enumerate() {
            // The selection never moves with zero drift…
            prop_assert_eq!(
                step.selection(),
                &solo.evaluation.selection,
                "epoch {} selection drifted",
                e
            );
            // …and re-pricing it at full price through the warm-started
            // evaluator reproduces the single-period evaluation exactly.
            prop_assert_eq!(&step.full_price, &solo.evaluation, "epoch {}", e);
            if e > 0 {
                prop_assert!(step.added.is_empty(), "epoch {} added views", e);
                prop_assert!(step.dropped.is_empty(), "epoch {} dropped views", e);
                // Carried epochs never bill materialization.
                prop_assert_eq!(
                    step.outcome.evaluation.breakdown.compute_materialization,
                    Money::ZERO
                );
            }
        }

        // The warm-started chain and the rebuild-per-epoch reference
        // are the same algorithm: bit-identical steps.
        let rebuilt = chain.rebuild_per_epoch(scenario, &spec);
        for (e, (w, r)) in steps.iter().zip(&rebuilt).enumerate() {
            prop_assert_eq!(&w.outcome.evaluation, &r.outcome.evaluation, "epoch {}", e);
            prop_assert_eq!(&w.full_price, &r.full_price, "epoch {}", e);
        }
    }
}
