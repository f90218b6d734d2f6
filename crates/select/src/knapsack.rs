//! The paper's solver: 0/1 knapsack by dynamic programming (Section 5.2).
//!
//! The paper feeds per-view cost/benefit parameters into a knapsack and
//! solves it by dynamic programming. A knapsack needs *additive* items, so
//! each candidate is linearized to the `(time saved, cost delta)` of adding
//! it alone (see [`SelectionProblem::linearized_deltas`]); query overlap
//! between views makes the sum of deltas optimistic. Two deviations from a
//! textbook knapsack are therefore required for correctness:
//!
//! 1. **Dominant pre-selection** — views whose cost delta is ≤ 0 only relax
//!    the budget (their time saving is never negative), so they are
//!    selected before the DP runs and the capacity is adjusted;
//! 2. **Repair** — after the DP, the chosen set is re-evaluated under the
//!    true interaction model; while the true constraint is violated, the
//!    selected view with the worst benefit density is dropped. A final
//!    greedy top-up re-adds any view that still improves the objective
//!    within the constraint.
//!
//! Scaling: cost deltas are discretised to whole cents and time savings to
//! 0.36-second units (10⁻⁴ h); both resolutions are far below anything the
//! paper's inputs distinguish.

use mv_cost::SelectionSet;
use mv_units::{Hours, Money};

use crate::evaluator::Floors;
use crate::{IncrementalEvaluator, Outcome, Scenario, SelectionProblem, SolverKind};

/// Hours per value unit in both DPs.
const TIME_UNIT_HOURS: f64 = 1e-4;
/// Capacity ceiling: DP tables beyond this are summarily truncated (the
/// repair pass still guarantees a valid answer).
const MAX_TABLE: usize = 4_000_000;

fn to_cents(m: Money) -> i128 {
    m.micros() / 10_000
}

fn time_units(t: Hours) -> u64 {
    (t.value() / TIME_UNIT_HOURS).round() as u64
}

/// Solves `scenario` with the paper's knapsack formulation.
pub fn solve_knapsack(problem: &SelectionProblem, scenario: Scenario) -> Outcome {
    let baseline = problem.baseline();
    let deltas = problem.linearized_deltas();
    let n = problem.len();

    let mut selection = SelectionSet::empty(n);
    match scenario {
        Scenario::Mv1 { budget } => {
            // Pre-select cost-reducing views.
            for (k, (_, dcost)) in deltas.iter().enumerate() {
                if *dcost <= Money::ZERO {
                    selection.set(k, true);
                }
            }
            // DP over the rest.
            let pre_cost = problem.evaluate(&selection).cost();
            let capacity_cents = to_cents(budget - pre_cost).max(0);
            let items: Vec<(usize, u64, i128)> = deltas
                .iter()
                .enumerate()
                .filter(|(k, (_, dcost))| !selection.contains(*k) && *dcost > Money::ZERO)
                .map(|(k, (saved, dcost))| (k, time_units(*saved), to_cents(*dcost).max(1)))
                .collect();
            for k in dp_max_value(&items, capacity_cents) {
                selection.set(k, true);
            }
        }
        Scenario::Mv2 { time_limit } => {
            let need = baseline.time.saturating_sub(time_limit);
            let items: Vec<(usize, u64, i128)> = deltas
                .iter()
                .enumerate()
                .map(|(k, (saved, dcost))| (k, time_units(*saved), to_cents(*dcost)))
                .collect();
            for k in dp_min_cost(&items, time_units(need)) {
                selection.set(k, true);
            }
        }
        Scenario::Mv3 { alpha, normalize } => {
            // Linearized weighted deltas: include iff the weighted delta is
            // negative.
            let (t0, c0) = if normalize {
                (
                    baseline.time.value().max(f64::MIN_POSITIVE),
                    baseline
                        .cost()
                        .to_dollars_f64()
                        .abs()
                        .max(f64::MIN_POSITIVE),
                )
            } else {
                (1.0, 1.0)
            };
            for (k, (saved, dcost)) in deltas.iter().enumerate() {
                let w = alpha * (-saved.value()) / t0 + (1.0 - alpha) * dcost.to_dollars_f64() / c0;
                if w < 0.0 {
                    selection.set(k, true);
                }
            }
        }
    }

    // Repair against the true evaluation.
    repair(problem, scenario, &mut selection);
    let mut evaluation = problem.evaluate(&selection);
    // "Materialize nothing" is always available: never return worse.
    if scenario.better(&baseline, &evaluation, &baseline) {
        evaluation = baseline.clone();
    }
    Outcome::new(evaluation, baseline, scenario, SolverKind::PaperKnapsack)
}

/// Classic maximize-value DP: items are `(id, value, weight>0)`, capacity
/// in the same weight units. Returns the chosen ids.
fn dp_max_value(items: &[(usize, u64, i128)], capacity: i128) -> Vec<usize> {
    if capacity <= 0 || items.is_empty() {
        return Vec::new();
    }
    let cap = (capacity as usize).min(MAX_TABLE);
    // dp[w] = best value with weight ≤ w; keep[i][w] records choices.
    let mut dp = vec![0u64; cap + 1];
    let mut keep = vec![false; items.len() * (cap + 1)];
    for (i, (_, value, weight)) in items.iter().enumerate() {
        let w_item = (*weight).min(i128::from(u32::MAX)) as usize;
        if w_item > cap {
            continue;
        }
        for w in (w_item..=cap).rev() {
            let candidate = dp[w - w_item] + value;
            if candidate > dp[w] {
                dp[w] = candidate;
                keep[i * (cap + 1) + w] = true;
            }
        }
    }
    // Walk back.
    let mut chosen = Vec::new();
    let mut w = cap;
    for i in (0..items.len()).rev() {
        if keep[i * (cap + 1) + w] {
            chosen.push(items[i].0);
            w -= items[i].2 as usize;
        }
    }
    chosen
}

/// Dual DP: minimize total weight (cost cents, possibly negative) subject
/// to total value (time units) ≥ `target`. Items are `(id, value,
/// weight)`. Returns the chosen ids.
fn dp_min_cost(items: &[(usize, u64, i128)], target: u64) -> Vec<usize> {
    if target == 0 {
        // Constraint already satisfied: take every cost-reducing item.
        return items
            .iter()
            .filter(|(_, _, w)| *w < 0)
            .map(|(id, _, _)| *id)
            .collect();
    }
    let t = (target as usize).min(MAX_TABLE);
    const INF: i128 = i128::MAX / 4;
    // dp[s] = min cost achieving saving ≥ s (s capped at t).
    let mut dp = vec![INF; t + 1];
    dp[0] = 0;
    let mut keep = vec![false; items.len() * (t + 1)];
    for (i, (_, value, weight)) in items.iter().enumerate() {
        let v = (*value as usize).min(t);
        for s in (0..=t).rev() {
            let from = s.saturating_sub(v);
            if dp[from] < INF {
                let candidate = dp[from] + weight;
                if candidate < dp[s] {
                    dp[s] = candidate;
                    keep[i * (t + 1) + s] = true;
                }
            }
        }
    }
    if dp[t] >= INF {
        // Even all items cannot reach the target; select everything with a
        // positive saving and let the repair pass sort it out.
        return items
            .iter()
            .filter(|(_, v, _)| *v > 0)
            .map(|(id, _, _)| *id)
            .collect();
    }
    let mut chosen = Vec::new();
    let mut s = t;
    for i in (0..items.len()).rev() {
        if keep[i * (t + 1) + s] {
            chosen.push(items[i].0);
            s = s.saturating_sub((items[i].1 as usize).min(t));
        }
    }
    chosen
}

/// Repairs a linearized solution against the true evaluation with
/// single-bit local search:
///
/// 1. while the true constraint is violated, apply the single flip (on or
///    off) that most reduces the violation — under MV1 that usually sheds
///    storage-heavy views, under MV2 it *adds* time-saving ones;
/// 2. hill-climb on the true scenario ordering with both flip directions
///    until a local optimum.
///
/// Each accepted move strictly improves the `(feasible, violation,
/// objective)` ordering over a finite space, so the search terminates; a
/// defensive iteration cap bounds it regardless. All probes run through
/// the [`IncrementalEvaluator`], so a repair round costs O(n·(n + m))
/// instead of O(n²·m); phase 2 rules out dominated flips (the
/// evaluator's *Dominated toggles*) and scores exactly only the others
/// whose bound could beat the best so far (*Bounded probes*).
fn repair(problem: &SelectionProblem, scenario: Scenario, selection: &mut SelectionSet) {
    let baseline = problem.baseline();
    let n = selection.len();
    let max_moves = 4 * n + 8;
    let mut ev = IncrementalEvaluator::with_selection(problem, selection);

    // Phase 1: restore feasibility.
    for _ in 0..max_moves {
        let current = ev.score();
        if scenario.feasible(&current) {
            break;
        }
        let violation = scenario.violation(&current);
        let mut best: Option<(usize, f64)> = None;
        for k in 0..n {
            let v = scenario.violation(&ev.probe(k));
            if v < violation && best.is_none_or(|(_, bv)| v < bv) {
                best = Some((k, v));
            }
        }
        match best {
            Some((k, _)) => ev.toggle(k),
            None => break, // no flip reduces the violation
        }
    }

    // Phase 2: hill-climb the true objective within feasibility.
    let mut floors = Floors::default();
    for _ in 0..max_moves {
        let mut to_beat = scenario.rank(&ev.score(), &baseline);
        let mut best_flip = None;
        for k in 0..n {
            // `to_beat` starts at the standing rank and only falls.
            if let Some((_, rank)) =
                ev.probe_unless_dominated(k, scenario, &baseline, to_beat, &mut floors)
            {
                to_beat = rank;
                best_flip = Some(k);
            }
        }
        match best_flip {
            Some(k) => ev.toggle(k),
            None => break,
        }
    }

    *selection = ev.selection().clone();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::solve_exhaustive;
    use crate::fixtures::{paper_like_problem, random_problem};

    #[test]
    fn respects_budget_constraint() {
        let p = paper_like_problem();
        let base_cost = p.baseline().cost();
        for extra_cents in [5i64, 20, 100, 1_000] {
            let budget = base_cost + Money::from_cents(extra_cents);
            let o = solve_knapsack(&p, Scenario::budget(budget));
            assert!(o.feasible(), "budget +{extra_cents}c");
            assert!(o.evaluation.cost() <= budget);
        }
    }

    #[test]
    fn respects_time_constraint_when_reachable() {
        let p = paper_like_problem();
        let fastest = p.evaluate(&SelectionSet::full(p.len())).time;
        let limit = Hours::new(fastest.value() * 1.5);
        let o = solve_knapsack(&p, Scenario::time_limit(limit));
        assert!(o.feasible());
        assert!(o.evaluation.time <= limit);
    }

    #[test]
    fn matches_exhaustive_on_paper_like_problem() {
        let p = paper_like_problem();
        let base_cost = p.baseline().cost();
        let scenarios = [
            Scenario::budget(base_cost + Money::from_cents(50)),
            Scenario::time_limit(Hours::new(0.2)),
            Scenario::tradeoff(0.3),
            Scenario::tradeoff(0.7),
            Scenario::tradeoff_normalized(0.5),
        ];
        for s in scenarios {
            let k = solve_knapsack(&p, s);
            let x = solve_exhaustive(&p, s);
            // The knapsack must be feasible whenever the optimum is, and
            // within 10% of the optimal objective (linearization slack).
            assert_eq!(k.feasible(), x.feasible(), "{s:?}");
            if x.feasible() {
                let (ko, xo) = (k.objective(), x.objective());
                assert!(
                    ko <= xo * 1.10 + 1e-9,
                    "{s:?}: knapsack {ko} vs exhaustive {xo}"
                );
            }
        }
    }

    #[test]
    fn never_worse_than_baseline_for_mv3() {
        for seed in 0..20 {
            let p = random_problem(seed, 4, 6);
            let o = solve_knapsack(&p, Scenario::tradeoff_normalized(0.5));
            let base_obj = o.scenario.objective(&o.baseline, &o.baseline);
            assert!(
                o.objective() <= base_obj + 1e-9,
                "seed {seed}: {} > {base_obj}",
                o.objective()
            );
        }
    }

    #[test]
    fn dp_max_value_basics() {
        // Two items, capacity fits only the denser one.
        let items = vec![(0usize, 10u64, 5i128), (1usize, 7u64, 3i128)];
        assert_eq!(dp_max_value(&items, 4), vec![1]);
        assert_eq!(dp_max_value(&items, 8), vec![1, 0]);
        assert!(dp_max_value(&items, 0).is_empty());
        assert!(dp_max_value(&[], 10).is_empty());
    }

    #[test]
    fn dp_min_cost_basics() {
        // Reach saving 10 at min cost: item1 (save 10, cost 7) vs
        // items 0+2 (save 6+4, cost 3+3=6).
        let items = vec![
            (0usize, 6u64, 3i128),
            (1usize, 10u64, 7i128),
            (2usize, 4u64, 3i128),
        ];
        let mut chosen = dp_min_cost(&items, 10);
        chosen.sort();
        assert_eq!(chosen, vec![0, 2]);
        // Unreachable target falls back to all useful items.
        let mut all = dp_min_cost(&items, 1_000);
        all.sort();
        assert_eq!(all, vec![0, 1, 2]);
        // Zero target returns only cost-negative items (none here).
        assert!(dp_min_cost(&items, 0).is_empty());
    }
}
