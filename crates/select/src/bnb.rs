//! Depth-first branch-and-bound with admissible bounds.
//!
//! Explores the selection tree view-by-view. At each node, two *optimistic*
//! completions bound what the subtree can still achieve:
//!
//! * **time bound** — processing time if every undecided view were
//!   materialized for free (adding views only lowers per-query times);
//! * **cost bound** — transfer (constant) + storage and
//!   maintenance/materialization of only the decided-in views (undecided
//!   views can only add) + processing compute at the time bound.
//!
//! Both are true lower bounds, so pruning on them preserves optimality:
//! on every tested instance the result matches exhaustive search, at a
//! fraction of the node count.
//!
//! The time bound is maintained by an [`IncrementalEvaluator`] positioned
//! at the "all undecided views included" completion: branching *exclude*
//! at depth `d` is one `unflip(d)` (O(m)) and backtracking one `flip(d)`,
//! replacing the per-node O(n·m) re-evaluation and two selection clones
//! of the previous implementation. Bound values are bit-identical to the
//! old ones, so pruning decisions — and therefore outcomes — match.

use mv_cost::SelectionSet;

use crate::{Evaluation, IncrementalEvaluator, Outcome, Scenario, SelectionProblem, SolverKind};

/// Solves `scenario` by branch-and-bound. Returns the same selection as
/// exhaustive search (property-tested), pruning with admissible bounds.
pub(crate) fn solve_bnb(problem: &SelectionProblem, scenario: Scenario) -> Outcome {
    solve_bnb_counted(problem, scenario).0
}

/// Node counters of one [`solve_bnb_counted`] search (the pruning test
/// reads them).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct BnbStats {
    /// Nodes visited.
    pub visited: u64,
    /// Subtrees pruned by bounds.
    pub pruned: u64,
}

/// [`solve_bnb`] variant that also reports node counters.
pub(crate) fn solve_bnb_counted(
    problem: &SelectionProblem,
    scenario: Scenario,
) -> (Outcome, BnbStats) {
    let baseline = problem.baseline();
    // Seed the incumbent greedily for effective early pruning; the empty
    // selection may beat greedy under weird scenarios.
    let mut incumbent = crate::greedy::solve_greedy(problem, scenario).evaluation;
    if scenario.better(&baseline, &incumbent, &baseline) {
        incumbent = baseline.clone();
    }

    let mut search = Search {
        problem,
        scenario,
        baseline: &baseline,
        decided: SelectionSet::empty(problem.len()),
        optimistic: IncrementalEvaluator::with_selection(
            problem,
            &SelectionSet::full(problem.len()),
        ),
        stats: BnbStats::default(),
    };
    search.descend(0, &mut incumbent);
    let stats = search.stats;
    (
        Outcome::new(incumbent, baseline, scenario, SolverKind::BranchAndBound),
        stats,
    )
}

/// DFS state: the decided prefix (suffix all off) and the optimistic
/// completion (same prefix, suffix all on).
struct Search<'p, 'b> {
    problem: &'p SelectionProblem,
    scenario: Scenario,
    baseline: &'b Evaluation,
    decided: SelectionSet,
    optimistic: IncrementalEvaluator<'p>,
    stats: BnbStats,
}

impl Search<'_, '_> {
    fn descend(&mut self, depth: usize, incumbent: &mut Evaluation) {
        self.stats.visited += 1;
        if depth == self.problem.len() {
            // Fully decided: the optimistic completion *is* the selection.
            let e = self.optimistic.score();
            if self.scenario.better(&e, incumbent, self.baseline) {
                *incumbent = e.with_selection(self.optimistic.selection().clone());
            }
            return;
        }

        if self.prune(depth, incumbent) {
            self.stats.pruned += 1;
            return;
        }

        // Branch: include first (views usually help), then exclude.
        self.decided.set(depth, true);
        self.descend(depth + 1, incumbent);
        self.decided.set(depth, false);
        self.optimistic.unflip(depth);
        self.descend(depth + 1, incumbent);
        self.optimistic.flip(depth);
    }

    /// `true` when the subtree rooted at `depth` cannot beat the incumbent.
    fn prune(&mut self, _depth: usize, incumbent: &Evaluation) -> bool {
        let problem = self.problem;
        let scenario = self.scenario;
        let model = problem.model();
        let candidates = problem.candidates();

        // Optimistic completion: all undecided views included (min time)...
        let min_time = self.optimistic.processing_time();

        // ...but only decided-in views pay storage/build/refresh (min cost).
        let min_cost = model
            .breakdown_from_totals(
                min_time,
                model.maintenance_time(candidates, &self.decided),
                model.materialization_time(candidates, &self.decided),
                model.views_size(candidates, &self.decided),
            )
            .total();

        let incumbent_feasible = scenario.feasible(incumbent);
        match scenario {
            Scenario::Mv1 { budget } => {
                // Infeasible whole subtree.
                if incumbent_feasible && min_cost > budget {
                    return true;
                }
                // Cannot beat the incumbent's time.
                incumbent_feasible && min_time >= incumbent.time
            }
            Scenario::Mv2 { time_limit } => {
                if incumbent_feasible && min_time > time_limit {
                    return true;
                }
                incumbent_feasible && min_cost >= incumbent.cost()
            }
            Scenario::Mv3 { alpha, normalize } => {
                let (t0, c0) = if normalize {
                    (
                        self.baseline.time.value().max(f64::MIN_POSITIVE),
                        self.baseline
                            .cost()
                            .to_dollars_f64()
                            .abs()
                            .max(f64::MIN_POSITIVE),
                    )
                } else {
                    (1.0, 1.0)
                };
                let bound =
                    alpha * min_time.value() / t0 + (1.0 - alpha) * min_cost.to_dollars_f64() / c0;
                let incumbent_obj = scenario.objective(incumbent, self.baseline);
                bound >= incumbent_obj
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::solve_exhaustive;
    use crate::fixtures::{paper_like_problem, random_problem};
    use mv_units::{Hours, Money};

    #[test]
    fn matches_exhaustive_on_paper_like_problem() {
        let p = paper_like_problem();
        let base_cost = p.baseline().cost();
        let scenarios = [
            Scenario::budget(base_cost + Money::from_cents(50)),
            Scenario::budget(base_cost - Money::from_cents(10)),
            Scenario::time_limit(Hours::new(0.1)),
            Scenario::time_limit(Hours::new(0.6)),
            Scenario::tradeoff(0.3),
            Scenario::tradeoff_normalized(0.65),
        ];
        for s in scenarios {
            let b = solve_bnb(&p, s);
            let x = solve_exhaustive(&p, s);
            assert_eq!(b.feasible(), x.feasible(), "{s:?}");
            assert!(
                (b.objective() - x.objective()).abs() < 1e-9,
                "{s:?}: bnb {} vs exhaustive {}",
                b.objective(),
                x.objective()
            );
        }
    }

    #[test]
    fn matches_exhaustive_on_random_instances() {
        for seed in 0..12 {
            let p = random_problem(seed, 3, 6);
            for s in [
                Scenario::budget(p.baseline().cost() + Money::from_cents(30)),
                Scenario::time_limit(Hours::new(0.3)),
                Scenario::tradeoff_normalized(0.5),
            ] {
                let b = solve_bnb(&p, s);
                let x = solve_exhaustive(&p, s);
                assert!(
                    (b.objective() - x.objective()).abs() < 1e-9,
                    "seed {seed} {s:?}: {} vs {}",
                    b.objective(),
                    x.objective()
                );
            }
        }
    }

    #[test]
    fn pruning_actually_happens() {
        let p = random_problem(3, 4, 10);
        let (o, stats) = solve_bnb_counted(&p, Scenario::tradeoff_normalized(0.5));
        assert!(o.feasible());
        assert!(stats.visited < (1u64 << 11), "visited {}", stats.visited);
        assert!(stats.pruned > 0);
    }
}
