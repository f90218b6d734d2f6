//! Greedy hill-climbing baseline.
//!
//! Starts from the empty selection and repeatedly flips on the single view
//! that most improves the scenario ordering, stopping at a local optimum.
//! Classic view-selection greedy (HRU-style) adapted to the paper's
//! monetary objectives; used as a baseline in the solver ablation.
//!
//! Each candidate flip is read off the [`IncrementalEvaluator`]
//! instead of a full O(m + Σ deg) re-evaluation: priced from below in
//! O(deg) plus its charge fold, and probed exactly
//! ([`IncrementalEvaluator::probe`], the evaluator's *Probes* section)
//! only if it could beat the best flip so far (*Bounded probes*). The
//! loop itself is
//! [`crate::local_search::fill_from`], shared with the local-search
//! fill and the LNS repair.

use crate::local_search::fill_from;
use crate::{IncrementalEvaluator, Outcome, Scenario, SelectionProblem, SolverKind};

/// Solves `scenario` by add-only greedy search.
pub fn solve_greedy(problem: &SelectionProblem, scenario: Scenario) -> Outcome {
    let baseline = problem.baseline();
    let mut ev = IncrementalEvaluator::new(problem);
    let current = fill_from(
        &mut ev,
        scenario,
        &baseline,
        baseline.score(),
        0..problem.len(),
    );
    let chosen = current.with_selection(ev.selection().clone());
    Outcome::new(chosen, baseline, scenario, SolverKind::Greedy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::solve_exhaustive;
    use crate::fixtures::{paper_like_problem, random_problem};
    use mv_units::{Hours, Money};

    #[test]
    fn greedy_is_feasible_when_possible() {
        let p = paper_like_problem();
        let base = p.baseline();
        let o = solve_greedy(&p, Scenario::budget(base.cost() + Money::from_dollars(1)));
        assert!(o.feasible());
        assert!(o.evaluation.time <= base.time);
    }

    #[test]
    fn greedy_never_worse_than_empty() {
        for seed in 0..20 {
            let p = random_problem(seed, 3, 5);
            let s = Scenario::tradeoff_normalized(0.4);
            let o = solve_greedy(&p, s);
            let base_obj = s.objective(&o.baseline, &o.baseline);
            assert!(o.objective() <= base_obj + 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn greedy_close_to_exhaustive_on_small_instances() {
        let mut within_5pct = 0;
        let total = 15;
        for seed in 0..total {
            let p = random_problem(seed + 100, 3, 5);
            let s = Scenario::time_limit(Hours::new(0.5));
            let g = solve_greedy(&p, s);
            let x = solve_exhaustive(&p, s);
            if !x.feasible() || g.objective() <= x.objective() * 1.05 + 1e-9 {
                within_5pct += 1;
            }
        }
        // Greedy is a heuristic; demand near-optimality on most instances.
        assert!(within_5pct >= total - 3, "only {within_5pct}/{total}");
    }

    #[test]
    fn greedy_reported_evaluation_is_consistent() {
        // The outcome's evaluation must be reproducible by a full
        // re-evaluation of its selection (guards the incremental path).
        for seed in 0..10 {
            let p = random_problem(seed + 300, 4, 7);
            let o = solve_greedy(&p, Scenario::tradeoff_normalized(0.5));
            assert_eq!(
                o.evaluation,
                p.evaluate(&o.evaluation.selection),
                "seed {seed}"
            );
        }
    }
}
