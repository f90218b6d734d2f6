//! Exhaustive subset enumeration — the ground-truth solver.
//!
//! The paper's experiment has ≤ 16 candidates (65 536 subsets), so exact
//! enumeration is cheap; the repository uses it to validate every other
//! solver on every experiment instance.
//!
//! Subsets are visited in ascending mask order with an
//! [`IncrementalEvaluator`]: stepping from mask to mask+1 flips the run
//! of trailing set bits off and the next bit on — amortized two flips
//! per subset — so the sweep costs O(2ⁿ·m) instead of O(2ⁿ·n·m). Above
//! [`PARALLEL_THRESHOLD`] candidates the mask range is split into
//! contiguous chunks swept by one thread each (its own evaluator), and
//! the per-chunk winners are merged in ascending chunk order, which
//! preserves the serial sweep's first-wins tie-breaking exactly.

use mv_cost::SelectionSet;

use crate::sweep;
use crate::{Outcome, Scenario, Score, SelectionProblem, SolverKind};

/// Maximum candidate count accepted (2^24 evaluations ≈ seconds).
pub const MAX_CANDIDATES: usize = 24;

/// Candidate count above which the sweep fans out across threads
/// (2^14 = 16 384 subsets; below that thread setup dominates).
pub(crate) const PARALLEL_THRESHOLD: usize = 14;

/// Evaluates every subset and returns the scenario-best one, choosing a
/// thread count automatically.
///
/// # Panics
/// Panics if the problem has more than [`MAX_CANDIDATES`] candidates.
pub(crate) fn solve_exhaustive(problem: &SelectionProblem, scenario: Scenario) -> Outcome {
    solve_exhaustive_with_threads(problem, scenario, sweep::auto_threads(problem.len()))
}

/// Exhaustive enumeration ([`crate::SolverKind::Exhaustive`]) with an
/// explicit thread count (1 = serial); the solver picks one from the
/// pool size, fanning out above a fixed size. The result is identical
/// for every thread count.
pub fn solve_exhaustive_with_threads(
    problem: &SelectionProblem,
    scenario: Scenario,
    threads: usize,
) -> Outcome {
    let n = problem.len();
    assert!(
        n <= MAX_CANDIDATES,
        "exhaustive search over {n} candidates would enumerate 2^{n} subsets"
    );
    let baseline = problem.baseline();
    let total: u64 = 1u64 << n;
    let threads = threads.max(1).min(total.max(1) as usize);

    let chunk_bests = sweep::chunked(total, threads, |lo, hi| {
        // Mask 0 is the baseline, folded in below; every other mask
        // competes. Ties keep the lower mask.
        let mut best: Option<(u64, Score)> = None;
        sweep::sweep_masks(problem, lo, hi, |mask, ev| {
            if mask == 0 {
                return;
            }
            let e = ev.score();
            if best
                .as_ref()
                .is_none_or(|(_, cur)| scenario.better(&e, cur, &baseline))
            {
                best = Some((mask, e));
            }
        });
        best
    });
    // Ascending-chunk merge keeps the lowest-mask winner among ties,
    // exactly like a serial sweep.
    let mut best: Option<(u64, Score)> = None;
    for candidate in chunk_bests.into_iter().flatten() {
        if best
            .as_ref()
            .is_none_or(|(_, cur)| scenario.better(&candidate.1, cur, &baseline))
        {
            best = Some(candidate);
        }
    }

    // Mask 0 (the baseline) is always part of the space.
    let chosen = match best {
        Some((mask, e)) if scenario.better(&e, &baseline, &baseline) => {
            e.with_selection(SelectionSet::from_mask(mask, n))
        }
        _ => baseline.clone(),
    };
    Outcome::new(chosen, baseline, scenario, SolverKind::Exhaustive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_like_problem, random_problem};
    use mv_units::{Hours, Money};

    #[test]
    fn unlimited_budget_minimizes_time() {
        let p = paper_like_problem();
        let o = solve_exhaustive(&p, Scenario::budget(Money::from_dollars(10_000)));
        // With an unlimited budget the fastest selection must reach the
        // best per-query times available.
        let all = p.evaluate(&SelectionSet::full(p.len()));
        assert_eq!(o.evaluation.time, all.time);
        assert!(o.feasible());
    }

    #[test]
    fn zero_budget_reports_infeasible_or_cheapest() {
        let p = paper_like_problem();
        let o = solve_exhaustive(&p, Scenario::budget(Money::from_cents(1)));
        // Nothing satisfies a 1-cent budget; the solver returns the
        // least-violating selection and flags infeasibility.
        assert!(!o.feasible());
    }

    #[test]
    fn loose_time_limit_minimizes_cost() {
        let p = paper_like_problem();
        let o = solve_exhaustive(&p, Scenario::time_limit(Hours::new(1_000.0)));
        assert!(o.feasible());
        // Cost can only be <= every other subset's cost; spot-check two.
        let base = p.baseline();
        assert!(o.evaluation.cost() <= base.cost());
        let all = p.evaluate(&SelectionSet::full(p.len()));
        assert!(o.evaluation.cost() <= all.cost());
    }

    #[test]
    fn tradeoff_alpha_extremes() {
        let p = paper_like_problem();
        // alpha = 1: pure time minimization (normalized).
        let o_time = solve_exhaustive(&p, Scenario::tradeoff_normalized(1.0));
        let best_time = p.evaluate(&SelectionSet::full(p.len())).time;
        assert_eq!(o_time.evaluation.time, best_time);
        // alpha = 0: pure cost minimization.
        let o_cost = solve_exhaustive(&p, Scenario::tradeoff_normalized(0.0));
        let o_mv2 = solve_exhaustive(&p, Scenario::time_limit(Hours::new(1e6)));
        assert_eq!(o_cost.evaluation.cost(), o_mv2.evaluation.cost());
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        for seed in 0..6 {
            let p = random_problem(seed, 4, 9);
            for s in [
                Scenario::budget(p.baseline().cost() + Money::from_cents(40)),
                Scenario::time_limit(Hours::new(0.3)),
                Scenario::tradeoff_normalized(0.5),
            ] {
                let serial = solve_exhaustive_with_threads(&p, s, 1);
                for threads in [2, 3, 8] {
                    let par = solve_exhaustive_with_threads(&p, s, threads);
                    assert_eq!(
                        serial.evaluation, par.evaluation,
                        "seed {seed} {s:?} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exhaustive search")]
    fn too_many_candidates_panics() {
        let p = crate::fixtures::random_problem(1, 2, 25);
        solve_exhaustive(&p, Scenario::tradeoff(0.5));
    }
}
