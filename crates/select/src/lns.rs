//! Large-neighborhood search: destroy-and-repair over the incremental
//! evaluator.
//!
//! Flip/swap local search ([`crate::local_search`]) probes an O(n²)
//! swap neighborhood per round — fine at the paper's n = 20, hopeless
//! at n = 2 000. LNS trades the exhaustive neighborhood for *structured
//! perturbation*: each round deselects a slice of the incumbent (the
//! destroy set), then greedily refills from a benefit-ranked shortlist
//! (the repair), accepting the round only when it strictly improves the
//! scenario ordering. Destroy sets alternate between **random** (escape
//! direction diversity) and **worst-charge** (evict the views paying
//! the most materialization/maintenance/storage — the slots most likely
//! misallocated). Every probe rides the evaluator's O(deg) flips, so a
//! round costs O(shortlist² · (n + m)) instead of the full-neighborhood
//! O(n² · (n + m)).
//!
//! When [`LnsConfig::polish_moves`] is nonzero, the search *starts*
//! from a full [`local_search::improve`] pass with that budget, making
//! [`solve_lns`] never worse than [`crate::solve_local_search`] under
//! the same scenario by construction (rounds only ever replace the
//! incumbent with strictly better evaluations, and a rejected round is
//! rolled back flip-for-flip). The regression pin lives in
//! `tests/lns_never_worse.rs`.

use mv_cost::SelectionSet;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::local_search::{self, default_move_budget};
use crate::{Evaluation, IncrementalEvaluator, Outcome, Scenario, SelectionProblem, SolverKind};

/// Fraction of the selected views each destroy set evicts (at least
/// one).
const DESTROY_FRACTION: f64 = 0.3;

/// Tuning knobs for [`solve_lns_with`] / [`refine`].
#[derive(Debug, Clone)]
pub struct LnsConfig {
    /// Destroy-and-repair rounds to run.
    pub rounds: usize,
    /// Unselected candidates the repair pass considers, ranked by
    /// standalone benefit (`0` = all of them — exact repair, large-n
    /// hostile).
    pub shortlist: usize,
    /// Budget for the flip/swap improvement pass run *before* the
    /// rounds; `0` skips it. With at least [`default_move_budget`]
    /// moves, the final result is never worse than
    /// [`crate::solve_local_search`]'s.
    pub polish_moves: usize,
    /// Seed for the random destroy sets (deterministic search).
    pub seed: u64,
}

impl LnsConfig {
    /// Defaults scaled to `n` candidates: small pools keep the full
    /// polish pass (and with it the never-worse-than-local-search
    /// guarantee); large pools skip the O(n²) swap neighborhood and
    /// lean on the rounds alone.
    pub fn for_problem(n: usize) -> Self {
        LnsConfig {
            rounds: 12,
            shortlist: 64,
            polish_moves: if n <= 256 { default_move_budget(n) } else { 0 },
            seed: 0x6d_7663_6c6f_7564,
        }
    }
}

/// Standalone benefit score of each candidate: frequency-weighted hours
/// it would shave off the workload if it were the only selected view.
/// Interactions make this optimistic, but it ranks repair shortlists
/// well — and it is selection-independent, so it is computed once per
/// search. (`+ 0.0` folds a `-0.0` sum into `+0.0`, so `total_cmp`
/// ranks exactly as the numeric comparison does.)
fn standalone_gains(problem: &SelectionProblem) -> Vec<f64> {
    let workload = &problem.model().context().workload;
    problem
        .candidates()
        .iter()
        .map(|c| {
            let gain: f64 = c
                .profile
                .entries()
                .map(|(i, t)| {
                    let q = &workload[i];
                    (q.base_time.value() - t.value()).max(0.0) * q.frequency
                })
                .sum();
            gain + 0.0
        })
        .collect()
}

/// Every candidate, highest standalone gain first (ties by index): the
/// order repair shortlists are cut from. Selection-independent, so one
/// sort serves the initial fill and every round of a solve.
fn gain_order(problem: &SelectionProblem) -> Vec<usize> {
    let gains = standalone_gains(problem);
    let mut order: Vec<usize> = (0..problem.len()).collect();
    order.sort_by(|&a, &b| gains[b].total_cmp(&gains[a]).then(a.cmp(&b)));
    order
}

/// The `shortlist` highest-gain candidates `eligible` admits, in gain
/// order — or, when the shortlist is off (`0`) or would not cut
/// anything (`available` candidates are eligible), all of them in
/// index order.
fn shortlisted(
    order: &[usize],
    shortlist: usize,
    available: usize,
    eligible: impl Fn(usize) -> bool,
) -> Vec<usize> {
    if shortlist > 0 && available > shortlist {
        let by_gain = order.iter().copied().filter(|&k| eligible(k));
        by_gain.take(shortlist).collect()
    } else {
        (0..order.len()).filter(|&k| eligible(k)).collect()
    }
}

/// Charge weight of a candidate: the cost-side hours and bytes keeping
/// it selected burns per period. The worst-charge destroy set evicts
/// the heaviest.
fn charge_weight(problem: &SelectionProblem, k: usize) -> f64 {
    let c = &problem.candidates()[k];
    c.maintenance.value() + c.materialization.value() + c.size.value() + 0.0
}

/// Runs the LNS rounds from the evaluator's current position, returning
/// the best evaluation found (the evaluator is left positioned on it).
///
/// Acceptance is strict: a round's result replaces the incumbent only
/// when [`Scenario::better`] says so; otherwise the selection is rolled
/// back to the incumbent before the next round. With
/// `cfg.polish_moves > 0` the incumbent starts from a full
/// [`local_search::improve`] pass, so the result is never worse than
/// that pass's. Test seam: no non-test caller ([`solve_lns_with`] holds
/// the order already); `tests/lns_never_worse.rs` starts the rounds
/// from a local-search position through it.
pub fn refine(
    ev: &mut IncrementalEvaluator<'_>,
    scenario: Scenario,
    baseline: &Evaluation,
    cfg: &LnsConfig,
) -> Evaluation {
    let order = gain_order(ev.problem());
    refine_ordered(ev, scenario, baseline, cfg, &order)
}

/// [`refine`] over a [`gain_order`] the caller already holds.
fn refine_ordered(
    ev: &mut IncrementalEvaluator<'_>,
    scenario: Scenario,
    baseline: &Evaluation,
    cfg: &LnsConfig,
    order: &[usize],
) -> Evaluation {
    let mut incumbent = if cfg.polish_moves > 0 {
        local_search::improve(ev, scenario, baseline, cfg.polish_moves)
    } else {
        ev.snapshot()
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for round in 0..cfg.rounds {
        let n = ev.problem().len();
        let mut selected: Vec<usize> = ev.selection().ones().collect();
        // Destroy: evict part of the incumbent. Even rounds draw the
        // set uniformly (diversification); odd rounds evict the
        // heaviest charges (intensification on likely misallocations).
        let mut destroyed = SelectionSet::empty(n);
        let mut pool: Vec<usize> = Vec::new();
        if !selected.is_empty() {
            let want = ((selected.len() as f64 * DESTROY_FRACTION).ceil() as usize)
                .clamp(1, selected.len());
            if round % 2 == 0 {
                for d in 0..want {
                    let j = d + (rng.next_u64() as usize) % (selected.len() - d);
                    selected.swap(d, j);
                }
            } else {
                let problem = ev.problem();
                selected.sort_by(|&a, &b| {
                    charge_weight(problem, b)
                        .total_cmp(&charge_weight(problem, a))
                        .then(a.cmp(&b))
                });
            }
            pool.extend_from_slice(&selected[..want]);
            for &k in &pool {
                ev.unflip(k);
                destroyed.set(k, true);
            }
        }
        // Repair pool: the evicted views themselves plus the
        // highest-gain candidates that were unselected all along.
        let evicted = pool.len();
        let available = n - selected.len();
        pool.extend(shortlisted(order, cfg.shortlist, available, |k| {
            !ev.is_selected(k) && !destroyed.contains(k)
        }));
        let start = ev.score();
        let candidate =
            local_search::fill_from(ev, scenario, baseline, start, pool.iter().copied());
        let accepted = scenario.better(&candidate, &incumbent, baseline);
        if accepted {
            incumbent = candidate.with_selection(ev.selection().clone());
        } else {
            // Roll the evaluator back to the incumbent flip-for-flip.
            for k in 0..n {
                if ev.is_selected(k) != incumbent.selection.contains(k) {
                    ev.toggle(k);
                }
            }
        }
        mv_obs::inc(mv_obs::Counter::LnsRounds);
        if mv_obs::enabled() {
            mv_obs::inc(if accepted {
                mv_obs::Counter::LnsAccepted
            } else {
                mv_obs::Counter::LnsRejected
            });
            mv_obs::record(mv_obs::Hist::LnsDestroySize, evicted as u64);
            mv_obs::event(
                "lns_round",
                &[
                    ("round", round as f64),
                    ("destroyed", evicted as f64),
                    ("accepted", f64::from(u8::from(accepted))),
                ],
            );
        }
    }
    incumbent
}

/// Solves `scenario` by greedy fill, a polish pass, then
/// destroy-and-repair rounds — the large-n tier above
/// [`crate::solve_local_search`]. Deterministic for a fixed config.
pub fn solve_lns(problem: &SelectionProblem, scenario: Scenario) -> Outcome {
    solve_lns_with(problem, scenario, &LnsConfig::for_problem(problem.len()))
}

/// [`solve_lns`] with explicit tuning.
pub fn solve_lns_with(problem: &SelectionProblem, scenario: Scenario, cfg: &LnsConfig) -> Outcome {
    let baseline = problem.baseline();
    let mut ev = IncrementalEvaluator::new(problem);
    let order = gain_order(problem);
    if cfg.polish_moves > 0 {
        // Small-pool path: full greedy fill, so the polish pass starts
        // where solve_local_search starts (the never-worse guarantee).
        local_search::greedy_fill(&mut ev, scenario, &baseline);
    } else {
        // Large-pool path: shortlist-restricted fill.
        let pool = shortlisted(&order, cfg.shortlist, problem.len(), |_| true);
        let start = ev.score();
        local_search::fill_from(&mut ev, scenario, &baseline, start, pool.iter().copied());
    }
    let best = refine_ordered(&mut ev, scenario, &baseline, cfg, &order);
    Outcome::new(best, baseline, scenario, SolverKind::Lns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_like_problem, random_problem};
    use crate::solve_greedy;
    use mv_units::{Hours, Money};

    #[test]
    fn solves_the_paper_fixture_feasibly() {
        let p = paper_like_problem();
        let budget = p.baseline().cost() + Money::from_cents(60);
        let o = solve_lns(&p, Scenario::budget(budget));
        assert!(o.feasible());
        assert_eq!(o.solver, SolverKind::Lns);
        assert_eq!(o.evaluation, p.evaluate(&o.evaluation.selection));
    }

    #[test]
    fn deterministic_for_fixed_config() {
        let p = random_problem(11, 4, 9);
        let s = Scenario::tradeoff_normalized(0.5);
        let a = solve_lns(&p, s);
        let b = solve_lns(&p, s);
        assert_eq!(a.evaluation, b.evaluation);
    }

    #[test]
    fn never_worse_than_greedy() {
        for seed in 0..15 {
            let p = random_problem(seed + 70, 4, 7);
            for scenario in [
                Scenario::budget(p.baseline().cost() + Money::from_cents(60)),
                Scenario::time_limit(Hours::new(0.4)),
                Scenario::tradeoff_normalized(0.5),
            ] {
                let g = solve_greedy(&p, scenario);
                let l = solve_lns(&p, scenario);
                assert!(
                    !scenario.better(&g.evaluation, &l.evaluation, &l.baseline),
                    "seed {seed} {}: greedy beat LNS",
                    scenario.label()
                );
            }
        }
    }

    #[test]
    fn zero_rounds_zero_polish_is_shortlist_greedy() {
        let p = random_problem(3, 4, 8);
        let s = Scenario::tradeoff_normalized(0.4);
        let cfg = LnsConfig {
            rounds: 0,
            polish_moves: 0,
            shortlist: 0,
            seed: 1,
        };
        let o = solve_lns_with(&p, s, &cfg);
        // Unrestricted pool + no rounds ⇒ exactly the greedy fill.
        let g = solve_greedy(&p, s);
        assert_eq!(o.evaluation, g.evaluation);
    }

    #[test]
    fn refine_respects_the_incumbent_on_rejected_rounds() {
        let p = random_problem(21, 4, 10);
        let baseline = p.baseline();
        let s = Scenario::tradeoff_normalized(0.5);
        let mut ev = IncrementalEvaluator::new(&p);
        let cfg = LnsConfig::for_problem(p.len());
        let end = refine(&mut ev, s, &baseline, &cfg);
        // The evaluator ends positioned exactly on the reported result.
        assert_eq!(ev.snapshot(), end);
        assert_eq!(end, p.evaluate(&end.selection));
    }

    #[test]
    fn tiny_shortlist_still_repairs() {
        let p = random_problem(5, 3, 12);
        let s = Scenario::tradeoff_normalized(0.5);
        let cfg = LnsConfig {
            shortlist: 2,
            ..LnsConfig::for_problem(p.len())
        };
        let o = solve_lns_with(&p, s, &cfg);
        assert_eq!(o.evaluation, p.evaluate(&o.evaluation.selection));
    }
}
