//! Local-search selection: flip and swap moves over the incremental
//! evaluator's non-mutating probes.
//!
//! Add-only greedy (HRU-style) gets stuck at local optima a single
//! *swap* — retire one selected view, admit one unselected — would
//! escape: the classic repair move in local-search view selection
//! (Anderson & Sasaki's workload-acceleration search). Every move here
//! is read off the [`IncrementalEvaluator`], instead of O(n²) full
//! re-evaluations: a best-improvement round over s selected and u
//! unselected views offers n + s·u moves and makes 2·s real toggles —
//! each swap row deselects its `out` once, offers every `in_` against
//! that position and selects `out` back, and its first read refolds
//! what the deselection left stale. A move is priced from below first,
//! in O(deg) plus the charges of the selected views after it and one
//! bill, and scored exactly only if that bound could beat the round's
//! best so far (the evaluator's *Bounded probes*); an exact score adds
//! the block sums past its first touched block. So a round is n + s·u
//! bounds and only as many exact scores as moves could win — nearly
//! none at a local optimum, every move on a one-block workload, which
//! skips the bound. Every round counts the moves it offers
//! (`search/probes`), those its bound ruled out (`search/bounded`) and
//! the move it accepts, as does every round of the flip-on fill.
//!
//! Two entry points:
//!
//! * [`solve_local_search`] — a standalone solver: greedy fill, then a
//!   bounded improvement pass. By construction never worse than
//!   [`crate::solve_greedy`] under the same scenario.
//! * [`improve`] — the improvement pass alone, over any evaluator
//!   position: the epoch chain's node step (warm, from the parent
//!   node's selection), `mvcloud`'s resident re-solve (after a greedy
//!   fill from empty) and the [`crate::lns`] polish.

use mv_cost::{Placement, Price};

use crate::{
    Evaluation, IncrementalEvaluator, Outcome, Rank, Scenario, Score, SelectionProblem, SolverKind,
};

/// The effective price candidate `k` would carry under placement `p`
/// this epoch — the hook the joint selection+placement pass
/// ([`improve_joint`]) probes placement moves through. Implementations
/// must be deterministic in `(k, p)`: a flip probed and reverted must
/// restore the exact prior price.
pub type ChargeFor<'a> = &'a dyn Fn(usize, Placement) -> Price;

/// A candidate move over the current selection (and, in joint mode,
/// the current placement assignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    /// Select `k`.
    FlipOn(usize),
    /// Deselect `k`.
    FlipOff(usize),
    /// Deselect `out`, select `in_`.
    Swap { out: usize, in_: usize },
    /// Move the *selected* view `k` to the other fleet pool: one O(1)
    /// price splice, selection unchanged.
    Place(usize),
    /// Select the unselected view `k` directly on the other pool
    /// (price splice + flip) — the compound move that admits a view
    /// whose current placement alone would never pay off.
    FlipOnPlaced(usize),
}

/// The placement half of a joint-mode move: the price `k` would carry
/// on the other pool.
fn replaced(joint: Option<(&[Placement], ChargeFor<'_>)>, k: usize) -> Price {
    let (placements, charge_for) = joint.expect("placement move outside joint mode");
    charge_for(k, placements[k].flipped())
}

/// Applies `mv` for good.
fn apply(
    ev: &mut IncrementalEvaluator<'_>,
    mv: Move,
    joint: Option<(&[Placement], ChargeFor<'_>)>,
) {
    match mv {
        Move::FlipOn(k) => ev.flip(k),
        Move::FlipOff(k) => ev.unflip(k),
        Move::Swap { out, in_ } => {
            ev.unflip(out);
            ev.flip(in_);
        }
        Move::Place(k) => {
            ev.update_charge(k, replaced(joint, k));
        }
        Move::FlipOnPlaced(k) => {
            ev.update_charge(k, replaced(joint, k));
            ev.flip(k);
        }
    }
}

/// A round's pick: the best move so far, and the rank the next one
/// must beat — the standing score's until a move improves on it, then
/// that move's; strictly, so the first wins among equals.
struct Pick<'b, M> {
    scenario: Scenario,
    baseline: &'b Evaluation,
    to_beat: Rank,
    best: Option<(M, Score)>,
}

impl<'b, M> Pick<'b, M> {
    fn new(scenario: Scenario, baseline: &'b Evaluation, current: Rank) -> Self {
        Pick {
            scenario,
            baseline,
            to_beat: current,
            best: None,
        }
    }

    /// Offers `mv`, a toggle of `k` from the evaluator's position:
    /// scored exactly only if its bound could beat the pick
    /// ([`IncrementalEvaluator::probe_below`]).
    fn toggle(&mut self, ev: &mut IncrementalEvaluator<'_>, mv: M, k: usize) {
        if let Some((e, rank)) = ev.probe_below(k, self.scenario, self.baseline, self.to_beat) {
            self.to_beat = rank;
            self.best = Some((mv, e));
        }
    }

    /// Offers `mv`, the evaluator's position as it stands, scored.
    fn standing(&mut self, ev: &mut IncrementalEvaluator<'_>, mv: M) {
        let e = ev.score();
        let rank = self.scenario.rank(&e, self.baseline);
        if rank < self.to_beat {
            self.to_beat = rank;
            self.best = Some((mv, e));
        }
    }
}

/// One best-improvement step of a flip-on fill: offers selecting each
/// still-unselected candidate of `pool`, in order, and returns the one
/// that improves on `current` (the standing score's rank) the most
/// under the scenario ordering (first wins among equals) with its score
/// and rank — `None` at a flip-on local optimum. Counts the round's
/// moves, and the flip it returns as an accepted flip move (the fill
/// applies every one).
fn best_flip_on(
    ev: &mut IncrementalEvaluator<'_>,
    scenario: Scenario,
    baseline: &Evaluation,
    current: Rank,
    pool: impl IntoIterator<Item = usize>,
) -> Option<(usize, Score, Rank)> {
    let mut pick = Pick::new(scenario, baseline, current);
    let mut probes = 0;
    for k in pool {
        if ev.is_selected(k) {
            continue;
        }
        pick.toggle(ev, k, k);
        probes += 1;
    }
    mv_obs::add(mv_obs::Counter::SearchProbes, probes);
    let (k, e) = pick.best?;
    mv_obs::inc(mv_obs::Counter::SearchFlipMoves);
    Some((k, e, pick.to_beat))
}

/// Flip-on fill restricted to `pool`, from the evaluator's current
/// position (scored `current`): applies [`best_flip_on`]'s pick until
/// there is none, returning the final score. The one loop behind
/// [`crate::solve_greedy`], [`greedy_fill`] and the LNS repair.
pub(crate) fn fill_from(
    ev: &mut IncrementalEvaluator<'_>,
    scenario: Scenario,
    baseline: &Evaluation,
    mut current: Score,
    pool: impl IntoIterator<Item = usize> + Clone,
) -> Score {
    let mut rank = scenario.rank(&current, baseline);
    while let Some((k, e, r)) = best_flip_on(ev, scenario, baseline, rank, pool.clone()) {
        ev.flip(k);
        (current, rank) = (e, r);
    }
    current
}

/// Greedy fill from the evaluator's current position: repeatedly apply
/// the single most-improving flip-on, stopping at a flip-on local
/// optimum. Starting from the empty selection this reproduces
/// [`crate::solve_greedy`]'s selection exactly (same move rule, same
/// tie-breaks). Returns the resulting evaluation.
pub fn greedy_fill(
    ev: &mut IncrementalEvaluator<'_>,
    scenario: Scenario,
    baseline: &Evaluation,
) -> Evaluation {
    let n = ev.problem().len();
    let start = ev.score();
    let current = fill_from(ev, scenario, baseline, start, 0..n);
    current.with_selection(ev.selection().clone())
}

/// Bounded best-improvement pass: each round probes every flip-on,
/// flip-off and swap move, applies the best one that improves the
/// scenario ordering, and stops at a local optimum or after `max_moves`
/// applied moves. Returns the resulting evaluation (the evaluator is
/// left positioned on it).
pub fn improve(
    ev: &mut IncrementalEvaluator<'_>,
    scenario: Scenario,
    baseline: &Evaluation,
    max_moves: usize,
) -> Evaluation {
    improve_inner(ev, scenario, baseline, max_moves, None)
}

/// [`improve`] extended with the mixed-fleet placement dimension: on
/// top of the flip/swap neighborhood, each round probes moving any
/// *selected* view to the other pool (one price splice) and admitting
/// any unselected view directly on the other pool (splice + flip).
/// `placements` is the standing per-view assignment (updated in place
/// as moves are applied); `charge_for` yields the effective price of a
/// view under either placement. With
/// the placement moves never improving, this is [`improve`] exactly —
/// same neighborhood enumeration order, same tie-breaks.
pub fn improve_joint(
    ev: &mut IncrementalEvaluator<'_>,
    scenario: Scenario,
    baseline: &Evaluation,
    max_moves: usize,
    placements: &mut [Placement],
    charge_for: ChargeFor<'_>,
) -> Evaluation {
    improve_inner(
        ev,
        scenario,
        baseline,
        max_moves,
        Some((placements, charge_for)),
    )
}

fn improve_inner(
    ev: &mut IncrementalEvaluator<'_>,
    scenario: Scenario,
    baseline: &Evaluation,
    max_moves: usize,
    mut joint: Option<(&mut [Placement], ChargeFor<'_>)>,
) -> Evaluation {
    let n = ev.problem().len();
    let mut current = ev.score();
    let mut current_rank = scenario.rank(&current, baseline);
    for _ in 0..max_moves {
        // The standing selection, read off the evaluator: a swap row
        // puts back what it takes out, so each row sees it whole.
        let selected = ev.selection().count_ones();
        let mut pick = Pick::new(scenario, baseline, current_rank);
        for k in 0..n {
            if !ev.is_selected(k) {
                pick.toggle(ev, Move::FlipOn(k), k);
            }
        }
        for k in 0..n {
            if ev.is_selected(k) {
                pick.toggle(ev, Move::FlipOff(k), k);
            }
        }
        // A swap row shares its deselection: `out` leaves once, every
        // `in_` is a single-toggle probe against that position, and
        // `out` returns — every best time and term back bit for bit.
        for out in 0..n {
            if !ev.is_selected(out) {
                continue;
            }
            ev.unflip(out);
            for in_ in 0..n {
                if in_ != out && !ev.is_selected(in_) {
                    pick.toggle(ev, Move::Swap { out, in_ }, in_);
                }
            }
            ev.flip(out);
        }
        let mut probes = n + selected * (n - selected);
        let shared = joint.as_ref().map(|(p, f)| (&**p, *f));
        if shared.is_some() {
            // Placement moves probe after the selection neighborhood, so
            // joint mode with no improving placement move reproduces the
            // plain pass exactly (same enumeration, same tie-breaks).
            // Each splices the other pool's price around its score and
            // puts the displaced price back (bit-exact: a price splice
            // touches no cached time).
            for k in 0..n {
                if ev.is_selected(k) {
                    let displaced = ev.update_charge(k, replaced(shared, k));
                    pick.standing(ev, Move::Place(k));
                    ev.update_charge(k, displaced);
                }
            }
            for k in 0..n {
                if !ev.is_selected(k) {
                    let displaced = ev.update_charge(k, replaced(shared, k));
                    pick.toggle(ev, Move::FlipOnPlaced(k), k);
                    ev.update_charge(k, displaced);
                }
            }
            probes += n;
        }
        mv_obs::add(mv_obs::Counter::SearchProbes, probes as u64);
        let Some((mv, e)) = pick.best else { break };
        apply(ev, mv, shared);
        record_accepted(mv);
        if let (Move::Place(k) | Move::FlipOnPlaced(k), Some((placements, _))) =
            (mv, joint.as_mut())
        {
            placements[k] = placements[k].flipped();
        }
        (current, current_rank) = (e, pick.to_beat);
    }
    // The last accepted move left the caches stale: settle them once
    // here, so forks of the result (what-ifs, scenario-tree branches)
    // share the charge run instead of each refolding a copy.
    ev.settle();
    current.with_selection(ev.selection().clone())
}

/// Telemetry for one accepted improvement move: per-kind counters plus
/// a trace event for the placement moves (the rare, interesting ones).
fn record_accepted(mv: Move) {
    if !mv_obs::enabled() {
        return;
    }
    match mv {
        Move::FlipOn(_) | Move::FlipOff(_) => mv_obs::inc(mv_obs::Counter::SearchFlipMoves),
        Move::Swap { .. } => mv_obs::inc(mv_obs::Counter::SearchSwapMoves),
        Move::Place(k) | Move::FlipOnPlaced(k) => {
            mv_obs::inc(mv_obs::Counter::SearchPlaceMoves);
            mv_obs::event("placement_move", &[("view", k as f64)]);
        }
    }
}

/// Default improvement budget for `n` candidates: enough rounds to turn
/// over the whole selection once, with a floor for tiny problems.
pub fn default_move_budget(n: usize) -> usize {
    (2 * n).max(16)
}

/// Solves `scenario` by greedy fill plus a bounded flip/swap improvement
/// pass. Never worse than [`crate::solve_greedy`]: the fill reproduces
/// greedy's selection and every subsequent move must strictly improve
/// the scenario ordering.
pub fn solve_local_search(problem: &SelectionProblem, scenario: Scenario) -> Outcome {
    solve_local_search_bounded(problem, scenario, default_move_budget(problem.len()))
}

/// [`solve_local_search`] with an explicit improvement-move budget.
pub fn solve_local_search_bounded(
    problem: &SelectionProblem,
    scenario: Scenario,
    max_moves: usize,
) -> Outcome {
    let baseline = problem.baseline();
    let mut ev = IncrementalEvaluator::new(problem);
    greedy_fill(&mut ev, scenario, &baseline);
    let best = improve(&mut ev, scenario, &baseline, max_moves);
    Outcome::new(best, baseline, scenario, SolverKind::LocalSearch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{
        paper_like_problem, random_problem, random_sparse_problem, with_tied_times,
    };
    use crate::scenario::tests::better_reference;
    use crate::{solve_exhaustive, solve_greedy, SelectionSet};
    use mv_units::{Hours, Money};
    use proptest::prelude::*;

    /// A move's score the slow way: apply it for real, score, take it
    /// back — the `flip → snapshot → unflip` triple, two toggles each
    /// way for a swap.
    fn probe_move_reference(
        ev: &mut IncrementalEvaluator<'_>,
        mv: Move,
        joint: Option<(&[Placement], ChargeFor<'_>)>,
    ) -> Score {
        match mv {
            Move::FlipOn(k) | Move::FlipOff(k) => {
                ev.toggle(k);
                let score = ev.score();
                ev.toggle(k);
                score
            }
            Move::Swap { out, in_ } => {
                ev.unflip(out);
                ev.flip(in_);
                let score = ev.score();
                ev.unflip(in_);
                ev.flip(out);
                score
            }
            Move::Place(k) | Move::FlipOnPlaced(k) => {
                let displaced = ev.update_charge(k, replaced(joint, k));
                let score = if matches!(mv, Move::Place(_)) {
                    ev.score()
                } else {
                    ev.flip(k);
                    let score = ev.score();
                    ev.unflip(k);
                    score
                };
                ev.update_charge(k, displaced);
                score
            }
        }
    }

    /// The improvement pass as first written, kept as the reference
    /// [`improve`] and [`improve_joint`] are held to: every round lists
    /// its whole neighbourhood as a `Vec<Move>` (flip-on ascending,
    /// flip-off ascending, swaps out-major, then the placement moves),
    /// scores each move by applying and reverting it, and ranks with
    /// the spelled-out scenario ordering. Returns the accepted moves
    /// next to the final evaluation.
    fn improve_reference(
        ev: &mut IncrementalEvaluator<'_>,
        scenario: Scenario,
        baseline: &Evaluation,
        max_moves: usize,
        mut joint: Option<(&mut [Placement], ChargeFor<'_>)>,
    ) -> (Vec<Move>, Evaluation) {
        let mut accepted = Vec::new();
        let mut current = ev.score();
        for _ in 0..max_moves {
            let n = ev.problem().len();
            let selected: Vec<usize> = ev.selection().ones().collect();
            let unselected: Vec<usize> = (0..n).filter(|&k| !ev.is_selected(k)).collect();
            let mut moves: Vec<Move> = Vec::new();
            moves.extend(unselected.iter().map(|&k| Move::FlipOn(k)));
            moves.extend(selected.iter().map(|&k| Move::FlipOff(k)));
            for &out in &selected {
                for &in_ in &unselected {
                    moves.push(Move::Swap { out, in_ });
                }
            }
            if joint.is_some() {
                moves.extend(selected.iter().map(|&k| Move::Place(k)));
                moves.extend(unselected.iter().map(|&k| Move::FlipOnPlaced(k)));
            }
            let mut best: Option<(Move, Score)> = None;
            for mv in moves {
                let shared = joint.as_ref().map(|(p, f)| (&**p, *f));
                let e = probe_move_reference(ev, mv, shared);
                if better_reference(&scenario, &e, &current, baseline)
                    && best
                        .as_ref()
                        .is_none_or(|(_, b)| better_reference(&scenario, &e, b, baseline))
                {
                    best = Some((mv, e));
                }
            }
            let Some((mv, e)) = best else { break };
            let shared = joint.as_ref().map(|(p, f)| (&**p, *f));
            apply(ev, mv, shared);
            if let (Move::Place(k) | Move::FlipOnPlaced(k), Some((placements, _))) =
                (mv, joint.as_mut())
            {
                placements[k] = placements[k].flipped();
            }
            accepted.push(mv);
            current = e;
        }
        (accepted, current.with_selection(ev.selection().clone()))
    }

    /// The move between two consecutive positions of a pass, read off
    /// the selections and placements (a pass applies one move a round).
    fn move_between(
        before: (&SelectionSet, &[Placement]),
        after: (&SelectionSet, &[Placement]),
    ) -> Option<Move> {
        let n = before.0.len();
        let on: Vec<usize> = (0..n)
            .filter(|&k| !before.0.contains(k) && after.0.contains(k))
            .collect();
        let off: Vec<usize> = (0..n)
            .filter(|&k| before.0.contains(k) && !after.0.contains(k))
            .collect();
        let placed: Vec<usize> = (0..n).filter(|&k| before.1[k] != after.1[k]).collect();
        match (&on[..], &off[..], &placed[..]) {
            ([], [], []) => None,
            (&[k], [], []) => Some(Move::FlipOn(k)),
            ([], &[k], []) => Some(Move::FlipOff(k)),
            (&[in_], &[out], []) => Some(Move::Swap { out, in_ }),
            ([], [], &[k]) => Some(Move::Place(k)),
            (&[k], [], &[p]) if k == p => Some(Move::FlipOnPlaced(k)),
            other => panic!("not one move: {other:?}"),
        }
    }

    /// One case of the identity: from the same (possibly over-full)
    /// start, [`improve`] / [`improve_joint`] accept the reference's
    /// moves in the reference's order and end on its evaluation bit for
    /// bit, its selection and its placements — run whole and run one
    /// move at a time.
    fn assert_improve_matches_reference(
        seed: u64,
        n_queries: usize,
        n: usize,
        density: f64,
        start_mask: u64,
        scenario_pick: usize,
        joint: bool,
    ) {
        let problem = with_tied_times(&random_sparse_problem(seed, n_queries, n, density));
        let baseline = problem.baseline();
        let scenario = match scenario_pick % 4 {
            0 => Scenario::budget(baseline.cost() + Money::from_cents(5 + (seed % 150) as i64)),
            1 => Scenario::time_limit(baseline.time * (0.2 + (seed % 7) as f64 / 10.0)),
            2 => Scenario::tradeoff_normalized((seed % 11) as f64 / 10.0),
            _ => Scenario::tradeoff((seed % 11) as f64 / 10.0),
        };
        let context = format!(
            "seed {seed} m {n_queries} n {n} density {density} start {start_mask:#x} \
             {scenario:?} joint {joint}"
        );
        let start = SelectionSet::from_mask(start_mask & ((1u64 << n) - 1), n);
        // The other pool charges each view between a twentieth and
        // eight times its build and refresh hours (whole-hour billing
        // swallows anything subtler), so placement moves pay for some
        // views and not for others.
        let full: Vec<Price> = problem.candidates().iter().map(|v| v.price()).collect();
        let charge_for = |k: usize, p: Placement| -> Price {
            let factor = if p == full[k].placement {
                1.0
            } else {
                [0.05, 4.0, 0.25, 8.0, 0.5, 2.0, 0.1][(k * 5 + seed as usize) % 7]
            };
            Price {
                materialization: full[k].materialization * factor,
                maintenance: full[k].maintenance * factor,
                placement: p,
                ..full[k]
            }
        };
        let mut standing: Vec<Placement> = full.iter().map(|p| p.placement).collect();
        let budget = default_move_budget(n);
        let run = |ev: &mut IncrementalEvaluator<'_>,
                   placements: &mut Vec<Placement>,
                   max_moves: usize| {
            if joint {
                improve_joint(ev, scenario, &baseline, max_moves, placements, &charge_for)
            } else {
                improve(ev, scenario, &baseline, max_moves)
            }
        };

        let mut reference_ev = IncrementalEvaluator::from_problem(problem.clone());
        for k in start.ones() {
            reference_ev.flip(k);
        }
        if joint {
            // A third of the views start on the other pool.
            for k in (seed as usize % 3..n).step_by(3) {
                standing[k] = standing[k].flipped();
                reference_ev.update_charge(k, charge_for(k, standing[k]));
            }
        }
        let mut whole_ev = reference_ev.clone();
        let mut stepped_ev = reference_ev.clone();
        let mut reference_placements = standing.clone();
        let (moves, expected) = improve_reference(
            &mut reference_ev,
            scenario,
            &baseline,
            budget,
            joint.then_some((&mut reference_placements[..], &charge_for as ChargeFor<'_>)),
        );
        assert_eq!(
            expected,
            reference_ev.problem().evaluate(&expected.selection),
            "{context}: the reference's own end"
        );

        let same_bits = |got: &Evaluation, context: &str| {
            assert_eq!(got, &expected, "{context}");
            assert_eq!(
                got.time.value().to_bits(),
                expected.time.value().to_bits(),
                "{context}: time bits"
            );
        };
        let mut placements = standing.clone();
        let whole = run(&mut whole_ev, &mut placements, budget);
        same_bits(&whole, &context);
        assert_eq!(whole_ev.selection(), reference_ev.selection(), "{context}");
        assert_eq!(placements, reference_placements, "{context}");
        assert_eq!(whole_ev.snapshot(), expected, "{context}: position");

        let mut placements = standing.clone();
        let mut stepped = Vec::new();
        let mut last = None;
        for _ in 0..budget {
            let before = (stepped_ev.selection().clone(), placements.clone());
            let e = run(&mut stepped_ev, &mut placements, 1);
            let mv = move_between(
                (&before.0, &before.1),
                (stepped_ev.selection(), &placements),
            );
            last = Some(e);
            match mv {
                Some(mv) => stepped.push(mv),
                None => break,
            }
        }
        assert_eq!(stepped, moves, "{context}: accepted moves");
        if let Some(last) = last {
            same_bits(&last, &format!("{context}: stepped"));
        }
    }

    /// The workload sizes the identity runs at: one query, a partial
    /// fold block, one short of / exactly / one past a block, a few, and
    /// nine full blocks and a short tenth — more than one pass of the
    /// evaluator's lanes folds side by side.
    const REFERENCE_WORKLOADS: [usize; 7] = [1, 13, 63, 64, 65, 200, 9 * 64 + 5];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn improve_matches_the_reference_pass(
            seed in 0u64..10_000,
            workload in 0usize..REFERENCE_WORKLOADS.len(),
            n in 2usize..11,
            density_pct in 10u8..70,
            start_mask in 0u64..u64::MAX,
            overfull in 0u8..4,
            scenario_pick in 0usize..4,
            joint in 0u8..2,
        ) {
            // A quarter of the cases start with everything selected.
            let start_mask = if overfull == 0 { u64::MAX } else { start_mask };
            assert_improve_matches_reference(
                seed,
                REFERENCE_WORKLOADS[workload],
                n,
                f64::from(density_pct) / 100.0,
                start_mask,
                scenario_pick,
                joint == 1,
            );
        }
    }

    /// The same identity over a denser sweep — every workload size ×
    /// scenario × mode at pools up to 16 views: minutes in a debug
    /// build, so CI runs it in release (*Probe identity (release)*).
    #[test]
    #[ignore = "5 600 cases: run with --release -- --ignored"]
    fn improve_matches_the_reference_pass_on_a_dense_sweep() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..100 {
            for &m in &REFERENCE_WORKLOADS {
                for scenario_pick in 0..4 {
                    for joint in [false, true] {
                        let seed = next() % 100_000;
                        let n = 2 + (next() % 15) as usize;
                        let density = 0.05 + (next() % 70) as f64 / 100.0;
                        let start = if round % 4 == 0 { u64::MAX } else { next() };
                        assert_improve_matches_reference(
                            seed,
                            m,
                            n,
                            density,
                            start,
                            scenario_pick,
                            joint,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn never_worse_than_greedy() {
        for seed in 0..25 {
            let p = random_problem(seed, 4, 7);
            for scenario in [
                Scenario::budget(p.baseline().cost() + Money::from_cents(60)),
                Scenario::time_limit(Hours::new(0.4)),
                Scenario::tradeoff_normalized(0.5),
            ] {
                let g = solve_greedy(&p, scenario);
                let l = solve_local_search(&p, scenario);
                assert!(
                    !scenario.better(&g.evaluation, &l.evaluation, &l.baseline),
                    "seed {seed} {}: greedy beat local search",
                    scenario.label()
                );
            }
        }
    }

    #[test]
    fn matches_exhaustive_more_often_than_greedy() {
        // Swap moves must recover at least every optimum greedy already
        // finds, and strictly more on some instances.
        let (mut greedy_hits, mut local_hits) = (0, 0);
        for seed in 0..30 {
            let p = random_problem(seed + 500, 3, 6);
            let s = Scenario::tradeoff_normalized(0.35);
            let x = solve_exhaustive(&p, s);
            if solve_greedy(&p, s).objective() <= x.objective() + 1e-12 {
                greedy_hits += 1;
            }
            if solve_local_search(&p, s).objective() <= x.objective() + 1e-12 {
                local_hits += 1;
            }
        }
        assert!(local_hits >= greedy_hits, "{local_hits} < {greedy_hits}");
        assert!(local_hits >= 25, "local search optimal on {local_hits}/30");
    }

    #[test]
    fn reported_evaluation_is_reproducible() {
        for seed in 0..10 {
            let p = random_problem(seed + 40, 4, 6);
            let o = solve_local_search(&p, Scenario::tradeoff_normalized(0.6));
            assert_eq!(o.evaluation, p.evaluate(&o.evaluation.selection));
            assert_eq!(o.solver, SolverKind::LocalSearch);
        }
    }

    #[test]
    fn zero_move_budget_returns_greedy_fill() {
        let p = paper_like_problem();
        let s = Scenario::budget(p.baseline().cost() + Money::from_dollars(1));
        let bounded = solve_local_search_bounded(&p, s, 0);
        let greedy = solve_greedy(&p, s);
        assert_eq!(bounded.evaluation, greedy.evaluation);
    }

    #[test]
    fn improve_repairs_an_overfull_selection() {
        // Start from everything selected under a tight budget: flip-off /
        // swap moves must walk back to feasibility when possible.
        let p = paper_like_problem();
        let baseline = p.baseline();
        let s = Scenario::budget(baseline.cost() + Money::from_cents(50));
        let mut ev = IncrementalEvaluator::new(&p);
        for k in 0..p.len() {
            ev.flip(k);
        }
        let start = ev.snapshot();
        let end = improve(&mut ev, s, &baseline, 32);
        assert!(scenario_not_worse(s, &end, &start, &baseline));
        assert!(s.feasible(&end), "improvement pass failed to repair");
    }

    fn scenario_not_worse(
        s: Scenario,
        a: &Evaluation,
        b: &Evaluation,
        baseline: &Evaluation,
    ) -> bool {
        !s.better(b, a, baseline)
    }

    #[test]
    fn joint_pass_with_neutral_placements_matches_improve_exactly() {
        // Both pools charging identically: no placement move can ever
        // improve, so the joint pass must land on improve()'s selection
        // bit-for-bit and leave every placement untouched.
        for seed in 0..10 {
            let p = random_problem(seed + 90, 4, 7);
            let baseline = p.baseline();
            let s = Scenario::tradeoff_normalized(0.4);
            let mut plain_ev = IncrementalEvaluator::new(&p);
            let plain = improve(&mut plain_ev, s, &baseline, 32);
            let mut joint_ev = IncrementalEvaluator::new(&p);
            let mut placements = vec![Placement::Reserved; p.len()];
            let charge_for = |k: usize, _p: Placement| p.candidates()[k].price();
            let joint = improve_joint(
                &mut joint_ev,
                s,
                &baseline,
                32,
                &mut placements,
                &charge_for,
            );
            assert_eq!(plain, joint, "seed {seed}");
            assert!(placements.iter().all(|&pl| pl == Placement::Reserved));
        }
    }

    #[test]
    fn placement_flip_moves_a_view_to_the_cheaper_pool() {
        // Spot charges half the build/refresh hours: the joint pass
        // should place selected views on spot, through O(1) splices,
        // and the result must reproduce on a mirror problem holding the
        // spot-priced charges. Multi-hour charges, so the differential
        // survives AWS whole-hour rounding.
        let pricing = mv_pricing::presets::aws_2012();
        let instance = pricing.compute.instance("small").unwrap().clone();
        let mut q =
            mv_cost::QueryCharge::new("Q", mv_units::Gb::new(0.01), mv_units::Hours::new(10.0));
        q.frequency = 5.0;
        let model = mv_cost::CloudCostModel::new(mv_cost::CostContext {
            pricing,
            instance,
            nb_instances: 1,
            months: mv_units::Months::new(1.0),
            dataset_size: mv_units::Gb::new(10.0),
            inserts: vec![],
            workload: vec![q],
        });
        let p = SelectionProblem::new(
            model,
            vec![mv_cost::ViewCharge::new(
                "spec-Q",
                mv_units::Gb::new(1.0),
                mv_units::Hours::new(8.0),
                mv_units::Hours::new(2.0),
                1,
            )
            .answers(0, mv_units::Hours::new(0.5))],
        );
        let baseline = p.baseline();
        let s = Scenario::tradeoff(0.02);
        let charge_for = |k: usize, place: Placement| -> Price {
            let base = p.candidates()[k].price();
            let half = match place {
                Placement::Reserved => 1.0,
                Placement::Spot => 0.5,
            };
            Price {
                materialization: base.materialization * half,
                maintenance: base.maintenance * half,
                placement: place,
                ..base
            }
        };
        let mut ev = IncrementalEvaluator::from_problem(p.clone());
        let mut placements = vec![Placement::Reserved; p.len()];
        let counters = mv_obs::CounterGuard::scoped();
        let end = improve_joint(&mut ev, s, &baseline, 64, &mut placements, &charge_for);
        assert_eq!(
            counters.local_delta(mv_obs::Counter::EvaluatorBuild),
            0,
            "placement flips must splice, not rebuild"
        );
        drop(counters);
        // Whatever got selected ended up on the half-price pool.
        let any_selected = end.selection.count_ones() > 0;
        assert!(any_selected);
        for k in end.selection.ones() {
            assert_eq!(placements[k], Placement::Spot, "view {k}");
        }
        // The end state reproduces on an equivalent static problem.
        let mut mirror_charges = p.candidates().to_vec();
        for (k, charge) in mirror_charges.iter_mut().enumerate() {
            charge.set_price(charge_for(k, placements[k]));
        }
        let mirror = SelectionProblem::new(p.model().clone(), mirror_charges);
        assert_eq!(end, mirror.evaluate(&end.selection));
    }
}
