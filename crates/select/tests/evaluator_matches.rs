//! Property: the incremental evaluator agrees **exactly** with full
//! re-evaluation — time, total cost, and every breakdown component —
//! over random problems and random flip sequences.
//!
//! This is the contract every solver now leans on: greedy, the knapsack
//! repair, branch-and-bound and the exhaustive/Pareto sweeps all probe
//! through [`IncrementalEvaluator`], so a single bit of drift here would
//! silently change solver outcomes.

use mv_cost::{InterruptionRisk, Placement, PoolCharge, Price, ViewCharge};
use mv_select::{fixtures, IncrementalEvaluator, SelectionProblem, SelectionSet};
use proptest::prelude::*;

/// Random interleavings of pool edits, selection flips and **placement
/// flips** over `pool_problem`'s candidates, from the selection `mask`
/// names. The pool belongs to the caller: an add or a remove edits the
/// mirror candidate vector
/// (`Vec::push` / `Vec::swap_remove`, the selection following) and
/// builds a new evaluator over it at the same selection; flips and
/// price splices go to the live evaluator. After every single op the
/// evaluator must agree **bit for bit** with
/// `SelectionProblem::evaluate` on the mirror.
///
/// A placement flip is what the mixed-fleet solver's `Place` move
/// does: re-derive the view's effective price for the other pool from
/// its pristine pool entry (spot here: half-rate hours plus an
/// interruption premium, and a larger footprint so the splice moves
/// stored bytes too) and splice it with `update_charge` — O(1),
/// selected or not.
fn pool_edits_and_flips_match_full_evaluation(
    pool_problem: &SelectionProblem,
    mask: u64,
    ops: &[(u8, usize)],
) {
    let model = pool_problem.model();
    let pool = pool_problem.candidates();
    let evaluator_at = |candidates: &[ViewCharge], selected: &[bool]| {
        let problem = SelectionProblem::new(model.clone(), candidates.to_vec());
        let mut ev = IncrementalEvaluator::from_problem(problem);
        for k in SelectionSet::from_bools(selected).ones() {
            ev.flip(k);
        }
        ev
    };

    // The mirror: candidate vector + bool selection. `pristine` tracks
    // each slot's full-price pool entry so a placement flip always
    // derives from the same base (flip twice = bit-identical restore).
    let mut mirror = pool.to_vec();
    let mut pristine = pool.to_vec();
    let start = SelectionSet::from_mask(mask & ((1 << 10) - 1), pool.len());
    let mut mirror_sel: Vec<bool> = (0..pool.len()).map(|k| start.contains(k)).collect();
    let mut ev = evaluator_at(&mirror, &mirror_sel);
    let mut recycle = 0usize;
    let spot_pool = PoolCharge::new(0.5, InterruptionRisk::new(0.25));
    let placed = |base: &ViewCharge, p: Placement| -> Price {
        let price = match p {
            Placement::Reserved => base.price(),
            Placement::Spot => Price {
                size: base.size * 1.25,
                ..spot_pool.adjust(base.price())
            },
        };
        Price {
            placement: p,
            ..price
        }
    };

    for (step, &(op, arg)) in ops.iter().enumerate() {
        if op != 0 && mirror.is_empty() {
            continue;
        }
        let j = arg % mirror.len().max(1);
        match op {
            // Add: a (possibly repeated) pool charge joins, deselected.
            0 => {
                let charge = pool[recycle % pool.len()].clone();
                recycle += 1;
                mirror.push(charge.clone());
                pristine.push(charge);
                mirror_sel.push(false);
                ev = evaluator_at(&mirror, &mirror_sel);
            }
            // Remove: retire an arbitrary candidate (selected or not).
            1 => {
                mirror.swap_remove(j);
                pristine.swap_remove(j);
                mirror_sel.swap_remove(j);
                ev = evaluator_at(&mirror, &mirror_sel);
            }
            // Flip: toggle an arbitrary candidate's selection.
            2 => {
                ev.toggle(j);
                mirror_sel[j] = !mirror_sel[j];
            }
            // Placement flip: move an arbitrary candidate to the other
            // pool via an update_charge splice.
            _ => {
                let price = placed(&pristine[j], mirror[j].placement.flipped());
                let old = ev.update_charge(j, price);
                assert_eq!(old, mirror[j].price(), "displaced price at step {step}");
                mirror[j].set_price(price);
            }
        }
        let incremental = ev.snapshot();
        let full = SelectionProblem::new(model.clone(), mirror.clone())
            .evaluate(&SelectionSet::from_bools(&mirror_sel));
        assert_eq!(
            incremental.selection, full.selection,
            "selection diverged at step {step}"
        );
        assert_eq!(incremental.time, full.time, "time diverged at step {step}");
        assert_eq!(
            incremental.breakdown, full.breakdown,
            "breakdown diverged at step {step}"
        );
        assert_eq!(
            incremental.cost(),
            full.cost(),
            "cost diverged at step {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary flip/unflip walks leave the evaluator bit-identical to
    /// `SelectionProblem::evaluate` at every step.
    #[test]
    fn random_flip_walks_match_full_evaluation(
        seed in 0u64..10_000,
        n_queries in 1usize..6,
        n_candidates in 1usize..12,
        flips in proptest::collection::vec(0usize..12, 1..40),
    ) {
        let problem = fixtures::random_problem(seed, n_queries, n_candidates);
        let mut ev = IncrementalEvaluator::new(&problem);
        let mut sel = SelectionSet::empty(problem.len());
        for (step, &raw) in flips.iter().enumerate() {
            let k = raw % problem.len();
            ev.toggle(k);
            sel.set(k, !sel.contains(k));

            let incremental = ev.snapshot();
            let full = problem.evaluate(&sel);
            prop_assert_eq!(&incremental.selection, &full.selection,
                "selection diverged at step {}", step);
            prop_assert_eq!(incremental.time, full.time,
                "time diverged at step {}", step);
            prop_assert_eq!(&incremental.breakdown, &full.breakdown,
                "breakdown diverged at step {}", step);
            // cost() is derived from the breakdown, but assert anyway —
            // it is the value the scenario orderings consume.
            prop_assert_eq!(incremental.cost(), full.cost(),
                "cost diverged at step {}", step);
        }
    }

    /// Positioning an evaluator at an arbitrary selection (the parallel
    /// sweeps' chunk starts do this) matches evaluating that selection.
    #[test]
    fn with_selection_matches_full_evaluation(
        seed in 0u64..10_000,
        n_queries in 1usize..6,
        n_candidates in 1usize..12,
        mask in 0u64..(1 << 12),
    ) {
        let problem = fixtures::random_problem(seed, n_queries, n_candidates);
        let mask = mask & ((1u64 << problem.len()) - 1);
        let sel = SelectionSet::from_mask(mask, problem.len());
        let mut ev = IncrementalEvaluator::with_selection(&problem, &sel);
        prop_assert_eq!(ev.snapshot(), problem.evaluate(&sel));
    }

    /// A changing candidate pool, dense profiles: see
    /// [`pool_edits_and_flips_match_full_evaluation`]. 128 cases × up to
    /// 30 ops.
    #[test]
    fn dynamic_interleavings_match_rebuilt_static_problem(
        seed in 0u64..10_000,
        n_queries in 1usize..6,
        mask in 0u64..(1 << 10),
        ops in proptest::collection::vec((0u8..4, 0usize..64), 1..30),
    ) {
        let pool_problem = fixtures::random_problem(seed, n_queries, 10);
        pool_edits_and_flips_match_full_evaluation(&pool_problem, mask, &ops);
    }

    /// Random **sparse** answer profiles — the regime the struct-of-
    /// arrays answer index exists for: larger workloads where most views
    /// answer a few queries (density down to 3%) and some queries have
    /// most of the pool as answerers (density up to 90%).
    /// Arbitrary flip walks must stay bit-identical to the dense-path
    /// `SelectionProblem::evaluate` at every step.
    #[test]
    fn sparse_flip_walks_match_full_evaluation(
        seed in 0u64..10_000,
        n_queries in 1usize..40,
        n_candidates in 1usize..24,
        density_pct in 3u8..90,
        flips in proptest::collection::vec(0usize..24, 1..48),
    ) {
        let problem =
            fixtures::random_sparse_problem(seed, n_queries, n_candidates, density_pct as f64 / 100.0);
        let mut ev = IncrementalEvaluator::new(&problem);
        let mut sel = SelectionSet::empty(problem.len());
        for (step, &raw) in flips.iter().enumerate() {
            let k = raw % problem.len();
            ev.toggle(k);
            sel.set(k, !sel.contains(k));
            let incremental = ev.snapshot();
            let full = problem.evaluate(&sel);
            prop_assert_eq!(incremental.time, full.time,
                "time diverged at step {}", step);
            prop_assert_eq!(&incremental.breakdown, &full.breakdown,
                "breakdown diverged at step {}", step);
            prop_assert_eq!(incremental.cost(), full.cost(),
                "cost diverged at step {}", step);
        }
    }

    /// A changing candidate pool, sparse profiles over a wide
    /// workload — the same interleavings as the dense suite, so the
    /// index is built over grown and shrunk pools from nearly empty
    /// query rows (5%) to nearly full ones (80%).
    #[test]
    fn sparse_dynamic_interleavings_match_rebuilt_static_problem(
        seed in 0u64..10_000,
        n_queries in 1usize..32,
        density_pct in 5u8..80,
        mask in 0u64..(1 << 10),
        ops in proptest::collection::vec((0u8..4, 0usize..64), 1..30),
    ) {
        let pool_problem =
            fixtures::random_sparse_problem(seed, n_queries, 10, density_pct as f64 / 100.0);
        pool_edits_and_flips_match_full_evaluation(&pool_problem, mask, &ops);
    }
}
