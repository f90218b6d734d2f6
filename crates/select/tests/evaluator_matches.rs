//! Property: the incremental evaluator agrees **exactly** with full
//! re-evaluation — time, total cost, and every breakdown component —
//! over random problems and random flip sequences.
//!
//! This is the contract every solver now leans on: greedy, the knapsack
//! repair, branch-and-bound and the exhaustive/Pareto sweeps all probe
//! through [`IncrementalEvaluator`], so a single bit of drift here would
//! silently change solver outcomes.

use mv_select::{fixtures, IncrementalEvaluator, SelectionSet};
use proptest::prelude::*;

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

    /// Dynamic candidate churn: random interleavings of
    /// `add_candidate` / `remove_candidate` / selection flips /
    /// **placement flips** agree **bit-for-bit** with rebuilding the
    /// evaluator from the equivalent static problem after every single
    /// operation. The mirror applies the same ops to a plain candidate
    /// vector (`Vec::swap_remove` ↔ the evaluator's swap-remove index
    /// semantics) and re-evaluates from scratch.
    ///
    /// A placement flip is what the mixed-fleet solver's `Place` move
    /// does: re-derive the view's effective price for the other pool
    /// from its pristine pool entry (spot here: half-rate hours plus an
    /// interruption premium) and splice it with `update_charge` — O(1),
    /// selected or not.
    ///
    /// 128 cases × up to 30 ops ⇒ well over the 100 random
    /// interleavings the acceptance bar asks for.
    #[test]
    fn dynamic_interleavings_match_rebuilt_static_problem(
        seed in 0u64..10_000,
        n_queries in 1usize..6,
        mask in 0u64..(1 << 10),
        ops in proptest::collection::vec((0u8..4, 0usize..64), 1..30),
    ) {
        use mv_cost::{InterruptionRisk, Placement, PoolCharge, Price, ViewCharge};

        let pool_problem = fixtures::random_problem(seed, n_queries, 10);
        let model = pool_problem.model().clone();
        let pool = pool_problem.candidates().to_vec();

        // Start from a *borrowed* evaluator at a random position, so the
        // first dynamic edit also exercises the copy-on-write promotion.
        let start = SelectionSet::from_mask(mask & ((1 << 10) - 1), pool.len());
        let mut ev = IncrementalEvaluator::with_selection(&pool_problem, &start);

        // The independent mirror: same candidate vector + bool selection,
        // rebuilt into a fresh problem after every op. `pristine` tracks
        // each slot's full-price pool entry so a placement flip always
        // derives from the same base (flip twice = bit-identical
        // restore).
        let mut mirror = pool.clone();
        let mut pristine = pool.clone();
        let mut mirror_sel: Vec<bool> = start.iter().collect();
        let mut recycle = 0usize;
        let spot_pool = PoolCharge::new(0.5, 1.25, InterruptionRisk::new(0.25));
        let placed = |base: &ViewCharge, p: Placement| -> Price {
            let price = match p {
                Placement::Reserved => base.price(),
                Placement::Spot => spot_pool.adjust(base.price()),
            };
            Price { placement: p, ..price }
        };

        for (step, &(op, arg)) in ops.iter().enumerate() {
            match op {
                // Add: splice in a (possibly repeated) pool charge.
                0 => {
                    let charge = pool[recycle % pool.len()].clone();
                    recycle += 1;
                    let k = ev.add_candidate(charge.clone());
                    prop_assert_eq!(k, mirror.len(), "add index at step {}", step);
                    mirror.push(charge.clone());
                    pristine.push(charge);
                    mirror_sel.push(false);
                }
                // Remove: retire an arbitrary candidate (selected or not).
                1 => {
                    if mirror.is_empty() {
                        continue;
                    }
                    let j = arg % mirror.len();
                    let removed = ev.remove_candidate(j);
                    let expected = mirror.swap_remove(j);
                    pristine.swap_remove(j);
                    mirror_sel.swap_remove(j);
                    prop_assert_eq!(removed, expected, "removed charge at step {}", step);
                }
                // Flip: toggle an arbitrary candidate's selection.
                2 => {
                    if mirror.is_empty() {
                        continue;
                    }
                    let j = arg % mirror.len();
                    ev.toggle(j);
                    mirror_sel[j] = !mirror_sel[j];
                }
                // Placement flip: move an arbitrary candidate to the
                // other pool via an update_charge splice.
                _ => {
                    if mirror.is_empty() {
                        continue;
                    }
                    let j = arg % mirror.len();
                    let flipped = mirror[j].placement.flipped();
                    let price = placed(&pristine[j], flipped);
                    let old = ev.update_charge(j, price);
                    prop_assert_eq!(old, mirror[j].price(), "displaced price at step {}", step);
                    mirror[j].set_price(price);
                }
            }
            let rebuilt = mv_select::SelectionProblem::new(model.clone(), mirror.clone());
            let sel = SelectionSet::from_bools(&mirror_sel);
            let incremental = ev.snapshot();
            let full = rebuilt.evaluate(&sel);
            prop_assert_eq!(&incremental.selection, &full.selection,
                "selection diverged at step {}", step);
            prop_assert_eq!(incremental.time, full.time,
                "time diverged at step {}", step);
            prop_assert_eq!(&incremental.breakdown, &full.breakdown,
                "breakdown diverged at step {}", step);
            prop_assert_eq!(incremental.cost(), full.cost(),
                "cost diverged at step {}", step);
        }
    }

    /// Random **sparse** answer profiles — the regime the struct-of-
    /// arrays top-k tables exist for: larger workloads where most views
    /// answer a few queries (density down to 3%) and some queries have
    /// more answerers than `ANSWER_TOP_K` slots (density up to 90%).
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

    /// Sparse profiles under dynamic churn: the same
    /// add/remove/flip/placement-flip interleavings as the dense suite,
    /// over a sparse pool with a wide workload — so the top-k tables see
    /// entry removal, swap-remove renumbering and resplices, not just
    /// flips. Mirrors against a rebuilt static problem after every op.
    #[test]
    fn sparse_dynamic_interleavings_match_rebuilt_static_problem(
        seed in 0u64..10_000,
        n_queries in 1usize..32,
        density_pct in 5u8..80,
        mask in 0u64..(1 << 10),
        ops in proptest::collection::vec((0u8..4, 0usize..64), 1..30),
    ) {
        use mv_cost::{InterruptionRisk, Placement, PoolCharge, Price, ViewCharge};

        let pool_problem =
            fixtures::random_sparse_problem(seed, n_queries, 10, density_pct as f64 / 100.0);
        let model = pool_problem.model().clone();
        let pool = pool_problem.candidates().to_vec();

        let start = SelectionSet::from_mask(mask & ((1 << 10) - 1), pool.len());
        let mut ev = IncrementalEvaluator::with_selection(&pool_problem, &start);

        let mut mirror = pool.clone();
        let mut pristine = pool.clone();
        let mut mirror_sel: Vec<bool> = start.iter().collect();
        let mut recycle = 0usize;
        let spot_pool = PoolCharge::new(0.5, 1.25, InterruptionRisk::new(0.25));
        let placed = |base: &ViewCharge, p: Placement| -> Price {
            let price = match p {
                Placement::Reserved => base.price(),
                Placement::Spot => spot_pool.adjust(base.price()),
            };
            Price { placement: p, ..price }
        };

        for (step, &(op, arg)) in ops.iter().enumerate() {
            match op {
                0 => {
                    let charge = pool[recycle % pool.len()].clone();
                    recycle += 1;
                    let k = ev.add_candidate(charge.clone());
                    prop_assert_eq!(k, mirror.len(), "add index at step {}", step);
                    mirror.push(charge.clone());
                    pristine.push(charge);
                    mirror_sel.push(false);
                }
                1 => {
                    if mirror.is_empty() {
                        continue;
                    }
                    let j = arg % mirror.len();
                    let removed = ev.remove_candidate(j);
                    let expected = mirror.swap_remove(j);
                    pristine.swap_remove(j);
                    mirror_sel.swap_remove(j);
                    prop_assert_eq!(removed, expected, "removed charge at step {}", step);
                }
                2 => {
                    if mirror.is_empty() {
                        continue;
                    }
                    let j = arg % mirror.len();
                    ev.toggle(j);
                    mirror_sel[j] = !mirror_sel[j];
                }
                _ => {
                    if mirror.is_empty() {
                        continue;
                    }
                    let j = arg % mirror.len();
                    let flipped = mirror[j].placement.flipped();
                    let price = placed(&pristine[j], flipped);
                    let old = ev.update_charge(j, price);
                    prop_assert_eq!(old, mirror[j].price(), "displaced price at step {}", step);
                    mirror[j].set_price(price);
                }
            }
            let rebuilt = mv_select::SelectionProblem::new(model.clone(), mirror.clone());
            let sel = SelectionSet::from_bools(&mirror_sel);
            let incremental = ev.snapshot();
            let full = rebuilt.evaluate(&sel);
            prop_assert_eq!(incremental.time, full.time,
                "time diverged at step {}", step);
            prop_assert_eq!(&incremental.breakdown, &full.breakdown,
                "breakdown diverged at step {}", step);
            prop_assert_eq!(incremental.cost(), full.cost(),
                "cost diverged at step {}", step);
        }
    }

    /// Problems with insert events exercise the evaluator's storage
    /// interval template (multi-interval timelines).
    #[test]
    fn storage_intervals_survive_inserts(
        seed in 0u64..10_000,
        insert_month in 1u8..11,
        insert_gb in 1u32..500,
        mask in 0u64..(1 << 6),
    ) {
        use mv_cost::CloudCostModel;
        use mv_units::{Gb, Months};

        let base = fixtures::random_problem(seed, 3, 6);
        let mut ctx = base.model().context().clone();
        ctx.months = Months::new(12.0);
        ctx.inserts = vec![(Months::new(insert_month as f64), Gb::new(insert_gb as f64))];
        let problem = mv_select::SelectionProblem::new(
            CloudCostModel::new(ctx),
            base.candidates().to_vec(),
        );

        let sel = SelectionSet::from_mask(mask, problem.len());
        let mut ev = IncrementalEvaluator::with_selection(&problem, &sel);
        prop_assert_eq!(ev.snapshot(), problem.evaluate(&sel));
    }
}
