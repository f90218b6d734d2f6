//! Property: a horizon of identical epochs (zero drift) reproduces the
//! single-period solve bit-for-bit, per epoch.
//!
//! With no drift the chain's epoch 0 *is* the single-period problem, so
//! its solve must match `solve_local_search` exactly. Every later epoch
//! then carries the standing selection — whose materialization is sunk
//! — and hour rounding guarantees the marginal cost of any move is at
//! least what it was in the single-period problem (`ceil(a+b) − ceil(a)
//! ≤ ceil(b)`), so the selection is still a local optimum and must not
//! move. The per-epoch `full_price` reference (the selection re-priced
//! as if the epoch stood alone) must equal the single-period evaluation
//! bit-for-bit — through an evaluator that has been `retarget`ed and
//! charge-spliced at every boundary, which is exactly the warm-start
//! machinery under test. The warm-started chain must also agree
//! bit-for-bit with the rebuild-per-epoch reference implementation.
//!
//! MV1 is deliberately excluded: under a budget constraint the carried
//! discount frees headroom, so later epochs can legitimately afford
//! views the single-period solve could not (see `mv_select::epoch`'s
//! module docs).

use mv_select::epoch::{ChainSpec, EpochChain};
use mv_select::{fixtures, solve_local_search, Scenario};
use mv_units::Hours;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
        let solo = solve_local_search(&p, scenario);
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
                    mv_units::Money::ZERO
                );
            }
        }

        // The warm-started chain and the rebuild-per-epoch reference
        // are the same algorithm: bit-identical steps.
        let rebuilt = chain.solve_rebuilding(scenario, &spec);
        for (e, (w, r)) in steps.iter().zip(&rebuilt).enumerate() {
            prop_assert_eq!(&w.outcome.evaluation, &r.outcome.evaluation, "epoch {}", e);
            prop_assert_eq!(&w.full_price, &r.full_price, "epoch {}", e);
        }
    }
}
