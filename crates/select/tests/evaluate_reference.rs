//! Differential property: `SelectionProblem::evaluate` — one scattered
//! Formula 9 fold, O(m + Σ deg) — is bit-identical to the slow
//! reference it replaced (`fixtures::reference_evaluate`: every query's
//! time through `query_time_with_views`, every candidate's bit tested
//! in turn), and so is the model's `with_views`. Workloads span several
//! `TIME_FOLD_BLOCK`s and pools span several selection words, so block
//! boundaries and word boundaries are both crossed.

use mv_select::{fixtures, SelectionSet};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn evaluate_matches_the_per_query_reference(
        seed in 0u64..10_000,
        n_queries in 1usize..260,
        n_candidates in 1usize..150,
        density_pct in 1u8..40,
        picks in proptest::collection::vec(0usize..150, 0..90),
    ) {
        let problem = fixtures::random_sparse_problem(
            seed, n_queries, n_candidates, f64::from(density_pct) / 100.0,
        );
        let mut sel = SelectionSet::empty(problem.len());
        for &k in &picks {
            let k = k % problem.len();
            sel.set(k, !sel.contains(k));
        }
        for sel in [sel, SelectionSet::empty(problem.len()), SelectionSet::full(problem.len())] {
            let full = problem.evaluate(&sel);
            let reference = fixtures::reference_evaluate(&problem, &sel);
            prop_assert_eq!(
                full.time.value().to_bits(), reference.time.value().to_bits(),
                "time bits, {} selected", sel.count_ones()
            );
            prop_assert_eq!(&full, &reference);
            prop_assert_eq!(
                problem.model().with_views(problem.candidates(), &sel),
                reference.breakdown
            );
        }
        prop_assert_eq!(problem.baseline(), problem.evaluate(&SelectionSet::empty(problem.len())));
    }
}
