//! Regression pin: large-neighborhood search never returns a worse
//! objective than the flip/swap improvement pass from the same start.
//!
//! The guarantee is by construction (`lns::refine` runs
//! `local_search::improve` first when `polish_moves > 0`, and rounds
//! only replace the incumbent on strict improvement), so any regression
//! here means the rollback or acceptance logic broke.

use mv_select::lns::{refine, LnsConfig};
use mv_select::local_search::{default_move_budget, improve};
use mv_select::{
    fixtures, solve_lns, solve_local_search, IncrementalEvaluator, Scenario, SelectionSet,
};
use mv_units::{Hours, Money};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// From an arbitrary starting selection, `refine` with the polish
    /// pass on is never worse than `improve` alone with the same move
    /// budget — across all three scenario families.
    #[test]
    fn refine_never_worse_than_improve_from_the_same_start(
        seed in 0u64..10_000,
        n_queries in 1usize..20,
        n_candidates in 2usize..12,
        density_pct in 10u8..90,
        mask in 0u64..(1 << 12),
        which in 0u8..3,
    ) {
        let p = fixtures::random_sparse_problem(
            seed, n_queries, n_candidates, density_pct as f64 / 100.0);
        let baseline = p.baseline();
        let scenario = match which {
            0 => Scenario::budget(baseline.cost() + Money::from_cents(60)),
            1 => Scenario::time_limit(Hours::new(0.4)),
            _ => Scenario::tradeoff_normalized(0.5),
        };
        let start = SelectionSet::from_mask(mask & ((1u64 << p.len()) - 1), p.len());
        let budget = default_move_budget(p.len());

        let mut plain_ev = IncrementalEvaluator::with_selection(&p, &start);
        let plain = improve(&mut plain_ev, scenario, &baseline, budget);

        let mut lns_ev = IncrementalEvaluator::with_selection(&p, &start);
        let cfg = LnsConfig {
            polish_moves: budget,
            ..LnsConfig::for_problem(p.len())
        };
        let refined = refine(&mut lns_ev, scenario, &baseline, &cfg);

        prop_assert!(
            !scenario.better(&plain, &refined, &baseline),
            "improve beat LNS: improve {:?} vs lns {:?} ({})",
            plain.time, refined.time, scenario.label()
        );
        // And the reported evaluation is honest: re-evaluating its
        // selection from scratch reproduces it bit-for-bit.
        prop_assert_eq!(&refined, &p.evaluate(&refined.selection));
    }

    /// The solver-level wrapper inherits the guarantee: `solve_lns` is
    /// never worse than `solve_local_search` on small pools (where the
    /// polish pass is on by default).
    #[test]
    fn solve_lns_never_worse_than_solve_local_search(
        seed in 0u64..10_000,
        n_queries in 1usize..8,
        n_candidates in 2usize..10,
        which in 0u8..3,
    ) {
        let p = fixtures::random_problem(seed, n_queries, n_candidates);
        let baseline = p.baseline();
        let scenario = match which {
            0 => Scenario::budget(baseline.cost() + Money::from_cents(60)),
            1 => Scenario::time_limit(Hours::new(0.4)),
            _ => Scenario::tradeoff_normalized(0.5),
        };
        let ls = solve_local_search(&p, scenario);
        let lns = solve_lns(&p, scenario);
        prop_assert!(
            !scenario.better(&ls.evaluation, &lns.evaluation, &lns.baseline),
            "local search beat LNS under {}", scenario.label()
        );
    }
}
