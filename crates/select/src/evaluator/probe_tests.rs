//! Differential property: [`IncrementalEvaluator::probe`] ≡ the
//! `flip → snapshot → unflip` triple spelled out, and it leaves the
//! evaluator *bit-equal* to where it found it — block sums, term
//! cache, an empty dirty list, the selection — under random walks that
//! interleave accepted flips with pool edits (a new evaluator over the
//! grown, shrunk or re-profiled pool at the same selection) /
//! `update_charge` price splices / `retarget`, on pools where most
//! queries have a dozen answerers or more and the workload spans
//! several [`TIME_FOLD_BLOCK`]s. And the runner-up cache is pinned
//! directly: the two smallest selected times per query, on the SSB
//! lattice's shape.

use mv_cost::CloudCostModel;
use proptest::prelude::*;

use super::*;
use crate::fixtures::{random_sparse_problem, reference_evaluate, with_tied_times};

/// Everything a probe must put back, as bits: block sums, terms,
/// selection. Asserts the fold is settled (nothing dirty).
fn settled_state(ev: &IncrementalEvaluator<'_>) -> (Vec<u64>, Vec<u64>, SelectionSet) {
    assert!(!ev.all_dirty, "all blocks stale");
    assert!(
        ev.dirty_blocks.is_empty(),
        "dirty list {:?}",
        ev.dirty_blocks
    );
    assert!(ev.block_dirty.iter().all(|&d| !d), "stray dirty flag");
    assert!(ev.saved_blocks.is_empty(), "scratch not drained");
    let bits = |v: &[Hours]| v.iter().map(|h| h.value().to_bits()).collect();
    (bits(&ev.block_time), bits(&ev.term), ev.selection.clone())
}

/// What `probe` must equal: apply, snapshot, revert.
fn triple(ev: &mut IncrementalEvaluator<'_>, toggles: &[usize]) -> Evaluation {
    for &k in toggles {
        ev.toggle(k);
    }
    let e = ev.snapshot();
    for &k in toggles.iter().rev() {
        ev.toggle(k);
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn probe_matches_the_triple_and_leaves_no_trace(
        seed in 0u64..10_000,
        n_queries in 1usize..200,
        density_pct in 15u8..60,
        ops in proptest::collection::vec((0u8..8, 0usize..1_000, 0usize..1_000), 1..40),
    ) {
        // 40 candidates at ≥ 15 % density: ≥ 6 answerers per query on
        // average, a dozen and more from 30 % up.
        let pool_problem =
            random_sparse_problem(seed, n_queries, 40, f64::from(density_pct) / 100.0);
        let pool = pool_problem.candidates();
        let mut ev = IncrementalEvaluator::new(&pool_problem);
        let mut recycle = 0usize;
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            let n = ev.problem().len();
            match op {
                // An accepted move: leaves its blocks dirty for the next
                // probe to settle.
                0 | 1 if n > 0 => ev.toggle(a % n),
                // The pool changes under the search: a view joins, one
                // is retired (`Vec::swap_remove`, the selection
                // following), or one's answers change — another
                // candidate in its slot, selected if it was. Each is a
                // new evaluator over the edited pool at the same
                // selection.
                2 | 3 | 5 if n > 1 => {
                    let mut candidates = ev.problem().candidates().to_vec();
                    let mut selected: Vec<bool> = ev.selection().iter().collect();
                    match op {
                        2 => {
                            candidates.push(pool[recycle % pool.len()].clone());
                            selected.push(false);
                            recycle += 1;
                        }
                        3 => {
                            candidates.swap_remove(a % n);
                            selected.swap_remove(a % n);
                        }
                        _ => candidates[a % n] = pool[b % pool.len()].clone(),
                    }
                    let model = ev.problem().model().clone();
                    ev = IncrementalEvaluator::from_problem(SelectionProblem::new(
                        model, candidates,
                    ));
                    for k in SelectionSet::from_bools(&selected).ones() {
                        ev.flip(k);
                    }
                }
                // Re-price in place (the O(1) splice).
                4 if n > 0 => {
                    let k = a % n;
                    let carried = ev.problem().candidates()[k].carried();
                    ev.update_charge(k, carried);
                }
                // New epoch: every frequency and base time moves.
                6 => {
                    let mut ctx = ev.problem().model().context().clone();
                    for (i, q) in ctx.workload.iter_mut().enumerate() {
                        q.frequency = 0.25 + ((a + 7 * i) % 17) as f64 / 4.0;
                        q.base_time = q.base_time * (0.5 + ((b + 3 * i) % 5) as f64 / 4.0);
                    }
                    ev.retarget(CloudCostModel::new(ctx));
                }
                _ => {}
            }
            let n = ev.problem().len();
            if n == 0 {
                continue;
            }
            // One to three toggles (repeats allowed: a view toggled
            // twice must cancel), as single flips and swaps do.
            let toggles: Vec<usize> = [a, b, a ^ b][..1 + (a + b) % 3]
                .iter()
                .map(|&x| x % n)
                .collect();

            let mut twin = ev.clone();
            let expected = triple(&mut twin, &toggles);
            let mut settled = ev.clone();
            settled.refresh_time_blocks();
            let before = settled_state(&settled);

            let got = ev.probe(&toggles);
            prop_assert_eq!(got, expected.score(), "probe ≠ triple at step {}", step);
            prop_assert_eq!(
                got.time.value().to_bits(), expected.time.value().to_bits(),
                "time bits at step {}", step
            );
            prop_assert_eq!(settled_state(&ev), before, "probe left a trace at step {}", step);

            // And the score is the true one: against the slow reference,
            // at the probed selection.
            let mut probed = ev.selection().clone();
            for &k in &toggles {
                probed.toggle(k);
            }
            prop_assert_eq!(
                got.with_selection(probed.clone()),
                reference_evaluate(ev.problem(), &probed),
                "probe ≠ reference at step {}", step
            );
            // A second probe from the settled state refolds only its own
            // blocks and still agrees.
            prop_assert_eq!(ev.probe(&toggles), got, "re-probe at step {}", step);
            prop_assert_eq!(
                ev.snapshot(),
                reference_evaluate(ev.problem(), ev.selection()),
                "position drifted at step {}", step
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cached best and runner-up of every query are the two
    /// smallest times among its *selected* answerers, read off the
    /// profiles — after every accepted flip and every probe, on the
    /// SSB lattice's shape: 63 candidates, a dozen queries, each with
    /// far more answerers than any bounded per-query table could hold,
    /// and tied times throughout. Times are compared, not view ids: a
    /// tie may name either view.
    #[test]
    fn runner_up_is_the_second_fastest_selected_answerer(
        seed in 0u64..10_000,
        n_queries in 1usize..14,
        density_pct in 20u8..75,
        ops in proptest::collection::vec((0u8..4, 0usize..1_000, 0usize..1_000), 1..60),
    ) {
        let n = 63;
        let problem = with_tied_times(&random_sparse_problem(
            seed, n_queries, n, f64::from(density_pct) / 100.0,
        ));
        let answerers = |i: usize| {
            problem.candidates().iter().filter(|v| v.profile.get(i).is_some()).count()
        };
        // 63 × ≥ 20 %: a query with fewer than nine answerers would be
        // a fixture change, not a case of this test.
        prop_assert!((0..n_queries).any(|i| answerers(i) > 8), "seed {}: pool too thin", seed);

        let mut ev = IncrementalEvaluator::new(&problem);
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            match op {
                // A swap probe: it must put both caches back.
                0 => {
                    ev.probe(&[a % n, b % n]);
                }
                _ => ev.toggle(a % n),
            }
            for i in 0..n_queries {
                let mut times: Vec<Hours> = ev
                    .selection()
                    .ones()
                    .filter_map(|k| problem.candidates()[k].profile.get(i))
                    .collect();
                times.sort_by(|x, y| x.partial_cmp(y).expect("finite times"));
                let cached = |view: u32, time: Hours| (view != NONE).then_some(time);
                prop_assert_eq!(
                    cached(ev.best_view[i], ev.best_time[i]), times.first().copied(),
                    "seed {} step {} query {}: best of {:?}", seed, step, i, &times
                );
                prop_assert_eq!(
                    cached(ev.second_view[i], ev.second_time[i]), times.get(1).copied(),
                    "seed {} step {} query {}: runner-up of {:?}", seed, step, i, &times
                );
            }
        }
    }
}
