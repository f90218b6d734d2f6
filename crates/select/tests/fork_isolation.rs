//! Property: an evaluator and its forks — forks of forks included —
//! never see each other's edits, whatever they share underneath.
//!
//! Every live evaluator takes random interleaved ops (`toggle`,
//! `probe`, `update_charge`, `retarget`); forks are taken and dropped
//! mid-stream. After every op every live
//! evaluator's `snapshot()` equals `problem().evaluate(selection())`
//! and equals a **never-forked twin** that received only that
//! evaluator's own ops (a fork's twin replays its origin's history up
//! to the fork point onto a fresh build, then follows the fork).
//! `Evaluation`'s equality is `f64` equality field by field — bit for
//! bit, there being no NaN or signed zero in a bill.
//!
//! Failure messages carry the fixture seed and the op index: the
//! vendored proptest does not shrink.

use mv_cost::{Price, SelectionSet};
use mv_select::{fixtures, IncrementalEvaluator};
use proptest::prelude::*;

/// At most this many evaluators alive at once.
const MAX_LIVE: usize = 5;

/// One op on one evaluator, as recorded in its history. Arguments are
/// raw draws, reduced modulo the pool size where they are applied.
#[derive(Debug, Clone, Copy)]
enum Op {
    Toggle(usize),
    Probe(usize, usize),
    UpdateCharge(usize),
    Retarget(usize),
}

/// Applies `op` to `ev`. A probe is checked here, against the full
/// evaluation of the neighbour it names.
fn apply(ev: &mut IncrementalEvaluator<'static>, op: Op, context: &str) {
    let n = ev.problem().len();
    match op {
        Op::Toggle(k) => ev.toggle(k % n),
        Op::Probe(a, b) => {
            let (a, b) = (a % n, b % n);
            let toggles = if a == b { vec![a] } else { vec![a, b] };
            let mut neighbour: SelectionSet = ev.selection().clone();
            for &k in &toggles {
                neighbour.set(k, !neighbour.contains(k));
            }
            let full = ev.problem().evaluate(&neighbour).score();
            // A probe is one toggle: the leading ones are applied for
            // real around it.
            let (&last, leading) = toggles.split_last().expect("one or two toggles");
            for &k in leading {
                ev.toggle(k);
            }
            let probed = ev.probe(last);
            for &k in leading.iter().rev() {
                ev.toggle(k);
            }
            assert_eq!(probed, full, "{context}: {op:?} vs evaluate");
        }
        Op::UpdateCharge(k) => {
            let view = &ev.problem().candidates()[k % n];
            // Carry the view; a carried one gets its build time back,
            // doubled, so repeated splices keep moving the price.
            let price = if view.price() == view.carried() {
                Price {
                    materialization: view.maintenance + view.maintenance,
                    ..view.price()
                }
            } else {
                view.carried()
            };
            ev.update_charge(k % n, price);
        }
        Op::Retarget(r) => {
            let model = ev.problem().model();
            let frequencies: Vec<f64> = (0..model.context().workload.len())
                .map(|i| ((i * 7 + r * 13) % 11) as f64 * 0.5)
                .collect();
            let model = model.with_frequencies(&frequencies);
            ev.retarget(model);
        }
    }
}

/// An evaluator under test, the ops that produced it (its origin's up
/// to the fork point, then its own) and the twin that took them all
/// without ever being forked or forking.
struct Live {
    ev: IncrementalEvaluator<'static>,
    twin: IncrementalEvaluator<'static>,
    history: Vec<Op>,
}

fn decode(kind: u8, a: usize, b: usize) -> Op {
    match kind {
        0..=2 => Op::Toggle(a),
        3 => Op::Probe(a, b),
        4 => Op::UpdateCharge(a),
        _ => Op::Retarget(a),
    }
}

/// Runs one case: `steps` are `(target, kind, a, b)` draws; kinds 6 and
/// 7 fork and drop, the rest decode to an [`Op`] on `target`.
fn run_case(
    seed: u64,
    n_queries: usize,
    n_candidates: usize,
    density: f64,
    steps: &[(usize, u8, usize, usize)],
) {
    let pool = fixtures::random_sparse_problem(seed, n_queries, n_candidates, density);
    let fresh = || IncrementalEvaluator::from_problem(pool.clone());
    let mut live = vec![Live {
        ev: fresh(),
        twin: fresh(),
        history: Vec::new(),
    }];
    for (step, &(target, kind, a, b)) in steps.iter().enumerate() {
        let at = target % live.len();
        let context = format!("seed {seed} step {step} evaluator {at} of {}", live.len());
        match kind {
            6 if live.len() < MAX_LIVE => {
                let origin = &live[at];
                let mut twin = fresh();
                for &op in &origin.history {
                    apply(&mut twin, op, &context);
                }
                let fork = Live {
                    ev: origin.ev.fork(),
                    twin,
                    history: origin.history.clone(),
                };
                live.push(fork);
            }
            7 if live.len() > 1 => {
                // Any of them may go — the original included; whatever
                // the rest still share must survive it.
                live.swap_remove(at);
            }
            _ => {
                let op = decode(kind, a, b);
                let subject = &mut live[at];
                apply(&mut subject.ev, op, &context);
                apply(&mut subject.twin, op, &context);
                subject.history.push(op);
            }
        }
        // Every live evaluator, not just the one written to: an edit
        // that leaks through shared state shows on its neighbours.
        for (i, l) in live.iter_mut().enumerate() {
            let got = l.ev.snapshot();
            let full = l.ev.problem().evaluate(l.ev.selection());
            assert_eq!(got, full, "{context}: evaluator {i} vs evaluate");
            assert_eq!(got, l.twin.snapshot(), "{context}: evaluator {i} vs twin");
            assert_eq!(
                l.ev.problem().candidates(),
                l.twin.problem().candidates(),
                "{context}: evaluator {i} pool vs twin"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forks_and_their_origins_never_see_each_other(
        seed in 0u64..10_000,
        n_queries in 1usize..70,
        n_candidates in 1usize..10,
        dense in prop::bool::ANY,
        steps in prop::collection::vec((0usize..MAX_LIVE, 0u8..8, 0usize..64, 0usize..64), 1..48),
    ) {
        let density = if dense { 0.6 } else { 0.1 };
        run_case(seed, n_queries, n_candidates, density, &steps);
    }
}
