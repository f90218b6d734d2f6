//! Multi-epoch horizon: warm-started epoch re-solve vs rebuilding the
//! problem per epoch.
//!
//! Two shapes, mirroring the candidate-churn bench's split between
//! machinery and end-to-end:
//!
//! 1. **epoch transition** — the per-boundary state handoff alone:
//!    `retarget` (O(m) model swap, answer caches survive) plus
//!    `update_charge` splices for the candidates whose carried state
//!    flipped, then one snapshot — vs building the re-priced charge
//!    vector, a fresh `SelectionProblem`, a fresh evaluator repositioned
//!    by O(n) flips, and one snapshot.
//! 2. **chain solve** — `EpochChain::solve` vs two rebuild policies
//!    over an 8-epoch mildly-drifting horizon: `solve_rebuilding` on
//!    the same single-pool spec (the bit-identical reference that
//!    rebuilds the machinery but keeps the warm selection) and the
//!    pre-refactor "one problem, one solve"
//!    policy that also re-derives every epoch's selection from scratch
//!    (greedy fill + improve on a fresh problem).
//!
//! The acceptance bar for this PR: warm-start measurably faster than
//! rebuild in both groups (ratios recorded in ROADMAP.md).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mv_select::epoch::{ChainSpec, EpochChain};
use mv_select::{IncrementalEvaluator, Scenario, SelectionProblem, SelectionSet};
use mvcloud::CloudCostModel;

/// The streaming/churn hot-path shape (shared: `mv_bench::shapes`).
const CANDIDATES: usize = mv_bench::shapes::HOT_CANDIDATES;

/// Two epoch models over the same workload with drifted frequencies.
fn epoch_models(problem: &SelectionProblem) -> (CloudCostModel, CloudCostModel) {
    let a = problem.model().clone();
    let mut ctx = problem.model().context().clone();
    for (i, q) in ctx.workload.iter_mut().enumerate() {
        q.frequency *= 1.0 + 0.5 * ((i % 3) as f64 - 1.0);
    }
    (a, CloudCostModel::new(ctx))
}

fn bench_epoch_transition(c: &mut Criterion) {
    let problem = mv_bench::shapes::hot_problem(41);
    let (model_a, model_b) = epoch_models(&problem);
    // Half the pool selected → half the charges flip carried state at
    // every boundary.
    let mut selection = SelectionSet::empty(CANDIDATES);
    for k in (0..CANDIDATES).step_by(2) {
        selection.set(k, true);
    }
    let pool = problem.candidates().to_vec();
    let mut group = c.benchmark_group(format!("horizon/transition_n{CANDIDATES}"));

    group.bench_function(BenchmarkId::from_parameter("rebuild_reposition"), |b| {
        let mut flip = false;
        b.iter(|| {
            // One epoch boundary the pre-chain way: re-price the pool,
            // rebuild the problem, rebuild + reposition the evaluator.
            flip = !flip;
            let model = if flip { &model_b } else { &model_a };
            let mut charged = pool.clone();
            for k in selection.ones() {
                charged[k].set_price(pool[k].carried());
            }
            let p = SelectionProblem::new(model.clone(), charged);
            let mut ev = IncrementalEvaluator::with_selection(&p, &selection);
            black_box(ev.snapshot().time.value())
        })
    });

    group.bench_function(BenchmarkId::from_parameter("warm_start"), |b| {
        let mut ev = IncrementalEvaluator::from_problem(SelectionProblem::new(
            model_a.clone(),
            pool.clone(),
        ));
        for k in selection.ones() {
            ev.flip(k);
        }
        // Alternate carried-state: selected views carry across odd
        // boundaries and revert on even ones, so every iteration
        // splices the same number of charges.
        let mut carried = false;
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let model = if flip { &model_b } else { &model_a };
            ev.retarget(model.clone());
            carried = !carried;
            for k in selection.ones() {
                let price = if carried {
                    pool[k].carried()
                } else {
                    pool[k].price()
                };
                ev.update_charge(k, price);
            }
            black_box(ev.snapshot().time.value())
        })
    });
    group.finish();
}

fn bench_chain_solve(c: &mut Criterion) {
    const EPOCHS: usize = 8;
    let problem = mv_bench::shapes::hot_problem(43);
    let models: Vec<CloudCostModel> = (0..EPOCHS)
        .map(|e| {
            let mut ctx = problem.model().context().clone();
            // Mild seasonal drift: frequencies sway ±20%, so the
            // standing selection usually survives an epoch boundary —
            // the regime warm-starting is built for.
            for (i, q) in ctx.workload.iter_mut().enumerate() {
                let phase = std::f64::consts::TAU * ((e % 4) as f64 / 4.0 + i as f64 / 30.0);
                q.frequency *= 1.0 + 0.2 * phase.sin();
            }
            CloudCostModel::new(ctx)
        })
        .collect();
    let chain = EpochChain::new(models, problem.candidates().to_vec());
    let scenario = Scenario::tradeoff_normalized(0.5);
    // `solve`'s own spec, for the rebuilding reference.
    let spec = ChainSpec::single_pool(mv_select::local_search::default_move_budget(CANDIDATES));
    // Sanity: warm and rebuild must agree before we time them.
    {
        let warm = chain.solve(scenario);
        let rebuilt = chain.solve_rebuilding(scenario, &spec);
        for (w, r) in warm.iter().zip(&rebuilt) {
            assert_eq!(w.outcome.evaluation, r.outcome.evaluation);
        }
    }
    let mut group = c.benchmark_group(format!("horizon/chain_solve_e{EPOCHS}_n{CANDIDATES}"));
    group.bench_function(BenchmarkId::from_parameter("resolve_from_scratch"), |b| {
        // The pre-refactor policy: every epoch builds a fresh charged
        // problem and re-derives its selection from empty (the
        // transition accounting is honored, the *search state* is not).
        b.iter(|| {
            let pool = chain.pool();
            let mut prev = SelectionSet::empty(pool.len());
            let mut total = 0usize;
            for model in chain.epochs() {
                let mut charged = pool.to_vec();
                for k in prev.ones() {
                    charged[k].set_price(pool[k].carried());
                }
                let p = SelectionProblem::new(model.clone(), charged);
                let o = mv_select::solve_local_search(&p, scenario);
                total += o.evaluation.num_selected();
                prev = o.evaluation.selection.clone();
            }
            black_box(total)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("rebuild_per_epoch"), |b| {
        b.iter(|| black_box(chain.solve_rebuilding(scenario, &spec).len()))
    });
    group.bench_function(BenchmarkId::from_parameter("warm_start"), |b| {
        b.iter(|| black_box(chain.solve(scenario).len()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = mv_bench::shapes::fast_config();
    targets = bench_epoch_transition, bench_chain_solve
}
criterion_main!(benches);
