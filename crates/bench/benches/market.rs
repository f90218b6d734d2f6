//! Market sweep: retarget-based price-drift handoff vs rebuilding per
//! epoch, across K sampled price paths.
//!
//! Two shapes, mirroring the horizon bench's machinery/end-to-end
//! split:
//!
//! 1. **price-drift handoff** — one epoch boundary under price dynamics
//!    alone: `retarget` to the re-priced model plus an `update_charge`
//!    splice per candidate whose risk-adjusted charge moved (all of
//!    them: the interruption premium re-risks the whole pool) and one
//!    snapshot — vs re-pricing the charge vector, building a fresh
//!    `SelectionProblem` and a fresh evaluator repositioned by O(n)
//!    flips, and one snapshot.
//! 2. **K-path sweep** — the `solve_market` hot loop at the `mv-select`
//!    layer: K sampled spot paths, each solved over an 8-epoch horizon
//!    by `EpochChain::solve_with` on its own chain (one live evaluator
//!    per path) vs `solve_rebuilding` on the same spec (fresh problem +
//!    evaluator every epoch). Identical outcomes (asserted before
//!    timing), only the state handoff differs.
//! 3. **scenario tree vs unshared** — K = 32 paths as one prefix
//!    forest vs the same paths one at a time.
//!
//! The acceptance bar for this PR: warm-start measurably faster than
//! rebuild in both groups (ratios recorded in ROADMAP.md).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mv_select::epoch::{ChainSpec, EpochChain, EpochStep, EpochTree, EpochTreeNode, Topology};
use mv_select::{IncrementalEvaluator, Placement, Scenario, SelectionProblem, SelectionSet};
use mvcloud::cost::{InterruptionRisk, Price};
use mvcloud::market::{MarketPath, MarketScenario, PriceProcess, ScenarioTree, SpotMarket};
use mvcloud::CloudCostModel;

/// The streaming/churn hot-path shape (shared: `mv_bench::shapes`).
const CANDIDATES: usize = mv_bench::shapes::HOT_CANDIDATES;
const EPOCHS: usize = 8;
const PATHS: usize = 8;

/// The scenario-tree sweep width (the tentpole's acceptance shape).
const TREE_PATHS: usize = 32;

/// A volatile discounted spot market over the bench horizon.
fn spot_market(seed: u64) -> MarketScenario {
    MarketScenario::constant(EPOCHS, seed)
        .with(PriceProcess::Spot(SpotMarket::discounted(0.5, 0.4)))
}

/// Compiles one sampled path into per-epoch models + risks over the
/// bench problem (the same shape `Advisor::solve_market` builds).
fn compile_path(
    problem: &SelectionProblem,
    path: &MarketPath,
) -> (Vec<CloudCostModel>, Vec<InterruptionRisk>) {
    let base = problem.model().context();
    let models = path
        .quotes
        .iter()
        .map(|q| {
            let mut ctx = base.clone();
            ctx.pricing = q.reprice(&base.pricing);
            ctx.instance = ctx
                .pricing
                .compute
                .instance(&base.instance.name)
                .expect("bench instance is in the catalog")
                .clone();
            CloudCostModel::new(ctx)
        })
        .collect();
    let risks = path
        .quotes
        .iter()
        .map(|q| InterruptionRisk::new(q.interruption))
        .collect();
    (models, risks)
}

/// The single-pool spec the market solve runs: every charge re-risked
/// by its node's (a path's: its epoch's) interruption premium.
fn risk_spec(
    risks: &[InterruptionRisk],
    max_moves: usize,
) -> ChainSpec<'static, impl Fn(usize, usize, Placement, Price) -> Price + Sync + '_> {
    ChainSpec {
        reprice: move |node: usize, _k: usize, _p: Placement, v: Price| risks[node].adjust(v),
        initial: None,
        rebalance: false,
        max_moves,
    }
}

/// One path solved alone, on its own chain.
fn solve_path(
    chain: &EpochChain,
    risks: &[InterruptionRisk],
    scenario: Scenario,
    max_moves: usize,
) -> Vec<EpochStep> {
    chain
        .solve_with(scenario, &risk_spec(risks, max_moves), Topology::Path)
        .remove(0)
}

fn bench_price_drift_handoff(c: &mut Criterion) {
    let problem = mv_bench::shapes::hot_problem(41);
    let path = spot_market(7).path(1);
    let (models, _) = compile_path(&problem, &path);
    let (model_a, model_b) = (models[0].clone(), models[1].clone());
    // Alternating interruption regimes: every boundary re-risks the
    // whole pool (the market worst case — nothing short-circuits).
    let (risk_a, risk_b) = (InterruptionRisk::new(0.1), InterruptionRisk::new(0.4));
    let mut selection = SelectionSet::empty(CANDIDATES);
    for k in (0..CANDIDATES).step_by(2) {
        selection.set(k, true);
    }
    let pool = problem.candidates().to_vec();
    let mut group = c.benchmark_group(format!("market/price_drift_handoff_n{CANDIDATES}"));

    group.bench_function(BenchmarkId::from_parameter("rebuild_reposition"), |b| {
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let (model, risk) = if flip {
                (&model_b, &risk_b)
            } else {
                (&model_a, &risk_a)
            };
            let mut charged = pool.clone();
            for (k, v) in charged.iter_mut().enumerate() {
                v.set_price(risk.adjust(if selection.contains(k) {
                    v.carried()
                } else {
                    v.price()
                }));
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
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let (model, risk) = if flip {
                (&model_b, &risk_b)
            } else {
                (&model_a, &risk_a)
            };
            ev.retarget(model.clone());
            for (k, v) in pool.iter().enumerate() {
                let transition = if selection.contains(k) {
                    v.carried()
                } else {
                    v.price()
                };
                ev.update_charge(k, risk.adjust(transition));
            }
            black_box(ev.snapshot().time.value())
        })
    });
    group.finish();
}

fn bench_k_path_sweep(c: &mut Criterion) {
    let problem = mv_bench::shapes::hot_problem(43);
    let market = spot_market(99);
    let paths: Vec<(EpochChain, Vec<InterruptionRisk>)> = (0..PATHS)
        .map(|j| {
            let path = market.path(j);
            let (models, risks) = compile_path(&problem, &path);
            (
                EpochChain::new(models, problem.candidates().to_vec()),
                risks,
            )
        })
        .collect();
    let scenario = Scenario::tradeoff_normalized(0.5);
    let budget = 2 * CANDIDATES + 8;
    // Sanity: warm and rebuild must agree before we time them.
    for (chain, risks) in &paths {
        let warm = solve_path(chain, risks, scenario, budget);
        let rebuilt = chain.solve_rebuilding(scenario, &risk_spec(risks, budget));
        for (w, r) in warm.iter().zip(&rebuilt) {
            assert_eq!(w.outcome.evaluation, r.outcome.evaluation);
        }
    }
    let mut group = c.benchmark_group(format!(
        "market/k_path_sweep_k{PATHS}_e{EPOCHS}_n{CANDIDATES}"
    ));
    group.bench_function(BenchmarkId::from_parameter("rebuild_per_epoch"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (chain, risks) in &paths {
                total += chain
                    .solve_rebuilding(scenario, &risk_spec(risks, budget))
                    .len();
            }
            black_box(total)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("warm_start"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (chain, risks) in &paths {
                total += solve_path(chain, risks, scenario, budget).len();
            }
            black_box(total)
        })
    });
    group.finish();
}

/// Shared vs unshared at K = 32. The unshared sweep solves every path
/// alone on its own chain — 32 evaluator builds (one greedy fill each)
/// plus 32 × 7 retargets. The scenario tree factors
/// the sampled paths into a prefix forest (the spot process pins epoch
/// 0, so all 32 share one root) and solves each *node* once: 1 build,
/// one retarget per edge, a cheap fork per extra sibling. Identical
/// outcomes are asserted before timing.
fn bench_scenario_tree_vs_flat(c: &mut Criterion) {
    let problem = mv_bench::shapes::hot_problem(61);
    let market = spot_market(17);
    let sampled: Vec<MarketPath> = (0..TREE_PATHS).map(|j| market.path(j)).collect();

    // Unshared reference: one chain + per-epoch risks per path.
    let flat: Vec<(EpochChain, Vec<InterruptionRisk>)> = sampled
        .iter()
        .map(|p| {
            let (models, risks) = compile_path(&problem, p);
            (
                EpochChain::new(models, problem.candidates().to_vec()),
                risks,
            )
        })
        .collect();

    // Tree route: one repriced model + risk per *node*.
    let stree = ScenarioTree::from_paths(&sampled);
    assert!(
        stree.len() < TREE_PATHS * EPOCHS,
        "fixture must actually share prefixes"
    );
    let base = problem.model().context();
    let nodes: Vec<EpochTreeNode> = stree
        .nodes()
        .iter()
        .map(|n| {
            let mut ctx = base.clone();
            ctx.pricing = n.quote.reprice(&base.pricing);
            ctx.instance = ctx
                .pricing
                .compute
                .instance(&base.instance.name)
                .expect("bench instance is in the catalog")
                .clone();
            EpochTreeNode {
                parent: n.parent,
                epoch: n.epoch,
                model: CloudCostModel::new(ctx),
            }
        })
        .collect();
    let node_risks: Vec<InterruptionRisk> = stree
        .nodes()
        .iter()
        .map(|n| InterruptionRisk::new(n.quote.interruption))
        .collect();
    let leaves: Vec<usize> = (0..TREE_PATHS).map(|j| stree.leaf_of(j)).collect();
    let tree = EpochTree::new(nodes, leaves);
    let chain = EpochChain::new(
        vec![problem.model().clone(); EPOCHS],
        problem.candidates().to_vec(),
    );
    let scenario = Scenario::tradeoff_normalized(0.5);
    let budget = 2 * CANDIDATES + 8;

    // Sanity: shared and unshared must price identically before we
    // time them.
    let tree_spec = risk_spec(&node_risks, budget);
    let tree_steps = chain.solve_with(scenario, &tree_spec, Topology::Tree(&tree));
    for (j, (fchain, risks)) in flat.iter().enumerate() {
        let warm = solve_path(fchain, risks, scenario, budget);
        for (t, w) in tree_steps[j].iter().zip(&warm) {
            assert_eq!(t.outcome.evaluation, w.outcome.evaluation);
        }
    }

    let mut group = c.benchmark_group(format!(
        "market/scenario_tree_k{TREE_PATHS}_e{EPOCHS}_n{CANDIDATES}"
    ));
    group.bench_function(BenchmarkId::from_parameter("flat_per_path"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (fchain, risks) in &flat {
                total += solve_path(fchain, risks, scenario, budget).len();
            }
            black_box(total)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("shared_prefix_tree"), |b| {
        b.iter(|| {
            black_box(
                chain
                    .solve_with(scenario, &tree_spec, Topology::Tree(&tree))
                    .len(),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = mv_bench::shapes::fast_config();
    targets = bench_price_drift_handoff, bench_k_path_sweep, bench_scenario_tree_vs_flat
}
criterion_main!(benches);
