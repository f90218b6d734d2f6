//! Fleet sweep: placement-flip probes vs rebuilds, and the K-path
//! hedged joint solve vs the pinned pure-spot sweep.
//!
//! Two shapes, mirroring the market bench's machinery/end-to-end
//! split:
//!
//! 1. **placement-flip probe** — the joint local search's `Place`
//!    move: re-derive the view's effective price for the other pool
//!    and splice it with `update_charge` (O(1): a price carries no
//!    answer profile) plus one snapshot — vs rebuilding the charged
//!    problem and a fresh evaluator repositioned by O(n) flips.
//! 2. **K-path hedged sweep** — the `solve_fleet` hot loop at the
//!    `mv-select` layer: K sampled spot paths with a correlated
//!    crunch regime, each solved over an 8-epoch horizon by
//!    `EpochChain::solve_with` with free placement (the joint
//!    neighborhood probes ~2n more moves per round) vs the same chain
//!    pinned all-spot (the single-fleet neighborhood). The delta is
//!    the price of the placement dimension itself.
//!
//! The acceptance bar: the placement-flip probe measurably faster
//! than rebuild (ratios recorded in ROADMAP.md).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mv_select::epoch::{ChainSpec, EpochChain, EpochTree, EpochTreeNode, Topology};
use mv_select::{IncrementalEvaluator, Placement, Scenario, SelectionProblem, SelectionSet};
use mvcloud::cost::{InterruptionRisk, PoolCharge, Price};
use mvcloud::market::{CorrelatedHazard, MarketScenario, PriceProcess, SpotMarket};
use mvcloud::ViewCharge;

/// The hot-path shape shared with the other benches (`mv_bench::shapes`).
const CANDIDATES: usize = mv_bench::shapes::HOT_CANDIDATES;
const EPOCHS: usize = 8;
const PATHS: usize = 8;

/// The scenario-tree sweep width (the tentpole's acceptance shape).
const TREE_PATHS: usize = 32;

/// A volatile discounted spot market with a bursty crunch regime.
fn crunchy_market(seed: u64) -> MarketScenario {
    MarketScenario::constant(EPOCHS, seed)
        .with(PriceProcess::Spot(SpotMarket::discounted(0.5, 0.4)))
        .with(PriceProcess::Correlated(
            CorrelatedHazard::bursty(0.3, 0.8, 0.6).with_crunch_compute(1.5),
        ))
}

/// The effective price of `charge` on `pool` under a fixed epoch's
/// terms (spot at 60% rate with a 25% interruption premium).
fn placed(charge: &ViewCharge, pool: Placement) -> Price {
    let price = match pool {
        Placement::Reserved => charge.price(),
        Placement::Spot => {
            PoolCharge::new(0.6, 1.0, InterruptionRisk::new(0.25)).adjust(charge.price())
        }
    };
    Price {
        placement: pool,
        ..price
    }
}

fn bench_placement_flip_probe(c: &mut Criterion) {
    let problem = mv_bench::shapes::hot_problem(47);
    let mut selection = SelectionSet::empty(CANDIDATES);
    for k in (0..CANDIDATES).step_by(2) {
        selection.set(k, true);
    }
    let pool = problem.candidates().to_vec();
    let mut group = c.benchmark_group(format!("fleet/placement_flip_probe_n{CANDIDATES}"));

    // Rebuild: re-derive the whole charged vector with candidate 4 on
    // the other pool, build a fresh problem + evaluator, snapshot.
    group.bench_function(BenchmarkId::from_parameter("rebuild_reposition"), |b| {
        let mut on_spot = false;
        b.iter(|| {
            on_spot = !on_spot;
            let target = if on_spot {
                Placement::Spot
            } else {
                Placement::Reserved
            };
            let mut charged = pool.clone();
            charged[4].set_price(placed(&pool[4], target));
            let p = SelectionProblem::new(problem.model().clone(), charged);
            let mut ev = IncrementalEvaluator::with_selection(&p, &selection);
            black_box(ev.snapshot().time.value())
        })
    });

    // Warm: the joint search's Place move — one O(1) update_charge
    // price splice + snapshot on the live evaluator.
    group.bench_function(BenchmarkId::from_parameter("warm_splice"), |b| {
        let mut ev = IncrementalEvaluator::with_selection(&problem, &selection);
        let mut on_spot = false;
        b.iter(|| {
            on_spot = !on_spot;
            let target = if on_spot {
                Placement::Spot
            } else {
                Placement::Reserved
            };
            ev.update_charge(4, placed(&pool[4], target));
            black_box(ev.snapshot().time.value())
        })
    });
    group.finish();
}

fn bench_k_path_hedged_sweep(c: &mut Criterion) {
    let problem = mv_bench::shapes::hot_problem(53);
    let market = crunchy_market(99);
    let base = problem.model().context();
    let paths: Vec<(EpochChain, Vec<(f64, InterruptionRisk)>)> = (0..PATHS)
        .map(|j| {
            let path = market.path(j);
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
                    mvcloud::CloudCostModel::new(ctx)
                })
                .collect();
            let pools = path
                .quotes
                .iter()
                .map(|q| {
                    (
                        // Reserved rate over the spot-primary sheet.
                        1.0 / q.factors.compute,
                        InterruptionRisk::new(q.interruption),
                    )
                })
                .collect();
            (
                EpochChain::new(models, problem.candidates().to_vec()),
                pools,
            )
        })
        .collect();
    let scenario = Scenario::tradeoff_normalized(0.5);
    let budget = 2 * CANDIDATES + 8;
    let initial = vec![Placement::Spot; CANDIDATES];
    fn reprice_for(
        pools: &[(f64, InterruptionRisk)],
    ) -> impl Fn(usize, usize, Placement, Price) -> Price + '_ {
        move |e: usize, _k: usize, p: Placement, c: Price| -> Price {
            let (reserved_rate, risk) = pools[e];
            match p {
                Placement::Spot => risk.adjust(c),
                Placement::Reserved => {
                    PoolCharge::new(reserved_rate, 1.0, InterruptionRisk::NONE).adjust(c)
                }
            }
        }
    }

    let sweep = |rebalance: bool| -> usize {
        let mut total = 0usize;
        for (chain, pools) in &paths {
            let spec = ChainSpec {
                reprice: reprice_for(pools),
                initial: Some(&initial),
                rebalance,
                max_moves: budget,
            };
            total += chain.solve_with(scenario, &spec, Topology::Path)[0].len();
        }
        total
    };
    let mut group = c.benchmark_group(format!(
        "fleet/k_path_sweep_k{PATHS}_e{EPOCHS}_n{CANDIDATES}"
    ));
    group.bench_function(BenchmarkId::from_parameter("pure_spot_pinned"), |b| {
        b.iter(|| black_box(sweep(false)))
    });
    group.bench_function(BenchmarkId::from_parameter("hedged_joint"), |b| {
        b.iter(|| black_box(sweep(true)))
    });
    group.finish();
}

/// Shared vs unshared at K = 32 for the hedged *joint* solve: every
/// path alone pays one evaluator build (greedy fill) plus 7 warm
/// transitions; the scenario tree pays one build per root, one transition per
/// tree edge and a cheap fork per extra sibling — the correlated crunch
/// regime is discrete, so sampled paths share long quote prefixes and
/// the tree is much smaller than K × epochs. Identical outcomes are
/// asserted before timing.
fn bench_scenario_tree_vs_flat(c: &mut Criterion) {
    let problem = mv_bench::shapes::hot_problem(59);
    let market = crunchy_market(101);
    let sampled: Vec<mvcloud::market::MarketPath> =
        (0..TREE_PATHS).map(|j| market.path(j)).collect();
    let base = problem.model().context();
    let compile = |q: &mvcloud::market::EpochQuote| -> mvcloud::CloudCostModel {
        let mut ctx = base.clone();
        ctx.pricing = q.reprice(&base.pricing);
        ctx.instance = ctx
            .pricing
            .compute
            .instance(&base.instance.name)
            .expect("bench instance is in the catalog")
            .clone();
        mvcloud::CloudCostModel::new(ctx)
    };
    let pool_of = |q: &mvcloud::market::EpochQuote| -> (f64, InterruptionRisk) {
        (
            1.0 / q.factors.compute,
            InterruptionRisk::new(q.interruption),
        )
    };

    // Unshared reference: one chain + per-epoch pool terms per path.
    let flat: Vec<(EpochChain, Vec<(f64, InterruptionRisk)>)> = sampled
        .iter()
        .map(|p| {
            (
                EpochChain::new(
                    p.quotes.iter().map(&compile).collect(),
                    problem.candidates().to_vec(),
                ),
                p.quotes.iter().map(&pool_of).collect(),
            )
        })
        .collect();

    // Tree route: one model + pool terms per *node*.
    let stree = mvcloud::market::ScenarioTree::from_paths(&sampled);
    assert!(
        stree.len() < TREE_PATHS * EPOCHS,
        "fixture must actually share prefixes"
    );
    let nodes: Vec<EpochTreeNode> = stree
        .nodes()
        .iter()
        .map(|n| EpochTreeNode {
            parent: n.parent,
            epoch: n.epoch,
            model: compile(&n.quote),
        })
        .collect();
    let node_pools: Vec<(f64, InterruptionRisk)> =
        stree.nodes().iter().map(|n| pool_of(&n.quote)).collect();
    let leaves: Vec<usize> = (0..TREE_PATHS).map(|j| stree.leaf_of(j)).collect();
    let tree = EpochTree::new(nodes, leaves);
    let chain = EpochChain::new(
        vec![problem.model().clone(); EPOCHS],
        problem.candidates().to_vec(),
    );
    let scenario = Scenario::tradeoff_normalized(0.5);
    let budget = 2 * CANDIDATES + 8;
    let initial = [Placement::Spot; CANDIDATES];
    fn pool_reprice(
        pools: &[(f64, InterruptionRisk)],
    ) -> impl Fn(usize, usize, Placement, Price) -> Price + '_ {
        move |i: usize, _k: usize, p: Placement, c: Price| -> Price {
            let (reserved_rate, risk) = pools[i];
            match p {
                Placement::Spot => risk.adjust(c),
                Placement::Reserved => {
                    PoolCharge::new(reserved_rate, 1.0, InterruptionRisk::NONE).adjust(c)
                }
            }
        }
    }

    let hedged = |pools| ChainSpec {
        reprice: pool_reprice(pools),
        initial: Some(&initial[..]),
        rebalance: true,
        max_moves: budget,
    };

    // Sanity: shared and unshared must agree before we time them.
    let tree_spec = hedged(&node_pools);
    let tree_steps = chain.solve_with(scenario, &tree_spec, Topology::Tree(&tree));
    for (j, (fchain, pools)) in flat.iter().enumerate() {
        let warm = &fchain.solve_with(scenario, &hedged(pools), Topology::Path)[0];
        for (t, w) in tree_steps[j].iter().zip(warm) {
            assert_eq!(t.outcome.evaluation, w.outcome.evaluation);
        }
    }

    let mut group = c.benchmark_group(format!(
        "fleet/scenario_tree_k{TREE_PATHS}_e{EPOCHS}_n{CANDIDATES}"
    ));
    group.bench_function(BenchmarkId::from_parameter("flat_per_path"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (fchain, pools) in &flat {
                total += fchain.solve_with(scenario, &hedged(pools), Topology::Path)[0].len();
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
    targets = bench_placement_flip_probe, bench_k_path_hedged_sweep, bench_scenario_tree_vs_flat
}
criterion_main!(benches);
