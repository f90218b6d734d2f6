//! The sparse evaluator at benchmark scale: n = 2 000 candidates over
//! an m = 50 000-query workload (ISSUE 6's headline shape — 100× the
//! paper's pools, where a dense answer table would hold 10⁸ slots).
//!
//! What must hold for the sparse struct-of-arrays layout to count:
//!
//! 1. **probe** — flip + snapshot + unflip stays in *microseconds*:
//!    the flip itself is O(deg) against the answer index and the
//!    snapshot is O(n/64 + selected + m/B + B·dirty) over the cached
//!    block sums, never O(n·m). The `full_evaluate` reference is one
//!    from-scratch evaluation of the same read, O(m + Σ deg).
//!    `probe_primitive` is the same probe through
//!    `IncrementalEvaluator::probe`, as the move loops issue it.
//! 2. **solve** — a bounded LNS pass completes on the full shape;
//!    flip/swap local search's O(n²) swap neighborhood is hopeless
//!    here (n² = 4·10⁶ probes *per round*).
//!
//! Measured numbers live in ROADMAP.md's perf ledger. CI runs this
//! bench in `-- --test` smoke mode (one iteration per bench) to keep
//! the shape compiling and completing.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mv_bench::shapes;
use mv_select::lns::{solve_lns_with, LnsConfig};
use mv_select::{IncrementalEvaluator, Scenario, SelectionSet};

fn bench_probe(c: &mut Criterion) {
    let problem = shapes::scale_problem(&shapes::scale_shape());
    let (n, m) = (problem.len(), problem.model().context().workload.len());
    let mut group = c.benchmark_group(format!("scale/probe_n{n}_m{m}"));

    // The from-scratch reference: one full evaluation per probe.
    // Minimum sample count.
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("full_evaluate"), |b| {
        let mut sel = SelectionSet::empty(n);
        for k in (0..n).step_by(7) {
            sel.set(k, true);
        }
        b.iter(|| black_box(problem.evaluate(black_box(&sel)).time.value()))
    });

    // flip + snapshot + unflip — the solver probe. One probe per
    // iteration, rotating the flipped candidate over the unselected
    // pool so the affected queries vary.
    let probes: Vec<usize> = (0..n).filter(|k| k % 7 != 0).collect();
    group.bench_function(BenchmarkId::from_parameter("incremental"), |b| {
        let mut ev = IncrementalEvaluator::new(&problem);
        for k in (0..n).step_by(7) {
            ev.flip(k);
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % probes.len();
            let k = probes[i];
            ev.flip(k);
            let t = ev.snapshot().time.value();
            ev.unflip(k);
            black_box(t)
        })
    });

    // flip + unflip alone — the O(deg) core without the O(n + m)
    // snapshot fold; this is the per-move cost inside greedy fills.
    group.bench_function(BenchmarkId::from_parameter("flip_unflip"), |b| {
        let mut ev = IncrementalEvaluator::new(&problem);
        for k in (0..n).step_by(7) {
            ev.flip(k);
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % probes.len();
            let k = probes[i];
            ev.flip(k);
            ev.unflip(k);
            black_box(k)
        })
    });
    group.finish();
}

/// The dirty-delta snapshot against the full fold it replaced: after
/// one flip, `snapshot()` folds only the O(deg) dirty blocks while
/// `snapshot_cold()` re-marks everything and pays the full O(n + m)
/// pass. At n = 2 000 / m = 50 000 the delta case must be measurably
/// faster — that gap is the dirty-tracking payoff every tree-node
/// probe compounds on.
fn bench_snapshot_delta(c: &mut Criterion) {
    let problem = shapes::scale_problem(&shapes::scale_shape());
    let (n, m) = (problem.len(), problem.model().context().workload.len());
    let probes: Vec<usize> = (0..n).filter(|k| k % 7 != 0).collect();
    let mut group = c.benchmark_group(format!("scale/snapshot_delta_n{n}_m{m}"));

    group.bench_function(BenchmarkId::from_parameter("dirty_delta"), |b| {
        let mut ev = IncrementalEvaluator::new(&problem);
        for k in (0..n).step_by(7) {
            ev.flip(k);
        }
        ev.snapshot();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % probes.len();
            let k = probes[i];
            ev.flip(k);
            let t = ev.snapshot().time.value();
            ev.unflip(k);
            black_box(t)
        })
    });

    group.bench_function(BenchmarkId::from_parameter("cold_full_fold"), |b| {
        let mut ev = IncrementalEvaluator::new(&problem);
        for k in (0..n).step_by(7) {
            ev.flip(k);
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % probes.len();
            let k = probes[i];
            ev.flip(k);
            let t = ev.snapshot_cold().time.value();
            ev.unflip(k);
            black_box(t)
        })
    });

    // The same probe through the primitive the move loops call: no
    // selection handle (so no copy-on-write on the next flip), and the
    // refolded block sums are put back instead of left dirty for the
    // next probe to refold again.
    group.bench_function(BenchmarkId::from_parameter("probe_primitive"), |b| {
        let mut ev = IncrementalEvaluator::new(&problem);
        for k in (0..n).step_by(7) {
            ev.flip(k);
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % probes.len();
            black_box(ev.probe(&[probes[i]]).time.value())
        })
    });

    // The from-scratch reference at the same position: one scattered
    // Formula 9 fold, O(m + Σ deg) — what `cold_full_fold` is a cached
    // version of, and what `baseline()` costs on the empty selection.
    group.bench_function(BenchmarkId::from_parameter("evaluate_full"), |b| {
        let mut sel = SelectionSet::empty(n);
        for k in (0..n).step_by(7) {
            sel.set(k, true);
        }
        b.iter(|| black_box(problem.evaluate(black_box(&sel)).time.value()))
    });
    group.finish();
}

fn bench_solve(c: &mut Criterion) {
    let problem = shapes::scale_problem(&shapes::scale_shape());
    let scenario = Scenario::tradeoff_normalized(0.5);
    let mut group = c.benchmark_group("scale/solve_n2000_m50000");
    group.sample_size(10);

    // Bounded LNS: shortlist repair, no O(n²) polish. Rounds are kept
    // low — the bench certifies the *shape* completes, the ledger
    // records the wall-clock.
    group.bench_function(BenchmarkId::from_parameter("lns_bounded"), |b| {
        let cfg = LnsConfig {
            rounds: 4,
            polish_moves: 0,
            ..LnsConfig::for_problem(problem.len())
        };
        b.iter(|| {
            black_box(
                solve_lns_with(&problem, scenario, &cfg)
                    .evaluation
                    .time
                    .value(),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = mv_bench::shapes::fast_config_samples(10);
    targets = bench_probe, bench_snapshot_delta, bench_solve
}
criterion_main!(benches);
