//! `IncrementalEvaluator::probe` must not allocate — warm, or first on
//! a fresh fork: the move loops call it tens of thousands of times per
//! solve, and it is a read — no flips, one snapshot. (Spelled
//! out as `flip → snapshot → unflip`, a probe pays two copy-on-write
//! allocations: the snapshot's selection handle forces the next flip
//! to copy the word vector.) A move-loop round pays two real toggles
//! per swap row and nothing per probe. Neither must what an epoch edge and a
//! placement probe do to a candidate — `update_charge` moves a `Copy`
//! `Price`, not a view's name and answer profile. And a `fork` copies
//! the per-selection state only — its footprint does not know the pool
//! — a fork that writes adds one copy of the problem and none of the
//! index, and a fork that is gone leaves nothing shared behind. Counted
//! with a `#[global_allocator]` wrapper; the counts are per thread, so
//! the harness's own threads do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mv_cost::{Placement, Price};
use mv_obs::{Counter, CounterGuard};
use mv_select::{fixtures, local_search, IncrementalEvaluator, Scenario};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only added
// work is bumping const-initialized, destructor-free thread-local
// `Cell`s, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        BYTES.with(|b| b.set(b.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        BYTES.with(|b| b.set(b.get() + new_size as u64));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `(allocations, bytes requested)` so far on this thread.
fn footprint() -> (u64, u64) {
    (allocations(), BYTES.with(Cell::get))
}

#[test]
fn a_thousand_warm_probes_allocate_nothing() {
    // 4 000 queries (63 fold blocks) × 120 candidates answering ~5 %
    // each; a third of the pool selected, as mid-search.
    let problem = fixtures::random_sparse_problem(42, 4_000, 120, 0.05);
    let n = problem.len();
    let mut ev = IncrementalEvaluator::new(&problem);
    for k in (0..n).step_by(3) {
        ev.flip(k);
    }
    // The walk: single toggles (on and off) and swaps — the `out`
    // toggled for real around the probe of the `in_` — as the move
    // loops issue them.
    let walk = |ev: &mut IncrementalEvaluator<'_>| {
        let mut folded = 0u64;
        for i in 0..1_000usize {
            let k = (i * 7) % n;
            let other = (i * 13 + 1) % n;
            let score = if i % 4 == 3 && other != k {
                ev.toggle(k);
                let score = ev.probe(other);
                ev.toggle(k);
                score
            } else {
                ev.probe(k)
            };
            folded ^= score.time.value().to_bits();
        }
        folded
    };
    // Warm-up: the same walk once, so the dirty list has grown to its
    // working size.
    let warm = walk(&mut ev);
    let before = allocations();
    let timed = walk(&mut ev);
    let after = allocations();
    assert_eq!(after - before, 0, "probe allocated on a warm evaluator");
    // The walk left no trace: both passes scored the same neighbours.
    assert_eq!(warm, timed);
    // A probe keeps no scratch, so a fresh fork's first probes allocate
    // nothing either.
    let mut fork = ev.fork();
    let before = allocations();
    let first = (0..n).fold(0, |acc, k| acc ^ fork.probe(k).time.value().to_bits());
    assert_eq!(allocations() - before, 0, "a fork's first probes allocated");
    assert_ne!(first, 0);
    // The counter does count: a snapshot held across a flip shares
    // the selection's words, so the unflip copies them.
    let before = allocations();
    ev.flip(1);
    let held = ev.snapshot();
    ev.unflip(1);
    assert!(allocations() > before, "allocation counter is not live");
    assert!(held.selection.contains(1) && !ev.is_selected(1));
}

#[test]
fn a_probe_is_one_snapshot_and_no_flips() {
    let problem = fixtures::random_sparse_problem(44, 600, 40, 0.05);
    let mut ev = IncrementalEvaluator::new(&problem);
    for k in (0..problem.len()).step_by(3) {
        ev.flip(k);
    }
    let counters = CounterGuard::scoped();
    for k in 0..problem.len() {
        ev.probe(k);
    }
    assert_eq!(counters.local_delta(Counter::EvaluatorFlip), 0);
    assert_eq!(counters.local_delta(Counter::EvaluatorUnflip), 0);
    assert_eq!(
        counters.local_delta(Counter::EvaluatorSnapshot),
        problem.len() as u64
    );
}

#[test]
fn a_round_with_no_move_toggles_twice_per_swap_row() {
    // At a local optimum one more round offers the whole neighbourhood
    // — n flips and s·u swaps — and applies nothing: each of the s swap
    // rows deselects its `out` and selects it back, and that is every
    // write the round makes. Each move is either ruled out by its bound
    // or scored exactly, and the round allocates nothing.
    let scenario = Scenario::tradeoff_normalized(0.5);
    let mut ev = mid_search(600, 40);
    let n = ev.problem().len();
    let baseline = ev.problem().baseline();
    local_search::improve(&mut ev, scenario, &baseline, 4 * n);
    let s = ev.selection().count_ones();
    let u = n - s;
    assert!(s > 0 && u > 0, "{s} selected of {n}");
    // The ids, not a handle: a held selection would make the round's
    // first toggle copy its words.
    let standing: Vec<usize> = ev.selection().ones().collect();
    let counters = CounterGuard::scoped();
    let before = allocations();
    let end = local_search::improve(&mut ev, scenario, &baseline, 1).score();
    assert_eq!(allocations() - before, 0, "a bounded round allocated");
    assert_eq!(
        ev.selection().ones().collect::<Vec<_>>(),
        standing,
        "not a local optimum"
    );
    assert_eq!(end, ev.score());
    let toggles = counters.local_delta(Counter::EvaluatorFlip)
        + counters.local_delta(Counter::EvaluatorUnflip);
    assert_eq!(toggles, 2 * s as u64);
    let moves = (n + s * u) as u64;
    assert_eq!(counters.local_delta(Counter::SearchProbes), moves);
    // One score of the standing selection (and one of its end, above),
    // then per move a bound that ruled it out or an exact score.
    let bounded = counters.local_delta(Counter::SearchBounded);
    let exact = counters.local_delta(Counter::EvaluatorSnapshot) - 2;
    assert_eq!(bounded + exact, moves);
    assert!(bounded > 0, "no move was ruled out by its bound");
}

/// A third of the pool selected, as mid-search, on an evaluator that
/// owns its problem (as the chain's and the service's do); each view
/// answers ≈ `coverage` queries.
fn mid_search_covering(
    coverage: f64,
    n_queries: usize,
    n_candidates: usize,
) -> IncrementalEvaluator<'static> {
    let density = coverage / n_queries as f64;
    let problem = fixtures::random_sparse_problem(43, n_queries, n_candidates, density);
    let mut ev = IncrementalEvaluator::from_problem(problem);
    for k in (0..n_candidates).step_by(3) {
        ev.flip(k);
    }
    ev
}

/// [`mid_search_covering`] 5 % of the workload per view.
fn mid_search(n_queries: usize, n_candidates: usize) -> IncrementalEvaluator<'static> {
    mid_search_covering(0.05 * n_queries as f64, n_queries, n_candidates)
}

#[test]
fn a_thousand_warm_price_splices_allocate_nothing() {
    let mut ev = mid_search(4_000, 120);
    let n = ev.problem().len();
    ev.score();
    let before = allocations();
    let mut folded = 0u64;
    for i in 0..1_000usize {
        // What an epoch edge does (carry a view, or restore its full
        // price) and what a placement probe does (splice, score, put
        // the displaced price back).
        let k = (i * 7) % n;
        let view = &ev.problem().candidates()[k];
        let price = if i % 2 == 0 {
            view.carried()
        } else {
            Price {
                placement: view.placement.flipped(),
                ..view.price()
            }
        };
        let displaced = ev.update_charge(k, price);
        folded ^= ev.score().cost().micros() as u64;
        if i % 4 >= 2 {
            ev.update_charge(k, displaced);
        }
    }
    assert_eq!(allocations() - before, 0, "a price splice allocated");
    assert_ne!(folded, 0);
}

#[test]
fn a_round_of_placement_probes_allocates_nothing() {
    // One `improve_joint` round at a local optimum probes every
    // placement move (n of them) on top of `improve`'s neighbourhood and
    // applies none. The spot pool is dearer, so none improves — and the
    // round must allocate exactly what the plain round does (nothing),
    // however many candidates were placement-probed.
    let scenario = Scenario::tradeoff_normalized(0.5);
    let mut ev = mid_search(600, 40);
    let n = ev.problem().len();
    let baseline = ev.problem().baseline();
    local_search::improve(&mut ev, scenario, &baseline, 4 * n);
    let full: Vec<Price> = ev
        .problem()
        .candidates()
        .iter()
        .map(|v| v.price())
        .collect();
    let charge_for = |k: usize, p: Placement| -> Price {
        let factor = if p == full[k].placement { 1.0 } else { 3.0 };
        Price {
            materialization: full[k].materialization * factor,
            maintenance: full[k].maintenance * factor,
            placement: p,
            ..full[k]
        }
    };
    let mut placements: Vec<Placement> = full.iter().map(|p| p.placement).collect();
    let standing = placements.clone();

    // Scores, not evaluations: an `Evaluation` held across the next
    // round shares the selection's words, and the round's first flip
    // would copy them.
    let before = allocations();
    let plain = local_search::improve(&mut ev, scenario, &baseline, 1).score();
    let plain_allocations = allocations() - before;
    assert_eq!(plain_allocations, 0, "a plain round allocated");
    let before = allocations();
    let joint = local_search::improve_joint(
        &mut ev,
        scenario,
        &baseline,
        1,
        &mut placements,
        &charge_for,
    )
    .score();
    let joint_allocations = allocations() - before;
    assert_eq!(joint, plain, "no placement move may improve");
    assert_eq!(placements, standing);
    assert_eq!(
        joint_allocations, plain_allocations,
        "{n} placement probes allocated"
    );
}

#[test]
fn a_warm_epoch_edge_allocates_independently_of_the_pool_size() {
    // The edge: one retarget (the model's clone allocates, in the
    // workload's size) plus a price splice per candidate.
    let edge = |n_candidates: usize| {
        let mut ev = mid_search(256, n_candidates);
        let model = ev.problem().model().clone();
        ev.score();
        let before = allocations();
        ev.retarget(model.clone());
        for k in 0..n_candidates {
            let carried = ev.problem().candidates()[k].carried();
            if carried != ev.problem().candidates()[k].price() {
                ev.update_charge(k, carried);
            }
        }
        ev.score();
        allocations() - before
    };
    assert_eq!(edge(30), edge(120));
}

/// The resident service's shape: m = 4 096, mean coverage 12 —
/// settled, as the service's evaluator is after its solve's last round
/// (a probe settles what the flips left stale).
fn resident(n_candidates: usize) -> IncrementalEvaluator<'static> {
    let mut ev = mid_search_covering(12.0, 4_096, n_candidates);
    ev.probe(0);
    ev
}

#[test]
fn a_fork_copies_the_same_bytes_whatever_the_pool_holds() {
    // Selection handle, answer index, problem and (settled) charge run
    // are shared; what is copied is per query (caches, terms) and per
    // block (sums, prefix, flags) — no byte per candidate or per
    // selected view, nothing that grows with Σ deg or the index. (A
    // fork of an evaluator whose run is stale copies and refolds its
    // own run at once: 56 bytes per selected view.)
    let fork_of = |n_candidates: usize| {
        let ev = resident(n_candidates);
        let before = footprint();
        let fork = ev.fork();
        let after = footprint();
        assert_eq!(fork.selection(), ev.selection());
        (after.0 - before.0, after.1 - before.1)
    };
    let (small, large) = (fork_of(32), fork_of(256));
    assert_eq!(small, large, "(allocations, bytes) at n = 32 and n = 256");
    assert!(large.0 <= 16, "a fork allocated {} times", large.0);
}

#[test]
fn a_fork_that_is_gone_costs_the_resident_nothing() {
    // The resident's next model swap, after: no fork at all; a
    // what-if's fork (two toggles, a snapshot) come and gone; a fork
    // still alive.
    let swap = |forked: bool, held: bool| {
        let mut ev = resident(256);
        let model = ev.problem().model().clone();
        let fork = forked.then(|| {
            let mut fork = ev.fork();
            fork.toggle(0);
            fork.toggle(1);
            assert_ne!(fork.snapshot().selection, *ev.selection());
            fork
        });
        let fork = fork.filter(|_| held);
        let before = footprint();
        ev.retarget(model);
        let after = footprint();
        drop(fork);
        (after.0 - before.0, after.1 - before.1)
    };
    let never = swap(false, false);
    assert_eq!(swap(true, false), never, "(allocations, bytes)");
    // The counter does count: a live fork shares the problem, and the
    // same swap copies it first.
    let shared = swap(true, true);
    assert!(shared.0 > never.0 + 256 && shared.1 > never.1, "{shared:?}");
}

#[test]
fn a_writing_fork_copies_the_problem_once_and_the_index_never() {
    // What a fork that re-prices and retargets allocates beyond a fork
    // that only toggles and scores, less one copy of the problem: the
    // copy's `Arc`, whatever the pool holds — the index, where Σ deg
    // lives, stays shared.
    let beyond_one_copy = |n_candidates: usize| {
        let ev = resident(n_candidates);
        let model = ev.problem().model().clone();
        let carried = ev.problem().candidates()[0].carried();
        let before = footprint();
        let copy = ev.problem().clone();
        let one_copy = footprint();
        drop(copy);
        let mut reader = ev.fork();
        reader.toggle(0);
        reader.toggle(1);
        reader.score();
        let read = footprint();
        let mut writer = ev.fork();
        writer.toggle(0);
        writer.toggle(1);
        writer.update_charge(0, carried);
        writer.retarget(model);
        writer.update_charge(1, carried);
        writer.score();
        let written = footprint();
        let spent = |from: (u64, u64), to: (u64, u64)| (to.0 - from.0, to.1 - from.1);
        let (copy, read, written) = (
            spent(before, one_copy),
            spent(one_copy, read),
            spent(read, written),
        );
        (written.0 - read.0 - copy.0, written.1 - read.1 - copy.1)
    };
    let (small, large) = (beyond_one_copy(32), beyond_one_copy(256));
    assert_eq!(small, large, "(allocations, bytes) at n = 32 and n = 256");
    assert_eq!(large.0, 1, "the copied problem's Arc");
}

#[test]
fn handing_an_unshared_problem_back_allocates_nothing() {
    let ev = resident(256);
    let before = allocations();
    let problem = ev.into_problem();
    assert_eq!(allocations() - before, 0, "into_problem copied");
    assert_eq!(problem.len(), 256);
}
