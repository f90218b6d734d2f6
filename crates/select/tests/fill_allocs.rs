//! A flip-on fill allocates once per call — its floors' stale term
//! changes, one slot per candidate — and never per step or per probe:
//! fills that take different numbers of steps over one evaluator
//! allocate the same. The stale changes belong to the fill, not to the
//! evaluator, so a fork copies none of them (`probe_allocs.rs`).
//! Counted with a `#[global_allocator]` wrapper; the counts are per
//! thread, so the harness's own threads do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mv_select::{fixtures, local_search, IncrementalEvaluator, Scenario};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only added
// work is bumping a const-initialized, destructor-free thread-local
// `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_fill_allocates_independently_of_its_steps() {
    // 4 000 queries (63 fold blocks) × 120 candidates answering ~5 %
    // each: past one block, where a fill keeps its stale changes.
    let problem = fixtures::random_sparse_problem(42, 4_000, 120, 0.05);
    let n = problem.len();
    let baseline = problem.baseline();
    let mut ev = IncrementalEvaluator::new(&problem);
    // Every buffer a fill writes to grown to its largest once — the
    // dirty-block list with every block, the charge run with every
    // view — and back to the empty selection, settled.
    ev.probe(0);
    for k in 0..n {
        ev.flip(k);
    }
    ev.probe(0);
    for k in 0..n {
        ev.unflip(k);
    }
    ev.probe(0);
    // Fills from empty that stop after different numbers of steps.
    let mut fills = Vec::new();
    for alpha in [0.02, 0.3, 0.6, 0.9] {
        let scenario = Scenario::tradeoff_normalized(alpha);
        let before = allocations();
        let steps = local_search::greedy_fill(&mut ev, scenario, &baseline)
            .selection
            .count_ones();
        let allocated = allocations() - before;
        fills.push((alpha, steps, allocated));
        for k in 0..n {
            if ev.is_selected(k) {
                ev.unflip(k);
            }
        }
        ev.probe(0);
    }
    let steps: Vec<usize> = fills.iter().map(|f| f.1).collect();
    assert!(
        steps.windows(2).any(|w| w[0] != w[1]) && steps.iter().all(|&s| s > 1),
        "the fills should take different numbers of steps: {fills:?}"
    );
    assert!(
        fills.iter().all(|&(_, _, allocated)| allocated == 1),
        "a fill allocates once, whatever its steps: {fills:?}"
    );
}
