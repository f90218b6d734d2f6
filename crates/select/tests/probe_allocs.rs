//! `IncrementalEvaluator::probe` must not allocate on a warm evaluator:
//! the move loops call it tens of thousands of times per solve. (Spelled
//! out as `flip → snapshot → unflip`, a probe pays two copy-on-write
//! allocations: the snapshot's selection handle forces the next flip
//! to copy the word vector.) Counted with a `#[global_allocator]`
//! wrapper; the count is per thread, so the harness's own threads do
//! not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mv_select::{fixtures, IncrementalEvaluator};

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
fn a_thousand_warm_probes_allocate_nothing() {
    // 4 000 queries (63 fold blocks) × 120 candidates answering ~5 %
    // each; a third of the pool selected, as mid-search.
    let problem = fixtures::random_sparse_problem(42, 4_000, 120, 0.05);
    let n = problem.len();
    let mut ev = IncrementalEvaluator::new(&problem);
    for k in (0..n).step_by(3) {
        ev.flip(k);
    }
    // The walk: single toggles (on and off) and swaps, as the move
    // loops issue them.
    let walk = |ev: &mut IncrementalEvaluator<'_>| {
        let mut folded = 0u64;
        for i in 0..1_000usize {
            let k = (i * 7) % n;
            let other = (i * 13 + 1) % n;
            let score = if i % 4 == 3 && other != k {
                ev.probe(&[k, other])
            } else {
                ev.probe(&[k])
            };
            folded ^= score.time.value().to_bits();
        }
        folded
    };
    // Warm-up: the same walk once, so the dirty list and the probe's
    // scratch have grown to their working size.
    let warm = walk(&mut ev);
    let before = allocations();
    let timed = walk(&mut ev);
    let after = allocations();
    assert_eq!(after - before, 0, "probe allocated on a warm evaluator");
    // The walk left no trace: both passes scored the same neighbours.
    assert_eq!(warm, timed);
    // The counter does count: a snapshot held across a flip shares
    // the selection's words, so the unflip copies them.
    let before = allocations();
    ev.flip(1);
    let held = ev.snapshot();
    ev.unflip(1);
    assert!(allocations() > before, "allocation counter is not live");
    assert!(held.selection.contains(1) && !ev.is_selected(1));
}
