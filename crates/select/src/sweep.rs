//! Shared machinery for subset sweeps: the ascending-mask incremental
//! walk and the chunked thread fan-out. The exhaustive solver and the
//! Pareto solution-space enumeration are both built on these, so the
//! stepping logic and the order-preserving chunk layout live in exactly
//! one place.

use mv_cost::SelectionSet;

use crate::{IncrementalEvaluator, SelectionProblem};

/// Visits every mask in `lo..hi` in ascending order, handing `visit`
/// the mask and an [`IncrementalEvaluator`] positioned at it.
///
/// Stepping from mask to mask+1 flips the run of trailing set bits off
/// and the next bit on — amortized two O(m) flips per subset — so a
/// full sweep costs O(2ⁿ·m) instead of O(2ⁿ·n·m).
pub(crate) fn sweep_masks(
    problem: &SelectionProblem,
    lo: u64,
    hi: u64,
    mut visit: impl FnMut(u64, &mut IncrementalEvaluator<'_>),
) {
    debug_assert!(lo < hi, "empty sweep range");
    let mut ev =
        IncrementalEvaluator::with_selection(problem, &SelectionSet::from_mask(lo, problem.len()));
    let mut mask = lo;
    loop {
        visit(mask, &mut ev);
        mask += 1;
        if mask >= hi {
            return;
        }
        let rising = mask.trailing_zeros() as usize;
        for k in 0..rising {
            ev.unflip(k);
        }
        ev.flip(rising);
    }
}

/// Splits `0..total` into up to `threads` contiguous chunks, runs
/// `run(lo, hi)` on each in its own thread, and returns the results in
/// ascending chunk order — so any first-wins merge over the results
/// reproduces a serial ascending scan exactly.
pub(crate) fn chunked<T: Send>(
    total: u64,
    threads: usize,
    run: impl Fn(u64, u64) -> T + Sync,
) -> Vec<T> {
    let chunk = total.div_ceil(threads as u64);
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .filter_map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(total);
                (lo < hi).then(|| scope.spawn(move || run(lo, hi)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
}

/// Thread count for a sweep over `2^n` subsets: every available core
/// once `n` reaches [`crate::PARALLEL_THRESHOLD`], serial below it
/// (thread setup would dominate).
pub(crate) fn auto_threads(n: usize) -> usize {
    if n >= crate::PARALLEL_THRESHOLD {
        std::thread::available_parallelism().map_or(1, |t| t.get())
    } else {
        1
    }
}
