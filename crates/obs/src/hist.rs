//! Fixed-bucket histograms behind atomics.
//!
//! Buckets are powers of two: bucket `i` counts observations with
//! `value <= 2^i` (bucket 0 additionally takes 0), and the last bucket
//! is the overflow. Recording is a `leading_zeros` plus one relaxed
//! `fetch_add` — no allocation, no locking — cheap enough for the
//! evaluator's snapshot path.

use std::sync::atomic::{AtomicU64, Ordering};

name_table! {
    /// Every histogram the stack records.
    Hist {
        /// Dirty time-blocks refreshed per `IncrementalEvaluator::snapshot`
        /// (the "delta size" of the dirty-delta snapshot protocol).
        SnapshotDirtyBlocks => "evaluator/snapshot_dirty_blocks",
        /// Views destroyed per LNS destroy/repair round.
        LnsDestroySize => "lns/destroy_size",
        /// Children per scenario-tree node with 2+ children (fork width).
        TreeForkWidth => "tree/fork_width",
    }
}

/// Buckets per histogram: upper bounds `2^0 .. 2^15`, then overflow.
pub(crate) const BUCKETS: usize = 17;

impl Hist {
    /// Inclusive upper bound of bucket `i` (`None` for the overflow).
    pub(crate) fn bucket_upper(i: usize) -> Option<u64> {
        (i + 1 < BUCKETS).then(|| 1u64 << i)
    }
}

static CELLS: [[AtomicU64; BUCKETS]; COUNT] =
    [const { [const { AtomicU64::new(0) }; BUCKETS] }; COUNT];
static SUMS: [AtomicU64; COUNT] = [const { AtomicU64::new(0) }; COUNT];

/// Bucket index for `value`: smallest `i` with `value <= 2^i`.
#[inline]
fn bucket_of(value: u64) -> usize {
    if value <= 1 {
        return 0;
    }
    // ceil(log2(value)) for value >= 2.
    let b = 64 - (value - 1).leading_zeros() as usize;
    b.min(BUCKETS - 1)
}

/// Records one observation — no-op while telemetry is disabled.
#[inline(always)]
pub(crate) fn record(h: Hist, value: u64) {
    if crate::enabled() {
        CELLS[h as usize][bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        SUMS[h as usize].fetch_add(value, Ordering::Relaxed);
    }
}

/// Reads histogram `h`: per-bucket counts plus the running sum.
pub(crate) fn read(h: Hist) -> ([u64; BUCKETS], u64) {
    let mut buckets = [0u64; BUCKETS];
    for (slot, cell) in buckets.iter_mut().zip(&CELLS[h as usize]) {
        *slot = cell.load(Ordering::Relaxed);
    }
    (buckets, SUMS[h as usize].load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_dense_and_its_names_are_unique() {
        assert_eq!(COUNT, 3);
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "{}", h.name());
            assert_eq!(
                Hist::ALL.iter().filter(|g| g.name() == h.name()).count(),
                1,
                "{}",
                h.name()
            );
        }
    }

    #[test]
    fn bucket_bounds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1 << 15), BUCKETS - 2);
        assert_eq!(bucket_of((1 << 15) + 1), BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }
}
