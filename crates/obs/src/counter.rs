//! Monotonic counters: a fixed enum-indexed array of `AtomicU64`s.
//!
//! Increment is branch (one relaxed load) + `fetch_add` — no hashing,
//! no locking, no allocation — so counters are safe on the evaluator's
//! O(deg) flip path. The set of counters is closed ([`Counter`]); a
//! new instrumentation site adds a variant, not a registry entry.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

name_table! {
    /// Every counter the stack records, grouped by subsystem. `name()`
    /// yields the stable `subsystem/metric` key used in JSON snapshots.
    Counter {
        // mv-select: IncrementalEvaluator
        EvaluatorBuild => "evaluator/build",
        EvaluatorRetarget => "evaluator/retarget",
        EvaluatorFork => "evaluator/fork",
        EvaluatorFlip => "evaluator/flip",
        EvaluatorUnflip => "evaluator/unflip",
        EvaluatorSnapshot => "evaluator/snapshot",
        EvaluatorUpdateCharge => "evaluator/update_charge",
        // mv-select: local search
        SearchProbes => "search/probes",
        SearchBounded => "search/bounded",
        SearchFlipMoves => "search/flip_moves",
        SearchSwapMoves => "search/swap_moves",
        SearchPlaceMoves => "search/place_moves",
        // mv-select: LNS
        LnsRounds => "lns/rounds",
        LnsAccepted => "lns/accepted",
        LnsRejected => "lns/rejected",
        // mv-select: EpochChain node solves and steps
        TreeNodeSolves => "tree/node_solves",
        TreeRootSolves => "tree/root_solves",
        ChainEpochSteps => "chain/epoch_steps",
        // mv-engine: ReplayDriver
        EngineQueries => "engine/queries",
        EngineQueriesViaViews => "engine/queries_via_views",
        EngineScanBytes => "engine/scan_bytes",
        EngineBuildBytes => "engine/build_bytes",
        EngineRefreshBytes => "engine/refresh_bytes",
        EngineViewBuilds => "engine/view_builds",
        EngineViewRefreshes => "engine/view_refreshes",
        // mv-core: calibration
        CalibrateSamples => "calibrate/samples",
        // mv-core: AdvisorService stream loop
        ServiceIngestEvents => "service/ingest_events",
        ServiceIngestDuplicates => "service/ingest_duplicates",
        ServiceDriftResolves => "service/drift_resolves",
        ServiceWhatIfs => "service/what_ifs",
        // mv-core: persistent candidate catalog
        CatalogSpills => "catalog/spills",
        CatalogReloads => "catalog/reloads",
    }
}

static CELLS: [AtomicU64; COUNT] = [const { AtomicU64::new(0) }; COUNT];

thread_local! {
    /// This thread's share of [`CELLS`]: what [`CounterGuard::local_delta`]
    /// reads, so a test's window is blind to its siblings' work.
    static LOCAL: [Cell<u64>; COUNT] = const { [const { Cell::new(0) }; COUNT] };
}

/// Adds `n` to counter `c` — no-op while telemetry is disabled.
#[inline(always)]
pub fn add(c: Counter, n: u64) {
    if crate::enabled() {
        CELLS[c as usize].fetch_add(n, Ordering::Relaxed);
        LOCAL.with(|local| {
            let cell = &local[c as usize];
            cell.set(cell.get().wrapping_add(n));
        });
    }
}

/// Reads counter `c`'s process-lifetime total (readable even while
/// disabled — it just stops moving).
#[inline]
pub fn get(c: Counter) -> u64 {
    CELLS[c as usize].load(Ordering::Relaxed)
}

/// The calling thread's own increments of every counter, in
/// [`Counter::ALL`] order.
fn all_local() -> [u64; COUNT] {
    LOCAL.with(|local| std::array::from_fn(|i| local[i].get()))
}

/// Reads every counter in [`Counter::ALL`] order.
pub fn all() -> [u64; COUNT] {
    let mut out = [0u64; COUNT];
    for (slot, c) in out.iter_mut().zip(Counter::ALL) {
        *slot = get(c);
    }
    out
}

/// Serializes delta-scoped counter sections across the process.
static SERIAL: Mutex<()> = Mutex::new(());

/// Test seam (no method here has a non-test caller) — a test-scoped
/// counter window: holds a process-wide lock (so two
/// delta-asserting sections never interleave), enables telemetry for
/// its lifetime, and reads counters as deltas from its baseline.
///
/// The switch the window flips is process-wide: a sibling test
/// that holds no guard and does solver work on *its* thread while the
/// window is open moves the process totals too, so [`delta`] can read
/// high in a multi-test binary. A test whose guarded work stays on its
/// own thread asserts on [`local_delta`], which only sees the calling
/// thread's increments; [`delta`] is for work that fans out to worker
/// threads, in a test binary where every test takes the guard.
///
/// [`delta`]: CounterGuard::delta
/// [`local_delta`]: CounterGuard::local_delta
pub struct CounterGuard {
    _serial: MutexGuard<'static, ()>,
    base: [u64; COUNT],
    local_base: [u64; COUNT],
}

impl CounterGuard {
    /// Locks the serialization mutex, enables telemetry, and baselines
    /// every counter.
    pub fn scoped() -> CounterGuard {
        let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        crate::enable();
        CounterGuard {
            _serial: serial,
            base: all(),
            local_base: all_local(),
        }
    }

    /// Counter movement, on every thread of the process, since this
    /// guard (or the last [`rebase`]) — saturating, in case an
    /// unrelated enabler raced the baseline. Only tests read it: the
    /// counter pins of `tests/market_no_rebuild.rs` (whose tree solves
    /// fan out to worker threads) and this crate's own guard tests.
    ///
    /// [`rebase`]: CounterGuard::rebase
    pub fn delta(&self, c: Counter) -> u64 {
        get(c).saturating_sub(self.base[c as usize])
    }

    /// Counter movement caused by the calling thread alone since this
    /// guard (or the last [`rebase`]); call it on the thread that made
    /// the guard. Exact whatever other tests do meanwhile.
    ///
    /// [`rebase`]: CounterGuard::rebase
    pub fn local_delta(&self, c: Counter) -> u64 {
        LOCAL.with(|local| {
            local[c as usize]
                .get()
                .wrapping_sub(self.local_base[c as usize])
        })
    }

    /// Moves the baseline up to "now" for a fresh delta window.
    pub fn rebase(&mut self) {
        self.base = all();
        self.local_base = all_local();
    }
}

impl Drop for CounterGuard {
    fn drop(&mut self) {
        crate::disable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_dense_and_its_names_are_unique() {
        assert_eq!(COUNT, 32);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{}", c.name());
            assert_eq!(
                Counter::ALL.iter().filter(|d| d.name() == c.name()).count(),
                1,
                "{}",
                c.name()
            );
        }
    }
}
