//! Monotonic counters: a fixed enum-indexed array of `AtomicU64`s.
//!
//! Increment is branch (one relaxed load) + `fetch_add` — no hashing,
//! no locking, no allocation — so counters are safe on the evaluator's
//! O(deg) flip path. The set of counters is closed ([`Counter`]); a
//! new instrumentation site adds a variant, not a registry entry.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Every counter the stack records, grouped by subsystem. `name()`
/// yields the stable `subsystem/metric` key used in JSON snapshots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Counter {
    // mv-select: IncrementalEvaluator
    EvaluatorBuild,
    EvaluatorRetarget,
    EvaluatorFork,
    EvaluatorFlip,
    EvaluatorUnflip,
    EvaluatorSnapshot,
    EvaluatorUpdateCharge,
    EvaluatorUpdateChargeFast,
    // mv-select: local search
    SearchProbes,
    SearchFlipMoves,
    SearchSwapMoves,
    SearchPlaceMoves,
    // mv-select: LNS
    LnsRounds,
    LnsAccepted,
    LnsRejected,
    // mv-select: EpochChain / EpochTree
    TreeNodeSolves,
    TreeRootSolves,
    ChainEpochSteps,
    // mv-engine: ReplayDriver
    EngineQueries,
    EngineQueriesViaViews,
    EngineScanBytes,
    EngineBuildBytes,
    EngineRefreshBytes,
    EngineViewBuilds,
    EngineViewRefreshes,
    // mv-core: calibration
    CalibrateSamples,
    // mv-core: AdvisorService stream loop
    ServiceIngestEvents,
    ServiceIngestDuplicates,
    ServiceDriftResolves,
    ServiceWhatIfs,
    // mv-core: persistent candidate catalog
    CatalogSpills,
    CatalogReloads,
}

/// Number of [`Counter`] variants (length of the backing array).
pub const COUNT: usize = 32;

impl Counter {
    /// All variants, in declaration order (index == discriminant).
    pub const ALL: [Counter; COUNT] = [
        Counter::EvaluatorBuild,
        Counter::EvaluatorRetarget,
        Counter::EvaluatorFork,
        Counter::EvaluatorFlip,
        Counter::EvaluatorUnflip,
        Counter::EvaluatorSnapshot,
        Counter::EvaluatorUpdateCharge,
        Counter::EvaluatorUpdateChargeFast,
        Counter::SearchProbes,
        Counter::SearchFlipMoves,
        Counter::SearchSwapMoves,
        Counter::SearchPlaceMoves,
        Counter::LnsRounds,
        Counter::LnsAccepted,
        Counter::LnsRejected,
        Counter::TreeNodeSolves,
        Counter::TreeRootSolves,
        Counter::ChainEpochSteps,
        Counter::EngineQueries,
        Counter::EngineQueriesViaViews,
        Counter::EngineScanBytes,
        Counter::EngineBuildBytes,
        Counter::EngineRefreshBytes,
        Counter::EngineViewBuilds,
        Counter::EngineViewRefreshes,
        Counter::CalibrateSamples,
        Counter::ServiceIngestEvents,
        Counter::ServiceIngestDuplicates,
        Counter::ServiceDriftResolves,
        Counter::ServiceWhatIfs,
        Counter::CatalogSpills,
        Counter::CatalogReloads,
    ];

    /// Stable snapshot key, `subsystem/metric`.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EvaluatorBuild => "evaluator/build",
            Counter::EvaluatorRetarget => "evaluator/retarget",
            Counter::EvaluatorFork => "evaluator/fork",
            Counter::EvaluatorFlip => "evaluator/flip",
            Counter::EvaluatorUnflip => "evaluator/unflip",
            Counter::EvaluatorSnapshot => "evaluator/snapshot",
            Counter::EvaluatorUpdateCharge => "evaluator/update_charge",
            Counter::EvaluatorUpdateChargeFast => "evaluator/update_charge_fast",
            Counter::SearchProbes => "search/probes",
            Counter::SearchFlipMoves => "search/flip_moves",
            Counter::SearchSwapMoves => "search/swap_moves",
            Counter::SearchPlaceMoves => "search/place_moves",
            Counter::LnsRounds => "lns/rounds",
            Counter::LnsAccepted => "lns/accepted",
            Counter::LnsRejected => "lns/rejected",
            Counter::TreeNodeSolves => "tree/node_solves",
            Counter::TreeRootSolves => "tree/root_solves",
            Counter::ChainEpochSteps => "chain/epoch_steps",
            Counter::EngineQueries => "engine/queries",
            Counter::EngineQueriesViaViews => "engine/queries_via_views",
            Counter::EngineScanBytes => "engine/scan_bytes",
            Counter::EngineBuildBytes => "engine/build_bytes",
            Counter::EngineRefreshBytes => "engine/refresh_bytes",
            Counter::EngineViewBuilds => "engine/view_builds",
            Counter::EngineViewRefreshes => "engine/view_refreshes",
            Counter::CalibrateSamples => "calibrate/samples",
            Counter::ServiceIngestEvents => "service/ingest_events",
            Counter::ServiceIngestDuplicates => "service/ingest_duplicates",
            Counter::ServiceDriftResolves => "service/drift_resolves",
            Counter::ServiceWhatIfs => "service/what_ifs",
            Counter::CatalogSpills => "catalog/spills",
            Counter::CatalogReloads => "catalog/reloads",
        }
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

/// Test-scoped counter window: holds a process-wide lock (so two
/// delta-asserting sections never interleave), enables telemetry for
/// its lifetime, and reads counters as deltas from its baseline.
///
/// This replaces the old `IncrementalEvaluator` process-global statics
/// whose unconditional increments made cross-test interleaving a
/// latent hazard under threaded `cargo test`: counters now only move
/// inside an enabled window, and `CounterGuard` windows are mutually
/// exclusive by construction.
///
/// The switch the window flips is process-wide, though: a sibling test
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
    /// unrelated enabler raced the baseline.
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
