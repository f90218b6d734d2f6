//! # mv-obs — zero-cost-when-off telemetry for the mvcloud stack
//!
//! A process-global, **off-by-default** telemetry registry shared by
//! every crate between `mv-cost` and `mv-core`. While disabled, every
//! instrumentation site costs exactly one relaxed atomic load (the
//! [`enabled`] check) and touches nothing else — no allocation, no
//! locking, no clock reads — so the solver hot paths keep their bench
//! ratios. While enabled, four primitives record:
//!
//! | module       | primitive                | storage                                    |
//! |--------------|--------------------------|--------------------------------------------|
//! | [`counter`]  | monotonic counters       | enum-indexed `[AtomicU64; N]`, no hashing  |
//! | [`hist`]     | fixed-bucket histograms  | power-of-two buckets behind atomics        |
//! | [`mod@span`] | RAII span timers         | thread-local path stack → striped maps     |
//! | [`ring`]     | structured event ring    | bounded, lock-striped `VecDeque`s          |
//!
//! [`snapshot`] freezes all four into a [`Snapshot`] — a plain data
//! struct the CLI renders as versioned JSON (`--metrics <path|->`).
//! [`Snapshot::since`] turns two captures into a delta, which is how
//! per-solve telemetry is scoped out of the process-global registry.
//!
//! ## Enabling
//!
//! [`enable`]/[`disable`] are *refcounted*: telemetry is on while at
//! least one enabler is live. Tests that assert on counter deltas use
//! [`CounterGuard`], which additionally holds a process-wide mutex so
//! delta-scoped sections never interleave with each other (the
//! cross-test hazard the old `IncrementalEvaluator` statics had).
//! The switch itself is process-wide, so a guard-less sibling test
//! working on another thread still moves the totals while a window is
//! open; every increment is therefore also tallied per thread, and a
//! test whose work stays on its own thread asserts on
//! [`CounterGuard::local_delta`], which no other thread can move.
//!
//! ## Identity guarantee
//!
//! Telemetry observes; it never steers. Enabled vs disabled must leave
//! every solver result bit-identical (property-tested in
//! `tests/obs_identity.rs` at the workspace root).

/// Declares a closed set of named metrics from one
/// `Variant => "subsystem/metric"` table: the enum (`repr(usize)`, dense
/// from zero), `COUNT`, `ALL` and `name()` — so the four cannot fall out
/// of step. Declaration order is snapshot order.
macro_rules! name_table {
    (
        $(#[$enum_doc:meta])*
        $ty:ident { $($(#[$doc:meta])* $variant:ident => $name:literal,)+ }
    ) => {
        $(#[$enum_doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(usize)]
        pub enum $ty {
            $($(#[$doc])* $variant,)+
        }

        /// Number of variants (length of the backing array).
        pub const COUNT: usize = [$($name),+].len();

        impl $ty {
            /// All variants, in declaration order (index == discriminant).
            pub const ALL: [$ty; COUNT] = [$($ty::$variant),+];

            /// Stable snapshot key, `subsystem/metric`.
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }
        }
    };
}

pub mod counter;
pub mod hist;
pub mod ring;
pub mod snapshot;
pub mod span;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

pub use counter::{Counter, CounterGuard};
pub use hist::Hist;
pub use snapshot::Snapshot;

/// Fast-path switch: one relaxed load per instrumentation site.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Refcount behind the switch so nested enablers compose.
static ENABLERS: AtomicUsize = AtomicUsize::new(0);

/// Whether telemetry is currently recording. This is the *only* cost
/// a disabled instrumentation site pays.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry on (refcounted — pair every call with [`disable`]).
pub fn enable() {
    ENABLERS.fetch_add(1, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Releases one [`enable`]; recording stops when the last is released.
pub fn disable() {
    let prev = ENABLERS.fetch_sub(1, Ordering::SeqCst);
    debug_assert!(prev > 0, "disable() without matching enable()");
    if prev <= 1 {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// RAII enabler: telemetry is on while the guard lives.
pub struct EnableGuard(());

impl EnableGuard {
    pub fn new() -> EnableGuard {
        enable();
        EnableGuard(())
    }
}

impl Default for EnableGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for EnableGuard {
    fn drop(&mut self) {
        disable();
    }
}

/// Increments a [`Counter`] by one (no-op while disabled).
#[inline(always)]
pub fn inc(c: Counter) {
    counter::add(c, 1);
}

/// Adds `n` to a [`Counter`] (no-op while disabled).
#[inline(always)]
pub fn add(c: Counter, n: u64) {
    counter::add(c, n);
}

/// Records one observation into a [`Hist`] (no-op while disabled).
#[inline(always)]
pub fn record(h: Hist, value: u64) {
    hist::record(h, value);
}

/// Pushes a structured event into the bounded ring (no-op while
/// disabled). `fields` are small `(name, value)` pairs; the ring keeps
/// a bounded tail, so events are traces, not accounting — use
/// [`Counter`]s for totals.
#[inline(always)]
pub fn event(kind: &'static str, fields: &[(&'static str, f64)]) {
    ring::push(kind, fields);
}

/// Opens an RAII span timer under the current thread's span path.
///
/// ```
/// fn solve_node() {
///     mv_obs::span!("solve_tree/node");
///     // ... timed until end of scope, aggregated under the full
///     // call path (e.g. "market/solve + solve_tree/node").
/// }
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _mv_obs_span = $crate::span::SpanGuard::begin($name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_refcounted() {
        let _serial = counter::CounterGuard::scoped();
        // The guard itself holds one enable.
        assert!(enabled());
        enable();
        enable();
        disable();
        assert!(enabled(), "still one extra enabler live");
        disable();
        assert!(enabled(), "guard's own enable keeps it on");
    }

    #[test]
    fn counters_only_move_while_enabled() {
        let guard = counter::CounterGuard::scoped();
        inc(Counter::EvaluatorBuild);
        assert_eq!(guard.delta(Counter::EvaluatorBuild), 1);
        drop(guard);
        let before = counter::get(Counter::EvaluatorBuild);
        inc(Counter::EvaluatorBuild);
        assert_eq!(counter::get(Counter::EvaluatorBuild), before);
    }

    #[test]
    fn local_delta_ignores_other_threads() {
        let mut guard = counter::CounterGuard::scoped();
        inc(Counter::EvaluatorFork);
        // A sibling test without a guard, working while the window is open.
        std::thread::spawn(|| add(Counter::EvaluatorFork, 5))
            .join()
            .unwrap();
        assert_eq!(guard.local_delta(Counter::EvaluatorFork), 1);
        assert_eq!(guard.delta(Counter::EvaluatorFork), 6);
        guard.rebase();
        assert_eq!(guard.local_delta(Counter::EvaluatorFork), 0);
        assert_eq!(guard.delta(Counter::EvaluatorFork), 0);
    }

    #[test]
    fn span_paths_nest() {
        let _guard = counter::CounterGuard::scoped();
        let base = Snapshot::capture();
        {
            span!("outer");
            {
                span!("inner");
            }
        }
        let delta = Snapshot::capture().since(&base);
        assert_eq!(delta.span("outer").map(|s| s.count), Some(1));
        assert_eq!(delta.span("outer + inner").map(|s| s.count), Some(1));
    }

    #[test]
    fn event_ring_is_bounded_and_ordered() {
        let _guard = counter::CounterGuard::scoped();
        let base = Snapshot::capture();
        for i in 0..(ring::CAPACITY as u64 + 64) {
            event("tick", &[("i", i as f64)]);
        }
        let snap = Snapshot::capture().since(&base);
        assert!(snap.events.len() <= ring::CAPACITY);
        assert!(!snap.events.is_empty());
        for w in snap.events.windows(2) {
            assert!(w[0].seq < w[1].seq, "events sorted by sequence");
        }
        assert_eq!(snap.events_seen, ring::CAPACITY as u64 + 64);
    }
}
