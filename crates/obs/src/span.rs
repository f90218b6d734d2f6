//! RAII span timers aggregated into a call-path tree.
//!
//! [`SpanGuard::begin`] pushes its name onto a thread-local path stack
//! and stamps a start time; dropping it records the elapsed time under
//! the *full* path (`"market/solve + solve_tree/node"`), so nesting
//! builds a call-path tree without any global registration. Aggregates
//! (count / total / max, in nanoseconds) live in lock-striped maps
//! keyed by path; a span only touches its stripe once, at drop.
//!
//! Disabled cost: one relaxed load in `begin`, one `Option` check in
//! `drop`. No clock read, no thread-local write.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Separator between nested span names in an aggregated path.
pub(crate) const PATH_SEP: &str = " + ";

/// One aggregated cell: how often a path ran and for how long.
#[derive(Clone, Copy, Default)]
pub(crate) struct Cell {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

const STRIPES: usize = 8;

fn stripes() -> &'static [Mutex<HashMap<String, Cell>>; STRIPES] {
    static STRIPES_CELL: OnceLock<[Mutex<HashMap<String, Cell>>; STRIPES]> = OnceLock::new();
    STRIPES_CELL.get_or_init(|| std::array::from_fn(|_| Mutex::new(HashMap::new())))
}

/// FNV-1a — stable stripe choice without `RandomState`.
fn stripe_of(path: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % STRIPES
}

thread_local! {
    /// The current thread's span path, e.g. `"a + b + c"`.
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// RAII timer: created by [`mv_obs::span!`](crate::span!), records at
/// end of scope. Inert (and nearly free) while telemetry is disabled.
pub struct SpanGuard {
    start: Option<Instant>,
    /// Length to truncate the thread-local path back to on drop.
    prev_len: usize,
}

impl SpanGuard {
    #[inline(always)]
    pub fn begin(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard {
                start: None,
                prev_len: 0,
            };
        }
        let prev_len = PATH.with(|p| {
            let mut p = p.borrow_mut();
            let prev = p.len();
            if !p.is_empty() {
                p.push_str(PATH_SEP);
            }
            p.push_str(name);
            prev
        });
        SpanGuard {
            start: Some(Instant::now()),
            prev_len,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let prev_len = self.prev_len;
        PATH.with(|p| {
            let mut p = p.borrow_mut();
            record(&p, elapsed_ns);
            p.truncate(prev_len);
        });
    }
}

fn record(path: &str, elapsed_ns: u64) {
    let mut map = stripes()[stripe_of(path)]
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let cell = match map.get_mut(path) {
        Some(c) => c,
        None => map.entry(path.to_string()).or_default(),
    };
    cell.count += 1;
    cell.total_ns += elapsed_ns;
    cell.max_ns = cell.max_ns.max(elapsed_ns);
}

/// Reads every aggregated span path, sorted by path.
pub(crate) fn all() -> Vec<(String, Cell)> {
    let mut out: Vec<(String, Cell)> = Vec::new();
    for stripe in stripes() {
        let map = stripe.lock().unwrap_or_else(|e| e.into_inner());
        out.extend(map.iter().map(|(k, v)| (k.clone(), *v)));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}
