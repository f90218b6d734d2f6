//! Bounded, lock-striped event ring for structured solver traces.
//!
//! Events carry a static kind plus small numeric fields (epoch
//! transitions, LNS rounds, placement moves, tree-node solves,
//! calibration samples). A global atomic sequence orders them; each
//! event lands in `seq % STRIPES`'s deque, so concurrent writers only
//! contend 1-in-`STRIPES` of the time. Each stripe holds at most
//! `CAPACITY / STRIPES` events and evicts its own oldest — the ring
//! keeps a bounded *tail*, and [`crate::Snapshot`] carries
//! `events_seen` so readers can tell how much history scrolled away.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Total events retained across all stripes.
pub(crate) const CAPACITY: usize = 1024;
const STRIPES: usize = 8;
const STRIPE_CAP: usize = CAPACITY / STRIPES;

/// One structured trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Global emission order (gaps mean another stripe has the rest).
    pub seq: u64,
    /// Static kind tag, e.g. `"lns_round"`.
    pub kind: &'static str,
    /// Small numeric payload, `(name, value)` pairs.
    pub fields: Vec<(&'static str, f64)>,
}

static SEQ: AtomicU64 = AtomicU64::new(0);

fn stripes() -> &'static [Mutex<VecDeque<Event>>; STRIPES] {
    static CELL: OnceLock<[Mutex<VecDeque<Event>>; STRIPES]> = OnceLock::new();
    CELL.get_or_init(|| std::array::from_fn(|_| Mutex::new(VecDeque::with_capacity(STRIPE_CAP))))
}

/// Appends an event — no-op while telemetry is disabled.
#[inline(always)]
pub(crate) fn push(kind: &'static str, fields: &[(&'static str, f64)]) {
    if !crate::enabled() {
        return;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let event = Event {
        seq,
        kind,
        fields: fields.to_vec(),
    };
    let mut stripe = stripes()[(seq as usize) % STRIPES]
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if stripe.len() >= STRIPE_CAP {
        stripe.pop_front();
    }
    stripe.push_back(event);
}

/// Total events ever emitted (monotonic, survives eviction).
pub(crate) fn seen() -> u64 {
    SEQ.load(Ordering::Relaxed)
}

/// The retained tail, sorted by sequence number.
pub(crate) fn tail() -> Vec<Event> {
    let mut out: Vec<Event> = Vec::new();
    for stripe in stripes() {
        let stripe = stripe.lock().unwrap_or_else(|e| e.into_inner());
        out.extend(stripe.iter().cloned());
    }
    out.sort_by_key(|e| e.seq);
    out
}
