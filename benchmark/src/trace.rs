//! The harness-side span recorder and the per-layer self-time fold.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer: the program under test is not touched. A span name
//! is `<layer>.<call>`; the text before the first dot is the layer
//! (a crate directory name). Three kinds share one buffer:
//!
//! * the **op** span (`name == "op"`, no parent) — one timed operation;
//! * **stage** spans — the public calls an op makes, children of the
//!   op span (or of another stage);
//! * **probe** spans — parentless, recorded after an op on the same
//!   inputs, calling one layer's public function directly. They are not
//!   part of op time.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use mvcloud::json::Json;

/// "No span": the parent of an op or probe span, and what
/// [`Tracer::begin`] returns while nothing is recorded.
pub const NONE: u32 = u32::MAX;

/// The op span's name.
pub const OP: &str = "op";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Index of the operation the span belongs to.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans into a preallocated buffer; written out at exit.
/// While `recording` is off, `begin`/`end` cost one branch each.
pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    /// Spans dropped because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            recording: false,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            op: 0,
            dropped: 0,
        }
    }

    /// A tracer that never records (the untraced run).
    pub fn off() -> Tracer {
        Tracer::with_capacity(0)
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Names the operation subsequent spans belong to.
    pub fn set_op(&mut self, op: usize) {
        self.op = op as u32;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.recording {
            return NONE;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(NONE),
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Renames a closed span, for a call whose kind only its result
    /// tells (an ingest that re-solved).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        if id != NONE {
            self.spans[id as usize].name = name;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the span recorded last (0 while nothing records), for
    /// a probe that reports its loop's time per item.
    pub fn last_ns(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.duration_ns() as f64)
    }
}

/// Times `f` under a span (for calls that do not need the tracer
/// themselves).
pub fn spanned<R>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = tracer.begin(name);
    let out = f();
    tracer.end(id);
    out
}

/// Every span's duration in nanoseconds, grouped by span name.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(s.duration_ns() as f64);
    }
    out
}

/// A span's self time: its duration minus what its direct children
/// cover (children of one parent never overlap: one thread records).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NONE {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// "Probe `probe` replays the part of stage `stage` that belongs to the
/// probe's layer": the harness cannot put spans inside the program, so
/// where one public call hides another layer's work, that work is
/// estimated by running the inner layer's public functions on the same
/// inputs right after the op.
pub type Decompose = (&'static str, &'static str);

/// Each layer's share of op time, plus `unattributed` (op time no stage
/// span covers). Stage self time goes to the stage's own layer; for
/// every [`Decompose`] pair, the probe-to-stage ratio measured on the
/// ops that have both moves that fraction of the stage's self time to
/// the probe's layer (never more than the stage has).
pub fn layer_shares(spans: &[Span], decompose: &[Decompose]) -> BTreeMap<String, f64> {
    let layer_of = |name: &str| name.split('.').next().unwrap_or(name).to_string();
    let own = self_times(spans);
    let mut op_total = 0u64;
    let mut unattributed = 0u64;
    let mut stage_self: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&own) {
        if s.name == OP {
            op_total += s.duration_ns();
            unattributed += t;
        } else if s.parent != NONE {
            *stage_self.entry(s.name).or_default() += t as f64;
        }
    }
    let mut layer: BTreeMap<String, f64> = BTreeMap::new();
    for (&stage, &t) in &stage_self {
        *layer.entry(layer_of(stage)).or_default() += t;
    }
    for (&stage, &self_ns) in &stage_self {
        // The stage's share still its own; probes may claim all of it.
        let mut left = 1.0f64;
        for &(_, probe) in decompose.iter().filter(|d| d.0 == stage) {
            let probes: Vec<&Span> = spans
                .iter()
                .filter(|s| s.parent == NONE && s.name == probe)
                .collect();
            let probed_ops: BTreeSet<u32> = probes.iter().map(|s| s.op).collect();
            let probe_ns: u64 = probes.iter().map(|s| s.duration_ns()).sum();
            let stage_ns: u64 = spans
                .iter()
                .filter(|s| s.parent != NONE && s.name == stage && probed_ops.contains(&s.op))
                .map(Span::duration_ns)
                .sum();
            if stage_ns == 0 {
                continue;
            }
            let ratio = (probe_ns as f64 / stage_ns as f64).min(left);
            left -= ratio;
            *layer.entry(layer_of(stage)).or_default() -= ratio * self_ns;
            *layer.entry(layer_of(probe)).or_default() += ratio * self_ns;
        }
    }
    let total = op_total.max(1) as f64;
    let mut shares: BTreeMap<String, f64> =
        layer.into_iter().map(|(l, t)| (l, t / total)).collect();
    shares.insert("unattributed".to_string(), unattributed as f64 / total);
    shares
}

/// The trace file body: one object per span.
pub fn spans_json(spans: &[Span]) -> Json {
    let parent = |p: u32| {
        if p == NONE {
            Json::Null
        } else {
            Json::UInt(u64::from(p))
        }
    };
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("id", Json::UInt(u64::from(s.id))),
                    ("parent", parent(s.parent)),
                    ("op", Json::UInt(u64::from(s.op))),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, op: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100): a [10,60) with child a1 [20,50); sibling b [60,90).
        let spans = vec![
            span(0, NONE, 0, OP, 0, 100),
            span(1, 0, 0, "core.a", 10, 60),
            span(2, 1, 0, "select.a1", 20, 50),
            span(3, 0, 0, "engine.b", 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
        let shares = layer_shares(&spans, &[]);
        assert!((shares["core"] - 0.2).abs() < 1e-12);
        assert!((shares["select"] - 0.3).abs() < 1e-12);
        assert!((shares["engine"] - 0.3).abs() < 1e-12);
        assert!((shares["unattributed"] - 0.2).abs() < 1e-12);
        let sum: f64 = shares.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probes_move_stage_time_to_the_inner_layer_and_never_overdraw() {
        // Two ops of a 100 ns `core.build` stage; only op 0 is probed:
        // the engine probe replays 80 ns of it, the lattice probe 30 ns
        // (together more than the stage — the second is cut to 20 %).
        let spans = vec![
            span(0, NONE, 0, OP, 0, 100),
            span(1, 0, 0, "core.build", 0, 100),
            span(2, NONE, 0, "engine.measure", 100, 180),
            span(3, NONE, 0, "lattice.candidates", 180, 210),
            span(4, NONE, 1, OP, 300, 400),
            span(5, 4, 1, "core.build", 300, 400),
        ];
        let d = [
            ("core.build", "engine.measure"),
            ("core.build", "lattice.candidates"),
        ];
        let shares = layer_shares(&spans, &d);
        assert!((shares["engine"] - 0.8).abs() < 1e-12);
        assert!((shares["lattice"] - 0.2).abs() < 1e-12);
        assert!(shares["core"].abs() < 1e-12);
        assert_eq!(shares["unattributed"], 0.0);
    }

    #[test]
    fn tracer_nests_and_is_inert_while_off() {
        let mut t = Tracer::with_capacity(2);
        assert_eq!(t.begin("x.y"), NONE);
        t.end(NONE);
        assert!(t.spans().is_empty());
        t.set_recording(true);
        t.set_op(7);
        let a = t.begin(OP);
        let b = t.begin("core.stage");
        let c = t.begin("core.overflow");
        assert_eq!(c, NONE, "buffer full: dropped, not reallocated");
        t.end(c);
        t.end(b);
        t.end(a);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].op, 7);
    }
}
