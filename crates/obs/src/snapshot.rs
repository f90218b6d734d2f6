//! Point-in-time freezes of the registry, with delta arithmetic.
//!
//! [`Snapshot::capture`] reads every counter, histogram, span path and
//! the event tail into a plain data struct; [`Snapshot::since`] turns
//! two captures into a delta (one solve's worth of telemetry, read
//! around the solve); the CLI's `--metrics` renders whichever snapshot
//! the caller hands it as versioned JSON.

use crate::ring::Event;
use crate::{counter, hist, ring, span};

/// Snapshot schema version, surfaced as `"version"` in JSON renders.
pub const SCHEMA_VERSION: u64 = 1;

/// One aggregated span path.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStat {
    /// Full call path, e.g. `"market/solve + solve_tree/node"`.
    pub path: String,
    pub count: u64,
    pub total_ns: u64,
    /// Worst single occurrence. In a [`Snapshot::since`] delta this is
    /// the *lifetime* max (maxima don't subtract), which still upper-
    /// bounds the window's worst case.
    pub max_ns: u64,
}

/// One histogram: non-empty power-of-two buckets plus count and sum.
#[derive(Clone, Debug, PartialEq)]
pub struct HistStat {
    pub name: &'static str,
    /// Total observations (sum of bucket counts).
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// `(inclusive upper bound, count)` for non-empty buckets;
    /// `None` upper bound marks the overflow bucket.
    pub buckets: Vec<(Option<u64>, u64)>,
}

/// A frozen view of the whole registry. Plain data: safe to clone,
/// diff, or render long after capture.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Snapshot {
    /// Non-zero counters, `(name, value)`, in [`counter::Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Histograms with at least one observation.
    pub histograms: Vec<HistStat>,
    /// Aggregated span paths, sorted by path.
    pub spans: Vec<SpanStat>,
    /// The retained event tail, ascending by `seq`.
    pub events: Vec<Event>,
    /// Total events ever emitted (≥ `events.len()`; the ring is
    /// bounded, so early events may have scrolled away).
    pub events_seen: u64,
}

impl Snapshot {
    /// Freezes the current registry contents.
    pub fn capture() -> Snapshot {
        let counters = counter::Counter::ALL
            .iter()
            .map(|&c| (c.name(), counter::get(c)))
            .filter(|&(_, v)| v != 0)
            .collect();
        let histograms = hist::Hist::ALL
            .iter()
            .filter_map(|&h| {
                let (buckets, sum) = hist::read(h);
                let count: u64 = buckets.iter().sum();
                (count != 0).then(|| HistStat {
                    name: h.name(),
                    count,
                    sum,
                    buckets: buckets
                        .iter()
                        .enumerate()
                        .filter(|&(_, &n)| n != 0)
                        .map(|(i, &n)| (hist::Hist::bucket_upper(i), n))
                        .collect(),
                })
            })
            .collect();
        let spans = span::all()
            .into_iter()
            .map(|(path, c)| SpanStat {
                path,
                count: c.count,
                total_ns: c.total_ns,
                max_ns: c.max_ns,
            })
            .collect();
        Snapshot {
            counters,
            histograms,
            spans,
            events: ring::tail(),
            events_seen: ring::seen(),
        }
    }

    /// Movement between `baseline` (earlier) and `self` (later):
    /// counters, histogram buckets and span counts/totals subtract;
    /// events are those emitted after the baseline (best-effort — the
    /// bounded ring may have evicted some); zero rows drop out.
    pub fn since(&self, baseline: &Snapshot) -> Snapshot {
        let base_counter = |name: &str| {
            baseline
                .counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, v)| v)
        };
        let counters = self
            .counters
            .iter()
            .map(|&(n, v)| (n, v.saturating_sub(base_counter(n))))
            .filter(|&(_, v)| v != 0)
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|h| {
                let base = baseline.histograms.iter().find(|b| b.name == h.name);
                let base_bucket = |upper: Option<u64>| {
                    base.map_or(0, |b| {
                        b.buckets
                            .iter()
                            .find(|(u, _)| *u == upper)
                            .map_or(0, |&(_, n)| n)
                    })
                };
                let buckets: Vec<(Option<u64>, u64)> = h
                    .buckets
                    .iter()
                    .map(|&(u, n)| (u, n.saturating_sub(base_bucket(u))))
                    .filter(|&(_, n)| n != 0)
                    .collect();
                let count = h.count.saturating_sub(base.map_or(0, |b| b.count));
                (count != 0).then(|| HistStat {
                    name: h.name,
                    count,
                    sum: h.sum.saturating_sub(base.map_or(0, |b| b.sum)),
                    buckets,
                })
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .filter_map(|s| {
                let base = baseline.spans.iter().find(|b| b.path == s.path);
                let count = s.count.saturating_sub(base.map_or(0, |b| b.count));
                (count != 0).then(|| SpanStat {
                    path: s.path.clone(),
                    count,
                    total_ns: s.total_ns.saturating_sub(base.map_or(0, |b| b.total_ns)),
                    max_ns: s.max_ns,
                })
            })
            .collect();
        let events = self
            .events
            .iter()
            .filter(|e| e.seq >= baseline.events_seen)
            .cloned()
            .collect();
        Snapshot {
            counters,
            histograms,
            spans,
            events,
            events_seen: self.events_seen.saturating_sub(baseline.events_seen),
        }
    }

    /// Looks up a counter by its snapshot name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Looks up a span by its full path. No non-test caller: the span
    /// test in `lib.rs` (`span_paths_nest`) reads nested paths with it.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }
}
