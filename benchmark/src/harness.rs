//! The closed-loop driver: one client thread, one process.
//!
//! An untraced run sets the workload up several times (reporting the
//! fastest as `setup_s`), then times operations one after another until
//! the run's limit is reached; it yields the end-to-end metrics. A
//! traced run interleaves plain and traced ops of the same workload
//! (the difference is the tracing overhead), records harness spans and
//! `mvcloud::obs` counts on the traced ops, runs the per-layer probes
//! and the `mvcloud-cli` parity pass, and yields the per-layer metrics.
//!
//! What must repeat exactly — `output_digest`, `plan_saving_share`,
//! every count — is taken over a fixed *prefix* of the timed ops, which
//! every run completes whatever its speed, so a seconds-limited run and
//! a faster or slower machine print the same values for one seed.
//!
//! What is timed is read through the workload's *cycle*: ops `i` and
//! `i + CYCLE` do identical work, so an op's time over its fastest
//! repetition is how much it was slowed down, and the slowdown that a
//! whole round of the cycle shares is the machine's and is divided out
//! (see `undisturbed`, and `README.md`, "What the timings are").

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mvcloud::obs;

use crate::cli::Cli;
use crate::record::{Metric, RunRecord};
use crate::stats::{self, Fnv};
use crate::trace::{self, Decompose, Tracer};

/// Set-up repetitions of an untraced run, before and after the timed
/// ops (`setup_s` is the fastest of them all).
const SETUP_REPS: [usize; 2] = [3, 3];
/// Span buffer size of a traced run.
const TRACE_CAPACITY: usize = 1 << 18;

/// Ops per workload of a `--smoke` run.
const SMOKE_OPS: usize = 5;

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// Time ops for this many seconds (never fewer ops than the prefix).
    Seconds(f64),
    /// `--smoke`: one set-up, no settling, `SMOKE_OPS` ops, every output
    /// verified, no timing claims.
    Smoke,
}

impl Limit {
    pub fn label(&self) -> String {
        match self {
            Limit::Seconds(s) => format!("seconds={s}"),
            Limit::Smoke => format!("smoke={SMOKE_OPS}"),
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub limit: Limit,
    /// Where results, traces and scratch files go.
    pub out: PathBuf,
}

/// What verifying one op produced.
#[derive(Debug, Default)]
pub struct OpCheck {
    /// FNV over the op's outputs.
    pub digest: Fnv,
    /// One improvement rate per solve the op made.
    pub savings: Vec<f64>,
    /// The first verification failure, if any.
    pub error: Option<String>,
}

impl OpCheck {
    pub fn fail(&mut self, message: impl Into<String>) {
        self.error.get_or_insert_with(|| message.into());
    }

    pub fn require(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }
}

/// Where a traced run's probes put what no span carries: derived
/// samples and running totals.
#[derive(Debug, Default)]
pub struct Layer {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub totals: BTreeMap<&'static str, f64>,
}

impl Layer {
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.totals.entry(name).or_default() += value;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.totals.insert(name, value);
    }
}

/// One benchmark workload. `op(i)` depends only on the set-up state and
/// `i`, so a run's op sequence is a function of the seed.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// One line: why this workload exists.
    const WHY: &'static str;
    /// Warm-up ops per set-up; they count into `setup_s`.
    const WARMUP: usize;
    /// Untimed ops between the last set-up and the first timed op, in
    /// which caches, the allocator and lazy state settle — a resident
    /// advisor pays them once, not per op, so they are no op's cost and
    /// no set-up's either.
    const SETTLE: usize;
    /// Ops after which the inputs repeat: op `i` and op `i + CYCLE` do
    /// identical work, so whatever makes one slower than the other is
    /// the machine, not the program.
    const CYCLE: usize;
    /// Timed ops the exactly-repeating outputs cover; also the fewest a
    /// seconds-limited run times.
    const PREFIX: usize;
    /// How a traced run interleaves its plain and traced ops, one op at
    /// a time so both sides see the same machine. Stateless ops run
    /// each index twice, plain then traced. A stateful workload runs
    /// each index once and traces every other op, flipping the parity
    /// with every cycle, so two cycles trace each of the cycle's ops
    /// once.
    const PAIRED: bool;
    /// Which probes estimate which stage's inner layers.
    const DECOMPOSE: &'static [Decompose];

    /// Generates the inputs from `seed` and constructs what the ops run
    /// against. `scratch` is a directory of the run's own.
    fn setup(seed: u64, scratch: &Path) -> Result<Self, String>;

    /// Untimed input generation for op `i`.
    fn prepare(&mut self, _i: usize) {}

    /// The timed operation. Stage spans go to `tracer`.
    fn op(&mut self, i: usize, tracer: &mut Tracer) -> Result<(), String>;

    /// Untimed: verifies op `i`'s outputs, digests them, reports the
    /// improvement rates.
    fn check(&mut self, i: usize, out: &mut OpCheck);

    /// Traced runs only, after op `i`: calls each layer's public
    /// functions directly on the op's inputs (probe spans).
    fn probe(&mut self, i: usize, tracer: &mut Tracer, layer: &mut Layer);

    /// Traced runs only, once, over every recorded span: what only the
    /// workload can derive from them.
    fn finish(&mut self, _spans: &[trace::Span], _layer: &mut Layer) {}

    /// Traced runs only, once: spawns the real `mvcloud-cli` on inputs
    /// equal to the in-process ones, reports wall medians and parity.
    fn cli_parity(&mut self, cli: &Cli, layer: &mut Layer) -> Result<(), String>;
}

/// The per-layer metric table: `BENCHMARK.json`'s `per_layer` list is
/// generated from it (pinned by a unit test).
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
}

/// Where a per-layer metric's value comes from in a traced run. A
/// workload that never produces the source reports 0.
pub enum Source {
    /// Mean of the named span's durations, multiplied by the factor
    /// (ns → the metric's unit): for a span that covers several input
    /// classes, whose median would be a coin-flip between modes.
    Mean(&'static str, f64),
    /// Median of the named span's durations (or derived samples), for
    /// homogeneous calls.
    Median(&'static str, f64),
    /// Nearest-rank percentile of the same — 0 unless the sample leaves
    /// ten values beyond it.
    Percentile(&'static str, f64, f64),
    /// A running total a probe, the obs counters or the fold put there.
    Total(&'static str),
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        source,
    }
}

use Source::{Mean, Median, Percentile, Total};

const NS_TO_MS: f64 = 1e-6;
const NS_TO_US: f64 = 1e-3;

pub const LAYER_METRICS: &[LayerMetric] = &[
    // engine
    lm(
        "engine.workload_exec_ms",
        "ms",
        "lower",
        Mean("engine.workload_exec", NS_TO_MS),
    ),
    lm(
        "engine.view_build_ms",
        "ms",
        "lower",
        Mean("engine.view_build", NS_TO_MS),
    ),
    lm(
        "engine.candidate_measure_ms",
        "ms",
        "lower",
        Mean("engine.candidate_measure", NS_TO_MS),
    ),
    lm("engine.queries", "count", "lower", Total("engine.queries")),
    lm(
        "engine.view_builds",
        "count",
        "lower",
        Total("engine.view_builds"),
    ),
    lm(
        "engine.scan_bytes",
        "count",
        "lower",
        Total("engine.scan_bytes"),
    ),
    // lattice
    lm(
        "lattice.candidates_ms",
        "ms",
        "lower",
        Mean("lattice.candidates", NS_TO_MS),
    ),
    lm(
        "lattice.candidates_count",
        "count",
        "lower",
        Total("lattice.candidates_count"),
    ),
    lm(
        "lattice.scale_coverage_ms",
        "ms",
        "lower",
        Mean("lattice.scale_coverage", NS_TO_MS),
    ),
    // cost / pricing: the slow references
    lm(
        "cost.full_evaluate_us",
        "us",
        "lower",
        Mean("cost.full_evaluate", NS_TO_US),
    ),
    lm(
        "pricing.invoice_us",
        "us",
        "lower",
        Mean("pricing.invoice", NS_TO_US),
    ),
    // select
    lm(
        "select.evaluator_build_ms",
        "ms",
        "lower",
        Mean("select.evaluator_build", NS_TO_MS),
    ),
    lm(
        "select.probe_ns",
        "ns",
        "lower",
        Mean("select.probe_ns", 1.0),
    ),
    lm(
        "select.fork_us",
        "us",
        "lower",
        Median("select.fork", NS_TO_US),
    ),
    lm(
        "select.retarget_us",
        "us",
        "lower",
        Median("select.retarget", NS_TO_US),
    ),
    lm(
        "select.solve_ms",
        "ms",
        "lower",
        Mean("select.solve", NS_TO_MS),
    ),
    lm(
        "select.chain_solve_ms",
        "ms",
        "lower",
        Mean("select.chain_solve", NS_TO_MS),
    ),
    lm(
        "select.resident_solve_ms",
        "ms",
        "lower",
        Median("select.resident_solve", NS_TO_MS),
    ),
    lm(
        "select.tree_node_busy_ms",
        "ms",
        "lower",
        Total("select.tree_node_busy_ms"),
    ),
    lm("select.builds", "count", "lower", Total("evaluator/build")),
    lm(
        "select.retargets",
        "count",
        "lower",
        Total("evaluator/retarget"),
    ),
    lm("select.forks", "count", "lower", Total("evaluator/fork")),
    lm("select.flips", "count", "lower", Total("evaluator/flip")),
    lm(
        "select.snapshots",
        "count",
        "lower",
        Total("evaluator/snapshot"),
    ),
    lm("select.lns_rounds", "count", "lower", Total("lns/rounds")),
    lm(
        "select.chain_epoch_steps",
        "count",
        "lower",
        Total("chain/epoch_steps"),
    ),
    lm(
        "select.tree_node_solves",
        "count",
        "lower",
        Total("tree/node_solves"),
    ),
    lm(
        "select.lns_accept_share",
        "ratio",
        "higher",
        Total("select.lns_accept_share"),
    ),
    lm(
        "select.move_per_probe_share",
        "ratio",
        "higher",
        Total("select.move_per_probe_share"),
    ),
    // market
    lm(
        "market.path_sample_us",
        "us",
        "lower",
        Mean("market.path_sample_ns", NS_TO_US),
    ),
    lm(
        "market.tree_build_us",
        "us",
        "lower",
        Mean("market.tree_build", NS_TO_US),
    ),
    lm(
        "market.reprice_us",
        "us",
        "lower",
        Mean("market.reprice_ns", NS_TO_US),
    ),
    lm(
        "market.tree_share",
        "ratio",
        "lower",
        Mean("market.tree_share", 1.0),
    ),
    // core: advisor and Monte-Carlo drivers
    lm(
        "core.advisor_build_ms",
        "ms",
        "lower",
        Mean("core.advisor_build", NS_TO_MS),
    ),
    lm(
        "core.horizon_ms",
        "ms",
        "lower",
        Mean("core.horizon", NS_TO_MS),
    ),
    lm(
        "core.market_ms",
        "ms",
        "lower",
        Mean("core.market", NS_TO_MS),
    ),
    lm("core.fleet_ms", "ms", "lower", Mean("core.fleet", NS_TO_MS)),
    lm(
        "core.report_render_ms",
        "ms",
        "lower",
        Mean("core.report_render", NS_TO_MS),
    ),
    lm(
        "core.market_dedup_hit_share",
        "ratio",
        "higher",
        Mean("core.market_dedup_hit_share", 1.0),
    ),
    lm(
        "core.advisor_usd_per_op",
        "usd",
        "lower",
        Mean("core.advisor_usd", 1.0),
    ),
    lm(
        "core.bill_delta_usd_per_op",
        "usd",
        "higher",
        Mean("core.bill_delta_usd", 1.0),
    ),
    // core: resident service
    lm(
        "core.service_ingest_event_ns",
        "ns",
        "lower",
        Median("core.ingest_event_ns", 1.0),
    ),
    lm(
        "core.service_ingest_single_us",
        "us",
        "lower",
        Median("core.ingest_single", NS_TO_US),
    ),
    lm(
        "core.service_events_per_s",
        "1/s",
        "higher",
        Total("core.service_events_per_s"),
    ),
    lm(
        "core.service_whatif_us",
        "us",
        "lower",
        Median("core.whatif", NS_TO_US),
    ),
    lm(
        "core.service_whatif_p99_us",
        "us",
        "lower",
        Percentile("core.whatif", 0.99, NS_TO_US),
    ),
    lm(
        "core.service_resolve_ms",
        "ms",
        "lower",
        Median("core.resolve", NS_TO_MS),
    ),
    lm(
        "core.catalog_spill_ms",
        "ms",
        "lower",
        Median("core.spill", NS_TO_MS),
    ),
    lm(
        "core.catalog_reload_ms",
        "ms",
        "lower",
        Median("core.reload", NS_TO_MS),
    ),
    lm(
        "core.catalog_bytes",
        "count",
        "lower",
        Total("core.catalog_bytes"),
    ),
    lm(
        "core.json_parse_mb_per_s",
        "MB/s",
        "higher",
        Median("core.json_parse_mb_per_s", 1.0),
    ),
    lm(
        "core.json_render_mb_per_s",
        "MB/s",
        "higher",
        Median("core.json_render_mb_per_s", 1.0),
    ),
    lm(
        "core.service_resolves",
        "count",
        "lower",
        Total("service/drift_resolves"),
    ),
    lm(
        "core.service_events_accepted",
        "count",
        "lower",
        Total("service/ingest_events"),
    ),
    lm(
        "core.service_events_replayed",
        "count",
        "lower",
        Total("service/ingest_duplicates"),
    ),
    // serve_stream's measured mix of timed wall
    lm(
        "core.mix_ingest_share",
        "ratio",
        "lower",
        Total("mix.ingest"),
    ),
    lm(
        "core.mix_whatif_share",
        "ratio",
        "lower",
        Total("mix.whatif"),
    ),
    lm(
        "core.mix_resolve_share",
        "ratio",
        "lower",
        Total("mix.resolve"),
    ),
    lm(
        "core.mix_spill_reload_share",
        "ratio",
        "lower",
        Total("mix.spill_reload"),
    ),
    // cli: process-level cross-check
    lm(
        "cli.advise_wall_ms",
        "ms",
        "lower",
        Total("cli.advise_wall_ms"),
    ),
    lm(
        "cli.horizon_wall_ms",
        "ms",
        "lower",
        Total("cli.horizon_wall_ms"),
    ),
    lm(
        "cli.market_wall_ms",
        "ms",
        "lower",
        Total("cli.market_wall_ms"),
    ),
    lm(
        "cli.fleet_wall_ms",
        "ms",
        "lower",
        Total("cli.fleet_wall_ms"),
    ),
    lm(
        "cli.serve_ingest_wall_ms",
        "ms",
        "lower",
        Total("cli.serve_ingest_wall_ms"),
    ),
    lm(
        "cli.parity_failures",
        "count",
        "lower",
        Total("cli.parity_failures"),
    ),
    // obs
    lm(
        "obs.trace_overhead_share",
        "ratio",
        "lower",
        Total("obs.trace_overhead_share"),
    ),
    lm(
        "obs.spans_recorded",
        "count",
        "lower",
        Total("obs.spans_recorded"),
    ),
    // each layer's share of op time (the ceiling for a later claim)
    lm("share.engine", "ratio", "lower", Total("share.engine")),
    lm("share.lattice", "ratio", "lower", Total("share.lattice")),
    lm("share.cost", "ratio", "lower", Total("share.cost")),
    lm("share.select", "ratio", "lower", Total("share.select")),
    lm("share.market", "ratio", "lower", Total("share.market")),
    lm("share.core", "ratio", "lower", Total("share.core")),
    lm(
        "share.unattributed",
        "ratio",
        "lower",
        Total("share.unattributed"),
    ),
];

/// The end-to-end metrics, in `BENCHMARK.json` order:
/// (name, unit, better, bound).
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("plan_saving_share", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.10),
];

/// Running tallies shared by both run kinds.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    digest: Fnv,
    saving_sum: f64,
    saving_n: u64,
}

/// How one op is run.
#[derive(Clone, Copy)]
struct OpMode {
    /// The op lies in the prefix whose outputs are digested.
    fold: bool,
    /// `mvcloud::obs` records during the op — and only the op, so
    /// verification and probes never move the counters.
    observe: bool,
}

const PLAIN: OpMode = OpMode {
    fold: false,
    observe: false,
};

impl Tally {
    /// Runs op `i` (prepare, timed op, untimed check) and returns its
    /// duration.
    fn run_op<W: Workload>(
        &mut self,
        w: &mut W,
        i: usize,
        tracer: &mut Tracer,
        mode: OpMode,
    ) -> Duration {
        w.prepare(i);
        tracer.set_op(i);
        if mode.observe {
            obs::enable();
        }
        let start = Instant::now();
        let span = tracer.begin(trace::OP);
        let result = w.op(i, tracer);
        tracer.end(span);
        let took = start.elapsed();
        if mode.observe {
            obs::disable();
        }
        let mut check = OpCheck::default();
        match result {
            Ok(()) => w.check(i, &mut check),
            Err(e) => check.fail(e),
        }
        self.attempted += 1;
        if let Some(e) = check.error {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(format!("{} op {i}: {e}", W::NAME));
            }
        }
        if mode.fold {
            self.digest.u64(check.digest.0);
            self.saving_sum += check.savings.iter().sum::<f64>();
            self.saving_n += check.savings.len() as u64;
        }
        took
    }

    fn plan_saving_share(&self) -> f64 {
        if self.saving_n == 0 {
            0.0
        } else {
            self.saving_sum / self.saving_n as f64
        }
    }
}

fn scratch_dir<W: Workload>(opts: &RunOpts) -> Result<PathBuf, String> {
    let dir = opts.out.join("tmp").join(W::NAME);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Sets `W` up and runs its warm-up ops (verified, never digested).
fn set_up<W: Workload>(opts: &RunOpts, scratch: &Path, tally: &mut Tally) -> Result<W, String> {
    let mut w = W::setup(opts.seed, scratch)?;
    let mut off = Tracer::off();
    for i in 0..W::WARMUP {
        tally.run_op(&mut w, i, &mut off, PLAIN);
    }
    Ok(w)
}

/// Runs the settle ops; returns the index of the first timed op.
fn settle<W: Workload>(opts: &RunOpts, w: &mut W, tally: &mut Tally) -> usize {
    let ops = if opts.limit == Limit::Smoke {
        0
    } else {
        W::SETTLE
    };
    let mut off = Tracer::off();
    for i in W::WARMUP..W::WARMUP + ops {
        tally.run_op(w, i, &mut off, PLAIN);
    }
    W::WARMUP + ops
}

fn record<W: Workload>(opts: &RunOpts, traced: bool, first: usize, tally: &Tally) -> RunRecord {
    RunRecord {
        workload: W::NAME.to_string(),
        seed: opts.seed,
        traced,
        limit: opts.limit.label(),
        context: crate::record::context(),
        warmup_ops: first as u64,
        timed_ops: 0,
        prefix_ops: 0,
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0,
        output_digest: format!("{:016x}", tally.digest.0),
        metrics: Vec::new(),
        errors: tally.errors.clone(),
    }
}

/// Every timed op's latency with the machine's slowdown of the moment
/// divided out; `latencies[k]` is op `first + k`'s.
///
/// Ops `i` and `i + cycle` do identical work, so an op's *slowdown* is
/// its time over the fastest repetition of the same op. The machine's
/// slowdown during one round (`cycle` consecutive ops, a second or two)
/// is the median slowdown of the round's ops, and every op of the round
/// is divided by it. What that leaves in is what sets one op apart from
/// the ops around it — whether the program or the machine did it — and
/// what it takes out is what slows every op of a round alike.
fn undisturbed(first: usize, cycle: usize, latencies: &[f64]) -> Vec<f64> {
    let mut fastest = vec![f64::INFINITY; cycle];
    for (k, &ms) in latencies.iter().enumerate() {
        let slot = &mut fastest[(first + k) % cycle];
        *slot = slot.min(ms);
    }
    let slowdown: Vec<f64> = latencies
        .iter()
        .enumerate()
        .map(|(k, &ms)| ms / fastest[(first + k) % cycle])
        .collect();
    latencies
        .chunks(cycle)
        .zip(slowdown.chunks(cycle))
        .flat_map(|(round, slow)| {
            let machine = stats::median(slow);
            round.iter().map(move |&ms| ms / machine)
        })
        .collect()
}

fn per_second(n: usize, busy: Duration) -> f64 {
    n as f64 / busy.as_secs_f64().max(f64::MIN_POSITIVE)
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced<W: Workload>(opts: &RunOpts) -> Result<RunRecord, String> {
    let scratch = scratch_dir::<W>(opts)?;
    let mut tally = Tally::default();
    // Set-ups are timed in two groups, one before and one after the
    // timed ops, and the fastest counts: a set-up takes the shared
    // machine's slow phases like any op, and two points in time half a
    // minute apart are two chances to see it undisturbed.
    let mut setup_s = Vec::new();
    let mut timed_set_ups = |reps: usize, tally: &mut Tally| -> Result<W, String> {
        let mut workload: Option<W> = None;
        for _ in 0..reps {
            // One set-up alive at a time, so peak RSS is the workload's.
            drop(workload.take());
            let start = Instant::now();
            workload = Some(set_up::<W>(opts, &scratch, tally)?);
            setup_s.push(start.elapsed().as_secs_f64());
        }
        Ok(workload.expect("at least one set-up repetition"))
    };
    let [before, after] = if opts.limit == Limit::Smoke {
        [1, 0]
    } else {
        SETUP_REPS
    };
    let mut w = timed_set_ups(before, &mut tally)?;
    let first = settle(opts, &mut w, &mut tally);

    let prefix = match opts.limit {
        Limit::Smoke => SMOKE_OPS,
        Limit::Seconds(_) => W::PREFIX,
    };
    let mut tracer = Tracer::off();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(1 << 14);
    let mut busy = Duration::ZERO;
    let start = Instant::now();
    loop {
        let n = latencies_ms.len();
        let done = match opts.limit {
            Limit::Smoke => n >= prefix,
            Limit::Seconds(s) => n >= prefix && start.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        let mode = OpMode {
            fold: n < prefix,
            observe: false,
        };
        let took = tally.run_op(&mut w, first + n, &mut tracer, mode);
        busy += took;
        latencies_ms.push(took.as_secs_f64() * 1e3);
    }
    drop(w);
    if after > 0 {
        drop(timed_set_ups(after, &mut tally)?);
    }

    // The op statistics are taken over every timed op, each with the
    // machine's slowdown of its round divided out (see `undisturbed`),
    // and only where the sample supports them: ten values beyond a
    // percentile, which every seconds-limited run has (its prefix is at
    // least 120 ops) and a smoke run has not.
    let n = latencies_ms.len();
    let calm = stats::sorted(&undisturbed(first, W::CYCLE, &latencies_ms));
    let raw = stats::sorted(&latencies_ms);
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            "ops_per_s" => n as f64 / (calm.iter().sum::<f64>() * 1e-3),
            "op_p50_ms" => stats::supported_percentile(&calm, 0.5),
            "op_p90_ms" => stats::supported_percentile(&calm, 0.9),
            "plan_saving_share" => tally.plan_saving_share(),
            "peak_rss_mb" => crate::record::peak_rss_mb(),
            other => unreachable!("unknown end-to-end metric {other}"),
        }
    };
    let mut record = record::<W>(opts, false, first, &tally);
    record.timed_ops = n as u64;
    record.prefix_ops = prefix.min(n) as u64;
    record.metrics = END_TO_END
        .iter()
        .map(|&(name, unit, _, _)| Metric::new(name, value(name), unit))
        .collect();
    // Bookkeeping beside the contract's metrics (printed and written to
    // the results file, not part of the result line): the same three
    // statistics over every timed op exactly as it was measured.
    let extra = [
        (
            "failed_ops_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
        ("raw_ops_per_s", per_second(n, busy), "1/s"),
        (
            "raw_op_p50_ms",
            stats::supported_percentile(&raw, 0.5),
            "ms",
        ),
        (
            "raw_op_p90_ms",
            stats::supported_percentile(&raw, 0.9),
            "ms",
        ),
        ("prefix_solves", tally.saving_n as f64, "count"),
        ("rounds", n as f64 / W::CYCLE as f64, "count"),
    ];
    record
        .metrics
        .extend(extra.map(|(name, value, unit)| Metric::new(name, value, unit)));
    Ok(record)
}

/// The traced run: per-layer metrics.
pub fn run_traced<W: Workload>(opts: &RunOpts) -> Result<(RunRecord, Vec<trace::Span>), String> {
    let scratch = scratch_dir::<W>(opts)?;
    let mut tally = Tally::default();
    let mut w = set_up::<W>(opts, &scratch, &mut tally)?;
    let first = settle(opts, &mut w, &mut tally);
    let mut tracer = Tracer::with_capacity(TRACE_CAPACITY);
    let mut layer = Layer::default();

    // Half of the run's seconds go to the interleaved ops (the rest is
    // probes and CLI spawns); a smoke run traces one op. `prefix` traced
    // ops carry the counts and the probes' totals.
    let (prefix, wall) = match opts.limit {
        Limit::Smoke => (1, None),
        // A stateful workload traces each of its cycle's ops once.
        Limit::Seconds(s) if W::PAIRED => ((W::PREFIX / 4).max(1), Some(s / 2.0)),
        Limit::Seconds(s) => (W::CYCLE, Some(s / 2.0)),
    };
    let base = obs::Snapshot::capture();
    let mut counted: Option<(obs::Snapshot, BTreeMap<&'static str, f64>)> = None;
    let mut plain_ms: Vec<f64> = Vec::new();
    let mut traced_ms: Vec<f64> = Vec::new();
    let start = Instant::now();
    for step in 0.. {
        let (i, trace_it, boundary) = if W::PAIRED {
            (first + step / 2, step % 2 == 1, step % 2 == 0)
        } else {
            let i = first + step;
            (i, (i % W::CYCLE + i / W::CYCLE) % 2 == 1, i % W::CYCLE == 0)
        };
        // A seconds-limited run stops on a pair or cycle boundary, so
        // both sides covered the same ops; a smoke run after its one op.
        let done = match wall {
            None => true,
            Some(s) => boundary && start.elapsed().as_secs_f64() >= s,
        };
        if done && traced_ms.len() >= prefix {
            break;
        }
        if !trace_it {
            let took = tally.run_op(&mut w, i, &mut tracer, PLAIN);
            plain_ms.push(took.as_secs_f64() * 1e3);
            continue;
        }
        let mode = OpMode {
            fold: counted.is_none(),
            observe: true,
        };
        tracer.set_recording(true);
        let took = tally.run_op(&mut w, i, &mut tracer, mode);
        traced_ms.push(took.as_secs_f64() * 1e3);
        w.probe(i, &mut tracer, &mut layer);
        tracer.set_recording(false);
        if traced_ms.len() == prefix {
            let counts = obs::Snapshot::capture().since(&base);
            counted = Some((counts, layer.totals.clone()));
        }
    }
    let (counts, totals) = counted.expect("the traced prefix always completes");
    layer.totals = totals;

    w.finish(tracer.spans(), &mut layer);
    let cli = Cli::locate_or_build()?;
    w.cli_parity(&cli, &mut layer)?;
    drop(w);

    // Fold spans, counts and shares into the metric sources.
    for (name, durations) in trace::durations_by_name(tracer.spans()) {
        layer.samples.entry(name).or_default().extend(durations);
    }
    for &(name, value) in &counts.counters {
        layer.set(name, value as f64);
    }
    let counter = |name: &str| counts.counter(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    layer.set(
        "select.lns_accept_share",
        ratio(
            counter("lns/accepted"),
            counter("lns/accepted") + counter("lns/rejected"),
        ),
    );
    layer.set(
        "select.move_per_probe_share",
        ratio(
            counter("search/flip_moves") + counter("search/swap_moves"),
            counter("search/probes"),
        ),
    );
    layer.set(
        "obs.spans_recorded",
        counts.spans.iter().map(|s| s.count).sum::<u64>() as f64,
    );
    // Medians, so a rare expensive op (a re-solve tick) that falls on
    // one side does not pass for overhead.
    let overhead = if plain_ms.is_empty() {
        0.0
    } else {
        1.0 - stats::median(&plain_ms) / stats::median(&traced_ms)
    };
    layer.set("obs.trace_overhead_share", overhead);

    let mut shares = trace::layer_shares(tracer.spans(), W::DECOMPOSE);
    // Tree node solves run inside the Monte-Carlo drivers, on worker
    // threads no harness span reaches; `obs` times each one under a span
    // whose name ends in `/node`, and counts it in `tree/node_solves`.
    // Their busy time per op, spread over the workers, is select's — not
    // core's — share. Only that last name segment is relied on, and the
    // spans found must be one per counted node solve: a driver that
    // renames or drops the span fails the traced run instead of silently
    // handing select's time to core.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let (node_spans, node_busy_ns) = counts
        .spans
        .iter()
        .filter(|s| s.path.ends_with("/node"))
        .fold((0, 0), |(n, ns), s| (n + s.count, ns + s.total_ns));
    let node_solves = counts.counter("tree/node_solves");
    if node_spans != node_solves {
        return Err(format!(
            "{}: obs counted {node_solves} tree node solves but timed {node_spans} \
             `*/node` spans: select's share of the drivers cannot be told from core's",
            W::NAME
        ));
    }
    let node_busy_per_op = node_busy_ns as f64 / prefix as f64;
    layer.set("select.tree_node_busy_ms", node_busy_per_op * NS_TO_MS);
    let mean_op_ns = traced_ms.iter().sum::<f64>() / traced_ms.len() as f64 * 1e6;
    let core = shares.get("core").copied().unwrap_or(0.0);
    let moved = (node_busy_per_op / workers / mean_op_ns).min(core);
    *shares.entry("core".to_string()).or_default() -= moved;
    *shares.entry("select".to_string()).or_default() += moved;
    for metric in LAYER_METRICS {
        if let Some(share) = metric
            .name
            .strip_prefix("share.")
            .and_then(|l| shares.get(l))
        {
            layer.set(metric.name, *share);
        }
    }
    if tracer.dropped > 0 {
        tally.errors.push(format!(
            "{}: span buffer full, {} spans dropped",
            W::NAME,
            tracer.dropped
        ));
    }

    let mut record = record::<W>(opts, true, first, &tally);
    record.timed_ops = (plain_ms.len() + traced_ms.len()) as u64;
    record.prefix_ops = prefix as u64;
    let parity_failures = layer
        .totals
        .get("cli.parity_failures")
        .copied()
        .unwrap_or(0.0);
    record.correct &= parity_failures == 0.0 && tracer.dropped == 0;
    let sample =
        |key: &str, f: &dyn Fn(&[f64]) -> f64| layer.samples.get(key).map_or(0.0, |v| f(v));
    record.metrics = LAYER_METRICS
        .iter()
        .map(|m| {
            let value = match m.source {
                Mean(key, factor) => {
                    sample(key, &|v| v.iter().sum::<f64>() / v.len() as f64) * factor
                }
                Median(key, factor) => sample(key, &stats::median) * factor,
                Percentile(key, p, factor) => {
                    let supported = |v: &[f64]| stats::supported_percentile(&stats::sorted(v), p);
                    sample(key, &supported) * factor
                }
                Total(key) => layer.totals.get(key).copied().unwrap_or(0.0),
            };
            Metric::new(m.name, value, m.unit)
        })
        .collect();
    Ok((record, tracer.spans().to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_round_is_divided_out_and_a_slow_op_is_not() {
        // Cycle of 3 (ops cost 10, 20, 30); the first timed op is index
        // 4, slot 1. Round 2 ran on a machine 1.5x slower; in round 3
        // one op alone took twice its time; round 4 is a single op.
        let measured = [20.0, 30.0, 10.0, 30.0, 45.0, 15.0, 20.0, 60.0, 10.0, 22.0];
        let got = undisturbed(4, 3, &measured);
        let want = [20.0, 30.0, 10.0, 20.0, 30.0, 10.0, 20.0, 60.0, 10.0, 20.0];
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{got:?}");
        }
        // Fewer ops than the cycle: nothing repeats, nothing changes.
        assert_eq!(undisturbed(0, 8, &[5.0, 6.0]), vec![5.0, 6.0]);
        assert!(undisturbed(0, 4, &[]).is_empty());
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used once");
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        assert!(END_TO_END
            .iter()
            .any(|&(n, u, b, _)| n == "setup_s" && u == "s" && b == "lower"));
    }
}
