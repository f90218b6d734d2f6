//! `serve_stream`: a resident `AdvisorService` over a mid-scale
//! catalog; one op is one tick of mixed traffic.

use std::path::{Path, PathBuf};

use mvcloud::json::Json;
use mvcloud::lattice::ScaleShape;
use mvcloud::select::local_search;
use mvcloud::{
    scale_problem, AdvisorConfig, AdvisorService, CandidateCatalog, Evaluation, IngestOutcome,
    QueryEvent, ServiceConfig,
};

use super::{digest_evaluation, improvement, scenario_mv3};
use crate::cli::{args, Cli, SLOW_SPAWNS};
use crate::gen::{lane_seed, EventStream, Rng};
use crate::harness::{Layer, OpCheck, Workload};
use crate::trace::{spanned, Decompose, Span, Tracer, NONE, OP};

/// Final sizes (frozen; see README): n = 256 / m = 4 096 / mean
/// coverage 12; a tick is one 64-event batch, 16 single-event ingests
/// and 8 two-toggle what-ifs; one batch in 20 is re-delivered. The
/// service lives for a *session* of 300 ticks, whose last tick also
/// re-solves, spills and reloads the spill; then a fresh service replays
/// the same session, so tick `t` of every session does identical work.
/// With the drift re-solve the moving hot set triggers, one explicit
/// re-solve per session keeps re-solves near a quarter of timed wall.
const FROZEN: Sizes = Sizes {
    candidates: 256,
    queries: 4_096,
    preload: 60_000,
};
const BATCH: usize = 64;
const SINGLES: usize = 16;
const WHATIFS: usize = 8;
const SESSION: usize = 300;
const REDELIVER_EVERY: usize = 20;
/// Lines of the CSV the CLI parity pass streams through `serve`.
const CLI_EVENTS: usize = 1_000;

/// The catalog's shape and the session's head start.
#[derive(Clone, Copy)]
struct Sizes {
    candidates: usize,
    queries: usize,
    /// Yesterday's traffic, folded in at the session's start: with it
    /// the observed mix has mass, so a re-solve during the session
    /// means the hot set moved, not that ten events make a noisy
    /// histogram.
    preload: usize,
}

/// One tick's generated inputs.
struct Tick {
    batch: Vec<QueryEvent>,
    redeliver: bool,
    singles: Vec<QueryEvent>,
    toggles: Vec<[usize; 2]>,
}

/// What one tick returned.
#[derive(Default)]
struct Outputs {
    /// Events sent and what ingest said, per call.
    ingests: Vec<(usize, IngestOutcome)>,
    whatifs: Vec<Evaluation>,
    resolved: bool,
    reloaded: Option<AdvisorService>,
}

/// One session's state: the resident service and its traffic source.
struct Session {
    sizes: Sizes,
    svc: AdvisorService,
    stream: EventStream,
    toggles: Rng,
}

pub struct ServeStream {
    session: Session,
    spill: PathBuf,
    scratch: PathBuf,
    seed: u64,
    next: Option<Tick>,
    last: Outputs,
}

/// The polish pass scans an O(n²) swap neighbourhood per accepted move
/// (≈ 50 ms at n = 256), and how many moves a re-solve finds depends on
/// the traffic: with the default budget of 64 one re-solve costs between
/// 0.13 s and 2.4 s. This budget keeps it within 0.13–0.45 s, so the
/// traffic seed does not decide the session's time.
const RESOLVE_MOVES: usize = 2;

fn configs() -> (AdvisorConfig, ServiceConfig) {
    let service = ServiceConfig {
        resolve_moves: RESOLVE_MOVES,
        ..ServiceConfig::new(scenario_mv3())
    };
    (AdvisorConfig::default(), service)
}

fn names(sizes: Sizes) -> Vec<String> {
    (0..sizes.queries).map(|i| format!("Q{i}")).collect()
}

/// The catalog is the same for every workload seed — the seed drives
/// the traffic. At n = 256 one generated catalog differs from another by
/// 2× in what a re-solve costs and in what its plan saves, which would
/// make the seed, not the program, decide the run's numbers.
fn fresh_catalog(sizes: Sizes) -> CandidateCatalog {
    let problem = scale_problem(&ScaleShape {
        queries: sizes.queries,
        candidates: sizes.candidates,
        mean_coverage: 12,
        seed: 0x0063_6174_616c_6f67,
    });
    CandidateCatalog::new(
        problem.model().context().workload.clone(),
        problem.candidates().to_vec(),
    )
}

impl Session {
    /// A service over the fresh catalog with yesterday's traffic folded
    /// in, and the session's event and toggle streams at their start.
    fn start(seed: u64, sizes: Sizes) -> Result<Session, String> {
        let (advisor_config, service_config) = configs();
        let catalog = fresh_catalog(sizes);
        let mut svc = AdvisorService::from_catalog(catalog, advisor_config, service_config)
            .map_err(|e| e.to_string())?;
        let mut stream = EventStream::new(names(sizes), lane_seed(seed, 1));
        let preload = stream.events(0, 0, sizes.preload);
        svc.ingest(&preload).map_err(|e| e.to_string())?;
        Ok(Session {
            sizes,
            svc,
            stream,
            toggles: Rng::new(lane_seed(seed, 2)),
        })
    }
}

impl ServeStream {
    /// The session's last tick: re-solve, spill, reload.
    fn closing_tick(i: usize) -> bool {
        i % SESSION == SESSION - 1
    }
}

impl Workload for ServeStream {
    const NAME: &'static str = "serve_stream";
    const WHY: &'static str = "resident AdvisorService (n=256/m=4096): batch and single-event ingest, what-if forks, retarget re-solves, spill and reload in one loop, so a gain for reads that costs writes or catalog I/O shows";
    const WARMUP: usize = 5;
    const SETTLE: usize = 15;
    const CYCLE: usize = SESSION;
    const PREFIX: usize = SESSION;
    const PAIRED: bool = false;
    const DECOMPOSE: &'static [Decompose] = &[
        ("core.whatif", "select.fork"),
        ("core.whatif", "select.whatif_eval"),
        ("core.resolve", "select.retarget"),
        ("core.resolve", "select.resident_solve"),
    ];

    fn setup(seed: u64, scratch: &Path) -> Result<Self, String> {
        Ok(ServeStream {
            session: Session::start(seed, FROZEN)?,
            spill: scratch.join("catalog.json"),
            scratch: scratch.to_path_buf(),
            seed,
            next: None,
            last: Outputs::default(),
        })
    }

    fn prepare(&mut self, i: usize) {
        let tick = i % SESSION;
        if tick == 0 && i > 0 {
            self.session =
                Session::start(self.seed, self.session.sizes).expect("the first session started");
        }
        let session = &mut self.session;
        let n = session.sizes.candidates;
        let timestamp = tick as u64 + 1;
        let batch = session.stream.events(tick, timestamp, BATCH);
        let singles = session.stream.events(tick, timestamp, SINGLES);
        let toggles = (0..WHATIFS)
            .map(|_| [session.toggles.below(n), session.toggles.below(n)])
            .collect();
        self.next = Some(Tick {
            batch,
            redeliver: tick % REDELIVER_EVERY == REDELIVER_EVERY - 1,
            singles,
            toggles,
        });
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer) -> Result<(), String> {
        let tick = self.next.take().ok_or("tick not prepared")?;
        let mut out = Outputs::default();
        let svc = &mut self.session.svc;
        let span = tracer.begin("core.ingest_batch");
        let ingested = svc.ingest(&tick.batch);
        tracer.end(span);
        let ingested = ingested.map_err(|e| e.to_string())?;
        if ingested.resolved {
            tracer.rename(span, "core.ingest_resolve");
        }
        out.ingests.push((BATCH, ingested));
        if tick.redeliver {
            let replayed = spanned(tracer, "core.ingest_replay", || svc.ingest(&tick.batch))
                .map_err(|e| e.to_string())?;
            out.ingests.push((BATCH, replayed));
        }
        for event in &tick.singles {
            let span = tracer.begin("core.ingest_single");
            let ingested = svc.ingest(std::slice::from_ref(event));
            tracer.end(span);
            let ingested = ingested.map_err(|e| e.to_string())?;
            if ingested.resolved {
                tracer.rename(span, "core.ingest_resolve");
            }
            out.ingests.push((1, ingested));
        }
        for toggles in &tick.toggles {
            out.whatifs.push(spanned(tracer, "core.whatif", || {
                svc.what_if_toggle(toggles)
            }));
        }
        if Self::closing_tick(i) {
            spanned(tracer, "core.resolve", || svc.resolve().map(|_| ()))
                .map_err(|e| e.to_string())?;
            out.resolved = true;
            spanned(tracer, "core.spill", || svc.spill(&self.spill)).map_err(|e| e.to_string())?;
            let (advisor_config, service_config) = configs();
            let reloaded = spanned(tracer, "core.reload", || {
                AdvisorService::open(&self.spill, advisor_config, service_config)
            })
            .map_err(|e| e.to_string())?;
            out.reloaded = Some(reloaded);
        }
        self.last = out;
        Ok(())
    }

    fn check(&mut self, i: usize, out: &mut OpCheck) {
        let last = &self.last;
        let mut resolved = last.resolved;
        for (k, (sent, o)) in last.ingests.iter().enumerate() {
            out.require(o.accepted + o.replayed == *sent as u64, || {
                format!("ingest {k}: accepted + replayed != sent")
            });
            resolved |= o.resolved;
            out.digest.u64(o.accepted);
            out.digest.u64(o.replayed);
            out.digest.f64(o.drift);
        }
        out.require(last.ingests[0].1.replayed == 0, || {
            "fresh batch partly replayed".to_string()
        });
        if last.ingests.len() > 1 + SINGLES {
            out.require(last.ingests[1].1.accepted == 0, || {
                "re-delivered batch not behind the high-water mark".to_string()
            });
        }
        for e in &last.whatifs {
            digest_evaluation(&mut out.digest, e);
        }
        // The slow reference costs as much as a tick, so it checks one
        // what-if every tenth tick (never where the tick's own re-solve
        // has since moved the model), and the plan after every re-solve.
        let svc = &self.session.svc;
        if let Some(e) = last
            .whatifs
            .get(i / 10 % WHATIFS)
            .filter(|_| i.is_multiple_of(10) && !last.resolved)
        {
            out.require(
                svc.what_if(|ev| ev.problem().evaluate(&e.selection)) == *e,
                || "what-if differs from full evaluate".to_string(),
            );
        }
        if resolved {
            let plan = svc.plan();
            out.require(
                svc.what_if(|ev| ev.problem().evaluate(&plan.selection)) == *plan,
                || "resident plan differs from full evaluate".to_string(),
            );
            out.savings
                .push(improvement(scenario_mv3(), plan, svc.baseline()));
            out.digest.str(&svc.plan_report().render());
        }
        if let Some(reloaded) = &last.reloaded {
            out.require(
                reloaded.plan_report().render() == svc.plan_report().render(),
                || "reloaded plan report differs from the resident one".to_string(),
            );
        }
    }

    fn probe(&mut self, i: usize, tracer: &mut Tracer, layer: &mut Layer) {
        // Probe where a re-solve ran, so its stage has a counterpart.
        if !Self::closing_tick(i) {
            return;
        }
        let svc = &self.session.svc;
        let candidates = self.session.sizes.candidates;
        let plan = svc.plan().clone();
        let baseline = svc.baseline().clone();
        let (_, service_config) = configs();
        // What a what-if costs beside the service: the fork, then the
        // toggles and snapshot on it — as many as a tick makes.
        for j in 0..WHATIFS {
            spanned(tracer, "select.fork", || svc.what_if(|_| ()));
            svc.what_if(|ev| {
                let span = tracer.begin("select.whatif_eval");
                for k in [(i + j) % candidates, (i * 7 + j) % candidates] {
                    if ev.is_selected(k) {
                        ev.unflip(k);
                    } else {
                        ev.flip(k);
                    }
                }
                std::hint::black_box(ev.snapshot());
                tracer.end(span);
            });
        }
        // What a re-solve asks of the evaluator: one retarget, then the
        // resident procedure (greedy fill + bounded polish).
        svc.what_if(|ev| {
            let model = ev.problem().model().clone();
            spanned(tracer, "select.retarget", || ev.retarget(model));
            let span = tracer.begin("select.resident_solve");
            for k in 0..candidates {
                if ev.is_selected(k) {
                    ev.unflip(k);
                }
            }
            local_search::greedy_fill(ev, service_config.scenario, &baseline);
            std::hint::black_box(local_search::improve(
                ev,
                service_config.scenario,
                &baseline,
                service_config.resolve_moves,
            ));
            tracer.end(span);
            spanned(tracer, "cost.full_evaluate", || {
                ev.problem().evaluate(&plan.selection)
            });
        });
        // The catalog codec.
        let doc = svc.catalog().to_json();
        let text = spanned(tracer, "core.json_render", || doc.render_pretty());
        let render_ns = tracer.last_ns().max(1.0);
        spanned(tracer, "core.json_parse", || Json::parse(&text))
            .expect("the catalog's own rendering parses");
        let parse_ns = tracer.last_ns().max(1.0);
        let mb = text.len() as f64 / 1e6;
        layer.sample("core.json_render_mb_per_s", mb / (render_ns * 1e-9));
        layer.sample("core.json_parse_mb_per_s", mb / (parse_ns * 1e-9));
        layer.set("core.catalog_bytes", text.len() as f64);
    }

    fn finish(&mut self, spans: &[Span], layer: &mut Layer) {
        let total = |names: &[&str]| -> f64 {
            spans
                .iter()
                .filter(|s| s.parent != NONE && names.contains(&s.name))
                .map(|s| s.duration_ns() as f64)
                .sum()
        };
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
        for s in spans.iter().filter(|s| s.name == "core.ingest_batch") {
            layer.sample(
                "core.ingest_event_ns",
                s.duration_ns() as f64 / BATCH as f64,
            );
        }
        let ingest_ns = total(&[
            "core.ingest_batch",
            "core.ingest_replay",
            "core.ingest_single",
        ]);
        let events = count("core.ingest_batch") * BATCH as f64 + count("core.ingest_single");
        let op_ns: f64 = spans
            .iter()
            .filter(|s| s.name == OP)
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
            .max(1.0);
        layer.set(
            "core.service_events_per_s",
            events / (ingest_ns.max(1.0) * 1e-9),
        );
        layer.set("mix.ingest", ingest_ns / op_ns);
        layer.set("mix.whatif", total(&["core.whatif"]) / op_ns);
        // A drift re-solve runs inside the ingest that triggered it.
        layer.set(
            "mix.resolve",
            total(&["core.resolve", "core.ingest_resolve"]) / op_ns,
        );
        layer.set(
            "mix.spill_reload",
            total(&["core.spill", "core.reload"]) / op_ns,
        );
    }

    fn cli_parity(&mut self, cli: &Cli, layer: &mut Layer) -> Result<(), String> {
        // `serve --catalog <the mid-scale spill> --ingest <CSV>`: the
        // catalog is reloaded, every line is one single-event ingest,
        // and the catalog is spilled again on exit — so each spawn
        // starts from a fresh copy.
        let pristine = self.scratch.join("cli-pristine.json");
        let working = self.scratch.join("cli-catalog.json");
        let csv = self.scratch.join("cli-events.csv");
        fresh_catalog(FROZEN)
            .spill(&pristine)
            .map_err(|e| e.to_string())?;
        let events =
            EventStream::new(names(FROZEN), lane_seed(self.seed, 3)).events(0, 1, CLI_EVENTS);
        let lines: Vec<String> = events
            .iter()
            .map(|e| format!("{},{},{}", e.timestamp, e.query_id, e.query))
            .collect();
        std::fs::write(&csv, lines.join("\n")).map_err(|e| e.to_string())?;
        let command = args(&format!(
            "serve --catalog {} --ingest {} --alpha 0.5 --moves {RESOLVE_MOVES}",
            working.display(),
            csv.display()
        ));
        let (stdout, wall_ms) = cli.median_wall(&command, SLOW_SPAWNS, || {
            std::fs::copy(&pristine, &working)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })?;
        layer.set("cli.serve_ingest_wall_ms", wall_ms);

        let (advisor_config, service_config) = configs();
        let mut svc = AdvisorService::open(&pristine, advisor_config, service_config)
            .map_err(|e| e.to_string())?;
        for event in &events {
            svc.ingest(std::slice::from_ref(event))
                .map_err(|e| e.to_string())?;
        }
        // The status document follows the "resolved after line" notes.
        let status = stdout
            .find("\n{")
            .map_or(stdout.as_str(), |at| &stdout[at + 1..]);
        let same = Json::parse(status).ok().is_some_and(|doc| {
            let selected: Option<Vec<&str>> = doc
                .get("plan")
                .and_then(|p| p.get("selected"))
                .and_then(Json::as_array)
                .map(|a| a.iter().filter_map(Json::as_str).collect());
            selected == Some(svc.selected_labels().iter().map(String::as_str).collect())
                && doc.get("accepted").and_then(Json::as_u64) == Some(CLI_EVENTS as u64)
                && doc.get("resolves").and_then(Json::as_u64) == Some(svc.resolves())
        });
        layer.add("cli.parity_failures", f64::from(u8::from(!same)));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Fnv;

    /// A small catalog, so the test also runs unoptimized.
    const SMALL: Sizes = Sizes {
        candidates: 24,
        queries: 192,
        preload: 400,
    };

    /// Runs the first `ticks` ticks of a session; returns the output
    /// digest and the number of re-solves the traffic triggered.
    fn replay(seed: u64, ticks: usize) -> (u64, u64) {
        let dir = std::env::temp_dir().join(format!("mv-benchmark-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = ServeStream {
            session: Session::start(seed, SMALL).unwrap(),
            spill: dir.join(format!("catalog-{seed}.json")),
            scratch: dir,
            seed,
            next: None,
            last: Outputs::default(),
        };
        let mut tracer = Tracer::off();
        let mut digest = Fnv::default();
        for i in 0..ticks {
            w.prepare(i);
            w.op(i, &mut tracer).unwrap();
            let mut check = OpCheck::default();
            w.check(i, &mut check);
            assert_eq!(check.error, None, "tick {i}");
            digest.u64(check.digest.0);
        }
        (digest.0, w.session.svc.resolves())
    }

    #[test]
    fn a_session_repeats_exactly_per_seed_and_its_traffic_re_solves() {
        // Enough ticks for the hot set to move twice.
        let ticks = 2 * crate::gen::ROTATE_EVERY + 5;
        let (digest, resolves) = replay(5, ticks);
        assert_eq!(
            (digest, resolves),
            replay(5, ticks),
            "same seed, same session"
        );
        assert!(resolves >= 2, "the moving hot set re-solves: {resolves}");
        assert_ne!(digest, replay(6, ticks).0, "another seed, other traffic");
    }
}
