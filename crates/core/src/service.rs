//! The resident advisor service: ingest traffic, watch for drift,
//! re-plan warm.
//!
//! Every solve elsewhere in the crate is a batch call over a fully
//! -specified workload. [`AdvisorService`] instead *lives alongside*
//! the warehouse, the setting where the paper's cost models pay off
//! continuously:
//!
//! 1. **Persistent catalog** — measured charges live in a
//!    [`CandidateCatalog`] that spills to disk atomically and reloads
//!    bit-identically ([`crate::catalog`]), so a restart never re-pays
//!    the measurement pipeline.
//! 2. **Stream ingest behind a high-water mark** — [`AdvisorService::ingest`]
//!    folds `(timestamp, query_id)`-stamped query events into per-query
//!    counts, skipping anything at or below the catalog's
//!    [`HighWaterMark`]; replaying a batch is therefore idempotent.
//! 3. **Drift detection + warm re-solve** — observed counts define the
//!    current workload frequency distribution; when its L1 distance
//!    from the resident plan's distribution crosses
//!    [`ServiceConfig::drift_threshold`], the service re-costs the
//!    workload and re-solves **without rebuilding the evaluator**: one
//!    [`IncrementalEvaluator::retarget`] (the O(m) model swap) plus
//!    local search over the standing answer tables. `mv_obs` counters
//!    pin the contract: a drift re-solve moves `evaluator/retarget`,
//!    never `evaluator/build`.
//! 4. **Concurrent what-ifs with snapshot isolation** — each
//!    [`AdvisorService::what_if`] runs on an [`IncrementalEvaluator::fork`]
//!    of the resident evaluator: the fork copies the per-selection
//!    caches (O(m)) and shares the answer index, which nothing writes,
//!    and the problem, which a flip only reads and a re-price or a
//!    retarget copies before writing. Any number of concurrent
//!    explorations can flip, re-price or retarget without perturbing
//!    the resident plan (property-tested in `tests/service.rs`); one
//!    that wants another candidate builds its own evaluator over
//!    `problem()` plus that candidate.
//!
//! The resident plan is always derived by one canonical procedure —
//! greedy fill from empty plus a bounded local-search polish on the
//! resident evaluator — so a service reloaded from a spilled catalog
//! reproduces the pre-restart plan (and its report, bit for bit)
//! whenever the spill happened at a re-solve point (the service's last
//! re-solve covered the spilled counts).

use std::collections::HashMap;
use std::path::Path;

use mv_select::{local_search, Evaluation, IncrementalEvaluator, Scenario, SelectionProblem};

use crate::advisor::cost_model_for;
use crate::catalog::{CandidateCatalog, HighWaterMark};
use crate::json::Json;
use crate::{Advisor, AdvisorConfig, AdvisorError};

/// Service-loop tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// The scenario the resident plan optimizes (MV1/MV2/MV3).
    pub scenario: Scenario,
    /// L1 distance between the plan's and the observed frequency
    /// *distributions* (each normalized to sum 1; the distance ranges
    /// over [0, 2]) above which ingest triggers a warm re-solve.
    pub drift_threshold: f64,
    /// Local-search move budget for each re-solve's polish pass.
    pub resolve_moves: usize,
}

impl ServiceConfig {
    /// Defaults: re-solve when a quarter of the probability mass moved.
    pub fn new(scenario: Scenario) -> ServiceConfig {
        ServiceConfig {
            scenario,
            drift_threshold: 0.25,
            resolve_moves: 64,
        }
    }
}

/// One observed query execution in the ingest stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryEvent {
    /// Event timestamp (opaque monotone clock; only compared).
    pub timestamp: u64,
    /// Unique event id, the tiebreaker within a timestamp.
    pub query_id: u64,
    /// The workload query that ran (must match a catalog workload name).
    pub query: String,
}

/// What one [`AdvisorService::ingest`] batch did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestOutcome {
    /// Events above the high-water mark, folded into the counts.
    pub accepted: u64,
    /// Events at or below the mark, skipped (idempotent replay).
    pub replayed: u64,
    /// L1 frequency drift after the batch (post-re-solve it is 0).
    pub drift: f64,
    /// Whether the batch pushed drift over the threshold and the
    /// resident plan was re-solved.
    pub resolved: bool,
}

/// The resident advisor: catalog + warm evaluator + current plan.
#[derive(Debug)]
pub struct AdvisorService {
    service_config: ServiceConfig,
    catalog: CandidateCatalog,
    query_index: HashMap<String, usize>,
    evaluator: IncrementalEvaluator<'static>,
    baseline: Evaluation,
    plan: Evaluation,
    /// The frequencies the resident plan was solved against.
    plan_frequencies: Vec<f64>,
    /// `plan_frequencies` as a distribution — the plan side of the
    /// drift check, which runs per ingest but moves only per re-solve.
    plan_shares: Vec<f64>,
    /// The catalog workload's total frequency; the catalog is private,
    /// so it holds for the service's life.
    mass: f64,
    /// The sum of the catalog's counts, bumped beside them.
    total: u64,
    resolves: u64,
    accepted: u64,
    replayed: u64,
}

impl AdvisorService {
    /// Starts a service over a freshly built [`Advisor`] (no disk
    /// involved until [`AdvisorService::spill`]).
    pub fn from_advisor(
        advisor: &Advisor,
        service_config: ServiceConfig,
    ) -> Result<AdvisorService, AdvisorError> {
        let catalog = CandidateCatalog::new(
            advisor.problem().model().context().workload.clone(),
            advisor.problem().candidates().to_vec(),
        );
        AdvisorService::from_catalog(catalog, advisor.config().clone(), service_config)
    }

    /// Restarts a service from a spilled catalog: no re-measurement —
    /// the selection problem is rebuilt from the catalog's charges
    /// (bit-identical to the problem that was spilled) and re-solved at
    /// the catalog's stream position.
    pub fn open(
        path: &Path,
        advisor_config: AdvisorConfig,
        service_config: ServiceConfig,
    ) -> Result<AdvisorService, AdvisorError> {
        let catalog = CandidateCatalog::load(path)?;
        AdvisorService::from_catalog(catalog, advisor_config, service_config)
    }

    /// The one constructor: problem from catalog charges, resident
    /// evaluator built once, plan derived by the canonical procedure.
    pub fn from_catalog(
        catalog: CandidateCatalog,
        advisor_config: AdvisorConfig,
        service_config: ServiceConfig,
    ) -> Result<AdvisorService, AdvisorError> {
        if catalog.workload().is_empty() {
            return Err(AdvisorError::EmptyWorkload);
        }
        if let Some(message) = catalog.misalignment() {
            return Err(AdvisorError::CatalogMisaligned { message });
        }
        // The model prices the workload at the catalog's stream
        // position (counts-adjusted frequencies) — a reload must land
        // on the same model a running service had after its last
        // re-solve, not on the pre-traffic one.
        let mass: f64 = catalog.workload().iter().map(|q| q.frequency).sum();
        let total: u64 = catalog.counts().iter().sum();
        let plan_frequencies = observed_frequencies(&catalog, mass, total);
        let mut workload = catalog.workload().to_vec();
        for (q, &f) in workload.iter_mut().zip(&plan_frequencies) {
            q.frequency = f;
        }
        let model = cost_model_for(&advisor_config, workload)?;
        let problem = SelectionProblem::new(model, catalog.candidates().to_vec());
        let query_index = catalog
            .workload()
            .iter()
            .enumerate()
            .map(|(i, q)| (q.name.clone(), i))
            .collect();
        // The service's ONE evaluator build — everything after this is
        // retarget/fork territory.
        let mut evaluator = IncrementalEvaluator::from_problem(problem);
        let baseline = evaluator.problem().baseline();
        let plan = solve_resident(&mut evaluator, &service_config, &baseline);
        Ok(AdvisorService {
            service_config,
            catalog,
            query_index,
            evaluator,
            baseline,
            plan,
            plan_shares: shares(&plan_frequencies),
            plan_frequencies,
            mass,
            total,
            resolves: 0,
            accepted: 0,
            replayed: 0,
        })
    }

    /// Folds a batch of stream events into the workload counts.
    ///
    /// Events at or below the catalog's high-water mark are skipped
    /// (`replayed`), so re-delivering a batch — a crash-recovery replay,
    /// an at-least-once stream — is idempotent. Events must arrive in
    /// `(timestamp, query_id)` order to all be accepted; an out-of-order
    /// event behind the mark is indistinguishable from a replay and is
    /// skipped. An unknown query name fails the whole batch before any
    /// state changes.
    ///
    /// After folding, the L1 drift between the resident plan's
    /// frequency distribution and the observed one is evaluated; at or
    /// above [`ServiceConfig::drift_threshold`] the plan is re-solved
    /// warm ([`AdvisorService::resolve`]).
    pub fn ingest(&mut self, events: &[QueryEvent]) -> Result<IngestOutcome, AdvisorError> {
        mv_obs::span!("service/ingest");
        // Validate the whole batch first: ingest is all-or-nothing.
        let indices: Vec<Option<usize>> = events
            .iter()
            .map(|e| {
                let mark = HighWaterMark {
                    timestamp: e.timestamp,
                    query_id: e.query_id,
                };
                if self.catalog.replays(mark, self.total) {
                    return Ok(None);
                }
                match self.query_index.get(&e.query) {
                    Some(&i) => Ok(Some(i)),
                    None => Err(AdvisorError::UnknownQuery {
                        name: e.query.clone(),
                    }),
                }
            })
            .collect::<Result<_, AdvisorError>>()?;
        let mut accepted = 0u64;
        let mut replayed = 0u64;
        for (e, index) in events.iter().zip(indices) {
            let mark = HighWaterMark {
                timestamp: e.timestamp,
                query_id: e.query_id,
            };
            // Re-check against the advancing mark: a duplicate *within*
            // the batch is a replay too.
            match index.filter(|_| !self.catalog.replays(mark, self.total)) {
                Some(i) => {
                    self.catalog.fold(i, mark);
                    self.total += 1;
                    accepted += 1;
                }
                None => replayed += 1,
            }
        }
        self.accepted += accepted;
        self.replayed += replayed;
        mv_obs::add(mv_obs::Counter::ServiceIngestEvents, accepted);
        mv_obs::add(mv_obs::Counter::ServiceIngestDuplicates, replayed);
        let drift = self.drift();
        let resolved = accepted > 0 && drift >= self.service_config.drift_threshold;
        if resolved {
            self.resolve()?;
        }
        Ok(IngestOutcome {
            accepted,
            replayed,
            drift: if resolved { self.drift() } else { drift },
            resolved,
        })
    }

    /// L1 distance between the resident plan's frequency distribution
    /// and the currently observed one (both normalized to sum 1; range
    /// [0, 2]). Zero while no events have been observed, and zero
    /// immediately after a re-solve.
    pub(crate) fn drift(&self) -> f64 {
        // Materialize, then reduce: fused into the in-order sums, the
        // counts-to-frequencies pass would stay scalar.
        let observed = observed_frequencies(&self.catalog, self.mass, self.total);
        let observed_mass: f64 = observed.iter().sum();
        if self.plan_shares.is_empty() || observed_mass <= 0.0 {
            return 0.0;
        }
        self.plan_shares
            .iter()
            .zip(&observed)
            .map(|(&share, &f)| (share - f / observed_mass).abs())
            .sum()
    }

    /// Re-solves the resident plan against the observed frequencies,
    /// warm: the standing evaluator is retargeted to its own model
    /// re-weighted (no rebuild — the sparse answer tables survive, only
    /// the frequencies move) and the canonical solve procedure runs on
    /// it.
    pub fn resolve(&mut self) -> Result<&Evaluation, AdvisorError> {
        mv_obs::span!("service/resolve");
        self.plan_frequencies = observed_frequencies(&self.catalog, self.mass, self.total);
        self.plan_shares = shares(&self.plan_frequencies);
        let model = self
            .evaluator
            .problem()
            .model()
            .with_frequencies(&self.plan_frequencies);
        self.evaluator.retarget(model);
        self.baseline = self.evaluator.problem().baseline();
        self.plan = solve_resident(&mut self.evaluator, &self.service_config, &self.baseline);
        self.resolves += 1;
        mv_obs::inc(mv_obs::Counter::ServiceDriftResolves);
        Ok(&self.plan)
    }

    /// Runs `explore` on a fork of the resident evaluator: snapshot
    /// isolation. The fork sees the resident plan's selection and
    /// model; nothing it flips, splices or retargets reaches the
    /// resident state — what the two share is copied by whichever side
    /// writes to it first. A fork that `explore` returns, kept alive
    /// across the next [`AdvisorService::resolve`], costs that
    /// re-solve one copy of the problem. `&self` — any number of
    /// what-ifs may run concurrently.
    pub fn what_if<R>(&self, explore: impl FnOnce(&mut IncrementalEvaluator<'static>) -> R) -> R {
        mv_obs::inc(mv_obs::Counter::ServiceWhatIfs);
        let mut fork = self.evaluator.fork();
        explore(&mut fork)
    }

    /// Convenience what-if: toggle the given candidates relative to the
    /// resident plan and evaluate.
    pub fn what_if_toggle(&self, toggles: &[usize]) -> Evaluation {
        self.what_if(|ev| {
            for &k in toggles {
                if ev.is_selected(k) {
                    ev.unflip(k);
                } else {
                    ev.flip(k);
                }
            }
            ev.snapshot()
        })
    }

    /// Durably spills the catalog (measured charges + counts + HWM) —
    /// atomic; see [`CandidateCatalog::spill`].
    pub fn spill(&self, path: &Path) -> Result<(), AdvisorError> {
        self.catalog.spill(path)
    }

    /// The catalog (charges, counts, high-water mark).
    pub fn catalog(&self) -> &CandidateCatalog {
        &self.catalog
    }

    /// The resident plan's evaluation.
    pub fn plan(&self) -> &Evaluation {
        &self.plan
    }

    /// The baseline (no views) evaluation of the current model.
    pub fn baseline(&self) -> &Evaluation {
        &self.baseline
    }

    /// Warm re-solves performed so far.
    pub fn resolves(&self) -> u64 {
        self.resolves
    }

    /// The names of the resident plan's selected views.
    pub fn selected_labels(&self) -> Vec<String> {
        self.plan
            .selection
            .ones()
            .map(|k| self.catalog.candidates()[k].name.clone())
            .collect()
    }

    /// The resident plan's report: scenario, selection, predicted
    /// time/cost, stream position. Deterministic in the catalog and the
    /// configs — a service reloaded from a spill taken at a re-solve
    /// point renders this byte-identically (pinned in
    /// `tests/service.rs`).
    pub fn plan_report(&self) -> Json {
        Json::obj(vec![
            ("scenario", Json::str(self.service_config.scenario.label())),
            (
                "selected",
                Json::Arr(self.selected_labels().into_iter().map(Json::Str).collect()),
            ),
            ("time_hours", Json::Num(self.plan.time.value())),
            ("cost", Json::Num(self.plan.cost().to_dollars_f64())),
            ("baseline_time_hours", Json::Num(self.baseline.time.value())),
            (
                "baseline_cost",
                Json::Num(self.baseline.cost().to_dollars_f64()),
            ),
            ("drift", Json::Num(self.drift())),
            (
                "hwm",
                Json::obj(vec![
                    ("timestamp", Json::UInt(self.catalog.hwm().timestamp)),
                    ("query_id", Json::UInt(self.catalog.hwm().query_id)),
                ]),
            ),
            (
                "frequencies",
                Json::Arr(
                    self.plan_frequencies
                        .iter()
                        .map(|&f| Json::Num(f))
                        .collect(),
                ),
            ),
        ])
    }

    /// The service-session status: the plan report plus loop counters
    /// (which are *session* state, deliberately outside the
    /// reload-identical plan report).
    pub fn status_json(&self) -> Json {
        Json::obj(vec![
            ("plan", self.plan_report()),
            ("accepted", Json::UInt(self.accepted)),
            ("replayed", Json::UInt(self.replayed)),
            ("resolves", Json::UInt(self.resolves)),
            (
                "candidates",
                Json::UInt(self.catalog.candidates().len() as u64),
            ),
        ])
    }
}

/// The canonical resident-plan procedure: greedy fill from the empty
/// selection, then a bounded best-improvement polish. Deterministic in
/// the problem, so first-build and reload-and-rebuild agree.
fn solve_resident(
    evaluator: &mut IncrementalEvaluator<'static>,
    config: &ServiceConfig,
    baseline: &Evaluation,
) -> Evaluation {
    for k in 0..evaluator.problem().len() {
        if evaluator.is_selected(k) {
            evaluator.unflip(k);
        }
    }
    local_search::greedy_fill(evaluator, config.scenario, baseline);
    local_search::improve(evaluator, config.scenario, baseline, config.resolve_moves)
}

/// The workload frequencies at the catalog's stream position. While no
/// events have been observed the original frequencies stand; afterwards
/// the observed distribution carries the workload's total frequency
/// mass (so bills stay comparable while the *mix* tracks traffic).
/// `mass` and `total` are the sums of the catalog's frequencies and of
/// its counts.
fn observed_frequencies(catalog: &CandidateCatalog, mass: f64, total: u64) -> Vec<f64> {
    if total == 0 {
        return catalog.workload().iter().map(|q| q.frequency).collect();
    }
    let total = total as f64;
    catalog
        .counts()
        .iter()
        .map(|&count| mass * count as f64 / total)
        .collect()
}

/// `frequencies` as a distribution: each over their in-order sum. Empty
/// when that sum is not positive — there is no distribution to drift
/// from.
fn shares(frequencies: &[f64]) -> Vec<f64> {
    let sum: f64 = frequencies.iter().sum();
    if sum <= 0.0 {
        return Vec::new();
    }
    frequencies.iter().map(|&f| f / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sales_domain;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The reference for `observed_frequencies`: every sum re-derived
    /// from the catalog.
    fn current_frequencies(catalog: &CandidateCatalog) -> Vec<f64> {
        let total: u64 = catalog.counts().iter().sum();
        let mass: f64 = catalog.workload().iter().map(|q| q.frequency).sum();
        catalog
            .workload()
            .iter()
            .zip(catalog.counts())
            .map(|(q, &count)| {
                if total > 0 {
                    mass * count as f64 / total as f64
                } else {
                    q.frequency
                }
            })
            .collect()
    }

    /// The reference for `drift`: L1 distance between two frequency
    /// vectors' normalized distributions, nothing cached.
    fn l1_distribution_distance(a: &[f64], b: &[f64]) -> f64 {
        let (sa, sb): (f64, f64) = (a.iter().sum(), b.iter().sum());
        if sa <= 0.0 || sb <= 0.0 {
            return 0.0;
        }
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x / sa - y / sb).abs())
            .sum()
    }

    fn small_service() -> AdvisorService {
        let domain = sales_domain(1_000, 3, 1.0, 42);
        let advisor = Advisor::build(domain, AdvisorConfig::default()).unwrap();
        AdvisorService::from_advisor(
            &advisor,
            ServiceConfig::new(Scenario::tradeoff_normalized(0.5)),
        )
        .unwrap()
    }

    fn events(specs: &[(u64, u64, &str)]) -> Vec<QueryEvent> {
        specs
            .iter()
            .map(|&(timestamp, query_id, query)| QueryEvent {
                timestamp,
                query_id,
                query: query.to_string(),
            })
            .collect()
    }

    #[test]
    fn ingest_is_hwm_idempotent() {
        let mut svc = small_service();
        let batch = events(&[(10, 1, "Q1"), (10, 2, "Q2"), (11, 1, "Q1")]);
        let first = svc.ingest(&batch).unwrap();
        assert_eq!(first.accepted, 3);
        assert_eq!(first.replayed, 0);
        let counts_after = svc.catalog().counts().to_vec();
        let hwm_after = svc.catalog().hwm();
        // Replaying the exact same batch (at-least-once delivery) is a
        // no-op: everything is at or below the mark.
        let again = svc.ingest(&batch).unwrap();
        assert_eq!(again.accepted, 0);
        assert_eq!(again.replayed, 3);
        assert_eq!(svc.catalog().counts(), counts_after);
        assert_eq!(svc.catalog().hwm(), hwm_after);
        assert!(!again.resolved, "a replayed batch never re-solves");
    }

    #[test]
    fn duplicate_within_a_batch_is_a_replay() {
        let mut svc = small_service();
        let out = svc
            .ingest(&events(&[(5, 1, "Q1"), (5, 1, "Q2"), (5, 2, "Q2")]))
            .unwrap();
        assert_eq!(out.accepted, 2);
        assert_eq!(out.replayed, 1);
        assert_eq!(svc.catalog().counts(), vec![1, 1, 0]);
    }

    #[test]
    fn unknown_query_fails_the_whole_batch() {
        let mut svc = small_service();
        let err = svc.ingest(&events(&[(1, 1, "Q1"), (1, 2, "Q99")]));
        assert!(matches!(err, Err(AdvisorError::UnknownQuery { .. })));
        // All-or-nothing: the valid prefix was not applied either.
        assert_eq!(svc.catalog().counts(), vec![0, 0, 0]);
        assert_eq!(svc.catalog().hwm(), HighWaterMark::default());
    }

    #[test]
    fn drift_is_zero_without_traffic_and_after_resolve() {
        let mut svc = small_service();
        assert_eq!(svc.drift(), 0.0);
        // Uniform traffic matches the uniform plan distribution: no
        // drift however many events arrive.
        let out = svc
            .ingest(&events(&[(1, 1, "Q1"), (1, 2, "Q2"), (1, 3, "Q3")]))
            .unwrap();
        assert!(out.drift < 1e-12, "{}", out.drift);
        assert!(!out.resolved);
        // Skewed traffic drifts, re-solves, and drift resets to 0.
        let skew: Vec<QueryEvent> = (0..30)
            .map(|i| QueryEvent {
                timestamp: 2,
                query_id: i + 1,
                query: "Q1".to_string(),
            })
            .collect();
        let out = svc.ingest(&skew).unwrap();
        assert!(out.resolved);
        assert_eq!(svc.resolves(), 1);
        assert!(svc.drift() < 1e-12, "{}", svc.drift());
    }

    #[test]
    fn drift_resolve_retargets_without_rebuilding() {
        let guard = mv_obs::CounterGuard::scoped();
        let mut svc = small_service();
        let base_builds = guard.local_delta(mv_obs::Counter::EvaluatorBuild);
        assert_eq!(base_builds, 1, "the service builds its evaluator once");
        let skew: Vec<QueryEvent> = (0..40)
            .map(|i| QueryEvent {
                timestamp: 1,
                query_id: i + 1,
                query: "Q2".to_string(),
            })
            .collect();
        let out = svc.ingest(&skew).unwrap();
        assert!(out.resolved, "skewed traffic must trigger a re-solve");
        // The ISSUE's contract: drift re-solves are retarget-only.
        assert_eq!(
            guard.local_delta(mv_obs::Counter::EvaluatorBuild),
            base_builds,
            "a drift re-solve must not rebuild the evaluator"
        );
        assert!(guard.local_delta(mv_obs::Counter::EvaluatorRetarget) > 0);
        assert_eq!(guard.local_delta(mv_obs::Counter::ServiceDriftResolves), 1);
    }

    #[test]
    fn what_ifs_never_perturb_the_resident_plan() {
        let svc = small_service();
        let before = svc.plan().clone();
        let n = svc.catalog().candidates().len();
        for k in 0..n {
            let _ = svc.what_if_toggle(&[k]);
        }
        let toggled = svc.what_if_toggle(&[0, 1, 2]);
        assert_ne!(toggled.selection, before.selection);
        assert_eq!(svc.plan(), &before);
        // The resident evaluator still evaluates to the same plan.
        let resident = svc.what_if(|ev| ev.snapshot());
        assert_eq!(resident, before);
    }

    #[test]
    fn drift_is_the_charge_cloning_expression_bit_for_bit() {
        // What `drift` computes, with nothing kept between calls.
        fn reference(svc: &AdvisorService) -> u64 {
            let observed = current_frequencies(svc.catalog());
            l1_distribution_distance(&svc.plan_frequencies, &observed).to_bits()
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut id = 0;
        let mut batch_at = |timestamp: u64| -> Vec<QueryEvent> {
            (0..1 + timestamp % 5)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    id += 1;
                    QueryEvent {
                        timestamp,
                        query_id: id,
                        // Skewed towards Q1, so some batches re-solve.
                        query: ["Q1", "Q1", "Q1", "Q2", "Q3"][(state % 5) as usize].to_string(),
                    }
                })
                .collect()
        };
        let mut svc = small_service();
        // No events yet: the counts' total is zero.
        assert_eq!(svc.drift().to_bits(), reference(&svc));
        for batch in 0..60u64 {
            let specs = batch_at(batch);
            let out = svc.ingest(&specs).unwrap();
            assert_eq!(out.drift.to_bits(), reference(&svc), "batch {batch}");
            assert_eq!(svc.drift().to_bits(), out.drift.to_bits(), "batch {batch}");
            if out.resolved {
                // Straight after a re-solve the plan side moved too.
                let observed = current_frequencies(svc.catalog());
                assert_eq!(svc.plan_frequencies, observed, "batch {batch}");
            }
            if batch % 7 == 0 {
                // A replay-only batch moves no count and no total.
                let again = svc.ingest(&specs).unwrap();
                assert_eq!(again.accepted, 0, "batch {batch}");
                assert_eq!(again.drift.to_bits(), reference(&svc), "batch {batch}");
            }
        }
        assert!(svc.resolves() > 0, "the skew never re-solved");
        assert!(svc.drift() > 0.0, "the walk ended on a re-solve");

        // Spill → open: the reloaded service derives its constants from
        // the spilled counts, and then tracks the running one.
        let path = std::env::temp_dir().join(format!("mvcloud-drift-{}.json", std::process::id()));
        svc.spill(&path).unwrap();
        let config = ServiceConfig::new(Scenario::tradeoff_normalized(0.5));
        let mut reopened = AdvisorService::open(&path, AdvisorConfig::default(), config).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(reopened.drift().to_bits(), reference(&reopened));
        for batch in 60..80u64 {
            let specs = batch_at(batch);
            let out = reopened.ingest(&specs).unwrap();
            assert_eq!(out.drift.to_bits(), reference(&reopened), "batch {batch}");
            let out = svc.ingest(&specs).unwrap();
            assert_eq!(out.drift.to_bits(), reference(&svc), "batch {batch}");
        }
        assert_eq!(reopened.catalog().counts(), svc.catalog().counts());
    }

    #[test]
    fn a_workload_without_frequency_mass_never_drifts() {
        // Nothing to normalize on the plan side: drift is 0.0 — not the
        // NaN a cached 0 / 0 share would make — before and after traffic.
        let catalog = small_service().catalog;
        let mut workload = catalog.workload().to_vec();
        for q in &mut workload {
            q.frequency = 0.0;
        }
        let catalog = CandidateCatalog::new(workload, catalog.candidates().to_vec());
        let config = ServiceConfig::new(Scenario::budget(mv_units::Money::from_dollars(100)));
        let mut svc =
            AdvisorService::from_catalog(catalog, AdvisorConfig::default(), config).unwrap();
        assert_eq!(svc.drift().to_bits(), 0f64.to_bits());
        let out = svc
            .ingest(&events(&[(1, 1, "Q1"), (1, 2, "Q1"), (2, 1, "Q3")]))
            .unwrap();
        assert_eq!(out.drift.to_bits(), 0f64.to_bits());
        assert!(!out.resolved);
        svc.resolve().unwrap();
        assert_eq!(svc.drift().to_bits(), 0f64.to_bits());
        assert!(svc.plan_report().render().contains("\"drift\":0,"));
    }

    #[test]
    fn frequencies_preserve_total_mass() {
        let catalog = {
            let domain = sales_domain(800, 3, 2.0, 7);
            let advisor = Advisor::build(domain, AdvisorConfig::default()).unwrap();
            let mut c = CandidateCatalog::new(
                advisor.problem().model().context().workload.clone(),
                advisor.problem().candidates().to_vec(),
            );
            for (t, query) in [0, 0, 0, 1].into_iter().enumerate() {
                c.fold(
                    query,
                    HighWaterMark {
                        timestamp: t as u64,
                        query_id: 0,
                    },
                );
            }
            c
        };
        let frequencies = observed_frequencies(&catalog, 6.0, 4);
        assert_eq!(frequencies, current_frequencies(&catalog));
        let mass: f64 = frequencies.iter().sum();
        assert!((mass - 6.0).abs() < 1e-12, "3 queries × frequency 2");
        assert!((frequencies[0] - 4.5).abs() < 1e-12);
        assert_eq!(frequencies[2], 0.0);
    }

    #[test]
    fn catalog_bytes_never_reach_a_panic() {
        // A spilled catalog, damaged four ways — truncated, one bit
        // flipped, one byte substituted, one byte inserted — ends every
        // case as a service or a typed error, never a panic, through
        // each stage a reload runs: parse, decode, service start. Bytes
        // that are no longer UTF-8 stop at `load`'s `read_to_string`.
        const SEED: u64 = 43;
        const CASES: usize = 20_000;
        println!("seed {SEED}");
        let mut svc = small_service();
        svc.ingest(&events(&[(1, 1, "Q1"), (1, 2, "Q2"), (2, 1, "Q3")]))
            .unwrap();
        let spilled = svc.catalog().to_json().render_pretty().into_bytes();
        let mut rng = StdRng::seed_from_u64(SEED);
        let (mut started, mut errors) = (0, 0);
        for case in 0..CASES {
            let mut bytes = spilled.clone();
            let at = rng.random_range(0..bytes.len());
            let kind = ["truncate", "flip", "substitute", "insert"][case % 4];
            match kind {
                "truncate" => bytes.truncate(at),
                "flip" => bytes[at] ^= 1 << rng.random_range(0..8u32),
                "substitute" => bytes[at] = rng.random_range(0..=255u8),
                _ => bytes.insert(at, rng.random_range(0..=255u8)),
            }
            let reload = std::panic::catch_unwind(|| {
                let text = std::str::from_utf8(&bytes).map_err(|e| e.to_string())?;
                let doc = Json::parse(text)?;
                let catalog = CandidateCatalog::from_json(&doc)?;
                let config = ServiceConfig::new(Scenario::tradeoff_normalized(0.5));
                AdvisorService::from_catalog(catalog, AdvisorConfig::default(), config)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            });
            match reload {
                Ok(Ok(())) => started += 1,
                Ok(Err(_)) => errors += 1,
                Err(_) => panic!("case {case} ({kind} at byte {at}, seed {SEED}) panicked"),
            }
        }
        assert_eq!(started + errors, CASES);
        assert!(errors > 0, "no damage was caught");
    }
}
