//! The end-to-end advisor.
//!
//! [`Advisor::build`] runs the whole measurement pipeline the paper
//! describes (select on the client, materialize in the cloud):
//!
//! 1. generate candidate cuboids from the lattice;
//! 2. meter every candidate from its group count, finest first: the
//!    counting pass ([`PlannedView::count`]) runs over the
//!    representatives of the smallest already-measured view that derives
//!    it, and over the base table only when none does; the stored size,
//!    the from-base build's scan and the answer profile are read off the
//!    count, and no candidate's rows are built. Likewise one incremental
//!    refresh of the maintenance batch;
//! 3. meter the workload on the base table;
//! 4. convert scan bytes to simulated cluster-hours and stored bytes to
//!    cloud gigabytes. Every scan is read off cardinalities (rows × the
//!    width of the columns it would read, the width rule executed scans
//!    are metered with): each build's, the improved time of every query
//!    a candidate answers ([`PlannedView::planned_scan_bytes`]), and the
//!    workload's and each refresh's ([`AggQuery::planned_scan`]) — while
//!    Σ|measure| over the base table and the batch fits `i64`: every SUM
//!    the meter forms adds up a subset of those rows, so none can leave
//!    it. Past that bound each candidate is materialized from the base
//!    table and refreshed on a copy, the workload runs, and a total
//!    leaving `i64` is their typed error;
//! 5. assemble the [`SelectionProblem`] over the paper's cost models.
//!
//! [`Advisor::solve`] then runs any scenario × solver combination, and
//! [`Advisor::materialize_selection`] builds the chosen views' rows from
//! the base table and registers them in a catalog, ready to serve
//! queries.

use std::cmp::Reverse;

use mv_cost::{CloudCostModel, CostContext, QueryCharge, ViewCharge};
use mv_engine::{
    AggQuery, AggSpec, MaterializedView, PlannedView, SimScale, Table, ThroughputModel,
    ViewCatalog, ViewDefinition,
};
use mv_lattice::{candidates, Cuboid, SizeEstimator};
use mv_pricing::{PricingPolicy, UsageLedger};
use mv_select::{Outcome, Scenario, SelectionProblem, SelectionSet, SolverKind};
use mv_units::{Gb, Hours, Months};

use crate::{AdvisorError, Domain};

/// How candidate views are generated from the lattice (the paper's
/// "existing materialized view selection method").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateStrategy {
    /// Every non-base cuboid.
    FullLattice,
    /// Workload cuboids plus pairwise least-common-ancestors.
    WorkloadClosure,
    /// HRU greedy benefit-per-space, bounded to `k` views.
    HruGreedy(usize),
}

/// How engine measurements are projected to the simulated cloud scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizingMode {
    /// Multiply all engine byte counts by the dataset scale factor. Only
    /// correct when the engine table *is* the full dataset (scale ≈ 1):
    /// aggregate results and views do not grow linearly with the fact
    /// table.
    MeasuredScaled,
    /// Scale scan work by the cloud/engine *row* ratio and project result
    /// and view row counts with Cardenas' formula over the lattice's key
    /// domains — group counts saturate, exactly as they would at full
    /// scale. This is the default and matches how the paper's 10 GB
    /// evaluation behaves.
    Extrapolated,
}

/// Advisor configuration.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Provider pricing policy.
    pub pricing: PricingPolicy,
    /// Rented instance configuration name (must be in the catalog).
    pub instance: String,
    /// Number of identical instances (`nbIC`).
    pub nb_instances: u32,
    /// Billing horizon for storage.
    pub months: Months,
    /// Simulated ("cloud") dataset size the engine table represents; the
    /// paper's evaluation uses 10 GB.
    pub simulated_dataset: Gb,
    /// Work → hours conversion.
    pub throughput: ThroughputModel,
    /// Candidate generation strategy.
    pub candidates: CandidateStrategy,
    /// Engine threads for materialization.
    pub threads: usize,
    /// Size of the monthly insert batch used to meter view maintenance, as
    /// a fraction of the base rows. `0.0` models the paper's §6 evaluation
    /// where the dataset is static during the period (no refresh charge).
    pub maintenance_delta_fraction: f64,
    /// Engine-to-cloud projection mode.
    pub sizing: SizingMode,
}

impl Default for AdvisorConfig {
    /// The paper's experimental setup: AWS-2012 pricing, two small
    /// instances, a 10 GB dataset, one-month horizon, full-lattice
    /// candidates.
    fn default() -> Self {
        AdvisorConfig {
            pricing: mv_pricing::presets::aws_2012(),
            instance: "small".to_string(),
            nb_instances: 2,
            months: Months::new(1.0),
            simulated_dataset: Gb::new(10.0),
            throughput: ThroughputModel::default(),
            candidates: CandidateStrategy::FullLattice,
            threads: 1,
            maintenance_delta_fraction: 0.02,
            sizing: SizingMode::Extrapolated,
        }
    }
}

/// One measured candidate: the lattice cuboid, its engine view's plan,
/// and the derived [`ViewCharge`].
#[derive(Debug, Clone)]
pub struct MeasuredCandidate {
    /// The cuboid this candidate materializes.
    pub cuboid: Cuboid,
    /// Human-readable label (`"month×country"`).
    pub label: String,
    /// The engine view without its rows
    /// ([`PlannedView::materialize`] builds them).
    pub view: PlannedView,
    /// The cost-model attributes fed to the optimizer.
    pub charge: ViewCharge,
}

/// The built advisor: measured workload + candidates + selection problem.
#[derive(Debug)]
pub struct Advisor {
    domain: Domain,
    config: AdvisorConfig,
    scale: SimScale,
    queries: Vec<AggQuery>,
    measured: Vec<MeasuredCandidate>,
    problem: SelectionProblem,
}

/// The configured instance type on the configured price sheet.
fn configured_instance(config: &AdvisorConfig) -> Result<&mv_pricing::InstanceType, AdvisorError> {
    config
        .pricing
        .compute
        .instance(&config.instance)
        .map_err(|_| AdvisorError::UnknownInstance {
            name: config.instance.clone(),
        })
}

/// Assembles the paper's cost model from the advisor configuration and
/// the given workload charges. The measurement pipeline and the
/// resident service both go through this one assembly, so bit-identical
/// inputs produce a bit-identical model.
pub(crate) fn cost_model_for(
    config: &AdvisorConfig,
    workload: Vec<QueryCharge>,
) -> Result<CloudCostModel, AdvisorError> {
    Ok(CloudCostModel::new(CostContext {
        pricing: config.pricing.clone(),
        instance: configured_instance(config)?.clone(),
        nb_instances: config.nb_instances,
        months: config.months,
        dataset_size: config.simulated_dataset,
        workload,
    }))
}

/// The measurement context [`Advisor::build`] meters candidates
/// through: validated instance capacity, the engine→cloud scale
/// mapping, the executable workload, and the extrapolation parameters.
pub(crate) struct CandidateMeter<'a> {
    domain: &'a Domain,
    config: &'a AdvisorConfig,
    scale: SimScale,
    pub(crate) units: f64,
    engine_rows: f64,
    cloud_rows: f64,
    queries: Vec<AggQuery>,
    delta: Option<Table>,
    /// Σ|measure| over the base table and the maintenance batch fits
    /// `i64`: the passes read only for their metering are planned.
    planned: bool,
}

/// A measured candidate as [`Advisor::build`] holds it while the pool is
/// metered: under the bound, with the first base row of each of its
/// groups, which a coarser candidate and a query's result are counted
/// over ([`PlannedView::count`], [`AggQuery::count_groups`]); past it,
/// with none.
pub(crate) struct Held {
    candidate: MeasuredCandidate,
    reps: Vec<u32>,
}

impl Held {
    /// The candidate's view and representatives, as the counting pass
    /// reads them.
    fn counted(&self) -> (&PlannedView, &[u32]) {
        (&self.candidate.view, &self.reps)
    }
}

impl<'a> CandidateMeter<'a> {
    /// Validates the domain/config pair and precomputes the projection
    /// parameters.
    pub(crate) fn new(domain: &'a Domain, config: &'a AdvisorConfig) -> Result<Self, AdvisorError> {
        domain.validate()?;
        if domain.base.num_rows() == 0 {
            return Err(AdvisorError::EmptyDataset);
        }
        let units = configured_instance(config)?.compute_units * config.nb_instances as f64;
        if units.is_nan() || units <= 0.0 {
            return Err(AdvisorError::InvalidComputeUnits {
                instance: config.instance.clone(),
            });
        }
        let scale = SimScale::mapping(domain.base.size(), config.simulated_dataset);
        // Extrapolation parameters: the cloud-side fact table has the same
        // per-row width as the engine table but `cloud_rows` rows; group
        // counts at cloud scale come from Cardenas over the key domain.
        let engine_rows = domain.base.num_rows().max(1) as f64;
        let row_bytes = domain.base.heap_bytes() as f64 / engine_rows;
        let cloud_rows = config.simulated_dataset.as_bytes() as f64 / row_bytes.max(1.0);
        // Lower the lattice workload to executable group-bys in ONE place
        // (`LatticeWorkload::lower`), so calibration replays exactly the
        // queries the advisor metered.
        let queries: Vec<AggQuery> = domain
            .workload
            .lower(&domain.lattice)
            .into_iter()
            .map(|lq| {
                let col_refs: Vec<&str> = lq.group_by.iter().map(String::as_str).collect();
                AggQuery::new(
                    lq.name,
                    &col_refs,
                    vec![AggSpec::sum(domain.measure.clone())],
                )
            })
            .collect();
        let delta = monthly_delta(domain, config.maintenance_delta_fraction);
        // A group on the base, a delta partial, a stored total plus its
        // partial: each SUM adds up a subset of these rows (COUNTs, fewer).
        let abs_sum = |t: &Table| -> Result<i128, mv_engine::EngineError> {
            let values = t.column_by_name(&domain.measure)?.as_int()?;
            Ok(values.iter().map(|v| v.unsigned_abs() as i128).sum())
        };
        let tables = [Some(&domain.base), delta.as_ref()];
        let bound: Result<i128, _> = tables.into_iter().flatten().map(abs_sum).sum();
        let planned = bound.is_ok_and(|b| b <= i128::from(i64::MAX));
        Ok(CandidateMeter {
            domain,
            config,
            scale,
            units,
            engine_rows,
            cloud_rows,
            queries,
            delta,
            planned,
        })
    }

    /// Cloud-scale group count of `cuboid` (Cardenas over its key domain).
    fn cloud_groups(&self, cuboid: &Cuboid) -> f64 {
        mv_lattice::cardenas(
            self.cloud_rows as u64,
            self.domain.lattice.domain_size(cuboid),
        )
    }

    /// Simulated cluster-hours of a scan the engine metered at
    /// `bytes_scanned` over an input of `input_rows_engine` rows that has
    /// `input_rows_cloud` rows at cloud scale. Scan bytes are the only
    /// engine reading either sizing mode turns into time:
    /// [`SizingMode::MeasuredScaled`] multiplies them by the dataset
    /// scale factor, [`SizingMode::Extrapolated`] by how many more input
    /// rows the cloud table has.
    fn hours(
        &self,
        bytes_scanned: u64,
        input_rows_engine: f64,
        input_rows_cloud: f64,
    ) -> Result<Hours, AdvisorError> {
        let scanned = match self.config.sizing {
            SizingMode::MeasuredScaled => self.scale.bytes_to_cloud(bytes_scanned),
            SizingMode::Extrapolated => {
                let ratio = input_rows_cloud / input_rows_engine.max(1.0);
                Gb::from_bytes((bytes_scanned as f64 * ratio) as u64)
            }
        };
        self.config
            .throughput
            .hours_for_scan(scanned, self.units)
            .map_err(AdvisorError::from)
    }

    /// Meters the workload on the base table (the paper's step 3): scan
    /// bytes and result width off each query's plan, result rows (read by
    /// [`SizingMode::MeasuredScaled`] only) off [`Self::result_rows`];
    /// past the bound, all three off the query run on the base table.
    pub(crate) fn workload_charges(&self, held: &[Held]) -> Result<Vec<QueryCharge>, AdvisorError> {
        let mut charges = Vec::with_capacity(self.queries.len());
        for (q, lq) in self.queries.iter().zip(&self.domain.workload.queries) {
            let (bytes_scanned, width, rows) = if self.planned {
                let (bytes, out) = q.planned_scan(&self.domain.base)?;
                (bytes, out.row_byte_width(), None)
            } else {
                let (out, stats) =
                    q.execute_with_threads(&self.domain.base, self.config.threads)?;
                (
                    stats.bytes_scanned,
                    out.schema().row_byte_width(),
                    Some(stats.rows_out),
                )
            };
            let result_size = match self.config.sizing {
                SizingMode::MeasuredScaled => {
                    let rows = rows.map_or_else(|| self.result_rows(q, held), Ok)?;
                    self.scale.bytes_to_cloud(rows * width)
                }
                SizingMode::Extrapolated => {
                    Gb::from_bytes((self.cloud_groups(&lq.cuboid) * width as f64) as u64)
                }
            };
            let base_time = self.hours(bytes_scanned, self.engine_rows, self.cloud_rows)?;
            charges.push(QueryCharge {
                name: q.name.clone(),
                result_size,
                base_time,
                frequency: lq.frequency,
            });
        }
        Ok(charges)
    }

    /// Rows of `q`'s result: its groups counted over the representatives
    /// of the smallest `held` view that answers it (a view's answer is
    /// the base query's result), else over the base table.
    fn result_rows(&self, q: &AggQuery, held: &[Held]) -> Result<u64, AdvisorError> {
        let source = held
            .iter()
            .filter(|h| h.candidate.view.can_answer(q).is_ok())
            .min_by_key(|h| h.candidate.view.num_rows());
        Ok(q.count_groups(&self.domain.base, source.map(Held::counted))?)
    }

    /// Meters one candidate cuboid (the paper's steps 2 & 4 for a single
    /// view). Under the bound it is counted over the smallest table that
    /// holds its groups — the representatives of the `held` candidate with
    /// the fewest stored rows whose view derives it, else the base table;
    /// which source it was changes only the time taken
    /// ([`PlannedView::count`]). Past the bound it is materialized from
    /// the base table and its refresh runs on the copy.
    pub(crate) fn measure(&self, cuboid: Cuboid, held: &[Held]) -> Result<Held, AdvisorError> {
        let label = self.domain.lattice.label(&cuboid);
        let cols = self.domain.lattice.key_columns(&cuboid);
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let def = ViewDefinition::canonical(
            label.clone(),
            &col_refs,
            &[AggSpec::sum(self.domain.measure.clone())],
        );
        let defining = def.as_query();
        let batch = self.delta.as_ref().filter(|d| d.num_rows() > 0);
        let (view, reps, refresh_bytes) = if self.planned {
            // The lattice order is the cheap filter; the engine has the
            // last word on what a stored view derives.
            let source = held
                .iter()
                .filter(|h| h.candidate.cuboid.covers(&cuboid))
                .filter(|h| h.candidate.view.can_answer(&defining).is_ok())
                .min_by_key(|h| h.candidate.view.num_rows());
            if source.is_none() {
                note_base_build();
            }
            let base = &self.domain.base;
            let (view, reps) = PlannedView::count(def, base, source.map(Held::counted))?;
            // The refresh scans the definition's columns of the batch.
            let refresh_bytes = batch.map(|d| defining.planned_scan(d)).transpose()?;
            (view, reps, refresh_bytes.map(|(bytes, _)| bytes))
        } else {
            // The refresh's merge is where a stored total leaving `i64`
            // shows.
            note_base_build();
            let threads = self.config.threads;
            let mut built =
                MaterializedView::materialize_with_threads(def, &self.domain.base, threads)?;
            let view = built.plan().clone();
            let refresh = batch.map(|d| built.refresh_incremental(d)).transpose()?;
            (view, Vec::new(), refresh.map(|stats| stats.bytes_scanned))
        };
        let build = *view.build_stats();
        let view_rows_engine = view.num_rows().max(1) as f64;
        let view_rows_cloud = self.cloud_groups(&cuboid);

        // Maintenance: incremental refresh of one monthly delta batch.
        let maintenance = match (batch, refresh_bytes) {
            (Some(d), Some(bytes_scanned)) => self.hours(
                bytes_scanned,
                d.num_rows().max(1) as f64,
                self.cloud_rows * self.config.maintenance_delta_fraction,
            )?,
            _ => Hours::ZERO,
        };

        let view_size = match self.config.sizing {
            SizingMode::MeasuredScaled => self.scale.bytes_to_cloud(view.heap_bytes()),
            SizingMode::Extrapolated => {
                let width = view.heap_bytes() as f64 / view_rows_engine;
                Gb::from_bytes((view_rows_cloud * width) as u64)
            }
        };
        // Building a view scans the whole base table.
        let materialization = self.hours(build.bytes_scanned, self.engine_rows, self.cloud_rows)?;
        let mut charge = ViewCharge::new(
            label.clone(),
            view_size,
            materialization,
            maintenance,
            self.queries.len(),
        );
        // The answer profile is read off cardinalities: what the scan of
        // the stored rows would meter, without producing its table. A
        // view stores the workload's columns as the base table does, so
        // the one way it fails to plan a query is not deriving it.
        for (i, q) in self.queries.iter().enumerate() {
            if let Ok(bytes) = view.planned_scan_bytes(q) {
                charge = charge.answers(i, self.hours(bytes, view_rows_engine, view_rows_cloud)?);
            }
        }
        let candidate = MeasuredCandidate {
            cuboid,
            label,
            view,
            charge,
        };
        Ok(Held { candidate, reps })
    }
}

/// How a driver meters one cuboid beside the candidates it already
/// holds: [`CandidateMeter::measure`], or the slow reference the
/// differential tests hold it to.
type Measure = for<'a> fn(&CandidateMeter<'a>, Cuboid, &[Held]) -> Result<Held, AdvisorError>;

/// How a driver meters the workload beside the measured candidates:
/// [`CandidateMeter::workload_charges`], or the slow reference.
type Workload = for<'a> fn(&CandidateMeter<'a>, &[Held]) -> Result<Vec<QueryCharge>, AdvisorError>;

impl Advisor {
    /// Runs the measurement pipeline over `domain`.
    pub fn build(domain: Domain, config: AdvisorConfig) -> Result<Advisor, AdvisorError> {
        Self::build_with(
            domain,
            config,
            |meter, cuboid, held| meter.measure(cuboid, held),
            |meter, held| meter.workload_charges(held),
        )
    }

    fn build_with(
        domain: Domain,
        config: AdvisorConfig,
        measure: Measure,
        workload: Workload,
    ) -> Result<Advisor, AdvisorError> {
        let meter = CandidateMeter::new(&domain, &config)?;

        // 1. Generate candidate cuboids.
        let estimator = SizeEstimator::new(domain.base.num_rows() as u64);
        let cuboids: Vec<Cuboid> = match config.candidates {
            CandidateStrategy::FullLattice => candidates::full_lattice(&domain.lattice),
            CandidateStrategy::WorkloadClosure => {
                candidates::workload_closure(&domain.lattice, &domain.workload)
            }
            CandidateStrategy::HruGreedy(k) => {
                candidates::hru_greedy(&domain.lattice, &estimator, &domain.workload, k)
            }
        };

        // 2 & 4. Meter every candidate, finest first — a cuboid that
        // strictly covers another has the higher rank — so each one finds
        // every measured view that derives it; then back into `cuboids`
        // order.
        let mut order: Vec<usize> = (0..cuboids.len()).collect();
        order.sort_by_key(|&i| Reverse(cuboids[i].rank()));
        let mut held = Vec::with_capacity(cuboids.len());
        for &i in &order {
            let h = measure(&meter, cuboids[i].clone(), &held)?;
            held.push(h);
        }
        let mut by_index: Vec<_> = order.into_iter().zip(held).collect();
        by_index.sort_by_key(|&(i, _)| i);
        let held: Vec<_> = by_index.into_iter().map(|(_, h)| h).collect();

        // 3 & 4. Meter the workload on the base table.
        let charges = workload(&meter, &held)?;
        let measured: Vec<_> = held.into_iter().map(|h| h.candidate).collect();

        // 5. Assemble the selection problem.
        let model = cost_model_for(&config, charges)?;
        let CandidateMeter { scale, queries, .. } = meter;
        let problem =
            SelectionProblem::new(model, measured.iter().map(|m| m.charge.clone()).collect());

        Ok(Advisor {
            domain,
            config,
            scale,
            queries,
            measured,
            problem,
        })
    }

    /// The underlying selection problem.
    pub fn problem(&self) -> &SelectionProblem {
        &self.problem
    }

    /// The measured candidates, aligned with the problem's candidate order.
    pub fn candidates(&self) -> &[MeasuredCandidate] {
        &self.measured
    }

    /// The domain being advised.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The configuration.
    pub fn config(&self) -> &AdvisorConfig {
        &self.config
    }

    /// The engine-to-cloud scale factor in use.
    pub(crate) fn scale(&self) -> SimScale {
        self.scale
    }

    /// The executable workload queries (aligned with the cost workload).
    pub fn queries(&self) -> &[AggQuery] {
        &self.queries
    }

    /// Solves a scenario with the requested solver.
    pub fn solve(&self, scenario: Scenario, solver: SolverKind) -> Outcome {
        mv_obs::span!("advisor/solve");
        mv_select::solve(&self.problem, scenario, solver)
    }

    /// Builds the outcome's selected views from the base table and
    /// registers them in a fresh catalog — the "materialize them in the
    /// cloud" step. Queries routed through the catalog then actually use
    /// the chosen views.
    pub fn materialize_selection(&self, outcome: &Outcome) -> Result<ViewCatalog, AdvisorError> {
        let catalog = ViewCatalog::new();
        for k in outcome.evaluation.selection.ones() {
            let view = self.measured[k].view.materialize(&self.domain.base)?;
            catalog.register(view)?;
        }
        Ok(catalog)
    }

    /// Builds the provider-side usage ledger for an outcome: what the bill
    /// would record if the selection ran for one period. Integration tests
    /// reconcile its invoice against the predicted cost breakdown.
    pub fn usage_ledger(&self, outcome: &Outcome) -> UsageLedger {
        let model = self.problem.model();
        let candidates = self.problem.candidates();
        let selection = &outcome.evaluation.selection;
        self.period_ledger(
            model,
            selection,
            model.processing_time_with_views(candidates, selection),
            model.maintenance_time(candidates, selection),
            (
                "view materialization",
                model.materialization_time(candidates, selection),
            ),
        )
    }

    /// The lines a period's bill has, whoever derived the hours:
    /// processing always, maintenance and materialization when there is
    /// any, storage of dataset + selected views, outbound results.
    pub(crate) fn period_ledger(
        &self,
        model: &CloudCostModel,
        selection: &SelectionSet,
        processing: Hours,
        maintenance: Hours,
        materialization: (&str, Hours),
    ) -> UsageLedger {
        let config = &self.config;
        let mut ledger = UsageLedger::new();
        ledger.record_compute(
            "workload processing",
            &config.instance,
            config.nb_instances,
            processing,
        );
        for (label, hours) in [("view maintenance", maintenance), materialization] {
            if hours > Hours::ZERO {
                ledger.record_compute(label, &config.instance, config.nb_instances, hours);
            }
        }
        let views_size = model.views_size(self.problem.candidates(), selection);
        ledger.record_storage("dataset + views", model.storage_timeline(views_size));
        ledger.record_transfer_out("query results", model.context().total_result_size());
        ledger
    }
}

/// A monthly insert batch for maintenance metering: `fraction` of the base
/// rows, landing in the month after the dataset's range (a base table with
/// the sales generator's schema, whatever the domain is called) or a
/// replayed sample (any other schema). `fraction == 0` disables maintenance.
pub(crate) fn monthly_delta(domain: &Domain, fraction: f64) -> Option<Table> {
    if fraction <= 0.0 {
        return None;
    }
    let rows = ((domain.base.num_rows() as f64 * fraction) as usize).max(1);
    if *domain.base.schema() == mv_engine::datagen::sales_schema() {
        let cfg = mv_engine::SalesConfig::default();
        Some(mv_engine::datagen::generate_delta(&cfg, rows, 2011, 1))
    } else {
        // Generic fallback: replay a sample of existing rows as the delta
        // (aggregation-wise equivalent to new inserts in the same domains).
        let mut delta = Table::empty(domain.base.schema().clone());
        for r in 0..rows {
            let idx = (r * 37) % domain.base.num_rows();
            delta
                .push_row(&domain.base.row(idx))
                .expect("row from the same schema");
        }
        Some(delta)
    }
}

/// Notes a candidate [`CandidateMeter::measure`] counted over (past the
/// bound: built from) the base table; only a test build keeps the count.
#[cfg(not(test))]
fn note_base_build() {}

#[cfg(test)]
thread_local! {
    /// The candidates [`note_base_build`] noted on this thread.
    static BASE_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn note_base_build() {
    BASE_BUILDS.with(|n| n.set(n.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sales_domain;
    use mv_units::Money;

    fn small_advisor() -> Advisor {
        let domain = sales_domain(2_000, 3, 1.0, 42);
        Advisor::build(domain, AdvisorConfig::default()).unwrap()
    }

    #[test]
    fn builds_and_measures() {
        let a = small_advisor();
        // Full lattice minus base = 15 candidates.
        assert_eq!(a.candidates().len(), 15);
        assert_eq!(a.problem().len(), 15);
        // Base times are positive and queries metered.
        let ctx = a.problem().model().context();
        assert_eq!(ctx.workload.len(), 3);
        for q in &ctx.workload {
            assert!(q.base_time > Hours::ZERO);
            assert!(q.result_size > Gb::ZERO);
        }
        // Every candidate that covers a query answers it faster than base
        // (coarser views scan fewer bytes).
        for m in a.candidates() {
            for t in m.charge.profile.times() {
                assert!(*t > Hours::ZERO);
            }
        }
    }

    #[test]
    fn views_make_things_faster() {
        let a = small_advisor();
        let o = a.solve(
            Scenario::budget(Money::from_dollars(1_000)),
            SolverKind::Greedy,
        );
        assert!(o.feasible());
        assert!(o.evaluation.time < o.baseline.time);
        assert!(o.time_improvement() > 0.5, "{}", o.time_improvement());
    }

    #[test]
    fn materialized_selection_serves_queries() {
        let a = small_advisor();
        let o = a.solve(
            Scenario::budget(Money::from_dollars(1_000)),
            SolverKind::Greedy,
        );
        let catalog = a.materialize_selection(&o).unwrap();
        assert_eq!(catalog.len(), o.evaluation.num_selected());
        // Each workload query answered through the catalog matches base.
        for q in a.queries() {
            let (via_catalog, _, _) = catalog.execute(q, &a.domain().base).unwrap();
            let (direct, _) = q.execute(&a.domain().base).unwrap();
            assert_eq!(via_catalog.to_sorted_rows(), direct.to_sorted_rows());
        }
    }

    #[test]
    fn invoice_reconciles_with_prediction() {
        let a = small_advisor();
        let o = a.solve(
            Scenario::tradeoff_normalized(0.5),
            SolverKind::PaperKnapsack,
        );
        let invoice = a.usage_ledger(&o).invoice(&a.config().pricing).unwrap();
        assert_eq!(invoice.total(), o.evaluation.cost());
        assert_eq!(invoice.compute, o.evaluation.breakdown.compute());
        assert_eq!(invoice.storage, o.evaluation.breakdown.storage);
        assert_eq!(invoice.transfer, o.evaluation.breakdown.transfer);
    }

    #[test]
    fn candidate_strategies_shrink_the_problem() {
        let domain = sales_domain(1_000, 3, 1.0, 42);
        let closure = Advisor::build(
            domain.clone(),
            AdvisorConfig {
                candidates: CandidateStrategy::WorkloadClosure,
                ..AdvisorConfig::default()
            },
        )
        .unwrap();
        assert!(closure.problem().len() < 15);
        let hru = Advisor::build(
            domain,
            AdvisorConfig {
                candidates: CandidateStrategy::HruGreedy(4),
                ..AdvisorConfig::default()
            },
        )
        .unwrap();
        assert!(hru.problem().len() <= 4);
    }

    impl CandidateMeter<'_> {
        /// The reference's extrapolated-mode conversion, as it stood.
        fn scan_hours(
            &self,
            bytes_scanned: u64,
            input_rows_engine: f64,
            input_rows_cloud: f64,
        ) -> Result<Hours, AdvisorError> {
            let bytes = bytes_scanned as f64 * (input_rows_cloud / input_rows_engine.max(1.0));
            self.config
                .throughput
                .hours_for_scan(Gb::from_bytes(bytes as u64), self.units)
                .map_err(AdvisorError::from)
        }

        /// The reference's measured-scaled conversion, as it stood.
        fn scaled_hours(&self, bytes_scanned: u64) -> Result<Hours, AdvisorError> {
            self.config
                .throughput
                .hours_for_scan(self.scale.bytes_to_cloud(bytes_scanned), self.units)
                .map_err(AdvisorError::from)
        }

        /// The workload metering as it stood before planned scans, kept as
        /// the slow reference: run every query on the base table and read
        /// the executed scan's bytes and result.
        fn workload_charges_reference(&self) -> Result<Vec<QueryCharge>, AdvisorError> {
            let mut charges = Vec::with_capacity(self.queries.len());
            for (q, lq) in self.queries.iter().zip(&self.domain.workload.queries) {
                let (out, stats) = q
                    .execute_with_threads(&self.domain.base, self.config.threads)
                    .map_err(AdvisorError::from)?;
                let result_size = match self.config.sizing {
                    SizingMode::MeasuredScaled => self.scale.bytes_to_cloud(stats.bytes_out),
                    SizingMode::Extrapolated => {
                        let width = out.schema().row_byte_width() as f64;
                        Gb::from_bytes((self.cloud_groups(&lq.cuboid) * width) as u64)
                    }
                };
                let base_time =
                    self.hours(stats.bytes_scanned, self.engine_rows, self.cloud_rows)?;
                charges.push(QueryCharge {
                    name: q.name.clone(),
                    result_size,
                    base_time,
                    frequency: lq.frequency,
                });
            }
            Ok(charges)
        }

        /// The metering procedure as it stood before counted views and
        /// planned scans, kept as the slow reference: build the cuboid
        /// from the base table, refresh a clone with the delta, run every
        /// workload query the view can answer and read the executed
        /// scan's bytes.
        fn measure_reference(&self, cuboid: Cuboid) -> Result<MeasuredCandidate, AdvisorError> {
            let label = self.domain.lattice.label(&cuboid);
            let cols = self.domain.lattice.key_columns(&cuboid);
            let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            let def = ViewDefinition::canonical(
                label.clone(),
                &col_refs,
                &[AggSpec::sum(self.domain.measure.clone())],
            );
            let view = MaterializedView::materialize_with_threads(
                def,
                &self.domain.base,
                self.config.threads,
            )?;
            let build = *view.build_stats();
            let view_rows_engine = view.data().num_rows().max(1) as f64;
            let view_rows_cloud = self.cloud_groups(&cuboid);

            let maintenance = match &self.delta {
                Some(d) if d.num_rows() > 0 => {
                    let mut clone = view.clone();
                    let stats = clone.refresh_incremental(d)?;
                    match self.config.sizing {
                        SizingMode::MeasuredScaled => self.scaled_hours(stats.bytes_scanned)?,
                        SizingMode::Extrapolated => self.scan_hours(
                            stats.bytes_scanned,
                            d.num_rows().max(1) as f64,
                            self.cloud_rows * self.config.maintenance_delta_fraction,
                        )?,
                    }
                }
                _ => Hours::ZERO,
            };
            let (view_size, materialization) = match self.config.sizing {
                SizingMode::MeasuredScaled => (
                    self.scale.bytes_to_cloud(view.data().heap_bytes()),
                    self.scaled_hours(build.bytes_scanned)?,
                ),
                SizingMode::Extrapolated => {
                    let width = view.data().heap_bytes() as f64 / view_rows_engine;
                    (
                        Gb::from_bytes((view_rows_cloud * width) as u64),
                        self.scan_hours(build.bytes_scanned, self.engine_rows, self.cloud_rows)?,
                    )
                }
            };
            let mut charge = ViewCharge::new(
                label.clone(),
                view_size,
                materialization,
                maintenance,
                self.queries.len(),
            );
            for (i, q) in self.queries.iter().enumerate() {
                if view.can_answer(q).is_ok() {
                    let (_, stats) = view.answer(q)?;
                    let t = match self.config.sizing {
                        SizingMode::MeasuredScaled => self.scaled_hours(stats.bytes_scanned)?,
                        SizingMode::Extrapolated => {
                            self.scan_hours(stats.bytes_scanned, view_rows_engine, view_rows_cloud)?
                        }
                    };
                    charge = charge.answers(i, t);
                }
            }
            Ok(MeasuredCandidate {
                cuboid,
                label,
                view: view.plan().clone(),
                charge,
            })
        }
    }

    /// [`Advisor::build_with`] the reference meter for both passes.
    fn build_reference(domain: Domain, config: AdvisorConfig) -> Result<Advisor, AdvisorError> {
        Advisor::build_with(
            domain,
            config,
            |meter, cuboid, _| {
                let candidate = meter.measure_reference(cuboid)?;
                Ok(Held {
                    candidate,
                    reps: Vec::new(),
                })
            },
            |meter, _| meter.workload_charges_reference(),
        )
    }

    /// Candidate order, the workload charges, and every candidate's
    /// label, cuboid, view (the plan: stored rows, schema, footprint,
    /// `build_stats`; and its rows built from the base table, `Table ==`:
    /// row order, codes, dictionaries) and charge, are the reference's.
    fn assert_same_pool(fast: &Advisor, slow: &Advisor, what: &str) {
        assert_eq!(
            fast.problem().model().context().workload,
            slow.problem().model().context().workload,
            "{what}: workload"
        );
        assert_eq!(
            fast.problem().candidates(),
            slow.problem().candidates(),
            "{what}: charges"
        );
        assert_eq!(fast.candidates().len(), slow.candidates().len(), "{what}");
        for (f, s) in fast.candidates().iter().zip(slow.candidates()) {
            assert_eq!(f.label, s.label, "{what}");
            assert_eq!(f.cuboid, s.cuboid, "{what}: {}", f.label);
            assert_eq!(f.view, s.view, "{what}: {}", f.label);
            let base = &fast.domain().base;
            let built = MaterializedView::materialize(s.view.def().clone(), base);
            assert_eq!(f.view.materialize(base), built, "{what}: {}", f.label);
            assert_eq!(f.charge, s.charge, "{what}: {}", f.label);
        }
    }

    /// [`Advisor::build`] against the reference meter over both sizing
    /// modes, the three strategies and one and two engine threads.
    fn assert_meter_identity(name: &str, domain: &Domain) {
        use CandidateStrategy::{FullLattice, HruGreedy, WorkloadClosure};
        for sizing in [SizingMode::Extrapolated, SizingMode::MeasuredScaled] {
            for (candidates, threads) in [
                (FullLattice, 1),
                (FullLattice, 2),
                (WorkloadClosure, 1),
                (HruGreedy(5), 2),
            ] {
                let config = AdvisorConfig {
                    sizing,
                    candidates,
                    threads,
                    ..AdvisorConfig::default()
                };
                let what = format!("{name} {sizing:?} {candidates:?} t{threads}");
                let fast = Advisor::build(domain.clone(), config.clone()).unwrap();
                let slow = build_reference(domain.clone(), config).unwrap();
                assert_same_pool(&fast, &slow, &what);
            }
        }
    }

    /// [`Advisor::build`] against the reference meter where either may
    /// fail: the same pool, or the same error. Returns the outcome.
    fn assert_builds_as_the_reference(
        domain: &Domain,
        config: &AdvisorConfig,
        what: &str,
    ) -> Result<(), AdvisorError> {
        let fast = Advisor::build(domain.clone(), config.clone());
        match (&fast, build_reference(domain.clone(), config.clone())) {
            (Ok(fast), Ok(slow)) => assert_same_pool(fast, &slow, what),
            (_, slow) => assert_eq!(fast.as_ref().err(), slow.as_ref().err(), "{what}"),
        }
        fast.map(drop)
    }

    /// `domain` with row `r`'s measure replaced by `value(r, measure)`.
    fn with_measure(domain: &Domain, value: impl Fn(usize, i64) -> i64) -> Domain {
        let measure = domain.base.schema().index_of(&domain.measure).unwrap();
        let mut base = Table::empty(domain.base.schema().clone());
        for r in 0..domain.base.num_rows() {
            let mut row = domain.base.row(r);
            let mv_engine::Value::Int(v) = row[measure] else {
                panic!("an integer measure")
            };
            row[measure] = mv_engine::Value::Int(value(r, v));
            base.push_row(&row).unwrap();
        }
        Domain {
            base,
            ..domain.clone()
        }
    }

    /// Σ|measure| over `table`, as the bound adds it up.
    fn abs_measure(table: &Table, measure: &str) -> i128 {
        let values = table.column_by_name(measure).unwrap().as_int().unwrap();
        values.iter().map(|v| v.unsigned_abs() as i128).sum()
    }

    #[test]
    fn meter_matches_the_reference_meter() {
        for seed in [1, 7, 42] {
            assert_meter_identity(&format!("sales/{seed}"), &sales_domain(700, 6, 1.0, seed));
            assert_meter_identity(&format!("ssb/{seed}"), &crate::ssb_domain(400, 1.0, seed));
        }
    }

    /// How many of `domain`'s candidates the meter counts over the base
    /// table, and how many it meters.
    fn base_builds(domain: Domain) -> (usize, usize) {
        BASE_BUILDS.with(|n| n.set(0));
        let advisor = Advisor::build(domain, AdvisorConfig::default()).unwrap();
        (BASE_BUILDS.with(|n| n.get()), advisor.candidates().len())
    }

    #[test]
    fn only_the_finest_cuboids_are_built_from_the_base_table() {
        // The sales lattice minus its base has two maximal cuboids
        // (day×region, month×department), SSB's three; every other
        // candidate is counted over a measured view above it.
        assert_eq!(base_builds(sales_domain(2_000, 10, 1.0, 7)), (2, 15));
        assert_eq!(base_builds(crate::ssb_domain(1_000, 1.0, 7)), (3, 63));
    }

    /// The typed error a SUM of `domain`'s measure leaving `i64` is.
    fn overflow(domain: &Domain) -> AdvisorError {
        AdvisorError::Engine(mv_engine::EngineError::AggregateOverflow {
            aggregate: format!("sum_{}", domain.measure),
        })
    }

    /// Row 0 at `i64::MAX - 10 000`, every other row at 1: every total
    /// on the base table fits, and one that adds row 0's group of the
    /// maintenance batch does not.
    fn edge_of_i64(domain: &Domain) -> Domain {
        with_measure(domain, |r, _| if r == 0 { i64::MAX - 10_000 } else { 1 })
    }

    #[test]
    fn a_stored_total_at_the_edge_of_i64_still_fails_in_the_refresh_merge() {
        // Every total fits — the workload runs, every cuboid builds — but
        // the maintenance batch (a generated month of inserts) lands in
        // the time-free groups that hold row 0, and that merge leaves
        // `i64`. Σ|measure| is past the bound, so the refresh is
        // executed, not planned, and the error is the reference meter's.
        let domain = edge_of_i64(&sales_domain(200, 3, 1.0, 5));
        let fast = Advisor::build(domain.clone(), AdvisorConfig::default()).unwrap_err();
        assert_eq!(fast, overflow(&domain));
        let slow = build_reference(domain.clone(), AdvisorConfig::default());
        assert_eq!(fast, slow.unwrap_err());
        // Without a maintenance batch nothing is merged and nothing fails.
        let static_data = AdvisorConfig {
            maintenance_delta_fraction: 0.0,
            ..AdvisorConfig::default()
        };
        assert!(Advisor::build(domain, static_data).is_ok());
    }

    /// Past the bound the meter runs the workload on the base table and
    /// each refresh on a copy, as the reference does: the reference's
    /// pool where no total leaves `i64`, its typed error where a
    /// workload group or a refresh merge does.
    #[test]
    fn meter_falls_back_to_the_executed_passes_past_the_bound() {
        let sizings = [SizingMode::Extrapolated, SizingMode::MeasuredScaled];
        for domain in [
            sales_domain(400, 10, 1.0, 3),
            crate::ssb_domain(400, 1.0, 3),
        ] {
            // Four rows at ±2^61: Σ|measure| reaches 2^63, and no total
            // can, not even with row 0 replayed into the batch.
            let cancelling = with_measure(&domain, |r, v| match r {
                0 | 1 => 1 << 61,
                2 | 3 => -(1 << 61),
                _ => v,
            });
            // Every row at a quarter of `i64::MAX`: every group of five
            // rows or more leaves it, workload groups on the base included.
            let overflowing = with_measure(&domain, |_, _| i64::MAX / 4);
            let refresh = edge_of_i64(&domain);
            for sizing in sizings {
                let config = AdvisorConfig {
                    sizing,
                    ..AdvisorConfig::default()
                };
                let what = |case: &str| format!("{} {sizing:?} {case}", domain.name);
                let expected = [Ok(()), Err(overflow(&domain)), Err(overflow(&domain))];
                for ((case, d), expected) in [
                    ("cancelling", &cancelling),
                    ("overflowing", &overflowing),
                    ("refresh", &refresh),
                ]
                .into_iter()
                .zip(expected)
                {
                    assert!(!CandidateMeter::new(d, &config).unwrap().planned);
                    let built = assert_builds_as_the_reference(d, &config, &what(case));
                    assert_eq!(built, expected, "{}", what(case));
                }
                let meter = CandidateMeter::new(&overflowing, &config).unwrap();
                let reference = meter.workload_charges_reference().unwrap_err();
                assert_eq!(reference, overflow(&domain), "{}", what("workload"));
                assert_eq!(meter.workload_charges(&[]), Err(reference));
            }
        }
    }

    /// Σ|measure| over the base table and the batch at exactly
    /// `i64::MAX` is inside the bound (planned, and every total fits)
    /// and one more is past it (executed, and the grand total's refresh
    /// leaves `i64`): the reference's outcome either way.
    #[test]
    fn meter_bound_is_inclusive_at_i64_max() {
        let domain = sales_domain(400, 10, 1.0, 3);
        let batch = monthly_delta(&domain, AdvisorConfig::default().maintenance_delta_fraction);
        let without_row_0 = with_measure(&domain, |r, v| if r == 0 { 0 } else { v });
        let rest = abs_measure(&without_row_0.base, &domain.measure)
            + abs_measure(&batch.unwrap(), &domain.measure);
        for extra in [0, 1] {
            let row_0 = (i64::MAX as i128 - rest + extra) as i64;
            let edge = with_measure(&domain, |r, v| if r == 0 { row_0 } else { v });
            for sizing in [SizingMode::Extrapolated, SizingMode::MeasuredScaled] {
                let config = AdvisorConfig {
                    sizing,
                    ..AdvisorConfig::default()
                };
                let meter = CandidateMeter::new(&edge, &config).unwrap();
                assert_eq!(meter.planned, extra == 0, "{sizing:?} +{extra}");
                let what = format!("{sizing:?} i64::MAX + {extra}");
                let built = assert_builds_as_the_reference(&edge, &config, &what);
                assert_eq!(built.is_ok(), extra == 0, "{what}");
            }
        }
    }

    /// `advise_cold`'s shapes stay inside the bound, so the benchmark
    /// times the planned passes: no workload group-by on the base table
    /// and no refresh.
    #[test]
    fn meter_plans_at_the_benchmark_shapes() {
        let config = AdvisorConfig::default();
        for seed in 0..8 {
            let sales = sales_domain(20_000, 10, 1.0, seed);
            for domain in [sales, crate::ssb_domain(4_000, 1.0, seed)] {
                let meter = CandidateMeter::new(&domain, &config).unwrap();
                assert!(meter.planned, "{} seed {seed}", domain.name);
            }
        }
    }

    #[test]
    fn the_insert_batch_follows_the_base_schema_not_the_domain_name() {
        // An SSB table called "sales" once got the sales generator's
        // batch, and its refresh failed on a missing column.
        let config = AdvisorConfig {
            candidates: CandidateStrategy::HruGreedy(6),
            ..AdvisorConfig::default()
        };
        let ssb = crate::ssb_domain(400, 1.0, 3);
        let mut renamed = ssb.clone();
        renamed.name = "sales".to_string();
        assert_eq!(monthly_delta(&renamed, 0.02), monthly_delta(&ssb, 0.02));
        let renamed = Advisor::build(renamed, config.clone()).unwrap();
        let ssb = Advisor::build(ssb, config).unwrap();
        assert_eq!(renamed.problem().candidates(), ssb.problem().candidates());
        // And a sales table under another name still gets its month.
        let sales = sales_domain(500, 3, 1.0, 9);
        let mut retail = sales.clone();
        retail.name = "retail".to_string();
        assert_eq!(monthly_delta(&retail, 0.02), monthly_delta(&sales, 0.02));
    }

    /// The same identity at `advise_cold`'s shapes (`BENCHMARK.json`):
    /// minutes in a debug build, so CI runs it in release.
    #[test]
    #[ignore = "benchmark shapes: run with --release -- --ignored"]
    fn meter_matches_the_reference_meter_at_the_benchmark_shapes() {
        for seed in 0..8 {
            assert_meter_identity(
                &format!("sales/{seed}"),
                &sales_domain(20_000, 10, 1.0, seed),
            );
            assert_meter_identity(&format!("ssb/{seed}"), &crate::ssb_domain(4_000, 1.0, seed));
        }
    }

    #[test]
    fn zero_instances_is_a_typed_error() {
        // Reachable from `mvcloud-cli advise --instances 0`: must surface
        // as an error, not divide metered work by zero.
        let domain = sales_domain(100, 3, 1.0, 1);
        let err = Advisor::build(
            domain,
            AdvisorConfig {
                nb_instances: 0,
                ..AdvisorConfig::default()
            },
        );
        assert!(matches!(err, Err(AdvisorError::InvalidComputeUnits { .. })));
    }

    #[test]
    fn empty_dataset_is_a_typed_error() {
        // Reachable from `--rows 0`: must not trip the SimScale assert.
        let domain = sales_domain(0, 3, 1.0, 1);
        let err = Advisor::build(domain, AdvisorConfig::default());
        assert!(matches!(err, Err(AdvisorError::EmptyDataset)));
    }

    #[test]
    fn unknown_instance_rejected() {
        let domain = sales_domain(100, 3, 1.0, 1);
        let err = Advisor::build(
            domain,
            AdvisorConfig {
                instance: "mainframe".to_string(),
                ..AdvisorConfig::default()
            },
        );
        assert!(matches!(err, Err(AdvisorError::UnknownInstance { .. })));
    }
}
