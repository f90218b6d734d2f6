//! Replay/meter driver: execute a query stream against a live set of
//! materialized views and report every byte of work performed.
//!
//! The advisor predicts bills from cost-model parameters; this module is
//! the other side of the calibration loop — it *runs* the plan. A
//! [`ReplayDriver`] owns a base table and a [`ViewCatalog`]; per epoch it
//! applies the plan's transitions (materialize added views, drop removed
//! ones), routes each workload query through the catalog's best-view
//! planner, and incrementally refreshes the standing views with an insert
//! batch. Every step is metered ([`ExecStats`]), so a calibrator can
//! convert the recorded work into simulated cluster-hours with any
//! [`crate::ThroughputModel`] and reconcile the metered bill against the
//! predicted one (`mvcloud::calibrate`).
//!
//! The base table stays fixed across epochs, mirroring the paper's §6
//! evaluation (the dataset is static within the billing period; the delta
//! batch exists to meter view maintenance).

use crate::{AggQuery, EngineError, ExecStats, MaterializedView, Table, ViewCatalog};

/// One query execution of a replayed epoch: what ran, how much work it
/// cost, and which view (if any) answered it.
#[derive(Debug, Clone)]
pub struct QueryExecution {
    /// The query's name.
    pub name: String,
    /// Metered work of this execution.
    pub stats: ExecStats,
    /// Name of the view that answered, `None` for a base-table scan.
    pub via_view: Option<String>,
}

/// The metered record of one replayed epoch.
#[derive(Debug, Clone, Default)]
pub struct EpochReplay {
    /// Per-query executions, in workload order.
    pub queries: Vec<QueryExecution>,
    /// Build work of the views materialized this epoch, `(name, stats)`.
    pub builds: Vec<(String, ExecStats)>,
    /// Incremental-refresh work of every standing view, `(name, stats)`.
    pub refreshes: Vec<(String, ExecStats)>,
}

impl EpochReplay {
    /// How many queries were answered from a materialized view.
    pub fn queries_via_views(&self) -> usize {
        self.queries.iter().filter(|q| q.via_view.is_some()).count()
    }
}

/// Executes epochs of a view-selection plan against the engine, metering
/// all scan/build/refresh work.
#[derive(Debug)]
pub struct ReplayDriver<'a> {
    base: &'a Table,
    catalog: ViewCatalog,
    threads: usize,
}

impl<'a> ReplayDriver<'a> {
    /// A driver over `base` with an empty catalog.
    pub fn new(base: &'a Table) -> ReplayDriver<'a> {
        ReplayDriver {
            base,
            catalog: ViewCatalog::new(),
            threads: 1,
        }
    }

    /// Sets the engine thread count used for view materialization.
    pub fn with_threads(mut self, threads: usize) -> ReplayDriver<'a> {
        self.threads = threads.max(1);
        self
    }

    /// The live catalog (the standing selection).
    pub fn catalog(&self) -> &ViewCatalog {
        &self.catalog
    }

    /// Materializes `view` from the base table and registers it,
    /// returning the metered build work.
    pub(crate) fn install(&mut self, def: crate::ViewDefinition) -> Result<ExecStats, EngineError> {
        let view = MaterializedView::materialize_with_threads(def, self.base, self.threads)?;
        let build = *view.build_stats();
        self.catalog.register(view)?;
        mv_obs::inc(mv_obs::Counter::EngineViewBuilds);
        mv_obs::add(mv_obs::Counter::EngineBuildBytes, build.bytes_scanned);
        Ok(build)
    }

    /// Drops a standing view (its build cost is forfeited).
    pub(crate) fn drop_view(&mut self, name: &str) -> Result<(), EngineError> {
        self.catalog.deregister(name).map(|_| ())
    }

    /// Executes one query through the catalog (best-view routing, base
    /// fallback).
    pub(crate) fn run_query(&self, query: &AggQuery) -> Result<QueryExecution, EngineError> {
        let (_, stats, via_view) = self.catalog.execute(query, self.base)?;
        mv_obs::inc(mv_obs::Counter::EngineQueries);
        if via_view.is_some() {
            mv_obs::inc(mv_obs::Counter::EngineQueriesViaViews);
        }
        mv_obs::add(mv_obs::Counter::EngineScanBytes, stats.bytes_scanned);
        Ok(QueryExecution {
            name: query.name.clone(),
            stats,
            via_view,
        })
    }

    /// Replays one epoch: apply the plan's transitions (`added` view
    /// definitions are materialized, `dropped` names deregistered), run
    /// the query stream through the standing views, then incrementally
    /// refresh every standing view with `delta` (when one is supplied).
    pub fn replay_epoch(
        &mut self,
        added: Vec<crate::ViewDefinition>,
        dropped: &[String],
        queries: &[AggQuery],
        delta: Option<&Table>,
    ) -> Result<EpochReplay, EngineError> {
        mv_obs::span!("engine/replay_epoch");
        let mut epoch = EpochReplay::default();
        for name in dropped {
            self.drop_view(name)?;
        }
        for def in added {
            let name = def.name().to_string();
            let build = self.install(def)?;
            epoch.builds.push((name, build));
        }
        for q in queries {
            epoch.queries.push(self.run_query(q)?);
        }
        if let Some(d) = delta {
            if d.num_rows() > 0 {
                epoch.refreshes = self.catalog.refresh_incremental_all(d)?;
                mv_obs::add(
                    mv_obs::Counter::EngineViewRefreshes,
                    epoch.refreshes.len() as u64,
                );
                if mv_obs::enabled() {
                    let bytes: u64 = epoch.refreshes.iter().map(|(_, s)| s.bytes_scanned).sum();
                    mv_obs::add(mv_obs::Counter::EngineRefreshBytes, bytes);
                }
            }
        }
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{datagen, AggSpec, SalesConfig, ViewDefinition};

    fn v1() -> ViewDefinition {
        ViewDefinition::canonical("V1", &["year", "country"], &[AggSpec::sum("profit")])
    }

    #[test]
    fn replay_routes_meters_and_refreshes() {
        let base = datagen::generate_sales(&SalesConfig::with_rows(500));
        let delta = datagen::generate_delta(&SalesConfig::default(), 25, 2011, 1);
        let q = AggQuery::new("Q1", &["year", "country"], vec![AggSpec::sum("profit")]);

        let mut driver = ReplayDriver::new(&base);
        // Epoch 0: no views — the query scans the base table.
        let e0 = driver
            .replay_epoch(vec![], &[], std::slice::from_ref(&q), None)
            .unwrap();
        assert_eq!(e0.queries.len(), 1);
        assert_eq!(e0.queries_via_views(), 0);
        let base_bytes = e0.queries[0].stats.bytes_scanned;
        assert!(base_bytes > 0);

        // Epoch 1: V1 arrives — the same query routes through it and
        // scans strictly fewer bytes; the refresh batch is metered.
        let e1 = driver
            .replay_epoch(vec![v1()], &[], std::slice::from_ref(&q), Some(&delta))
            .unwrap();
        assert_eq!(e1.builds.len(), 1);
        assert_eq!(e1.queries_via_views(), 1);
        assert_eq!(e1.queries[0].via_view.as_deref(), Some("V1"));
        assert!(e1.queries[0].stats.bytes_scanned < base_bytes);
        assert_eq!(e1.refreshes.len(), 1);
        assert!(e1.refreshes[0].1.rows_scanned > 0);

        // Epoch 2: V1 is dropped — back to base scans, nothing refreshed.
        let e2 = driver
            .replay_epoch(vec![], &["V1".to_string()], &[q], Some(&delta))
            .unwrap();
        assert_eq!(e2.queries_via_views(), 0);
        assert_eq!(e2.queries[0].stats.bytes_scanned, base_bytes);
        assert!(e2.refreshes.is_empty());
        assert_eq!(driver.catalog().len(), 0);
    }

    #[test]
    fn dropping_a_missing_view_is_an_error() {
        let base = datagen::generate_sales(&SalesConfig::with_rows(50));
        let mut driver = ReplayDriver::new(&base);
        assert!(matches!(
            driver.drop_view("ghost"),
            Err(EngineError::ViewNotFound { .. })
        ));
    }
}
