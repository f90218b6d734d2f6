//! A concurrent catalog of materialized views.
//!
//! The paper's architecture materializes selected views "in the cloud" and
//! routes queries to them. The catalog is that routing table: named views
//! behind a read-write lock, with a best-view planner that picks the
//! cheapest (smallest) view able to answer a query — the `min` in the
//! selection evaluator's interaction model.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::{AggQuery, EngineError, ExecStats, MaterializedView, Table};

type Views = Vec<(String, Arc<MaterializedView>)>;

/// Thread-safe named collection of materialized views.
#[derive(Debug, Default)]
pub struct ViewCatalog {
    views: RwLock<Views>,
}

impl ViewCatalog {
    // A poisoned lock is recovered, not propagated: the list is only
    // pushed to and removed from, and a refresh reports every error
    // before it writes to a view, so a holder that panicked leaves it
    // readable.
    fn read(&self) -> RwLockReadGuard<'_, Views> {
        self.views.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Views> {
        self.views.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty catalog.
    pub fn new() -> Self {
        ViewCatalog::default()
    }

    /// Registers a view under its definition name. Errors if the name is
    /// taken.
    pub fn register(&self, view: MaterializedView) -> Result<(), EngineError> {
        let name = view.def().name().to_string();
        let mut views = self.write();
        if views.iter().any(|(n, _)| *n == name) {
            return Err(EngineError::ViewExists { name });
        }
        views.push((name, Arc::new(view)));
        Ok(())
    }

    /// Removes a view by name, returning it.
    pub(crate) fn deregister(&self, name: &str) -> Result<Arc<MaterializedView>, EngineError> {
        let mut views = self.write();
        match views.iter().position(|(n, _)| n == name) {
            Some(i) => Ok(views.remove(i).1),
            None => Err(EngineError::ViewNotFound {
                name: name.to_string(),
            }),
        }
    }

    /// Fetches a view by name.
    pub fn get(&self, name: &str) -> Result<Arc<MaterializedView>, EngineError> {
        self.read()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| Arc::clone(v))
            .ok_or_else(|| EngineError::ViewNotFound {
                name: name.to_string(),
            })
    }

    /// Registered view names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.read().iter().map(|(n, _)| n.clone()).collect()
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// `true` when no view is registered.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Incrementally refreshes every registered view with one insert
    /// batch, in registration order, returning each view's metered
    /// refresh work. Views are copy-on-write (`Arc::make_mut`), so
    /// readers holding a pre-refresh `Arc` keep a consistent snapshot.
    pub(crate) fn refresh_incremental_all(
        &self,
        delta: &Table,
    ) -> Result<Vec<(String, ExecStats)>, EngineError> {
        let mut views = self.write();
        let mut metered = Vec::with_capacity(views.len());
        for (name, view) in views.iter_mut() {
            let stats = Arc::make_mut(view).refresh_incremental(delta)?;
            metered.push((name.clone(), stats));
        }
        Ok(metered)
    }

    /// The smallest registered view able to answer `query`, if any —
    /// smallest by stored row count, which minimises the scan and therefore
    /// the simulated processing time.
    pub(crate) fn best_view_for(&self, query: &AggQuery) -> Option<Arc<MaterializedView>> {
        self.read()
            .iter()
            .filter(|(_, v)| v.can_answer(query).is_ok())
            .min_by_key(|(_, v)| v.data().num_rows())
            .map(|(_, v)| Arc::clone(v))
    }

    /// Executes `query`, answering from the best view when one applies and
    /// falling back to `base` otherwise. Returns the result, the metering
    /// record, and the name of the view used (if any).
    pub fn execute(
        &self,
        query: &AggQuery,
        base: &Table,
    ) -> Result<(Table, ExecStats, Option<String>), EngineError> {
        match self.best_view_for(query) {
            Some(view) => {
                let (out, stats) = view.answer(query)?;
                Ok((out, stats, Some(view.def().name().to_string())))
            }
            None => {
                let (out, stats) = query.execute(base)?;
                Ok((out, stats, None))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggSpec, DataType, TableBuilder, ViewDefinition};

    fn base() -> Table {
        TableBuilder::new(&[
            ("year", DataType::Int),
            ("month", DataType::Int),
            ("country", DataType::Str),
            ("profit", DataType::Int),
        ])
        .unwrap()
        .row(&[2000.into(), 1.into(), "France".into(), 10.into()])
        .unwrap()
        .row(&[2000.into(), 2.into(), "France".into(), 20.into()])
        .unwrap()
        .row(&[2001.into(), 1.into(), "Italy".into(), 30.into()])
        .unwrap()
        .build()
    }

    fn make_view(name: &str, cols: &[&str]) -> MaterializedView {
        MaterializedView::materialize(
            ViewDefinition::canonical(name, cols, &[AggSpec::sum("profit")]),
            &base(),
        )
        .unwrap()
    }

    #[test]
    fn register_get_deregister() {
        let cat = ViewCatalog::new();
        assert!(cat.is_empty());
        cat.register(make_view("v1", &["year", "country"])).unwrap();
        assert_eq!(cat.len(), 1);
        assert!(cat.get("v1").is_ok());
        assert!(matches!(
            cat.register(make_view("v1", &["year"])),
            Err(EngineError::ViewExists { .. })
        ));
        cat.deregister("v1").unwrap();
        assert!(matches!(
            cat.get("v1"),
            Err(EngineError::ViewNotFound { .. })
        ));
        assert!(matches!(
            cat.deregister("v1"),
            Err(EngineError::ViewNotFound { .. })
        ));
    }

    #[test]
    fn best_view_prefers_smaller() {
        let cat = ViewCatalog::new();
        // Fine view: 3 groups; coarse view: 2 groups.
        cat.register(make_view("fine", &["year", "month", "country"]))
            .unwrap();
        cat.register(make_view("coarse", &["year", "country"]))
            .unwrap();
        let q = AggQuery::new("q", &["year"], vec![AggSpec::sum("profit")]);
        let best = cat.best_view_for(&q).unwrap();
        assert_eq!(best.def().name(), "coarse");
    }

    #[test]
    fn execute_falls_back_to_base() {
        let cat = ViewCatalog::new();
        cat.register(make_view("v", &["year"])).unwrap();
        // Needs month, which "v" lacks.
        let q = AggQuery::new("q", &["month"], vec![AggSpec::sum("profit")]);
        let (out, _, used) = cat.execute(&q, &base()).unwrap();
        assert!(used.is_none());
        assert_eq!(out.num_rows(), 2);

        let q2 = AggQuery::new("q2", &["year"], vec![AggSpec::sum("profit")]);
        let (out2, _, used2) = cat.execute(&q2, &base()).unwrap();
        assert_eq!(used2.as_deref(), Some("v"));
        assert_eq!(out2.num_rows(), 2);
    }

    #[test]
    fn concurrent_reads_and_writes() {
        let cat = Arc::new(ViewCatalog::new());
        cat.register(make_view("v0", &["year"])).unwrap();
        let q = AggQuery::new("q", &["year"], vec![AggSpec::sum("profit")]);
        std::thread::scope(|s| {
            for t in 0..4 {
                let cat = Arc::clone(&cat);
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..20 {
                        let _ = cat.best_view_for(&q);
                        if i % 5 == 0 {
                            let name = format!("v-{t}-{i}");
                            cat.register(make_view(&name, &["year", "month"])).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(cat.len(), 1 + 4 * 4);
    }

    /// A writer that panics while holding the lock poisons it; the
    /// catalog recovers the guard, so readers and later writers go on.
    #[test]
    fn a_panicking_writer_leaves_the_catalog_usable() {
        let cat = ViewCatalog::new();
        cat.register(make_view("v0", &["year"])).unwrap();
        let crashed = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = cat.views.write().unwrap();
                panic!("writer dies holding the lock");
            })
            .join()
        });
        assert!(crashed.is_err());
        assert!(cat.views.is_poisoned());

        assert_eq!(cat.names(), ["v0"]);
        assert!(cat.get("v0").is_ok());
        cat.register(make_view("v1", &["year", "month"])).unwrap();
        assert_eq!(cat.len(), 2);
        cat.deregister("v0").unwrap();
        assert_eq!(cat.names(), ["v1"]);
    }
}
