//! Materialized views: definition, materialization, and query answering.
//!
//! A view is defined by a group-by key and a set of *stored measures*. The
//! definition is canonicalized so the stored measures are always
//! re-aggregable: `AVG` is split into `SUM` + `COUNT` (the classical
//! algebraic-function decomposition), and a `COUNT` partial is always kept
//! so any `AVG`/`COUNT` query can be derived later.
//!
//! A view can answer a query when (1) the query's group-by columns are a
//! subset of the view's — with the denormalized hierarchy encoding this is
//! exactly lattice derivability —, (2) every requested aggregate is
//! derivable from the stored measures, and (3) any predicate only touches
//! view key columns.

use crate::agg::AggExpr;
use crate::groupby::{scanned_width, LoweredAgg};
use crate::query::Plan;
use crate::{AggFunc, AggQuery, AggSpec, EngineError, ExecStats, Table};

/// Canonical view definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDefinition {
    /// View name.
    pub name: String,
    /// Group-by key columns (base-table names).
    pub group_by: Vec<String>,
    /// Stored measures; canonical (no `Avg`, always includes `Count`).
    pub measures: Vec<AggSpec>,
}

impl ViewDefinition {
    /// Builds a canonical definition from requested aggregates:
    /// * `Avg(c)` is replaced by `Sum(c)`;
    /// * a `Count` partial is always stored;
    /// * duplicates are removed.
    pub fn canonical(name: impl Into<String>, group_by: &[&str], requested: &[AggSpec]) -> Self {
        let mut measures: Vec<AggSpec> = Vec::new();
        let stored = requested.iter().map(AggSpec::stored);
        for spec in stored.chain([AggSpec::count()]) {
            if !measures.contains(&spec) {
                measures.push(spec);
            }
        }
        ViewDefinition {
            name: name.into(),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            measures,
        }
    }

    /// The query that computes this view from the base table.
    pub fn as_query(&self) -> AggQuery {
        AggQuery {
            name: format!("materialize:{}", self.name),
            group_by: self.group_by.clone(),
            aggregates: self.measures.clone(),
            predicate: None,
        }
    }

    /// Locates the stored measure for `(func, column)`.
    fn measure_alias(&self, func: AggFunc, column: Option<&str>) -> Option<&str> {
        self.measures
            .iter()
            .find(|m| m.func() == func && m.column() == column)
            .map(|m| m.alias.as_str())
    }
}

/// A materialized view: its definition plus the stored result table.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterializedView {
    def: ViewDefinition,
    data: Table,
    build_stats: ExecStats,
}

impl MaterializedView {
    /// Computes the view from `base` and stores the result.
    pub fn materialize(def: ViewDefinition, base: &Table) -> Result<Self, EngineError> {
        Self::materialize_with_threads(def, base, 1)
    }

    /// [`MaterializedView::materialize`] with a thread budget.
    pub fn materialize_with_threads(
        def: ViewDefinition,
        base: &Table,
        threads: usize,
    ) -> Result<Self, EngineError> {
        let (data, build_stats) = def.as_query().execute_with_threads(base, threads)?;
        Ok(MaterializedView {
            def,
            data,
            build_stats,
        })
    }

    /// The canonical definition.
    pub fn def(&self) -> &ViewDefinition {
        &self.def
    }

    /// The stored table.
    pub fn data(&self) -> &Table {
        &self.data
    }

    /// Crate-internal mutable access for incremental maintenance.
    pub(crate) fn data_mut_internal(&mut self) -> &mut Table {
        &mut self.data
    }

    /// Work performed to build (or last fully refresh) the view.
    pub fn build_stats(&self) -> &ExecStats {
        &self.build_stats
    }

    /// Builds `def` from `source`, an already-built view whose key holds
    /// every column of `def`'s and whose measures hold `def`'s, by
    /// re-aggregating the stored partials — one pass over `source`'s rows
    /// instead of the base table's. The result is *equal* to
    /// [`MaterializedView::materialize`] of `def` from `source`'s base
    /// table (property-tested): every aggregate is an `i64` folded through
    /// `i128`, so partials re-sum exactly and a total that leaves `i64`
    /// is the same [`EngineError::AggregateOverflow`]; groups keep their
    /// first-appearance order and [`Column::gather`](crate::Column)
    /// rebuilds the same dictionaries. `build_stats` reports the
    /// from-base scan — `source`'s scanned rows at `def`'s own width —
    /// since that is the work the cost model charges for the view. A
    /// `def` that `source` cannot derive is
    /// [`EngineError::ViewCannotAnswer`].
    pub fn roll_up(def: ViewDefinition, source: &MaterializedView) -> Result<Self, EngineError> {
        let query = def.as_query();
        let plan = source.lower(&query)?;
        let (data, rolled) = plan.run(&source.data, 1)?;
        // What building `def` scans of each base row: its key columns,
        // typed as `source` stores them, and its measures lowered as on a
        // base table (which column a measure reads does not enter the
        // width, so any index stands in).
        let on_base = def.measures.iter().map(|m| AggExpr::over_base(m.func(), 0));
        let width = scanned_width(source.data.schema(), &plan.group_cols, on_base);
        let rows_scanned = source.build_stats.rows_scanned;
        Ok(MaterializedView {
            def,
            data,
            build_stats: ExecStats {
                rows_scanned,
                bytes_scanned: rows_scanned * width,
                ..rolled
            },
        })
    }

    /// Lowers `query` onto the stored table: group columns must be view
    /// key columns, a predicate may only touch key columns, and every
    /// aggregate must be derivable from the stored measures — anything
    /// else is [`EngineError::ViewCannotAnswer`] with the reason.
    fn lower<'q>(&self, query: &'q AggQuery) -> Result<Plan<'q>, EngineError> {
        let cannot = |reason: String| EngineError::ViewCannotAnswer { reason };
        let in_key = |c: &str| self.def.group_by.iter().any(|g| g == c);
        if let Some(g) = query.group_by.iter().find(|g| !in_key(g)) {
            return Err(cannot(format!("group column {g:?} is not in the view key")));
        }
        if let Some(p) = &query.predicate {
            if let Some(c) = p.columns().into_iter().find(|c| !in_key(c)) {
                return Err(cannot(format!(
                    "predicate column {c:?} is not in the view key"
                )));
            }
        }
        let schema = self.data.schema();
        // The stored column holding the `func` partial of `column`.
        let stored = |func: AggFunc, column: Option<&str>| {
            self.def
                .measure_alias(func, column)
                .and_then(|alias| schema.index_of(alias).ok())
        };
        let mut aggs = Vec::with_capacity(query.aggregates.len());
        for spec in &query.aggregates {
            let column = spec.column();
            let expr = match spec.func() {
                // SUM over a view re-aggregates the stored SUM partials.
                AggFunc::Sum => stored(AggFunc::Sum, column).map(|col| AggExpr::Sum { col }),
                // COUNT re-aggregates as a SUM of stored counts.
                AggFunc::Count => stored(AggFunc::Count, None).map(|col| AggExpr::Sum { col }),
                AggFunc::Min => stored(AggFunc::Min, column).map(|col| AggExpr::Min { col }),
                AggFunc::Max => stored(AggFunc::Max, column).map(|col| AggExpr::Max { col }),
                // AVG is the ratio of re-aggregated SUM and COUNT partials.
                AggFunc::Avg => stored(AggFunc::Sum, column)
                    .zip(stored(AggFunc::Count, None))
                    .map(|(sum_col, count_col)| AggExpr::RatioOfSums { sum_col, count_col }),
            };
            let expr = expr.ok_or_else(|| {
                cannot(format!(
                    "aggregate {}({}) is not derivable from stored measures",
                    spec.func().name(),
                    column.unwrap_or("*"),
                ))
            })?;
            aggs.push(LoweredAgg {
                expr,
                alias: spec.alias.clone(),
            });
        }
        Ok(Plan {
            group_cols: query.group_columns(schema)?,
            aggs,
            predicate: query.predicate.as_ref(),
        })
    }

    /// Checks whether this view can answer `query`; `Ok(())` or the reason
    /// it cannot.
    pub fn can_answer(&self, query: &AggQuery) -> Result<(), EngineError> {
        self.lower(query).map(drop)
    }

    /// Answers `query` from the stored table instead of the base table.
    ///
    /// The result is identical to running the query on the base table
    /// (property-tested), but the scan touches only `self.data`'s rows —
    /// which is where the paper's `t_iV < t_i` speedup comes from.
    pub fn answer(&self, query: &AggQuery) -> Result<(Table, ExecStats), EngineError> {
        self.lower(query)?.run(&self.data, 1)
    }

    /// The `bytes_scanned` [`MaterializedView::answer`] would meter for
    /// `query` — stored rows × the width of the columns the scan reads —
    /// without running it. The cost model's `t_iV` is a function of this
    /// number alone.
    pub fn planned_scan_bytes(&self, query: &AggQuery) -> Result<u64, EngineError> {
        Ok(self.lower(query)?.scan_bytes(&self.data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Predicate, TableBuilder, Value};

    fn sales() -> Table {
        TableBuilder::new(&[
            ("year", DataType::Int),
            ("month", DataType::Int),
            ("country", DataType::Str),
            ("profit", DataType::Int),
        ])
        .unwrap()
        .row(&[2000.into(), 12.into(), "France".into(), 35.into()])
        .unwrap()
        .row(&[2000.into(), 1.into(), "France".into(), 40.into()])
        .unwrap()
        .row(&[2000.into(), 12.into(), "Italy".into(), 23.into()])
        .unwrap()
        .row(&[1999.into(), 1.into(), "Italy".into(), 50.into()])
        .unwrap()
        .build()
    }

    fn month_country_view() -> MaterializedView {
        let def = ViewDefinition::canonical(
            "v1",
            &["year", "month", "country"],
            &[
                AggSpec::sum("profit"),
                AggSpec::min("profit"),
                AggSpec::max("profit"),
            ],
        );
        MaterializedView::materialize(def, &sales()).unwrap()
    }

    #[test]
    fn canonicalization_splits_avg_and_adds_count() {
        let def = ViewDefinition::canonical("v", &["year"], &[AggSpec::avg("profit")]);
        let funcs: Vec<AggFunc> = def.measures.iter().map(|m| m.func()).collect();
        assert_eq!(funcs, vec![AggFunc::Sum, AggFunc::Count]);
        // Duplicates collapse.
        let def2 = ViewDefinition::canonical(
            "v",
            &["year"],
            &[
                AggSpec::sum("profit"),
                AggSpec::avg("profit"),
                AggSpec::count(),
            ],
        );
        assert_eq!(def2.measures.len(), 2);
    }

    #[test]
    fn view_answers_coarser_query_identically() {
        let view = month_country_view();
        let q = AggQuery::new("q1", &["year", "country"], vec![AggSpec::sum("profit")]);
        let (from_base, base_stats) = q.execute(&sales()).unwrap();
        let (from_view, view_stats) = view.answer(&q).unwrap();
        assert_eq!(from_base.to_sorted_rows(), from_view.to_sorted_rows());
        // The view has as many rows as the base here (tiny data), but the
        // metering still counts its scan separately.
        assert!(view_stats.rows_scanned <= base_stats.rows_scanned);
    }

    #[test]
    fn view_answers_count_and_avg() {
        let def = ViewDefinition::canonical("v", &["year", "country"], &[AggSpec::avg("profit")]);
        let view = MaterializedView::materialize(def, &sales()).unwrap();
        let q = AggQuery::new(
            "q",
            &["year"],
            vec![AggSpec::avg("profit"), AggSpec::count()],
        );
        let (from_base, _) = q.execute(&sales()).unwrap();
        let (from_view, _) = view.answer(&q).unwrap();
        assert_eq!(from_base.to_sorted_rows(), from_view.to_sorted_rows());
    }

    #[test]
    fn min_max_through_views() {
        let view = month_country_view();
        let q = AggQuery::new(
            "q",
            &["country"],
            vec![AggSpec::min("profit"), AggSpec::max("profit")],
        );
        let (from_base, _) = q.execute(&sales()).unwrap();
        let (from_view, _) = view.answer(&q).unwrap();
        assert_eq!(from_base.to_sorted_rows(), from_view.to_sorted_rows());
    }

    #[test]
    fn predicate_pushdown_on_view_keys() {
        let view = month_country_view();
        let q = AggQuery::new("q", &["country"], vec![AggSpec::sum("profit")])
            .with_predicate(Predicate::eq("year", 2000));
        let (from_base, _) = q.execute(&sales()).unwrap();
        let (from_view, _) = view.answer(&q).unwrap();
        assert_eq!(from_base.to_sorted_rows(), from_view.to_sorted_rows());
        assert_eq!(
            from_view.to_sorted_rows(),
            vec![
                vec![Value::from("France"), Value::Int(75)],
                vec![Value::from("Italy"), Value::Int(23)],
            ]
        );
    }

    #[test]
    fn cannot_answer_finer_or_foreign_queries() {
        // View at (year, country) cannot answer per-month queries.
        let def = ViewDefinition::canonical("v", &["year", "country"], &[AggSpec::sum("profit")]);
        let view = MaterializedView::materialize(def, &sales()).unwrap();
        let finer = AggQuery::new("q", &["month"], vec![AggSpec::sum("profit")]);
        assert!(view.can_answer(&finer).is_err());

        // Cannot answer aggregates over measures it does not store.
        let other_measure = AggQuery::new("q", &["year"], vec![AggSpec::min("profit")]);
        assert!(view.can_answer(&other_measure).is_err());

        // Cannot answer predicates on non-key columns.
        let bad_pred = AggQuery::new("q", &["year"], vec![AggSpec::sum("profit")])
            .with_predicate(Predicate::eq("month", 12));
        assert!(view.can_answer(&bad_pred).is_err());

        // answer() surfaces the same error.
        assert!(matches!(
            view.answer(&finer).unwrap_err(),
            EngineError::ViewCannotAnswer { .. }
        ));
    }

    #[test]
    fn roll_up_is_the_from_base_view() {
        let finest = month_country_view();
        for key in [
            &["year", "country"][..],
            &["country", "year"],
            &["month"],
            &[],
        ] {
            let def = ViewDefinition::canonical(
                "coarser",
                key,
                &[AggSpec::sum("profit"), AggSpec::max("profit")],
            );
            let from_base = MaterializedView::materialize(def.clone(), &sales()).unwrap();
            let rolled = MaterializedView::roll_up(def, &finest).unwrap();
            // Equal stored table, and `build_stats` of the from-base scan:
            // 4 base rows at the key's width + SUM and MAX inputs (COUNT
            // reads nothing), not the 4 stored rows at 8 more.
            assert_eq!(rolled, from_base, "{key:?}");
        }
    }

    #[test]
    fn roll_up_onto_a_definition_the_source_cannot_derive_is_a_typed_error() {
        let def = ViewDefinition::canonical("v", &["year", "country"], &[AggSpec::sum("profit")]);
        let source = MaterializedView::materialize(def, &sales()).unwrap();
        let cannot = |key: &[&str], measure: AggSpec| {
            let def = ViewDefinition::canonical("w", key, &[measure]);
            matches!(
                MaterializedView::roll_up(def, &source),
                Err(EngineError::ViewCannotAnswer { .. })
            )
        };
        // A key column the source grouped away, a MIN partial it never
        // stored, a SUM of another column.
        assert!(cannot(&["year", "month"], AggSpec::sum("profit")));
        assert!(cannot(&["year"], AggSpec::min("profit")));
        assert!(cannot(&["year"], AggSpec::sum("month")));
        assert!(!cannot(&["country"], AggSpec::avg("profit")));
    }

    #[test]
    fn planned_scan_is_the_executed_scan() {
        let view = month_country_view();
        let q = AggQuery::new(
            "q",
            &["country"],
            vec![AggSpec::avg("profit"), AggSpec::count()],
        )
        .with_predicate(Predicate::eq("year", 2000));
        let (_, stats) = view.answer(&q).unwrap();
        // 4 stored rows × (country 4 + AVG's two partials 16 + the stored
        // count 8 + the filter's year 8).
        assert_eq!(stats.bytes_scanned, 4 * 36);
        assert_eq!(view.planned_scan_bytes(&q), Ok(stats.bytes_scanned));
        let finer = AggQuery::new("q", &["day"], vec![AggSpec::count()]);
        assert_eq!(
            view.planned_scan_bytes(&finer).unwrap_err(),
            view.answer(&finer).unwrap_err()
        );
    }

    #[test]
    fn view_data_shape() {
        let view = month_country_view();
        // Keys: year, month, country; measures: sum, min, max, count.
        assert_eq!(view.data().schema().len(), 3 + 4);
        assert_eq!(view.data().num_rows(), 4);
        assert!(view.build_stats().rows_scanned == 4);
    }

    #[test]
    fn grand_total_from_view() {
        let view = month_country_view();
        let q = AggQuery::new("total", &[], vec![AggSpec::sum("profit")]);
        let (out, _) = view.answer(&q).unwrap();
        assert_eq!(out.row(0), vec![Value::Int(148)]);
    }
}
