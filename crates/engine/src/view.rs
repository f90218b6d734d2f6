//! Views: definition, plan, materialization, and query answering.
//!
//! A view is defined by a group-by key and a set of *stored measures*. The
//! definition is canonicalized so the stored measures are always
//! re-aggregable: `AVG` is split into `SUM` + `COUNT` (the classical
//! algebraic-function decomposition), and a `COUNT` partial is always kept
//! so any `AVG`/`COUNT` query can be derived later.
//!
//! A [`PlannedView`] is a view without its rows: the definition, its
//! group count over the base table, the stored table's schema and
//! footprint, and the from-base build's [`ExecStats`]. That is all a cost
//! model reads of a candidate, so [`PlannedView::count`] finds it with the
//! counting pass alone — the first row of each distinct key, over the
//! base table or over the representatives of a finer view already counted
//! — and forms no total. A [`MaterializedView`] is that plan plus its rows
//! ([`PlannedView::materialize`]).
//!
//! A view can answer a query when (1) the query's group-by columns are a
//! subset of the view's — with the denormalized hierarchy encoding this is
//! exactly lattice derivability —, (2) every requested aggregate is
//! derivable from the stored measures, and (3) any predicate only touches
//! view key columns.

use crate::agg::AggExpr;
use crate::groupby::{output_schema, LoweredAgg};
use crate::query::Plan;
use crate::{AggFunc, AggQuery, AggSpec, EngineError, ExecStats, Schema, Table};

/// Canonical view definition: built only by
/// [`ViewDefinition::canonical`], so its stored measures never hold an
/// `Avg` and always hold a `Count`.
///
/// ```compile_fail
/// use mv_engine::{AggSpec, ViewDefinition};
///
/// // The fields are private: an `Avg` measure cannot be stored.
/// let def = ViewDefinition {
///     name: "v".to_string(),
///     group_by: vec!["year".to_string()],
///     measures: vec![AggSpec::avg("profit")],
/// };
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDefinition {
    name: String,
    group_by: Vec<String>,
    measures: Vec<AggSpec>,
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

    /// View name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Group-by key columns (base-table names).
    pub(crate) fn group_by(&self) -> &[String] {
        &self.group_by
    }

    /// Stored measures: no `Avg`, always a `Count`.
    pub(crate) fn measures(&self) -> &[AggSpec] {
        &self.measures
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

/// A view without its rows: what materializing it would store and meter,
/// read off its group count.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedView {
    def: ViewDefinition,
    /// Stored rows: the definition's groups over the base table.
    rows: usize,
    /// The stored table's schema: the key columns as the base table
    /// types them, then one `Int` column per measure.
    schema: Schema,
    /// The string keys' dictionaries: every distinct string present in
    /// the key column, as [`crate::Dictionary::heap_bytes`] counts it.
    dict_bytes: u64,
    /// Work the from-base build performs.
    build_stats: ExecStats,
}

impl PlannedView {
    /// Plans `def` over `base` with the counting pass, and returns the
    /// plan with the first base row of each of its groups, in order of
    /// first appearance. The pass reads every base row, or — given a view
    /// counted over the same `base` that derives `def`, with the
    /// representatives counted with it — only those rows: the groups,
    /// and so the plan, are the same either way (property-tested against
    /// [`MaterializedView::materialize`]). No total is formed, so only
    /// planning fails: an unknown or mistyped column, or a `finer` view
    /// that cannot derive `def` ([`EngineError::ViewCannotAnswer`]).
    pub fn count(
        def: ViewDefinition,
        base: &Table,
        finer: Option<(&PlannedView, &[u32])>,
    ) -> Result<(PlannedView, Vec<u32>), EngineError> {
        let query = def.as_query();
        let (plan, reps) = query.representatives(base, finer)?;
        let schema = output_schema(base.schema(), &plan.group_cols, &plan.aggs)?;
        let dict_bytes = plan
            .group_cols
            .iter()
            .map(|&c| base.column(c).dictionary_bytes_at(&reps))
            .sum();
        let (rows, groups) = (reps.len(), reps.len() as u64);
        let build_stats = ExecStats {
            rows_scanned: base.num_rows() as u64,
            bytes_scanned: plan.scan_bytes(base.schema(), base.num_rows()),
            rows_out: groups,
            bytes_out: groups * schema.row_byte_width(),
            groups,
        };
        let view = PlannedView {
            def,
            rows,
            schema,
            dict_bytes,
            build_stats,
        };
        Ok((view, reps))
    }

    /// The plan of a stored table `data` built with `build_stats`.
    fn of_table(def: ViewDefinition, data: &Table, build_stats: ExecStats) -> PlannedView {
        let mut view = PlannedView {
            def,
            rows: 0,
            schema: data.schema().clone(),
            dict_bytes: 0,
            build_stats,
        };
        view.reread(data);
        view
    }

    /// Reads the row count and the dictionaries' footprint off `data`.
    fn reread(&mut self, data: &Table) {
        self.rows = data.num_rows();
        self.dict_bytes = data.heap_bytes() - self.rows as u64 * self.schema.row_byte_width();
    }

    /// The canonical definition.
    pub fn def(&self) -> &ViewDefinition {
        &self.def
    }

    /// Rows the stored table holds.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// The stored table's [`Table::heap_bytes`]: rows × the key and
    /// measure widths, plus each string key's dictionary.
    pub fn heap_bytes(&self) -> u64 {
        self.rows as u64 * self.schema.row_byte_width() + self.dict_bytes
    }

    /// Work performed to build the view from the base table.
    pub fn build_stats(&self) -> &ExecStats {
        &self.build_stats
    }

    /// Builds the view's rows from `base`.
    pub fn materialize(&self, base: &Table) -> Result<MaterializedView, EngineError> {
        MaterializedView::materialize(self.def.clone(), base)
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
        let schema = &self.schema;
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

    /// The `bytes_scanned` [`MaterializedView::answer`] would meter for
    /// `query` — stored rows × the width of the columns the scan reads —
    /// without the rows. The cost model's `t_iV` is a function of this
    /// number alone.
    pub fn planned_scan_bytes(&self, query: &AggQuery) -> Result<u64, EngineError> {
        Ok(self.lower(query)?.scan_bytes(&self.schema, self.rows))
    }
}

/// A materialized view: its plan plus the stored result table.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterializedView {
    plan: PlannedView,
    data: Table,
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
            plan: PlannedView::of_table(def, &data, build_stats),
            data,
        })
    }

    /// The view without its rows.
    pub fn plan(&self) -> &PlannedView {
        &self.plan
    }

    /// The canonical definition.
    pub fn def(&self) -> &ViewDefinition {
        &self.plan.def
    }

    /// The stored table.
    pub fn data(&self) -> &Table {
        &self.data
    }

    /// Crate-internal mutable access for incremental maintenance; the
    /// plan is re-read from the table when the borrow's user is done
    /// ([`MaterializedView::replan`]).
    pub(crate) fn data_mut_internal(&mut self) -> &mut Table {
        &mut self.data
    }

    /// Re-reads the plan's row count and footprint off the stored table
    /// after an in-place change to it.
    pub(crate) fn replan(&mut self) {
        self.plan.reread(&self.data);
    }

    /// Work performed to build (or last fully refresh) the view.
    pub fn build_stats(&self) -> &ExecStats {
        &self.plan.build_stats
    }

    /// Checks whether this view can answer `query`; `Ok(())` or the reason
    /// it cannot.
    pub fn can_answer(&self, query: &AggQuery) -> Result<(), EngineError> {
        self.plan.can_answer(query)
    }

    /// Answers `query` from the stored table instead of the base table.
    ///
    /// The result is identical to running the query on the base table
    /// (property-tested), but the scan touches only `self.data`'s rows —
    /// which is where the paper's `t_iV < t_i` speedup comes from.
    pub fn answer(&self, query: &AggQuery) -> Result<(Table, ExecStats), EngineError> {
        self.plan.lower(query)?.run(&self.data, 1)
    }

    /// The `bytes_scanned` [`MaterializedView::answer`] would meter for
    /// `query`, without running it ([`PlannedView::planned_scan_bytes`]).
    pub fn planned_scan_bytes(&self, query: &AggQuery) -> Result<u64, EngineError> {
        self.plan.planned_scan_bytes(query)
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
        let funcs: Vec<AggFunc> = def.measures().iter().map(|m| m.func()).collect();
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
        assert_eq!(def2.measures().len(), 2);
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
    fn a_counted_view_is_the_from_base_plan() {
        let month_country = month_country_view().def().clone();
        let (finest, reps) = PlannedView::count(month_country, &sales(), None).unwrap();
        assert_eq!(&finest, month_country_view().plan());
        assert_eq!(reps, vec![0, 1, 2, 3]);
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
            // The plan over the base table and over the finer view's
            // representatives: 4 base rows scanned at the key's width +
            // SUM and MAX inputs (COUNT reads nothing) either way.
            let (direct, direct_reps) = PlannedView::count(def.clone(), &sales(), None).unwrap();
            let over = Some((&finest, &reps[..]));
            let (counted, counted_reps) = PlannedView::count(def, &sales(), over).unwrap();
            assert_eq!(&counted, from_base.plan(), "{key:?}");
            assert_eq!((direct, direct_reps), (counted, counted_reps), "{key:?}");
            assert_eq!(from_base.plan().heap_bytes(), from_base.data().heap_bytes());
        }
    }

    #[test]
    fn counting_over_a_view_that_cannot_derive_the_definition_is_a_typed_error() {
        let def = ViewDefinition::canonical("v", &["year", "country"], &[AggSpec::sum("profit")]);
        let (source, reps) = PlannedView::count(def, &sales(), None).unwrap();
        let cannot = |key: &[&str], measure: AggSpec| {
            let def = ViewDefinition::canonical("w", key, &[measure]);
            matches!(
                PlannedView::count(def, &sales(), Some((&source, &reps))),
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
