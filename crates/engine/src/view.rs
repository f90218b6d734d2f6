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
use crate::groupby::LoweredAgg;
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
        let mut push_unique = |spec: AggSpec| {
            if !measures
                .iter()
                .any(|m| m.func == spec.func && m.column == spec.column)
            {
                measures.push(spec);
            }
        };
        for spec in requested {
            match spec.func {
                AggFunc::Avg => {
                    let col = spec.column.clone().expect("avg requires a column");
                    push_unique(AggSpec::sum(col));
                }
                AggFunc::Count => push_unique(AggSpec::count()),
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                    let col = spec.column.clone().expect("agg requires a column");
                    let canonical = match spec.func {
                        AggFunc::Sum => AggSpec::sum(col),
                        AggFunc::Min => AggSpec::min(col),
                        AggFunc::Max => AggSpec::max(col),
                        _ => unreachable!(),
                    };
                    push_unique(canonical);
                }
            }
        }
        push_unique(AggSpec::count());
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
            .find(|m| m.func == func && m.column.as_deref() == column)
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

    /// Checks whether this view can answer `query`; `Ok(())` or the reason
    /// it cannot.
    pub fn can_answer(&self, query: &AggQuery) -> Result<(), EngineError> {
        for g in &query.group_by {
            if !self.def.group_by.contains(g) {
                return Err(EngineError::ViewCannotAnswer {
                    reason: format!("group column {g:?} is not in the view key"),
                });
            }
        }
        if let Some(p) = &query.predicate {
            for c in p.columns() {
                if !self.def.group_by.iter().any(|g| g == c) {
                    return Err(EngineError::ViewCannotAnswer {
                        reason: format!("predicate column {c:?} is not in the view key"),
                    });
                }
            }
        }
        for spec in &query.aggregates {
            let derivable = match spec.func {
                AggFunc::Sum => self
                    .def
                    .measure_alias(AggFunc::Sum, spec.column.as_deref())
                    .is_some(),
                AggFunc::Count => self.def.measure_alias(AggFunc::Count, None).is_some(),
                AggFunc::Min => self
                    .def
                    .measure_alias(AggFunc::Min, spec.column.as_deref())
                    .is_some(),
                AggFunc::Max => self
                    .def
                    .measure_alias(AggFunc::Max, spec.column.as_deref())
                    .is_some(),
                AggFunc::Avg => {
                    self.def
                        .measure_alias(AggFunc::Sum, spec.column.as_deref())
                        .is_some()
                        && self.def.measure_alias(AggFunc::Count, None).is_some()
                }
            };
            if !derivable {
                return Err(EngineError::ViewCannotAnswer {
                    reason: format!(
                        "aggregate {}({}) is not derivable from stored measures",
                        spec.func.name(),
                        spec.column.as_deref().unwrap_or("*"),
                    ),
                });
            }
        }
        Ok(())
    }

    /// Answers `query` from the stored table instead of the base table.
    ///
    /// The result is identical to running the query on the base table
    /// (property-tested), but the scan touches only `self.data`'s rows —
    /// which is where the paper's `t_iV < t_i` speedup comes from.
    pub fn answer(&self, query: &AggQuery) -> Result<(Table, ExecStats), EngineError> {
        self.can_answer(query)?;
        let schema = self.data.schema();
        let mut group_cols = Vec::with_capacity(query.group_by.len());
        for (i, name) in query.group_by.iter().enumerate() {
            if query.group_by[..i].contains(name) {
                return Err(EngineError::DuplicateGroupColumn { name: name.clone() });
            }
            group_cols.push(schema.index_of(name)?);
        }
        if query.aggregates.is_empty() {
            return Err(EngineError::NoAggregates);
        }
        let count_alias = self.def.measure_alias(AggFunc::Count, None);
        let mut lowered = Vec::with_capacity(query.aggregates.len());
        for spec in &query.aggregates {
            let expr = match spec.func {
                // SUM over a view re-aggregates the stored SUM partials.
                AggFunc::Sum => AggExpr::Sum {
                    col: schema.index_of(
                        self.def
                            .measure_alias(AggFunc::Sum, spec.column.as_deref())
                            .expect("checked by can_answer"),
                    )?,
                },
                // COUNT re-aggregates as a SUM of stored counts.
                AggFunc::Count => AggExpr::Sum {
                    col: schema.index_of(count_alias.expect("checked by can_answer"))?,
                },
                AggFunc::Min => AggExpr::Min {
                    col: schema.index_of(
                        self.def
                            .measure_alias(AggFunc::Min, spec.column.as_deref())
                            .expect("checked by can_answer"),
                    )?,
                },
                AggFunc::Max => AggExpr::Max {
                    col: schema.index_of(
                        self.def
                            .measure_alias(AggFunc::Max, spec.column.as_deref())
                            .expect("checked by can_answer"),
                    )?,
                },
                // AVG is the ratio of re-aggregated SUM and COUNT partials.
                AggFunc::Avg => AggExpr::RatioOfSums {
                    sum_col: schema.index_of(
                        self.def
                            .measure_alias(AggFunc::Sum, spec.column.as_deref())
                            .expect("checked by can_answer"),
                    )?,
                    count_col: schema.index_of(count_alias.expect("checked by can_answer"))?,
                },
            };
            lowered.push(LoweredAgg {
                expr,
                alias: spec.alias.clone(),
            });
        }
        let (mask, mut pred_stats) = match &query.predicate {
            Some(p) => {
                let mask = p.eval(&self.data)?;
                let width: u64 = p
                    .columns()
                    .iter()
                    .map(|c| schema.field(c).map(|f| f.dtype.byte_width()).unwrap_or(0))
                    .sum();
                (
                    Some(mask),
                    ExecStats {
                        rows_scanned: self.data.num_rows() as u64,
                        bytes_scanned: self.data.num_rows() as u64 * width,
                        ..ExecStats::default()
                    },
                )
            }
            None => (None, ExecStats::default()),
        };
        let (out, agg_stats) =
            crate::groupby::group_by(&self.data, &group_cols, &lowered, mask.as_deref())?;
        pred_stats.merge(&agg_stats);
        pred_stats.rows_scanned = agg_stats.rows_scanned;
        Ok((out, pred_stats))
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
        let funcs: Vec<AggFunc> = def.measures.iter().map(|m| m.func).collect();
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
