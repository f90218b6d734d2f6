//! Aggregation queries.

use crate::agg::AggExpr;
use crate::groupby::{output_schema, parallel_group_by, scanned_width, LoweredAgg};
use crate::{AggSpec, DataType, EngineError, ExecStats, Predicate, Schema, Table};

/// A roll-up aggregation query: `SELECT group_by…, agg(…)… FROM t [WHERE …]
/// GROUP BY group_by…`.
///
/// This is the query class of the paper's workload ("total profit per year
/// and per country") and the only class its materialized views need to
/// serve.
#[derive(Debug, Clone, PartialEq)]
pub struct AggQuery {
    /// Query identifier, used in workload definitions and reports.
    pub name: String,
    /// Group-by column names (order defines output order).
    pub group_by: Vec<String>,
    /// Requested aggregates (at least one).
    pub aggregates: Vec<AggSpec>,
    /// Optional row filter.
    pub predicate: Option<Predicate>,
}

impl AggQuery {
    /// Builds a query; `group_by` may be empty (grand total).
    pub fn new(name: impl Into<String>, group_by: &[&str], aggregates: Vec<AggSpec>) -> Self {
        AggQuery {
            name: name.into(),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            aggregates,
            predicate: None,
        }
    }

    /// Adds a filter.
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = Some(predicate);
        self
    }

    /// The indices of the group-by columns in `schema`; also rejects a
    /// query with no aggregates, which no table can run.
    pub(crate) fn group_columns(&self, schema: &Schema) -> Result<Vec<usize>, EngineError> {
        if self.aggregates.is_empty() {
            return Err(EngineError::NoAggregates);
        }
        let mut group_cols = Vec::with_capacity(self.group_by.len());
        for (i, name) in self.group_by.iter().enumerate() {
            if self.group_by[..i].contains(name) {
                return Err(EngineError::DuplicateGroupColumn { name: name.clone() });
            }
            group_cols.push(schema.index_of(name)?);
        }
        Ok(group_cols)
    }

    /// Validates the query against a base table's `schema` and lowers it
    /// onto its columns.
    fn plan(&self, schema: &Schema) -> Result<Plan<'_>, EngineError> {
        let group_cols = self.group_columns(schema)?;
        let mut aggs = Vec::with_capacity(self.aggregates.len());
        for spec in &self.aggregates {
            let expr = match spec.column() {
                None => AggExpr::Count,
                Some(col_name) => {
                    let col = schema.index_of(col_name)?;
                    let field = &schema.fields()[col];
                    if field.dtype != DataType::Int {
                        return Err(EngineError::TypeMismatch {
                            column: col_name.to_string(),
                            expected: "int",
                            actual: field.dtype.name(),
                        });
                    }
                    AggExpr::over_base(spec.func(), col)
                }
            };
            aggs.push(LoweredAgg {
                expr,
                alias: spec.alias.clone(),
            });
        }
        Ok(Plan {
            group_cols,
            aggs,
            predicate: self.predicate.as_ref(),
        })
    }

    /// Executes against `table`, returning the result and metering record.
    pub fn execute(&self, table: &Table) -> Result<(Table, ExecStats), EngineError> {
        self.execute_with_threads(table, 1)
    }

    /// Executes with a thread budget (1 = serial). Results are identical to
    /// [`AggQuery::execute`]; only wall-clock differs.
    pub fn execute_with_threads(
        &self,
        table: &Table,
        threads: usize,
    ) -> Result<(Table, ExecStats), EngineError> {
        self.plan(table.schema())?.run(table, threads)
    }

    /// The `bytes_scanned` [`AggQuery::execute`] would meter over `table`
    /// and its result's schema, read off the plan: no predicate is
    /// evaluated and no total formed, so only planning can fail.
    pub fn planned_scan(&self, table: &Table) -> Result<(u64, Schema), EngineError> {
        let plan = self.plan(table.schema())?;
        let out = output_schema(table.schema(), &plan.group_cols, &plan.aggs)?;
        Ok((plan.scan_bytes(table), out))
    }
}

/// A query lowered onto one table — a base table
/// ([`AggQuery::execute`]) or a view's stored one
/// ([`crate::MaterializedView::answer`]): what the kernel runs, and what
/// the scan is metered at whether it runs or not.
#[derive(Debug)]
pub(crate) struct Plan<'q> {
    /// Key column indices, in output order.
    pub(crate) group_cols: Vec<usize>,
    /// Executor expressions with their output names.
    pub(crate) aggs: Vec<LoweredAgg>,
    /// The query's row filter.
    pub(crate) predicate: Option<&'q Predicate>,
}

impl Plan<'_> {
    /// Bytes evaluating the predicate reads from `table`: its referenced
    /// columns over all rows.
    fn predicate_bytes(&self, table: &Table) -> u64 {
        let schema = table.schema();
        let width: u64 = self.predicate.map_or(0, |p| {
            p.columns()
                .iter()
                .map(|c| schema.field(c).map_or(0, |f| f.dtype.byte_width()))
                .sum()
        });
        table.num_rows() as u64 * width
    }

    /// The `bytes_scanned` [`Plan::run`] reports over `table`, read off
    /// its row count and the referenced columns' widths.
    pub(crate) fn scan_bytes(&self, table: &Table) -> u64 {
        let aggs = self.aggs.iter().map(|a| a.expr);
        let width = scanned_width(table.schema(), &self.group_cols, aggs);
        table.num_rows() as u64 * width + self.predicate_bytes(table)
    }

    /// Runs the plan over `table` on up to `threads` threads (the kernel
    /// runs serially at one, and on inputs too small to split).
    pub(crate) fn run(
        &self,
        table: &Table,
        threads: usize,
    ) -> Result<(Table, ExecStats), EngineError> {
        let mask = self.predicate.map(|p| p.eval(table)).transpose()?;
        let (group_cols, aggs) = (&self.group_cols, &self.aggs);
        let (out, mut stats) =
            parallel_group_by(table, group_cols, aggs, mask.as_deref(), threads)?;
        // The kernel metered the columns it read; the predicate's come on
        // top. Rows were scanned once, not twice.
        stats.bytes_scanned += self.predicate_bytes(table);
        Ok((out, stats))
    }
}

/// Serializable description of a query (without predicates), used in
/// experiment configs. Lossless for the paper's workload class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryShape {
    /// Query identifier.
    pub name: String,
    /// Group-by column names.
    pub group_by: Vec<String>,
}

impl From<&AggQuery> for QueryShape {
    fn from(q: &AggQuery) -> Self {
        QueryShape {
            name: q.name.clone(),
            group_by: q.group_by.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, TableBuilder, Value};

    fn sales() -> Table {
        TableBuilder::new(&[
            ("year", DataType::Int),
            ("country", DataType::Str),
            ("profit", DataType::Int),
        ])
        .unwrap()
        .row(&[2000.into(), "France".into(), 35.into()])
        .unwrap()
        .row(&[2000.into(), "France".into(), 40.into()])
        .unwrap()
        .row(&[2000.into(), "Italy".into(), 23.into()])
        .unwrap()
        .row(&[1999.into(), "Italy".into(), 50.into()])
        .unwrap()
        .build()
    }

    #[test]
    fn basic_rollup() {
        let q = AggQuery::new("q1", &["country"], vec![AggSpec::sum("profit")]);
        let (out, stats) = q.execute(&sales()).unwrap();
        assert_eq!(
            out.to_sorted_rows(),
            vec![
                vec![Value::from("France"), Value::Int(75)],
                vec![Value::from("Italy"), Value::Int(73)],
            ]
        );
        assert_eq!(stats.groups, 2);
    }

    #[test]
    fn multiple_aggregates() {
        let q = AggQuery::new(
            "q",
            &["year"],
            vec![
                AggSpec::sum("profit"),
                AggSpec::count(),
                AggSpec::min("profit"),
                AggSpec::max("profit"),
                AggSpec::avg("profit"),
            ],
        );
        let (out, _) = q.execute(&sales()).unwrap();
        let rows = out.to_sorted_rows();
        // 1999: sum 50, count 1, min 50, max 50, avg 50.
        assert_eq!(
            rows[0],
            vec![
                Value::Int(1999),
                Value::Int(50),
                Value::Int(1),
                Value::Int(50),
                Value::Int(50),
                Value::Int(50)
            ]
        );
        // 2000: sum 98, count 3, min 23, max 40, avg 32.
        assert_eq!(
            rows[1],
            vec![
                Value::Int(2000),
                Value::Int(98),
                Value::Int(3),
                Value::Int(23),
                Value::Int(40),
                Value::Int(32)
            ]
        );
    }

    #[test]
    fn predicate_filters_and_meters() {
        let q = AggQuery::new("q", &["country"], vec![AggSpec::sum("profit")])
            .with_predicate(Predicate::cmp("year", CmpOp::Ge, 2000));
        let (out, stats) = q.execute(&sales()).unwrap();
        assert_eq!(
            out.to_sorted_rows(),
            vec![
                vec![Value::from("France"), Value::Int(75)],
                vec![Value::from("Italy"), Value::Int(23)],
            ]
        );
        // Predicate scanned the year column (8 bytes/row) on top of the
        // aggregation's own scan.
        assert!(stats.bytes_scanned > 4 * (4 + 8));
    }

    #[test]
    fn validation_errors() {
        let t = sales();
        let no_agg = AggQuery::new("q", &["year"], vec![]);
        assert_eq!(no_agg.execute(&t).unwrap_err(), EngineError::NoAggregates);

        let dup = AggQuery::new("q", &["year", "year"], vec![AggSpec::count()]);
        assert!(matches!(
            dup.execute(&t).unwrap_err(),
            EngineError::DuplicateGroupColumn { .. }
        ));

        let missing = AggQuery::new("q", &["nope"], vec![AggSpec::count()]);
        assert!(matches!(
            missing.execute(&t).unwrap_err(),
            EngineError::UnknownColumn { .. }
        ));

        let str_sum = AggQuery::new("q", &[], vec![AggSpec::sum("country")]);
        assert!(matches!(
            str_sum.execute(&t).unwrap_err(),
            EngineError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn threads_do_not_change_results() {
        let q = AggQuery::new(
            "q",
            &["year", "country"],
            vec![AggSpec::sum("profit"), AggSpec::avg("profit")],
        );
        let (serial, _) = q.execute(&sales()).unwrap();
        let (par, _) = q.execute_with_threads(&sales(), 4).unwrap();
        assert_eq!(serial.to_sorted_rows(), par.to_sorted_rows());
    }

    #[test]
    fn shape_roundtrip() {
        let q = AggQuery::new("q1", &["year", "country"], vec![AggSpec::sum("profit")]);
        let shape = QueryShape::from(&q);
        assert_eq!(shape.name, "q1");
        assert_eq!(shape.group_by, vec!["year", "country"]);
    }
}
