//! Aggregate functions and accumulators.

use std::ops::Range;

use crate::{EngineError, Table};

/// Group id of a row the query's mask filtered out.
pub(crate) const SKIP: u32 = u32::MAX;

/// Public aggregate functions.
///
/// `Avg` is supported end-to-end but is never *stored* in a materialized
/// view: the materializer canonicalizes it to `Sum` + `Count` so the view
/// stays re-aggregable (the classical distributive/algebraic split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Sum of an integer column.
    Sum,
    /// Row count (no input column).
    Count,
    /// Minimum of an integer column.
    Min,
    /// Maximum of an integer column.
    Max,
    /// Integer average (floor of sum/count); algebraic, derived from
    /// Sum+Count when answered from a view.
    Avg,
}

impl AggFunc {
    /// Short lowercase name, used for auto-generated output column names.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// A requested aggregate: function + input column + output name.
///
/// Built only through its five constructors, so the input column is
/// present exactly when the function reads one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    func: AggFunc,
    column: Option<String>,
    /// Output column name.
    pub alias: String,
}

impl AggSpec {
    /// `func(column) AS func_column`.
    fn of(func: AggFunc, column: impl Into<String>) -> Self {
        let column = column.into();
        AggSpec {
            alias: format!("{}_{column}", func.name()),
            func,
            column: Some(column),
        }
    }

    /// `SUM(column) AS sum_column`.
    pub fn sum(column: impl Into<String>) -> Self {
        Self::of(AggFunc::Sum, column)
    }

    /// `COUNT(*) AS count_rows`.
    pub fn count() -> Self {
        AggSpec {
            func: AggFunc::Count,
            column: None,
            alias: "count_rows".to_string(),
        }
    }

    /// `MIN(column) AS min_column`.
    pub fn min(column: impl Into<String>) -> Self {
        Self::of(AggFunc::Min, column)
    }

    /// `MAX(column) AS max_column`.
    pub fn max(column: impl Into<String>) -> Self {
        Self::of(AggFunc::Max, column)
    }

    /// `AVG(column) AS avg_column`.
    pub fn avg(column: impl Into<String>) -> Self {
        Self::of(AggFunc::Avg, column)
    }

    /// The function.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// The input column; `None` exactly for `Count`.
    pub fn column(&self) -> Option<&str> {
        self.column.as_deref()
    }

    /// The measure a view stores for this aggregate, under its default
    /// name: `Avg(c)` is stored as `Sum(c)`, anything else as itself.
    pub(crate) fn stored(&self) -> AggSpec {
        match &self.column {
            None => AggSpec::count(),
            Some(column) if self.func == AggFunc::Avg => AggSpec::sum(column.as_str()),
            Some(column) => Self::of(self.func, column.as_str()),
        }
    }

    /// Renames the output column.
    pub fn with_alias(mut self, alias: impl Into<String>) -> Self {
        self.alias = alias.into();
        self
    }
}

/// Lowered aggregate expression used by the executor: input columns are
/// resolved to indices and `Avg` may be expressed as a ratio of two partial
/// columns when answering from a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggExpr {
    /// Sum of input column `col`.
    Sum { col: usize },
    /// Count of selected rows.
    Count,
    /// Min of input column `col`.
    Min { col: usize },
    /// Max of input column `col`.
    Max { col: usize },
    /// Floor(sum(col) / count) — native average over base rows.
    Avg { col: usize },
    /// Floor(sum(sum_col) / sum(count_col)) — average re-derived from a
    /// view's stored partials.
    RatioOfSums { sum_col: usize, count_col: usize },
}

impl AggExpr {
    /// `func` over column `col` of a base table (`Count` reads no column).
    pub(crate) fn over_base(func: AggFunc, col: usize) -> AggExpr {
        match func {
            AggFunc::Sum => AggExpr::Sum { col },
            AggFunc::Count => AggExpr::Count,
            AggFunc::Min => AggExpr::Min { col },
            AggFunc::Max => AggExpr::Max { col },
            AggFunc::Avg => AggExpr::Avg { col },
        }
    }

    /// Bytes of each input row this expression reads: 8 per `Int` column
    /// it references.
    pub(crate) fn input_width(self) -> u64 {
        match self {
            AggExpr::Sum { .. }
            | AggExpr::Min { .. }
            | AggExpr::Max { .. }
            | AggExpr::Avg { .. } => 8,
            AggExpr::Count => 0,
            AggExpr::RatioOfSums { .. } => 16,
        }
    }
}

/// Per-group accumulator columns for one lowered expression: one slot per
/// group id, typed once so the update loops carry no per-row dispatch.
///
/// Sums are kept in `i128`, which no number of `i64` inputs a table can hold
/// overflows, so partial sums combine in any order (serial scan or parallel
/// merge) to the same total; [`Accumulator::finish`] narrows them back and
/// reports a total that does not fit as [`EngineError::AggregateOverflow`].
#[derive(Debug, Clone)]
pub(crate) enum Accumulator {
    /// `Sum` and `Count`: one running total.
    Total(Vec<i128>),
    /// `Avg` and `RatioOfSums`: numerator and denominator totals.
    Ratio { sum: Vec<i128>, count: Vec<i128> },
    /// `Min`; every group has at least one row, so no "seen" flag.
    Min(Vec<i64>),
    /// `Max`.
    Max(Vec<i64>),
}

impl Accumulator {
    /// Extends the state to `groups` groups (new groups start at identity).
    pub(crate) fn grow(&mut self, groups: usize) {
        match self {
            Accumulator::Total(t) => t.resize(groups, 0),
            Accumulator::Ratio { sum, count } => {
                sum.resize(groups, 0);
                count.resize(groups, 0);
            }
            Accumulator::Min(m) => m.resize(groups, i64::MAX),
            Accumulator::Max(m) => m.resize(groups, i64::MIN),
        }
    }

    /// The state of `groups` groups of `expr`, folded over rows `rows` of
    /// `table` (`gids[i]` is the group of row `rows.start + i`; [`SKIP`]
    /// rows are filtered out).
    pub(crate) fn fold(
        expr: AggExpr,
        groups: usize,
        table: &Table,
        rows: Range<usize>,
        gids: &[u32],
    ) -> Result<Self, EngineError> {
        /// `f(slot of the row's group, row's value)` for every selected row.
        fn scatter<T>(slots: &mut [T], gids: &[u32], values: &[i64], f: impl Fn(&mut T, i64)) {
            for (&g, &v) in gids.iter().zip(values) {
                if g != SKIP {
                    f(&mut slots[g as usize], v);
                }
            }
        }
        fn count_rows(slots: &mut [i128], gids: &[u32]) {
            for &g in gids.iter().filter(|&&g| g != SKIP) {
                slots[g as usize] += 1;
            }
        }
        let input = |col: usize| Ok::<_, EngineError>(&table.column(col).as_int()?[rows.clone()]);
        let add = |total: &mut i128, v: i64| *total += v as i128;
        let totals = || vec![0i128; groups];
        Ok(match expr {
            AggExpr::Sum { col } => {
                let mut total = totals();
                scatter(&mut total, gids, input(col)?, add);
                Accumulator::Total(total)
            }
            AggExpr::Count => {
                let mut total = totals();
                count_rows(&mut total, gids);
                Accumulator::Total(total)
            }
            AggExpr::Avg { col } => {
                let (mut sum, mut count) = (totals(), totals());
                scatter(&mut sum, gids, input(col)?, add);
                count_rows(&mut count, gids);
                Accumulator::Ratio { sum, count }
            }
            AggExpr::RatioOfSums { sum_col, count_col } => {
                let (mut sum, mut count) = (totals(), totals());
                scatter(&mut sum, gids, input(sum_col)?, add);
                scatter(&mut count, gids, input(count_col)?, add);
                Accumulator::Ratio { sum, count }
            }
            AggExpr::Min { col } => {
                let mut min = vec![i64::MAX; groups];
                scatter(&mut min, gids, input(col)?, |m, v| *m = (*m).min(v));
                Accumulator::Min(min)
            }
            AggExpr::Max { col } => {
                let mut max = vec![i64::MIN; groups];
                scatter(&mut max, gids, input(col)?, |m, v| *m = (*m).max(v));
                Accumulator::Max(max)
            }
        })
    }

    /// Combines a partial state into this one: group `i` of `other` is
    /// group `dst[i]` here (the partial-aggregate combine step).
    pub(crate) fn merge(&mut self, other: &Accumulator, dst: &[u32]) {
        fn fold<T: Copy>(into: &mut [T], from: &[T], dst: &[u32], f: impl Fn(T, T) -> T) {
            for (&v, &d) in from.iter().zip(dst) {
                into[d as usize] = f(into[d as usize], v);
            }
        }
        match (self, other) {
            (Accumulator::Total(a), Accumulator::Total(b)) => fold(a, b, dst, |x, y| x + y),
            (
                Accumulator::Ratio { sum, count },
                Accumulator::Ratio {
                    sum: sum_b,
                    count: count_b,
                },
            ) => {
                fold(sum, sum_b, dst, |x, y| x + y);
                fold(count, count_b, dst, |x, y| x + y);
            }
            (Accumulator::Min(a), Accumulator::Min(b)) => fold(a, b, dst, i64::min),
            (Accumulator::Max(a), Accumulator::Max(b)) => fold(a, b, dst, i64::max),
            _ => unreachable!("accumulator state mismatch"),
        }
    }

    /// The output column: one value per group. `alias` names the aggregate
    /// in the overflow error.
    pub(crate) fn finish(self, alias: &str) -> Result<Vec<i64>, EngineError> {
        let overflow = || EngineError::AggregateOverflow {
            aggregate: alias.to_string(),
        };
        match self {
            Accumulator::Total(total) => total
                .into_iter()
                .map(|t| i64::try_from(t).map_err(|_| overflow()))
                .collect(),
            // Floor(sum / count); an empty denominator yields 0.
            Accumulator::Ratio { sum, count } => sum
                .into_iter()
                .zip(count)
                .map(|(s, c)| match (i64::try_from(s), i64::try_from(c)) {
                    (_, Ok(0)) => Ok(0),
                    // 128-bit division is a library call; stay out of it
                    // whenever both totals fit a machine word.
                    (Ok(s), Ok(c)) => s.checked_div_euclid(c).ok_or_else(overflow),
                    _ => i64::try_from(s.div_euclid(c)).map_err(|_| overflow()),
                })
                .collect(),
            Accumulator::Min(v) | Accumulator::Max(v) => Ok(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Column, DataType, Field, Schema};

    #[test]
    fn spec_constructors_name_outputs() {
        assert_eq!(AggSpec::sum("profit").alias, "sum_profit");
        assert_eq!(AggSpec::count().alias, "count_rows");
        assert_eq!(AggSpec::min("profit").alias, "min_profit");
        assert_eq!(AggSpec::max("profit").alias, "max_profit");
        assert_eq!(AggSpec::avg("profit").alias, "avg_profit");
        assert_eq!(AggSpec::sum("x").with_alias("total").alias, "total");
    }

    /// Aggregates every row of `data` (one `Vec` per column) into one group.
    fn run(expr: AggExpr, data: &[Vec<i64>]) -> i64 {
        let names: Vec<String> = (0..data.len()).map(|i| format!("c{i}")).collect();
        let schema = Schema::new(
            names
                .iter()
                .map(|n| Field::new(n.as_str(), DataType::Int))
                .collect(),
        )
        .unwrap();
        let columns = data.iter().cloned().map(Column::Int).collect();
        let table = Table::new(schema, columns).unwrap();
        let rows = table.num_rows();
        let acc = Accumulator::fold(expr, 1, &table, 0..rows, &vec![0; rows]).unwrap();
        acc.finish("out").unwrap()[0]
    }

    #[test]
    fn accumulators_compute() {
        let col = vec![vec![5, -3, 10]];
        assert_eq!(run(AggExpr::Sum { col: 0 }, &col), 12);
        assert_eq!(run(AggExpr::Count, &col), 3);
        assert_eq!(run(AggExpr::Min { col: 0 }, &col), -3);
        assert_eq!(run(AggExpr::Max { col: 0 }, &col), 10);
        assert_eq!(run(AggExpr::Avg { col: 0 }, &col), 4);
    }

    #[test]
    fn ratio_of_sums_weights_correctly() {
        // Two partial groups: (sum=10,count=2) and (sum=50,count=3).
        let data = vec![vec![10, 50], vec![2, 3]];
        assert_eq!(
            run(
                AggExpr::RatioOfSums {
                    sum_col: 0,
                    count_col: 1
                },
                &data
            ),
            12 // floor(60 / 5)
        );
    }

    #[test]
    fn avg_floors_toward_negative_infinity() {
        let col = vec![vec![-3, -4]];
        // floor(-7/2) = -4 (div_euclid), matching SQL's floor semantics
        // for our integer-cents convention.
        assert_eq!(run(AggExpr::Avg { col: 0 }, &col), -4);
    }

    #[test]
    fn empty_input_yields_zero() {
        let col: Vec<Vec<i64>> = vec![vec![]];
        assert_eq!(run(AggExpr::Sum { col: 0 }, &col), 0);
        assert_eq!(run(AggExpr::Avg { col: 0 }, &col), 0);
    }
}
