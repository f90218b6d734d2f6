//! Row filters.
//!
//! Filters are deliberately minimal: comparisons against literals combined
//! with AND/OR — enough to express the paper's workload class ("sales of
//! 2005", "sales in France since 2003") without growing a full expression
//! language.

use crate::{Column, EngineError, Table, Value};

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn eval_ord(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// A filter over table rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column op literal`.
    Cmp {
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Literal to compare against.
        literal: Value,
    },
    /// Conjunction (empty = true).
    And(Vec<Predicate>),
    /// Disjunction (empty = false).
    Or(Vec<Predicate>),
}

impl Predicate {
    /// `column = literal`. No non-test caller: the shorthand the
    /// predicate, view and reference-executor tests build filters with.
    pub fn eq(column: impl Into<String>, literal: impl Into<Value>) -> Self {
        Predicate::Cmp {
            column: column.into(),
            op: CmpOp::Eq,
            literal: literal.into(),
        }
    }

    /// `column op literal`. No non-test caller: the shorthand the
    /// predicate and query unit tests, the reference executor
    /// (`reference_tests.rs`) and `tests/proptests.rs` build filters with.
    pub fn cmp(column: impl Into<String>, op: CmpOp, literal: impl Into<Value>) -> Self {
        Predicate::Cmp {
            column: column.into(),
            op,
            literal: literal.into(),
        }
    }

    /// All column names referenced by the predicate (with duplicates).
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::Cmp { column, .. } => out.push(column),
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
        }
    }

    /// Evaluates to one boolean per row.
    pub fn eval(&self, table: &Table) -> Result<Vec<bool>, EngineError> {
        match self {
            Predicate::Cmp {
                column,
                op,
                literal,
            } => {
                let col = table.column_by_name(column)?;
                eval_cmp(col, *op, literal, column)
            }
            Predicate::And(ps) => {
                let mut mask = vec![true; table.num_rows()];
                for p in ps {
                    let m = p.eval(table)?;
                    for (a, b) in mask.iter_mut().zip(m) {
                        *a = *a && b;
                    }
                }
                Ok(mask)
            }
            Predicate::Or(ps) => {
                let mut mask = vec![false; table.num_rows()];
                for p in ps {
                    let m = p.eval(table)?;
                    for (a, b) in mask.iter_mut().zip(m) {
                        *a = *a || b;
                    }
                }
                Ok(mask)
            }
        }
    }
}

fn eval_cmp(
    col: &Column,
    op: CmpOp,
    literal: &Value,
    name: &str,
) -> Result<Vec<bool>, EngineError> {
    match (col, literal) {
        (Column::Int(values), Value::Int(lit)) => {
            Ok(values.iter().map(|v| op.eval_ord(v.cmp(lit))).collect())
        }
        (Column::Str { codes, dict }, Value::Str(lit)) => {
            match op {
                // Equality compares codes: one dictionary probe total.
                CmpOp::Eq | CmpOp::Ne => {
                    let target = dict.lookup(lit);
                    Ok(codes
                        .iter()
                        .map(|c| {
                            let eq = Some(*c) == target;
                            if op == CmpOp::Eq {
                                eq
                            } else {
                                !eq
                            }
                        })
                        .collect())
                }
                // Range comparisons decode; rare in the workload class.
                _ => Ok(codes
                    .iter()
                    .map(|c| op.eval_ord(dict.decode(*c).cmp(lit.as_str())))
                    .collect()),
            }
        }
        (c, v) => Err(EngineError::TypeMismatch {
            column: name.to_string(),
            expected: c.dtype().name(),
            actual: v.type_name(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, TableBuilder};

    fn table() -> Table {
        TableBuilder::new(&[("year", DataType::Int), ("country", DataType::Str)])
            .unwrap()
            .row(&[2000.into(), "France".into()])
            .unwrap()
            .row(&[2005.into(), "Italy".into()])
            .unwrap()
            .row(&[2010.into(), "France".into()])
            .unwrap()
            .build()
    }

    #[test]
    fn int_comparisons() {
        let t = table();
        assert_eq!(
            Predicate::cmp("year", CmpOp::Ge, 2005).eval(&t).unwrap(),
            vec![false, true, true]
        );
        assert_eq!(
            Predicate::eq("year", 2005).eval(&t).unwrap(),
            vec![false, true, false]
        );
        assert_eq!(
            Predicate::cmp("year", CmpOp::Ne, 2005).eval(&t).unwrap(),
            vec![true, false, true]
        );
    }

    #[test]
    fn str_equality_uses_codes() {
        let t = table();
        assert_eq!(
            Predicate::eq("country", "France").eval(&t).unwrap(),
            vec![true, false, true]
        );
        // Unknown string matches nothing.
        assert_eq!(
            Predicate::eq("country", "Spain").eval(&t).unwrap(),
            vec![false, false, false]
        );
    }

    #[test]
    fn str_range_decodes() {
        let t = table();
        assert_eq!(
            Predicate::cmp("country", CmpOp::Lt, "G").eval(&t).unwrap(),
            vec![true, false, true]
        );
    }

    #[test]
    fn and_or_combinators() {
        let t = table();
        let p = Predicate::And(vec![
            Predicate::cmp("year", CmpOp::Ge, 2005),
            Predicate::eq("country", "France"),
        ]);
        assert_eq!(p.eval(&t).unwrap(), vec![false, false, true]);

        let q = Predicate::Or(vec![
            Predicate::eq("year", 2000),
            Predicate::eq("country", "Italy"),
        ]);
        assert_eq!(q.eval(&t).unwrap(), vec![true, true, false]);

        // Empty AND is true; empty OR is false.
        assert_eq!(
            Predicate::And(vec![]).eval(&t).unwrap(),
            vec![true, true, true]
        );
        assert_eq!(
            Predicate::Or(vec![]).eval(&t).unwrap(),
            vec![false, false, false]
        );
    }

    #[test]
    fn type_mismatch_reports_column() {
        let t = table();
        let err = Predicate::eq("year", "2005").eval(&t).unwrap_err();
        assert!(matches!(err, EngineError::TypeMismatch { ref column, .. } if column == "year"));
    }

    #[test]
    fn columns_lists_references() {
        let p = Predicate::And(vec![
            Predicate::eq("a", 1),
            Predicate::Or(vec![Predicate::eq("b", 2), Predicate::eq("c", 3)]),
        ]);
        assert_eq!(p.columns(), vec!["a", "b", "c"]);
    }
}
