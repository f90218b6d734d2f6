//! In-memory tables.

use mv_units::Gb;

use crate::{Column, DataType, EngineError, Schema, Value};

/// A schema plus equally-long columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        Table {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Builds a table from pre-filled columns, validating lengths.
    pub(crate) fn new(schema: Schema, columns: Vec<Column>) -> Result<Self, EngineError> {
        let rows = columns.first().map(Column::len).unwrap_or(0);
        if columns.len() != schema.len() {
            return Err(EngineError::LengthMismatch {
                expected: schema.len(),
                actual: columns.len(),
            });
        }
        for (field, col) in schema.fields().iter().zip(&columns) {
            if field.dtype != col.dtype() {
                return Err(EngineError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.dtype.name(),
                    actual: col.dtype().name(),
                });
            }
            if col.len() != rows {
                return Err(EngineError::LengthMismatch {
                    expected: rows,
                    actual: col.len(),
                });
            }
        }
        Ok(Table {
            schema,
            columns,
            rows,
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Column by position.
    pub fn column(&self, index: usize) -> &Column {
        &self.columns[index]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, EngineError> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Mutable column access for in-place merge during incremental view
    /// maintenance. Crate-internal: external mutation could break the
    /// equal-length invariant.
    pub(crate) fn column_mut(&mut self, index: usize) -> &mut Column {
        &mut self.columns[index]
    }

    /// Appends one row of boundary values (test/builder convenience; bulk
    /// loads go through [`crate::datagen`] or the executor's builders).
    pub fn push_row(&mut self, row: &[Value]) -> Result<(), EngineError> {
        if row.len() != self.columns.len() {
            return Err(EngineError::LengthMismatch {
                expected: self.columns.len(),
                actual: row.len(),
            });
        }
        for (col, value) in self.columns.iter_mut().zip(row) {
            col.push_value(value)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Appends all rows of `other`, which must have an identical schema.
    pub fn append(&mut self, other: &Table) -> Result<(), EngineError> {
        if self.schema != other.schema {
            return Err(EngineError::SchemaMismatch);
        }
        for row in 0..other.rows {
            let values: Vec<Value> = other.columns.iter().map(|c| c.value_at(row)).collect();
            self.push_row(&values)?;
        }
        Ok(())
    }

    /// Extracts row `row` as boundary values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value_at(row)).collect()
    }

    /// All rows as boundary values — test helper for order-insensitive
    /// result comparison.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.rows).map(|r| self.row(r)).collect()
    }

    /// All rows, sorted — canonical form for comparing query results that
    /// are only defined up to row order. Test seam: every caller is a
    /// test or a doctest.
    pub fn to_sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.to_rows();
        rows.sort();
        rows
    }

    /// Approximate heap footprint.
    pub fn heap_bytes(&self) -> u64 {
        self.columns.iter().map(Column::heap_bytes).sum()
    }

    /// Heap footprint as [`Gb`] (the engine-side size; experiments scale it
    /// to "cloud GB" through [`crate::SimScale`]).
    pub fn size(&self) -> Gb {
        Gb::from_bytes(self.heap_bytes())
    }

    /// Renders the first `limit` rows as an aligned text table (used by the
    /// dataset-excerpt experiment and examples).
    pub fn render(&self, limit: usize) -> String {
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let mut rows: Vec<Vec<String>> = Vec::new();
        for r in 0..self.rows.min(limit) {
            rows.push(self.row(r).iter().map(Value::to_string).collect());
        }
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:<w$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        out.push_str(&format!(
            "|{}|",
            widths
                .iter()
                .map(|w| "-".repeat(w + 2))
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &rows {
            out.push('\n');
            out.push_str(&fmt_row(row, &widths));
        }
        if self.rows > limit {
            out.push_str(&format!("\n({} more rows)", self.rows - limit));
        }
        out
    }
}

/// Fluent builder for small tables in tests and examples.
#[derive(Debug)]
pub struct TableBuilder {
    table: Table,
}

impl TableBuilder {
    /// Starts a builder from `(name, type)` pairs.
    pub fn new(fields: &[(&str, DataType)]) -> Result<Self, EngineError> {
        let schema = Schema::new(
            fields
                .iter()
                .map(|(n, t)| crate::Field::new(*n, *t))
                .collect(),
        )?;
        Ok(TableBuilder {
            table: Table::empty(schema),
        })
    }

    /// Appends a row.
    pub fn row(mut self, values: &[Value]) -> Result<Self, EngineError> {
        self.table.push_row(values)?;
        Ok(self)
    }

    /// Finishes the table.
    pub fn build(self) -> Table {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Field;

    fn small() -> Table {
        TableBuilder::new(&[
            ("year", DataType::Int),
            ("country", DataType::Str),
            ("profit", DataType::Int),
        ])
        .unwrap()
        .row(&[2000.into(), "France".into(), 35_000.into()])
        .unwrap()
        .row(&[2000.into(), "Italy".into(), 23_000.into()])
        .unwrap()
        .build()
    }

    #[test]
    fn build_and_access() {
        let t = small();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(1), vec![2000.into(), "Italy".into(), 23_000.into()]);
        assert_eq!(
            t.column_by_name("country").unwrap().value_at(0),
            Value::from("France")
        );
    }

    #[test]
    fn new_validates_shape() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]).unwrap();
        let bad_type = Table::new(schema.clone(), vec![Column::empty(DataType::Str)]);
        assert!(matches!(bad_type, Err(EngineError::TypeMismatch { .. })));

        let schema2 = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ])
        .unwrap();
        let c1 = Column::Int(vec![1]);
        let bad_len = Table::new(schema2, vec![c1, Column::empty(DataType::Int)]);
        assert!(matches!(bad_len, Err(EngineError::LengthMismatch { .. })));
    }

    #[test]
    fn append_requires_same_schema() {
        let mut a = small();
        let b = small();
        a.append(&b).unwrap();
        assert_eq!(a.num_rows(), 4);

        let other = TableBuilder::new(&[("x", DataType::Int)]).unwrap().build();
        assert_eq!(a.append(&other), Err(EngineError::SchemaMismatch));
    }

    #[test]
    fn sorted_rows_canonicalize() {
        let t = small();
        let mut reversed = Table::empty(t.schema().clone());
        reversed.push_row(&t.row(1)).unwrap();
        reversed.push_row(&t.row(0)).unwrap();
        assert_eq!(t.to_sorted_rows(), reversed.to_sorted_rows());
    }

    #[test]
    fn render_produces_aligned_table() {
        let text = small().render(10);
        assert!(text.contains("| year | country | profit |"));
        assert!(text.contains("France"));
    }

    #[test]
    fn render_truncates() {
        let text = small().render(1);
        assert!(text.contains("(1 more rows)"));
    }

    #[test]
    fn size_accounting() {
        let t = small();
        assert!(t.heap_bytes() > 0);
        assert!(t.size().value() > 0.0);
    }
}
