//! CSV import/export for tables.
//!
//! Minimal but correct: RFC-4180-style quoting on export, quoted fields,
//! embedded commas/quotes/newlines on import. Exists so the CLI and
//! downstream users can load their own fact tables instead of the
//! generators'.

use crate::{DataType, EngineError, Schema, Table, Value};

/// Serializes a table as CSV with a header row.
pub fn table_to_csv(table: &Table) -> String {
    let escape = |s: &str| -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = table
        .schema()
        .fields()
        .iter()
        .map(|f| escape(&f.name))
        .collect::<Vec<_>>()
        .join(",");
    for r in 0..table.num_rows() {
        out.push('\n');
        out.push_str(
            &table
                .row(r)
                .iter()
                .map(|v| escape(&v.to_string()))
                .collect::<Vec<_>>()
                .join(","),
        );
    }
    out
}

/// Splits one CSV record honouring quotes; returns the fields and the
/// byte offset just past the record's trailing newline.
fn split_record(input: &str) -> Option<(Vec<String>, usize)> {
    if input.is_empty() {
        return None;
    }
    let bytes = input.as_bytes();
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut i = 0;
    let mut in_quotes = false;
    loop {
        if i >= bytes.len() {
            fields.push(std::mem::take(&mut field));
            return Some((fields, i));
        }
        let b = bytes[i];
        if in_quotes {
            match b {
                b'"' if bytes.get(i + 1) == Some(&b'"') => {
                    field.push('"');
                    i += 2;
                }
                b'"' => {
                    in_quotes = false;
                    i += 1;
                }
                _ => {
                    field.push(b as char);
                    i += 1;
                }
            }
        } else {
            match b {
                b'"' => {
                    in_quotes = true;
                    i += 1;
                }
                b',' => {
                    fields.push(std::mem::take(&mut field));
                    i += 1;
                }
                b'\r' if bytes.get(i + 1) == Some(&b'\n') => {
                    fields.push(std::mem::take(&mut field));
                    return Some((fields, i + 2));
                }
                b'\n' => {
                    fields.push(std::mem::take(&mut field));
                    return Some((fields, i + 1));
                }
                _ => {
                    field.push(b as char);
                    i += 1;
                }
            }
        }
    }
}

/// Parses CSV (with a header row) into a table under `schema`. Header
/// names must match the schema's column order; integer columns must parse.
/// Test reference and seam: no non-test caller — it is the inverse the
/// round-trip tests hold [`table_to_csv`] to, and the door
/// `tests/overflow.rs` feeds outside input through.
pub fn table_from_csv(csv: &str, schema: &Schema) -> Result<Table, EngineError> {
    let mut rest = csv;
    let (header, consumed) = split_record(rest).ok_or(EngineError::SchemaMismatch)?;
    rest = &rest[consumed..];
    if header.len() != schema.len()
        || header
            .iter()
            .zip(schema.fields())
            .any(|(h, f)| h != &f.name)
    {
        return Err(EngineError::SchemaMismatch);
    }
    let mut table = Table::empty(schema.clone());
    while let Some((fields, consumed)) = split_record(rest) {
        rest = &rest[consumed..];
        if fields.len() == 1 && fields[0].is_empty() {
            continue; // blank line
        }
        if fields.len() != schema.len() {
            return Err(EngineError::LengthMismatch {
                expected: schema.len(),
                actual: fields.len(),
            });
        }
        let mut row = Vec::with_capacity(fields.len());
        for (field, f) in fields.into_iter().zip(schema.fields()) {
            let value = match f.dtype {
                DataType::Int => Value::Int(field.trim().parse::<i64>().map_err(|_| {
                    EngineError::TypeMismatch {
                        column: f.name.clone(),
                        expected: "int",
                        actual: "str",
                    }
                })?),
                DataType::Str => Value::Str(field),
            };
            row.push(value);
        }
        table.push_row(&row)?;
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{datagen, Field, SalesConfig, TableBuilder};

    #[test]
    fn roundtrip_generated_sales() {
        let t = datagen::generate_sales(&SalesConfig::with_rows(200));
        let csv = table_to_csv(&t);
        let back = table_from_csv(&csv, t.schema()).unwrap();
        assert_eq!(t.to_rows(), back.to_rows());
    }

    #[test]
    fn quoting_roundtrip() {
        let t = TableBuilder::new(&[("name", DataType::Str), ("v", DataType::Int)])
            .unwrap()
            .row(&["has,comma".into(), 1.into()])
            .unwrap()
            .row(&["has\"quote".into(), 2.into()])
            .unwrap()
            .row(&["has\nnewline".into(), 3.into()])
            .unwrap()
            .build();
        let csv = table_to_csv(&t);
        let back = table_from_csv(&csv, t.schema()).unwrap();
        assert_eq!(t.to_rows(), back.to_rows());
    }

    #[test]
    fn header_mismatch_rejected() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
        ])
        .unwrap();
        assert_eq!(
            table_from_csv("a,c\n1,x", &schema),
            Err(EngineError::SchemaMismatch)
        );
    }

    #[test]
    fn bad_integer_reports_column() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]).unwrap();
        let err = table_from_csv("a\nnope", &schema).unwrap_err();
        assert!(matches!(err, EngineError::TypeMismatch { ref column, .. } if column == "a"));
    }

    #[test]
    fn ragged_row_rejected() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ])
        .unwrap();
        assert!(matches!(
            table_from_csv("a,b\n1", &schema),
            Err(EngineError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn crlf_and_blank_lines() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]).unwrap();
        let t = table_from_csv("a\r\n1\r\n\r\n2\n", &schema).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = TableBuilder::new(&[("x", DataType::Int)]).unwrap().build();
        let csv = table_to_csv(&t);
        assert_eq!(csv, "x");
        let back = table_from_csv(&csv, t.schema()).unwrap();
        assert_eq!(back.num_rows(), 0);
    }
}
