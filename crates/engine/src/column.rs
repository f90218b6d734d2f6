//! Columnar storage.

use crate::{DataType, Dictionary, EngineError, Value};

/// One column of data.
///
/// String columns own their dictionary; tables produced by the engine are
/// self-contained (no shared interning across tables), which keeps
/// materialized views independent of their base table — exactly like a
/// physical table in the paper's cloud store.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// Dictionary-encoded strings.
    Str {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// Code → string mapping.
        dict: Dictionary,
    },
}

impl Column {
    /// An empty column of the given type.
    pub(crate) fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Str => Column::Str {
                codes: Vec::new(),
                dict: Dictionary::new(),
            },
        }
    }

    /// This column's logical type.
    pub(crate) fn dtype(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Str { .. } => DataType::Str,
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Str { codes, .. } => codes.len(),
        }
    }

    /// The value at `row` as a boundary [`Value`].
    pub(crate) fn value_at(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Str { codes, dict } => Value::Str(dict.decode(codes[row]).to_string()),
        }
    }

    /// Appends a boundary value, interning strings.
    pub(crate) fn push_value(&mut self, value: &Value) -> Result<(), EngineError> {
        match (self, value) {
            (Column::Int(v), Value::Int(i)) => {
                v.push(*i);
                Ok(())
            }
            (Column::Str { codes, dict }, Value::Str(s)) => {
                codes.push(dict.intern(s));
                Ok(())
            }
            (col, v) => Err(EngineError::TypeMismatch {
                column: String::new(),
                expected: col.dtype().name(),
                actual: v.type_name(),
            }),
        }
    }

    /// The rows `rows` of this column, in that order, as a self-contained
    /// column. A string column's dictionary is rebuilt through an old-code →
    /// new-code table, so each distinct string is interned once — in order
    /// of first appearance among `rows` — however many rows carry it.
    pub(crate) fn gather(&self, rows: &[u32]) -> Column {
        match self {
            Column::Int(v) => Column::Int(rows.iter().map(|&r| v[r as usize]).collect()),
            Column::Str { codes, dict } => {
                const UNMAPPED: u32 = u32::MAX;
                let mut remap = vec![UNMAPPED; dict.len()];
                let mut out_dict = Dictionary::new();
                let out_codes = rows
                    .iter()
                    .map(|&r| {
                        let old = codes[r as usize] as usize;
                        if remap[old] == UNMAPPED {
                            remap[old] = out_dict.intern(dict.decode(old as u32));
                        }
                        remap[old]
                    })
                    .collect();
                Column::Str {
                    codes: out_codes,
                    dict: out_dict,
                }
            }
        }
    }

    /// The dictionary footprint [`Column::gather`] of `rows` would hold:
    /// each distinct string among them counted once, as
    /// [`Dictionary::heap_bytes`] counts it; `0` for an `Int` column.
    pub(crate) fn dictionary_bytes_at(&self, rows: &[u32]) -> u64 {
        match self {
            Column::Int(_) => 0,
            Column::Str { codes, dict } => {
                let mut seen = vec![false; dict.len()];
                let mut bytes = 0;
                for &r in rows {
                    let code = codes[r as usize];
                    if !std::mem::replace(&mut seen[code as usize], true) {
                        bytes += dict.entry_bytes(code);
                    }
                }
                bytes
            }
        }
    }

    /// Mutable integer data for in-place accumulator merges
    /// (crate-internal; see `Table::column_mut`).
    pub(crate) fn int_values_mut(&mut self) -> &mut Vec<i64> {
        match self {
            Column::Int(v) => v,
            Column::Str { .. } => panic!("int_values_mut on a string column"),
        }
    }

    /// Borrows the integer data. Errors on string columns.
    pub fn as_int(&self) -> Result<&[i64], EngineError> {
        match self {
            Column::Int(v) => Ok(v),
            Column::Str { .. } => Err(EngineError::TypeMismatch {
                column: String::new(),
                expected: "int",
                actual: "str",
            }),
        }
    }

    /// Borrows the codes and dictionary of a string column.
    pub fn as_str(&self) -> Result<(&[u32], &Dictionary), EngineError> {
        match self {
            Column::Str { codes, dict } => Ok((codes, dict)),
            Column::Int(_) => Err(EngineError::TypeMismatch {
                column: String::new(),
                expected: "str",
                actual: "int",
            }),
        }
    }

    /// Approximate heap footprint in bytes.
    pub(crate) fn heap_bytes(&self) -> u64 {
        match self {
            Column::Int(v) => 8 * v.len() as u64,
            Column::Str { codes, dict } => 4 * codes.len() as u64 + dict.heap_bytes(),
        }
    }
}

#[cfg(test)]
impl Column {
    /// Appends a string, interning it. Panics on an `Int` column. No
    /// non-test caller: the column unit tests and the reference executor
    /// (`reference_tests.rs`) build string columns with it.
    #[inline]
    pub(crate) fn push_str(&mut self, s: &str) {
        match self {
            Column::Str { codes, dict } => codes.push(dict.intern(s)),
            Column::Int(_) => panic!("push_str on an int column"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_roundtrip() {
        let mut c = Column::empty(DataType::Int);
        c.push_value(&Value::Int(2000)).unwrap();
        c.push_value(&Value::Int(1999)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value_at(0), Value::Int(2000));
        assert_eq!(c.as_int().unwrap(), &[2000, 1999]);
    }

    #[test]
    fn str_column_roundtrip() {
        let mut c = Column::empty(DataType::Str);
        c.push_str("France");
        c.push_str("Italy");
        c.push_str("France");
        assert_eq!(c.len(), 3);
        assert_eq!(c.value_at(2), Value::from("France"));
        let (codes, dict) = c.as_str().unwrap();
        // Repeated strings share a code.
        assert_eq!(codes[0], codes[2]);
        assert_ne!(codes[0], codes[1]);
        assert_eq!(codes.len(), 3);
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn gather_rebuilds_the_dictionary_in_first_appearance_order() {
        let mut c = Column::empty(DataType::Str);
        for s in ["a", "b", "c", "b", "d"] {
            c.push_str(s);
        }
        let picked = c.gather(&[3, 2, 1, 2]);
        let mut expected = Column::empty(DataType::Str);
        for s in ["b", "c", "b", "c"] {
            expected.push_str(s);
        }
        // Equal codes *and* an equal two-entry dictionary: "a" and "d" are gone.
        assert_eq!(picked, expected);
        assert_eq!(c.gather(&[]), Column::empty(DataType::Str));

        let ints = Column::Int(vec![10, 20, 30]);
        assert_eq!(ints.gather(&[2, 0, 2]), Column::Int(vec![30, 10, 30]));
    }

    #[test]
    fn type_mismatch_errors() {
        let mut c = Column::empty(DataType::Int);
        assert!(c.push_value(&Value::from("x")).is_err());
        assert!(c.as_str().is_err());
        let s = Column::empty(DataType::Str);
        assert!(s.as_int().is_err());
    }

    #[test]
    fn heap_accounting() {
        let c = Column::Int((0..10).collect());
        assert_eq!(c.heap_bytes(), 80);
        assert!(Column::empty(DataType::Str).heap_bytes() == 0);
    }
}
