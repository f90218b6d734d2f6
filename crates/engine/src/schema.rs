//! Table schemas.

use crate::EngineError;

/// Logical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer. Dates are integers in `yyyymmdd` form and
    /// monetary measures are integer cents; both conventions keep the
    /// arithmetic exact.
    Int,
    /// Dictionary-encoded UTF-8 string.
    Str,
}

impl DataType {
    /// Short name for error messages.
    pub(crate) fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Str => "str",
        }
    }

    /// Bytes scanned per row for work metering (integers are 8 bytes,
    /// dictionary codes 4).
    pub(crate) fn byte_width(self) -> u64 {
        match self {
            DataType::Int => 8,
            DataType::Str => 4,
        }
    }
}

/// A named, typed column slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, unique within a schema.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered list of fields with unique names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Builds a schema, rejecting duplicate column names.
    pub fn new(fields: Vec<Field>) -> Result<Self, EngineError> {
        for (i, a) in fields.iter().enumerate() {
            for b in &fields[i + 1..] {
                if a.name == b.name {
                    return Err(EngineError::DuplicateColumn {
                        name: a.name.clone(),
                    });
                }
            }
        }
        Ok(Schema { fields })
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub(crate) fn len(&self) -> usize {
        self.fields.len()
    }

    /// Index of the column called `name`.
    pub fn index_of(&self, name: &str) -> Result<usize, EngineError> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| EngineError::UnknownColumn {
                name: name.to_string(),
            })
    }

    /// The field called `name`.
    pub(crate) fn field(&self, name: &str) -> Result<&Field, EngineError> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Sum of per-row byte widths, for work metering.
    pub fn row_byte_width(&self) -> u64 {
        self.fields.iter().map(|f| f.dtype.byte_width()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales_schema() -> Schema {
        Schema::new(vec![
            Field::new("year", DataType::Int),
            Field::new("country", DataType::Str),
            Field::new("profit", DataType::Int),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_by_name() {
        let s = sales_schema();
        assert_eq!(s.index_of("country").unwrap(), 1);
        assert_eq!(s.field("profit").unwrap().dtype, DataType::Int);
        assert!(matches!(
            s.index_of("nope"),
            Err(EngineError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn duplicates_rejected() {
        let err = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Str),
        ]);
        assert!(matches!(err, Err(EngineError::DuplicateColumn { .. })));
    }

    #[test]
    fn byte_widths() {
        assert_eq!(sales_schema().row_byte_width(), 8 + 4 + 8);
        assert_eq!(DataType::Int.byte_width(), 8);
        assert_eq!(DataType::Str.byte_width(), 4);
    }

    #[test]
    fn empty_schema() {
        let s = Schema::new(vec![]).unwrap();
        assert_eq!(s.len(), 0);
        assert_eq!(s.row_byte_width(), 0);
    }
}
