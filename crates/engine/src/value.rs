//! Boundary value type for row-wise access and literals.

use std::fmt;

/// A single cell value, used at API boundaries (literals in predicates,
/// row extraction in tests and reports). Bulk execution never materializes
/// `Value`s — it stays columnar.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit integer (also carries dates as `yyyymmdd` and money as cents).
    Int(i64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Short type name for error messages.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Str(_) => "str",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        // Payloads are read by pattern; each conversion lands in its variant.
        assert!(matches!(Value::from(5), Value::Int(5)));
        assert!(matches!(Value::from("x"), Value::Str(s) if s == "x"));
        assert!(matches!(Value::from(String::from("x")), Value::Str(s) if s == "x"));
    }

    #[test]
    fn display_and_names() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::from("France").to_string(), "France");
        assert_eq!(Value::Int(0).type_name(), "int");
        assert_eq!(Value::from("a").type_name(), "str");
    }

    #[test]
    fn ordering_is_total_within_variant() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::from("a") < Value::from("b"));
    }
}
