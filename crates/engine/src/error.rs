//! Engine error type.

use std::fmt;

/// Errors raised by table construction, query planning and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A referenced column does not exist in the input schema.
    UnknownColumn {
        /// The missing column name.
        name: String,
    },
    /// A column was used with an incompatible type.
    TypeMismatch {
        /// The column name.
        column: String,
        /// What the operation expected.
        expected: &'static str,
        /// What the column actually is.
        actual: &'static str,
    },
    /// Column lengths disagree while building a table.
    LengthMismatch {
        /// Expected row count.
        expected: usize,
        /// Offending column's row count.
        actual: usize,
    },
    /// A table was built with duplicate column names.
    DuplicateColumn {
        /// The duplicated name.
        name: String,
    },
    /// A query listed the same column twice in its group-by key.
    DuplicateGroupColumn {
        /// The duplicated name.
        name: String,
    },
    /// The requested view cannot answer the query.
    ViewCannotAnswer {
        /// Human-readable reason.
        reason: String,
    },
    /// A named view already exists in the catalog.
    ViewExists {
        /// The duplicated view name.
        name: String,
    },
    /// A named view does not exist in the catalog.
    ViewNotFound {
        /// The missing view name.
        name: String,
    },
    /// A query must request at least one aggregate.
    NoAggregates,
    /// The maintenance delta's schema differs from the base table's.
    SchemaMismatch,
    /// A throughput conversion was asked to divide work across zero (or
    /// negative, or NaN) compute units — reachable from user-supplied
    /// instance counts, so it is an error, not an invariant.
    NonPositiveComputeUnits,
    /// An aggregate's result does not fit in the engine's 64-bit integers
    /// (a `SUM` over values near `i64::MAX`, or a refresh pushing a stored
    /// `SUM`/`COUNT` past it).
    AggregateOverflow {
        /// Output column of the overflowing aggregate.
        aggregate: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownColumn { name } => write!(f, "unknown column {name:?}"),
            EngineError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "column {column:?} has type {actual} but {expected} was required"
            ),
            EngineError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "column length {actual} does not match table length {expected}"
                )
            }
            EngineError::DuplicateColumn { name } => {
                write!(f, "duplicate column name {name:?}")
            }
            EngineError::DuplicateGroupColumn { name } => {
                write!(f, "column {name:?} appears twice in the group-by key")
            }
            EngineError::ViewCannotAnswer { reason } => {
                write!(f, "view cannot answer the query: {reason}")
            }
            EngineError::ViewExists { name } => write!(f, "view {name:?} already exists"),
            EngineError::ViewNotFound { name } => write!(f, "view {name:?} not found"),
            EngineError::NoAggregates => write!(f, "query must request at least one aggregate"),
            EngineError::SchemaMismatch => {
                write!(f, "delta schema does not match the base table schema")
            }
            EngineError::NonPositiveComputeUnits => {
                write!(f, "compute units must be positive")
            }
            EngineError::AggregateOverflow { aggregate } => {
                write!(f, "aggregate {aggregate:?} overflows a 64-bit integer")
            }
        }
    }
}

impl std::error::Error for EngineError {}
