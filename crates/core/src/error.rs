//! Advisor error type.

use std::fmt;

use mv_engine::EngineError;
use mv_lattice::LatticeError;
use mv_pricing::PricingError;

/// Errors raised while building or running the advisor pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdvisorError {
    /// Engine-side failure (query planning, materialization, refresh).
    Engine(EngineError),
    /// Lattice-side failure (bad cuboid, unmappable workload).
    Lattice(LatticeError),
    /// Pricing-side failure (invoicing, catalog lookups).
    Pricing(PricingError),
    /// A commitment plan targets a different instance type than the
    /// advisor rents.
    CommitmentMismatch {
        /// The plan's name.
        plan: String,
        /// The instance type the plan reserves.
        plan_instance: String,
        /// The instance type the advisor is configured with.
        advisor_instance: String,
    },
    /// The configured instance name is not in the pricing catalog.
    UnknownInstance {
        /// Requested configuration name.
        name: String,
    },
    /// The domain's measure column is missing from the base table.
    MissingMeasure {
        /// The measure column name.
        column: String,
    },
    /// The configuration requests zero queries or an empty workload.
    EmptyWorkload,
    /// A horizon was configured with zero epochs.
    EmptyHorizon,
    /// A market solve was configured with zero sampled price paths.
    NoMarketPaths,
    /// The domain's base table has no rows — nothing to meter or scale.
    EmptyDataset,
    /// The rented configuration resolves to zero (or negative) compute
    /// units, so metered work cannot be converted to hours.
    InvalidComputeUnits {
        /// The instance configuration name.
        instance: String,
    },
    /// A metric fed to summary statistics was NaN or infinite.
    NonFiniteMetric {
        /// Which metric misbehaved.
        metric: String,
    },
    /// Calibration could not fit the throughput law (too few metered
    /// samples, or no spread in the metered work).
    CalibrationUnderdetermined,
    /// A candidate-catalog spill or reload failed at the filesystem
    /// level (the `io::Error` is carried as its display string so this
    /// enum stays `Eq`).
    CatalogIo {
        /// The catalog path involved.
        path: String,
        /// The underlying I/O failure.
        message: String,
    },
    /// A candidate-catalog file exists but does not parse back into a
    /// catalog (truncated non-atomic write, wrong schema version, or
    /// hand-edited damage).
    CatalogCorrupt {
        /// The catalog path involved.
        path: String,
        /// What failed to decode.
        message: String,
    },
    /// A catalog handed to the service directly does not describe one
    /// selection problem: its counts, or a candidate's answer profile,
    /// do not align with its workload (a decoded file with the same
    /// fault is [`AdvisorError::CatalogCorrupt`]).
    CatalogMisaligned {
        /// What does not align.
        message: String,
    },
    /// A stream event names a query that is not in the catalog's
    /// workload.
    UnknownQuery {
        /// The event's query name.
        name: String,
    },
}

impl fmt::Display for AdvisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdvisorError::Engine(e) => write!(f, "engine error: {e}"),
            AdvisorError::Lattice(e) => write!(f, "lattice error: {e}"),
            AdvisorError::Pricing(e) => write!(f, "pricing error: {e}"),
            AdvisorError::CommitmentMismatch {
                plan,
                plan_instance,
                advisor_instance,
            } => write!(
                f,
                "commitment plan {plan:?} reserves {plan_instance:?} but the advisor rents {advisor_instance:?}"
            ),
            AdvisorError::UnknownInstance { name } => {
                write!(f, "instance {name:?} is not in the pricing catalog")
            }
            AdvisorError::MissingMeasure { column } => {
                write!(f, "measure column {column:?} is not in the base table")
            }
            AdvisorError::EmptyWorkload => write!(f, "the workload has no queries"),
            AdvisorError::EmptyHorizon => write!(f, "the horizon has no epochs"),
            AdvisorError::NoMarketPaths => {
                write!(f, "a market solve needs at least one sampled price path")
            }
            AdvisorError::EmptyDataset => {
                write!(f, "the base dataset has no rows (need --rows >= 1)")
            }
            AdvisorError::InvalidComputeUnits { instance } => write!(
                f,
                "instance configuration {instance:?} yields zero compute units (need at least one instance)"
            ),
            AdvisorError::NonFiniteMetric { metric } => {
                write!(f, "metric {metric:?} is NaN or infinite")
            }
            AdvisorError::CalibrationUnderdetermined => write!(
                f,
                "calibration could not fit the throughput law: too few metered samples or no spread in metered work"
            ),
            AdvisorError::CatalogIo { path, message } => {
                write!(f, "catalog {path:?}: {message}")
            }
            AdvisorError::CatalogCorrupt { path, message } => {
                write!(f, "catalog {path:?} is corrupt: {message}")
            }
            AdvisorError::CatalogMisaligned { message } => {
                write!(f, "catalog does not align with its workload: {message}")
            }
            AdvisorError::UnknownQuery { name } => {
                write!(f, "query {name:?} is not in the catalog workload")
            }
        }
    }
}

impl std::error::Error for AdvisorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdvisorError::Engine(e) => Some(e),
            AdvisorError::Lattice(e) => Some(e),
            AdvisorError::Pricing(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for AdvisorError {
    fn from(e: EngineError) -> Self {
        AdvisorError::Engine(e)
    }
}

impl From<LatticeError> for AdvisorError {
    fn from(e: LatticeError) -> Self {
        AdvisorError::Lattice(e)
    }
}

impl From<PricingError> for AdvisorError {
    fn from(e: PricingError) -> Self {
        AdvisorError::Pricing(e)
    }
}
