//! Error type for pricing-model construction and lookups.

use std::fmt;

/// Errors raised while building or querying pricing components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PricingError {
    /// A tier schedule was built with no tiers.
    EmptySchedule,
    /// Tier thresholds must be strictly increasing.
    NonMonotonicTiers {
        /// Index of the offending tier.
        index: usize,
    },
    /// Only the last tier of a schedule may be unbounded.
    UnboundedInnerTier {
        /// Index of the offending tier.
        index: usize,
    },
    /// The final tier must be unbounded so every volume has a price.
    BoundedFinalTier,
    /// A negative rate was supplied.
    NegativeRate {
        /// Index of the offending tier.
        index: usize,
    },
    /// Lookup of an unknown instance configuration.
    UnknownInstance {
        /// The requested configuration name.
        name: String,
    },
    /// An instance catalog was built with duplicate names.
    DuplicateInstance {
        /// The duplicated configuration name.
        name: String,
    },
    /// A fleet plan carries a non-positive or non-finite rate factor.
    InvalidRate {
        /// Which factor was rejected.
        what: String,
    },
    /// A storage timeline event was recorded out of chronological order.
    OutOfOrderEvent,
}

impl fmt::Display for PricingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PricingError::EmptySchedule => {
                write!(f, "tier schedule must contain at least one tier")
            }
            PricingError::NonMonotonicTiers { index } => {
                write!(f, "tier {index} does not increase the volume threshold")
            }
            PricingError::UnboundedInnerTier { index } => {
                write!(f, "tier {index} is unbounded but is not the last tier")
            }
            PricingError::BoundedFinalTier => {
                write!(f, "the last tier must be unbounded (no upper threshold)")
            }
            PricingError::NegativeRate { index } => {
                write!(f, "tier {index} has a negative rate")
            }
            PricingError::UnknownInstance { name } => {
                write!(f, "unknown instance configuration {name:?}")
            }
            PricingError::DuplicateInstance { name } => {
                write!(f, "duplicate instance configuration {name:?}")
            }
            PricingError::InvalidRate { what } => {
                write!(f, "invalid rate factor: {what}")
            }
            PricingError::OutOfOrderEvent => {
                write!(
                    f,
                    "storage timeline events must be recorded in chronological order"
                )
            }
        }
    }
}

impl std::error::Error for PricingError {}
