//! Dimension hierarchies.
//!
//! A dimension is an ordered chain of levels from the apex (`ALL`, one
//! value) down to the finest granularity. Each level carries the *physical
//! key columns* that express it in the denormalized fact table — the
//! prefix-chain encoding used throughout the workspace: the paper's time
//! dimension is `ALL ⊃ year ⊃ (year,month) ⊃ (year,month,day)` and its
//! geography `ALL ⊃ country ⊃ (country,region) ⊃
//! (country,region,department)`.

use crate::LatticeError;

/// One level of a dimension hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Level {
    /// Level name (`"ALL"`, `"year"`, `"month"`, …).
    pub name: String,
    /// Physical key columns expressing this level; must extend the previous
    /// level's columns (prefix chain). Empty for the apex.
    pub columns: Vec<String>,
    /// Number of distinct values at this level (domain cardinality).
    pub cardinality: u64,
}

impl Level {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, columns: &[&str], cardinality: u64) -> Self {
        Level {
            name: name.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            cardinality,
        }
    }
}

/// An ordered hierarchy of levels, index 0 = apex (coarsest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dimension {
    /// Dimension name (`"time"`, `"geography"`, …).
    pub name: String,
    levels: Vec<Level>,
}

impl Dimension {
    /// Builds a dimension, validating:
    /// * at least two levels (apex + one real level);
    /// * level 0 is the apex: no columns, cardinality 1;
    /// * each level's columns strictly extend the previous level's
    ///   (prefix chain);
    /// * cardinalities are non-decreasing toward finer levels and ≥ 1.
    pub fn new(name: impl Into<String>, levels: Vec<Level>) -> Result<Self, LatticeError> {
        let name = name.into();
        if levels.len() < 2 {
            return Err(LatticeError::TooFewLevels { dimension: name });
        }
        if !levels[0].columns.is_empty() || levels[0].cardinality != 1 {
            return Err(LatticeError::BadApex { dimension: name });
        }
        for i in 1..levels.len() {
            let (prev, cur) = (&levels[i - 1], &levels[i]);
            if cur.columns.len() <= prev.columns.len()
                || cur.columns[..prev.columns.len()] != prev.columns[..]
            {
                return Err(LatticeError::BrokenPrefixChain {
                    dimension: name,
                    level: cur.name.clone(),
                });
            }
            if cur.cardinality < prev.cardinality || cur.cardinality == 0 {
                return Err(LatticeError::NonMonotonicCardinality {
                    dimension: name,
                    level: cur.name.clone(),
                });
            }
        }
        Ok(Dimension { name, levels })
    }

    /// An apex level named `"ALL"`.
    pub fn all_level() -> Level {
        Level::new("ALL", &[], 1)
    }

    /// The levels, apex first.
    pub(crate) fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Number of levels (including the apex).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The paper's time dimension over `years` calendar years:
    /// `ALL < year < month < day`.
    pub(crate) fn paper_time(years: u64) -> Dimension {
        Dimension::new(
            "time",
            vec![
                Dimension::all_level(),
                Level::new("year", &["year"], years),
                Level::new("month", &["year", "month"], years * 12),
                // ~365.25 days/year; the estimator only needs the order of
                // magnitude.
                Level::new("day", &["year", "month", "day"], years * 365),
            ],
        )
        .expect("paper time dimension is valid")
    }

    /// The paper's geography dimension:
    /// `ALL < country < region < department`, with the cardinalities of the
    /// generator's catalog (6 countries, 14 regions, 36 departments).
    pub(crate) fn paper_geography() -> Dimension {
        Dimension::new(
            "geography",
            vec![
                Dimension::all_level(),
                Level::new("country", &["country"], 6),
                Level::new("region", &["country", "region"], 14),
                Level::new("department", &["country", "region", "department"], 36),
            ],
        )
        .expect("paper geography dimension is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions_validate() {
        let time = Dimension::paper_time(11);
        assert_eq!(time.depth(), 4);
        assert_eq!(time.levels()[3].name, "day");
        assert_eq!(time.levels()[1].cardinality, 11);

        let geo = Dimension::paper_geography();
        assert_eq!(geo.depth(), 4);
        assert_eq!(geo.levels()[3].columns.len(), 3);
    }

    #[test]
    fn rejects_missing_apex() {
        let err = Dimension::new(
            "d",
            vec![
                Level::new("year", &["year"], 10),
                Level::new("month", &["year", "month"], 120),
            ],
        );
        assert!(matches!(err, Err(LatticeError::BadApex { .. })));
    }

    #[test]
    fn rejects_broken_prefix_chain() {
        let err = Dimension::new(
            "d",
            vec![
                Dimension::all_level(),
                Level::new("year", &["year"], 10),
                // "month" does not extend ["year"].
                Level::new("month", &["month"], 120),
            ],
        );
        assert!(matches!(err, Err(LatticeError::BrokenPrefixChain { .. })));
    }

    #[test]
    fn rejects_shrinking_cardinality() {
        let err = Dimension::new(
            "d",
            vec![
                Dimension::all_level(),
                Level::new("year", &["year"], 10),
                Level::new("month", &["year", "month"], 5),
            ],
        );
        assert!(matches!(
            err,
            Err(LatticeError::NonMonotonicCardinality { .. })
        ));
    }

    #[test]
    fn rejects_single_level() {
        let err = Dimension::new("d", vec![Dimension::all_level()]);
        assert!(matches!(err, Err(LatticeError::TooFewLevels { .. })));
    }
}
