//! Itemized cost results.

use std::fmt;

use mv_units::Money;

/// The paper's Formula 1 decomposition, with compute further split into the
/// three Section-4 components (Formula 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostBreakdown {
    /// `Ct` — outbound transfer of query results.
    pub transfer: Money,
    /// `CprocessingQ` — running the workload.
    pub compute_processing: Money,
    /// `CmaintenanceV` — refreshing the selected views (0 without views).
    pub compute_maintenance: Money,
    /// `CmaterializationV` — building the selected views (0 without views).
    pub compute_materialization: Money,
    /// `Cs` — storing the dataset, inserted data and selected views.
    pub storage: Money,
}

impl CostBreakdown {
    /// `Cc` — total compute (Formula 6).
    pub fn compute(&self) -> Money {
        self.compute_processing + self.compute_maintenance + self.compute_materialization
    }

    /// `C = Cc + Cs + Ct` (Formula 1).
    pub fn total(&self) -> Money {
        self.compute() + self.storage + self.transfer
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ct (transfer)           {:>12}",
            self.transfer.to_string()
        )?;
        writeln!(
            f,
            "Cc (processing)         {:>12}",
            self.compute_processing.to_string()
        )?;
        writeln!(
            f,
            "Cc (maintenance)        {:>12}",
            self.compute_maintenance.to_string()
        )?;
        writeln!(
            f,
            "Cc (materialization)    {:>12}",
            self.compute_materialization.to_string()
        )?;
        writeln!(
            f,
            "Cs (storage)            {:>12}",
            self.storage.to_string()
        )?;
        write!(
            f,
            "C  (total)              {:>12}",
            self.total().to_string()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let b = CostBreakdown {
            transfer: Money::from_dollars_str("1.08").unwrap(),
            compute_processing: Money::from_dollars_str("9.6").unwrap(),
            compute_maintenance: Money::from_dollars_str("1.2").unwrap(),
            compute_materialization: Money::from_dollars_str("0.24").unwrap(),
            storage: Money::from_dollars(924),
        };
        assert_eq!(b.compute(), Money::from_dollars_str("11.04").unwrap());
        assert_eq!(b.total(), Money::from_dollars_str("936.12").unwrap());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(CostBreakdown::default().total(), Money::ZERO);
    }

    #[test]
    fn renders_all_components() {
        let b = CostBreakdown::default();
        let s = b.to_string();
        for needle in [
            "Ct",
            "processing",
            "maintenance",
            "materialization",
            "Cs",
            "total",
        ] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }
}
