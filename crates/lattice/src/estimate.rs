//! Cuboid size estimation.
//!
//! View sizes drive both sides of the paper's trade-off: the storage cost
//! `Cs` (bigger views cost more per month) and the processing time `t_iV`
//! (bigger views scan slower). When the engine has not materialized a
//! cuboid yet, its row count is estimated with Cardenas' formula — the
//! expected number of occupied cells when `n` rows fall uniformly into `v`
//! key-domain cells:
//!
//! ```text
//! E[groups] = v · (1 − (1 − 1/v)^n)
//! ```
//!
//! which is ≤ min(n, v), asymptotically tight at both ends, and the
//! standard estimator in the view-selection literature.

use mv_units::Gb;

use crate::{Cuboid, Lattice};

/// Cardenas' expected-distinct-cells formula.
///
/// Computed in log-space to stay accurate when `v` is huge and `n/v` tiny.
pub fn cardenas(n: u64, v: u64) -> f64 {
    if n == 0 || v == 0 {
        return 0.0;
    }
    let v = v as f64;
    let n = n as f64;
    // (1 − 1/v)^n = exp(n · ln(1 − 1/v)); ln_1p/exp_m1 keep the result
    // accurate when 1/v or the whole exponent is tiny.
    let log_term = n * (-1.0 / v).ln_1p();
    -(v * log_term.exp_m1())
}

/// Size estimator for every cuboid of a lattice.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeEstimator {
    /// Fact-table row count.
    pub base_rows: u64,
    /// Bytes per key column (dictionary code / integer width average).
    pub key_bytes_per_column: u64,
    /// Bytes of stored measures per row (sum/count/min/max partials).
    pub measure_bytes: u64,
}

impl SizeEstimator {
    /// Estimator with the workspace's column widths: 8-byte integers /
    /// 4-byte codes average to ~6, and the canonical measure set
    /// (sum + count) is 16 bytes.
    pub fn new(base_rows: u64) -> Self {
        SizeEstimator {
            base_rows,
            key_bytes_per_column: 6,
            measure_bytes: 16,
        }
    }

    /// Expected row count of `cuboid` (Cardenas over its key domain).
    pub fn expected_rows(&self, lattice: &Lattice, cuboid: &Cuboid) -> f64 {
        let domain = lattice.domain_size(cuboid);
        cardenas(self.base_rows, domain)
    }

    /// Expected stored bytes of `cuboid`.
    pub fn expected_bytes(&self, lattice: &Lattice, cuboid: &Cuboid) -> f64 {
        let width = (lattice.key_columns(cuboid).len() as u64 * self.key_bytes_per_column
            + self.measure_bytes) as f64;
        self.expected_rows(lattice, cuboid) * width
    }

    /// Expected stored size of `cuboid` as [`Gb`].
    pub fn expected_gb(&self, lattice: &Lattice, cuboid: &Cuboid) -> Gb {
        Gb::new(self.expected_bytes(lattice, cuboid) / (1u64 << 30) as f64)
    }

    /// The fraction of the base table a scan of this cuboid reads —
    /// the quantity the throughput model turns into `t_iV`.
    pub fn scan_fraction(&self, lattice: &Lattice, cuboid: &Cuboid) -> f64 {
        if self.base_rows == 0 {
            return 0.0;
        }
        (self.expected_rows(lattice, cuboid) / self.base_rows as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardenas_bounds() {
        // Never exceeds n or v.
        for (n, v) in [(10u64, 100u64), (100, 10), (1000, 1000), (1, 1)] {
            let e = cardenas(n, v);
            assert!(e <= n as f64 + 1e-9, "n={n} v={v} e={e}");
            assert!(e <= v as f64 + 1e-9, "n={n} v={v} e={e}");
            assert!(e > 0.0);
        }
        assert_eq!(cardenas(0, 100), 0.0);
        assert_eq!(cardenas(100, 0), 0.0);
    }

    #[test]
    fn cardenas_asymptotics() {
        // n << v: nearly every row lands in its own cell.
        let e = cardenas(100, 1_000_000_000);
        assert!((e - 100.0).abs() < 0.01, "e={e}");
        // n >> v: nearly every cell is occupied.
        let e = cardenas(1_000_000, 100);
        assert!((e - 100.0).abs() < 1e-6, "e={e}");
        // Monotone in n.
        assert!(cardenas(2_000, 500) >= cardenas(1_000, 500));
    }

    #[test]
    fn coarser_cuboids_are_smaller() {
        let l = Lattice::paper_running_example();
        let est = SizeEstimator::new(1_000_000);
        let base = est.expected_rows(&l, &l.base());
        let apex = est.expected_rows(&l, &l.apex());
        assert!(base > apex);
        assert!((apex - 1.0).abs() < 1e-9);
        // Covering cuboids have no fewer expected rows.
        let cs = l.all_cuboids();
        for a in &cs {
            for b in &cs {
                if a.covers(b) {
                    assert!(
                        est.expected_rows(&l, a) >= est.expected_rows(&l, b) - 1e-6,
                        "{} < {}",
                        l.label(a),
                        l.label(b)
                    );
                }
            }
        }
    }

    #[test]
    fn sizes_and_fractions() {
        let l = Lattice::paper_running_example();
        let est = SizeEstimator::new(1_000_000);
        let gb = est.expected_gb(&l, &l.base());
        assert!(gb.value() > 0.0);
        let f = est.scan_fraction(&l, &l.apex());
        assert!(f > 0.0 && f < 1e-3);
        assert!(est.scan_fraction(&l, &l.base()) <= 1.0);
        let empty = SizeEstimator::new(0);
        assert_eq!(empty.scan_fraction(&l, &l.base()), 0.0);
    }
}
