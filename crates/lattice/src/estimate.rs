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
}

impl SizeEstimator {
    /// Estimator over a fact table of `base_rows` rows.
    pub fn new(base_rows: u64) -> Self {
        SizeEstimator { base_rows }
    }

    /// Expected row count of `cuboid` (Cardenas over its key domain).
    pub fn expected_rows(&self, lattice: &Lattice, cuboid: &Cuboid) -> f64 {
        let domain = lattice.domain_size(cuboid);
        cardenas(self.base_rows, domain)
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
        // The apex is a vanishing fraction of the base rows, the base at
        // most all of them.
        let fraction = |c: &Cuboid| est.expected_rows(&l, c) / 1_000_000.0;
        assert!(fraction(&l.apex()) > 0.0 && fraction(&l.apex()) < 1e-3);
        assert!(fraction(&l.base()) <= 1.0);
        let empty = SizeEstimator::new(0);
        assert_eq!(empty.expected_rows(&l, &l.base()), 0.0);
    }
}
