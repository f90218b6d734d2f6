//! Work metering and the simulated-time model.
//!
//! The paper's processing times (0.2 h for Q1, 50 h for the workload, …)
//! were wall-clock measurements on a Hadoop cluster. This reproduction
//! executes queries on an in-memory engine instead, so times are *derived*:
//! every operator reports the work it performed ([`ExecStats`]) and a
//! [`ThroughputModel`] converts that work into simulated cluster-hours.
//! Two properties make the substitution sound for the cost models:
//!
//! 1. the paper's query class (full-scan roll-up aggregation) is scan-bound,
//!    so hours ∝ bytes scanned — which is exactly what the model computes;
//! 2. the conversion is deterministic, so experiments are reproducible on
//!    any machine, unlike wall-clock.
//!
//! [`SimScale`] maps in-memory engine bytes to "cloud" gigabytes: running
//! the 10-GB experiment on a 100-MB in-memory table uses `factor = 100`.

use mv_units::{Gb, Hours};

use crate::EngineError;

/// Work performed by one operator or query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows read from the input.
    pub rows_scanned: u64,
    /// Bytes read (per-column widths × rows, only referenced columns).
    pub bytes_scanned: u64,
    /// Rows produced.
    pub rows_out: u64,
    /// Bytes produced.
    pub bytes_out: u64,
    /// Distinct groups formed by aggregation.
    pub groups: u64,
}

/// Scale factor between engine bytes and simulated "cloud" bytes.
///
/// The paper's evaluation dataset is 10 GB; tests and experiments run the
/// engine on a few tens of megabytes and declare the factor that maps the
/// in-memory size to the simulated size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimScale {
    /// cloud bytes = engine bytes × `factor`.
    pub factor: f64,
}

impl SimScale {
    /// One-to-one scale (the engine size *is* the cloud size). Test seam:
    /// no non-test caller; the unit tests here meter at it.
    pub fn identity() -> Self {
        SimScale { factor: 1.0 }
    }

    /// Scale such that `engine_size` represents `cloud_size`.
    pub fn mapping(engine_size: Gb, cloud_size: Gb) -> Self {
        assert!(
            engine_size.value() > 0.0,
            "engine size must be positive to derive a scale"
        );
        SimScale {
            factor: cloud_size.value() / engine_size.value(),
        }
    }

    /// Converts an engine-side size to the simulated cloud size.
    pub fn to_cloud(&self, engine: Gb) -> Gb {
        engine * self.factor
    }

    /// Converts raw engine bytes to the simulated cloud size.
    pub fn bytes_to_cloud(&self, bytes: u64) -> Gb {
        self.to_cloud(Gb::from_bytes(bytes))
    }
}

/// Converts metered work into simulated cluster-hours.
///
/// `hours = job_overhead + cloud_gb_scanned / (scan_gb_per_hour_per_unit ×
/// compute_units)`. The per-job overhead models MapReduce startup latency,
/// which dominates tiny jobs on the paper's Hadoop 0.20 cluster; the scan
/// rate models the cluster's aggregate scan bandwidth per EC2 compute unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputModel {
    /// GB scanned per hour per compute unit.
    pub scan_gb_per_hour_per_unit: f64,
    /// Fixed per-job startup cost.
    pub job_overhead: Hours,
}

impl Default for ThroughputModel {
    /// Calibrated so the paper's running example is in range: a full scan of
    /// the 10 GB dataset on two small instances (2 compute units) takes
    /// `0.01 + 10/(25×2) = 0.21 h` — matching the paper's "Q1 processes in
    /// 0.2 hour".
    fn default() -> Self {
        ThroughputModel {
            scan_gb_per_hour_per_unit: 25.0,
            job_overhead: Hours::new(0.01),
        }
    }
}

impl ThroughputModel {
    /// A model with explicitly fitted parameters — the constructor the
    /// calibration loop uses once it has recovered the scan rate and job
    /// overhead from metered samples (`mvcloud::calibrate`).
    pub fn calibrated(scan_gb_per_hour_per_unit: f64, job_overhead: Hours) -> Self {
        ThroughputModel {
            scan_gb_per_hour_per_unit,
            job_overhead,
        }
    }

    /// Simulated duration of scanning `cloud_gb` on `compute_units` total
    /// capacity (instance units × instance count). Non-positive (or NaN)
    /// capacity is user input, not an invariant — it is a typed error.
    pub fn hours_for_scan(&self, cloud_gb: Gb, compute_units: f64) -> Result<Hours, EngineError> {
        if compute_units.is_nan() || compute_units <= 0.0 {
            return Err(EngineError::NonPositiveComputeUnits);
        }
        Ok(self.job_overhead
            + Hours::new(cloud_gb.value() / (self.scan_gb_per_hour_per_unit * compute_units)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_mapping() {
        let s = SimScale::mapping(Gb::new(0.1), Gb::new(10.0));
        assert_eq!(s.factor, 100.0);
        assert_eq!(s.to_cloud(Gb::new(0.05)).value(), 5.0);
        assert_eq!(SimScale::identity().to_cloud(Gb::new(3.0)).value(), 3.0);
    }

    #[test]
    fn default_model_matches_paper_q1() {
        // Full scan of 10 GB on two small instances ≈ 0.2 h.
        let m = ThroughputModel::default();
        let t = m.hours_for_scan(Gb::new(10.0), 2.0).unwrap();
        assert!((t.value() - 0.21).abs() < 1e-9, "got {t:?}");
    }

    #[test]
    fn hours_scale_with_units_and_bytes() {
        let m = ThroughputModel::calibrated(10.0, Hours::ZERO);
        let hours = |units: f64, scale: SimScale| {
            let scanned = scale.bytes_to_cloud(10 << 30);
            m.hours_for_scan(scanned, units).unwrap().value()
        };
        assert_eq!(hours(1.0, SimScale::identity()), 1.0);
        assert_eq!(hours(2.0, SimScale::identity()), 0.5);
        assert_eq!(hours(1.0, SimScale { factor: 2.0 }), 2.0);
    }

    #[test]
    fn non_positive_units_are_a_typed_error() {
        // User-reachable input (instance counts, custom catalogs) must
        // surface as an error, never a panic.
        let m = ThroughputModel::default();
        for bad in [0.0, -1.0, f64::NAN] {
            assert_eq!(
                m.hours_for_scan(Gb::new(1.0), bad),
                Err(EngineError::NonPositiveComputeUnits),
                "units = {bad}"
            );
        }
    }
}
