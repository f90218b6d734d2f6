//! Fitting cost-model parameters from metered engine work.
//!
//! The paper's Table 5 parameters (per-query processing times, view
//! materialization and maintenance times) are *inputs* to its formulas;
//! this module recovers them from measurements. The engine meters every
//! scan, build and refresh as cloud gigabytes of work ([`MeterSample`]);
//! a [`LinearFit`] per work kind regresses wall-clock hours on gigabytes
//! (ordinary least squares), recovering the affine throughput law
//! `hours = overhead + gb / (rate × units)` the simulated cluster obeys.
//! The resulting [`CalibratedParams`] mint [`QueryCharge`]s and
//! [`ViewCharge`]s in the same vocabulary the rest of the cost crate
//! consumes, so a calibrated advisor is a drop-in replacement for one
//! configured with synthetic defaults.

use mv_units::{Gb, Hours};

use crate::{AnswerProfile, QueryCharge, ViewCharge};

/// The kind of engine work a metered sample records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkKind {
    /// Answering a query (base-table or view scan).
    Scan,
    /// Building a materialized view from the base table.
    Materialize,
    /// Incrementally refreshing a standing view with an insert batch.
    Refresh,
}

/// One metered observation: a job of `kind` touched `cloud_gb` of data
/// and took `hours` of cluster time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeterSample {
    /// What kind of work ran.
    pub kind: WorkKind,
    /// Cloud-scale gigabytes the job touched.
    pub cloud_gb: Gb,
    /// Observed cluster-hours.
    pub hours: Hours,
}

impl MeterSample {
    /// A sample of `kind` work.
    pub fn new(kind: WorkKind, cloud_gb: Gb, hours: Hours) -> Self {
        MeterSample {
            kind,
            cloud_gb,
            hours,
        }
    }
}

/// An affine throughput law `hours = intercept + slope × gb`, fitted by
/// ordinary least squares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fixed per-job overhead in hours (clamped to ≥ 0).
    pub intercept: f64,
    /// Marginal hours per cloud gigabyte (clamped to > 0).
    pub slope: f64,
}

/// Slope floor: even a degenerate fit must charge *something* per byte,
/// or downstream per-GB rates divide by zero.
const MIN_SLOPE: f64 = 1e-12;

impl LinearFit {
    /// Ordinary least squares over `(gb, hours)` points. Returns `None`
    /// when the regression is under-determined: fewer than two points,
    /// non-finite coordinates, or zero variance in `gb`.
    pub(crate) fn least_squares(points: &[(f64, f64)]) -> Option<LinearFit> {
        if points.len() < 2 || points.iter().any(|(x, y)| !x.is_finite() || !y.is_finite()) {
            return None;
        }
        let n = points.len() as f64;
        let mean_x = points.iter().map(|(x, _)| x).sum::<f64>() / n;
        let mean_y = points.iter().map(|(_, y)| y).sum::<f64>() / n;
        let sxx: f64 = points.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
        if sxx <= f64::EPSILON * n * mean_x.abs().max(1.0) {
            return None;
        }
        let sxy: f64 = points
            .iter()
            .map(|(x, y)| (x - mean_x) * (y - mean_y))
            .sum();
        let slope = (sxy / sxx).max(MIN_SLOPE);
        let intercept = (mean_y - slope * mean_x).max(0.0);
        Some(LinearFit { intercept, slope })
    }

    /// Predicted hours for a job touching `gb` gigabytes.
    pub(crate) fn hours(&self, gb: Gb) -> Hours {
        Hours::new(self.intercept + self.slope * gb.value())
    }
}

/// Fitted cost-model parameters: one throughput law per work kind, plus
/// the compute-unit pool the measurements ran on (needed to express the
/// scan law as the engine's per-unit rate).
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedParams {
    /// Query/scan throughput law.
    pub scan: LinearFit,
    /// View-build throughput law.
    pub materialize: LinearFit,
    /// Incremental-refresh throughput law.
    pub refresh: LinearFit,
    /// Total compute units the metered jobs ran on.
    pub compute_units: f64,
}

impl CalibratedParams {
    /// Fits one law per work kind from `samples`. Kinds with too few
    /// samples (or degenerate spreads) inherit the scan law — scans
    /// dominate any real meter stream, so the scan fit is the anchor.
    /// Returns `None` when even the scan law is under-determined or
    /// `compute_units` is not positive.
    pub fn fit(samples: &[MeterSample], compute_units: f64) -> Option<CalibratedParams> {
        if compute_units.is_nan() || compute_units <= 0.0 {
            return None;
        }
        let points = |kind: WorkKind| -> Vec<(f64, f64)> {
            samples
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| (s.cloud_gb.value(), s.hours.value()))
                .collect()
        };
        let scan = LinearFit::least_squares(&points(WorkKind::Scan))?;
        let materialize = LinearFit::least_squares(&points(WorkKind::Materialize)).unwrap_or(scan);
        let refresh = LinearFit::least_squares(&points(WorkKind::Refresh)).unwrap_or(scan);
        Some(CalibratedParams {
            scan,
            materialize,
            refresh,
            compute_units,
        })
    }

    /// A synthetic prior in the same vocabulary: every work kind obeys
    /// `hours = overhead + gb / (rate × units)`. This is what an advisor
    /// assumes *before* calibration — the baseline a fit must beat.
    pub fn from_throughput(
        scan_gb_per_hour_per_unit: f64,
        job_overhead: Hours,
        compute_units: f64,
    ) -> CalibratedParams {
        let law = LinearFit {
            intercept: job_overhead.value().max(0.0),
            slope: (1.0 / (scan_gb_per_hour_per_unit * compute_units)).max(MIN_SLOPE),
        };
        CalibratedParams {
            scan: law,
            materialize: law,
            refresh: law,
            compute_units,
        }
    }

    /// The fitted scan law expressed as the engine's throughput vocabulary:
    /// gigabytes per hour per compute unit.
    pub fn scan_gb_per_hour_per_unit(&self) -> f64 {
        1.0 / (self.scan.slope * self.compute_units)
    }

    /// The fitted per-job overhead of the scan law.
    pub fn job_overhead(&self) -> Hours {
        Hours::new(self.scan.intercept)
    }

    /// Predicted hours for `gb` of work of `kind`.
    pub fn hours_for(&self, kind: WorkKind, gb: Gb) -> Hours {
        match kind {
            WorkKind::Scan => self.scan.hours(gb),
            WorkKind::Materialize => self.materialize.hours(gb),
            WorkKind::Refresh => self.refresh.hours(gb),
        }
    }

    /// Mints a workload query charge from metered sizes: the query scans
    /// `scanned` gigabytes on the base dataset and ships `result_size`
    /// out, `frequency` times per period.
    pub fn query_charge(
        &self,
        name: impl Into<String>,
        result_size: Gb,
        scanned: Gb,
        frequency: f64,
    ) -> QueryCharge {
        QueryCharge {
            name: name.into(),
            result_size,
            base_time: self.hours_for(WorkKind::Scan, scanned),
            frequency,
        }
    }

    /// Mints a view charge from metered sizes: the view stores `size`
    /// gigabytes, its build scans `build_scanned`, and each refresh
    /// touches `refresh_scanned`. The answer profile starts empty
    /// (`workload_len` queries); fill it with [`ViewCharge::answers`]
    /// using [`CalibratedParams::hours_for`] on each answered query's
    /// view-scan size.
    pub fn view_charge(
        &self,
        name: impl Into<String>,
        size: Gb,
        build_scanned: Gb,
        refresh_scanned: Gb,
        workload_len: usize,
    ) -> ViewCharge {
        ViewCharge {
            name: name.into(),
            size,
            materialization: self.hours_for(WorkKind::Materialize, build_scanned),
            maintenance: self.hours_for(WorkKind::Refresh, refresh_scanned),
            profile: AnswerProfile::none(workload_len),
            placement: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_squares_recovers_exact_affine_law() {
        // hours = 0.01 + gb / 50  (25 GB/h/unit on 2 units).
        let pts: Vec<(f64, f64)> = [1.0, 4.0, 10.0, 40.0]
            .iter()
            .map(|&gb| (gb, 0.01 + gb / 50.0))
            .collect();
        let fit = LinearFit::least_squares(&pts).unwrap();
        assert!((fit.intercept - 0.01).abs() < 1e-12);
        assert!((fit.slope - 0.02).abs() < 1e-12);
        assert!((fit.hours(Gb::new(100.0)).value() - 2.01).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_refuse_to_fit() {
        assert!(LinearFit::least_squares(&[]).is_none());
        assert!(LinearFit::least_squares(&[(1.0, 1.0)]).is_none());
        // Zero variance in gb.
        assert!(LinearFit::least_squares(&[(2.0, 1.0), (2.0, 3.0)]).is_none());
        // Non-finite coordinates.
        assert!(LinearFit::least_squares(&[(1.0, f64::NAN), (2.0, 1.0)]).is_none());
        assert!(CalibratedParams::fit(&[], 2.0).is_none());
        let s = MeterSample::new(WorkKind::Scan, Gb::new(1.0), Hours::new(1.0));
        assert!(CalibratedParams::fit(&[s, s], 0.0).is_none());
    }

    #[test]
    fn fit_partitions_by_kind_with_scan_fallback() {
        let mut samples = vec![];
        for &gb in &[1.0, 5.0, 20.0] {
            samples.push(MeterSample::new(
                WorkKind::Scan,
                Gb::new(gb),
                Hours::new(0.01 + gb / 50.0),
            ));
            // Builds run at half the scan throughput.
            samples.push(MeterSample::new(
                WorkKind::Materialize,
                Gb::new(gb),
                Hours::new(0.01 + gb / 25.0),
            ));
        }
        let params = CalibratedParams::fit(&samples, 2.0).unwrap();
        assert!((params.scan_gb_per_hour_per_unit() - 25.0).abs() < 1e-6);
        assert!((params.job_overhead().value() - 0.01).abs() < 1e-9);
        assert!((params.materialize.slope - 0.04).abs() < 1e-9);
        // No refresh samples: inherits the scan law.
        assert_eq!(params.refresh, params.scan);
        let q = params.query_charge("Q1", Gb::new(0.1), Gb::new(100.0), 2.0);
        assert!((q.base_time.value() - 2.01).abs() < 1e-9);
        assert_eq!(q.frequency, 2.0);
        let v = params.view_charge("V1", Gb::new(5.0), Gb::new(100.0), Gb::new(1.0), 3);
        assert!((v.materialization.value() - 4.01).abs() < 1e-9);
        assert_eq!(v.profile.workload_len(), 3);
    }

    #[test]
    fn synthetic_prior_matches_throughput_vocabulary() {
        let prior = CalibratedParams::from_throughput(25.0, Hours::new(0.01), 2.0);
        assert!((prior.scan_gb_per_hour_per_unit() - 25.0).abs() < 1e-9);
        // Q1 anchor: 10 GB on 2 small units ≈ 0.21 h.
        let h = prior.hours_for(WorkKind::Scan, Gb::new(10.0));
        assert!((h.value() - 0.21).abs() < 1e-9);
    }
}
