//! The engine↔advisor calibration loop.
//!
//! Everything upstream of this module *predicts*: the advisor meters the
//! workload once, the cost models turn parameters into bills, the chain
//! solvers pick plans. This module closes the loop — it **runs** the
//! chosen plan through the engine and reconciles what the meter records
//! against what the models promised:
//!
//! 1. replay a multi-epoch query stream through
//!    [`mv_engine::ReplayDriver`], applying the horizon plan's view
//!    transitions (materialize added views, drop removed ones, refresh
//!    the standing set) and metering every scan/build/refresh;
//! 2. convert metered bytes to cloud gigabytes ([`mv_engine::SimScale`])
//!    and observe
//!    each job's cluster-hours under the advisor's configured
//!    [`ThroughputModel`] — the reference oracle standing in for the
//!    paper's Hadoop wall-clock;
//! 3. fit the cost-model parameters (per-GB scan rate and per-job
//!    overhead, per work kind) from the `(gigabytes, hours)` samples by
//!    least squares ([`CalibratedParams`]), holding out the final epoch;
//! 4. re-predict every epoch's bill under the fitted parameters and
//!    under a deliberately mis-specified *synthetic* prior
//!    ([`CalibrationConfig::synthetic`]), and report per-epoch relative
//!    errors against the engine-metered bill.
//!
//! The acceptance bar (asserted in `tests/calibrate.rs`): the fitted
//! parameters predict the held-out epoch's metered bill with lower
//! relative error than the synthetic defaults.

use mv_cost::{CalibratedParams, MeterSample, WorkKind};
use mv_engine::{ReplayDriver, ThroughputModel};
use mv_lattice::WorkloadEvolution;
use mv_select::Scenario;
use mv_units::{Gb, Hours, Money};

use crate::advisor::{monthly_delta, CandidateMeter};
use crate::json::Json;
use crate::report::{hours, usd};
use crate::{Advisor, AdvisorError, HorizonConfig};

/// Shape of a calibration run.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Number of replayed billing epochs (≥ 2: the last one is held out
    /// of the fit and used to score generalization).
    pub epochs: usize,
    /// How query frequencies evolve across epochs.
    pub evolution: WorkloadEvolution,
    /// The a-priori throughput guess the fit must beat — what an advisor
    /// would assume about the cluster *before* measuring it.
    pub synthetic: ThroughputModel,
}

impl Default for CalibrationConfig {
    /// Six epochs, fixed workload, and a synthetic prior that is 4×
    /// optimistic about scan rate and ignores job startup — a plausible
    /// "spec-sheet" guess for the paper's Hadoop 0.20 cluster.
    fn default() -> Self {
        CalibrationConfig {
            epochs: 6,
            evolution: WorkloadEvolution::fixed(),
            synthetic: ThroughputModel::calibrated(100.0, Hours::ZERO),
        }
    }
}

/// One replayed epoch's reconciliation.
#[derive(Debug, Clone)]
pub struct EpochCalibration {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// How many workload queries the engine answered from a view.
    pub queries_via_views: usize,
    /// Frequency-weighted cloud gigabytes of metered work this epoch.
    pub metered_gb: f64,
    /// The engine-metered bill: replayed work priced through the
    /// provider ledger under the reference oracle.
    pub measured_bill: Money,
    /// What the advisor's horizon solve predicted this epoch would cost
    /// (cost-model arithmetic over the *measured-once* charges).
    pub planned_bill: Money,
    /// The metered work re-billed under the fitted parameters.
    pub fitted_bill: Money,
    /// The metered work re-billed under the synthetic prior.
    pub synthetic_bill: Money,
    /// |planned − measured| / measured.
    pub planned_rel_error: f64,
    /// |fitted − measured| / measured.
    pub fitted_rel_error: f64,
    /// |synthetic − measured| / measured.
    pub synthetic_rel_error: f64,
}

/// The rendered calibration loop: per-epoch reconciliation, the fitted
/// parameters, and the held-out generalization score.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Per-epoch reconciliation, in replay order.
    pub epochs: Vec<EpochCalibration>,
    /// The fitted cost-model parameters.
    pub params: CalibratedParams,
    /// Metered samples the fit consumed (held-out epoch excluded).
    pub samples: usize,
    /// Index of the held-out epoch (always the last).
    pub holdout_epoch: usize,
    /// Fitted-parameter relative error on the held-out epoch's bill.
    pub holdout_fitted_rel_error: f64,
    /// Synthetic-prior relative error on the same held-out bill.
    pub holdout_synthetic_rel_error: f64,
    /// Mean planned-vs-measured relative error across all epochs.
    pub mean_planned_rel_error: f64,
    /// Mean fitted-vs-measured relative error across all epochs.
    pub mean_fitted_rel_error: f64,
}

impl CalibrationReport {
    /// The fitted scan law as an engine [`ThroughputModel`], ready to
    /// drop into an [`crate::AdvisorConfig`] for re-advising.
    pub fn fitted_throughput(&self) -> ThroughputModel {
        ThroughputModel::calibrated(
            self.params.scan_gb_per_hour_per_unit(),
            self.params.job_overhead(),
        )
    }

    /// Renders the reconciliation as the JSON document
    /// `mvcloud-cli calibrate` prints (one `epochs` row per epoch).
    pub fn to_json(&self, scenario: Scenario) -> Json {
        let fixed = |x: f64| Json::Fixed(x, 6);
        let epochs = self
            .epochs
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("epoch", Json::UInt(e.epoch as u64)),
                    ("queries_via_views", Json::UInt(e.queries_via_views as u64)),
                    ("metered_gb", fixed(e.metered_gb)),
                    ("measured_bill", usd(e.measured_bill)),
                    ("planned_bill", usd(e.planned_bill)),
                    ("fitted_bill", usd(e.fitted_bill)),
                    ("synthetic_bill", usd(e.synthetic_bill)),
                    ("planned_rel_error", fixed(e.planned_rel_error)),
                    ("fitted_rel_error", fixed(e.fitted_rel_error)),
                    ("synthetic_rel_error", fixed(e.synthetic_rel_error)),
                ])
            })
            .collect();
        let fitted = self.fitted_throughput();
        Json::obj(vec![
            ("scenario", Json::str(scenario.label())),
            ("epochs", Json::Arr(epochs)),
            (
                "fitted",
                Json::obj(vec![
                    (
                        "scan_gb_per_hour_per_unit",
                        fixed(fitted.scan_gb_per_hour_per_unit),
                    ),
                    ("job_overhead_hours", hours(fitted.job_overhead)),
                ]),
            ),
            ("samples", Json::UInt(self.samples as u64)),
            ("holdout_epoch", Json::UInt(self.holdout_epoch as u64)),
            (
                "holdout_fitted_rel_error",
                fixed(self.holdout_fitted_rel_error),
            ),
            (
                "holdout_synthetic_rel_error",
                fixed(self.holdout_synthetic_rel_error),
            ),
            ("mean_planned_rel_error", fixed(self.mean_planned_rel_error)),
            ("mean_fitted_rel_error", fixed(self.mean_fitted_rel_error)),
        ])
    }
}

/// One metered job awaiting pricing: work kind, projected cloud size,
/// and how many times it runs this epoch (query frequency; 1.0 for
/// builds and refreshes).
#[derive(Debug, Clone, Copy)]
struct MeteredJob {
    kind: WorkKind,
    gb: Gb,
    weight: f64,
}

/// The metered record of one replayed epoch, projected to cloud scale.
#[derive(Debug, Clone)]
struct EpochMeter {
    jobs: Vec<MeteredJob>,
    result_gb: Gb,
    views_gb: Gb,
    queries_via_views: usize,
}

impl EpochMeter {
    fn metered_gb(&self) -> f64 {
        self.jobs.iter().map(|j| j.gb.value() * j.weight).sum()
    }
}

impl Advisor {
    /// Runs the calibration loop: solve the horizon plan, replay it
    /// through the engine epoch by epoch, fit the throughput law from
    /// the metered samples (final epoch held out), and reconcile
    /// predicted against metered bills. See the module docs.
    pub fn calibrate(
        &self,
        scenario: Scenario,
        config: &CalibrationConfig,
    ) -> Result<CalibrationReport, AdvisorError> {
        if config.epochs < 2 {
            // One epoch cannot be split into a fit set and a held-out
            // epoch, so the loop cannot be scored.
            return Err(AdvisorError::EmptyHorizon);
        }
        let meter = CandidateMeter::new(self.domain(), self.config())?;
        let units = meter.units;
        let oracle = self.config().throughput;
        let scale = self.scale();
        let horizon = HorizonConfig {
            epochs: config.epochs,
            evolution: config.evolution,
            commitment: None,
        };

        // The plan under test: the transition-aware horizon solve over
        // the advisor's measured candidate pool.
        let chain = self.epoch_chain(&horizon);
        let steps = chain.solve(scenario);

        // Replay it. The driver owns the live view set; each epoch
        // applies the plan's transitions and meters every byte.
        let mut driver =
            ReplayDriver::new(&self.domain().base).with_threads(self.config().threads.max(1));
        let delta = monthly_delta(self.domain(), self.config().maintenance_delta_fraction);
        let holdout = config.epochs - 1;
        let mut samples: Vec<MeterSample> = Vec::new();
        let mut meters = Vec::with_capacity(steps.len());
        for (e, step) in steps.iter().enumerate() {
            mv_obs::span!("calibrate/epoch");
            let added = step
                .added
                .iter()
                .map(|&k| self.candidates()[k].view.def().clone())
                .collect();
            let dropped: Vec<String> = step
                .dropped
                .iter()
                .map(|&k| self.candidates()[k].label.clone())
                .collect();
            let replay = driver.replay_epoch(added, &dropped, self.queries(), delta.as_ref())?;

            let freqs = horizon.evolution.frequencies(&self.domain().workload, e);
            let mut jobs = Vec::new();
            let mut result_gb = Gb::ZERO;
            for (q, &f) in replay.queries.iter().zip(&freqs) {
                jobs.push(MeteredJob {
                    kind: WorkKind::Scan,
                    gb: scale.bytes_to_cloud(q.stats.bytes_scanned),
                    weight: f,
                });
                result_gb += scale.bytes_to_cloud(q.stats.bytes_out) * f;
            }
            for (_, s) in &replay.builds {
                jobs.push(MeteredJob {
                    kind: WorkKind::Materialize,
                    gb: scale.bytes_to_cloud(s.bytes_scanned),
                    weight: 1.0,
                });
            }
            for (_, s) in &replay.refreshes {
                jobs.push(MeteredJob {
                    kind: WorkKind::Refresh,
                    gb: scale.bytes_to_cloud(s.bytes_scanned),
                    weight: 1.0,
                });
            }
            if e != holdout {
                for j in &jobs {
                    let hours = oracle_hours(&oracle, j, units)?;
                    mv_obs::inc(mv_obs::Counter::CalibrateSamples);
                    if mv_obs::enabled() {
                        mv_obs::event(
                            "calibration_sample",
                            &[
                                ("epoch", e as f64),
                                ("gb", j.gb.value()),
                                ("hours", hours.value()),
                            ],
                        );
                    }
                    samples.push(MeterSample::new(j.kind, j.gb, hours));
                }
            }
            let views_gb = driver
                .catalog()
                .names()
                .iter()
                .map(|n| {
                    driver
                        .catalog()
                        .get(n)
                        .map(|v| scale.bytes_to_cloud(v.data().heap_bytes()))
                })
                .sum::<Result<Gb, _>>()?;
            meters.push(EpochMeter {
                jobs,
                result_gb,
                views_gb,
                queries_via_views: replay.queries_via_views(),
            });
        }

        let params = CalibratedParams::fit(&samples, units)
            .ok_or(AdvisorError::CalibrationUnderdetermined)?;
        let synthetic = CalibratedParams::from_throughput(
            config.synthetic.scan_gb_per_hour_per_unit,
            config.synthetic.job_overhead,
            units,
        );

        // Reconcile: re-bill every epoch's metered work under the three
        // parameterizations and compare to the plan's prediction.
        let mut epochs = Vec::with_capacity(meters.len());
        for (e, ((m, step), model)) in meters.iter().zip(&steps).zip(chain.epochs()).enumerate() {
            let measured = self.bill_metered(model, m, |j| oracle_hours(&oracle, j, units))?;
            let fitted = self.bill_metered(model, m, |j| Ok(params.hours_for(j.kind, j.gb)))?;
            let synth = self.bill_metered(model, m, |j| Ok(synthetic.hours_for(j.kind, j.gb)))?;
            let planned = step.outcome.evaluation.cost();
            let rel = |b: Money| -> f64 {
                let meas = measured.to_dollars_f64();
                (b.to_dollars_f64() - meas).abs() / meas.max(f64::MIN_POSITIVE)
            };
            epochs.push(EpochCalibration {
                epoch: e,
                queries_via_views: m.queries_via_views,
                metered_gb: m.metered_gb(),
                measured_bill: measured,
                planned_bill: planned,
                fitted_bill: fitted,
                synthetic_bill: synth,
                planned_rel_error: rel(planned),
                fitted_rel_error: rel(fitted),
                synthetic_rel_error: rel(synth),
            });
        }
        let mean = |f: fn(&EpochCalibration) -> f64| -> f64 {
            epochs.iter().map(f).sum::<f64>() / epochs.len() as f64
        };
        Ok(CalibrationReport {
            holdout_epoch: holdout,
            holdout_fitted_rel_error: epochs[holdout].fitted_rel_error,
            holdout_synthetic_rel_error: epochs[holdout].synthetic_rel_error,
            mean_planned_rel_error: mean(|e| e.planned_rel_error),
            mean_fitted_rel_error: mean(|e| e.fitted_rel_error),
            samples: samples.len(),
            params,
            epochs,
        })
    }

    /// Prices one epoch's metered work through the provider-side ledger:
    /// per-kind compute hours under `hours` (weighted by run count),
    /// storage of dataset + standing views, and the metered outbound
    /// results — the same ledger shape the predicted horizon bills use,
    /// so the comparison isolates the throughput parameters.
    fn bill_metered(
        &self,
        model: &mv_cost::CloudCostModel,
        m: &EpochMeter,
        hours: impl Fn(&MeteredJob) -> Result<Hours, AdvisorError>,
    ) -> Result<Money, AdvisorError> {
        let config = self.config();
        let mut by_kind = [Hours::ZERO; 3];
        for j in &m.jobs {
            let idx = match j.kind {
                WorkKind::Scan => 0,
                WorkKind::Materialize => 1,
                WorkKind::Refresh => 2,
            };
            by_kind[idx] += hours(j)? * j.weight;
        }
        let mut ledger = mv_pricing::UsageLedger::new();
        for (label, t) in [
            ("workload processing (metered)", by_kind[0]),
            ("view materialization (metered)", by_kind[1]),
            ("view maintenance (metered)", by_kind[2]),
        ] {
            if t > Hours::ZERO {
                ledger.record_compute(label, &config.instance, config.nb_instances, t);
            }
        }
        ledger.record_storage(
            "dataset + views (metered)",
            model.storage_timeline(m.views_gb),
        );
        ledger.record_transfer_out("query results (metered)", m.result_gb);
        let invoice = ledger.invoice(&config.pricing)?;
        Ok(invoice.total())
    }
}

/// The reference oracle's observation of one metered job.
fn oracle_hours(
    oracle: &ThroughputModel,
    job: &MeteredJob,
    units: f64,
) -> Result<Hours, AdvisorError> {
    oracle
        .hours_for_scan(job.gb, units)
        .map_err(AdvisorError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sales_domain, AdvisorConfig};

    #[test]
    fn calibration_closes_the_loop_on_the_sales_domain() {
        // The paper's 500 GB running-example scale: compute hours are
        // large enough that per-record hour rounding cannot mask the
        // difference between the fitted and synthetic throughput laws.
        let config_500gb = AdvisorConfig {
            simulated_dataset: mv_units::Gb::new(500.0),
            ..AdvisorConfig::default()
        };
        let advisor = Advisor::build(sales_domain(1_000, 3, 2.0, 42), config_500gb).unwrap();
        let config = CalibrationConfig {
            epochs: 4,
            ..CalibrationConfig::default()
        };
        let scenario = Scenario::tradeoff_normalized(0.5);
        let report = advisor.calibrate(scenario, &config).unwrap();
        assert_eq!(report.epochs.len(), 4);
        assert_eq!(report.holdout_epoch, 3);
        assert!(report.samples > 0);
        for e in &report.epochs {
            assert!(e.measured_bill > Money::ZERO);
            assert!(e.metered_gb > 0.0);
            assert!(e.fitted_rel_error.is_finite());
        }
        // The fit recovers the oracle's law from the metered samples, so
        // it generalizes to the held-out epoch far better than the
        // mis-specified synthetic prior.
        assert!(report.holdout_fitted_rel_error < report.holdout_synthetic_rel_error);
        assert!(report.holdout_fitted_rel_error < 0.05);
        let t = report.fitted_throughput();
        let o = ThroughputModel::default();
        assert!((t.scan_gb_per_hour_per_unit - o.scan_gb_per_hour_per_unit).abs() < 1.0);
        let json = report.to_json(scenario);
        let epochs = json.get("epochs").and_then(Json::as_array).unwrap();
        assert_eq!(epochs.len(), 4);
        assert_eq!(json.get("holdout_epoch").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn single_epoch_calibration_is_an_error() {
        let advisor =
            Advisor::build(sales_domain(400, 3, 1.0, 7), AdvisorConfig::default()).unwrap();
        let config = CalibrationConfig {
            epochs: 1,
            ..CalibrationConfig::default()
        };
        assert!(matches!(
            advisor.calibrate(Scenario::tradeoff_normalized(0.5), &config),
            Err(AdvisorError::EmptyHorizon)
        ));
    }
}
