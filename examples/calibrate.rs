//! Closing the loop: does the advisor's bill survive contact with the
//! engine?
//!
//! Everything else in this repo *predicts* — the advisor meters the
//! workload once, prices it through the paper's cost model, and a
//! solver picks views. This walkthrough **runs** the chosen plan: the
//! horizon plan's view transitions are replayed through the columnar
//! engine epoch by epoch (materialize, refresh, drop, answer queries),
//! every byte is metered, and the metered work is billed through the
//! same provider ledger. From the metered `(gigabytes, hours)` samples
//! the loop then *fits* the throughput law by least squares — holding
//! out the final epoch — and scores three predictors against the
//! metered bill:
//!
//! * **planned** — the horizon solve's own per-epoch prediction;
//! * **fitted** — the metered work re-billed under the fitted law;
//! * **synthetic** — the same work under a deliberately mis-specified
//!   "spec-sheet" prior (4× optimistic scan rate, zero job overhead).
//!
//! The punchline the tests assert: the fitted parameters generalize to
//! the held-out epoch far better than the synthetic prior.
//!
//! Run with: `cargo run --example calibrate`

use mvcloud::lattice::WorkloadEvolution;
use mvcloud::units::Gb;
use mvcloud::{sales_domain, Advisor, AdvisorConfig, CalibrationConfig, Scenario};

fn main() {
    println!("== engine↔advisor calibration loop ==\n");

    // The paper's running example at its stated 500 GB cloud scale —
    // large enough that compute-hour rounding cannot mask throughput
    // differences (at 10 GB every predictor rounds to the same bill).
    let domain = sales_domain(2_000, 5, 2.0, 42);
    let advisor = Advisor::build(
        domain,
        AdvisorConfig {
            simulated_dataset: Gb::new(500.0),
            ..AdvisorConfig::default()
        },
    )
    .expect("advisor builds");

    let config = CalibrationConfig {
        epochs: 4,
        evolution: WorkloadEvolution::seasonal(4, 0.5),
        ..CalibrationConfig::default()
    };
    let scenario = Scenario::tradeoff_normalized(0.5);
    let report = advisor
        .calibrate(scenario, &config)
        .expect("calibration runs");

    println!(
        "replayed {} epochs through the engine ({} metered samples; epoch {} held out)\n",
        report.epochs.len(),
        report.samples,
        report.holdout_epoch
    );
    println!("{}", report.to_json(scenario).render_pretty());

    let fitted = report.fitted_throughput();
    println!(
        "\nfitted throughput law: {:.2} GB/h/unit, {:.3} h job overhead",
        fitted.scan_gb_per_hour_per_unit,
        fitted.job_overhead.value()
    );
    println!(
        "synthetic prior:       {:.2} GB/h/unit, {:.3} h job overhead",
        config.synthetic.scan_gb_per_hour_per_unit,
        config.synthetic.job_overhead.value()
    );
    println!(
        "\nheld-out epoch {}: fitted rel error {:.4}  vs  synthetic {:.4}",
        report.holdout_epoch, report.holdout_fitted_rel_error, report.holdout_synthetic_rel_error
    );
    println!(
        "mean across epochs: planned {:.4}, fitted {:.4}",
        report.mean_planned_rel_error, report.mean_fitted_rel_error
    );
    println!(
        "\nthe fitted law can now seed a re-advising pass: \
         AdvisorConfig {{ throughput: fitted, .. }}"
    );
}
