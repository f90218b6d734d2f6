//! Golden reproductions of the paper's worked Examples 1–9 (§3–§4) and the
//! Section 1 introduction figures.
//!
//! Every monetary figure printed in the paper is asserted here to the
//! micro-dollar. One deliberate deviation: the paper's Example 3 prints
//! **$2131.76**, but its own formula
//! `512×0.14×(7−0) + (512+2048)×0.125×(12−7) = 501.76 + 1600`
//! evaluates to **$2101.76** — we reproduce the formula, not the typo
//! (`experiments examples` prints both).

use mv_cost::{CloudCostModel, CostContext, QueryCharge, ViewCharge};
use mv_pricing::{presets, StorageTimeline};
use mv_units::{Gb, Hours, Money, Months};

fn dollars(s: &str) -> Money {
    Money::from_dollars_str(s).unwrap()
}

/// The running example: 500 GB dataset, 10 GB of monthly query results,
/// 50 h workload, two small EC2 instances, one-year horizon.
fn running_example() -> CloudCostModel {
    let pricing = presets::aws_2012();
    let instance = pricing.compute.instance("small").unwrap().clone();
    CloudCostModel::new(CostContext {
        pricing,
        instance,
        nb_instances: 2,
        months: Months::new(12.0),
        dataset_size: Gb::new(500.0),
        workload: vec![QueryCharge::new("Q", Gb::new(10.0), Hours::new(50.0))],
    })
}

/// V1 = "sales per month and country": 50 GB, 1 h to build, 5 h/period to
/// maintain, drops the workload to 40 h.
fn v1() -> ViewCharge {
    ViewCharge::new("V1", Gb::new(50.0), Hours::new(1.0), Hours::new(5.0), 1)
        .answers(0, Hours::new(40.0))
}

#[test]
fn example_1_data_transfer_cost() {
    // Ct = s(R_Q) × ct = (10 − 1) × 0.12 = $1.08.
    assert_eq!(running_example().transfer_cost(), dollars("1.08"));
}

#[test]
fn example_2_computing_cost() {
    // Cc = RoundUp(50) × 0.12 × 2 = $12.
    assert_eq!(
        running_example().compute_cost_without_views(),
        dollars("12")
    );
}

#[test]
fn example_3_storage_cost_with_intervals() {
    // 512 GB stored 12 months; 2048 GB inserted at the start of month 8
    // (7 elapsed months). Two intervals:
    //   512 × 0.14 × 7 + 2560 × 0.125 × 5 = 501.76 + 1600 = $2101.76.
    let mut tl = StorageTimeline::new(Gb::from_tb(0.5), Months::new(12.0));
    tl.insert(Months::new(7.0), Gb::from_tb(2.0)).unwrap();
    let cost = presets::aws_2012().storage.period_cost(&tl);
    assert_eq!(cost, dollars("2101.76"));
    // The paper prints $2131.76; assert we deliberately differ by the $30
    // typo so a silent regression toward the typo would be caught too.
    assert_eq!(dollars("2131.76") - cost, dollars("30"));
}

#[test]
fn example_4_materialization_cost() {
    // CmaterializationV = 1 × 0.12 × 2 = $0.24.
    let m = running_example();
    let b = m.with_views(&[v1()], &mv_cost::SelectionSet::full(1));
    assert_eq!(b.compute_materialization, dollars("0.24"));
}

#[test]
fn example_5_processing_time_with_views() {
    // TprocessingQ = 40 hours.
    let m = running_example();
    assert_eq!(
        m.processing_time_with_views(&[v1()], &mv_cost::SelectionSet::full(1)),
        Hours::new(40.0)
    );
}

#[test]
fn example_6_processing_cost_with_views() {
    // CprocessingQ = 40 × 0.12 × 2 = $9.6.
    let m = running_example();
    let b = m.with_views(&[v1()], &mv_cost::SelectionSet::full(1));
    assert_eq!(b.compute_processing, dollars("9.6"));
}

#[test]
fn example_7_and_8_maintenance() {
    // TmaintenanceV = 5 h; CmaintenanceV = 5 × 0.12 × 2 = $1.2.
    let m = running_example();
    assert_eq!(
        m.maintenance_time(&[v1()], &mv_cost::SelectionSet::full(1)),
        Hours::new(5.0)
    );
    let b = m.with_views(&[v1()], &mv_cost::SelectionSet::full(1));
    assert_eq!(b.compute_maintenance, dollars("1.2"));
}

#[test]
fn example_9_storage_with_views() {
    // Cs = (500 + 50) × 12 × 0.14 = $924.
    let m = running_example();
    let b = m.with_views(&[v1()], &mv_cost::SelectionSet::full(1));
    assert_eq!(b.storage, dollars("924"));
}

#[test]
fn section1_intro_figures() {
    // The introduction's simpler pricing: $0.10/GB-month, $0.24/h.
    let pricing = presets::intro_fictitious();
    let instance = pricing.compute.instance("std").unwrap().clone();
    let model = CloudCostModel::new(CostContext {
        pricing,
        instance,
        nb_instances: 1,
        months: Months::new(1.0),
        dataset_size: Gb::new(500.0),
        workload: vec![QueryCharge::new("Q", Gb::ZERO, Hours::new(50.0))],
    });
    // Without views: $50 storage + $12 compute = $62.
    let without = model.without_views();
    assert_eq!(without.storage, dollars("50"));
    assert_eq!(without.compute(), dollars("12"));
    assert_eq!(without.total(), dollars("62"));

    // With views (50 GB extra, 40 h workload): $55 + $9.6 = $64.60. The
    // intro ignores materialization/maintenance, so the view charges zero
    // build and refresh time.
    let intro_view = ViewCharge::new("V", Gb::new(50.0), Hours::ZERO, Hours::ZERO, 1)
        .answers(0, Hours::new(40.0));
    let with = model.with_views(&[intro_view], &mv_cost::SelectionSet::full(1));
    assert_eq!(with.storage, dollars("55"));
    assert_eq!(with.compute(), dollars("9.6"));
    assert_eq!(with.total(), dollars("64.6"));

    // "Performance has improved by 20%, but cost has also increased by ~4%."
    let perf_gain: f64 = (50.0 - 40.0) / 50.0;
    assert!((perf_gain - 0.20).abs() < 1e-12);
    let cost_increase =
        (with.total() - without.total()).to_dollars_f64() / without.total().to_dollars_f64();
    assert!((cost_increase - 0.0419).abs() < 0.001, "{cost_increase}");
}

#[test]
fn section22_monthly_storage_prices() {
    // "monthly storage price when not using materialized views (500 GB
    // dataset) is 0.14 × 500 = $70, and 0.14 × (500 + 50) = $77 when using
    // materialized views".
    let aws = presets::aws_2012();
    assert_eq!(aws.storage.monthly_cost(Gb::new(500.0)), dollars("70"));
    assert_eq!(aws.storage.monthly_cost(Gb::new(550.0)), dollars("77"));
}

#[test]
fn full_breakdown_with_and_without_views() {
    // End-to-end Formula 1 totals for the running example, one year.
    let m = running_example();
    let without = m.without_views();
    // $1.08 + $12 + 500×12×0.14=$840.
    assert_eq!(without.total(), dollars("853.08"));
    let with = m.with_views(&[v1()], &mv_cost::SelectionSet::full(1));
    // $1.08 + ($9.6 + $1.2 + $0.24) + $924.
    assert_eq!(with.total(), dollars("936.12"));
    // Views trade compute for storage here: compute dropped...
    assert!(with.compute() < without.compute());
    // ...while total rose because a year of 50 GB S3 outweighs $1.
    assert!(with.total() > without.total());
}
