//! Experiment definitions: one runner per paper table/figure.
//!
//! Each runner returns structured rows so the `experiments` binary can
//! print paper-style tables, tests can assert the qualitative shapes, and
//! `experiments all` can write the CSV series.
//!
//! ## Workload regimes
//!
//! The paper's evaluation (§6) ran each scenario over 3-, 5- and 10-query
//! workloads on a 10 GB dataset, each solved by its knapsack
//! ([`SolverKind::PaperKnapsack`]). Two regimes reproduce its two cost
//! structures:
//!
//! * **MV1 (budget)** — ad-hoc regime: each query runs once, storage billed
//!   over a year; the budget headroom over the no-view baseline is what
//!   limits how many views fit, so the improvement rate *grows* with the
//!   headroom, like the paper's Table 6.
//! * **MV2/MV3 (time limit / tradeoff)** — recurring regime: the workload
//!   runs 50×/month (dashboards), so compute dominates and materializing
//!   views *reduces total cost* by ~70 %, like the paper's Table 7.

use mv_engine::ThroughputModel;
use mv_units::{Gb, Hours, Money, Months};
use mvcloud::{
    sales_domain, Advisor, AdvisorConfig, CandidateStrategy, Outcome, Scenario, SizingMode,
    SolverKind,
};

/// The paper's workload sizes (Figure 5's x-axis).
pub(crate) const WORKLOAD_SIZES: [usize; 3] = [3, 5, 10];

/// Engine rows standing in for the paper's 10 GB experimental dataset.
pub const ENGINE_ROWS: usize = 20_000;

/// Shared generator seed: all experiments see the same data.
pub const SEED: u64 = 42;

/// Builds the advisor for one workload size under a regime.
/// `maintenance` is the monthly insert fraction (0 = static dataset).
///
/// The sizing mode differs per regime and matters:
/// the ad-hoc MV1 regime uses [`SizingMode::MeasuredScaled`], reproducing
/// the paper's running example where views are a substantial fraction of
/// the dataset (50 GB of views on 500 GB of data) so the budget genuinely
/// limits how many views fit; the recurring MV2/MV3 regime uses
/// [`SizingMode::Extrapolated`], where aggregate sizes saturate at the key
/// domain so recurring result transfer stays realistic.
pub fn build_advisor(
    n_queries: usize,
    frequency: f64,
    months: f64,
    maintenance: f64,
    sizing: SizingMode,
) -> Advisor {
    let domain = sales_domain(ENGINE_ROWS, n_queries, frequency, SEED);
    let config = AdvisorConfig {
        months: Months::new(months),
        simulated_dataset: Gb::new(10.0),
        throughput: ThroughputModel::default(),
        candidates: CandidateStrategy::FullLattice,
        maintenance_delta_fraction: maintenance,
        sizing,
        ..AdvisorConfig::default()
    };
    Advisor::build(domain, config).expect("experiment advisor builds")
}

/// One row of a scenario experiment: everything Tables 6–8 print, plus the
/// Figure 5 bar values (with/without).
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Number of workload queries.
    pub queries: usize,
    /// The constraint (budget in dollars / time limit in hours / α).
    pub constraint: String,
    /// Processing time without views.
    pub time_without: Hours,
    /// Processing time with the selected views.
    pub time_with: Hours,
    /// Total cost without views.
    pub cost_without: Money,
    /// Total cost with the selected views.
    pub cost_with: Money,
    /// The paper's improvement rate for this table (IP/IC/tradeoff).
    pub rate: f64,
    /// Names of the selected views.
    pub selected: Vec<String>,
    /// Whether the constraint was satisfied.
    pub feasible: bool,
}

fn row_from_outcome(
    queries: usize,
    constraint: String,
    o: &Outcome,
    rate: f64,
    names: &[String],
) -> ScenarioRow {
    ScenarioRow {
        queries,
        constraint,
        time_without: o.baseline.time,
        time_with: o.evaluation.time,
        cost_without: o.baseline.cost(),
        cost_with: o.evaluation.cost(),
        rate,
        selected: o
            .selected_names(names)
            .into_iter()
            .map(str::to_string)
            .collect(),
        feasible: o.feasible(),
    }
}

fn candidate_names(advisor: &Advisor) -> Vec<String> {
    advisor
        .candidates()
        .iter()
        .map(|m| m.label.clone())
        .collect()
}

/// **Table 6 / Figure 5(a)** — MV1: minimize time under a budget.
///
/// Budget headroom over the baseline grows with workload size (the paper's
/// budgets 0.8/1.2/2.4 likewise grow superlinearly): $0.30, $0.90, $4.00.
pub fn scenario_mv1() -> Vec<ScenarioRow> {
    let headrooms = [
        Money::from_cents(30),
        Money::from_cents(90),
        Money::from_cents(400),
    ];
    WORKLOAD_SIZES
        .iter()
        .zip(headrooms)
        .map(|(&n, headroom)| {
            let advisor = build_advisor(n, 1.0, 12.0, 0.0, SizingMode::MeasuredScaled);
            let budget = advisor.problem().baseline().cost() + headroom;
            let o = advisor.solve(Scenario::budget(budget), SolverKind::PaperKnapsack);
            let rate = o.time_improvement();
            row_from_outcome(n, format!("{budget}"), &o, rate, &candidate_names(&advisor))
        })
        .collect()
}

/// **Table 7 / Figure 5(b)** — MV2: minimize cost under a time limit.
///
/// The limit is half the no-view workload time, mirroring the paper's
/// limits (0.57/0.99/2.24 h, each below its workload's base time).
pub fn scenario_mv2() -> Vec<ScenarioRow> {
    WORKLOAD_SIZES
        .iter()
        .map(|&n| {
            let advisor = build_advisor(n, 50.0, 1.0, 0.02, SizingMode::Extrapolated);
            let limit = Hours::new(advisor.problem().baseline().time.value() * 0.5);
            let o = advisor.solve(Scenario::time_limit(limit), SolverKind::PaperKnapsack);
            let rate = o.cost_improvement();
            row_from_outcome(n, format!("{limit}"), &o, rate, &candidate_names(&advisor))
        })
        .collect()
}

/// **Table 8 / Figures 5(c,d)** — MV3: weighted tradeoff at a given α
/// (the paper runs α = 0.3 and α = 0.7; Figure 5(d)'s caption says 0.65,
/// so the harness accepts any α).
pub fn scenario_mv3(alpha: f64) -> Vec<ScenarioRow> {
    WORKLOAD_SIZES
        .iter()
        .map(|&n| {
            let advisor = build_advisor(n, 50.0, 1.0, 0.02, SizingMode::Extrapolated);
            let o = advisor.solve(
                Scenario::tradeoff_normalized(alpha),
                SolverKind::PaperKnapsack,
            );
            let rate = o.tradeoff_improvement();
            row_from_outcome(
                n,
                format!("alpha={alpha}"),
                &o,
                rate,
                &candidate_names(&advisor),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mv1_views_always_desirable_and_growing() {
        let rows = scenario_mv1();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.feasible, "{}-query workload infeasible", r.queries);
            assert!(r.rate > 0.0, "{}-query workload rate {}", r.queries, r.rate);
            assert!(!r.selected.is_empty());
            assert!(r.time_with < r.time_without);
        }
        // The paper's Table 6 shape: improvement grows with workload size.
        assert!(
            rows[2].rate >= rows[0].rate,
            "10q rate {} < 3q rate {}",
            rows[2].rate,
            rows[0].rate
        );
    }

    #[test]
    fn mv2_views_cut_costs_under_time_limits() {
        let rows = scenario_mv2();
        for r in &rows {
            assert!(r.feasible, "{}-query workload infeasible", r.queries);
            // The paper's Table 7 shape: large, roughly flat cost savings.
            assert!(
                r.rate > 0.4,
                "{}-query IC rate only {:.2}",
                r.queries,
                r.rate
            );
            assert!(r.cost_with < r.cost_without);
        }
    }

    #[test]
    fn mv3_positive_tradeoff_at_both_alphas() {
        for alpha in [0.3, 0.7] {
            let rows = scenario_mv3(alpha);
            for r in &rows {
                assert!(
                    r.rate > 0.0,
                    "alpha={alpha}, {}-query rate {}",
                    r.queries,
                    r.rate
                );
            }
        }
    }
}
