//! What-if analyses over a built advisor.
//!
//! The advisor measures once; these helpers then sweep a decision variable
//! and re-solve, which is cheap because the selection problem is already
//! assembled. Three sweeps users actually ask for:
//!
//! * **budget sweep** — how much faster does each extra dollar make the
//!   workload (the curve behind the paper's Figure 5(a));
//! * **deadline sweep** — the cheapest bill at each response-time target;
//! * **α sweep** — the MV3 pivot between the two optima.
//!
//! Sweep points are independent solves over the same immutable problem,
//! run serially in point order (a solver's own parallelism, such as the
//! exhaustive sweep's, still applies inside each solve).

use mv_select::{Scenario, SelectionProblem, SolverKind};
use mv_units::{Hours, Money};

use crate::Advisor;

/// One point of a what-if sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept variable's value (dollars, hours, or α).
    pub x: f64,
    /// Workload processing time at the optimum.
    pub time_hours: f64,
    /// Total period cost at the optimum.
    pub cost_dollars: f64,
    /// Number of selected views.
    pub views: usize,
    /// Whether the constraint was satisfiable.
    pub feasible: bool,
}

/// Solves every `(x, scenario)` point, in order.
fn solve_points(
    problem: &SelectionProblem,
    points: Vec<(f64, Scenario)>,
    solver: SolverKind,
) -> Vec<SweepPoint> {
    points
        .into_iter()
        .map(|(x, s)| {
            let o = mv_select::solve(problem, s, solver);
            SweepPoint {
                x,
                time_hours: o.evaluation.time.value(),
                cost_dollars: o.evaluation.cost().to_dollars_f64(),
                views: o.evaluation.num_selected(),
                feasible: o.feasible(),
            }
        })
        .collect()
}

/// Sweeps MV1 budgets from the no-view baseline cost upward in `steps`
/// equal increments of `span`.
pub fn budget_sweep(
    advisor: &Advisor,
    span: Money,
    steps: usize,
    solver: SolverKind,
) -> Vec<SweepPoint> {
    let problem = advisor.problem();
    let base_cost = problem.baseline().cost();
    let points = (0..=steps)
        .map(|i| {
            let extra = Money::from_micros(span.micros() * i as i128 / steps.max(1) as i128);
            let budget = base_cost + extra;
            (budget.to_dollars_f64(), Scenario::budget(budget))
        })
        .collect();
    solve_points(problem, points, solver)
}

/// Sweeps MV2 deadlines as fractions of the no-view workload time.
pub fn deadline_sweep(advisor: &Advisor, fractions: &[f64], solver: SolverKind) -> Vec<SweepPoint> {
    let problem = advisor.problem();
    let base_time = problem.baseline().time;
    let points = fractions
        .iter()
        .map(|&f| {
            let limit = Hours::new(base_time.value() * f);
            (limit.value(), Scenario::time_limit(limit))
        })
        .collect();
    solve_points(problem, points, solver)
}

/// Sweeps MV3's α over `steps` equal increments of [0, 1].
pub fn alpha_sweep(advisor: &Advisor, steps: usize, solver: SolverKind) -> Vec<SweepPoint> {
    let points = (0..=steps)
        .map(|i| {
            let alpha = i as f64 / steps.max(1) as f64;
            (alpha, Scenario::tradeoff_normalized(alpha))
        })
        .collect();
    solve_points(advisor.problem(), points, solver)
}

/// Renders sweep points as CSV.
pub fn sweep_csv(points: &[SweepPoint], x_name: &str) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.6}", p.x),
                format!("{:.6}", p.time_hours),
                format!("{:.6}", p.cost_dollars),
                p.views.to_string(),
                p.feasible.to_string(),
            ]
        })
        .collect();
    crate::report::render_csv(
        &[x_name, "time_hours", "cost_dollars", "views", "feasible"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sales_domain, Advisor, AdvisorConfig};

    fn advisor() -> Advisor {
        Advisor::build(sales_domain(1_500, 5, 30.0, 42), AdvisorConfig::default()).unwrap()
    }

    #[test]
    fn budget_sweep_time_is_monotone() {
        let a = advisor();
        let points = budget_sweep(&a, Money::from_dollars(5), 6, SolverKind::Exhaustive);
        assert_eq!(points.len(), 7);
        for w in points.windows(2) {
            assert!(w[1].time_hours <= w[0].time_hours + 1e-12);
        }
        // Budget respected everywhere.
        for p in &points {
            assert!(p.feasible);
            assert!(p.cost_dollars <= p.x + 1e-9);
        }
    }

    #[test]
    fn deadline_sweep_cost_falls_with_looser_limits() {
        let a = advisor();
        let points = deadline_sweep(&a, &[0.1, 0.5, 1.0], SolverKind::Exhaustive);
        let feasible: Vec<&SweepPoint> = points.iter().filter(|p| p.feasible).collect();
        assert!(!feasible.is_empty());
        for w in feasible.windows(2) {
            assert!(w[1].cost_dollars <= w[0].cost_dollars + 1e-9);
        }
    }

    #[test]
    fn alpha_sweep_pivots() {
        let a = advisor();
        let points = alpha_sweep(&a, 4, SolverKind::Exhaustive);
        assert_eq!(points.len(), 5);
        // Time falls (or stays) as alpha rises; cost rises (or stays).
        for w in points.windows(2) {
            assert!(w[1].time_hours <= w[0].time_hours + 1e-12);
            assert!(w[1].cost_dollars + 1e-9 >= w[0].cost_dollars);
        }
    }

    #[test]
    fn csv_shape() {
        let a = advisor();
        let points = alpha_sweep(&a, 2, SolverKind::Greedy);
        let csv = sweep_csv(&points, "alpha");
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.starts_with("alpha,time_hours,cost_dollars,views,feasible"));
    }
}
