//! Solver outcomes and the improvement metrics the paper reports.

use crate::{Evaluation, Scenario};

/// Which algorithm produced an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// The paper's dynamic-programming 0/1 knapsack (Section 5.2) over
    /// linearized per-view deltas, with a repair pass.
    PaperKnapsack,
    /// Exhaustive subset enumeration (ground truth; exponential).
    Exhaustive,
    /// Add-one-at-a-time greedy hill climbing.
    Greedy,
    /// Depth-first branch-and-bound with admissible time/cost bounds.
    BranchAndBound,
    /// Greedy fill plus bounded flip/swap local-search improvement.
    LocalSearch,
    /// Large-neighborhood search: destroy-and-repair rounds over the
    /// incremental evaluator, for candidate pools where the O(n²) swap
    /// neighborhood stalls.
    Lns,
}

impl SolverKind {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::PaperKnapsack => "knapsack",
            SolverKind::Exhaustive => "exhaustive",
            SolverKind::Greedy => "greedy",
            SolverKind::BranchAndBound => "branch-and-bound",
            SolverKind::LocalSearch => "local-search",
            SolverKind::Lns => "lns",
        }
    }
}

/// A solved selection: the chosen evaluation plus reporting context.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The chosen selection, fully evaluated.
    pub evaluation: Evaluation,
    /// The no-views baseline (the paper's "without materialized views").
    pub baseline: Evaluation,
    /// The scenario that was optimized.
    pub scenario: Scenario,
    /// The algorithm that produced it.
    pub solver: SolverKind,
}

impl Outcome {
    /// Builds an outcome.
    pub(crate) fn new(
        evaluation: Evaluation,
        baseline: Evaluation,
        scenario: Scenario,
        solver: SolverKind,
    ) -> Self {
        Outcome {
            evaluation,
            baseline,
            scenario,
            solver,
        }
    }

    /// Whether the chosen selection satisfies the scenario constraint.
    pub fn feasible(&self) -> bool {
        self.scenario.feasible(&self.evaluation)
    }

    /// The scenario objective value of the chosen selection.
    pub fn objective(&self) -> f64 {
        self.scenario.objective(&self.evaluation, &self.baseline)
    }

    /// The paper's Table 6 "IP Rate": relative processing-time improvement
    /// over the no-view baseline.
    pub fn time_improvement(&self) -> f64 {
        let base = self.baseline.time.value();
        if base == 0.0 {
            return 0.0;
        }
        (base - self.evaluation.time.value()) / base
    }

    /// The paper's Table 7 "IC Rate": relative cost improvement over the
    /// no-view baseline.
    pub fn cost_improvement(&self) -> f64 {
        let base = self.baseline.cost().to_dollars_f64();
        if base == 0.0 {
            return 0.0;
        }
        (base - self.evaluation.cost().to_dollars_f64()) / base
    }

    /// The paper's Table 8 tradeoff rate: relative improvement of the MV3
    /// weighted objective over the baseline's.
    pub fn tradeoff_improvement(&self) -> f64 {
        let base = self.scenario.objective(&self.baseline, &self.baseline);
        if base == 0.0 {
            return 0.0;
        }
        (base - self.objective()) / base
    }

    /// Names of the selected candidate views, given the candidate list.
    pub fn selected_names<'a>(&self, names: &'a [String]) -> Vec<&'a str> {
        self.evaluation
            .selection
            .ones()
            .map(|k| names[k].as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_like_problem;
    use mv_units::Money;

    #[test]
    fn improvement_rates() {
        let p = paper_like_problem();
        let baseline = p.baseline();
        let all = p.evaluate(&mv_cost::SelectionSet::full(p.len()));
        let o = Outcome::new(
            all,
            baseline.clone(),
            Scenario::budget(Money::MAX),
            SolverKind::Exhaustive,
        );
        assert!(o.feasible());
        assert!(o.time_improvement() > 0.0);
        assert!(o.time_improvement() <= 1.0);
        // Baseline outcome improves nothing.
        let o2 = Outcome::new(
            baseline.clone(),
            baseline,
            Scenario::tradeoff(0.5),
            SolverKind::Greedy,
        );
        assert_eq!(o2.time_improvement(), 0.0);
        assert_eq!(o2.cost_improvement(), 0.0);
        assert_eq!(o2.tradeoff_improvement(), 0.0);
    }

    #[test]
    fn selected_names_filter() {
        let p = paper_like_problem();
        let baseline = p.baseline();
        let mut sel = mv_cost::SelectionSet::empty(p.len());
        sel.set(1, true);
        let e = p.evaluate(&sel);
        let o = Outcome::new(e, baseline, Scenario::tradeoff(0.5), SolverKind::Greedy);
        let names: Vec<String> = p.candidates().iter().map(|c| c.name.clone()).collect();
        assert_eq!(o.selected_names(&names), vec!["v-month-country"]);
    }

    #[test]
    fn solver_names() {
        assert_eq!(SolverKind::PaperKnapsack.name(), "knapsack");
        assert_eq!(SolverKind::Exhaustive.name(), "exhaustive");
        assert_eq!(SolverKind::Greedy.name(), "greedy");
        assert_eq!(SolverKind::BranchAndBound.name(), "branch-and-bound");
        assert_eq!(SolverKind::Lns.name(), "lns");
    }
}
