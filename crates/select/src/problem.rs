//! The view-selection problem instance.

use mv_cost::{CloudCostModel, CostBreakdown, Price, SelectionSet, ViewCharge};
use mv_units::{Hours, Money};

/// A fully-evaluated selection: the true (non-linearized) processing time
/// and cost breakdown under the paper's interaction model — each query is
/// answered by the fastest selected view able to serve it.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Which candidates are materialized.
    pub selection: SelectionSet,
    /// `TprocessingQ` under the selection (Formula 9).
    pub time: Hours,
    /// Formula 1/6 cost decomposition.
    pub breakdown: CostBreakdown,
}

impl Evaluation {
    /// Total monetary cost `C`.
    pub fn cost(&self) -> Money {
        self.breakdown.total()
    }

    /// Number of selected views.
    pub fn num_selected(&self) -> usize {
        self.selection.count_ones()
    }

    /// The time and breakdown alone.
    pub fn score(&self) -> Score {
        Score {
            time: self.time,
            breakdown: self.breakdown,
        }
    }
}

/// What a selection scores — processing time and cost breakdown —
/// without the selection itself: `Copy`, so a move loop can rank
/// thousands of probed neighbours without touching the evaluator's
/// selection handle, and build an [`Evaluation`] for the one it keeps.
/// Produced by `IncrementalEvaluator::{score, probe}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// `TprocessingQ` under the scored selection (Formula 9).
    pub time: Hours,
    /// Formula 1/6 cost decomposition.
    pub breakdown: CostBreakdown,
}

impl Score {
    /// Total monetary cost `C`.
    pub fn cost(&self) -> Money {
        self.breakdown.total()
    }

    /// The [`Evaluation`] of `selection`, which must be the selection
    /// this score was taken at.
    pub(crate) fn with_selection(self, selection: SelectionSet) -> Evaluation {
        Evaluation {
            selection,
            time: self.time,
            breakdown: self.breakdown,
        }
    }
}

/// Anything the scenarios can rank: a processing time and a total
/// cost. Lets `Scenario::{feasible, violation, objective, better}`
/// keep one body for full [`Evaluation`]s and bare [`Score`]s alike.
pub trait Scored {
    /// `TprocessingQ` (Formula 9).
    fn time(&self) -> Hours;
    /// Total monetary cost `C` (Formula 1).
    fn cost(&self) -> Money;
}

impl Scored for Evaluation {
    fn time(&self) -> Hours {
        self.time
    }

    fn cost(&self) -> Money {
        self.breakdown.total()
    }
}

impl Scored for Score {
    fn time(&self) -> Hours {
        self.time
    }

    fn cost(&self) -> Money {
        self.breakdown.total()
    }
}

/// A selection problem: the costing model plus the candidate views output
/// by the generation step (the paper's `V_cand`).
#[derive(Debug, Clone)]
pub struct SelectionProblem {
    model: CloudCostModel,
    candidates: Vec<ViewCharge>,
}

impl SelectionProblem {
    /// Builds a problem. Candidate `query_times` vectors must align with
    /// the model's workload.
    pub fn new(model: CloudCostModel, candidates: Vec<ViewCharge>) -> Self {
        let m = model.context().workload.len();
        for c in &candidates {
            assert_eq!(
                c.profile.workload_len(),
                m,
                "candidate {} has {} query times for a {}-query workload",
                c.name,
                c.profile.workload_len(),
                m
            );
        }
        SelectionProblem { model, candidates }
    }

    /// The costing model.
    pub fn model(&self) -> &CloudCostModel {
        &self.model
    }

    /// The candidate views.
    pub fn candidates(&self) -> &[ViewCharge] {
        &self.candidates
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Re-prices candidate `k` in place, returning its old price. Name,
    /// answer profile and index are untouched — which is why the
    /// incremental evaluator's `update_charge` has no cache to repair.
    pub(crate) fn reprice_candidate(&mut self, k: usize, price: Price) -> Price {
        let old = self.candidates[k].price();
        self.candidates[k].set_price(price);
        old
    }

    /// Swaps in a new costing model over the *same workload shape*: the
    /// query count must match so every candidate's `query_times` stays
    /// aligned. Per-query frequencies, base times, pricing, horizon and
    /// dataset size may all differ — that is exactly what changes between
    /// epochs of a billing horizon.
    pub(crate) fn set_model(&mut self, model: CloudCostModel) {
        assert_eq!(
            model.context().workload.len(),
            self.model.context().workload.len(),
            "replacement model must keep the workload length"
        );
        self.model = model;
    }

    /// Evaluates a selection under the true interaction model: one
    /// Formula 9 fold (O(m + Σ deg) over the selected views' profiles),
    /// the three per-view totals in ascending candidate order, and the
    /// breakdown assembled from those totals — the same arithmetic as
    /// `CloudCostModel::with_views`, which is defined over
    /// `breakdown_from_totals` too.
    pub fn evaluate(&self, selection: &SelectionSet) -> Evaluation {
        assert_eq!(selection.len(), self.candidates.len());
        let model = &self.model;
        let views = &self.candidates;
        let time = model.processing_time_with_views(views, selection);
        Evaluation {
            time,
            breakdown: model.breakdown_from_totals(
                time,
                model.maintenance_time(views, selection),
                model.materialization_time(views, selection),
                model.views_size(views, selection),
            ),
            selection: selection.clone(),
        }
    }

    /// The empty selection (the paper's "without materialized views"
    /// baseline).
    pub fn baseline(&self) -> Evaluation {
        self.evaluate(&SelectionSet::empty(self.candidates.len()))
    }

    /// Linearized per-view deltas used by the paper's knapsack formulation:
    /// `(time saved, cost delta)` of adding view `k` to the *empty*
    /// selection. Interactions (two views serving the same query) make the
    /// sum of these deltas an optimistic estimate — the knapsack solver
    /// repairs against [`SelectionProblem::evaluate`] afterwards.
    pub(crate) fn linearized_deltas(&self) -> Vec<(Hours, Money)> {
        let baseline = self.baseline();
        let mut ev = crate::IncrementalEvaluator::new(self);
        (0..self.candidates.len())
            .map(|k| {
                let e = ev.probe(k);
                (
                    baseline.time.saturating_sub(e.time),
                    e.cost() - baseline.cost(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_like_problem;
    use mv_units::Gb;

    #[test]
    fn baseline_has_no_views() {
        let p = paper_like_problem();
        let base = p.baseline();
        assert_eq!(base.num_selected(), 0);
        assert_eq!(base.time, p.model().context().base_processing_time());
    }

    #[test]
    fn evaluate_uses_best_view_per_query() {
        let p = paper_like_problem();
        let all = SelectionSet::full(p.len());
        let e = p.evaluate(&all);
        assert!(e.time < p.baseline().time);
        assert_eq!(e.num_selected(), p.len());
    }

    #[test]
    fn linearized_deltas_have_nonnegative_savings() {
        let p = paper_like_problem();
        for (saving, _) in p.linearized_deltas() {
            assert!(saving >= Hours::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "query times")]
    fn misaligned_candidate_panics() {
        let p = paper_like_problem();
        let mut bad = p.candidates()[0].clone();
        bad.profile = mv_cost::AnswerProfile::none(p.model().context().workload.len() + 1);
        SelectionProblem::new(p.model().clone(), vec![bad]);
    }

    #[test]
    fn with_frequencies_is_the_hand_built_context() {
        // Re-weighting through the model must price exactly like a
        // context assembled by hand with the same frequencies — over
        // several fold blocks, selected views and all.
        for seed in 0..8u64 {
            let p = crate::fixtures::random_sparse_problem(seed, 150, 24, 0.1);
            let frequencies: Vec<f64> = (0..150)
                .map(|i| ((seed as usize + 7 * i) % 13) as f64 / 4.0)
                .collect();
            let mut ctx = p.model().context().clone();
            for (q, &f) in ctx.workload.iter_mut().zip(&frequencies) {
                q.frequency = f;
            }
            let by_hand = SelectionProblem::new(CloudCostModel::new(ctx), p.candidates().to_vec());
            let reweighted = SelectionProblem::new(
                p.model().with_frequencies(&frequencies),
                p.candidates().to_vec(),
            );
            let mut selection = SelectionSet::empty(p.len());
            for k in (seed as usize % 3..p.len()).step_by(3) {
                selection.set(k, true);
            }
            for s in [&selection, &SelectionSet::empty(p.len())] {
                let (a, b) = (reweighted.evaluate(s), by_hand.evaluate(s));
                assert_eq!(a, b, "seed {seed}");
                assert_eq!(a.time.value().to_bits(), b.time.value().to_bits());
            }
        }
    }

    #[test]
    fn evaluation_accessors() {
        let p = paper_like_problem();
        let e = p.baseline();
        assert_eq!(e.cost(), e.breakdown.total());
        assert!(e.cost() > mv_units::Money::ZERO);
        assert!(p.candidates()[0].size > Gb::ZERO);
        assert!(!p.is_empty());
    }
}
