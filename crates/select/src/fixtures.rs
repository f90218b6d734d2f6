//! Problem fixtures shared by unit tests, property tests, benches and
//! examples.

use mv_cost::{
    CloudCostModel, CostContext, QueryCharge, SelectionSet, ViewCharge, TIME_FOLD_BLOCK,
};
use mv_pricing::presets;
use mv_units::{Gb, Hours, Months};

use crate::epoch::EpochChain;
use crate::{Evaluation, SelectionProblem};

/// The slow reference [`SelectionProblem::evaluate`] is differentially
/// tested against: Formula 9 one query at a time through
/// `CloudCostModel::query_time_with_views` (every selected view probed
/// per query, O(m · selected · log deg)), the canonical blocked fold
/// over those, and the per-view totals summed by testing every
/// candidate's bit in turn. No non-test caller.
pub fn reference_evaluate(problem: &SelectionProblem, selection: &SelectionSet) -> Evaluation {
    let model = problem.model();
    let views = problem.candidates();
    let workload = &model.context().workload;
    let mut time = Hours::ZERO;
    for (b, block) in workload.chunks(TIME_FOLD_BLOCK).enumerate() {
        let mut sum = Hours::ZERO;
        for (j, q) in block.iter().enumerate() {
            let i = b * TIME_FOLD_BLOCK + j;
            sum += model.query_time_with_views(i, views, selection) * q.frequency;
        }
        time += sum;
    }
    let chosen = || (0..views.len()).filter(|&k| selection.contains(k));
    Evaluation {
        time,
        breakdown: model.breakdown_from_totals(
            time,
            chosen().map(|k| views[k].maintenance).sum(),
            chosen().map(|k| views[k].materialization).sum(),
            chosen().map(|k| views[k].size).sum(),
        ),
        selection: selection.clone(),
    }
}

/// A small deterministic problem shaped like the paper's experiment: a
/// 10 GB dataset, a handful of roll-up queries and candidate views whose
/// speedups overlap (so view interactions matter), priced on AWS-2012 with
/// two small instances over one month. No non-test caller: the problem
/// every solver's and the evaluator's unit tests start from.
pub fn paper_like_problem() -> SelectionProblem {
    let pricing = presets::aws_2012();
    let instance = pricing.compute.instance("small").unwrap().clone();
    let model = CloudCostModel::new(CostContext {
        pricing,
        instance,
        nb_instances: 2,
        months: Months::new(1.0),
        dataset_size: Gb::new(10.0),
        inserts: vec![],
        workload: vec![
            QueryCharge::new("Q1", Gb::new(0.4), Hours::new(0.21)),
            QueryCharge::new("Q2", Gb::new(0.6), Hours::new(0.21)),
            QueryCharge::new("Q3", Gb::new(0.2), Hours::new(0.21)),
        ],
    });
    let candidates = vec![
        // A coarse, cheap view serving Q1 only.
        ViewCharge::new(
            "v-year-country",
            Gb::new(0.01),
            Hours::new(0.22),
            Hours::new(0.02),
            3,
        )
        .answers(0, Hours::new(0.011)),
        // A mid view serving Q1 and Q2.
        ViewCharge::new(
            "v-month-country",
            Gb::new(0.05),
            Hours::new(0.23),
            Hours::new(0.03),
            3,
        )
        .answers(0, Hours::new(0.012))
        .answers(1, Hours::new(0.012)),
        // A big view serving all three queries, slower per query.
        ViewCharge::new(
            "v-day-region",
            Gb::new(0.8),
            Hours::new(0.25),
            Hours::new(0.05),
            3,
        )
        .answers(0, Hours::new(0.03))
        .answers(1, Hours::new(0.03))
        .answers(2, Hours::new(0.03)),
        // A view whose storage outweighs its tiny benefit.
        ViewCharge::new(
            "v-bulky",
            Gb::new(6.0),
            Hours::new(0.26),
            Hours::new(0.08),
            3,
        )
        .answers(2, Hours::new(0.2)),
    ];
    SelectionProblem::new(model, candidates)
}

/// The alternating two-specialist billing horizon used by the
/// chain-vs-myopic regressions: each epoch one of two queries is hot
/// (frequency 5) and the other cold (0.2), and each query has a
/// specialist view with a hefty 8-hour build. A transition-blind solver
/// flips between the specialists every epoch, re-paying a
/// materialization the transition-aware chain treats as sunk once both
/// are resident — so the chain's horizon total is strictly cheaper.
/// Test fixture: no non-test caller (`epoch.rs`'s tests and
/// `epoch/oracle_tests.rs`).
pub fn churn_chain(epochs: usize) -> EpochChain {
    let pricing = presets::aws_2012();
    let instance = pricing.compute.instance("small").unwrap().clone();
    let models: Vec<CloudCostModel> = (0..epochs)
        .map(|e| {
            let (f1, f2) = if e % 2 == 0 { (5.0, 0.2) } else { (0.2, 5.0) };
            let mut q1 = QueryCharge::new("Q1", Gb::new(0.01), Hours::new(10.0));
            q1.frequency = f1;
            let mut q2 = QueryCharge::new("Q2", Gb::new(0.01), Hours::new(10.0));
            q2.frequency = f2;
            CloudCostModel::new(CostContext {
                pricing: pricing.clone(),
                instance: instance.clone(),
                nb_instances: 1,
                months: Months::new(1.0),
                dataset_size: Gb::new(10.0),
                inserts: vec![],
                workload: vec![q1, q2],
            })
        })
        .collect();
    let pool = vec![
        ViewCharge::new("spec-Q1", Gb::new(1.0), Hours::new(8.0), Hours::new(0.5), 2)
            .answers(0, Hours::new(0.5)),
        ViewCharge::new("spec-Q2", Gb::new(1.0), Hours::new(8.0), Hours::new(0.5), 2)
            .answers(1, Hours::new(0.5)),
    ];
    EpochChain::new(models, pool)
}

/// Deterministic SplitMix64 generator, so the fixtures and the LNS
/// destroy step need no external RNG and their streams never move.
pub(crate) struct XorShift(pub(crate) u64);

impl XorShift {
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e3779b97f4a7c15);
        self.0 = x;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    /// Uniform float in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }
}

/// A random problem with `n_queries` queries and `n_candidates` candidate
/// views. Each candidate answers a random subset of queries with a random
/// speedup. Used by the solver-equivalence property tests: exhaustive
/// search is the ground truth the other solvers are checked against.
pub fn random_problem(seed: u64, n_queries: usize, n_candidates: usize) -> SelectionProblem {
    let mut rng = XorShift(seed);
    let pricing = presets::aws_2012();
    let instance = pricing.compute.instance("small").unwrap().clone();
    let workload: Vec<QueryCharge> = (0..n_queries)
        .map(|i| {
            QueryCharge::new(
                format!("Q{i}"),
                Gb::new(rng.range(0.05, 2.0)),
                Hours::new(rng.range(0.05, 1.0)),
            )
        })
        .collect();
    let model = CloudCostModel::new(CostContext {
        pricing,
        instance,
        nb_instances: 1 + (seed % 3) as u32,
        months: Months::new(1.0),
        dataset_size: Gb::new(rng.range(1.0, 50.0)),
        inserts: vec![],
        workload: workload.clone(),
    });
    let candidates: Vec<ViewCharge> = (0..n_candidates)
        .map(|k| {
            let mut v = ViewCharge::new(
                format!("v{k}"),
                Gb::new(rng.range(0.001, 8.0)),
                Hours::new(rng.range(0.01, 0.4)),
                Hours::new(rng.range(0.0, 0.2)),
                n_queries,
            );
            for (i, q) in workload.iter().enumerate() {
                if rng.next_f64() < 0.6 {
                    // Speedup factor between 2x and 50x.
                    let t = q.base_time.value() / rng.range(2.0, 50.0);
                    v = v.answers(i, Hours::new(t));
                }
            }
            v
        })
        .collect();
    SelectionProblem::new(model, candidates)
}

/// A random problem in the *sparse* regime the scaled evaluator is
/// built for: each candidate answers roughly `density`·`n_queries`
/// queries (clamped to at least one for positive densities), with
/// non-uniform query frequencies so the frequency-weighted folds are
/// exercised. Density sets how many answerers a query has — none or
/// one at a few percent, most of the pool at 90 % — which is the length
/// of its row in the evaluator's by-query index. Test fixture: no
/// non-test caller (the evaluator's differential and allocation tests).
pub fn random_sparse_problem(
    seed: u64,
    n_queries: usize,
    n_candidates: usize,
    density: f64,
) -> SelectionProblem {
    let mut rng = XorShift(seed ^ 0x5370_6172_7365);
    let pricing = presets::aws_2012();
    let instance = pricing.compute.instance("small").unwrap().clone();
    let workload: Vec<QueryCharge> = (0..n_queries)
        .map(|i| {
            let mut q = QueryCharge::new(
                format!("Q{i}"),
                Gb::new(rng.range(0.05, 2.0)),
                Hours::new(rng.range(0.05, 1.0)),
            );
            q.frequency = rng.range(0.2, 5.0);
            q
        })
        .collect();
    let model = CloudCostModel::new(CostContext {
        pricing,
        instance,
        nb_instances: 1 + (seed % 3) as u32,
        months: Months::new(1.0),
        dataset_size: Gb::new(rng.range(1.0, 50.0)),
        inserts: vec![],
        workload: workload.clone(),
    });
    let candidates: Vec<ViewCharge> = (0..n_candidates)
        .map(|k| {
            let mut v = ViewCharge::new(
                format!("v{k}"),
                Gb::new(rng.range(0.001, 8.0)),
                Hours::new(rng.range(0.01, 0.4)),
                Hours::new(rng.range(0.0, 0.2)),
                n_queries,
            );
            let mut answered = 0;
            for (i, q) in workload.iter().enumerate() {
                if rng.next_f64() < density {
                    let t = q.base_time.value() / rng.range(2.0, 50.0);
                    v = v.answers(i, Hours::new(t));
                    answered += 1;
                }
            }
            if answered == 0 && density > 0.0 && n_queries > 0 {
                // Keep every candidate relevant: answer one random query.
                let i = (rng.next_u64() as usize) % n_queries;
                let t = workload[i].base_time.value() / rng.range(2.0, 50.0);
                v = v.answers(i, Hours::new(t));
            }
            v
        })
        .collect();
    SelectionProblem::new(model, candidates)
}

/// `problem` with every answer time snapped to one of four levels (all
/// below any base time), so most queries have several answerers tied
/// for fastest and for runner-up. Test fixture: no non-test caller
/// (`evaluator/probe_tests.rs`, `local_search`'s reference proptest).
pub fn with_tied_times(problem: &SelectionProblem) -> SelectionProblem {
    let mut candidates = problem.candidates().to_vec();
    for v in &mut candidates {
        let entries: Vec<(usize, Hours)> = v.profile.entries().collect();
        for (i, t) in entries {
            let level = 1 + t.value().to_bits() % 4;
            v.profile.set(i, Hours::new(0.002 * level as f64));
        }
    }
    SelectionProblem::new(problem.model().clone(), candidates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic() {
        let a = random_problem(9, 3, 4);
        let b = random_problem(9, 3, 4);
        assert_eq!(a.candidates(), b.candidates());
        let c = random_problem(10, 3, 4);
        assert_ne!(a.candidates(), c.candidates());
    }

    #[test]
    fn sparse_fixture_is_deterministic_and_sparse() {
        let a = random_sparse_problem(5, 40, 12, 0.1);
        let b = random_sparse_problem(5, 40, 12, 0.1);
        assert_eq!(a.candidates(), b.candidates());
        // Every candidate answers something, and the pool is far from
        // dense overall.
        let degrees: Vec<usize> = a
            .candidates()
            .iter()
            .map(|c| c.profile.answered())
            .collect();
        assert!(degrees.iter().all(|&d| d >= 1));
        let total: usize = degrees.iter().sum();
        assert!(total < 40 * 12 / 2, "unexpectedly dense: {total}");
    }

    #[test]
    fn paper_like_problem_shape() {
        let p = paper_like_problem();
        assert_eq!(p.len(), 4);
        assert_eq!(p.model().context().workload.len(), 3);
    }
}
