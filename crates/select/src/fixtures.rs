//! Problem fixtures shared by unit tests, property tests, benches and
//! examples, and the parts of the synthetic AWS-2012 problem they and
//! `mvcloud::scale_problem` draw from one seeded `StdRng`: a workload
//! ([`random_workload`]), a candidate's charges ([`random_view`]) and
//! the priced model ([`aws_small_model`]).

use mv_cost::{
    CloudCostModel, CostContext, QueryCharge, SelectionSet, ViewCharge, TIME_FOLD_BLOCK,
};
use mv_pricing::presets;
use mv_units::{Gb, Hours, Months};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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
    let workload = vec![
        QueryCharge::new("Q1", Gb::new(0.4), Hours::new(0.21)),
        QueryCharge::new("Q2", Gb::new(0.6), Hours::new(0.21)),
        QueryCharge::new("Q3", Gb::new(0.2), Hours::new(0.21)),
    ];
    let model = aws_small_model(workload, 2, Gb::new(10.0));
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
    let models: Vec<CloudCostModel> = (0..epochs)
        .map(|e| {
            let (f1, f2) = if e % 2 == 0 { (5.0, 0.2) } else { (0.2, 5.0) };
            let mut q1 = QueryCharge::new("Q1", Gb::new(0.01), Hours::new(10.0));
            q1.frequency = f1;
            let mut q2 = QueryCharge::new("Q2", Gb::new(0.01), Hours::new(10.0));
            q2.frequency = f2;
            aws_small_model(vec![q1, q2], 1, Gb::new(10.0))
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

/// `n` synthetic queries `Q0…`: per query a result size (0.05–2 GB), a
/// base time (0.05–1 h) and, if `frequencies`, a frequency (0.2–5),
/// drawn in that order. One part of the synthetic AWS-2012 problem the
/// fixtures below and `mvcloud::scale_problem` assemble.
pub fn random_workload(rng: &mut StdRng, n: usize, frequencies: bool) -> Vec<QueryCharge> {
    (0..n)
        .map(|i| {
            let mut q = QueryCharge::new(
                format!("Q{i}"),
                Gb::new(rng.random_range(0.05..2.0)),
                Hours::new(rng.random_range(0.05..1.0)),
            );
            if frequencies {
                q.frequency = rng.random_range(0.2..5.0);
            }
            q
        })
        .collect()
}

/// Candidate `v{k}` over an `m`-query workload, answering nothing yet:
/// a size (1 MB–8 GB), a build time (0.01–0.4 h) and a refresh time
/// (0–0.2 h), drawn in that order.
pub fn random_view(rng: &mut StdRng, k: usize, m: usize) -> ViewCharge {
    ViewCharge::new(
        format!("v{k}"),
        Gb::new(rng.random_range(0.001..8.0)),
        Hours::new(rng.random_range(0.01..0.4)),
        Hours::new(rng.random_range(0.0..0.2)),
        m,
    )
}

/// `workload` priced on AWS-2012 `small` instances over one month.
pub fn aws_small_model(
    workload: Vec<QueryCharge>,
    nb_instances: u32,
    dataset_size: Gb,
) -> CloudCostModel {
    let pricing = presets::aws_2012();
    let instance = pricing
        .compute
        .instance("small")
        .expect("aws-2012 preset ships a small instance")
        .clone();
    CloudCostModel::new(CostContext {
        pricing,
        instance,
        nb_instances,
        months: Months::new(1.0),
        dataset_size,
        workload,
    })
}

/// A random problem with `n_queries` queries and `n_candidates` candidate
/// views. Each candidate answers a random subset of queries with a random
/// speedup. Used by the solver-equivalence property tests: exhaustive
/// search is the ground truth the other solvers are checked against.
pub fn random_problem(seed: u64, n_queries: usize, n_candidates: usize) -> SelectionProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = random_workload(&mut rng, n_queries, false);
    let dataset_size = Gb::new(rng.random_range(1.0..50.0));
    let model = aws_small_model(workload, 1 + (seed % 3) as u32, dataset_size);
    let workload = &model.context().workload;
    let candidates: Vec<ViewCharge> = (0..n_candidates)
        .map(|k| {
            let mut v = random_view(&mut rng, k, n_queries);
            for (i, q) in workload.iter().enumerate() {
                if rng.random_range(0.0..1.0) < 0.6 {
                    // Speedup factor between 2x and 50x.
                    let t = q.base_time.value() / rng.random_range(2.0..50.0);
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
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5370_6172_7365);
    let workload = random_workload(&mut rng, n_queries, true);
    let dataset_size = Gb::new(rng.random_range(1.0..50.0));
    let model = aws_small_model(workload, 1 + (seed % 3) as u32, dataset_size);
    let workload = &model.context().workload;
    let candidates: Vec<ViewCharge> = (0..n_candidates)
        .map(|k| {
            let mut v = random_view(&mut rng, k, n_queries);
            let mut answered = 0;
            for (i, q) in workload.iter().enumerate() {
                if rng.random_range(0.0..1.0) < density {
                    let t = q.base_time.value() / rng.random_range(2.0..50.0);
                    v = v.answers(i, Hours::new(t));
                    answered += 1;
                }
            }
            if answered == 0 && density > 0.0 && n_queries > 0 {
                // Keep every candidate relevant: answer one random query.
                let i = (rng.next_u64() as usize) % n_queries;
                let t = workload[i].base_time.value() / rng.random_range(2.0..50.0);
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
#[cfg(test)]
pub(crate) fn with_tied_times(problem: &SelectionProblem) -> SelectionProblem {
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
