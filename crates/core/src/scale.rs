//! Charged problems at benchmark scale.
//!
//! [`mv_lattice::ScaleShape`] generates coverage *structure* (which
//! candidate answers which query, how much faster) as pure numbers;
//! this module is where that structure gets priced into a real
//! [`SelectionProblem`] — workload query charges, per-view
//! storage/build/maintenance charges, AWS-2012 pricing — so the CLI
//! and the `scale` benchmarks share one construction path for the
//! n = 2 000 / m = 50 000 regime.

use mv_cost::{CloudCostModel, CostContext, QueryCharge, ViewCharge};
use mv_lattice::scale::XorShift;
use mv_lattice::ScaleShape;
use mv_pricing::presets;
use mv_units::{Gb, Hours, Months};

use crate::SelectionProblem;

/// Builds a charged selection problem from a synthetic scale shape:
/// query base times 0.05–1 h with skewed frequencies, view sizes
/// 1 MB–8 GB, answer times = base × the coverage speedup fraction.
/// Deterministic per `shape.seed`.
pub fn scale_problem(shape: &ScaleShape) -> SelectionProblem {
    let cov = shape.sparse_coverage();
    let mut rng = XorShift(shape.seed ^ 0x4368_6172_6765);
    let workload: Vec<QueryCharge> = (0..shape.queries)
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
    let pricing = presets::aws_2012();
    let instance = pricing
        .compute
        .instance("small")
        .expect("aws-2012 preset ships a small instance")
        .clone();
    let model = CloudCostModel::new(CostContext {
        pricing,
        instance,
        nb_instances: 2,
        months: Months::new(1.0),
        dataset_size: Gb::new(100.0),
        inserts: vec![],
        workload: workload.clone(),
    });
    let candidates: Vec<ViewCharge> = (0..cov.candidates())
        .map(|k| {
            let mut v = ViewCharge::new(
                format!("v{k}"),
                Gb::new(rng.range(0.001, 8.0)),
                Hours::new(rng.range(0.01, 0.4)),
                Hours::new(rng.range(0.0, 0.2)),
                shape.queries,
            );
            let (ids, speedups) = cov.answer_list(k);
            for (&q, &f) in ids.iter().zip(speedups) {
                let base = workload[q as usize].base_time.value();
                v = v.answers(q as usize, Hours::new(base * f));
            }
            v
        })
        .collect();
    SelectionProblem::new(model, candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_select::{IncrementalEvaluator, SelectionSet};

    fn small_shape() -> ScaleShape {
        ScaleShape {
            queries: 300,
            candidates: 25,
            mean_coverage: 5,
            seed: 11,
        }
    }

    #[test]
    fn problem_matches_the_shape_and_is_deterministic() {
        let p = scale_problem(&small_shape());
        assert_eq!(p.len(), 25);
        assert_eq!(p.model().context().workload.len(), 300);
        let q = scale_problem(&small_shape());
        assert_eq!(p.candidates(), q.candidates());
    }

    #[test]
    fn answers_beat_their_base_times() {
        let p = scale_problem(&small_shape());
        let workload = &p.model().context().workload;
        for c in p.candidates() {
            assert!(c.profile.answered() >= 1);
            for (i, t) in c.profile.entries() {
                assert!(t < workload[i].base_time, "answer slower than base");
            }
        }
    }

    #[test]
    fn evaluator_parity_holds_on_a_scaled_problem() {
        let p = scale_problem(&small_shape());
        let mut ev = IncrementalEvaluator::new(&p);
        let mut sel = SelectionSet::empty(p.len());
        for k in (0..p.len()).step_by(3) {
            ev.flip(k);
            sel.set(k, true);
        }
        assert_eq!(ev.snapshot(), p.evaluate(&sel));
    }
}
