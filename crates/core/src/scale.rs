//! Charged problems at benchmark scale.
//!
//! [`mv_lattice::ScaleShape`] generates coverage *structure* (which
//! candidate answers which query, how much faster) as pure numbers;
//! this module prices that structure into a real [`SelectionProblem`]
//! from the synthetic AWS-2012 parts in [`mv_select::fixtures`] — a
//! workload with skewed frequencies, per-view storage/build/maintenance
//! charges, the `small`-instance model — so the CLI and the benchmarks
//! share one construction path for the n = 2 000 / m = 50 000 regime.

use mv_lattice::ScaleShape;
use mv_select::fixtures::{aws_small_model, random_view, random_workload};
use mv_units::{Gb, Hours};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::SelectionProblem;

/// Builds a charged selection problem from a synthetic scale shape:
/// query base times 0.05–1 h with skewed frequencies, view sizes
/// 1 MB–8 GB, answer times = base × the coverage speedup fraction.
/// Deterministic per `shape.seed`.
pub fn scale_problem(shape: &ScaleShape) -> SelectionProblem {
    let cov = shape.sparse_coverage();
    let mut rng = StdRng::seed_from_u64(shape.seed ^ 0x4368_6172_6765);
    let workload = random_workload(&mut rng, shape.queries, true);
    let model = aws_small_model(workload, 2, Gb::new(100.0));
    let workload = &model.context().workload;
    let candidates = (0..cov.candidates())
        .map(|k| {
            let mut v = random_view(&mut rng, k, shape.queries);
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
