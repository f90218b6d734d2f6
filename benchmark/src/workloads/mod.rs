//! The four workloads. Each stresses different layers, so that for any
//! later optimisation one workload exercises its mechanism and another
//! bypasses it.

pub mod advise_cold;
pub mod advise_scale;
pub mod montecarlo;
pub mod serve_stream;

use mvcloud::select::{IncrementalEvaluator, SelectionSet};
use mvcloud::{Evaluation, Scenario, SelectionProblem};

use crate::harness::Layer;
use crate::stats::Fnv;
use crate::trace::{spanned, Tracer};

/// The tradeoff scenario every workload shares: MV3, α = 0.5, both
/// terms normalized by the no-view baseline.
pub fn scenario_mv3() -> Scenario {
    Scenario::tradeoff_normalized(0.5)
}

/// Folds an evaluation into a digest bit for bit.
pub fn digest_evaluation(digest: &mut Fnv, e: &Evaluation) {
    for k in e.selection.ones() {
        digest.u64(k as u64);
    }
    digest.f64(e.time.value());
    digest.u64(e.cost().micros() as u64);
}

/// The paper's improvement rate of `plan` over `baseline` under
/// `scenario`: (baseline objective − plan objective) / baseline
/// objective.
pub fn improvement(scenario: Scenario, plan: &Evaluation, baseline: &Evaluation) -> f64 {
    let base = scenario.objective(baseline, baseline);
    if base == 0.0 {
        return 0.0;
    }
    (base - scenario.objective(plan, baseline)) / base
}

/// The evaluator's primitives on `problem`, as probe spans: build, one
/// flip + snapshot + unflip sweep of every candidate, fork, retarget —
/// and the slow reference on `selection`.
pub fn probe_evaluator(
    problem: &SelectionProblem,
    selection: &SelectionSet,
    tracer: &mut Tracer,
    layer: &mut Layer,
) {
    let owned = problem.clone();
    let mut ev = spanned(tracer, "select.evaluator_build", || {
        IncrementalEvaluator::from_problem(owned)
    });
    let span = tracer.begin("select.probe_sweep");
    for k in 0..problem.len() {
        ev.flip(k);
        std::hint::black_box(ev.snapshot());
        ev.unflip(k);
    }
    tracer.end(span);
    layer.sample("select.probe_ns", tracer.last_ns() / problem.len() as f64);
    let mut fork = spanned(tracer, "select.fork", || ev.fork());
    let model = problem.model().clone();
    spanned(tracer, "select.retarget", || fork.retarget(model));
    spanned(tracer, "cost.full_evaluate", || problem.evaluate(selection));
}
