//! Ablation A1: the paper's linearized knapsack vs the
//! interaction-aware solvers, across all three scenarios on the same
//! problem. Runtime is measured here; the optimality gap is asserted in
//! `mv-select`'s tests and printed by `experiments ablations`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mv_select::{fixtures, Scenario, SolverKind};
use mv_units::{Hours, Money};

/// Short measurement windows keep `cargo bench --workspace` minutes,
/// not hours; absolute numbers matter less than the relative shapes.
fn fast_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}

fn bench_by_scenario(c: &mut Criterion) {
    let problem = fixtures::random_problem(3, 5, 12);
    let scenarios = [
        (
            "mv1",
            Scenario::budget(problem.baseline().cost() + Money::from_cents(60)),
        ),
        (
            "mv2",
            Scenario::time_limit(Hours::new(problem.baseline().time.value() * 0.5)),
        ),
        ("mv3", Scenario::tradeoff_normalized(0.5)),
    ];
    for (label, scenario) in scenarios {
        let mut group = c.benchmark_group(format!("ablation_solvers/{label}"));
        for solver in [
            SolverKind::PaperKnapsack,
            SolverKind::Greedy,
            SolverKind::BranchAndBound,
        ] {
            group.bench_with_input(
                BenchmarkId::from_parameter(solver.name()),
                &problem,
                |b, problem| {
                    b.iter(|| black_box(mv_select::solve(problem, scenario, solver).objective()))
                },
            );
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_by_scenario
}
criterion_main!(benches);
