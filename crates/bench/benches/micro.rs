//! The micro-benchmarks no `BENCHMARK.json` workload reaches.
//!
//! Every layer a workload runs is timed by a per-layer trace metric of
//! `mv-benchmark run --trace 1`; what is left here has no workload
//! behind it:
//!
//! * `obs/disabled/*`, `obs/enabled/*` — the telemetry registry's own
//!   cost. The `mv_obs` contract is *zero-cost-when-off*: every
//!   instrumentation site collapses to one relaxed atomic load while
//!   the registry is disabled. Each id runs 1000 sites per iteration,
//!   so per-site cost is the reading ÷ 1000. Nobody promises the
//!   enabled path is free, only that you opted into it.
//! * `calibrate/*` — `Advisor::calibrate` end to end (solve the horizon
//!   plan, replay it through the engine, fit the throughput law,
//!   reconcile the bills) at two epoch counts, and the least-squares
//!   fit alone over a synthetic metered sample set.
//! * `ablation_solvers/*` (A1) — the paper's linearized knapsack vs the
//!   interaction-aware solvers, across all three scenarios on the same
//!   problem. Runtime only; the optimality gap is asserted in
//!   `mv-select`'s tests and printed by `experiments ablations`.
//! * `ablation_maintenance/*` (A3) — incremental vs full view
//!   maintenance: the incremental path's work is proportional to the
//!   delta, the full path's to the whole base, which is what keeps the
//!   maintenance term of the paper's Formula 12 small.
//! * `engine/materialize/*`, `meter/answer_profile/*`,
//!   `meter/workload/*`, `meter/maintenance/*` — the engine passes
//!   `Advisor::build` no longer makes, each beside what replaced it: a
//!   cuboid built from the base table and rolled up from a finer view;
//!   and, executed and planned, a lattice's answer profile, the sales
//!   workload's scans of the base table and each SSB candidate's
//!   refresh by the 2 % maintenance batch (the last two planned while
//!   Σ|measure| fits `i64`). (`advise_cold`'s traced
//!   `engine.workload_exec_ms` and `engine.candidate_measure_ms` are the
//!   harness replaying the old procedure, so they cannot show these.)
//! * `ablation_parallel/*` (A4) — serial vs multi-threaded aggregation.
//!   Scan-bound coarse keys (few groups, cheap merge) parallelize;
//!   merge-bound fine keys (thousands of groups per partial) do not,
//!   which is why the throughput model charges scans, not merges.
//! * `evaluator/exhaustive_n20/*` — the 2²⁰-subset exhaustive sweep at
//!   one and eight threads.
//! * `select/probe/*`, `select/improve/*` — the read the move loops
//!   make, where the Monte-Carlo forests make it (the SSB advisor's 63
//!   cuboids over 13 queries, at the MV3 plan): one flip-on
//!   `IncrementalEvaluator::probe`, and one `local_search::improve`
//!   round that finds no move — n + s·u probes and 2·s toggles. And
//!   where the large solves make it, one probe per iteration walking
//!   every candidate in turn (flip-on and flip-off): an `advise_scale`
//!   problem (n = 1 000, m = 25 000) at the end of its 4-round LNS
//!   solve, and the `serve_stream` catalog (n = 256, m = 4 096) at the
//!   end of its greedy fill; and on that catalog at a local optimum,
//!   one no-move round — n + s·u moves, each ruled out by its bound or
//!   scored exactly (the SSB round's one fold block skips the bound).
//!   (The benchmark's `select.probe_ns` times
//!   `flip → snapshot → unflip`, the reference a probe is held to, not
//!   `probe`.)
//! * `cost/bill/*` — the bill a probe scores, alone: one
//!   `CloudCostModel::breakdown_from_totals` at the four totals of that
//!   same plan (three compute roundings and the tiered storage cost,
//!   each through `Money::scale`).
//!
//! Each id runs under [`timer::run`] (`tests/micro_timer.rs` holds its
//! two output lines). Timing mode prints one JSON object per id;
//! `BENCH_micro.json` at the repository root records one full run
//! (`cargo bench -p mv-bench --bench micro | grep '^{'`), and
//! `tests/micro_ledger.rs` fails when an id here has no record there.

mod timer;

use std::hint::black_box;

use mv_engine::{datagen, AggQuery, AggSpec, MaterializedView, SalesConfig, Table, ViewDefinition};
use mv_obs::{Counter, Hist};
use mv_select::lns::{solve_lns_with, LnsConfig};
use mv_select::{fixtures, local_search, IncrementalEvaluator, SelectionProblem, SolverKind};
use mvcloud::cost::{CalibratedParams, MeterSample, WorkKind};
use mvcloud::lattice::{ScaleShape, WorkloadEvolution};
use mvcloud::units::{Gb, Hours, Money};
use mvcloud::{
    sales_domain, scale_problem, ssb_domain, Advisor, AdvisorConfig, CalibrationConfig, Scenario,
};
use timer::run;

const SITES: usize = 1000;

/// The three site kinds both `obs` groups time.
fn bench_sites(group: &str) {
    run(group, "counter_inc_x1000", || {
        for _ in 0..SITES {
            mv_obs::inc(black_box(Counter::SearchProbes));
        }
    });
    run(group, "hist_record_x1000", || {
        for i in 0..SITES {
            mv_obs::record(black_box(Hist::LnsDestroySize), i as u64);
        }
    });
    run(group, "span_x1000", || {
        for _ in 0..SITES {
            mv_obs::span!("bench/span");
        }
    });
}

/// Must run first: nothing before it may have switched the registry on.
fn bench_obs_disabled() {
    assert!(
        !mv_obs::enabled(),
        "the disabled group must run with the registry off"
    );
    bench_sites("obs/disabled");
    run("obs/disabled", "mixed_site_x1000", || {
        for i in 0..SITES {
            mv_obs::inc(black_box(Counter::SearchProbes));
            mv_obs::record(black_box(Hist::LnsDestroySize), i as u64);
            mv_obs::span!("bench/site");
            if mv_obs::enabled() {
                mv_obs::event("bench_site", &[("i", i as f64)]);
            }
        }
    });
}

fn bench_obs_enabled() {
    let _on = mv_obs::EnableGuard::new();
    bench_sites("obs/enabled");
    run("obs/enabled", "event_x1000", || {
        for i in 0..SITES {
            mv_obs::event("bench_event", &[("i", i as f64)]);
        }
    });
}

/// The replay (engine scans, builds, refreshes) is the dominant term
/// and should scale roughly linearly in epochs.
fn bench_calibration_loop() {
    let advisor = Advisor::build(
        sales_domain(1_000, 3, 2.0, 42),
        AdvisorConfig {
            simulated_dataset: Gb::new(500.0),
            ..AdvisorConfig::default()
        },
    )
    .expect("advisor builds");
    let scenario = Scenario::tradeoff_normalized(0.5);
    for epochs in [2usize, 6] {
        let config = CalibrationConfig {
            epochs,
            evolution: WorkloadEvolution::fixed(),
            ..CalibrationConfig::default()
        };
        let id = format!("e{epochs}");
        run("calibrate/loop_sales_r1000_q3", &id, || {
            let report = advisor.calibrate(scenario, &config).expect("calibrates");
            report.holdout_fitted_rel_error
        });
    }
}

fn bench_calibration_fit() {
    // A deterministic metered sample cloud around the default law
    // (25 GB/h/unit, 0.01 h overhead, 2 units).
    let samples: Vec<MeterSample> = (0..512)
        .map(|i| {
            let gb = 1.0 + (i % 97) as f64 * 5.0;
            let kind = match i % 3 {
                0 => WorkKind::Scan,
                1 => WorkKind::Materialize,
                _ => WorkKind::Refresh,
            };
            MeterSample::new(kind, Gb::new(gb), Hours::new(0.01 + gb / 50.0))
        })
        .collect();
    run("calibrate/fit", "n512", || {
        CalibratedParams::fit(black_box(&samples), 2.0)
    });
}

fn bench_solvers_by_scenario() {
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
        let group = format!("ablation_solvers/{label}");
        for solver in [
            SolverKind::PaperKnapsack,
            SolverKind::Greedy,
            SolverKind::BranchAndBound,
        ] {
            run(&group, solver.name(), || {
                mv_select::solve(&problem, scenario, solver).objective()
            });
        }
    }
}

fn bench_maintenance() {
    let cfg = SalesConfig::with_rows(20_000);
    let mut base = datagen::generate_sales(&cfg);
    let delta = datagen::generate_delta(&cfg, 400, 2011, 1); // 2% of base
    let def = ViewDefinition::canonical(
        "v",
        &["year", "month", "country"],
        &[
            AggSpec::sum("profit"),
            AggSpec::min("profit"),
            AggSpec::max("profit"),
        ],
    );
    let view = MaterializedView::materialize(def, &base).unwrap();
    base.append(&delta).unwrap();

    run("ablation_maintenance", "incremental/2pct_delta", || {
        let mut v = view.clone();
        v.refresh_incremental(&delta).unwrap().rows_scanned
    });
    run("ablation_maintenance", "full/rebuild", || {
        let mut v = view.clone();
        v.refresh_full(&base).unwrap().rows_scanned
    });
}

/// One candidate view built twice: from the 20 000 base rows, and
/// rolled up from the finest candidate of the sales lattice
/// (day×region, ≈ 16 000 stored rows). That is the least a roll-up
/// saves — a pass costs about the same per row on either table — and
/// the advisor picks the *smallest* measured view that derives the
/// cuboid (month×region here, under 2 000 rows).
fn bench_materialize() {
    let base = datagen::generate_sales(&SalesConfig::with_rows(20_000));
    let sum = [AggSpec::sum("profit")];
    let finest = ViewDefinition::canonical(
        "day×region",
        &["year", "month", "day", "country", "region"],
        &sum,
    );
    let finest = MaterializedView::materialize(finest, &base).unwrap();
    let def = ViewDefinition::canonical("month×country", &["year", "month", "country"], &sum);
    run("engine/materialize", "from_base", || {
        MaterializedView::materialize(def.clone(), black_box(&base)).unwrap()
    });
    run("engine/materialize", "roll_up", || {
        MaterializedView::roll_up(def.clone(), black_box(&finest)).unwrap()
    });
}

/// The scan bytes the meter reads, each from running the pass and
/// dropping its table and from the planner: the answer profile of every
/// candidate of the sales advisor (r 20 000, 10 queries, 15 views) and
/// its workload's scans of the base table; one refresh of each of the
/// SSB advisor's 63 candidates (r 4 000) by the 2 % batch, a replayed
/// sample of the base rows as the advisor's is for that schema.
fn bench_meter() {
    let advisor = Advisor::build(sales_domain(20_000, 10, 1.0, 42), AdvisorConfig::default())
        .expect("advisor builds");
    let profile = |bytes: &dyn Fn(&MaterializedView, &AggQuery) -> Option<u64>| -> u64 {
        let views = advisor.candidates().iter().map(|m| &m.view);
        views
            .flat_map(|v| advisor.queries().iter().filter_map(move |q| bytes(v, q)))
            .sum()
    };
    run("meter/answer_profile", "executed", || {
        profile(&|v, q| v.answer(q).ok().map(|(_, stats)| stats.bytes_scanned))
    });
    run("meter/answer_profile", "planned", || {
        profile(&|v, q| v.planned_scan_bytes(q).ok())
    });
    let (queries, base) = (advisor.queries(), &advisor.domain().base);
    run("meter/workload", "executed", || {
        let scans = queries.iter().map(|q| q.execute(base).unwrap().1);
        scans.map(|stats| stats.bytes_scanned).sum::<u64>()
    });
    run("meter/workload", "planned", || {
        let scans = queries.iter().map(|q| q.planned_scan(base).unwrap());
        scans.map(|(bytes, _)| bytes).sum::<u64>()
    });

    let ssb = Advisor::build(ssb_domain(4_000, 1.0, 42), AdvisorConfig::default())
        .expect("advisor builds");
    let base = &ssb.domain().base;
    let rows = (base.num_rows() as f64 * ssb.config().maintenance_delta_fraction) as usize;
    let mut batch = Table::empty(base.schema().clone());
    for r in 0..rows {
        batch.push_row(&base.row(r * 37 % base.num_rows())).unwrap();
    }
    let views = || ssb.candidates().iter().map(|m| &m.view);
    run("meter/maintenance", "executed", || {
        let refreshes = views().map(|v| v.clone().refresh_incremental(&batch).unwrap());
        refreshes.map(|stats| stats.bytes_scanned).sum::<u64>()
    });
    run("meter/maintenance", "planned", || {
        let scans = views().map(|v| v.def().as_query().planned_scan(&batch).unwrap());
        scans.map(|(bytes, _)| bytes).sum::<u64>()
    });
}

fn bench_aggregation_threads() {
    let table = datagen::generate_sales(&SalesConfig::with_rows(200_000));
    let cases = [
        (
            "coarse_key",
            AggQuery::new("q", &["country"], vec![AggSpec::sum("profit")]),
        ),
        (
            "fine_key",
            AggQuery::new(
                "q",
                &["year", "month", "country", "region"],
                vec![AggSpec::sum("profit"), AggSpec::avg("profit")],
            ),
        ),
    ];
    for (label, query) in cases {
        let group = format!("ablation_parallel/{label}");
        for threads in [1usize, 2, 4] {
            run(&group, &threads.to_string(), || {
                let (out, _) = query
                    .execute_with_threads(black_box(&table), threads)
                    .unwrap();
                out.num_rows()
            });
        }
    }
}

/// A full sweep evaluates 1 048 576 subsets, so only the incremental
/// walk is timed, serial and fanned out.
fn bench_exhaustive_threads() {
    let problem = fixtures::random_problem(29, 6, 20);
    let scenario = Scenario::tradeoff_normalized(0.5);
    for threads in [1usize, 8] {
        let id = format!("incremental_t{threads}");
        run("evaluator/exhaustive_n20", &id, || {
            mv_select::solve_exhaustive_with_threads(&problem, scenario, threads).objective()
        });
    }
}

/// The bill, a probe and a no-move round at a node of `montecarlo`'s SSB forest:
/// r 2 000, 63 cuboids, 13 queries, standing on the local-search plan.
fn bench_probe_and_round() {
    let advisor = Advisor::build(ssb_domain(2_000, 1.0, 42), AdvisorConfig::default())
        .expect("advisor builds");
    let problem = advisor.problem();
    let scenario = Scenario::tradeoff_normalized(0.5);
    let baseline = problem.baseline();
    let mut ev = IncrementalEvaluator::new(problem);
    local_search::greedy_fill(&mut ev, scenario, &baseline);
    local_search::improve(&mut ev, scenario, &baseline, usize::MAX);
    let unselected = (0..problem.len())
        .find(|&k| !ev.is_selected(k))
        .expect("an unselected view");
    let (model, views, plan) = (problem.model(), problem.candidates(), ev.selection());
    let processing = model.processing_time_with_views(views, plan);
    let maintenance = model.maintenance_time(views, plan);
    let materialization = model.materialization_time(views, plan);
    let size = model.views_size(views, plan);
    run("cost/bill", "ssb_n63", || {
        model.breakdown_from_totals(
            black_box(processing),
            black_box(maintenance),
            black_box(materialization),
            black_box(size),
        )
    });
    run("select/probe", "ssb_n63", || {
        ev.probe(black_box(unselected))
    });
    run("select/improve", "warm_round_ssb_n63", || {
        local_search::improve(&mut ev, scenario, &baseline, 1).time
    });
}

/// One probe per iteration, walking every candidate of `problem` in
/// turn from the evaluator standing on `plan`.
fn bench_probe_walk(id: &str, problem: &SelectionProblem, plan: &mvcloud::cost::SelectionSet) {
    let mut ev = IncrementalEvaluator::with_selection(problem, plan);
    ev.score();
    let n = problem.len();
    let mut k = 0;
    run("select/probe", id, || {
        k = (k + 1) % n;
        ev.probe(black_box(k))
    });
}

/// The probe at the large shapes: an `advise_scale` problem at the end
/// of its LNS solve, the `serve_stream` catalog at the end of its
/// greedy fill — and a no-move round of the move loop on that catalog.
fn bench_probe_at_scale() {
    let scenario = Scenario::tradeoff_normalized(0.5);
    let lns = scale_problem(&ScaleShape {
        queries: 25_000,
        candidates: 1_000,
        mean_coverage: 12,
        seed: 7,
    });
    let config = LnsConfig {
        rounds: 4,
        ..LnsConfig::for_problem(lns.len())
    };
    let plan = solve_lns_with(&lns, scenario, &config).evaluation.selection;
    bench_probe_walk("lns_n1000_m25000", &lns, &plan);

    let resident = scale_problem(&ScaleShape {
        queries: 4_096,
        candidates: 256,
        mean_coverage: 12,
        seed: 0x0063_6174_616c_6f67,
    });
    let baseline = resident.baseline();
    let mut ev = IncrementalEvaluator::new(&resident);
    let plan = local_search::greedy_fill(&mut ev, scenario, &baseline).selection;
    bench_probe_walk("resident_n256_m4096", &resident, &plan);
    // On to a local optimum, where a round offers every move and
    // applies none: ≈ 16 K moves, nearly all ruled out by their bound.
    local_search::improve(&mut ev, scenario, &baseline, usize::MAX);
    run(
        "select/improve",
        "no_move_round_resident_n256_m4096",
        || local_search::improve(&mut ev, scenario, &baseline, 1).time,
    );
}

fn main() {
    bench_obs_disabled();
    bench_obs_enabled();
    bench_calibration_loop();
    bench_calibration_fit();
    bench_solvers_by_scenario();
    bench_maintenance();
    bench_materialize();
    bench_meter();
    bench_aggregation_threads();
    bench_exhaustive_threads();
    bench_probe_and_round();
    bench_probe_at_scale();
}
