//! Regenerates the paper's tables and figures, one subcommand each:
//!
//! ```text
//! experiments excerpt     Table 1: the sales dataset excerpt, a generated sample, the lattice
//! experiments pricing     Tables 2-4: the provider pricing sheets
//! experiments examples    worked Examples 1-9 (Sections 3-4) and the Section 1 figures
//! experiments space       Figures 2-4: the (time, cost) solution space of each scenario
//! experiments mv1         Table 6 / Figure 5(a): minimize time under a budget
//! experiments mv2         Table 7 / Figure 5(b): minimize cost under a time limit
//! experiments mv3         Table 8 / Figures 5(c,d): the weighted tradeoff
//! experiments sweeps      the continuous curves behind Figure 5, as CSV under results/
//! experiments ablations   A1 solver gap, A2 tier modes, A5 rounding scope
//! experiments all [--out DIR]   mv1-mv3 as CSV series under DIR (default results/)
//! ```
//!
//! Every run is seeded: `tests/experiments_reference.rs` holds each
//! subcommand to its recorded output.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use mv_bench::experiments::{
    build_advisor, scenario_mv1, scenario_mv2, scenario_mv3, ScenarioRow, ENGINE_ROWS, SEED,
};
use mv_bench::{paper, render_comparison, render_scenario_csv, render_scenario_table};
use mv_pricing::{presets, BillingRounding, RoundingScope, StorageTimeline, TierMode};
use mv_select::{fixtures, pareto, Scenario, SolverKind};
use mv_units::{Gb, Hours, Money, Months};
use mvcloud::cost::{CloudCostModel, CostContext, QueryCharge, SelectionSet, ViewCharge};
use mvcloud::engine::{datagen, SalesConfig};
use mvcloud::lattice::Lattice;
use mvcloud::report::{pct, render_table};
use mvcloud::whatif::{alpha_sweep, budget_sweep, deadline_sweep, sweep_csv};
use mvcloud::{sales_domain, Advisor, AdvisorConfig, CandidateStrategy, SizingMode};

const USAGE: &str = "usage: experiments \
    excerpt|pricing|examples|space|mv1|mv2|mv3|sweeps|ablations|all [--out DIR]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["excerpt"] => excerpt(),
        ["pricing"] => pricing(),
        ["examples"] => examples(),
        ["space"] => space(),
        ["mv1"] => mv1(),
        ["mv2"] => mv2(),
        ["mv3"] => mv3(),
        ["sweeps"] => sweeps(),
        ["ablations"] => {
            a1_solver_gap();
            a2_tier_modes();
            a5_rounding_scope();
        }
        ["all"] => all(Path::new("results")),
        ["all", "--out", dir] => all(Path::new(dir)),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// **Table 1**: the sales dataset excerpt, plus a sample of the
/// generated dataset and its lattice.
fn excerpt() {
    println!("== Table 1: sales dataset excerpt ==");
    println!("{}\n", datagen::paper_excerpt().render(4));

    println!("== Generated dataset sample (seed 42) ==");
    let t = datagen::generate_sales(&SalesConfig::with_rows(1_000));
    println!("{}\n", t.render(8));
    println!(
        "rows: {}, engine size: {}, distinct countries: {}",
        t.num_rows(),
        t.size(),
        t.column_by_name("country")
            .unwrap()
            .as_str()
            .unwrap()
            .1
            .len()
    );

    println!("\n== The 16-cuboid lattice of the running example ==");
    let lattice = Lattice::paper_running_example();
    for c in lattice.all_cuboids() {
        println!(
            "  {:<22} key columns: [{}]  domain: {}",
            lattice.label(&c),
            lattice.key_columns(&c).join(", "),
            lattice.domain_size(&c)
        );
    }
}

/// **Tables 2, 3 and 4**: the provider pricing sheets.
fn pricing() {
    let aws = presets::aws_2012();

    println!("== Table 2: EC2 computing prices ==");
    let rows: Vec<Vec<String>> = aws
        .compute
        .catalog
        .all()
        .iter()
        .map(|i| {
            vec![
                i.name.clone(),
                format!("{} per hour", i.hourly),
                format!("{:.1} GB RAM", i.ram.value()),
                format!("{} ECU", i.compute_units),
                format!("{:.0} GB local", i.local_storage.value()),
            ]
        })
        .collect();
    println!(
        "{}\n",
        render_table(
            &["instance", "price", "memory", "compute", "storage"],
            &rows
        )
    );

    println!("== Table 3: bandwidth prices (outbound; inbound free) ==");
    let rows: Vec<Vec<String>> = aws
        .transfer
        .outbound
        .tiers()
        .iter()
        .map(|t| {
            vec![
                match t.upto {
                    Some(upto) => format!("up to {upto}"),
                    None => "beyond".to_string(),
                },
                format!("{} per GB", t.rate),
            ]
        })
        .collect();
    println!("{}\n", render_table(&["volume", "price"], &rows));

    println!("== Table 4: storage prices (per month) ==");
    let rows: Vec<Vec<String>> = aws
        .storage
        .monthly
        .tiers()
        .iter()
        .map(|t| {
            vec![
                match t.upto {
                    Some(upto) => format!("up to {upto}"),
                    None => "beyond".to_string(),
                },
                format!("{} per GB", t.rate),
            ]
        })
        .collect();
    println!("{}\n", render_table(&["volume", "price"], &rows));

    println!("== Extension: all provider presets (future work #1) ==");
    for p in presets::all() {
        println!(
            "  {:<18} {} instance types, inbound free: {}",
            p.name,
            p.compute.catalog.all().len(),
            p.transfer.inbound_is_free(),
        );
    }
}

/// The paper's worked **Examples 1–9** (§3–§4) and the §1 introduction
/// figures, computed vs paper.
fn examples() {
    let pricing = presets::aws_2012();
    let instance = pricing.compute.instance("small").unwrap().clone();
    let model = CloudCostModel::new(CostContext {
        pricing: pricing.clone(),
        instance,
        nb_instances: 2,
        months: Months::new(12.0),
        dataset_size: Gb::new(500.0),
        workload: vec![QueryCharge::new("Q", Gb::new(10.0), Hours::new(50.0))],
    });
    let v1 = ViewCharge::new("V1", Gb::new(50.0), Hours::new(1.0), Hours::new(5.0), 1)
        .answers(0, Hours::new(40.0));
    let with_views = model.with_views(&[v1], &SelectionSet::full(1));

    // Example 3's storage timeline.
    let mut tl = StorageTimeline::new(Gb::from_tb(0.5), Months::new(12.0));
    tl.insert(Months::new(7.0), Gb::from_tb(2.0)).unwrap();
    let ex3 = pricing.storage.period_cost(&tl);

    let rows = vec![
        vec![
            "EX1".into(),
            "data transfer cost (10 GB result)".into(),
            "$1.08".into(),
            model.transfer_cost().to_string(),
        ],
        vec![
            "EX2".into(),
            "computing cost, no views (50 h x 2 small)".into(),
            "$12.00".into(),
            model.compute_cost_without_views().to_string(),
        ],
        vec![
            "EX3".into(),
            "storage with intervals (512 GB + 2 TB at month 8)".into(),
            "$2131.76 (paper misprint; formula gives $2101.76)".into(),
            ex3.to_string(),
        ],
        vec![
            "EX4".into(),
            "materialization cost (1 h)".into(),
            "$0.24".into(),
            with_views.compute_materialization.to_string(),
        ],
        vec![
            "EX5".into(),
            "processing time with views".into(),
            "40 h".into(),
            model
                .processing_time_with_views(
                    &[
                        ViewCharge::new("V1", Gb::new(50.0), Hours::new(1.0), Hours::new(5.0), 1)
                            .answers(0, Hours::new(40.0)),
                    ],
                    &SelectionSet::full(1),
                )
                .to_string(),
        ],
        vec![
            "EX6".into(),
            "processing cost with views".into(),
            "$9.60".into(),
            with_views.compute_processing.to_string(),
        ],
        vec![
            "EX7".into(),
            "maintenance time".into(),
            "5 h".into(),
            "5.00 h".into(),
        ],
        vec![
            "EX8".into(),
            "maintenance cost".into(),
            "$1.20".into(),
            with_views.compute_maintenance.to_string(),
        ],
        vec![
            "EX9".into(),
            "storage with views (550 GB x 12 months)".into(),
            "$924.00".into(),
            with_views.storage.to_string(),
        ],
    ];
    println!("== Worked examples, Sections 3-4 ==");
    println!(
        "{}\n",
        render_table(&["id", "description", "paper", "computed"], &rows)
    );

    println!("== Section 1 introduction ==");
    let intro = presets::intro_fictitious();
    let std = intro.compute.instance("std").unwrap().clone();
    let intro_model = CloudCostModel::new(CostContext {
        pricing: intro,
        instance: std,
        nb_instances: 1,
        months: Months::new(1.0),
        dataset_size: Gb::new(500.0),
        workload: vec![QueryCharge::new("Q", Gb::ZERO, Hours::new(50.0))],
    });
    let without = intro_model.without_views();
    let intro_view = ViewCharge::new("V", Gb::new(50.0), Hours::ZERO, Hours::ZERO, 1)
        .answers(0, Hours::new(40.0));
    let with = intro_model.with_views(&[intro_view], &SelectionSet::full(1));
    println!(
        "  without views: {} (paper: $62)  |  with views: {} (paper: $64.60)",
        without.total(),
        with.total()
    );
    println!("  performance +20%, cost +4% — the paper's opening trade-off.");
}

/// **Figures 2–4**: the (time, cost) solution space of each scenario
/// with the chosen solution highlighted.
///
/// The paper sketches these spaces conceptually; here they are computed
/// exactly — every subset of an 8-candidate problem evaluated under the
/// true cost models, the Pareto frontier marked, and each scenario's
/// chosen selection drawn as `X`.
fn space() {
    // A compact problem so the full 2^n space is visible: closure
    // candidates over the 5-query workload.
    let advisor = {
        let mut a = build_advisor(5, 1.0, 12.0, 0.0, SizingMode::MeasuredScaled);
        // Shrink to the closure strategy if too many candidates for a
        // readable scatter.
        if a.problem().len() > 10 {
            let domain = sales_domain(ENGINE_ROWS, 5, 1.0, SEED);
            let config = AdvisorConfig {
                candidates: CandidateStrategy::WorkloadClosure,
                sizing: SizingMode::MeasuredScaled,
                months: Months::new(12.0),
                maintenance_delta_fraction: 0.0,
                ..AdvisorConfig::default()
            };
            a = Advisor::build(domain, config).unwrap();
        }
        a
    };
    let problem = advisor.problem();
    println!(
        "solution space over {} candidates = {} subsets\n",
        problem.len(),
        1u64 << problem.len()
    );
    let points = pareto::solution_space(problem);
    let frontier = points.iter().filter(|p| p.on_frontier).count();
    println!("Pareto frontier: {frontier} of {} points\n", points.len());

    let budget = problem.baseline().cost() + Money::from_cents(60);
    let scenarios = [
        ("Figure 2 — MV1 (budget limit)", Scenario::budget(budget)),
        (
            "Figure 3 — MV2 (response-time limit)",
            Scenario::time_limit(Hours::new(problem.baseline().time.value() * 0.5)),
        ),
        (
            "Figure 4 — MV3 (tradeoff, alpha=0.5)",
            Scenario::tradeoff_normalized(0.5),
        ),
    ];
    for (title, scenario) in scenarios {
        let outcome = mv_select::solve(problem, scenario, SolverKind::Exhaustive);
        println!("== {title} ==");
        println!(
            "chosen: {} views, time {}, cost {}\n",
            outcome.evaluation.num_selected(),
            outcome.evaluation.time,
            outcome.evaluation.cost()
        );
        println!(
            "{}\n",
            pareto::render_ascii(&points, outcome.evaluation.selection.as_mask(), 64, 18)
        );
    }
}

/// One scenario experiment: the measured rows, the paper's rates for the
/// same workload sizes, and what the paper calls the rate.
struct Measured {
    rows: Vec<ScenarioRow>,
    paper: Vec<(usize, f64)>,
    rate: &'static str,
}

impl Measured {
    fn mv1() -> Self {
        Measured {
            rows: scenario_mv1(),
            paper: paper::TABLE6.iter().map(|(q, _, r)| (*q, *r)).collect(),
            rate: "IP rate",
        }
    }

    fn mv2() -> Self {
        Measured {
            rows: scenario_mv2(),
            paper: paper::TABLE7.iter().map(|(q, _, r)| (*q, *r)).collect(),
            rate: "IC rate",
        }
    }

    /// Table 8 has two columns: α = 0.3 and α = 0.7.
    fn mv3(alpha: f64) -> Self {
        Measured {
            rows: scenario_mv3(alpha),
            paper: paper::TABLE8
                .iter()
                .map(|(q, low, high)| (*q, if alpha < 0.5 { *low } else { *high }))
                .collect(),
            rate: "tradeoff rate",
        }
    }

    fn table(&self) -> String {
        render_scenario_table(&self.rows, self.rate)
    }

    /// Paper-vs-measured rates, side by side.
    fn comparison(&self) -> String {
        render_comparison(&self.rows, &self.paper, self.rate)
    }

    fn csv(&self) -> String {
        render_scenario_csv(&self.rows)
    }
}

/// **Table 6 / Figure 5(a)**: scenario MV1 (budget limit).
fn mv1() {
    println!("== Scenario MV1: minimize processing time under a budget ==");
    println!("   (paper Table 6 / Figure 5a; budgets grow with workload size)\n");
    let m = Measured::mv1();
    println!("{}\n", m.table());
    println!("{}\n", m.comparison());
    println!("-- Figure 5(a) series (CSV) --");
    println!("{}", m.csv());
}

/// **Table 7 / Figure 5(b)**: scenario MV2 (response-time limit).
fn mv2() {
    println!("== Scenario MV2: minimize cost under a response-time limit ==");
    println!("   (paper Table 7 / Figure 5b; limit = half the no-view time)\n");
    let m = Measured::mv2();
    println!("{}\n", m.table());
    println!("{}\n", m.comparison());
    println!("-- Figure 5(b) series (CSV) --");
    println!("{}", m.csv());
}

/// **Table 8 / Figures 5(c,d)**: scenario MV3 (tradeoff), at α = 0.3
/// (Figure 5c), α = 0.65 (Figure 5d's caption) and α = 0.7 (Table 8's
/// column) — the paper is inconsistent between the two, so both are
/// reported.
fn mv3() {
    println!("== Scenario MV3: minimize alpha*T + (1-alpha)*C ==");
    println!("   (paper Table 8 / Figures 5c-d)\n");
    for alpha in [0.3, 0.65, 0.7] {
        println!("-- alpha = {alpha} --");
        let m = Measured::mv3(alpha);
        println!("{}\n", m.table());
        println!("{}\n", m.comparison());
        println!("-- CSV --");
        println!("{}\n", m.csv());
    }
}

/// Every scenario experiment as a CSV series under `dir`, with the
/// paper-vs-measured rates on stdout.
fn all(dir: &Path) {
    fs::create_dir_all(dir).expect("create results directory");
    println!("== Running all scenario experiments (paper Tables 6-8, Figure 5) ==\n");
    let runs = [
        (None, "table6_fig5a_mv1.csv", Measured::mv1()),
        (None, "table7_fig5b_mv2.csv", Measured::mv2()),
        (Some(0.3), "table8_fig5c_mv3_a03.csv", Measured::mv3(0.3)),
        (Some(0.7), "table8_fig5d_mv3_a07.csv", Measured::mv3(0.7)),
    ];
    for (alpha, name, m) in runs {
        let path = dir.join(name);
        fs::write(&path, m.csv()).expect("write csv");
        println!("wrote {}", path.display());
        if let Some(alpha) = alpha {
            println!("alpha = {alpha}:");
        }
        println!("{}\n", m.comparison());
    }
    println!("done; see {}/*.csv and EXPERIMENTS.md", dir.display());
}

/// Continuous sweeps behind Figure 5: budget → time (5a), deadline →
/// cost (5b), and α → (time, cost) (5c/d), written as CSV series for
/// plotting. The paper reports three discrete points per scenario;
/// these sweeps show the full curves the advisor moves along.
fn sweeps() {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results directory");

    // MV1 regime: ad-hoc workload, yearly storage.
    let mv1 = build_advisor(10, 1.0, 12.0, 0.0, SizingMode::MeasuredScaled);
    let budget = budget_sweep(&mv1, Money::from_dollars(5), 20, SolverKind::PaperKnapsack);
    let csv = sweep_csv(&budget, "budget_usd");
    fs::write(dir.join("fig5a_budget_sweep.csv"), &csv).expect("write");
    println!("budget sweep (MV1 regime): {} points", budget.len());
    for p in budget.iter().step_by(5) {
        println!(
            "  budget ${:>7.2} -> {:>7.4} h, {} views",
            p.x, p.time_hours, p.views
        );
    }

    // MV2/MV3 regime: recurring workload.
    let rec = build_advisor(10, 50.0, 1.0, 0.02, SizingMode::Extrapolated);
    let deadline = deadline_sweep(
        &rec,
        &[0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0],
        SolverKind::PaperKnapsack,
    );
    fs::write(
        dir.join("fig5b_deadline_sweep.csv"),
        sweep_csv(&deadline, "deadline_hours"),
    )
    .expect("write");
    println!("\ndeadline sweep (MV2 regime): {} points", deadline.len());
    for p in &deadline {
        println!(
            "  limit {:>7.2} h -> cost ${:>8.2}, feasible {}",
            p.x, p.cost_dollars, p.feasible
        );
    }

    let alpha = alpha_sweep(&rec, 10, SolverKind::PaperKnapsack);
    fs::write(
        dir.join("fig5cd_alpha_sweep.csv"),
        sweep_csv(&alpha, "alpha"),
    )
    .expect("write");
    println!("\nalpha sweep (MV3 regime): {} points", alpha.len());
    for p in &alpha {
        println!(
            "  alpha {:>4.1} -> {:>7.4} h, ${:>8.2}, {} views",
            p.x, p.time_hours, p.cost_dollars, p.views
        );
    }
    println!(
        "\nwrote results/fig5a_budget_sweep.csv, fig5b_deadline_sweep.csv, fig5cd_alpha_sweep.csv"
    );
}

// Cost-difference ablations: A1 — optimality gap of each solver vs
// exhaustive ground truth; A2 — graduated vs flat-by-volume tier
// interpretation; A5 — rounding billable hours once (total) vs per job.
// The timing ablations (A3 incremental maintenance, A4 parallel
// aggregation) are the Criterion benches.

fn a1_solver_gap() {
    println!("== A1: solver optimality gap vs exhaustive (20 random instances) ==");
    let solvers = [
        SolverKind::PaperKnapsack,
        SolverKind::Greedy,
        SolverKind::BranchAndBound,
    ];
    let mut rows = Vec::new();
    for solver in solvers {
        let mut worst_gap: f64 = 0.0;
        let mut mean_gap = 0.0;
        let mut exact_hits = 0;
        let n = 20;
        for seed in 0..n {
            let problem = fixtures::random_problem(seed, 4, 8);
            let scenario = Scenario::budget(problem.baseline().cost() + Money::from_cents(60));
            let got = mv_select::solve(&problem, scenario, solver);
            let best = mv_select::solve(&problem, scenario, SolverKind::Exhaustive);
            let gap = if best.objective() > 0.0 {
                (got.objective() - best.objective()) / best.objective()
            } else {
                0.0
            };
            worst_gap = worst_gap.max(gap);
            mean_gap += gap / n as f64;
            if gap < 1e-9 {
                exact_hits += 1;
            }
        }
        rows.push(vec![
            solver.name().to_string(),
            format!("{exact_hits}/{n}"),
            pct(mean_gap),
            pct(worst_gap),
        ]);
    }
    println!(
        "{}\n",
        render_table(&["solver", "optimal", "mean gap", "worst gap"], &rows)
    );
}

fn a2_tier_modes() {
    println!("== A2: graduated vs flat-by-volume storage pricing ==");
    let aws = presets::aws_2012();
    let flat = &aws.storage.monthly; // flat-by-volume (paper Example 3)
    let graduated = flat.with_mode(TierMode::Graduated);
    let mut rows = Vec::new();
    for gb in [500.0, 2_560.0, 80_000.0, 600_000.0] {
        let vol = Gb::new(gb);
        let f = flat.cost_for(vol);
        let g = graduated.cost_for(vol);
        rows.push(vec![
            vol.to_string(),
            f.to_string(),
            g.to_string(),
            (g - f).to_string(),
        ]);
    }
    println!(
        "{}\n",
        render_table(
            &[
                "volume",
                "flat-by-volume (paper)",
                "graduated (real S3)",
                "difference"
            ],
            &rows
        )
    );
    println!("  The paper's Example 3 interpretation undercharges large tenants: once the");
    println!("  total crosses a tier edge, *all* gigabytes earn the lower rate.\n");
}

fn a5_rounding_scope() {
    println!("== A5: hour rounding at the total vs per job ==");
    let aws = presets::aws_2012();
    let small = aws.compute.instance("small").unwrap();
    // Ten 12-minute queries + three 15-minute view builds.
    let queries = vec![Hours::from_minutes(12.0); 10];
    let builds = vec![Hours::from_minutes(15.0); 3];
    let mut jobs = queries.clone();
    jobs.extend_from_slice(&builds);
    let mut rows = Vec::new();
    for (label, scope) in [
        ("total (paper)", RoundingScope::Total),
        ("per job", RoundingScope::PerItem),
    ] {
        let billable = scope.billable(BillingRounding::PerStartedHour, &jobs);
        let cost = small.hourly.scale(billable.value()) * 2i64;
        rows.push(vec![
            label.to_string(),
            billable.to_string(),
            cost.to_string(),
        ]);
    }
    println!(
        "{}\n",
        render_table(
            &["rounding scope", "billable time", "cost (2 small)"],
            &rows
        )
    );
    println!("  Per-job rounding punishes many short jobs — it would flip marginal");
    println!("  materialization decisions that are profitable under the paper's rule.");
}
