//! `advise_cold`: one cold advisory session per op, at the paper's
//! shapes.

use std::path::Path;

use mvcloud::engine::{MaterializedView, Table};
use mvcloud::lattice::{candidates, SizeEstimator};
use mvcloud::report::summarize;
use mvcloud::units::Hours;
use mvcloud::{
    sales_domain, ssb_domain, Advisor, AdvisorConfig, Domain, Outcome, Scenario, SolverKind,
};

use super::{digest_evaluation, scenario_mv3};
use crate::cli::{args, Cli, SPAWNS};
use crate::gen::lane_seed;
use crate::harness::{Layer, OpCheck, Workload};
use crate::trace::{spanned, Decompose, Tracer, OP};

/// Final sizes (frozen; see README): sales r 20 000 / q 10 / 16
/// cuboids, SSB r 4 000 / 13 queries / 64 cuboids, 8 dataset seeds.
const SALES_ROWS: usize = 20_000;
const SALES_QUERIES: usize = 10;
const SSB_ROWS: usize = 4_000;
const DATASETS: usize = 8;

/// One advisor and its three scenario solves.
struct Session {
    advisor: Advisor,
    outcomes: Vec<Outcome>,
    summaries: Vec<String>,
}

pub struct AdviseCold {
    datasets: Vec<[Domain; 2]>,
    config: AdvisorConfig,
    last: Vec<Session>,
}

/// MV1 at 1.15 × the baseline bill, MV2 at half the baseline time, MV3
/// at α = 0.5 — each constraint relative to the problem, so every
/// dataset seed poses the same question.
fn scenarios(advisor: &Advisor) -> [Scenario; 3] {
    let baseline = advisor.problem().baseline();
    [
        Scenario::budget(baseline.cost().scale(1.15)),
        Scenario::time_limit(Hours::new(baseline.time.value() * 0.5)),
        scenario_mv3(),
    ]
}

/// The candidate labels `summarize` names views by.
fn labels(advisor: &Advisor) -> Vec<String> {
    advisor
        .candidates()
        .iter()
        .map(|c| c.label.clone())
        .collect()
}

impl Workload for AdviseCold {
    const NAME: &'static str = "advise_cold";
    const WHY: &'static str = "cold Advisor::build on sales r20000/q10 and SSB r4000 plus MV1/MV2/MV3 knapsack solves: engine group-bys and view builds do >95% of the work; evaluator and solver changes must not show";
    const WARMUP: usize = 1;
    const SETTLE: usize = 2;
    const CYCLE: usize = DATASETS;
    const PREFIX: usize = 120;
    const PAIRED: bool = true;
    const DECOMPOSE: &'static [Decompose] = &[
        ("core.advisor_build", "lattice.candidates"),
        ("core.advisor_build", "engine.workload_exec"),
        ("core.advisor_build", "engine.candidate_measure"),
    ];

    fn setup(seed: u64, _scratch: &Path) -> Result<Self, String> {
        let datasets = (0..DATASETS as u64)
            .map(|j| {
                let data_seed = lane_seed(seed, j);
                [
                    sales_domain(SALES_ROWS, SALES_QUERIES, 1.0, data_seed),
                    ssb_domain(SSB_ROWS, 1.0, data_seed),
                ]
            })
            .collect();
        Ok(AdviseCold {
            datasets,
            config: AdvisorConfig::default(),
            last: Vec::new(),
        })
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer) -> Result<(), String> {
        self.last.clear();
        for domain in &self.datasets[i % DATASETS] {
            let (domain, config) = (domain.clone(), self.config.clone());
            let advisor = spanned(tracer, "core.advisor_build", || {
                Advisor::build(domain, config)
            })
            .map_err(|e| e.to_string())?;
            let names = labels(&advisor);
            let mut outcomes = Vec::with_capacity(3);
            let mut summaries = Vec::with_capacity(3);
            for scenario in scenarios(&advisor) {
                let outcome = spanned(tracer, "select.solve", || {
                    advisor.solve(scenario, SolverKind::PaperKnapsack)
                });
                summaries.push(spanned(tracer, "core.summarize", || {
                    summarize(&outcome, &names)
                }));
                outcomes.push(outcome);
            }
            self.last.push(Session {
                advisor,
                outcomes,
                summaries,
            });
        }
        Ok(())
    }

    fn check(&mut self, _i: usize, out: &mut OpCheck) {
        for s in &self.last {
            let problem = s.advisor.problem();
            for (o, summary) in s.outcomes.iter().zip(&s.summaries) {
                out.require(
                    problem.evaluate(&o.evaluation.selection) == o.evaluation,
                    || {
                        format!(
                            "{} evaluation differs from full evaluate",
                            o.scenario.label()
                        )
                    },
                );
                out.require(o.baseline == problem.baseline(), || {
                    "outcome baseline differs from problem baseline".to_string()
                });
                out.digest.str(summary);
                digest_evaluation(&mut out.digest, &o.evaluation);
                out.savings.push(o.tradeoff_improvement());
            }
            // The budget admits the empty selection, so MV1 is feasible.
            out.require(s.outcomes[0].feasible(), || "MV1 infeasible".to_string());
        }
    }

    fn probe(&mut self, i: usize, tracer: &mut Tracer, layer: &mut Layer) {
        if !i.is_multiple_of(DATASETS) {
            return;
        }
        let op_seconds = tracer
            .spans()
            .iter()
            .rev()
            .find(|s| s.name == OP)
            .map_or(0.0, |s| s.duration_ns() as f64 * 1e-9);
        for s in &self.last {
            let advisor = &s.advisor;
            let base = &advisor.domain().base;
            let threads = advisor.config().threads;
            let span = tracer.begin("engine.workload_exec");
            for q in advisor.queries() {
                let (_, stats) = q
                    .execute_with_threads(base, threads)
                    .expect("the advisor already ran this query");
                layer.add("engine.queries", 1.0);
                layer.add("engine.scan_bytes", stats.bytes_scanned as f64);
            }
            tracer.end(span);
            // What `Advisor::build` asks of the engine per candidate:
            // materialize it, refresh a copy with one maintenance batch
            // (the advisor's is 2 % of the base rows; a replayed sample
            // of that size costs the same), then answer each query it
            // can serve.
            let delta_rows =
                (base.num_rows() as f64 * advisor.config().maintenance_delta_fraction) as usize;
            let mut delta = Table::empty(base.schema().clone());
            for r in 0..delta_rows {
                delta
                    .push_row(&base.row(r * 37 % base.num_rows()))
                    .expect("a row of the same schema");
            }
            let span = tracer.begin("engine.candidate_measure");
            for m in advisor.candidates() {
                let view =
                    MaterializedView::materialize_with_threads(m.view.def().clone(), base, threads)
                        .expect("the advisor already materialized this view");
                view.clone()
                    .refresh_incremental(&delta)
                    .expect("a delta of the base schema refreshes");
                for q in advisor.queries() {
                    if view.can_answer(q).is_ok() {
                        let (_, stats) = view.answer(q).expect("answerable per can_answer");
                        layer.add("engine.scan_bytes", stats.bytes_scanned as f64);
                    }
                }
            }
            tracer.end(span);
            let mv3 = &s.outcomes[2];
            let catalog = spanned(tracer, "engine.view_build", || {
                advisor.materialize_selection(mv3)
            })
            .expect("selected views register once");
            layer.add("engine.view_builds", catalog.len() as f64);

            let domain = advisor.domain();
            let estimator = SizeEstimator::new(base.num_rows() as u64);
            let span = tracer.begin("lattice.candidates");
            let count = candidates::full_lattice(&domain.lattice).len()
                + candidates::workload_closure(&domain.lattice, &domain.workload).len()
                + candidates::hru_greedy(&domain.lattice, &estimator, &domain.workload, 8).len();
            tracer.end(span);
            layer.add("lattice.candidates_count", count as f64);

            spanned(tracer, "cost.full_evaluate", || {
                advisor.problem().evaluate(&mv3.evaluation.selection)
            });
            spanned(tracer, "pricing.invoice", || {
                advisor.usage_ledger(mv3).invoice(&advisor.config().pricing)
            })
            .expect("the advisor's own ledger prices");
        }
        // The advisor's own cost beside the bill it changes (MV1): the
        // op is single-threaded, so its wall is its CPU time.
        let config = self.last[0].advisor.config();
        let hourly = config
            .pricing
            .compute
            .instance(&config.instance)
            .map_or(0.0, |inst| inst.hourly.to_dollars_f64());
        layer.sample("core.advisor_usd", op_seconds / 3600.0 * hourly);
        let delta: f64 = self
            .last
            .iter()
            .map(|s| {
                let mv1 = &s.outcomes[0];
                (mv1.baseline.cost() - mv1.evaluation.cost()).to_dollars_f64()
            })
            .sum();
        layer.sample("core.bill_delta_usd", delta);
    }

    fn cli_parity(&mut self, cli: &Cli, layer: &mut Layer) -> Result<(), String> {
        // `advise` generates its sales table from seed 42; mirror that.
        let command = args(&format!(
            "advise --rows {SALES_ROWS} --queries {SALES_QUERIES} --alpha 0.5 --solver knapsack"
        ));
        let (stdout, wall_ms) = cli.median_wall(&command, SPAWNS, || Ok(()))?;
        layer.set("cli.advise_wall_ms", wall_ms);
        let advisor = Advisor::build(
            sales_domain(SALES_ROWS, SALES_QUERIES, 1.0, 42),
            self.config.clone(),
        )
        .map_err(|e| e.to_string())?;
        let names = labels(&advisor);
        let outcome = advisor.solve(scenario_mv3(), SolverKind::PaperKnapsack);
        let same = stdout.trim_end() == summarize(&outcome, &names);
        layer.add("cli.parity_failures", f64::from(u8::from(!same)));
        Ok(())
    }
}
