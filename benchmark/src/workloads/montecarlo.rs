//! `montecarlo`: one planning report cycle per op — horizon, market and
//! fleet solves with their rendered timelines — on advisors built once.

use std::path::Path;

use mvcloud::fleet::{FleetConfig, FleetReport};
use mvcloud::json::Json;
use mvcloud::lattice::WorkloadEvolution;
use mvcloud::market::{
    AnnouncedCut, CorrelatedHazard, MarketConfig, MarketPath, MarketReport, MarketScenario,
    PriceProcess, ScenarioTree, SpotMarket, StorageDecay,
};
use mvcloud::pricing::FleetPlan;
use mvcloud::units::{Hours, Money};
use mvcloud::{
    sales_domain, ssb_domain, Advisor, AdvisorConfig, HorizonConfig, HorizonReport,
    SelectionProblem,
};

use super::{digest_evaluation, probe_evaluator, scenario_mv3};
use crate::cli::{args, Cli, SPAWNS};
use crate::gen::lane_seed;
use crate::harness::{Layer, OpCheck, Workload};
use crate::trace::{spanned, Decompose, Tracer};

/// Final sizes (frozen; see README): sales r 2 000 / q 10 (n = 15) at
/// K = 64 paths, SSB r 2 000 (n = 63) at K = 12 paths, E = 12 epochs.
/// SSB's K is what keeps an op near 0.2 s: at K = 64 its market and
/// fleet solves alone take 0.55 s.
/// 8 market seeds per workload seed, cycled, so each sampled market is
/// solved a dozen times a run and repetitions can be told from inputs.
const MARKETS: usize = 8;
const ROWS: usize = 2_000;
const SALES_QUERIES: usize = 10;
const EPOCHS: usize = 12;
const PATHS: [usize; 2] = [64, 12];
const DRIFT_RATE: f64 = 0.2;
const VOLATILITY: f64 = 0.3;
const CUT_EPOCH: usize = 6;
const CUT_FACTOR: f64 = 0.8;
const STORAGE_DECAY: f64 = 0.01;
const FLEET_SPOT_MEAN: f64 = 0.5;

/// One advisor's three solves and their rendered timelines.
struct Cycle {
    horizon: HorizonReport,
    market: MarketReport,
    fleet: FleetReport,
    csv: [String; 3],
}

pub struct MonteCarlo {
    seed: u64,
    advisors: Vec<Advisor>,
    last: Vec<Cycle>,
}

fn horizon_config() -> HorizonConfig {
    HorizonConfig {
        epochs: EPOCHS,
        evolution: WorkloadEvolution::drift(DRIFT_RATE),
        commitment: None,
    }
}

/// Spot volatility 0.3 plus one announced cut plus storage decay.
fn market_scenario(seed: u64) -> MarketScenario {
    MarketScenario::constant(EPOCHS, seed)
        .with(PriceProcess::Spot(SpotMarket::with_volatility(VOLATILITY)))
        .with(PriceProcess::Cut(AnnouncedCut::compute(
            CUT_EPOCH, CUT_FACTOR,
        )))
        .with(PriceProcess::StorageDecay(StorageDecay::new(
            STORAGE_DECAY,
            0.25,
        )))
}

/// A discounted spot pool under correlated capacity crunches (the
/// `mvcloud-cli fleet` defaults).
fn fleet_scenario(seed: u64) -> MarketScenario {
    MarketScenario::constant(EPOCHS, seed)
        .with(PriceProcess::Spot(SpotMarket::discounted(
            FLEET_SPOT_MEAN,
            VOLATILITY,
        )))
        .with(PriceProcess::Correlated(
            CorrelatedHazard::bursty(0.25, 0.7, 0.5).with_crunch_compute(1.3),
        ))
}

fn market_config(seed: u64, paths: usize, evolution: WorkloadEvolution) -> MarketConfig {
    MarketConfig {
        market: market_scenario(seed),
        paths,
        evolution,
        commitment: None,
        ..MarketConfig::default()
    }
}

fn fleet_config(seed: u64, paths: usize, evolution: WorkloadEvolution) -> FleetConfig {
    FleetConfig {
        market: fleet_scenario(seed),
        paths,
        evolution,
        fleet: FleetPlan::hedged("hedged"),
        compare_pure: true,
        ..FleetConfig::default()
    }
}

/// Improvement of the α = 0.5 normalized objective of one sampled path
/// (its total hours and bill) over the no-view, list-price horizon.
fn path_saving(time: Hours, cost: Money, base_time: f64, base_cost: f64) -> f64 {
    1.0 - (0.5 * time.value() / base_time + 0.5 * cost.to_dollars_f64() / base_cost)
}

impl MonteCarlo {
    fn market_seed(&self, i: usize) -> u64 {
        self.seed.wrapping_add((i % MARKETS) as u64)
    }
}

impl Workload for MonteCarlo {
    const NAME: &'static str = "montecarlo";
    const WHY: &'static str = "solve_horizon, solve_market and solve_fleet (E=12, K=64 sales, K=12 SSB) with timelines on prebuilt small-n advisors: chain/tree retarget, path sampling and driver folds, where CSR/top-k hurts";
    const WARMUP: usize = 1;
    const SETTLE: usize = 2;
    const CYCLE: usize = MARKETS;
    const PREFIX: usize = 120;
    const PAIRED: bool = true;
    const DECOMPOSE: &'static [Decompose] = &[
        ("core.horizon", "select.chain_solve"),
        ("core.market", "market.path_sample"),
        ("core.market", "market.tree_build"),
    ];

    fn setup(seed: u64, _scratch: &Path) -> Result<Self, String> {
        let data_seed = lane_seed(seed, 0);
        let advisors = [
            sales_domain(ROWS, SALES_QUERIES, 1.0, data_seed),
            ssb_domain(ROWS, 1.0, data_seed),
        ]
        .into_iter()
        .map(|domain| Advisor::build(domain, AdvisorConfig::default()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
        Ok(MonteCarlo {
            seed,
            advisors,
            last: Vec::new(),
        })
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer) -> Result<(), String> {
        self.last.clear();
        let market_seed = self.market_seed(i);
        let scenario = scenario_mv3();
        let horizon_cfg = horizon_config();
        for (advisor, &paths) in self.advisors.iter().zip(&PATHS) {
            let horizon = spanned(tracer, "core.horizon", || {
                advisor.solve_horizon(scenario, &horizon_cfg)
            })
            .map_err(|e| e.to_string())?;
            let horizon_csv = spanned(tracer, "core.report_render", || horizon.timeline_csv());
            let market_cfg = market_config(market_seed, paths, horizon_cfg.evolution);
            let market = spanned(tracer, "core.market", || {
                advisor.solve_market(scenario, &market_cfg)
            })
            .map_err(|e| e.to_string())?;
            let market_csv = spanned(tracer, "core.report_render", || market.timeline_csv());
            let fleet_cfg = fleet_config(market_seed, paths, horizon_cfg.evolution);
            let fleet = spanned(tracer, "core.fleet", || {
                advisor.solve_fleet(scenario, &fleet_cfg)
            })
            .map_err(|e| e.to_string())?;
            let fleet_csv = spanned(tracer, "core.report_render", || fleet.timeline_csv());
            self.last.push(Cycle {
                horizon,
                market,
                fleet,
                csv: [horizon_csv, market_csv, fleet_csv],
            });
        }
        Ok(())
    }

    fn check(&mut self, _i: usize, out: &mut OpCheck) {
        let horizon_cfg = horizon_config();
        for ((advisor, &paths), cycle) in self.advisors.iter().zip(&PATHS).zip(&self.last) {
            // Horizon: every step's full-price evaluation is the slow
            // reference's, and the totals are the steps' sums.
            let chain = advisor.epoch_chain(&horizon_cfg);
            let steps = &cycle.horizon.steps;
            out.require(steps.len() == EPOCHS, || "horizon step count".to_string());
            for (step, model) in steps.iter().zip(chain.epochs()) {
                let problem = SelectionProblem::new(model.clone(), chain.pool().to_vec());
                out.require(
                    problem.evaluate(step.selection()) == step.full_price,
                    || "horizon step differs from full evaluate".to_string(),
                );
                digest_evaluation(&mut out.digest, &step.outcome.evaluation);
                out.savings.push(step.outcome.tradeoff_improvement());
            }
            let charged: Money = steps.iter().map(|s| s.outcome.evaluation.cost()).sum();
            out.require(charged == cycle.horizon.total_cost, || {
                "horizon total is not the steps' sum".to_string()
            });
            let base_time: f64 = steps.iter().map(|s| s.outcome.baseline.time.value()).sum();
            let base_cost: f64 = steps
                .iter()
                .map(|s| s.outcome.baseline.cost().to_dollars_f64())
                .sum();

            // Market and fleet: the envelope is consistent with its
            // per-path accounts (selections, epoch bills, total, hours).
            let mut account = |kind: &str, per_path: Vec<(usize, &[Money], Money, Hours)>| {
                out.require(per_path.len() == paths, || format!("{kind} path count"));
                let mut saving = 0.0;
                for (epochs, epoch_costs, total_cost, total_time) in per_path {
                    out.require(epochs == EPOCHS, || format!("{kind} path length"));
                    out.require(
                        epoch_costs.iter().copied().sum::<Money>() == total_cost,
                        || format!("{kind} path total is not its epochs' sum"),
                    );
                    saving += path_saving(total_time, total_cost, base_time, base_cost);
                }
                out.savings.push(saving / paths as f64);
            };
            let market = &cycle.market;
            account(
                "market",
                market
                    .paths
                    .iter()
                    .map(|p| {
                        (
                            p.selections.len(),
                            &p.epoch_costs[..],
                            p.total_cost,
                            p.total_time,
                        )
                    })
                    .collect(),
            );
            let fleet = &cycle.fleet;
            account(
                "fleet",
                fleet
                    .paths
                    .iter()
                    .map(|p| {
                        (
                            p.selections.len(),
                            &p.epoch_costs[..],
                            p.total_cost,
                            p.total_time,
                        )
                    })
                    .collect(),
            );
            for p in &market.paths {
                let total = p.total_cost.to_dollars_f64();
                out.require(
                    market.total_cost.min <= total && total <= market.total_cost.max,
                    || "market path outside its envelope".to_string(),
                );
            }
            out.require(fleet.comparison.is_some(), || {
                "fleet comparison missing".to_string()
            });
            for csv in &cycle.csv {
                out.require(csv.lines().count() == EPOCHS + 1, || {
                    "timeline is not one row per epoch".to_string()
                });
                out.digest.str(csv);
            }
        }
    }

    fn probe(&mut self, i: usize, tracer: &mut Tracer, layer: &mut Layer) {
        if !i.is_multiple_of(MARKETS) {
            return;
        }
        let market_seed = self.market_seed(i);
        let horizon_cfg = horizon_config();
        for ((advisor, &paths), cycle) in self.advisors.iter().zip(&PATHS).zip(&self.last) {
            spanned(tracer, "select.chain_solve", || {
                advisor.epoch_chain(&horizon_cfg).solve(scenario_mv3())
            });
            let scenario = market_scenario(market_seed);
            let sampled: Vec<MarketPath> = spanned(tracer, "market.path_sample", || {
                (0..paths).map(|j| scenario.path(j)).collect()
            });
            layer.sample("market.path_sample_ns", tracer.last_ns() / paths as f64);
            let tree = spanned(tracer, "market.tree_build", || {
                ScenarioTree::from_paths(&sampled)
            });
            layer.sample(
                "market.tree_share",
                tree.len() as f64 / (paths * EPOCHS) as f64,
            );
            let pricing = &advisor.config().pricing;
            let span = tracer.begin("market.reprice");
            for quote in &sampled[0].quotes {
                std::hint::black_box(quote.reprice(pricing));
            }
            tracer.end(span);
            layer.sample("market.reprice_ns", tracer.last_ns() / EPOCHS as f64);
            layer.sample(
                "core.market_dedup_hit_share",
                1.0 - cycle.market.distinct_solves as f64 / paths as f64,
            );

            // The evaluator primitives at this (small-n) shape.
            let last_step = cycle.horizon.steps.last().expect("a horizon has epochs");
            probe_evaluator(advisor.problem(), last_step.selection(), tracer, layer);
        }
    }

    fn cli_parity(&mut self, cli: &Cli, layer: &mut Layer) -> Result<(), String> {
        // The CLI subcommands run on the sales table of seed 42 with a
        // fixed workload for market and fleet; mirror that in process.
        let advisor = Advisor::build(
            sales_domain(ROWS, SALES_QUERIES, 1.0, 42),
            AdvisorConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let scenario = scenario_mv3();
        let (seed, paths) = (self.seed, PATHS[0]);
        let workload = format!("--rows {ROWS} --queries {SALES_QUERIES} --alpha 0.5");
        let sampling = format!("--epochs {EPOCHS} --paths {paths} --seed {seed}");
        let mut failures = 0u32;
        let mut parity = |stdout: &str, expected: Vec<Vec<String>>, key: &str| {
            let named = Json::parse(stdout).ok().and_then(|doc| {
                doc.get("epochs")?
                    .as_array()?
                    .iter()
                    .map(|e| {
                        e.get(key)?
                            .as_array()?
                            .iter()
                            .map(|v| v.as_str().map(str::to_string))
                            .collect::<Option<Vec<String>>>()
                    })
                    .collect::<Option<Vec<Vec<String>>>>()
            });
            if named != Some(expected) {
                failures += 1;
            }
        };

        let (stdout, wall_ms) = cli.median_wall(
            &args(&format!(
                "horizon --epochs {EPOCHS} --pattern drift --rate {DRIFT_RATE} {workload}"
            )),
            SPAWNS,
            || Ok(()),
        )?;
        layer.set("cli.horizon_wall_ms", wall_ms);
        let report = advisor
            .solve_horizon(scenario, &horizon_config())
            .map_err(|e| e.to_string())?;
        let expected = report.epochs.iter().map(|e| e.selected.clone()).collect();
        parity(&stdout, expected, "selected");

        let (stdout, wall_ms) = cli.median_wall(
            &args(&format!(
                "market {sampling} --volatility {VOLATILITY} --cut-epoch {CUT_EPOCH} \
                 --cut-factor {CUT_FACTOR} --decay {STORAGE_DECAY} {workload}"
            )),
            SPAWNS,
            || Ok(()),
        )?;
        layer.set("cli.market_wall_ms", wall_ms);
        let report = advisor
            .solve_market(
                scenario,
                &market_config(seed, paths, WorkloadEvolution::fixed()),
            )
            .map_err(|e| e.to_string())?;
        let expected = report
            .epochs
            .iter()
            .map(|e| e.modal_selection.clone())
            .collect();
        parity(&stdout, expected, "modal_selection");

        let (stdout, wall_ms) = cli.median_wall(
            &args(&format!(
                "fleet {sampling} --spot-mean {FLEET_SPOT_MEAN} --volatility {VOLATILITY} {workload}"
            )),
            SPAWNS,
            || Ok(()),
        )?;
        layer.set("cli.fleet_wall_ms", wall_ms);
        let report = advisor
            .solve_fleet(
                scenario,
                &fleet_config(seed, paths, WorkloadEvolution::fixed()),
            )
            .map_err(|e| e.to_string())?;
        let expected = report
            .epochs
            .iter()
            .map(|e| e.modal_selection.clone())
            .collect();
        parity(&stdout, expected, "modal_selection");

        layer.add("cli.parity_failures", f64::from(failures));
        Ok(())
    }
}
