//! Hedged mixed-fleet advising — and the one Monte-Carlo driver: joint
//! selection + placement against sampled price paths with correlated
//! interruption epochs.
//!
//! [`Advisor::solve_horizon`] re-bills a measured workload over a
//! multi-epoch horizon with one pricing policy for every epoch.
//! [`Advisor::solve_fleet`] replaces that constant with an
//! [`mv_market::MarketScenario`] sampled into `K` reproducible price
//! paths, and makes the reserved-vs-spot hedge a **per-view decision**:
//! an [`mv_pricing::FleetPlan`] splits capacity into a reserved pool
//! and a spot pool, each view's [`Placement`] decides which pool its
//! build/refresh work bills against, and the
//! transition-aware chain searches placements jointly with the
//! selection itself (placement-flip moves on the warm evaluator).
//!
//! The driver is one pipeline: validate → sample the K paths once →
//! factor them into a [`ScenarioTree`] (sampled paths share long quote
//! prefixes; a deterministic market is a single chain) → one
//! [`EpochChain::forest`] straight from the tree, with one quote-repriced
//! primary-sheet model per tree *node*, and one [`EpochChain::solve_with`]
//! over it with one [`PoolCharge`] pair per node as its [`ChainSpec`]'s
//! pool table (plain data: the quote is read here, once per node, and
//! the chain splices the prices) — one evaluator build per root,
//! one warm transition per edge, one fork per extra sibling
//! (counter-pinned in `tests/market_no_rebuild.rs`) → one per-path
//! account → one envelope fold. A market-insulated plan (every view
//! pinned to a reserved primary) solves path 0's one-path tree with
//! every path's leaf pointing at it. [`Advisor::solve_market`] is
//! this driver on the pure-spot plan (every view on a spot pool at
//! market parity), projected into a [`crate::market::MarketReport`].
//! The inner *solve these sampled paths* step, given path `j` alone,
//! shares nothing and forks nothing, and must equal path `j` of the
//! K-path solve bit for bit (`fleet/paths_tests.rs`).
//!
//! The shared charges (workload processing, dataset storage, transfer)
//! follow the plan's *primary* pool: a spot primary rides the sampled
//! market sheet, a reserved primary keeps the contract sheet and only
//! spot-*placed* views feel the market. Cross-pool rate differentials
//! are folded into effective billable hours by [`mv_cost::PoolCharge`],
//! and interruption premiums apply **only to spot-placed views** — so
//! [`FleetPlan::pure_reserved`] reproduces the risk-free `solve_horizon`
//! exactly (`tests/fleet.rs`). Hazards can be *correlated* across epochs
//! ([`mv_market::CorrelatedHazard`]): crunches arrive in runs, which is
//! when pre-placing a view on reserved capacity beats reacting — the
//! lookahead gap `mv-select`'s exhaustive DP oracle quantifies.
//!
//! The report is a Monte-Carlo envelope rather than a single bill:
//! per-pool bills and hours, per-epoch cost and **hedge-ratio
//! quantiles** (the spot-placed share of the selection across paths),
//! plan stability, placement churn, and a
//! hedged-vs-pure-spot-vs-pure-reserved comparison on the same paths.

use std::collections::HashMap;

use mv_cost::{CloudCostModel, InterruptionRisk, PoolCharge, SelectionSet};
use mv_lattice::WorkloadEvolution;
use mv_market::{EpochQuote, MarketPath, MarketScenario, ScenarioTree};
use mv_pricing::{FleetPlan, Placement};
use mv_select::epoch::{ChainSpec, EpochChain, EpochStep};
use mv_select::Scenario;
use mv_units::{Hours, Money};

use crate::json::Json;
use crate::market::{Quantiles, SpotCommitmentReport};
use crate::report::{envelope_epoch, quantiles, spot_commitment};
use crate::{Advisor, AdvisorError};

/// Shape of a mixed-fleet Monte-Carlo solve.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The price-dynamics scenario (horizon length, seed, processes).
    pub market: MarketScenario,
    /// Number of sampled price paths `K`.
    pub paths: usize,
    /// How query frequencies evolve across epochs.
    pub evolution: WorkloadEvolution,
    /// The fleet split: pool terms, primary sheet, placement freedom.
    pub fleet: FleetPlan,
    /// Also solve every path with the fleet pinned all-spot and
    /// all-reserved and report the three-way comparison (three chain
    /// solves over the same sampled forest instead of one).
    pub compare_pure: bool,
}

impl Default for FleetConfig {
    /// 16 paths over a year of constant prices, a rebalancing hedged
    /// fleet, pure comparators on.
    fn default() -> Self {
        FleetConfig {
            market: MarketScenario::constant(12, 42),
            paths: 16,
            evolution: WorkloadEvolution::fixed(),
            fleet: FleetPlan::hedged("hedged"),
            compare_pure: true,
        }
    }
}

/// Per-path accounting of one sampled trajectory under the fleet (and,
/// pure-spot, under the single-fleet [`crate::market::MarketReport`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPathSummary {
    /// Path index (aligned with [`MarketScenario::path`]).
    pub path: usize,
    /// Total charged cost along the path.
    pub total_cost: Money,
    /// Total processing hours along the path.
    pub total_time: Hours,
    /// Total billable instance-hours (per-component rounding applied,
    /// fleet-multiplied, effective pool hours included), summed
    /// component by component.
    pub billed_instance_hours: Hours,
    /// Raw (pre-rounding) work hours run on the reserved pool:
    /// processing when reserved is primary, plus reserved-placed
    /// views' effective build/refresh hours.
    pub reserved_hours: Hours,
    /// Raw work hours run on the spot pool, risk-premium included.
    pub spot_hours: Hours,
    /// The compute component of the path's bill.
    pub compute_bill: Money,
    /// Epoch boundaries at which the selected set changed.
    pub switches: usize,
    /// Placement moves across the horizon (each re-paid a build).
    pub moves: usize,
    /// Sampled interruption events along the path.
    pub interruptions: usize,
    /// Mean spot-placed share of the selection across epochs.
    pub spot_share: f64,
    /// Per-epoch charged cost.
    pub epoch_costs: Vec<Money>,
    /// Per-epoch processing hours.
    pub epoch_times: Vec<Hours>,
    /// Per-epoch billable instance-hours (each epoch's rounded
    /// components summed on their own).
    pub epoch_billed_hours: Vec<Hours>,
    /// Per-epoch spot-placed share of the selection (0 when empty).
    pub epoch_spot_shares: Vec<f64>,
    /// Per-epoch selected sets.
    pub selections: Vec<SelectionSet>,
    /// Per-epoch placement assignments (selected entries meaningful).
    pub placements: Vec<Vec<Placement>>,
}

/// One epoch of the fleet's Monte-Carlo envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Transition-aware charged cost across paths, in dollars.
    pub charged_cost: Quantiles,
    /// Running cumulative bill across paths, in dollars.
    pub cumulative_cost: Quantiles,
    /// Frequency-weighted processing hours across paths.
    pub time_hours: Quantiles,
    /// The spot-placed share of the selected views across paths (the
    /// hedge ratio; 0 = all reserved, 1 = all spot).
    pub hedge_ratio: Quantiles,
    /// The sampled compute price factor across paths.
    pub compute_factor: Quantiles,
    /// The per-epoch interruption probability across paths.
    pub interruption: Quantiles,
    /// How many distinct selected sets the paths chose this epoch.
    pub distinct_plans: usize,
    /// Share of paths choosing the most common selected set.
    pub modal_share: f64,
    /// Labels of that most common selected set.
    pub modal_selection: Vec<String>,
}

/// The hedged fleet priced against its own pinned pure fleets, on the
/// same sampled paths.
#[derive(Debug, Clone)]
pub struct FleetComparison {
    /// Per-path total cost of the hedged (rebalancing) fleet.
    pub hedged: Quantiles,
    /// Per-path total cost with every view pinned to spot.
    pub pure_spot: Quantiles,
    /// Per-path total cost with every view pinned to reserved.
    pub pure_reserved: Quantiles,
    /// Share of paths where the hedge is no dearer than the better
    /// pure fleet. Note the pure plans also move the *shared* charges
    /// (processing, dataset storage) onto their pool's sheet, which a
    /// fixed-primary hedge does not imitate — so a pure fleet can
    /// legitimately win when the market discounts the shared work.
    pub hedged_wins_share: f64,
}

/// The Monte-Carlo envelope of a mixed-fleet horizon solve.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The fleet plan's name.
    pub fleet: String,
    /// Per-path accounting, in path order.
    pub paths: Vec<FleetPathSummary>,
    /// The per-epoch quantile timeline.
    pub epochs: Vec<FleetEpochReport>,
    /// Total charged cost across paths, in dollars.
    pub total_cost: Quantiles,
    /// Total processing hours across paths.
    pub total_time_hours: Quantiles,
    /// Per-path mean hedge ratio across paths.
    pub hedge_ratio: Quantiles,
    /// Mean modal share across epochs (1.0 = every path agrees).
    pub plan_stability: f64,
    /// Hedged-vs-pure pricing on the same paths, when requested.
    pub comparison: Option<FleetComparison>,
    /// Reserved-pool commitment pricing of the fleet's compute, when
    /// the reserved pool carries a plan — the same arithmetic as
    /// `solve_market`'s report.
    pub commitment: Option<SpotCommitmentReport>,
    /// Distinct full-horizon solves actually performed for the K
    /// requested paths of the *hedged* fleet: distinct scenario-tree
    /// leaves (identical quote sequences share one); 1 when the fleet
    /// never sees the market at all.
    pub distinct_solves: usize,
    /// Scenario-tree node count — the number of epoch-solves paid (vs
    /// `distinct_solves × epochs` without prefix sharing). `None` when
    /// the fleet is market-insulated and one path's epochs stood for the
    /// whole sampled forest.
    pub tree_nodes: Option<usize>,
}

impl FleetReport {
    /// Renders the quantile timeline as CSV (one row per epoch).
    pub fn timeline_csv(&self) -> String {
        envelope_csv(&self.epochs, "hedge_ratio_median", |e| {
            format!("{:.4}", e.hedge_ratio.median)
        })
    }

    /// Renders the report as the JSON document `mvcloud-cli fleet`
    /// prints.
    pub fn to_json(&self, scenario: Scenario) -> Json {
        let epochs = self
            .epochs
            .iter()
            .map(|e| envelope_epoch(e, ("hedge_ratio", &e.hedge_ratio)))
            .collect();
        let comparison = Json::opt(self.comparison.as_ref().map(|c| {
            Json::obj(vec![
                ("hedged", quantiles(&c.hedged)),
                ("pure_spot", quantiles(&c.pure_spot)),
                ("pure_reserved", quantiles(&c.pure_reserved)),
                ("hedged_wins_share", Json::Fixed(c.hedged_wins_share, 4)),
            ])
        }));
        let moves: usize = self.paths.iter().map(|p| p.moves).sum();
        Json::obj(vec![
            ("scenario", Json::str(scenario.label())),
            ("fleet", Json::str(self.fleet.clone())),
            ("paths", Json::UInt(self.paths.len() as u64)),
            ("distinct_solves", Json::UInt(self.distinct_solves as u64)),
            (
                "tree_nodes",
                Json::opt(self.tree_nodes.map(|n| Json::UInt(n as u64))),
            ),
            ("epochs", Json::Arr(epochs)),
            ("total_cost", quantiles(&self.total_cost)),
            ("hedge_ratio", quantiles(&self.hedge_ratio)),
            ("plan_stability", Json::Fixed(self.plan_stability, 4)),
            (
                "placement_moves_per_path",
                Json::Fixed(moves as f64 / self.paths.len() as f64, 2),
            ),
            ("comparison", comparison),
            (
                "commitment",
                Json::opt(self.commitment.as_ref().map(spot_commitment)),
            ),
        ])
    }
}

/// The envelope timeline as CSV, one row per epoch: the fleet and
/// market reports differ only in their sixth column, `sixth` (its
/// header and how an epoch renders it).
pub(crate) fn envelope_csv(
    epochs: &[FleetEpochReport],
    sixth: &str,
    render: impl Fn(&FleetEpochReport) -> String,
) -> String {
    let rows: Vec<Vec<String>> = epochs
        .iter()
        .map(|e| {
            vec![
                e.epoch.to_string(),
                format!("{:.6}", e.charged_cost.p10),
                format!("{:.6}", e.charged_cost.median),
                format!("{:.6}", e.charged_cost.p90),
                format!("{:.6}", e.cumulative_cost.median),
                render(e),
                format!("{:.6}", e.compute_factor.mean),
                format!("{:.6}", e.interruption.mean),
                e.distinct_plans.to_string(),
                format!("{:.4}", e.modal_share),
            ]
        })
        .collect();
    crate::report::render_csv(
        &[
            "epoch",
            "cost_p10",
            "cost_median",
            "cost_p90",
            "cumulative_median",
            sixth,
            "compute_factor_mean",
            "interruption_mean",
            "distinct_plans",
            "modal_share",
        ],
        &rows,
    )
}

/// What one forest solve under one fleet plan returns.
#[derive(Debug, Clone)]
pub(crate) struct SolvedPaths {
    /// Per-path accounting, in the order the paths were given.
    pub(crate) paths: Vec<FleetPathSummary>,
    /// See [`FleetReport::distinct_solves`].
    pub(crate) distinct_solves: usize,
    /// See [`FleetReport::tree_nodes`].
    pub(crate) tree_nodes: Option<usize>,
}

/// Sampled paths factored into their shared-prefix forest, over the
/// evolution-reweighted base models every fleet plan re-prices from.
struct Forest<'a> {
    sampled: &'a [MarketPath],
    tree: ScenarioTree,
    base: &'a [CloudCostModel],
}

impl<'a> Forest<'a> {
    fn new(sampled: &'a [MarketPath], base: &'a [CloudCostModel]) -> Self {
        Forest {
            sampled,
            tree: ScenarioTree::from_paths(sampled),
            base,
        }
    }
}

/// The `[reserved, spot]` [`PoolCharge`] pair one sampled quote induces
/// under a fleet: how a view placed on either pool is effectively
/// charged against the primary sheet. The primary pool is always the
/// exact identity on rates; the spot pool carries the quote's
/// interruption risk.
fn quote_pool_charges(quote: &EpochQuote, fleet: &FleetPlan) -> [PoolCharge; 2] {
    let rate = |p: Placement| -> f64 {
        let factor = fleet.terms(p).rate_factor;
        match p {
            Placement::Reserved => factor,
            Placement::Spot => factor * quote.factors.compute,
        }
    };
    let pool = |p: Placement, risk: InterruptionRisk| -> PoolCharge {
        if p == fleet.primary {
            // The primary pool *is* the sheet: exact identity on rates
            // by construction.
            return PoolCharge::new(1.0, risk);
        }
        PoolCharge::new(rate(p) / rate(fleet.primary), risk)
    };
    [
        pool(Placement::Reserved, InterruptionRisk::NONE),
        pool(Placement::Spot, InterruptionRisk::new(quote.interruption)),
    ]
}

/// One epoch's base model under the fleet's *primary* sheet for one
/// sampled quote: a spot primary rides the quote's factors (unit
/// quotes reproduce the base model bit-for-bit); a reserved primary
/// keeps the base sheet. Non-parity primary terms scale compute on
/// top; parity terms leave it bit-identical. Both steps are
/// [`CloudCostModel::scale_rates`], which re-prices the rented
/// instance with the sheet.
fn fleet_quote_model(
    base: &CloudCostModel,
    quote: &EpochQuote,
    fleet: &FleetPlan,
) -> CloudCostModel {
    let f = &quote.factors;
    let model = match fleet.primary {
        Placement::Spot => base.scale_rates(f.compute, f.storage, f.transfer),
        Placement::Reserved => base.clone(),
    };
    let terms = fleet.terms(fleet.primary);
    if terms.is_parity() {
        return model;
    }
    model.scale_rates(terms.rate_factor, 1.0, 1.0)
}

/// A NaN or infinite process parameter (a cut factor, a volatility)
/// poisons the sampled quotes; fail before any model is
/// compiled from them, with the offending metric named.
fn check_finite(sampled: &[MarketPath]) -> Result<(), AdvisorError> {
    for q in sampled.iter().flat_map(|p| &p.quotes) {
        let f = &q.factors;
        let metric = if !(f.compute.is_finite() && f.storage.is_finite() && f.transfer.is_finite())
        {
            "price factor"
        } else if !q.interruption.is_finite() {
            "interruption probability"
        } else {
            continue;
        };
        return Err(AdvisorError::NonFiniteMetric {
            metric: metric.to_string(),
        });
    }
    Ok(())
}

impl Advisor {
    /// Solves the horizon across `K` sampled price paths with joint
    /// per-view selection + placement and reports the Monte-Carlo
    /// envelope. See the module docs for the pipeline.
    pub fn solve_fleet(
        &self,
        scenario: Scenario,
        config: &FleetConfig,
    ) -> Result<FleetReport, AdvisorError> {
        if config.market.epochs == 0 {
            return Err(AdvisorError::EmptyHorizon);
        }
        if config.paths == 0 {
            return Err(AdvisorError::NoMarketPaths);
        }
        config.fleet.validate().map_err(AdvisorError::from)?;
        for terms in [&config.fleet.reserved, &config.fleet.spot] {
            if let Some(plan) = &terms.commitment {
                if plan.instance != self.config().instance {
                    return Err(AdvisorError::CommitmentMismatch {
                        plan: plan.name.clone(),
                        plan_instance: plan.instance.clone(),
                        advisor_instance: self.config().instance.clone(),
                    });
                }
            }
        }

        // Sampled once: every fleet variant and the fold read these.
        let sampled: Vec<MarketPath> = (0..config.paths).map(|j| config.market.path(j)).collect();
        check_finite(&sampled)?;
        let base = self.epoch_models(config.market.epochs, &config.evolution);
        let forest = Forest::new(&sampled, &base);
        let solved = self.solve_forest(scenario, &forest, &config.fleet);
        let comparison = config.compare_pure.then(|| {
            let totals = |solved: &SolvedPaths| -> Vec<f64> {
                solved
                    .paths
                    .iter()
                    .map(|p| p.total_cost.to_dollars_f64())
                    .collect()
            };
            let pure = |pool: Placement| {
                totals(&self.solve_forest(scenario, &forest, &config.fleet.as_pure(pool)))
            };
            let hedged = totals(&solved);
            let pure_spot = pure(Placement::Spot);
            let pure_reserved = pure(Placement::Reserved);
            let wins = hedged
                .iter()
                .zip(pure_spot.iter().zip(&pure_reserved))
                .filter(|(h, (s, r))| **h <= s.min(**r) + 1e-9)
                .count();
            FleetComparison {
                hedged: Quantiles::of(&hedged),
                pure_spot: Quantiles::of(&pure_spot),
                pure_reserved: Quantiles::of(&pure_reserved),
                hedged_wins_share: wins as f64 / hedged.len() as f64,
            }
        });
        Ok(self.render_fleet(config, &sampled, solved, comparison))
    }

    /// One chain solve over the forest under one fleet plan, then one
    /// account per path.
    fn solve_forest(
        &self,
        scenario: Scenario,
        forest: &Forest<'_>,
        fleet: &FleetPlan,
    ) -> SolvedPaths {
        let sampled = forest.sampled;
        // A pinned all-reserved fleet under a reserved primary never
        // sees the market: the quotes *differ* across paths, they just
        // don't matter (a sharing the prefix forest cannot discover),
        // so path 0's one-path tree stands for all — every path ends at
        // its leaf, and each path's account still reads its own sampled
        // interruption events.
        let insulated = fleet.primary == Placement::Reserved
            && fleet.pinned_pool() == Some(Placement::Reserved);
        let one_path;
        let stree = if insulated {
            one_path = ScenarioTree::from_paths(&sampled[..1]);
            &one_path
        } else {
            &forest.tree
        };
        let leaves = (0..sampled.len())
            .map(|j| stree.leaf_of(if insulated { 0 } else { j }))
            .collect();
        let nodes = stree
            .nodes()
            .iter()
            .map(|n| {
                (
                    n.parent,
                    fleet_quote_model(&forest.base[n.epoch], &n.quote, fleet),
                )
            })
            .collect();
        let node_pools: Vec<[PoolCharge; 2]> = stree
            .nodes()
            .iter()
            .map(|n| quote_pool_charges(&n.quote, fleet))
            .collect();
        let spec = ChainSpec {
            pools: Some(&node_pools),
            initial: fleet.initial,
            rebalance: fleet.rebalance,
        };
        let pool = self.problem().candidates().to_vec();
        let per_path = EpochChain::forest(nodes, leaves, pool).solve_with(scenario, &spec);
        let paths = sampled
            .iter()
            .zip(&per_path)
            .enumerate()
            .map(|(j, (path, steps))| self.account_fleet_path(j, fleet, path, steps))
            .collect();
        SolvedPaths {
            paths,
            distinct_solves: stree.distinct_leaves(),
            tree_nodes: (!insulated).then(|| stree.len()),
        }
    }

    /// Per-path accounting: totals, billable hours through the same
    /// component-rounding arithmetic as the horizon report (so a
    /// risk-free path reconciles with it bit-for-bit), raw per-pool work
    /// attribution, and selection/placement churn.
    fn account_fleet_path(
        &self,
        j: usize,
        fleet: &FleetPlan,
        path: &MarketPath,
        steps: &[EpochStep],
    ) -> FleetPathSummary {
        let pool = self.problem().candidates();
        let mut billed = Hours::ZERO;
        let mut reserved_hours = Hours::ZERO;
        let mut spot_hours = Hours::ZERO;
        let mut compute_bill = Money::ZERO;
        let mut switches = 0;
        let mut moves = 0;
        let mut epoch_costs = Vec::with_capacity(steps.len());
        let mut epoch_times = Vec::with_capacity(steps.len());
        let mut epoch_billed_hours = Vec::with_capacity(steps.len());
        let mut epoch_spot_shares: Vec<f64> = Vec::with_capacity(steps.len());
        let mut selections = Vec::with_capacity(steps.len());
        let mut placements = Vec::with_capacity(steps.len());
        for (e, (step, quote)) in steps.iter().zip(&path.quotes).enumerate() {
            // One pass over the selected views: each view's effective
            // (risk- and rate-adjusted) hours are derived once, totals
            // accumulate in ascending candidate order (added/moved are
            // sorted: binary_search), and the same work is attributed
            // raw (pre-rounding) to its pool.
            let pools = quote_pool_charges(quote, fleet);
            let time = step.outcome.evaluation.time;
            let mut raw = [Hours::ZERO; 2]; // [reserved, spot]
            raw[fleet.primary.slot()] += time;
            let mut maintenance = Hours::ZERO;
            let mut materialization = Hours::ZERO;
            let mut spot_selected = 0usize;
            for k in step.selection().ones() {
                let on = step.placements[k].slot();
                spot_selected += on;
                let mut work = pools[on].hours(pool[k].maintenance);
                maintenance += work;
                if step.added.binary_search(&k).is_ok() || step.moved.binary_search(&k).is_ok() {
                    let rebuild = pools[on].hours(pool[k].materialization);
                    materialization += rebuild;
                    work += rebuild;
                }
                raw[on] += work;
            }
            // Billable hours: the path total accumulates component by
            // component; the epoch's own subtotal is kept beside it (the
            // two associate differently under sub-hour rounding).
            let mut epoch_billed = Hours::ZERO;
            for hours in self.billed_components([time, maintenance, materialization]) {
                billed += hours;
                epoch_billed += hours;
            }
            epoch_billed_hours.push(epoch_billed);
            reserved_hours += raw[0];
            spot_hours += raw[1];
            epoch_spot_shares.push(match step.selection().count_ones() {
                0 => 0.0,
                selected => spot_selected as f64 / selected as f64,
            });
            compute_bill += step.outcome.evaluation.breakdown.compute();
            if e > 0 && !(step.added.is_empty() && step.dropped.is_empty()) {
                switches += 1;
            }
            moves += step.moved.len();
            epoch_costs.push(step.outcome.evaluation.cost());
            epoch_times.push(time);
            selections.push(step.selection().clone());
            placements.push(step.placements.clone());
        }
        FleetPathSummary {
            path: j,
            total_cost: epoch_costs.iter().copied().sum(),
            total_time: epoch_times.iter().copied().sum(),
            billed_instance_hours: billed,
            reserved_hours,
            spot_hours,
            compute_bill,
            switches,
            moves,
            interruptions: path.interruptions(),
            spot_share: epoch_spot_shares.iter().sum::<f64>() / steps.len() as f64,
            epoch_costs,
            epoch_times,
            epoch_billed_hours,
            epoch_spot_shares,
            selections,
            placements,
        }
    }

    /// Folds solved paths into the quantile envelope.
    fn render_fleet(
        &self,
        config: &FleetConfig,
        sampled: &[MarketPath],
        solved: SolvedPaths,
        comparison: Option<FleetComparison>,
    ) -> FleetReport {
        let epochs = config.market.epochs;
        let paths = solved.paths;
        let candidates = self.candidates();

        let mut epoch_reports = Vec::with_capacity(epochs);
        let mut cumulative: Vec<f64> = vec![0.0; paths.len()];
        let mut stability_sum = 0.0;
        for e in 0..epochs {
            for (c, p) in cumulative.iter_mut().zip(&paths) {
                *c += p.epoch_costs[e].to_dollars_f64();
            }
            let mut plans: HashMap<&SelectionSet, usize> = HashMap::new();
            for p in &paths {
                *plans.entry(&p.selections[e]).or_insert(0) += 1;
            }
            // Tie-break modal plans deterministically (last maximal in
            // path order), not by HashMap iteration order — the report
            // must reproduce bit-for-bit from the seed.
            let modal_set = paths
                .iter()
                .map(|p| &p.selections[e])
                .max_by_key(|sel| plans[*sel])
                .expect("at least one path");
            let modal_share = plans[modal_set] as f64 / paths.len() as f64;
            stability_sum += modal_share;
            epoch_reports.push(FleetEpochReport {
                epoch: e,
                charged_cost: Quantiles::over(&paths, |p| p.epoch_costs[e].to_dollars_f64()),
                cumulative_cost: Quantiles::of(&cumulative),
                time_hours: Quantiles::over(&paths, |p| p.epoch_times[e].value()),
                hedge_ratio: Quantiles::over(&paths, |p| p.epoch_spot_shares[e]),
                compute_factor: Quantiles::over(sampled, |p| p.quotes[e].factors.compute),
                interruption: Quantiles::over(sampled, |p| p.quotes[e].interruption),
                distinct_plans: plans.len(),
                modal_share,
                modal_selection: modal_set
                    .ones()
                    .map(|k| candidates[k].label.clone())
                    .collect(),
            });
        }

        let commitment = config.fleet.reserved.commitment.as_ref().map(|plan| {
            let total_months = self.config().months * epochs as f64;
            let spot: Vec<f64> = paths
                .iter()
                .map(|p| p.compute_bill.to_dollars_f64())
                .collect();
            let reserved: Vec<f64> = paths
                .iter()
                .map(|p| {
                    plan.fleet_horizon_cost(
                        total_months,
                        p.billed_instance_hours,
                        self.config().nb_instances,
                    )
                    .to_dollars_f64()
                })
                .collect();
            SpotCommitmentReport::from_path_bills(&plan.name, &spot, &reserved)
        });
        FleetReport {
            fleet: config.fleet.name.clone(),
            epochs: epoch_reports,
            total_cost: Quantiles::over(&paths, |p| p.total_cost.to_dollars_f64()),
            total_time_hours: Quantiles::over(&paths, |p| p.total_time.value()),
            hedge_ratio: Quantiles::over(&paths, |p| p.spot_share),
            plan_stability: stability_sum / epochs as f64,
            comparison,
            commitment,
            distinct_solves: solved.distinct_solves,
            tree_nodes: solved.tree_nodes,
            paths,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sales_domain, AdvisorConfig};
    use mv_market::{CorrelatedHazard, PriceProcess, SpotMarket};

    fn advisor() -> Advisor {
        Advisor::build(sales_domain(1_000, 4, 5.0, 42), AdvisorConfig::default()).unwrap()
    }

    #[test]
    fn constant_market_hedged_fleet_collapses_quantiles() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let report = a
            .solve_fleet(
                scenario,
                &FleetConfig {
                    market: MarketScenario::constant(4, 7),
                    paths: 8,
                    ..FleetConfig::default()
                },
            )
            .unwrap();
        assert_eq!(report.paths.len(), 8);
        assert_eq!(report.epochs.len(), 4);
        assert_eq!(report.plan_stability, 1.0);
        for e in &report.epochs {
            assert_eq!(e.charged_cost.spread(), 0.0);
            assert_eq!(e.distinct_plans, 1);
            // No market advantage: nothing should move to spot.
            assert_eq!(e.hedge_ratio.max, 0.0);
        }
        let cmp = report.comparison.expect("pure comparison on by default");
        // On a flat riskless market at parity terms all three fleets
        // price identically.
        assert_eq!(cmp.hedged.median, cmp.pure_spot.median);
        assert_eq!(cmp.hedged.median, cmp.pure_reserved.median);
        assert_eq!(cmp.hedged_wins_share, 1.0);
    }

    #[test]
    fn discounted_spot_pulls_views_onto_the_spot_pool() {
        // A deep flat spot discount with zero risk, priced per minute
        // (Cumulus) so the pool differential survives rounding: the
        // rebalancing fleet should spot-place its views and strictly
        // beat staying all-reserved. (Pure-spot also moves the *shared
        // processing* onto the discounted sheet, which a
        // reserved-primary hedge deliberately does not imitate.)
        let pricing = mv_pricing::presets::cumulus();
        let a = Advisor::build(
            sales_domain(1_000, 4, 5.0, 42),
            AdvisorConfig {
                pricing,
                instance: "c.std".to_string(),
                ..AdvisorConfig::default()
            },
        )
        .unwrap();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = FleetConfig {
            market: MarketScenario::constant(6, 3)
                .with(PriceProcess::Spot(SpotMarket::discounted(0.3, 0.0))),
            paths: 4,
            ..FleetConfig::default()
        };
        let report = a.solve_fleet(scenario, &config).unwrap();
        assert!(
            report.hedge_ratio.median > 0.0,
            "the discount should pull views onto spot: {:?}",
            report.hedge_ratio
        );
        let cmp = report.comparison.expect("comparison");
        assert!(
            cmp.hedged.median < cmp.pure_reserved.median,
            "hedged {} vs pure reserved {}",
            cmp.hedged.median,
            cmp.pure_reserved.median
        );
    }

    #[test]
    fn correlated_crunches_spread_the_envelope_reproducibly() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = FleetConfig {
            market: MarketScenario::constant(6, 11)
                .with(PriceProcess::Spot(SpotMarket::discounted(0.4, 0.2)))
                .with(PriceProcess::Correlated(
                    CorrelatedHazard::bursty(0.3, 0.8, 0.6).with_crunch_compute(1.4),
                )),
            paths: 12,
            ..FleetConfig::default()
        };
        let r1 = a.solve_fleet(scenario, &config).unwrap();
        let r2 = a.solve_fleet(scenario, &config).unwrap();
        assert_eq!(r1.total_cost, r2.total_cost);
        assert_eq!(r1.hedge_ratio, r2.hedge_ratio);
        // The crunch regime genuinely varies across paths somewhere.
        assert!(r1.epochs.iter().any(|e| e.interruption.spread() > 0.0));
        let csv = r1.timeline_csv();
        assert_eq!(csv.lines().count(), 7);
        assert!(csv.starts_with("epoch,cost_p10"));
        // The JSON renders the same epochs: each median charged cost at
        // six decimals is the CSV's `cost_median`.
        let json = r1.to_json(scenario);
        let epochs = json.get("epochs").and_then(Json::as_array).unwrap();
        assert_eq!(epochs.len(), 6);
        for (row, e) in csv.lines().skip(1).zip(epochs) {
            let median = e.get("charged_cost").and_then(|q| q.get("median"));
            assert_eq!(median.unwrap().render(), row.split(',').nth(2).unwrap());
        }
    }

    #[test]
    fn tree_route_is_bit_identical_to_the_flat_loop() {
        // The unshared reference: each sampled path solved alone through
        // the driver's inner step — a one-leaf forest, nothing shared,
        // nothing forked.
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = FleetConfig {
            market: MarketScenario::constant(6, 11)
                .with(PriceProcess::Spot(SpotMarket::discounted(0.4, 0.2)))
                .with(PriceProcess::Correlated(
                    CorrelatedHazard::bursty(0.3, 0.8, 0.6).with_crunch_compute(1.4),
                )),
            paths: 10,
            ..FleetConfig::default()
        };
        let tree = a.solve_fleet(scenario, &config).unwrap();
        let alone = |fleet: &FleetPlan, j: usize| -> FleetPathSummary {
            let path = [config.market.path(j)];
            let solved = a.solve_sampled_paths(scenario, &config.evolution, fleet, &path);
            assert_eq!(solved.distinct_solves, 1);
            solved.paths.into_iter().next().expect("one path in")
        };
        for (j, t) in tree.paths.iter().enumerate() {
            let f = alone(&config.fleet, j);
            assert_eq!(t.total_cost, f.total_cost, "path {j}");
            assert_eq!(t.billed_instance_hours, f.billed_instance_hours);
            assert_eq!(t.reserved_hours, f.reserved_hours, "path {j}");
            assert_eq!(t.spot_hours, f.spot_hours, "path {j}");
            assert_eq!(t.selections, f.selections, "path {j}");
            assert_eq!(t.placements, f.placements, "path {j}");
            assert_eq!(t.moves, f.moves, "path {j}");
            assert_eq!(t.interruptions, f.interruptions, "path {j}");
        }
        // The pure comparators run over the same forest: their totals
        // are the unshared per-path totals too.
        let cmp = tree.comparison.unwrap();
        for (pool, shared) in [
            (Placement::Spot, cmp.pure_spot),
            (Placement::Reserved, cmp.pure_reserved),
        ] {
            let pure = config.fleet.as_pure(pool);
            let totals: Vec<f64> = (0..config.paths)
                .map(|j| alone(&pure, j).total_cost.to_dollars_f64())
                .collect();
            assert_eq!(shared, Quantiles::of(&totals), "pure {pool:?}");
        }
        let nodes = tree.tree_nodes.expect("a hedged fleet solves a forest");
        assert!(nodes < tree.distinct_solves * 6, "no prefix shared");
    }

    #[test]
    fn insulated_fleet_pays_one_solve_even_on_a_volatile_market() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let mut config = FleetConfig {
            market: MarketScenario::constant(4, 5)
                .with(PriceProcess::Spot(SpotMarket::with_volatility(0.5))),
            paths: 8,
            compare_pure: false,
            ..FleetConfig::default()
        };
        config.fleet = config.fleet.as_pure(Placement::Reserved);
        let report = a.solve_fleet(scenario, &config).unwrap();
        // The quotes differ across paths but never reach the solve.
        assert_eq!(report.distinct_solves, 1);
        assert!(report.tree_nodes.is_none());
        assert_eq!(report.total_cost.spread(), 0.0);
    }

    #[test]
    fn degenerate_configs_are_errors() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        assert!(matches!(
            a.solve_fleet(
                scenario,
                &FleetConfig {
                    paths: 0,
                    ..FleetConfig::default()
                }
            ),
            Err(AdvisorError::NoMarketPaths)
        ));
        assert!(matches!(
            a.solve_fleet(
                scenario,
                &FleetConfig {
                    market: MarketScenario::constant(0, 1),
                    ..FleetConfig::default()
                }
            ),
            Err(AdvisorError::EmptyHorizon)
        ));
        let mut bad = FleetConfig::default();
        bad.fleet.spot.rate_factor = -1.0;
        assert!(matches!(
            a.solve_fleet(scenario, &bad),
            Err(AdvisorError::Pricing(_))
        ));
        let mut mismatched = FleetConfig::default();
        let mut plan = mv_pricing::CommitmentPlan::aws_small_1yr();
        plan.instance = "large".to_string();
        mismatched.fleet.reserved.commitment = Some(plan);
        assert!(matches!(
            a.solve_fleet(scenario, &mismatched),
            Err(AdvisorError::CommitmentMismatch { .. })
        ));
    }

    #[test]
    fn reserved_commitment_prices_the_fleet_compute() {
        let a = advisor();
        let mut config = FleetConfig {
            market: MarketScenario::constant(12, 3)
                .with(PriceProcess::Spot(SpotMarket::discounted(0.4, 0.3))),
            paths: 8,
            compare_pure: false,
            ..FleetConfig::default()
        };
        config.fleet.reserved.commitment = Some(mv_pricing::CommitmentPlan::aws_small_1yr());
        let report = a
            .solve_fleet(Scenario::tradeoff_normalized(0.5), &config)
            .unwrap();
        let cmp = report.commitment.expect("plan supplied");
        assert!(cmp.spot_compute.min > 0.0);
        assert!(cmp.reserved.min > 0.0);
        assert!((0.0..=1.0).contains(&cmp.reserved_wins_share));
    }
}

#[cfg(test)]
mod paths_tests;
