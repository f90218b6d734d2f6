//! Market-aware advising: solve the horizon against sampled price
//! trajectories instead of a frozen price sheet.
//!
//! [`Advisor::solve_horizon`] already re-bills a measured workload over
//! a multi-epoch horizon — but with one pricing policy for every epoch.
//! [`Advisor::solve_market`] replaces that constant with an
//! [`mv_market::MarketScenario`]: a stack of price processes (spot
//! swings, announced cuts, storage decay) sampled into `K` reproducible
//! price paths. Every epoch of every path gets its own re-priced
//! [`mv_cost::CloudCostModel`] plus an interruption probability, and the
//! transition-aware chain solves it with **risk-adjusted charging**:
//! every candidate's materialization/maintenance charge is inflated by
//! its expected re-run count under interruption
//! ([`mv_cost::InterruptionRisk`]).
//!
//! A single homogeneous fleet riding the sampled market *is* the
//! mixed-fleet solve with every view pinned to a spot pool at market
//! parity, so there is no market driver: [`Advisor::solve_market`] runs
//! [`Advisor::solve_fleet`] on [`MarketConfig::as_fleet`] (the pipeline
//! is described in [`crate::fleet`]) and projects the result onto the
//! single-fleet report: a Monte-Carlo envelope rather than a single
//! bill — per-epoch cost quantiles, plan stability (how often the
//! selected set agrees across paths), and a reserved-vs-spot commitment
//! comparison priced per path.

// The price-dynamics vocabulary, re-exported so downstream users reach
// everything through `mvcloud::market::*`.
pub use mv_market::{
    AnnouncedCut, CorrelatedHazard, EpochQuote, MarketPath, MarketScenario, PriceFactors,
    PriceProcess, ProcessQuote, ScenarioTree, SpotMarket, StorageDecay, TreeNode,
};

use mv_lattice::WorkloadEvolution;
use mv_pricing::{CommitmentPlan, FleetPlan};
use mv_select::Scenario;

use crate::fleet::{FleetConfig, FleetEpochReport, FleetPathSummary, FleetReport};
use crate::json::Json;
use crate::report::{envelope_epoch, quantiles, spot_commitment};
use crate::{Advisor, AdvisorError};

/// Shape of a market-aware Monte-Carlo solve.
#[derive(Debug, Clone)]
pub struct MarketConfig {
    /// The price-dynamics scenario (horizon length, seed, processes).
    pub market: MarketScenario,
    /// Number of sampled price paths `K`.
    pub paths: usize,
    /// How query frequencies evolve across epochs (composes with the
    /// price dynamics; [`WorkloadEvolution::fixed`] isolates the price
    /// effect).
    pub evolution: WorkloadEvolution,
    /// Optional reserved-capacity plan to price each path's compute
    /// against (must target the advisor's instance type).
    pub commitment: Option<CommitmentPlan>,
}

impl MarketConfig {
    /// The mixed-fleet solve this market solve *is*: every view pinned
    /// to a spot pool at market parity whose sheet is the primary one
    /// ([`FleetPlan::pure_spot`]), over the same sampled paths. The
    /// reservation, if any, backs the (idle) reserved pool, which is
    /// what the fleet report's commitment leg prices.
    pub fn as_fleet(&self) -> FleetConfig {
        let mut fleet = FleetPlan::pure_spot();
        fleet.reserved.commitment = self.commitment.clone();
        FleetConfig {
            market: self.market.clone(),
            paths: self.paths,
            evolution: self.evolution,
            fleet,
            compare_pure: false,
        }
    }
}

impl Default for MarketConfig {
    /// 16 paths over a year of constant prices (seed 42), fixed
    /// workload, no reservation.
    fn default() -> Self {
        MarketConfig {
            market: MarketScenario::constant(12, 42),
            paths: 16,
            evolution: WorkloadEvolution::fixed(),
            commitment: None,
        }
    }
}

/// Distribution summary of one per-path metric (nearest-rank
/// quantiles over the K sampled paths).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Smallest sampled value.
    pub min: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Largest sampled value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Quantiles {
    /// Summarizes `values` (must be non-empty). NaNs are tolerated (they
    /// order last under IEEE total order, never panic); the Monte-Carlo
    /// driver rejects non-finite sampled quotes with a typed error before
    /// any metric is derived from them, so none reaches a report.
    pub fn of(values: &[f64]) -> Quantiles {
        assert!(!values.is_empty(), "quantiles need at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |p: f64| -> f64 {
            // Nearest-rank: the smallest value with at least p·K samples
            // at or below it.
            let k = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[k - 1]
        };
        Quantiles {
            min: sorted[0],
            p10: rank(0.10),
            median: rank(0.50),
            p90: rank(0.90),
            max: rank(1.0),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }

    /// Summarizes `value` over `items` (must be non-empty).
    pub fn over<T>(items: &[T], value: impl Fn(&T) -> f64) -> Quantiles {
        Quantiles::of(&items.iter().map(value).collect::<Vec<f64>>())
    }

    /// The p90 − p10 spread (0 for a deterministic market).
    pub fn spread(&self) -> f64 {
        self.p90 - self.p10
    }
}

/// Reserved-vs-spot pricing of the horizon's compute, across paths.
#[derive(Debug, Clone)]
pub struct SpotCommitmentReport {
    /// The plan's name.
    pub plan: String,
    /// Per-path compute bill at the sampled spot prices, in dollars.
    pub spot_compute: Quantiles,
    /// Per-path cost of covering the same billed hours with the
    /// reservation (upfronts + discounted rate), in dollars.
    pub reserved: Quantiles,
    /// Per-path saving of reserving over riding the spot market
    /// (positive = the reservation wins), in dollars.
    pub saving: Quantiles,
    /// Share of paths on which the reservation was cheaper.
    pub reserved_wins_share: f64,
}

impl SpotCommitmentReport {
    /// Assembles the report from aligned per-path bills: what the
    /// compute actually cost on the sampled market vs covering the
    /// same billed hours with the reservation. This is the ONE place
    /// the comparison's arithmetic lives: the fleet report prices
    /// through it, and the single-fleet report is its pure-spot case.
    pub fn from_path_bills(plan: &str, spot: &[f64], reserved: &[f64]) -> SpotCommitmentReport {
        assert_eq!(
            spot.len(),
            reserved.len(),
            "per-path bills must align across the comparison"
        );
        let saving: Vec<f64> = spot.iter().zip(reserved).map(|(s, r)| s - r).collect();
        let wins = saving.iter().filter(|&&d| d > 0.0).count();
        SpotCommitmentReport {
            plan: plan.to_string(),
            spot_compute: Quantiles::of(spot),
            reserved: Quantiles::of(reserved),
            saving: Quantiles::of(&saving),
            reserved_wins_share: wins as f64 / spot.len() as f64,
        }
    }
}

/// The Monte-Carlo envelope of a market-aware horizon solve.
#[derive(Debug, Clone)]
pub struct MarketReport {
    /// Per-path accounting, in path order: the fleet's rows, with
    /// `billed_instance_hours` the sum of `epoch_billed_hours`.
    pub paths: Vec<FleetPathSummary>,
    /// The per-epoch quantile timeline (on the one spot pool a path's
    /// hedge ratio is 1 whenever it selects anything).
    pub epochs: Vec<FleetEpochReport>,
    /// Total charged cost across paths, in dollars.
    pub total_cost: Quantiles,
    /// Total processing hours across paths.
    pub total_time_hours: Quantiles,
    /// Mean modal share across epochs: 1.0 means the plan is immune to
    /// the sampled price dynamics, lower values mean the money-optimal
    /// selection genuinely depends on the price path.
    pub plan_stability: f64,
    /// Reserved-vs-spot comparison, when a plan was supplied.
    pub commitment: Option<SpotCommitmentReport>,
    /// Distinct full-horizon solves actually performed for the K
    /// requested paths: distinct scenario-tree leaves (identical quote
    /// sequences share one). A deterministic market reports 1.
    pub distinct_solves: usize,
    /// Scenario-tree node count — the number of epoch-solves paid (vs
    /// `distinct_solves × epochs` without prefix sharing); always `Some`.
    pub tree_nodes: Option<usize>,
}

impl MarketReport {
    /// Renders the quantile timeline as CSV (one row per epoch).
    pub fn timeline_csv(&self) -> String {
        crate::fleet::envelope_csv(&self.epochs, "time_median", |e| {
            format!("{:.6}", e.time_hours.median)
        })
    }

    /// Renders the report as the JSON document `mvcloud-cli market`
    /// prints.
    pub fn to_json(&self, scenario: Scenario) -> Json {
        let epochs = self
            .epochs
            .iter()
            .map(|e| envelope_epoch(e, ("time_hours", &e.time_hours)))
            .collect();
        Json::obj(vec![
            ("scenario", Json::str(scenario.label())),
            ("paths", Json::UInt(self.paths.len() as u64)),
            ("distinct_solves", Json::UInt(self.distinct_solves as u64)),
            (
                "tree_nodes",
                Json::opt(self.tree_nodes.map(|n| Json::UInt(n as u64))),
            ),
            ("epochs", Json::Arr(epochs)),
            ("total_cost", quantiles(&self.total_cost)),
            ("total_time_hours", quantiles(&self.total_time_hours)),
            ("plan_stability", Json::Fixed(self.plan_stability, 4)),
            (
                "commitment",
                Json::opt(self.commitment.as_ref().map(spot_commitment)),
            ),
        ])
    }
}

impl From<FleetReport> for MarketReport {
    /// The single-fleet projection of a pure-spot fleet report: the
    /// fleet name, hedge ratio and pure-fleet comparison carry no
    /// information when every view sits on the one pool, so they drop
    /// out; the rows are the fleet's own.
    fn from(fleet: FleetReport) -> MarketReport {
        MarketReport {
            paths: fleet
                .paths
                .into_iter()
                .map(|p| FleetPathSummary {
                    // Epoch subtotals first, as the horizon report sums
                    // them: a zero-volatility market reproduces its
                    // billed hours bit for bit under any rounding rule.
                    billed_instance_hours: p.epoch_billed_hours.iter().copied().sum(),
                    ..p
                })
                .collect(),
            epochs: fleet.epochs,
            total_cost: fleet.total_cost,
            total_time_hours: fleet.total_time_hours,
            plan_stability: fleet.plan_stability,
            commitment: fleet.commitment,
            distinct_solves: fleet.distinct_solves,
            tree_nodes: fleet.tree_nodes,
        }
    }
}

impl Advisor {
    /// Solves the horizon across `K` sampled price paths and reports
    /// the Monte-Carlo envelope: [`Advisor::solve_fleet`] on
    /// [`MarketConfig::as_fleet`], projected onto the single-fleet
    /// report. See the module docs for semantics.
    pub fn solve_market(
        &self,
        scenario: Scenario,
        config: &MarketConfig,
    ) -> Result<MarketReport, AdvisorError> {
        self.solve_fleet(scenario, &config.as_fleet())
            .map(MarketReport::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sales_domain, AdvisorConfig, HorizonConfig};
    use mv_market::{AnnouncedCut, PriceProcess, SpotMarket};

    fn advisor() -> Advisor {
        Advisor::build(sales_domain(1_000, 4, 5.0, 42), AdvisorConfig::default()).unwrap()
    }

    #[test]
    fn constant_market_collapses_quantiles_to_the_horizon_solve() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = MarketConfig {
            market: MarketScenario::constant(4, 7),
            paths: 16,
            ..MarketConfig::default()
        };
        let report = a.solve_market(scenario, &config).unwrap();
        let horizon = a
            .solve_horizon(
                scenario,
                &HorizonConfig {
                    epochs: 4,
                    ..HorizonConfig::default()
                },
            )
            .unwrap();
        assert_eq!(report.paths.len(), 16);
        assert_eq!(report.epochs.len(), 4);
        assert_eq!(report.plan_stability, 1.0);
        for (e, er) in report.epochs.iter().enumerate() {
            let expected = horizon.epochs[e].charged_cost.to_dollars_f64();
            assert_eq!(er.charged_cost.min, expected, "epoch {e}");
            assert_eq!(er.charged_cost.max, expected, "epoch {e}");
            assert_eq!(er.charged_cost.spread(), 0.0, "epoch {e}");
            assert_eq!(er.distinct_plans, 1);
            assert_eq!(er.interruption.max, 0.0);
        }
        for p in &report.paths {
            assert_eq!(p.total_cost, horizon.total_cost);
            assert_eq!(p.billed_instance_hours, horizon.billed_instance_hours);
        }
    }

    #[test]
    fn announced_cut_lowers_the_tail_of_the_bill() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let base = MarketConfig {
            market: MarketScenario::constant(6, 1),
            paths: 4,
            ..MarketConfig::default()
        };
        let cut = MarketConfig {
            market: MarketScenario::constant(6, 1)
                .with(PriceProcess::Cut(AnnouncedCut::compute(3, 0.5))),
            paths: 4,
            ..MarketConfig::default()
        };
        let flat = a.solve_market(scenario, &base).unwrap();
        let with_cut = a.solve_market(scenario, &cut).unwrap();
        // Before the cut takes effect the bills agree; after, the cut
        // path is never dearer.
        for e in 0..3 {
            assert_eq!(
                flat.epochs[e].charged_cost.median,
                with_cut.epochs[e].charged_cost.median
            );
        }
        for e in 3..6 {
            assert!(with_cut.epochs[e].charged_cost.median <= flat.epochs[e].charged_cost.median);
        }
        assert!(with_cut.total_cost.median < flat.total_cost.median);
    }

    #[test]
    fn stochastic_spot_spreads_the_envelope_reproducibly() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = MarketConfig {
            market: MarketScenario::constant(6, 99)
                .with(PriceProcess::Spot(SpotMarket::with_volatility(0.5))),
            paths: 16,
            ..MarketConfig::default()
        };
        let r1 = a.solve_market(scenario, &config).unwrap();
        let r2 = a.solve_market(scenario, &config).unwrap();
        // Reproducible bit-for-bit from the seed.
        assert_eq!(r1.total_cost, r2.total_cost);
        assert_eq!(r1.plan_stability, r2.plan_stability);
        // Volatility genuinely spreads the per-epoch envelope somewhere.
        assert!(r1.epochs.iter().any(|e| e.charged_cost.spread() > 0.0));
        // Quantiles are ordered.
        for e in &r1.epochs {
            assert!(e.charged_cost.min <= e.charged_cost.p10);
            assert!(e.charged_cost.p10 <= e.charged_cost.median);
            assert!(e.charged_cost.median <= e.charged_cost.p90);
            assert!(e.charged_cost.p90 <= e.charged_cost.max);
        }
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
    fn commitment_comparison_prices_each_path() {
        let a = advisor();
        let config = MarketConfig {
            market: MarketScenario::constant(12, 3)
                .with(PriceProcess::Spot(SpotMarket::discounted(0.4, 0.3))),
            paths: 16,
            commitment: Some(mv_pricing::CommitmentPlan::aws_small_1yr()),
            ..MarketConfig::default()
        };
        let report = a
            .solve_market(Scenario::tradeoff_normalized(0.5), &config)
            .unwrap();
        let cmp = report.commitment.expect("plan supplied");
        assert!(cmp.spot_compute.min > 0.0);
        assert!(cmp.reserved.min > 0.0);
        assert!((0.0..=1.0).contains(&cmp.reserved_wins_share));
        // At a deep average spot discount the spot market usually beats
        // the (on-demand-anchored) reservation.
        assert!(cmp.saving.median < 0.0);
    }

    #[test]
    fn tree_route_is_bit_identical_to_the_flat_loop() {
        // The unshared reference: each sampled path solved alone through
        // the driver's inner step — a one-leaf forest, nothing shared,
        // nothing forked.
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = MarketConfig {
            market: MarketScenario::constant(6, 99)
                .with(PriceProcess::Spot(SpotMarket::with_volatility(0.5))),
            paths: 12,
            commitment: Some(mv_pricing::CommitmentPlan::aws_small_1yr()),
            ..MarketConfig::default()
        };
        let tree = a.solve_market(scenario, &config).unwrap();
        let fleet = config.as_fleet().fleet;
        for (j, t) in tree.paths.iter().enumerate() {
            let alone = a.solve_sampled_paths(
                scenario,
                &config.evolution,
                &fleet,
                &[config.market.path(j)],
            );
            assert_eq!((alone.distinct_solves, alone.tree_nodes), (1, Some(6)));
            let f = &alone.paths[0];
            assert_eq!(t.total_cost, f.total_cost, "path {j}");
            assert_eq!(t.total_time, f.total_time, "path {j}");
            assert_eq!(
                t.billed_instance_hours,
                f.epoch_billed_hours.iter().copied().sum(),
                "path {j}"
            );
            assert_eq!(t.compute_bill, f.compute_bill, "path {j}");
            assert_eq!(t.epoch_costs, f.epoch_costs, "path {j}");
            assert_eq!(t.selections, f.selections, "path {j}");
            assert_eq!(t.switches, f.switches, "path {j}");
            assert_eq!(t.interruptions, f.interruptions, "path {j}");
        }
        assert!(tree.commitment.is_some());
        // The shared solve reports what it actually paid for.
        let nodes = tree
            .tree_nodes
            .expect("a spot-riding fleet solves a forest");
        assert!(nodes < tree.distinct_solves * 6, "no prefix shared");
    }

    #[test]
    fn deterministic_market_pays_one_solve_in_both_modes() {
        // Sixteen identical paths degenerate to a single 4-node chain
        // with every path an alias of its leaf — the same work as one
        // of them solved alone.
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = MarketConfig {
            market: MarketScenario::constant(4, 7),
            paths: 16,
            ..MarketConfig::default()
        };
        let shared = a.solve_market(scenario, &config).unwrap();
        assert_eq!(shared.distinct_solves, 1);
        assert_eq!(shared.tree_nodes, Some(4));
        let alone = a.solve_sampled_paths(
            scenario,
            &config.evolution,
            &config.as_fleet().fleet,
            &[config.market.path(0)],
        );
        assert_eq!((alone.distinct_solves, alone.tree_nodes), (1, Some(4)));
        for p in &shared.paths {
            assert_eq!(p.total_cost, alone.paths[0].total_cost);
        }
    }

    #[test]
    fn quantiles_tolerate_nan_without_panicking() {
        // Regression: `Quantiles::of` used to sort with
        // `partial_cmp(..).expect(..)` and abort on the first NaN.
        let q = Quantiles::of(&[1.0, f64::NAN, 0.5]);
        assert_eq!(q.min, 0.5);
        assert!(q.max.is_nan(), "NaN orders last under total order");
    }

    #[test]
    fn non_finite_price_inputs_are_typed_errors_not_aborts() {
        let a = advisor();
        // A NaN in a user-supplied price factor used to survive until
        // the quantile sort's `partial_cmp(..).expect(..)` and abort there.
        let config = MarketConfig {
            market: MarketScenario::constant(4, 1)
                .with(PriceProcess::Cut(AnnouncedCut::compute(1, f64::NAN))),
            paths: 4,
            ..MarketConfig::default()
        };
        let scenario = Scenario::tradeoff_normalized(0.5);
        assert!(matches!(
            a.solve_market(scenario, &config),
            Err(AdvisorError::NonFiniteMetric { .. })
        ));
        // The same cut under a hedged fleet (reserved primary: the
        // check is the driver's, not the spot sheet's) used to abort
        // inside the pricing layer's rate-factor assertion.
        let hedged = FleetConfig {
            market: config.market.clone(),
            paths: 4,
            ..FleetConfig::default()
        };
        assert!(matches!(
            a.solve_fleet(scenario, &hedged),
            Err(AdvisorError::NonFiniteMetric { .. })
        ));
        // Every quote of every sampled path is checked, not only the
        // first path's: an infinite volatility leaves a path finite
        // when its one shock is negative (the price floor catches it)
        // and infinite otherwise.
        let wild = |seed: u64| {
            MarketScenario::constant(2, seed).with(PriceProcess::Spot(SpotMarket::with_volatility(
                f64::INFINITY,
            )))
        };
        let finite = |p: &MarketPath| p.quotes.iter().all(|q| q.factors.compute.is_finite());
        let seed = (0..64)
            .find(|&s| finite(&wild(s).path(0)) && (1..6).any(|j| !finite(&wild(s).path(j))))
            .expect("a seed whose first path alone stays finite");
        let later_path = MarketConfig {
            market: wild(seed),
            paths: 6,
            ..MarketConfig::default()
        };
        assert!(matches!(
            a.solve_market(scenario, &later_path),
            Err(AdvisorError::NonFiniteMetric { .. })
        ));
        assert!(matches!(
            a.solve_fleet(scenario, &later_path.as_fleet()),
            Err(AdvisorError::NonFiniteMetric { .. })
        ));
        // A NaN volatility is sanitized by the spot sampler itself
        // (IEEE max drops the NaN at the price floor): no abort, and the
        // sampled factors stay finite, so the solve succeeds.
        let nan_vol = MarketConfig {
            market: MarketScenario::constant(4, 1)
                .with(PriceProcess::Spot(SpotMarket::with_volatility(f64::NAN))),
            paths: 2,
            ..MarketConfig::default()
        };
        assert!(a.solve_market(scenario, &nan_vol).is_ok());
    }

    #[test]
    fn degenerate_configs_are_errors() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let zero_paths = MarketConfig {
            paths: 0,
            ..MarketConfig::default()
        };
        assert!(matches!(
            a.solve_market(scenario, &zero_paths),
            Err(AdvisorError::NoMarketPaths)
        ));
        let zero_epochs = MarketConfig {
            market: MarketScenario::constant(0, 1),
            ..MarketConfig::default()
        };
        assert!(matches!(
            a.solve_market(scenario, &zero_epochs),
            Err(AdvisorError::EmptyHorizon)
        ));
        let mut plan = mv_pricing::CommitmentPlan::aws_small_1yr();
        plan.instance = "large".to_string();
        let mismatch = MarketConfig {
            commitment: Some(plan),
            ..MarketConfig::default()
        };
        assert!(matches!(
            a.solve_market(scenario, &mismatch),
            Err(AdvisorError::CommitmentMismatch { .. })
        ));
    }
}
