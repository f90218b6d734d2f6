//! Multi-epoch advising: solve a billing *horizon* instead of a single
//! period.
//!
//! [`Advisor::build`] measures the workload and candidate pool once;
//! [`Advisor::solve_horizon`] then re-bills that measurement over a
//! sequence of epochs whose query frequencies evolve (drift, bursts,
//! seasonality — [`WorkloadEvolution`]), threading the selection state
//! through `mv_select`'s transition-aware [`EpochChain`]: views kept
//! across an epoch boundary pay maintenance and storage only, newly
//! added views pay materialization, dropped views forfeit theirs. The
//! result is a [`HorizonReport`]: the per-epoch timeline of selections
//! and transitions, a provider-side [`mv_pricing::UsageLedger`] invoice
//! per epoch (reconciled against the predicted charges in
//! `tests/horizon.rs`), the cumulative bill, and — because a horizon
//! finally gives the upfront fee enough hours to amortize — an
//! on-demand vs reserved-instance comparison over the horizon's billed
//! compute.

use mv_cost::CloudCostModel;
use mv_lattice::WorkloadEvolution;
use mv_pricing::{CommitmentComparison, CommitmentPlan, Invoice};
use mv_select::epoch::{horizon_cost, horizon_time, EpochChain, EpochStep};
use mv_select::Scenario;
use mv_units::{Hours, Money};

use crate::json::Json;
use crate::report::{hours, names, usd};
use crate::{Advisor, AdvisorError};

/// Shape of a billing horizon.
#[derive(Debug, Clone)]
pub struct HorizonConfig {
    /// Number of billing periods, each `AdvisorConfig::months` long.
    pub epochs: usize,
    /// How query frequencies evolve from the measured base workload.
    pub evolution: WorkloadEvolution,
    /// Optional reserved-capacity plan to price the horizon's compute
    /// against (must target the advisor's instance type).
    pub commitment: Option<CommitmentPlan>,
}

impl Default for HorizonConfig {
    /// A year of identical monthly epochs, no reservation.
    fn default() -> Self {
        HorizonConfig {
            epochs: 12,
            evolution: WorkloadEvolution::fixed(),
            commitment: None,
        }
    }
}

/// One epoch of the rendered timeline.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Labels of the selected views.
    pub selected: Vec<String>,
    /// Labels of views newly materialized this epoch.
    pub added: Vec<String>,
    /// Labels of views carried over (maintenance + storage only).
    pub kept: Vec<String>,
    /// Labels of views dropped at this boundary (build cost forfeited).
    pub dropped: Vec<String>,
    /// Frequency-weighted workload processing hours this epoch.
    pub time_hours: f64,
    /// The transition-aware bill for this epoch.
    pub charged_cost: Money,
    /// What the same selection would bill if the epoch stood alone
    /// (full materialization) — the single-period reference.
    pub full_price_cost: Money,
    /// Running total of charged costs through this epoch.
    pub cumulative_cost: Money,
    /// The provider-side invoice for this epoch's recorded usage. Its
    /// total equals `charged_cost` (reconciled in `tests/horizon.rs`).
    pub invoice: Invoice,
}

/// A solved horizon: the full chain state plus the rendered timeline.
#[derive(Debug, Clone)]
pub struct HorizonReport {
    /// Raw per-epoch chain steps (selections, transitions, charged and
    /// full-price evaluations).
    pub steps: Vec<EpochStep>,
    /// The rendered per-epoch timeline.
    pub epochs: Vec<EpochReport>,
    /// Total charged cost across the horizon.
    pub total_cost: Money,
    /// Total workload processing hours across the horizon.
    pub total_time: Hours,
    /// Total *billable* compute across the horizon, in instance-hours
    /// (per-component rounding applied, fleet-multiplied) — the hours a
    /// reservation would have to cover.
    pub billed_instance_hours: Hours,
    /// On-demand vs reserved pricing of those hours, when a plan was
    /// supplied.
    pub commitment: Option<CommitmentComparison>,
}

impl HorizonReport {
    /// Renders the timeline as CSV (one row per epoch).
    pub fn timeline_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .epochs
            .iter()
            .map(|e| {
                vec![
                    e.epoch.to_string(),
                    e.selected.join(" "),
                    e.added.len().to_string(),
                    e.kept.len().to_string(),
                    e.dropped.len().to_string(),
                    format!("{:.6}", e.time_hours),
                    format!("{:.6}", e.charged_cost.to_dollars_f64()),
                    format!("{:.6}", e.full_price_cost.to_dollars_f64()),
                    format!("{:.6}", e.cumulative_cost.to_dollars_f64()),
                ]
            })
            .collect();
        crate::report::render_csv(
            &[
                "epoch",
                "selected",
                "added",
                "kept",
                "dropped",
                "time_hours",
                "charged_cost",
                "full_price_cost",
                "cumulative_cost",
            ],
            &rows,
        )
    }

    /// Renders the report as the JSON document `mvcloud-cli horizon`
    /// prints; `myopic` names the policy that solved it.
    pub fn to_json(&self, scenario: Scenario, myopic: bool) -> Json {
        let epochs = self
            .epochs
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("epoch", Json::UInt(e.epoch as u64)),
                    ("selected", names(&e.selected)),
                    ("added", names(&e.added)),
                    ("kept", names(&e.kept)),
                    ("dropped", names(&e.dropped)),
                    ("time_hours", Json::Fixed(e.time_hours, 6)),
                    ("charged_cost", usd(e.charged_cost)),
                    ("full_price_cost", usd(e.full_price_cost)),
                    ("cumulative_cost", usd(e.cumulative_cost)),
                ])
            })
            .collect();
        let commitment = Json::opt(self.commitment.as_ref().map(|c| {
            Json::obj(vec![
                ("plan", Json::str(c.plan.clone())),
                ("billed_instance_hours", hours(c.billed_instance_hours)),
                ("on_demand", usd(c.on_demand)),
                ("reserved", usd(c.reserved)),
                ("saving", usd(c.saving())),
                ("reserved_wins", Json::Bool(c.reserved_wins())),
            ])
        }));
        Json::obj(vec![
            ("scenario", Json::str(scenario.label())),
            ("policy", Json::str(if myopic { "myopic" } else { "chain" })),
            ("epochs", Json::Arr(epochs)),
            ("total_cost", usd(self.total_cost)),
            ("total_time_hours", hours(self.total_time)),
            ("billed_instance_hours", hours(self.billed_instance_hours)),
            ("commitment", commitment),
        ])
    }
}

impl Advisor {
    /// The per-epoch costing models `epochs` billing periods induce over
    /// this advisor's measured workload: epoch `e` keeps every measured
    /// charge but re-weights query frequencies by `evolution`. The query
    /// universe is fixed, so the measured candidate pool stays aligned
    /// with every epoch. A horizon chains them as they are; the
    /// Monte-Carlo driver re-prices them per sampled quote.
    pub(crate) fn epoch_models(
        &self,
        epochs: usize,
        evolution: &WorkloadEvolution,
    ) -> Vec<CloudCostModel> {
        let base = self.problem().model();
        (0..epochs)
            .map(|e| base.with_frequencies(&evolution.frequencies(&self.domain().workload, e)))
            .collect()
    }

    /// The transition-aware [`EpochChain`] for a horizon over this
    /// advisor's measured pool.
    pub fn epoch_chain(&self, horizon: &HorizonConfig) -> EpochChain {
        EpochChain::new(
            self.epoch_models(horizon.epochs, &horizon.evolution),
            self.problem().candidates().to_vec(),
        )
    }

    /// Solves the horizon with the transition-aware chain and renders
    /// the full report. See the module docs for semantics.
    pub fn solve_horizon(
        &self,
        scenario: Scenario,
        horizon: &HorizonConfig,
    ) -> Result<HorizonReport, AdvisorError> {
        self.solve_horizon_by(horizon, |chain| chain.solve(scenario))
    }

    /// The transition-blind comparator: every epoch re-solved from
    /// scratch (the "run the single-period advisor each month" policy),
    /// then billed under true transition accounting. Useful to quantify
    /// what chain-awareness saves on a drifting horizon.
    pub fn solve_horizon_myopic(
        &self,
        scenario: Scenario,
        horizon: &HorizonConfig,
    ) -> Result<HorizonReport, AdvisorError> {
        self.solve_horizon_by(horizon, |chain| chain.solve_myopic(scenario))
    }

    /// Checks the horizon and its reservation, builds the horizon's
    /// chain, lets `solve` walk it and renders the steps.
    fn solve_horizon_by(
        &self,
        horizon: &HorizonConfig,
        solve: impl FnOnce(&EpochChain) -> Vec<EpochStep>,
    ) -> Result<HorizonReport, AdvisorError> {
        if horizon.epochs == 0 {
            return Err(AdvisorError::EmptyHorizon);
        }
        let config = self.config();
        let commitment = match &horizon.commitment {
            Some(plan) if plan.instance != config.instance => {
                return Err(AdvisorError::CommitmentMismatch {
                    plan: plan.name.clone(),
                    plan_instance: plan.instance.clone(),
                    advisor_instance: config.instance.clone(),
                });
            }
            Some(plan) => {
                let on_demand_hourly = config
                    .pricing
                    .compute
                    .instance(&config.instance)
                    .map_err(AdvisorError::from)?
                    .hourly;
                Some((plan, on_demand_hourly))
            }
            None => None,
        };
        let chain = self.epoch_chain(horizon);
        let steps = solve(&chain);
        self.render_horizon(commitment, &chain, steps)
    }

    /// Assembles a [`HorizonReport`] from solved chain steps: per-epoch
    /// ledgers/invoices, cumulative totals, billable compute and, given a
    /// checked plan and the on-demand hourly rate, the commitment
    /// comparison.
    fn render_horizon(
        &self,
        commitment: Option<(&CommitmentPlan, Money)>,
        chain: &EpochChain,
        steps: Vec<EpochStep>,
    ) -> Result<HorizonReport, AdvisorError> {
        let config = self.config();
        let labels: Vec<String> = self.candidates().iter().map(|m| m.label.clone()).collect();
        let name = |ks: &[usize]| ks.iter().map(|&k| labels[k].clone()).collect::<Vec<_>>();
        let mut epochs = Vec::with_capacity(steps.len());
        let mut cumulative = Money::ZERO;
        let mut billed = Hours::ZERO;
        let pool = chain.pool();
        for (e, (step, model)) in steps.iter().zip(chain.epochs()).enumerate() {
            // The epoch's compute components, summed once for both its
            // ledger and its billable hours: the selection's maintenance
            // and the *newly added* views' materialization (carried
            // views' builds are sunk in earlier epochs).
            let time = step.outcome.evaluation.time;
            let maintenance: Hours = step.selection().ones().map(|k| pool[k].maintenance).sum();
            let materialization: Hours = step.added.iter().map(|&k| pool[k].materialization).sum();
            let ledger = self.period_ledger(
                model,
                step.selection(),
                time,
                maintenance,
                ("view materialization (new views)", materialization),
            );
            let invoice = ledger
                .invoice(&config.pricing)
                .map_err(AdvisorError::from)?;
            let charged = step.outcome.evaluation.cost();
            cumulative += charged;
            // The epoch's own subtotal first, then the running total (the
            // two associate differently under sub-hour rounding).
            billed += self
                .billed_components([time, maintenance, materialization])
                .sum::<Hours>();
            epochs.push(EpochReport {
                epoch: e,
                selected: name(&step.selection().ones().collect::<Vec<_>>()),
                added: name(&step.added),
                kept: name(&step.kept),
                dropped: name(&step.dropped),
                time_hours: time.value(),
                charged_cost: charged,
                full_price_cost: step.full_price.cost(),
                cumulative_cost: cumulative,
                invoice,
            });
        }
        let commitment = commitment.map(|(plan, on_demand_hourly)| {
            let total_months = config.months * steps.len() as f64;
            plan.compare_horizon(on_demand_hourly, total_months, billed, config.nb_instances)
        });
        let total_cost = horizon_cost(&steps);
        let total_time = horizon_time(&steps);
        Ok(HorizonReport {
            steps,
            epochs,
            total_cost,
            total_time,
            billed_instance_hours: billed,
            commitment,
        })
    }

    /// The billable instance-hours of an epoch's compute components
    /// (processing, maintenance, materialization): each nonzero one
    /// rounded per the provider's rule and fleet-multiplied; a zero
    /// component bills nothing. The caller adds them up, in this order.
    /// The horizon report and the Monte-Carlo driver's per-epoch
    /// subtotals (`crate::fleet`, over risk-adjusted hours) both bill
    /// through it (the zero-volatility market proptest pins them
    /// bit-for-bit).
    pub(crate) fn billed_components(&self, components: [Hours; 3]) -> impl Iterator<Item = Hours> {
        let config = self.config();
        let rounding = config.pricing.compute.rounding;
        let instances = config.nb_instances as f64;
        components
            .into_iter()
            .filter(|&t| t > Hours::ZERO)
            .map(move |t| rounding.apply(t) * instances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sales_domain, AdvisorConfig};
    use mv_select::SolverKind;

    fn advisor() -> Advisor {
        Advisor::build(sales_domain(1_200, 4, 5.0, 42), AdvisorConfig::default()).unwrap()
    }

    #[test]
    fn flat_horizon_repeats_the_single_period_solve() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let report = a
            .solve_horizon(
                scenario,
                &HorizonConfig {
                    epochs: 3,
                    ..HorizonConfig::default()
                },
            )
            .unwrap();
        assert_eq!(report.epochs.len(), 3);
        let solo = a.solve(scenario, SolverKind::LocalSearch);
        for (e, step) in report.steps.iter().enumerate() {
            assert_eq!(
                step.selection(),
                &solo.evaluation.selection,
                "epoch {e} drifted from the single-period selection"
            );
            assert_eq!(step.full_price, solo.evaluation, "epoch {e}");
        }
        // Carried epochs stop paying materialization, so the bill is
        // monotone non-increasing and the cumulative total is exact.
        assert!(report.epochs[1].charged_cost <= report.epochs[0].charged_cost);
        assert_eq!(report.epochs[0].charged_cost, solo.evaluation.cost());
        assert_eq!(
            report.epochs.last().unwrap().cumulative_cost,
            report.total_cost
        );
    }

    #[test]
    fn zero_epoch_horizon_is_an_error_not_a_panic() {
        let a = advisor();
        for solve in [Advisor::solve_horizon, Advisor::solve_horizon_myopic] {
            let err = solve(
                &a,
                Scenario::tradeoff_normalized(0.5),
                &HorizonConfig {
                    epochs: 0,
                    ..HorizonConfig::default()
                },
            );
            assert!(matches!(err, Err(crate::AdvisorError::EmptyHorizon)));
        }
    }

    #[test]
    fn epoch_invoices_reconcile_with_charged_evaluations() {
        let a = advisor();
        let report = a
            .solve_horizon(
                Scenario::tradeoff_normalized(0.4),
                &HorizonConfig {
                    epochs: 4,
                    evolution: mv_lattice::WorkloadEvolution::seasonal(4, 0.8),
                    commitment: None,
                },
            )
            .unwrap();
        for e in &report.epochs {
            assert_eq!(
                e.invoice.total(),
                e.charged_cost,
                "epoch {}: invoice drifted from prediction",
                e.epoch
            );
            assert!(e.full_price_cost >= e.charged_cost);
        }
    }

    #[test]
    fn commitment_comparison_prices_the_horizon() {
        let a = advisor();
        let report = a
            .solve_horizon(
                Scenario::tradeoff_normalized(0.5),
                &HorizonConfig {
                    epochs: 12,
                    evolution: mv_lattice::WorkloadEvolution::fixed(),
                    commitment: Some(mv_pricing::CommitmentPlan::aws_small_1yr()),
                },
            )
            .unwrap();
        let cmp = report.commitment.expect("plan supplied");
        assert_eq!(cmp.billed_instance_hours, report.billed_instance_hours);
        assert!(cmp.on_demand > Money::ZERO);
        assert!(cmp.reserved > Money::ZERO);
        // The on-demand side prices exactly the horizon's billed hours.
        let hourly = a
            .config()
            .pricing
            .compute
            .instance(&a.config().instance)
            .unwrap()
            .hourly;
        assert_eq!(
            cmp.on_demand,
            hourly.scale(report.billed_instance_hours.value())
        );
    }

    #[test]
    fn mismatched_commitment_instance_rejected() {
        let a = advisor();
        let mut plan = mv_pricing::CommitmentPlan::aws_small_1yr();
        plan.instance = "large".to_string();
        let counters = mv_obs::CounterGuard::scoped();
        let err = a.solve_horizon(
            Scenario::tradeoff_normalized(0.5),
            &HorizonConfig {
                epochs: 2,
                evolution: mv_lattice::WorkloadEvolution::fixed(),
                commitment: Some(plan),
            },
        );
        assert!(matches!(err, Err(AdvisorError::CommitmentMismatch { .. })));
        // Rejected before the chain solve: no evaluator was built.
        assert_eq!(counters.local_delta(mv_obs::Counter::EvaluatorBuild), 0);
    }

    #[test]
    fn timeline_csv_shape() {
        let a = advisor();
        let report = a
            .solve_horizon(
                Scenario::tradeoff_normalized(0.5),
                &HorizonConfig {
                    epochs: 2,
                    ..HorizonConfig::default()
                },
            )
            .unwrap();
        let csv = report.timeline_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("epoch,selected,added,kept,dropped,time_hours"));
        // The JSON renders the same rows: one epoch per data row, each
        // transition list as long as the CSV's count column.
        let json = report.to_json(Scenario::tradeoff_normalized(0.5), false);
        let epochs = json.get("epochs").and_then(Json::as_array).unwrap();
        assert_eq!(epochs.len(), csv.lines().count() - 1);
        for (row, e) in csv.lines().skip(1).zip(epochs) {
            let cells: Vec<&str> = row.split(',').collect();
            for (column, key) in [(2, "added"), (3, "kept"), (4, "dropped")] {
                let list = e.get(key).and_then(Json::as_array).unwrap();
                assert_eq!(list.len().to_string(), cells[column], "{key}");
            }
        }
    }
}
