//! Golden pins for the multi-epoch drivers: FNV-1a digests over the
//! `f64` bits of `Advisor::solve_horizon`, `solve_market` and
//! `solve_fleet` reports on `sales_domain(1_000, 4, 5.0, 42)`, recorded
//! on the commit *before* the chain and Monte-Carlo drivers were
//! collapsed into one and asserted ever since. The domain is measured
//! twice: on the default AWS sheet, whose whole-hour rounding swallows
//! pool differentials (nothing leaves the reserved pool), and on the
//! per-minute Cumulus sheet, where the hedged fleet spot-places views
//! and moves them back under crunches (MV1 keeps four views resident
//! and moves each of them).
//!
//! `solve_market` and the pure-spot `solve_fleet` run the same code, so
//! their mutual equality (`tests/fleet.rs`) can no longer catch a bit
//! that moves in both; this file is the absolute anchor. Every per-path
//! total, billed hour, epoch cost, selection and placement, every
//! envelope quantile, the solve accounting (`distinct_solves`,
//! `tree_nodes`) and the rendered `timeline_csv()` text are digested.
//! If a digest moves, a plan or an `f64` bit moved — do not re-record it
//! to make a change pass.

use mvcloud::cost::SelectionSet;
use mvcloud::fleet::{FleetConfig, FleetReport};
use mvcloud::lattice::WorkloadEvolution;
use mvcloud::market::{
    AnnouncedCut, CorrelatedHazard, MarketConfig, MarketReport, MarketScenario, PriceProcess,
    Quantiles, SpotCommitmentReport, SpotMarket,
};
use mvcloud::pricing::{CommitmentPlan, FleetPlan, Placement, PoolTerms};
use mvcloud::units::{Hours, Money};
use mvcloud::{sales_domain, Advisor, AdvisorConfig, HorizonConfig, HorizonReport, Scenario};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        s.bytes().for_each(|b| self.u64(u64::from(b)));
    }

    fn strs(&mut self, v: &[String]) {
        self.u64(v.len() as u64);
        v.iter().for_each(|s| self.str(s));
    }

    fn indices(&mut self, v: &[usize]) {
        self.u64(v.len() as u64);
        v.iter().for_each(|&k| self.u64(k as u64));
    }

    fn money(&mut self, v: Money) {
        let m = v.micros();
        self.u64(m as u64);
        self.u64((m >> 64) as u64);
    }

    fn hours(&mut self, v: Hours) {
        self.f64(v.value());
    }

    fn quantiles(&mut self, q: &Quantiles) {
        for v in [q.min, q.p10, q.median, q.p90, q.max, q.mean] {
            self.f64(v);
        }
    }

    /// Bit by bit through `contains`, so the pin does not depend on the
    /// set's iterator.
    fn selection(&mut self, s: &SelectionSet) {
        self.u64(s.len() as u64);
        (0..s.len()).for_each(|k| self.u64(u64::from(s.contains(k))));
    }

    fn placements(&mut self, p: &[Placement]) {
        self.u64(p.len() as u64);
        p.iter().for_each(|&x| self.u64(x as u64));
    }

    fn commitment(&mut self, c: &Option<SpotCommitmentReport>) {
        self.u64(u64::from(c.is_some()));
        if let Some(c) = c {
            self.str(&c.plan);
            self.quantiles(&c.spot_compute);
            self.quantiles(&c.reserved);
            self.quantiles(&c.saving);
            self.f64(c.reserved_wins_share);
        }
    }

    fn accounting(&mut self, distinct_solves: usize, tree_nodes: Option<usize>) {
        self.u64(distinct_solves as u64);
        self.u64(tree_nodes.map_or(u64::MAX, |n| n as u64));
    }

    fn horizon(&mut self, r: &HorizonReport) {
        for s in &r.steps {
            for e in [&s.outcome.evaluation, &s.outcome.baseline, &s.full_price] {
                self.selection(&e.selection);
                self.hours(e.time);
                self.money(e.breakdown.transfer);
                self.money(e.breakdown.compute_processing);
                self.money(e.breakdown.compute_maintenance);
                self.money(e.breakdown.compute_materialization);
                self.money(e.breakdown.storage);
            }
            self.indices(&s.added);
            self.indices(&s.kept);
            self.indices(&s.dropped);
            self.indices(&s.moved);
            self.placements(&s.placements);
        }
        for e in &r.epochs {
            self.strs(&e.selected);
            self.f64(e.time_hours);
            self.money(e.charged_cost);
            self.money(e.full_price_cost);
            self.money(e.cumulative_cost);
            self.money(e.invoice.total());
        }
        self.money(r.total_cost);
        self.hours(r.total_time);
        self.hours(r.billed_instance_hours);
        self.str(&r.timeline_csv());
    }

    fn market(&mut self, r: &MarketReport) {
        for p in &r.paths {
            self.u64(p.path as u64);
            self.money(p.total_cost);
            self.hours(p.total_time);
            self.hours(p.billed_instance_hours);
            self.money(p.compute_bill);
            self.u64(p.switches as u64);
            self.u64(p.interruptions as u64);
            p.epoch_costs.iter().for_each(|&c| self.money(c));
            p.selections.iter().for_each(|s| self.selection(s));
        }
        for e in &r.epochs {
            self.u64(e.epoch as u64);
            self.quantiles(&e.charged_cost);
            self.quantiles(&e.cumulative_cost);
            self.quantiles(&e.time_hours);
            self.quantiles(&e.compute_factor);
            self.quantiles(&e.interruption);
            self.u64(e.distinct_plans as u64);
            self.f64(e.modal_share);
            self.strs(&e.modal_selection);
        }
        self.quantiles(&r.total_cost);
        self.quantiles(&r.total_time_hours);
        self.f64(r.plan_stability);
        self.commitment(&r.commitment);
        self.accounting(r.distinct_solves, r.tree_nodes);
        self.str(&r.timeline_csv());
    }

    fn fleet(&mut self, r: &FleetReport) {
        self.str(&r.fleet);
        for p in &r.paths {
            self.u64(p.path as u64);
            self.money(p.total_cost);
            self.hours(p.total_time);
            self.hours(p.billed_instance_hours);
            self.hours(p.reserved_hours);
            self.hours(p.spot_hours);
            self.money(p.compute_bill);
            self.u64(p.switches as u64);
            self.u64(p.moves as u64);
            self.u64(p.interruptions as u64);
            self.f64(p.spot_share);
            p.epoch_costs.iter().for_each(|&c| self.money(c));
            p.selections.iter().for_each(|s| self.selection(s));
            p.placements.iter().for_each(|a| self.placements(a));
        }
        for e in &r.epochs {
            self.u64(e.epoch as u64);
            self.quantiles(&e.charged_cost);
            self.quantiles(&e.cumulative_cost);
            self.quantiles(&e.hedge_ratio);
            self.quantiles(&e.compute_factor);
            self.quantiles(&e.interruption);
            self.u64(e.distinct_plans as u64);
            self.f64(e.modal_share);
            self.strs(&e.modal_selection);
        }
        self.quantiles(&r.total_cost);
        self.quantiles(&r.total_time_hours);
        self.quantiles(&r.hedge_ratio);
        self.f64(r.plan_stability);
        self.u64(u64::from(r.comparison.is_some()));
        if let Some(c) = &r.comparison {
            self.quantiles(&c.hedged);
            self.quantiles(&c.pure_spot);
            self.quantiles(&c.pure_reserved);
            self.f64(c.hedged_wins_share);
        }
        self.commitment(&r.commitment);
        self.accounting(r.distinct_solves, r.tree_nodes);
        self.str(&r.timeline_csv());
    }
}

const EPOCHS: usize = 6;
const PATHS: usize = 12;

/// A volatile spot sheet with an announced cut: paths share epoch 0 and
/// diverge, so the prefix forest both shares and forks.
fn volatile_market() -> MarketScenario {
    MarketScenario::constant(EPOCHS, 99)
        .with(PriceProcess::Spot(SpotMarket::with_volatility(0.5)))
        .with(PriceProcess::Cut(AnnouncedCut::compute(3, 0.8)))
}

/// A discounted, volatile spot pool under correlated capacity crunches
/// — the regime in which the hedged fleet actually rebalances.
fn crunch_market() -> MarketScenario {
    MarketScenario::constant(EPOCHS, 3)
        .with(PriceProcess::Spot(SpotMarket::discounted(0.6, 0.5)))
        .with(PriceProcess::Correlated(
            CorrelatedHazard::bursty(0.4, 0.6, 0.85).with_crunch_compute(2.0),
        ))
}

// `..Default::default()` below: the configs this file was recorded
// against had one more field than the ones it pins today.
#[allow(clippy::needless_update)]
fn fleet_config(fleet: FleetPlan, compare_pure: bool) -> FleetConfig {
    FleetConfig {
        market: crunch_market(),
        paths: PATHS,
        evolution: WorkloadEvolution::drift(0.2),
        fleet,
        compare_pure,
        ..FleetConfig::default()
    }
}

/// A one-year reservation of the advisor's own instance type.
fn reservation(advisor: &Advisor) -> CommitmentPlan {
    CommitmentPlan {
        instance: advisor.config().instance.clone(),
        ..CommitmentPlan::aws_small_1yr()
    }
}

/// `(case, digest)`, in the order `digests` produces them.
const GOLDEN: [(&str, u64); 21] = [
    ("aws/mv3/horizon", 0xf029e93e485983f9),
    ("aws/mv3/market", 0x6e8646b00d759aba),
    ("aws/mv3/market-deterministic", 0xb42a8f484970740c),
    ("aws/mv3/fleet-hedged", 0x62ee9bda06edd310),
    ("aws/mv3/fleet-hedged-commitment", 0xd36a8270bb76afdb),
    ("aws/mv3/fleet-pure-spot", 0x0ed787cd57ebb22c),
    ("aws/mv3/fleet-insulated", 0x81c3c6864f0c92fc),
    ("cumulus/mv3/horizon", 0x7c38fc72da7d40b9),
    ("cumulus/mv3/market", 0xd8a045bead5deddc),
    ("cumulus/mv3/market-deterministic", 0xf077803336a9b875),
    ("cumulus/mv3/fleet-hedged", 0x45049745794e805d),
    ("cumulus/mv3/fleet-hedged-commitment", 0x64d4cd46933c3b19),
    ("cumulus/mv3/fleet-pure-spot", 0x7fc5c9f3ff1d4cc7),
    ("cumulus/mv3/fleet-insulated", 0x1996c76abfbf6421),
    ("cumulus/mv1/horizon", 0xbcdfc4b13918afa7),
    ("cumulus/mv1/market", 0xf8f4d8f8c4f62003),
    ("cumulus/mv1/market-deterministic", 0xbe533ec82a609d6c),
    ("cumulus/mv1/fleet-hedged", 0x852d2423d983c1ac),
    ("cumulus/mv1/fleet-hedged-commitment", 0x8f20070d30050644),
    ("cumulus/mv1/fleet-pure-spot", 0x0dbeb2ece1e7bec5),
    ("cumulus/mv1/fleet-insulated", 0x529cd127e90cea84),
];

#[allow(clippy::needless_update)]
fn digests(advisor: &Advisor, tag: &str, scenario: Scenario) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut push = |case: &str, d: Fnv| out.push((format!("{tag}/{case}"), d.0));

    let mut d = Fnv::new();
    d.horizon(
        &advisor
            .solve_horizon(
                scenario,
                &HorizonConfig {
                    epochs: EPOCHS,
                    evolution: WorkloadEvolution::drift(0.2),
                    commitment: None,
                },
            )
            .expect("horizon"),
    );
    push("horizon", d);

    let mut d = Fnv::new();
    d.market(
        &advisor
            .solve_market(
                scenario,
                &MarketConfig {
                    market: volatile_market(),
                    paths: PATHS,
                    evolution: WorkloadEvolution::drift(0.2),
                    commitment: Some(reservation(advisor)),
                    ..MarketConfig::default()
                },
            )
            .expect("market"),
    );
    push("market", d);

    // Sixteen identical paths: one chain, every leaf an alias.
    let mut d = Fnv::new();
    d.market(
        &advisor
            .solve_market(
                scenario,
                &MarketConfig {
                    market: MarketScenario::constant(4, 7),
                    paths: 16,
                    ..MarketConfig::default()
                },
            )
            .expect("deterministic market"),
    );
    push("market-deterministic", d);

    let mut d = Fnv::new();
    d.fleet(
        &advisor
            .solve_fleet(scenario, &fleet_config(FleetPlan::hedged("hedged"), true))
            .expect("hedged fleet"),
    );
    push("fleet-hedged", d);

    // Non-parity reserved terms with a backing plan: the primary sheet
    // is scaled and the commitment leg is priced.
    let mut reserved_backed = FleetPlan::hedged("reserved-backed");
    reserved_backed.reserved = PoolTerms::reserved(reservation(advisor), Money::from_cents(12));
    let mut d = Fnv::new();
    d.fleet(
        &advisor
            .solve_fleet(scenario, &fleet_config(reserved_backed, true))
            .expect("reserved-backed fleet"),
    );
    push("fleet-hedged-commitment", d);

    let mut d = Fnv::new();
    d.fleet(
        &advisor
            .solve_fleet(scenario, &fleet_config(FleetPlan::pure_spot(), false))
            .expect("pure-spot fleet"),
    );
    push("fleet-pure-spot", d);

    // Pinned all-reserved under a reserved primary: the market never
    // reaches the solve, one path stands for all.
    let mut d = Fnv::new();
    d.fleet(
        &advisor
            .solve_fleet(
                scenario,
                &fleet_config(
                    FleetPlan::hedged("hedged").as_pure(Placement::Reserved),
                    false,
                ),
            )
            .expect("insulated fleet"),
    );
    push("fleet-insulated", d);
    out
}

#[test]
fn driver_reports_match_the_recorded_digests() {
    let domain = sales_domain(1_000, 4, 5.0, 42);
    let aws = Advisor::build(domain.clone(), AdvisorConfig::default()).expect("build");
    let cumulus = Advisor::build(
        domain,
        AdvisorConfig {
            pricing: mvcloud::pricing::presets::cumulus(),
            instance: "c.std".to_string(),
            ..AdvisorConfig::default()
        },
    )
    .expect("build");
    let mv3 = Scenario::tradeoff_normalized(0.5);
    let mv1 = Scenario::budget(cumulus.problem().baseline().cost());
    let mut got = digests(&aws, "aws/mv3", mv3);
    got.extend(digests(&cumulus, "cumulus/mv3", mv3));
    got.extend(digests(&cumulus, "cumulus/mv1", mv1));
    let rendered: Vec<String> = got
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, expected, "measured:\n{}", rendered.join("\n"));
}
