//! A year of SSB dashboards on a *hedged* fleet: latency-critical
//! serving on reserved capacity, rebuildable aggregates riding the
//! spot market — with interruptions arriving in correlated crunches.
//!
//! The spot walkthrough (`examples/spot.rs`) prices one homogeneous
//! fleet against the market and asks "reserve or ride?". This one
//! makes the hedge a per-view decision: `Advisor::solve_fleet` splits
//! capacity into a reserved pool (the shared dashboard serving, at
//! contract rates, never reclaimed) and a spot pool (deep discount,
//! priced per minute so the discount actually reaches the invoice, but
//! bursty reclaims — a two-state calm/crunch regime where crunch
//! months cluster), and searches each view's placement jointly with
//! the selection itself. The report shows the hedge ratio the search
//! settles on per month and prices the hedged plan against both pure
//! fleets on the same sampled price paths.
//!
//! Run with: `cargo run --example fleet`

use mvcloud::fleet::FleetConfig;
use mvcloud::market::{CorrelatedHazard, MarketScenario, PriceProcess, SpotMarket};
use mvcloud::pricing::presets;
use mvcloud::report::render_table;
use mvcloud::{ssb_domain, Advisor, AdvisorConfig, CandidateStrategy, Scenario};

fn main() {
    println!("== 12-epoch hedged mixed-fleet SSB market ==\n");
    let domain = ssb_domain(8_000, 30.0, 7);
    let advisor = Advisor::build(
        domain,
        AdvisorConfig {
            // Per-minute billing (Cumulus): pool-rate differentials and
            // interruption premiums survive the rounding rule.
            pricing: presets::cumulus(),
            instance: "c.std".to_string(),
            candidates: CandidateStrategy::HruGreedy(8),
            // A heavier simulated warehouse than the paper's 10 GB:
            // view builds and refreshes are then hours, not minutes,
            // so pool placement genuinely moves the bill.
            simulated_dataset: mvcloud::units::Gb::new(500.0),
            maintenance_delta_fraction: 0.05,
            ..AdvisorConfig::default()
        },
    )
    .expect("advisor builds");
    println!(
        "measured {} candidate views once; sampling 24 price paths over 12 months\n",
        advisor.problem().len()
    );

    let market = MarketScenario::constant(12, 2026)
        // Spot clears around half of on-demand with hard swings...
        .with(PriceProcess::Spot(SpotMarket::discounted(0.5, 0.35)))
        // ...and capacity crunches cover ~30% of months, in runs
        // (persistence 0.85): a crunch month interrupts builds with
        // probability 0.85 (an expected 6.7 attempts per surviving
        // build) and doubles the clearing price — spot work is then
        // several times dearer than reserved, until the crunch lifts.
        .with(PriceProcess::Correlated(
            CorrelatedHazard::bursty(0.3, 0.85, 0.85).with_crunch_compute(2.0),
        ));
    let config = FleetConfig {
        market,
        paths: 24,
        ..FleetConfig::default()
    };
    let scenario = Scenario::tradeoff_normalized(0.5);
    let report = advisor.solve_fleet(scenario, &config).expect("solves");

    let rows: Vec<Vec<String>> = report
        .epochs
        .iter()
        .map(|e| {
            vec![
                e.epoch.to_string(),
                format!("{:.2}", e.compute_factor.mean),
                format!("{:.0}%", e.interruption.mean * 100.0),
                format!("{:.0}%", e.hedge_ratio.median * 100.0),
                format!("${:.2}", e.charged_cost.p10),
                format!("${:.2}", e.charged_cost.median),
                format!("${:.2}", e.charged_cost.p90),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["month", "spot", "int", "hedge", "p10", "median", "p90"],
            &rows,
        )
    );

    println!(
        "\nyear total: ${:.2} (p10 ${:.2} — p90 ${:.2} across {} paths)",
        report.total_cost.median,
        report.total_cost.p10,
        report.total_cost.p90,
        report.paths.len()
    );
    println!(
        "hedge ratio: a median {:.0}% of the selected views ride the spot pool",
        report.hedge_ratio.median * 100.0
    );
    let moves: usize = report.paths.iter().map(|p| p.moves).sum();
    let interruptions: usize = report.paths.iter().map(|p| p.interruptions).sum();
    println!(
        "churn: {:.1} placement moves and {:.1} sampled interruptions per path",
        moves as f64 / report.paths.len() as f64,
        interruptions as f64 / report.paths.len() as f64,
    );

    let cmp = report.comparison.expect("comparison on by default");
    println!("\n-- hedged vs pure fleets (same sampled paths) --");
    println!(
        "hedged:        median ${:.2} (p10 ${:.2} — p90 ${:.2})",
        cmp.hedged.median, cmp.hedged.p10, cmp.hedged.p90
    );
    println!(
        "pure spot:     median ${:.2} (p10 ${:.2} — p90 ${:.2})",
        cmp.pure_spot.median, cmp.pure_spot.p10, cmp.pure_spot.p90
    );
    println!("pure reserved: median ${:.2}", cmp.pure_reserved.median);
    println!(
        "vs staying all-reserved, the per-view hedge saves ${:.2} at the median;",
        cmp.pure_reserved.median - cmp.hedged.median
    );
    println!(
        "pure spot also moves the *dashboard serving* onto the discounted sheet \
         (${:.2} cheaper at the median), but spreads ${:.2} of p10–p90 price risk \
         across the year vs the hedge's ${:.2}.",
        cmp.hedged.median - cmp.pure_spot.median,
        cmp.pure_spot.spread(),
        cmp.hedged.spread(),
    );
}
