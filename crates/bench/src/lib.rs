//! Experiment harness: regenerates every table and figure of the paper.
//!
//! | Paper artifact | Runner | `experiments` subcommand |
//! |---|---|---|
//! | Table 1 (dataset excerpt) | [`mv_engine::datagen::paper_excerpt`] | `excerpt` |
//! | Tables 2–4 (pricing) | [`mv_pricing::presets::aws_2012`] | `pricing` |
//! | Examples 1–9 | `mv-cost` golden tests | `examples` |
//! | Figures 2–4 (solution spaces) | [`mv_select::pareto`] | `space` |
//! | Table 6 / Fig 5(a) | [`experiments::scenario_mv1`] | `mv1` |
//! | Table 7 / Fig 5(b) | [`experiments::scenario_mv2`] | `mv2` |
//! | Table 8 / Fig 5(c,d) | [`experiments::scenario_mv3`] | `mv3` |
//! | Figure 5, continuous sweeps | [`mvcloud::whatif`] | `sweeps` |
//! | Tables 6–8 as CSV series | the three above | `all [--out DIR]` |
//! | Timings no benchmark workload reaches | `benches/micro.rs` (its own timer, `benches/timer/mod.rs`) | `cargo bench -p mv-bench --bench micro` |
//!
//! The [`paper`] module holds the published values each run is printed
//! beside (`cargo run --release -p mv-bench --bin experiments -- mv1`).

pub mod experiments;
pub mod paper;

use experiments::ScenarioRow;
use mvcloud::report;

/// Renders scenario rows as the paper prints them: one row per workload
/// size with the with/without columns and the improvement rate.
pub fn render_scenario_table(rows: &[ScenarioRow], rate_name: &str) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.queries.to_string(),
                r.constraint.clone(),
                r.time_without.to_string(),
                r.time_with.to_string(),
                r.cost_without.to_string(),
                r.cost_with.to_string(),
                report::pct(r.rate),
                if r.feasible { "yes" } else { "NO" }.to_string(),
                r.selected.join(" + "),
            ]
        })
        .collect();
    report::render_table(
        &[
            "queries",
            "constraint",
            "T without",
            "T with",
            "C without",
            "C with",
            rate_name,
            "feasible",
            "selected views",
        ],
        &data,
    )
}

/// Renders scenario rows as CSV (the Figure 5 series).
pub fn render_scenario_csv(rows: &[ScenarioRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.queries.to_string(),
                r.constraint.clone(),
                format!("{:.6}", r.time_without.value()),
                format!("{:.6}", r.time_with.value()),
                format!("{:.6}", r.cost_without.to_dollars_f64()),
                format!("{:.6}", r.cost_with.to_dollars_f64()),
                format!("{:.4}", r.rate),
                r.feasible.to_string(),
            ]
        })
        .collect();
    report::render_csv(
        &[
            "queries",
            "constraint",
            "time_without_h",
            "time_with_h",
            "cost_without_usd",
            "cost_with_usd",
            "rate",
            "feasible",
        ],
        &data,
    )
}

/// Side-by-side paper-vs-measured table for a scenario.
pub fn render_comparison(
    rows: &[ScenarioRow],
    paper_rates: &[(usize, f64)],
    rate_name: &str,
) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let paper = paper_rates
                .iter()
                .find(|(q, _)| *q == r.queries)
                .map(|(_, rate)| report::pct(*rate))
                .unwrap_or_else(|| "—".to_string());
            vec![r.queries.to_string(), paper, report::pct(r.rate)]
        })
        .collect();
    report::render_table(
        &[
            "queries",
            &format!("{rate_name} (paper)"),
            &format!("{rate_name} (measured)"),
        ],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_units::{Hours, Money};

    fn sample_row() -> ScenarioRow {
        ScenarioRow {
            queries: 3,
            constraint: "$0.80".to_string(),
            time_without: Hours::new(0.63),
            time_with: Hours::new(0.04),
            cost_without: Money::from_cents(59),
            cost_with: Money::from_cents(78),
            rate: 0.25,
            selected: vec!["year×country".to_string()],
            feasible: true,
        }
    }

    #[test]
    fn table_contains_rate_and_views() {
        let t = render_scenario_table(&[sample_row()], "IP rate");
        assert!(t.contains("IP rate"));
        assert!(t.contains("25%"));
        assert!(t.contains("year×country"));
    }

    #[test]
    fn csv_has_header_and_row() {
        let c = render_scenario_csv(&[sample_row()]);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("queries,"));
        assert!(lines[1].starts_with("3,"));
    }

    #[test]
    fn comparison_pairs_paper_values() {
        let t = render_comparison(&[sample_row()], &[(3, 0.25)], "IP");
        assert!(t.contains("IP (paper)"));
        // Both columns show 25%.
        assert_eq!(t.matches("25%").count(), 2);
    }
}
