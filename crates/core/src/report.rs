//! Report rendering: paper-style result tables, CSV series, the
//! scenario summaries used by every experiment binary, and the pieces
//! the reports' `to_json` renderers share.

use mv_select::Outcome;
use mv_units::{Hours, Money};

use crate::fleet::FleetEpochReport;
use crate::json::Json;
use crate::market::{Quantiles, SpotCommitmentReport};

/// Renders a markdown-ish aligned table from a header row and data rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(&widths) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line
    };
    let mut out = fmt_row(
        &header
            .iter()
            .map(|h| h.to_string())
            .collect::<Vec<String>>(),
    );
    out.push('\n');
    out.push_str(&format!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    ));
    for row in rows {
        out.push('\n');
        out.push_str(&fmt_row(row));
    }
    out
}

/// Renders rows as CSV (quotes fields containing separators).
pub fn render_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let escape = |s: &str| -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = header
        .iter()
        .map(|h| escape(h))
        .collect::<Vec<_>>()
        .join(",");
    for row in rows {
        out.push('\n');
        out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
    }
    out
}

/// Formats a ratio as the paper's percentage style (`"60%"`).
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// One-paragraph scenario summary used by the experiment binaries.
pub fn summarize(outcome: &Outcome, candidate_names: &[String]) -> String {
    let sel = outcome.selected_names(candidate_names);
    format!(
        "{scenario} [{solver}] selected {n} view(s): {views}\n  time {bt} -> {t}  ({ip} faster)\n  cost {bc} -> {c}  ({ic})\n  feasible: {feas}",
        scenario = outcome.scenario.label(),
        solver = outcome.solver.name(),
        n = sel.len(),
        views = if sel.is_empty() {
            "(none)".to_string()
        } else {
            sel.join(", ")
        },
        bt = outcome.baseline.time,
        t = outcome.evaluation.time,
        ip = pct(outcome.time_improvement()),
        bc = outcome.baseline.cost(),
        c = outcome.evaluation.cost(),
        ic = if outcome.evaluation.cost() <= outcome.baseline.cost() {
            format!("{} cheaper", pct(outcome.cost_improvement()))
        } else {
            format!("{} dearer", pct(-outcome.cost_improvement()))
        },
        feas = outcome.feasible(),
    )
}

/// Dollars as the JSON reports print them: six decimals.
pub(crate) fn usd(amount: Money) -> Json {
    Json::Fixed(amount.to_dollars_f64(), 6)
}

/// Hours as the JSON reports print them: six decimals.
pub(crate) fn hours(duration: Hours) -> Json {
    Json::Fixed(duration.value(), 6)
}

/// A JSON array of quoted names.
pub(crate) fn names(list: &[String]) -> Json {
    Json::Arr(list.iter().map(Json::str).collect())
}

/// One [`Quantiles`] as a JSON object — the one place its six-field
/// schema lives.
pub(crate) fn quantiles(q: &Quantiles) -> Json {
    Json::obj(vec![
        ("min", Json::Fixed(q.min, 6)),
        ("p10", Json::Fixed(q.p10, 6)),
        ("median", Json::Fixed(q.median, 6)),
        ("p90", Json::Fixed(q.p90, 6)),
        ("max", Json::Fixed(q.max, 6)),
        ("mean", Json::Fixed(q.mean, 6)),
    ])
}

/// The `{plan,spot_compute,reserved,saving,reserved_wins_share}`
/// commitment object of the market and fleet reports.
pub(crate) fn spot_commitment(c: &SpotCommitmentReport) -> Json {
    Json::obj(vec![
        ("plan", Json::str(c.plan.clone())),
        ("spot_compute", quantiles(&c.spot_compute)),
        ("reserved", quantiles(&c.reserved)),
        ("saving", quantiles(&c.saving)),
        ("reserved_wins_share", Json::Fixed(c.reserved_wins_share, 4)),
    ])
}

/// One epoch of the market or fleet envelope as a JSON object: the two
/// reports differ only in the fourth field, `fourth` (its key and which
/// quantiles it shows).
pub(crate) fn envelope_epoch(e: &FleetEpochReport, fourth: (&str, &Quantiles)) -> Json {
    Json::obj(vec![
        ("epoch", Json::UInt(e.epoch as u64)),
        ("charged_cost", quantiles(&e.charged_cost)),
        ("cumulative_cost", quantiles(&e.cumulative_cost)),
        (fourth.0, quantiles(fourth.1)),
        ("compute_factor", quantiles(&e.compute_factor)),
        ("interruption", quantiles(&e.interruption)),
        ("distinct_plans", Json::UInt(e.distinct_plans as u64)),
        ("modal_share", Json::Fixed(e.modal_share, 4)),
        ("modal_selection", names(&e.modal_selection)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["queries", "rate"],
            &[
                vec!["3".to_string(), "25%".to_string()],
                vec!["10".to_string(), "60%".to_string()],
            ],
        );
        assert!(t.contains("| queries | rate |"));
        assert!(t.contains("| 10      | 60%  |"));
    }

    #[test]
    fn csv_escaping() {
        let c = render_csv(&["a", "b"], &[vec!["1,5".to_string(), "x\"y".to_string()]]);
        assert_eq!(c, "a,b\n\"1,5\",\"x\"\"y\"");
    }

    #[test]
    fn pct_rounds() {
        assert_eq!(pct(0.256), "26%");
        assert_eq!(pct(0.6), "60%");
        assert_eq!(pct(0.0), "0%");
    }
}
