//! `compare <dirA> <dirB>`: judges two sets of runs by the benchmark's
//! own bounds.

use std::collections::BTreeMap;
use std::path::Path;

use crate::harness::END_TO_END;
use crate::record::{self, RunRecord};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so "no change"
    /// cannot be told from "changed".
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one (metric, workload): `b` regressed when its
/// median is worse than `a`'s by more than `bound` (a share of `a`'s
/// median). Where either side's interquartile spread exceeds the bound
/// the row is unresolved — unless every run of `b` reads better than
/// every run of `a`.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let scale = ma.abs().max(f64::MIN_POSITIVE);
    let worse_by = if lower_is_better { mb - ma } else { ma - mb } / scale;
    let spread = |v: &[f64]| {
        let (q1, q3) = stats::quartiles(v);
        (q3 - q1) / stats::median(v).abs().max(f64::MIN_POSITIVE)
    };
    let all_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if lower_is_better { y < x } else { y > x })
    });
    if (spread(a) > bound || spread(b) > bound) && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Runs per workload, untraced and traced apart.
type Sets = BTreeMap<String, (Vec<RunRecord>, Vec<RunRecord>)>;

fn load_dir(dir: &Path) -> Result<Sets, String> {
    let mut sets = Sets::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let traced = name.starts_with("trace-");
        if !(traced || name.starts_with("bench-")) || !name.ends_with(".json") {
            continue;
        }
        for run in record::load(&path)? {
            let slot = sets.entry(run.workload.clone()).or_default();
            if traced {
                slot.1.push(run);
            } else {
                slot.0.push(run);
            }
        }
    }
    if sets.is_empty() {
        return Err(format!(
            "{}: no bench-*.json or trace-*.json",
            dir.display()
        ));
    }
    Ok(sets)
}

fn values(runs: &[RunRecord], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metric(metric).map(|m| m.value))
        .collect()
}

/// "identical" when every run of both sides printed the same value.
fn exact_row(label: &str, workload: &str, a: &[String], b: &[String]) -> (String, bool) {
    let mut all: Vec<&String> = a.iter().chain(b).collect();
    all.dedup();
    let same = all.len() <= 1;
    let shown = |v: &[String]| v.first().cloned().unwrap_or_else(|| "-".to_string());
    (
        format!(
            "{label:<28} {workload:<13} {:>22} {:>22}  {}",
            shown(a),
            shown(b),
            if same { "identical" } else { "DIFFERS" }
        ),
        same,
    )
}

/// Prints the comparison; `Ok(true)` when no row regressed or differs.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (load_dir(dir_a)?, load_dir(dir_b)?);
    let mut clean = true;
    println!(
        "{:<20} {:<13} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "metric",
        "workload",
        "A.q1",
        "A.median",
        "A.q3",
        "B.q1",
        "B.median",
        "B.q3",
        "delta",
        "bound"
    );
    for (workload, (runs_a, traced_a)) in &a {
        let Some((runs_b, traced_b)) = b.get(workload) else {
            println!("# {workload}: only in {}", dir_a.display());
            continue;
        };
        for &(metric, _, better, bound) in END_TO_END {
            let (va, vb) = (values(runs_a, metric), values(runs_b, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let (qa, qb) = (stats::quartiles(&va), stats::quartiles(&vb));
            let v = verdict(&va, &vb, better == "lower", bound);
            clean &= v != Verdict::Regressed;
            println!(
                "{metric:<20} {workload:<13} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>+7.2}% {:>5.0}%  {}",
                qa.0,
                ma,
                qa.1,
                qb.0,
                mb,
                qb.1,
                (mb - ma) / ma.abs().max(f64::MIN_POSITIVE) * 100.0,
                bound * 100.0,
                v.label()
            );
        }
        // What must repeat exactly: comparable only between runs that
        // covered the same ops of the same seed.
        let key = |r: &RunRecord| (r.seed, r.prefix_ops);
        let comparable = |x: &[RunRecord], y: &[RunRecord]| {
            let mut keys: Vec<_> = x.iter().chain(y).map(key).collect();
            keys.dedup();
            !x.is_empty() && !y.is_empty() && keys.len() == 1
        };
        let texts = |runs: &[RunRecord], metric: &str| -> Vec<String> {
            values(runs, metric).iter().map(|v| v.to_string()).collect()
        };
        if comparable(runs_a, runs_b) {
            let digests = |runs: &[RunRecord]| -> Vec<String> {
                runs.iter().map(|r| r.output_digest.clone()).collect()
            };
            let rows = [
                exact_row(
                    "output_digest",
                    workload,
                    &digests(runs_a),
                    &digests(runs_b),
                ),
                exact_row(
                    "plan_saving_share",
                    workload,
                    &texts(runs_a, "plan_saving_share"),
                    &texts(runs_b, "plan_saving_share"),
                ),
                exact_row(
                    "failed_ops_share",
                    workload,
                    &texts(runs_a, "failed_ops_share"),
                    &texts(runs_b, "failed_ops_share"),
                ),
            ];
            for (line, same) in rows {
                println!("{line}");
                clean &= same;
            }
        } else {
            println!("# {workload}: seeds or prefixes differ, exact rows skipped");
        }
        if comparable(traced_a, traced_b) {
            let counts: Vec<String> = traced_a[0]
                .metrics
                .iter()
                .filter(|m| m.unit == "count")
                .map(|m| m.name.clone())
                .collect();
            for name in counts {
                let (line, same) = exact_row(
                    &name,
                    workload,
                    &texts(traced_a, &name),
                    &texts(traced_b, &name),
                );
                println!("{line}");
                clean &= same;
            }
        }
    }
    println!(
        "# {}",
        if clean {
            "no regression"
        } else {
            "REGRESSION or difference found"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 100.5, 99.5];
        // Within the bound.
        assert_eq!(
            verdict(&steady, &[103.0, 103.2, 102.8], true, 0.05),
            Verdict::Ok
        );
        // Worse by more than the bound (lower is better).
        assert_eq!(
            verdict(&steady, &[108.0, 108.2, 107.9], true, 0.05),
            Verdict::Regressed
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(
            verdict(&steady, &[108.0, 108.2, 107.9], false, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady, &[92.0, 92.2, 91.9], false, 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [100.0, 120.0, 80.0];
        assert_eq!(
            verdict(&noisy, &[101.0, 99.0, 100.0], true, 0.05),
            Verdict::Unresolved
        );
        // Every run of B beats every run of A: resolved despite A's spread.
        assert_eq!(
            verdict(&noisy, &[50.0, 51.0, 52.0], true, 0.05),
            Verdict::Ok
        );
        // Noisy and worse, but not uniformly: still unresolved, never "ok".
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[90.0, 140.0, 115.0], true, 0.05),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_rows_flag_any_difference() {
        let same = vec!["0.25".to_string(); 3];
        assert!(exact_row("x", "w", &same, &same).1);
        let mut other = same.clone();
        other[1] = "0.2500001".to_string();
        assert!(!exact_row("x", "w", &same, &other).1);
    }
}
