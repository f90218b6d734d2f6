//! `mv-benchmark`: the repository's benchmark harness.
//!
//! ```text
//! mv-benchmark run --workload <name|all> --seed <N>
//!                  [--seconds <S> | --smoke]
//!                  [--trace [0|1]] [--out <dir>]
//! mv-benchmark compare <dirA> <dirB>
//! mv-benchmark manifest          # prints BENCHMARK.json from the tables
//! ```
//!
//! `run` executes the workload(s), verifies every output, prints every
//! metric as `name value unit`, appends the run to
//! `<out>/bench-<workload>.json` (`trace-<workload>.json` with
//! `--trace`, spans included) and ends with one JSON result line. See
//! `README.md` beside this package for the metrics and their reasons.

mod cli;
mod compare;
mod gen;
mod harness;
mod record;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{Limit, RunOpts, Workload, END_TO_END, LAYER_METRICS};
use workloads::advise_cold::AdviseCold;
use workloads::advise_scale::AdviseScale;
use workloads::montecarlo::MonteCarlo;
use workloads::serve_stream::ServeStream;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

/// Every workload: name and why it exists (`BENCHMARK.json`'s list).
const WORKLOADS: [(&str, &str); 4] = [
    (AdviseCold::NAME, AdviseCold::WHY),
    (AdviseScale::NAME, AdviseScale::WHY),
    (MonteCarlo::NAME, MonteCarlo::WHY),
    (ServeStream::NAME, ServeStream::WHY),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("manifest") => {
            println!("{}", manifest());
            Ok(true)
        }
        _ => Err("usage: mv-benchmark run --workload <name|all> --seed <N> \
             [--seconds <S> | --smoke] [--trace [0|1]] [--out <dir>]\n       \
             mv-benchmark compare <dirA> <dirB>\n       \
             mv-benchmark manifest"
            .to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("mv-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// `BENCHMARK.json`, generated from the harness's own tables so the two
/// cannot drift apart (a unit test compares the committed file).
fn manifest() -> String {
    use mvcloud::json::Json;
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let named = |name: &str, unit: &str, better: &str| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better)),
        ]
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|c| Json::str(*c)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::UInt(DEFAULT_SECONDS as u64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|&(name, why)| {
                        Json::obj(vec![("name", Json::str(name)), ("why", Json::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, better, bound)| {
                        let mut fields = named(name, unit, better);
                        fields.push(("bound", Json::Num(bound)));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                LAYER_METRICS
                    .iter()
                    .map(|m| Json::obj(named(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    match args {
        [a, b] => compare::compare(Path::new(a), Path::new(b)),
        _ => Err("compare takes two result directories".to_string()),
    }
}

struct RunArgs {
    workload: String,
    trace: bool,
    opts: RunOpts,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut limit = None;
    let mut trace = false;
    let mut out = PathBuf::from("results");
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                let v = value("a number")?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed: bad number {v:?}"))?,
                );
            }
            "--seconds" => {
                let v = value("a number")?;
                let s = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds: bad duration {v:?}"))?;
                limit = Some(Limit::Seconds(s));
            }
            "--smoke" => limit = Some(Limit::Smoke),
            "--out" => out = PathBuf::from(value("a directory")?),
            // Bare `--trace`, or the driver's `--trace 0|1`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    trace = true;
                }
                _ => trace = true,
            },
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        trace,
        opts: RunOpts {
            seed: seed.ok_or("--seed is required")?,
            limit: limit.unwrap_or(Limit::Seconds(DEFAULT_SECONDS)),
            out,
        },
    })
}

/// Runs one workload, prints it, appends it to its results file, and
/// returns whether every op was correct.
fn run_one<W: Workload>(opts: &RunOpts, traced: bool) -> Result<bool, String> {
    let (record, file, names, extra) = if traced {
        let (record, spans) = harness::run_traced::<W>(opts)?;
        let names: Vec<&str> = LAYER_METRICS.iter().map(|m| m.name).collect();
        let extra = vec![("spans", trace::spans_json(&spans))];
        (record, format!("trace-{}.json", W::NAME), names, extra)
    } else {
        let record = harness::run_untraced::<W>(opts)?;
        let names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        (record, format!("bench-{}.json", W::NAME), names, Vec::new())
    };
    record.print();
    record::append(&opts.out.join(file), &record, extra)?;
    // Last line of stdout: the driver's result object.
    println!("{}", record.result_line(&names));
    Ok(record.correct)
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let RunArgs {
        workload,
        trace,
        opts,
    } = parse_run(args)?;
    if workload == "all" {
        return run_all(args);
    }
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("create {}: {e}", opts.out.display()))?;
    let correct = match workload.as_str() {
        AdviseCold::NAME => run_one::<AdviseCold>(&opts, trace)?,
        AdviseScale::NAME => run_one::<AdviseScale>(&opts, trace)?,
        MonteCarlo::NAME => run_one::<MonteCarlo>(&opts, trace)?,
        ServeStream::NAME => run_one::<ServeStream>(&opts, trace)?,
        _ => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {workload:?} (one of {} or all)",
                names.join(", ")
            ));
        }
    };
    // Scratch files (spills, CLI inputs) are not results.
    let _ = std::fs::remove_dir_all(opts.out.join("tmp"));
    Ok(correct)
}

/// `--workload all`: each workload in a process of its own, as the
/// driver runs them, so that none inherits another's peak RSS, heap or
/// `obs` counters.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let name_at = 1 + args
        .iter()
        .position(|a| a == "--workload")
        .expect("parse_run requires --workload");
    let mut correct = true;
    for (name, _) in WORKLOADS {
        let mut child = args.to_vec();
        child[name_at] = name.to_string();
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(&child)
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        match status.code() {
            Some(0) => {}
            Some(1) => correct = false,
            _ => return Err(format!("{name}: run exited {status}")),
        }
    }
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcloud::json::Json;

    fn strings(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn driver_and_issue_flag_forms_both_parse() {
        let a = parse_run(&strings(&[
            "--workload",
            "montecarlo",
            "--seed",
            "3",
            "--seconds",
            "25",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert!(!a.trace);
        assert_eq!(a.opts.limit, Limit::Seconds(25.0));
        let b = parse_run(&strings(&[
            "--workload",
            "all",
            "--seed",
            "3",
            "--trace",
            "--smoke",
        ]))
        .unwrap();
        assert!(b.trace);
        assert_eq!(b.opts.limit, Limit::Smoke);
        let c = parse_run(&strings(&[
            "--trace",
            "1",
            "--workload",
            "x",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert!(c.trace);
        assert!(parse_run(&strings(&["--workload", "x"])).is_err());
        assert!(parse_run(&strings(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0"
        ]))
        .is_err());
    }

    /// `BENCHMARK.json` at the repository root is `manifest`'s output.
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(committed, Json::parse(&manifest()).unwrap());
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
        assert!(LAYER_METRICS.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
    }
}
