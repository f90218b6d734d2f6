//! A run's result: what is printed, what is written to
//! `results/bench-<workload>.json`, and what `compare` reads back —
//! all through `mvcloud::json`, the repository's own codec.

use std::path::Path;

use mvcloud::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// `seconds=<s>` or `smoke=<ops>`.
    pub limit: String,
    /// `nproc`, rustc version, git commit: what the numbers depend on
    /// beside the code.
    pub context: Vec<(String, String)>,
    pub warmup_ops: u64,
    pub timed_ops: u64,
    /// Ops the exactly-repeating outputs cover.
    pub prefix_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub output_digest: String,
    pub metrics: Vec<Metric>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl RunRecord {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(self.workload.clone())),
            ("seed", Json::UInt(self.seed)),
            ("traced", Json::Bool(self.traced)),
            ("limit", Json::str(self.limit.clone())),
            (
                "context",
                Json::Obj(
                    self.context
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                        .collect(),
                ),
            ),
            ("warmup_ops", Json::UInt(self.warmup_ops)),
            ("timed_ops", Json::UInt(self.timed_ops)),
            ("prefix_ops", Json::UInt(self.prefix_ops)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("correct", Json::Bool(self.correct)),
            ("output_digest", Json::str(self.output_digest.clone())),
            ("claim", Json::Null),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.clone(), metric_json(m)))
                        .collect(),
                ),
            ),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<RunRecord, String> {
        let text = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("run record: missing string {key:?}"))
        };
        let uint = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("run record: missing count {key:?}"))
        };
        let flag = |key: &str| -> Result<bool, String> {
            doc.get(key)
                .and_then(Json::as_bool)
                .ok_or(format!("run record: missing flag {key:?}"))
        };
        let Some(Json::Obj(context)) = doc.get("context") else {
            return Err("run record: missing context".to_string());
        };
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err("run record: missing metrics".to_string());
        };
        Ok(RunRecord {
            workload: text("workload")?,
            seed: uint("seed")?,
            traced: flag("traced")?,
            limit: text("limit")?,
            context: context
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
                .collect(),
            warmup_ops: uint("warmup_ops")?,
            timed_ops: uint("timed_ops")?,
            prefix_ops: uint("prefix_ops")?,
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            correct: flag("correct")?,
            output_digest: text("output_digest")?,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    Ok(Metric {
                        name: name.clone(),
                        value: m
                            .get("value")
                            .and_then(Json::as_f64)
                            .ok_or(format!("metric {name}: missing value"))?,
                        unit: m
                            .get("unit")
                            .and_then(Json::as_str)
                            .ok_or(format!("metric {name}: missing unit"))?
                            .to_string(),
                    })
                })
                .collect::<Result<_, String>>()?,
            errors: doc
                .get("errors")
                .and_then(Json::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
        })
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed` and the named metrics, each value with all its digits.
    pub fn result_line(&self, names: &[&str]) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted.max(1))),
            ("failed", Json::UInt(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .filter(|m| names.contains(&m.name.as_str()))
                        .map(|m| (m.name.clone(), metric_json(m)))
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Every metric as `name value unit`, one per line, with the run's
    /// bookkeeping in front.
    pub fn print(&self) {
        println!(
            "# {} seed={} {} traced={} ops: warmup={} timed={} prefix={}",
            self.workload,
            self.seed,
            self.limit,
            self.traced,
            self.warmup_ops,
            self.timed_ops,
            self.prefix_ops
        );
        let context: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("# {}", context.join(" "));
        for m in &self.metrics {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
        println!("output_digest {} fnv64", self.output_digest);
        for e in &self.errors {
            println!("# FAILED {e}");
        }
    }
}

fn metric_json(m: &Metric) -> Json {
    Json::obj(vec![
        ("value", Json::Num(m.value)),
        ("unit", Json::str(m.unit.clone())),
    ])
}

/// Appends `record` to the `runs` array of `path` (creating the file),
/// so a set of runs into one directory is one file per workload.
pub fn append(path: &Path, record: &RunRecord, extra: Vec<(&str, Json)>) -> Result<(), String> {
    let mut runs: Vec<Json> = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .get("runs")
            .and_then(Json::as_array)
            .ok_or(format!("{}: no runs array", path.display()))?
            .to_vec(),
        Err(_) => Vec::new(),
    };
    let Json::Obj(mut fields) = record.to_json() else {
        unreachable!("a run record renders as an object");
    };
    fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    runs.push(Json::Obj(fields));
    let doc = Json::obj(vec![("runs", Json::Arr(runs))]);
    mvcloud::json::write_atomic(path, &format!("{}\n", doc.render_pretty()))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Reads every run of a results file.
pub fn load(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .get("runs")
        .and_then(Json::as_array)
        .ok_or(format!("{}: no runs array", path.display()))?
        .iter()
        .map(RunRecord::from_json)
        .collect()
}

/// The recorded context of a run.
pub fn context() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc".to_string(), nproc.to_string()),
        ("rustc".to_string(), env!("MV_BENCH_RUSTC").to_string()),
        ("git_commit".to_string(), git_commit()),
    ]
}

/// `HEAD` of the checkout the harness runs in, read from `.git`
/// without spawning git; `unknown` outside a repository.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map_or_else(|_| reference.to_string(), |h| h.trim().to_string()),
    }
}

/// `VmHWM` of this process, in MB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            workload: "advise_cold".to_string(),
            seed: 7,
            traced: false,
            limit: "seconds=25".to_string(),
            context: vec![("nproc".to_string(), "2".to_string())],
            warmup_ops: 1,
            timed_ops: 151,
            prefix_ops: 96,
            attempted: 156,
            failed: 0,
            correct: true,
            output_digest: "00ff00ff00ff00ff".to_string(),
            metrics: vec![
                Metric::new("ops_per_s", 6.012_345_678_901_234, "1/s"),
                Metric::new("plan_saving_share", 0.1 + 0.2, "ratio"),
                Metric::new("select.flips", 123_456.0, "count"),
            ],
            errors: vec!["advise_cold op 3: \"quoted\"\nline".to_string()],
        }
    }

    #[test]
    fn record_round_trips_through_the_repository_codec() {
        let r = sample();
        let text = r.to_json().render_pretty();
        let back = RunRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        // Bit-identical floats: `Json::Num` renders shortest-roundtrip.
        assert_eq!(back, r);
        assert!(text.contains("\"claim\":null"));
    }

    #[test]
    fn result_line_holds_exactly_the_contract_keys() {
        let line = sample().result_line(&["ops_per_s", "plan_saving_share"]);
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), 2);
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("ops_per_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(6.012_345_678_901_234)
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn append_accumulates_runs() {
        let dir = std::env::temp_dir().join(format!("mv-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench-x.json");
        let _ = std::fs::remove_file(&path);
        append(&path, &sample(), vec![]).unwrap();
        append(&path, &sample(), vec![("spans", Json::Arr(vec![]))]).unwrap();
        let runs = load(&path).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0], sample());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
