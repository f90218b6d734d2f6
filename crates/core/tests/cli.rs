//! Exit-code contract for `mvcloud-cli`: user-reachable bad arguments
//! must exit nonzero with an `error:` diagnostic on stderr — never a
//! panic/abort — and a well-formed invocation must exit zero.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mvcloud-cli"))
        .args(args)
        .output()
        .expect("spawn mvcloud-cli")
}

/// Asserts a clean, typed CLI failure: status 1, a human diagnostic on
/// stderr, and no panic backtrace anywhere.
fn assert_clean_error(args: &[&str]) -> String {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{args:?} should exit 1, got {:?} (stderr: {stderr})",
        out.status
    );
    assert!(
        stderr.starts_with("error:"),
        "{args:?} stderr should be an `error:` diagnostic, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?} must not panic: {stderr}"
    );
    stderr
}

#[test]
fn bad_arguments_are_clean_errors_not_panics() {
    // Zero-sized inputs that used to be reachable panics deeper in the
    // pipeline are now flag errors at the edge.
    assert_clean_error(&["advise", "--rows", "0", "--alpha", "0.5"]);
    assert_clean_error(&["advise", "--instances", "0", "--alpha", "0.5"]);
    assert_clean_error(&["horizon", "--period", "0", "--alpha", "0.5"]);
    assert_clean_error(&["market", "--rows", "0", "--alpha", "0.5"]);
    assert_clean_error(&["sql", "SELECT sum(profit) FROM sales", "--rows", "0"]);
    assert_clean_error(&["calibrate", "--rows", "0", "--alpha", "0.5"]);
    assert_clean_error(&["calibrate", "--epochs", "1", "--alpha", "0.5"]);
    // Typos and contradictions fail loudly instead of falling back.
    assert_clean_error(&["advise", "--bogus", "1", "--alpha", "0.5"]);
    assert_clean_error(&["advise", "--alpha", "2.0"]);
    assert_clean_error(&["advise"]);
    assert_clean_error(&["frobnicate"]);
}

#[test]
fn advise_succeeds_on_a_small_workload() {
    let out = run(&[
        "advise",
        "--rows",
        "500",
        "--queries",
        "3",
        "--alpha",
        "0.5",
    ]);
    assert!(out.status.success(), "advise should exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("selected"), "summary output: {stdout}");
}

/// There is one Monte-Carlo route: `--flat` takes the ordinary
/// unknown-flag error, and the report always carries its forest size.
#[test]
fn market_and_fleet_reject_the_retired_flat_switch() {
    let workload = [
        "--rows",
        "500",
        "--queries",
        "3",
        "--epochs",
        "3",
        "--paths",
        "4",
        "--alpha",
        "0.5",
    ];
    for subcommand in ["market", "fleet"] {
        let mut args = vec![subcommand, "--flat"];
        args.extend_from_slice(&workload);
        let out = run(&args);
        assert_eq!(out.status.code(), Some(1), "{subcommand} --flat");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag --flat"),
            "{subcommand} --flat: {stderr}"
        );
    }

    let mut args = vec!["market"];
    args.extend_from_slice(&workload);
    let out = run(&args);
    assert!(out.status.success(), "market should exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"distinct_solves\":"),
        "the report carries its solve accounting: {stdout}"
    );
    assert!(
        !stdout.contains("\"tree_nodes\":null"),
        "the market solve walks the scenario tree: {stdout}"
    );
}

#[test]
fn calibrate_emits_a_reconciliation_report() {
    let out = run(&[
        "calibrate",
        "--rows",
        "500",
        "--queries",
        "3",
        "--epochs",
        "2",
        "--alpha",
        "0.5",
    ]);
    assert!(out.status.success(), "calibrate should exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for field in [
        "\"holdout_fitted_rel_error\"",
        "\"holdout_synthetic_rel_error\"",
        "\"fitted\"",
        "\"measured_bill\"",
    ] {
        assert!(stdout.contains(field), "missing {field} in: {stdout}");
    }
}

/// `--metrics` acceptance: the telemetry snapshot a market run emits
/// must reconcile *exactly* with the report's own solve accounting:
/// one `solve_tree/node` span per scenario-tree node.
#[test]
fn market_metrics_reconcile_with_solve_accounting() {
    use mvcloud::json::Json;

    let dir = std::env::temp_dir().join(format!("mvcloud-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create metrics dir");
    let base = [
        "market",
        "--rows",
        "500",
        "--queries",
        "3",
        "--epochs",
        "3",
        "--paths",
        "6",
        "--alpha",
        "0.5",
    ];

    let run_with_metrics = |extra: &[&str], file: &str| -> (Json, Json) {
        let path = dir.join(file);
        let mut args = base.to_vec();
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--metrics", path.to_str().unwrap()]);
        let out = run(&args);
        assert!(out.status.success(), "market --metrics should exit 0");
        let report = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("report JSON");
        let raw = std::fs::read_to_string(&path).expect("metrics file written");
        let metrics = Json::parse(&raw).expect("metrics JSON");
        (report, metrics)
    };
    let span_count = |metrics: &Json, leaf: &str| -> u64 {
        metrics
            .get("spans")
            .and_then(Json::as_array)
            .expect("spans array")
            .iter()
            .filter(|s| {
                let path = s.get("path").and_then(Json::as_str).expect("span path");
                path == leaf || path.ends_with(&format!(" + {leaf}"))
            })
            .map(|s| s.get("count").and_then(Json::as_u64).expect("span count"))
            .sum()
    };
    let counter = |metrics: &Json, name: &str| -> u64 {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };

    let (report, metrics) = run_with_metrics(&[], "tree.json");
    assert_eq!(
        metrics.get("version").and_then(Json::as_u64),
        Some(1),
        "versioned schema"
    );
    let tree_nodes = report
        .get("tree_nodes")
        .and_then(Json::as_u64)
        .expect("tree route reports node count");
    assert_eq!(
        span_count(&metrics, "solve_tree/node"),
        tree_nodes,
        "one tree-solve span per scenario-tree node"
    );
    assert_eq!(counter(&metrics, "tree/node_solves"), tree_nodes);

    std::fs::remove_dir_all(&dir).ok();
}

/// `serve --script` smoke: a scripted ingest drives exactly one drift
/// re-solve, and the status document reconciles with the telemetry
/// snapshot — resolves == `service/drift_resolves` == warm retargets,
/// with exactly one evaluator build for the whole service lifetime. A
/// second run reloads the spilled catalog instead of re-measuring.
#[test]
fn serve_script_reconciles_with_metrics() {
    use mvcloud::json::Json;

    let dir = std::env::temp_dir().join(format!("mvcloud-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create serve dir");
    let script = dir.join("script.txt");
    let catalog = dir.join("catalog.json");
    let metrics = dir.join("metrics.json");
    // Skewed traffic on a uniform 3-query workload: the first accepted
    // event already drifts L1 = 4/3 past the 0.25 default and
    // re-solves; the duplicate line is skipped as a replay.
    std::fs::write(
        &script,
        "ingest 1 1 Q1\ningest 1 1 Q1\ningest 1 2 Q1\nwhatif 0\n",
    )
    .expect("write script");

    let out = run(&[
        "serve",
        "--rows",
        "500",
        "--queries",
        "3",
        "--alpha",
        "0.5",
        "--script",
        script.to_str().unwrap(),
        "--catalog",
        catalog.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "serve --script should exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The status document is the only output block starting a line
    // with '{' (progress lines are prose).
    let doc_start = stdout.find("\n{").map(|i| i + 1).unwrap_or(0);
    let status = Json::parse(&stdout[doc_start..]).expect("status JSON");
    let snapshot =
        Json::parse(&std::fs::read_to_string(&metrics).expect("metrics file")).expect("snapshot");
    let counter = |name: &str| -> u64 {
        snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };

    let resolves = status
        .get("resolves")
        .and_then(Json::as_u64)
        .expect("resolves");
    assert_eq!(resolves, 1, "the skew must re-solve exactly once");
    assert_eq!(counter("service/drift_resolves"), resolves);
    assert_eq!(
        counter("evaluator/retarget"),
        resolves,
        "every re-solve is one warm retarget"
    );
    assert_eq!(
        counter("evaluator/build"),
        1,
        "the service builds its evaluator exactly once"
    );
    assert_eq!(status.get("accepted").and_then(Json::as_u64), Some(2));
    assert_eq!(status.get("replayed").and_then(Json::as_u64), Some(1));
    assert_eq!(counter("service/ingest_events"), 2);
    assert_eq!(counter("service/ingest_duplicates"), 1);
    assert_eq!(counter("service/what_ifs"), 1);
    assert!(counter("catalog/spills") >= 1);

    // Warm restart: the catalog is on disk, so the second run reloads
    // instead of measuring and reproduces the same resident plan.
    let plan_before = status.get("plan").expect("plan").render();
    let out = run(&[
        "serve",
        "--alpha",
        "0.5",
        "--catalog",
        catalog.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "serve restart should exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let status = Json::parse(&stdout).expect("restart status JSON");
    assert_eq!(
        status.get("plan").expect("plan").render(),
        plan_before,
        "a reloaded service reproduces the resident plan report"
    );
    let snapshot =
        Json::parse(&std::fs::read_to_string(&metrics).expect("metrics file")).expect("snapshot");
    let reloads = snapshot
        .get("counters")
        .and_then(|c| c.get("catalog/reloads"))
        .and_then(Json::as_u64);
    assert_eq!(reloads, Some(1), "restart reloads, never re-measures");

    std::fs::remove_dir_all(&dir).ok();
}

/// `--metrics -` appends exactly one parseable compact JSON line after
/// the report, on every subcommand.
#[test]
fn metrics_stdout_is_one_trailing_json_line() {
    use mvcloud::json::Json;

    let out = run(&[
        "advise",
        "--rows",
        "500",
        "--queries",
        "3",
        "--alpha",
        "0.5",
        "--metrics",
        "-",
    ]);
    assert!(out.status.success(), "advise --metrics - should exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("nonempty stdout");
    let snapshot = Json::parse(last).expect("trailing line is the snapshot");
    assert_eq!(snapshot.get("version").and_then(Json::as_u64), Some(1));
    let counters = snapshot.get("counters").expect("counters object");
    assert!(
        matches!(counters, Json::Obj(pairs) if !pairs.is_empty()),
        "an advising run must move at least one counter: {last}"
    );
}

/// FNV-1a over a byte string (the digest `tests/driver_golden.rs` uses).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fixed-seed invocations covering every subcommand and every switch,
/// with the FNV-1a digest of their stdout — recorded on the commit
/// *before* the flag table replaced the hand-written parser and
/// asserted ever since: an accepted invocation prints the same bytes.
/// `{dir}` is a per-test scratch directory holding `script.txt` and
/// `events.csv`. If a digest moves, a report byte moved — do not
/// re-record it to make a change pass.
const SMALL: &str = "--rows 500 --queries 3";
const PINNED_STDOUT: [(&str, u64); 24] = [
    ("advise {small} --alpha 0.5", 0x75fd_45dc_bee2_3eed),
    (
        "advise {small} --budget 1000 --solver exhaustive --provider cumulus --instances 3",
        0x2586_78e4_24cf_9da7,
    ),
    ("advise {small} --time-limit 0.1 --solver bnb", 0x7815_828f_8e19_0015),
    (
        "advise --candidates 60 --queries 200 --seed 7 --solver lns --alpha 0.5",
        0xf00f_3e49_6e88_308c,
    ),
    (
        "advise --candidates 60 --queries 200 --solver greedy --budget 100000",
        0xfc7f_a17d_b37e_fbc6,
    ),
    ("horizon {small} --epochs 3 --alpha 0.5", 0xafa8_3730_742b_ac32),
    (
        "horizon {small} --epochs 3 --alpha 0.5 --myopic --pattern drift --rate 0.3",
        0x4f2b_5663_7409_983e,
    ),
    (
        "horizon {small} --epochs 4 --budget 50 --commitment --pattern burst --factor 4 --period 2",
        0xb364_3b4c_8575_f032,
    ),
    (
        "horizon {small} --epochs 3 --time-limit 1 --pattern static --myopic --commitment",
        0x3d9b_4592_e93d_0e46,
    ),
    (
        "horizon {small} --epochs 4 --alpha 0.3 --pattern seasonal --amplitude 0.4 --period 3",
        0x5774_0809_d5f0_6465,
    ),
    (
        "market {small} --epochs 4 --paths 4 --seed 9 --alpha 0.5 --volatility 0.4 --spot-mean 0.6 \
         --bid 1.1 --cut-epoch 2 --cut-factor 0.7 --decay 0.05 --commitment",
        0x6e57_ec4c_9f07_93c0,
    ),
    ("market {small} --epochs 3 --paths 3 --budget 50 --volatility 0", 0x8e11_d2da_3663_7b52),
    ("fleet {small} --epochs 3 --paths 4 --alpha 0.5", 0xa18d_e23e_9cea_9f17),
    ("fleet {small} --epochs 3 --paths 4 --alpha 0.5 --pin spot", 0xb1fe_f99b_caf8_12e1),
    (
        "fleet {small} --epochs 3 --paths 4 --seed 5 --alpha 0.5 --no-compare --commitment \
         --spot-mean 0.4 --volatility 0.2 --crunch-share 0.3 --persistence 0.5 \
         --crunch-hazard 0.6 --crunch-factor 1.5 --reserved-rate 0.9",
        0x0a12_10f7_7f7f_d32e,
    ),
    (
        "fleet {small} --epochs 3 --paths 4 --time-limit 1 --pin reserved --commitment",
        0x8d73_9e3f_ecbe_c33b,
    ),
    (
        "calibrate {small} --epochs 3 --alpha 0.5 --frequency 2 --seed 5 --scale 100 \
         --instances 3 --pattern drift --rate 0.1 --synthetic-rate 50 --synthetic-overhead 0.01",
        0x53c0_feea_d473_a990,
    ),
    ("calibrate --domain ssb --rows 400 --epochs 2 --budget 100", 0xbcb9_5f11_bd4e_b7c9),
    (
        "serve {small} --alpha 0.5 --script {dir}/script.txt --catalog {dir}/script-catalog.json",
        0xd082_13c4_53b3_2a5d,
    ),
    (
        "serve {small} --budget 100 --frequency 2 --provider stratus --instances 3 --drift 0.5 \
         --moves 8 --ingest {dir}/events.csv",
        0x28b1_7b39_dcda_8927,
    ),
    (
        "sql 'SELECT year, SUM(profit) FROM sales GROUP BY year' --rows 500",
        0x6c7c_4537_17d1_b342,
    ),
    (
        "sql 'SELECT year, country, SUM(profit) FROM sales GROUP BY year, country' \
         --rows 300 --format csv",
        0x2725_36c6_b2fb_c942,
    ),
    ("pricing", 0x52ba_4845_7a0b_ad07),
    ("excerpt", 0x1274_3191_39f4_7dac),
];

/// Splits a pinned command line into arguments: blanks separate,
/// `'…'` keeps one argument together (the SQL statement), `{small}` /
/// `{dir}` are substituted.
fn pinned_args(line: &str, dir: &std::path::Path) -> Vec<String> {
    let line = line
        .replace("{small}", SMALL)
        .replace("{dir}", dir.to_str().expect("utf-8 temp dir"));
    let mut args = Vec::new();
    for (i, chunk) in line.split('\'').enumerate() {
        if i % 2 == 1 {
            args.push(chunk.to_string());
        } else {
            args.extend(chunk.split_ascii_whitespace().map(str::to_string));
        }
    }
    args
}

#[test]
fn accepted_invocations_print_the_pinned_bytes() {
    let dir = std::env::temp_dir().join(format!("mvcloud-pinned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(
        dir.join("script.txt"),
        "# skew, then every verb\ningest 1 1 Q1\ningest 1 1 Q1\nstatus\nwhatif 0 1\nspill\n\
         ingest 2 1 Q2\nresolve\nwhatif 2\nstatus\n",
    )
    .expect("write script");
    std::fs::write(
        dir.join("events.csv"),
        "# timestamp,query_id,query\n1,1,Q1\n1,2,Q1\n1,2,Q1\n2,1,Q3\n3,1,Q1\n",
    )
    .expect("write events");

    let mut moved = Vec::new();
    for (line, want) in PINNED_STDOUT {
        let args = pinned_args(line, &dir);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = run(&args);
        assert!(
            out.status.success(),
            "{line}: exit {:?}, stderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{line}: empty stdout");
        let got = fnv1a(&out.stdout);
        if got != want {
            moved.push(format!(
                "{line}\n    recorded {want:#018x}, got {got:#018x}"
            ));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(moved.is_empty(), "stdout moved for:\n{}", moved.join("\n"));
}

/// `(subcommand, valued flags, switches)`, read off the synopsis block
/// of the generated `--help` — so a flag added to a table is swept by
/// the tests below without being named here.
fn commands_from_help() -> Vec<(String, Vec<String>, Vec<String>)> {
    let out = run(&["--help"]);
    assert!(out.status.success(), "--help should exit 0");
    let help = String::from_utf8(out.stdout).expect("utf-8 help");
    let synopsis = help
        .split("USAGE:\n")
        .nth(1)
        .and_then(|rest| rest.split("\n\n").next())
        .expect("a USAGE block");
    let mut commands: Vec<(String, Vec<String>, Vec<String>)> = Vec::new();
    for line in synopsis.lines() {
        let mut rest = line.trim();
        if let Some(after) = rest.strip_prefix("mvcloud-cli ") {
            let (name, flags) = after.split_once(' ').unwrap_or((after, ""));
            commands.push((name.to_string(), Vec::new(), Vec::new()));
            rest = flags;
        }
        let (_, valued, switches) = commands.last_mut().expect("a synopsis line first");
        for item in rest.split('[').skip(1) {
            let item = item.trim().trim_end_matches(']');
            match item.trim_start_matches("--").split_once(' ') {
                Some((name, _metavar)) => valued.push(name.to_string()),
                None => switches.push(item.trim_start_matches("--").to_string()),
            }
        }
    }
    commands
}

/// A small accepted invocation of `command` that gives `--flag value`:
/// the base workload (only the flags the command has), with the
/// scenario, the pattern or the mode the flag belongs to.
fn hostile_args(command: &str, valued: &[String], flag: &str, value: &str) -> Vec<String> {
    let mut base: Vec<(&str, &str)> = vec![
        ("rows", "300"),
        ("queries", "2"),
        ("epochs", "2"),
        ("paths", "2"),
        ("alpha", "0.5"),
    ];
    match (command, flag) {
        (_, "budget" | "time-limit") => base.retain(|(f, _)| *f != "alpha"),
        (_, "rate") => base.push(("pattern", "drift")),
        (_, "factor" | "period") => base.push(("pattern", "burst")),
        (_, "cut-factor") => base.push(("cut-epoch", "1")),
        ("advise", "candidates" | "seed") => {
            base.retain(|(f, _)| *f != "rows");
            base.push(("candidates", "12"));
        }
        _ => {}
    }
    let mut args = vec![command.to_string()];
    if command == "sql" {
        args.push("SELECT year, SUM(profit) FROM sales GROUP BY year".to_string());
    }
    for (f, v) in base {
        if f != flag && valued.iter().any(|known| known == f) {
            args.extend([format!("--{f}"), v.to_string()]);
        }
    }
    args.extend([format!("--{flag}"), value.to_string()]);
    args
}

/// Runs the CLI in `dir` and returns its exit code and stderr, or an
/// error if it is still running after a minute (a worker that panics
/// inside the tree solve leaves its siblings waiting: a hang, not an
/// exit status).
fn run_bounded(
    args: &[String],
    dir: &std::path::Path,
) -> Result<(Option<i32>, String), &'static str> {
    use std::io::Read;
    let mut child = Command::new(env!("CARGO_BIN_EXE_mvcloud-cli"))
        .args(args)
        .current_dir(dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn mvcloud-cli");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("wait for mvcloud-cli") {
            let mut stderr = String::new();
            let pipe = child.stderr.as_mut().expect("piped stderr");
            pipe.read_to_string(&mut stderr).expect("utf-8 stderr");
            return Ok((status.code(), stderr));
        }
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            return Err("still running after 60 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// No value of any flag reaches a panic: every subcommand × every
/// valued flag × a hostile value list exits 0, or 1 with an `error:`
/// line.
#[test]
fn no_flag_value_reaches_a_panic() {
    const HOSTILE: [&str; 9] = [
        "NaN",
        "inf",
        "-inf",
        "-1",
        "0",
        "1e308",
        "",
        "x",
        "18446744073709551616",
    ];
    let commands = commands_from_help();
    let names: Vec<&str> = commands.iter().map(|(name, ..)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "advise",
            "horizon",
            "market",
            "fleet",
            "calibrate",
            "serve",
            "sql",
            "pricing",
            "excerpt"
        ]
    );
    // A relative `--catalog` value lands in the children's directory.
    let dir = &std::env::temp_dir().join(format!("mvcloud-hostile-{}", std::process::id()));
    std::fs::create_dir_all(dir).expect("create scratch dir");
    let failures: Vec<String> = std::thread::scope(|scope| {
        let sweeps: Vec<_> = commands
            .iter()
            .map(|(command, valued, _)| {
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    for flag in valued {
                        for value in HOSTILE {
                            let args = hostile_args(command, valued, flag, value);
                            match run_bounded(&args, dir) {
                                Ok((Some(0), _)) => {}
                                Ok((Some(1), stderr))
                                    if stderr.starts_with("error:")
                                        && !stderr.contains("panicked") => {}
                                Ok((code, stderr)) => failures.push(format!(
                                    "{args:?}: exit {code:?}: {}",
                                    stderr.lines().find(|l| !l.is_empty()).unwrap_or_default()
                                )),
                                Err(hung) => failures.push(format!("{args:?}: {hung}")),
                            }
                        }
                    }
                    failures
                })
            })
            .collect();
        sweeps
            .into_iter()
            .flat_map(|s| s.join().expect("sweep thread"))
            .collect()
    });
    std::fs::remove_dir_all(dir).ok();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Every value that aborted deep in the pipeline (a `Hours` / `Gb` /
/// rate-factor / evolution constructor assert, the exhaustive solver's
/// candidate limit) or slipped through because `NaN < 0.0` is false is
/// held to its table row's range at the edge.
#[test]
fn out_of_range_values_are_flag_errors_not_aborts() {
    let cases = [
        // Aborted at the parent.
        ("advise", "time-limit", "NaN"),
        ("advise", "time-limit", "-1"),
        ("serve", "frequency", "NaN"),
        ("serve", "frequency", "-1"),
        ("serve", "frequency", "inf"),
        ("calibrate", "frequency", "-1"),
        ("market", "cut-factor", "-1"),
        ("horizon", "rate", "NaN"),
        ("horizon", "factor", "-3"),
        ("horizon", "amplitude", "7"),
        ("horizon", "rate", "1e308"),
        ("market", "spot-mean", "1e308"),
        // Exited 0 with a report at the parent.
        ("market", "volatility", "NaN"),
        ("market", "decay", "NaN"),
        ("fleet", "spot-mean", "-1"),
        ("fleet", "persistence", "2"),
        ("fleet", "crunch-share", "2"),
        ("fleet", "crunch-hazard", "5"),
        ("sql", "format", "xml"),
    ];
    let commands = commands_from_help();
    for (command, flag, value) in cases {
        let (_, valued, _) = commands
            .iter()
            .find(|(name, ..)| name == command)
            .expect("a known subcommand");
        let args = hostile_args(command, valued, flag, value);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let stderr = assert_clean_error(&args);
        assert!(stderr.contains(&format!("--{flag} must be")), "{stderr}");
    }

    let out = run(&[
        "advise",
        "--candidates",
        "50",
        "--queries",
        "20",
        "--solver",
        "exhaustive",
        "--alpha",
        "0.5",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error:") && stderr.contains("at most 24"),
        "the error names the exhaustive limit: {stderr}"
    );
}

/// One rule each: a flag is given once, with a value that is not itself
/// a flag, and only to a subcommand whose table has it; a positional is
/// taken only where one is declared.
#[test]
fn the_parser_rejects_what_it_used_to_ignore() {
    let cases: [(&[&str], &str); 7] = [
        (
            &["advise", "--rows", "500", "--rows", "0", "--alpha", "0.5"],
            "--rows given twice",
        ),
        (
            &["advise", "junk", "--rows", "500", "--alpha", "0.5"],
            "unexpected argument \"junk\"",
        ),
        (
            &["horizon", "--alpha", "0.5", "--rows", "--myopic"],
            "--rows needs a value",
        ),
        (
            &["advise", "--alpha", "0.5", "--myopic"],
            "unknown flag --myopic",
        ),
        (
            &["sql", "SELECT sum(profit) FROM sales", "--format", "xml"],
            "--format must be table|csv",
        ),
        (
            &["sql", "SELECT sum(profit)", "FROM sales"],
            "unexpected argument \"FROM sales\"",
        ),
        (&["pricing", "--rows", "5"], "unknown flag --rows"),
    ];
    for (args, message) in cases {
        let stderr = assert_clean_error(args);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

/// A catalog file is outside input: 300 000 unclosed brackets are a
/// corrupt catalog, not a stack to overflow.
#[test]
fn a_hostile_catalog_is_an_error_not_an_abort() {
    let path = std::env::temp_dir().join(format!("mvcloud-deep-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(300_000)).expect("write hostile catalog");
    let args = [
        "serve",
        "--rows",
        "500",
        "--queries",
        "3",
        "--alpha",
        "0.5",
        "--catalog",
        path.to_str().unwrap(),
    ];
    let out = run(&args);
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// `… | head`: the reader goes away before the report is written. The
/// run finishes quietly — no panic, no backtrace, no error line.
#[test]
fn a_closed_stdout_is_a_quiet_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mvcloud-cli"))
        .args([
            "horizon",
            "--rows",
            "2000",
            "--queries",
            "3",
            "--epochs",
            "3",
        ])
        .args(["--alpha", "0.5", "--metrics", "-"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn mvcloud-cli");
    // Closed while the child is still measuring its workload.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for mvcloud-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "quiet: {stderr}");
}
