//! `mvcloud-cli` — command-line front-end for the advisor.
//!
//! ```text
//! mvcloud-cli advise [--queries N] [--rows N] [--provider P] [--instances K]
//!                    [--candidates N] [--seed S]
//!                    (--budget $X | --time-limit H | --alpha A)
//!                    [--solver knapsack|exhaustive|greedy|bnb|local|lns]
//! mvcloud-cli horizon [--epochs N] [--pattern static|drift|burst|seasonal]
//!                     [--rate R | --factor F | --amplitude A] [--period P]
//!                     [--queries N] [--rows N] [--commitment]
//!                     (--budget $X | --time-limit H | --alpha A) [--myopic]
//! mvcloud-cli market [--epochs N] [--paths K] [--seed S]
//!                    [--volatility V] [--spot-mean M] [--bid B]
//!                    [--cut-epoch E] [--cut-factor F] [--decay R]
//!                    [--queries N] [--rows N] [--commitment]
//!                    (--budget $X | --time-limit H | --alpha A)
//! mvcloud-cli fleet [--epochs N] [--paths K] [--seed S]
//!                   [--spot-mean M] [--volatility V]
//!                   [--crunch-share S] [--persistence R] [--crunch-hazard H]
//!                   [--crunch-factor F] [--reserved-rate R] [--pin spot|reserved]
//!                   [--queries N] [--rows N] [--commitment] [--no-compare]
//!                   (--budget $X | --time-limit H | --alpha A)
//! mvcloud-cli calibrate [--domain sales|ssb] [--queries N] [--rows N]
//!                       [--frequency F] [--seed S] [--epochs N]
//!                       [--scale GB] [--instances K]
//!                       [--pattern static|drift|burst|seasonal]
//!                       [--rate R | --factor F | --amplitude A] [--period P]
//!                       [--synthetic-rate R] [--synthetic-overhead H]
//!                       (--budget $X | --time-limit H | --alpha A)
//! mvcloud-cli serve [--queries N] [--rows N] [--frequency F]
//!                   [--provider P] [--instances K]
//!                   [--catalog PATH] [--ingest CSV | --script FILE]
//!                   [--drift T] [--moves N]
//!                   (--budget $X | --time-limit H | --alpha A)
//! mvcloud-cli sql "SELECT ... FROM sales ..." [--rows N]
//! mvcloud-cli pricing
//! mvcloud-cli excerpt
//! ```
//!
//! `horizon` emits the per-epoch timeline as JSON (rendered through
//! [`mvcloud::json`]: the offline crate set has no serde_json).
//!
//! Every subcommand additionally accepts `--metrics <path|->`, which
//! enables the [`mvcloud::obs`] telemetry registry for the run and
//! emits the versioned snapshot JSON — `-` appends one compact line to
//! stdout after the report, a path receives the pretty document.
//!
//! Argument parsing is deliberately dependency-free (the offline crate set
//! has no CLI parser); flags are `--name value` pairs.

use std::env;
use std::process::ExitCode;

use mvcloud::engine::{csv, datagen, parse_query, SalesConfig};
use mvcloud::json::{snapshot_json, Json};
use mvcloud::pricing::presets;
use mvcloud::report::summarize;
use mvcloud::units::{Hours, Money};
use mvcloud::{obs, sales_domain, Advisor, AdvisorConfig, Scenario, SolverKind};

fn main() -> ExitCode {
    let mut args: Vec<String> = env::args().skip(1).collect();
    // `--metrics <path|->` is peeled before dispatch so every
    // subcommand supports it uniformly: presence turns the telemetry
    // registry on for the whole run; the snapshot is emitted after the
    // subcommand succeeds (`-` = one compact line on stdout after the
    // report, a path = pretty-printed file).
    let metrics = match extract_valued(&mut args, "--metrics") {
        Ok(m) => m,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    if metrics.is_some() {
        obs::enable();
    }
    let result = match args.first().map(String::as_str) {
        Some("advise") => cmd_advise(&args[1..]),
        Some("horizon") => cmd_horizon(&args[1..]),
        Some("market") => cmd_market(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("calibrate") => cmd_calibrate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("sql") => cmd_sql(&args[1..]),
        Some("pricing") => cmd_pricing(),
        Some("excerpt") => cmd_excerpt(),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?} (try --help)")),
    };
    let result = result.and_then(|()| emit_metrics(metrics.as_deref()));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Removes a `--name value` pair from `args`, returning the value.
fn extract_valued(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
        Some(_) => Err(format!("flag {name} needs a value")),
    }
}

/// Emits the process-lifetime telemetry snapshot requested by
/// `--metrics`: `-` appends one compact JSON line to stdout (after the
/// report, so `tail -n1` isolates it); anything else is a file path
/// that receives the pretty-printed document.
fn emit_metrics(target: Option<&str>) -> Result<(), String> {
    let Some(target) = target else { return Ok(()) };
    let doc = snapshot_json(&obs::Snapshot::capture());
    if target == "-" {
        println!("{}", doc.render());
    } else {
        // Atomic (temp + rename): a reader polling the snapshot file
        // never observes a partially written document.
        mvcloud::json::write_atomic(
            std::path::Path::new(target),
            &format!("{}\n", doc.render_pretty()),
        )
        .map_err(|e| format!("--metrics {target:?}: {e}"))?;
    }
    Ok(())
}

fn print_usage() {
    println!(
        "mvcloud-cli — cost-aware view materialization advisor\n\
         \n\
         USAGE:\n\
           mvcloud-cli advise [--queries N] [--rows N] [--provider P] [--instances K]\n\
                              [--candidates N] [--seed S]\n\
                              (--budget X | --time-limit H | --alpha A) [--solver S]\n\
           mvcloud-cli horizon [--epochs N] [--pattern P] [--queries N] [--rows N]\n\
                               (--budget X | --time-limit H | --alpha A)\n\
                               [--period P] [--rate R | --factor F | --amplitude A]\n\
                               [--commitment] [--myopic]\n\
           mvcloud-cli market [--epochs N] [--paths K] [--seed S] [--volatility V]\n\
                              [--spot-mean M] [--bid B] [--cut-epoch E] [--cut-factor F]\n\
                              [--decay R] [--queries N] [--rows N] [--commitment]\n\
                              (--budget X | --time-limit H | --alpha A)\n\
           mvcloud-cli fleet [--epochs N] [--paths K] [--seed S] [--spot-mean M]\n\
                             [--volatility V] [--crunch-share S] [--persistence R]\n\
                             [--crunch-hazard H] [--crunch-factor F] [--reserved-rate R]\n\
                             [--pin spot|reserved] [--queries N] [--rows N]\n\
                             [--commitment] [--no-compare]\n\
                             (--budget X | --time-limit H | --alpha A)\n\
           mvcloud-cli calibrate [--domain sales|ssb] [--queries N] [--rows N]\n\
                                 [--frequency F] [--seed S] [--epochs N] [--scale GB]\n\
                                 [--instances K] [--pattern P] [--period P]\n\
                                 [--rate R | --factor F | --amplitude A]\n\
                                 [--synthetic-rate R] [--synthetic-overhead H]\n\
                                 (--budget X | --time-limit H | --alpha A)\n\
           mvcloud-cli serve [--queries N] [--rows N] [--frequency F]\n\
                             [--provider P] [--instances K] [--catalog PATH]\n\
                             [--ingest CSV | --script FILE] [--drift T] [--moves N]\n\
                             (--budget X | --time-limit H | --alpha A)\n\
           mvcloud-cli sql \"SELECT sum(profit) FROM sales GROUP BY year\" [--rows N]\n\
           mvcloud-cli pricing          list provider presets\n\
           mvcloud-cli excerpt          print the paper's Table 1\n\
         \n\
         every subcommand also accepts:\n\
           --metrics PATH   enable telemetry; write the snapshot JSON to\n\
                            PATH ('-' = one compact line on stdout after\n\
                            the report)\n\
         \n\
         advise flags:\n\
           --queries N      workload size, 1-10 paper queries    [default 5]\n\
           --rows N         generated fact rows                  [default 10000]\n\
           --provider P     aws-2012|cumulus|stratus|flat-rate   [default aws-2012]\n\
           --instances K    number of identical instances        [default 2]\n\
           --budget X       MV1: minimize time under $X total\n\
           --time-limit H   MV2: minimize cost under H hours\n\
           --alpha A        MV3: weighted tradeoff, A in [0,1]\n\
           --solver S       knapsack|exhaustive|greedy|bnb|local|lns\n\
                            [default knapsack; lns is the large-pool tier]\n\
           --candidates N   synthetic scale mode: solve an N-candidate\n\
                            sparse-coverage problem instead of measuring\n\
                            the paper lattice (lifts --queries past 10;\n\
                            e.g. --candidates 2000 --queries 50000)\n\
           --seed S         scale mode generation seed           [default 42]\n\
         \n\
         horizon flags (plus advise's workload/scenario flags):\n\
           --epochs N       billing periods in the horizon       [default 12]\n\
           --pattern P      static|drift|burst|seasonal          [default seasonal]\n\
           --rate R         drift: per-epoch migration rate      [default 0.2]\n\
           --factor F       burst: spike multiplier              [default 5]\n\
           --amplitude A    seasonal: modulation depth in [0,1]  [default 0.6]\n\
           --period P       burst/seasonal: epochs per cycle     [default 12]\n\
           --commitment     compare on-demand vs reserved compute\n\
           --myopic         re-solve each epoch from scratch (transition-blind)\n\
         emits the per-epoch timeline as JSON\n\
         \n\
         market flags (plus advise's workload/scenario flags):\n\
           --epochs N       billing periods in the horizon       [default 12]\n\
           --paths K        sampled price paths                  [default 16]\n\
           --seed S         market seed (reproducible paths)     [default 42]\n\
           --volatility V   spot shock half-width (0 = no spot)  [default 0.3]\n\
           --spot-mean M    long-run spot compute factor         [default 1.0]\n\
           --bid B          spot bid factor (risk above it)      [default 1.2]\n\
           --cut-epoch E    announced compute cut effective at E\n\
           --cut-factor F   the cut's compute factor             [default 0.8]\n\
           --decay R        linear storage-rate decline/epoch    [default 0]\n\
           --commitment     price each path vs a reservation\n\
         emits the per-epoch quantile timeline as JSON\n\
         \n\
         fleet flags (plus advise's workload/scenario flags):\n\
           --epochs N        billing periods in the horizon          [default 12]\n\
           --paths K         sampled price paths                     [default 16]\n\
           --seed S          market seed (reproducible paths)        [default 42]\n\
           --spot-mean M     long-run spot compute factor            [default 0.5]\n\
           --volatility V    spot shock half-width                   [default 0.3]\n\
           --crunch-share S  stationary share of crunch epochs       [default 0.25]\n\
           --persistence R   crunch regime autocorrelation, 0=iid    [default 0.7]\n\
           --crunch-hazard H interruption probability in a crunch    [default 0.5]\n\
           --crunch-factor F spot compute multiplier in a crunch     [default 1.3]\n\
           --reserved-rate R reserved pool rate vs on-demand         [default 1]\n\
           --pin P           pin every view: spot|reserved (pure fleet)\n\
           --commitment      price the reserved pool's reservation\n\
           --no-compare      skip the pure-spot/pure-reserved comparison\n\
         emits the per-epoch hedge/quantile timeline as JSON\n\
         \n\
         calibrate flags (plus the scenario flags):\n\
           --domain D        sales|ssb workload domain            [default sales]\n\
           --queries N       sales workload size, 1-10            [default 5]\n\
           --rows N          generated fact rows                  [default 10000]\n\
           --frequency F     per-epoch runs of each query         [default 1]\n\
           --seed S          data generation seed                 [default 42]\n\
           --epochs N        replayed epochs, last one held out   [default 6]\n\
           --scale GB        simulated cloud dataset size         [default 500]\n\
           --instances K     number of identical instances        [default 2]\n\
           --pattern P       static|drift|burst|seasonal          [default static]\n\
                             (plus horizon's --rate/--factor/--amplitude/--period)\n\
           --synthetic-rate R     mis-specified prior GB/h/unit   [default 100]\n\
           --synthetic-overhead H prior per-job overhead hours    [default 0]\n\
         replays the horizon plan through the engine, fits the throughput\n\
         law from the metered samples, and emits the per-epoch\n\
         predicted-vs-metered reconciliation as JSON\n\
         \n\
         serve flags (plus the scenario flags):\n\
           --queries N      workload size, 1-10 paper queries    [default 3]\n\
           --rows N         generated fact rows                  [default 2000]\n\
           --frequency F    per-period runs of each query        [default 1]\n\
           --provider P     aws-2012|cumulus|stratus|flat-rate   [default aws-2012]\n\
           --instances K    number of identical instances        [default 2]\n\
           --catalog PATH   persistent candidate catalog; reloaded if it\n\
                            exists (skipping measurement), spilled on exit\n\
           --ingest CSV     event stream, one 'timestamp,query_id,query'\n\
                            line per observed execution\n\
           --script FILE    service script: ingest TS ID NAME | resolve |\n\
                            spill | status | whatif K [K..] (one per line)\n\
         runs the resident advisor: ingests traffic behind the catalog's\n\
         high-water mark, re-solves warm (retarget, no rebuild) when the\n\
         observed frequency mix drifts past --drift, and prints the\n\
         service status JSON\n\
           --drift T        L1 drift threshold in [0,2]          [default 0.25]\n\
           --moves N        re-solve local-search move budget    [default 64]"
    );
}

/// Reads `--name value` pairs; unknown flags are an error.
struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
    positional: Vec<&'a str>,
}

fn parse_flags(args: &[String]) -> Result<Flags<'_>, String> {
    let mut pairs = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            pairs.push((name, value.as_str()));
            i += 2;
        } else {
            positional.push(args[i].as_str());
            i += 1;
        }
    }
    Ok(Flags { pairs, positional })
}

impl<'a> Flags<'a> {
    fn get(&self, name: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<T>()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    /// Rejects any flag outside `known` — a typo'd flag must fail
    /// loudly, not silently fall back to its default.
    fn expect_known(&self, known: &[&str]) -> Result<(), String> {
        for (name, _) in &self.pairs {
            if !known.contains(name) {
                return Err(format!("unknown flag --{name} (try --help)"));
            }
        }
        Ok(())
    }
}

/// The MV1/MV2/MV3 scenario flag names every advising subcommand takes.
const SCENARIO_FLAGS: [&str; 3] = ["budget", "time-limit", "alpha"];

fn cmd_advise(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    flags.expect_known(
        &[
            &[
                "queries",
                "rows",
                "provider",
                "instances",
                "solver",
                "candidates",
                "seed",
            ],
            &SCENARIO_FLAGS[..],
        ]
        .concat(),
    )?;
    let queries: usize = flags.parse_num("queries", 5)?;
    let rows: usize = flags.parse_num("rows", 10_000)?;
    let instances: u32 = flags.parse_num("instances", 2)?;
    let provider = flags.get("provider").unwrap_or("aws-2012");
    let pricing = presets::all()
        .into_iter()
        .find(|p| p.name == provider)
        .ok_or_else(|| format!("unknown provider {provider:?} (see `pricing`)"))?;
    let instance = pricing
        .compute
        .catalog
        .cheapest_with_units(1.0)
        .ok_or("provider has no 1-unit instance")?
        .name
        .clone();

    let solver = match flags.get("solver").unwrap_or("knapsack") {
        "knapsack" => SolverKind::PaperKnapsack,
        "exhaustive" => SolverKind::Exhaustive,
        "greedy" => SolverKind::Greedy,
        "bnb" => SolverKind::BranchAndBound,
        "local" => SolverKind::LocalSearch,
        "lns" => SolverKind::Lns,
        other => return Err(format!("unknown solver {other:?}")),
    };

    let scenario = parse_scenario(&flags)?;

    // Synthetic scale mode: a sparse-coverage problem of arbitrary size
    // (n candidates × m queries) instead of the measured paper lattice.
    if let Some(n) = flags.get("candidates") {
        let candidates: usize = n
            .parse()
            .map_err(|_| format!("--candidates: cannot parse {n:?}"))?;
        if candidates == 0 || queries == 0 {
            return Err("--candidates and --queries must be ≥ 1".to_string());
        }
        for inapplicable in ["rows", "provider", "instances"] {
            if flags.get(inapplicable).is_some() {
                return Err(format!(
                    "--{inapplicable} does not apply with --candidates (synthetic scale mode)"
                ));
            }
        }
        let shape = mvcloud::lattice::ScaleShape {
            queries,
            candidates,
            mean_coverage: 12,
            seed: flags.parse_num("seed", 42u64)?,
        };
        let problem = mvcloud::scale_problem(&shape);
        let outcome = mvcloud::select::solve(&problem, scenario, solver);
        let names: Vec<String> = problem
            .candidates()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        println!("{}", summarize(&outcome, &names));
        return Ok(());
    }
    if flags.get("seed").is_some() {
        return Err("--seed needs --candidates (synthetic scale mode)".to_string());
    }

    if !(1..=10).contains(&queries) {
        return Err("--queries must be 1..=10 (the paper's workload)".to_string());
    }
    if rows == 0 {
        return Err("--rows must be ≥ 1".to_string());
    }
    if instances == 0 {
        return Err("--instances must be ≥ 1".to_string());
    }
    let domain = sales_domain(rows, queries, 1.0, 42);
    let advisor = Advisor::build(
        domain,
        AdvisorConfig {
            pricing,
            instance,
            nb_instances: instances,
            ..AdvisorConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;

    let outcome = advisor.solve(scenario, solver);
    let names: Vec<String> = advisor
        .candidates()
        .iter()
        .map(|c| c.label.clone())
        .collect();
    println!("{}", summarize(&outcome, &names));
    Ok(())
}

/// Removes a valueless `--switch` token, reporting whether it was there.
fn extract_switch(args: &mut Vec<String>, switch: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != switch);
    args.len() < before
}

/// Parses the shared MV1/MV2/MV3 scenario flags.
fn parse_scenario(flags: &Flags<'_>) -> Result<Scenario, String> {
    match (
        flags.get("budget"),
        flags.get("time-limit"),
        flags.get("alpha"),
    ) {
        (Some(b), None, None) => Ok(Scenario::budget(
            Money::from_dollars_str(b).map_err(|e| format!("--budget: {e}"))?,
        )),
        (None, Some(t), None) => Ok(Scenario::time_limit(Hours::new(
            t.parse::<f64>().map_err(|_| "--time-limit: not a number")?,
        ))),
        (None, None, Some(a)) => {
            let alpha: f64 = a.parse().map_err(|_| "--alpha: not a number")?;
            if !(0.0..=1.0).contains(&alpha) {
                return Err("--alpha must be in [0,1]".to_string());
            }
            Ok(Scenario::tradeoff_normalized(alpha))
        }
        _ => Err("choose exactly one of --budget, --time-limit, --alpha".to_string()),
    }
}

fn cmd_horizon(args: &[String]) -> Result<(), String> {
    use mvcloud::pricing::CommitmentPlan;
    use mvcloud::HorizonConfig;

    // Valueless switches are peeled off before `--name value` parsing.
    let mut args: Vec<String> = args.to_vec();
    let commitment_flag = extract_switch(&mut args, "--commitment");
    let myopic = extract_switch(&mut args, "--myopic");
    let flags = parse_flags(&args)?;
    flags.expect_known(
        &[
            &[
                "queries",
                "rows",
                "epochs",
                "pattern",
                "rate",
                "factor",
                "amplitude",
                "period",
            ],
            &SCENARIO_FLAGS[..],
        ]
        .concat(),
    )?;
    let queries: usize = flags.parse_num("queries", 5)?;
    let rows: usize = flags.parse_num("rows", 10_000)?;
    let epochs: usize = flags.parse_num("epochs", 12)?;
    if !(1..=10).contains(&queries) {
        return Err("--queries must be 1..=10 (the paper's workload)".to_string());
    }
    if rows == 0 {
        return Err("--rows must be ≥ 1".to_string());
    }
    if epochs == 0 {
        return Err("--epochs must be ≥ 1".to_string());
    }
    let evolution = parse_evolution(&flags, "seasonal")?;
    let scenario = parse_scenario(&flags)?;
    let commitment = commitment_flag.then(CommitmentPlan::aws_small_1yr);

    let domain = sales_domain(rows, queries, 1.0, 42);
    let advisor = Advisor::build(domain, AdvisorConfig::default()).map_err(|e| e.to_string())?;
    let horizon = HorizonConfig {
        epochs,
        evolution,
        commitment,
    };
    let report = if myopic {
        advisor.solve_horizon_myopic(scenario, &horizon)
    } else {
        advisor.solve_horizon(scenario, &horizon)
    }
    .map_err(|e| e.to_string())?;

    println!("{}", horizon_json(&report, scenario, myopic));
    Ok(())
}

/// Parses the shared workload-evolution flags (`--pattern` plus its
/// per-pattern knobs). Each drift knob belongs to one pattern; a knob
/// supplied for a different pattern would be silently ignored — reject
/// it instead.
fn parse_evolution(
    flags: &Flags<'_>,
    default_pattern: &str,
) -> Result<mvcloud::lattice::WorkloadEvolution, String> {
    use mvcloud::lattice::WorkloadEvolution;
    let pattern = flags.get("pattern").unwrap_or(default_pattern);
    let period: usize = flags.parse_num("period", 12)?;
    let applicable: &[&str] = match pattern {
        "static" => &[],
        "drift" => &["rate"],
        "burst" => &["factor", "period"],
        "seasonal" => &["amplitude", "period"],
        other => return Err(format!("unknown pattern {other:?}")),
    };
    for knob in ["rate", "factor", "amplitude", "period"] {
        if flags.get(knob).is_some() && !applicable.contains(&knob) {
            return Err(format!("--{knob} does not apply to --pattern {pattern}"));
        }
    }
    if period == 0 {
        // WorkloadEvolution::burst/seasonal assert a positive cycle
        // length; turn the would-be panic into a flag error.
        return Err("--period must be ≥ 1".to_string());
    }
    Ok(match pattern {
        "static" => WorkloadEvolution::fixed(),
        "drift" => WorkloadEvolution::drift(flags.parse_num("rate", 0.2)?),
        "burst" => WorkloadEvolution::burst(period, flags.parse_num("factor", 5.0)?),
        "seasonal" => WorkloadEvolution::seasonal(period, flags.parse_num("amplitude", 0.6)?),
        _ => unreachable!("patterns validated above"),
    })
}

fn cmd_calibrate(args: &[String]) -> Result<(), String> {
    use mvcloud::engine::ThroughputModel;
    use mvcloud::units::Gb;
    use mvcloud::CalibrationConfig;

    let flags = parse_flags(args)?;
    flags.expect_known(
        &[
            &[
                "domain",
                "queries",
                "rows",
                "frequency",
                "seed",
                "epochs",
                "scale",
                "instances",
                "pattern",
                "rate",
                "factor",
                "amplitude",
                "period",
                "synthetic-rate",
                "synthetic-overhead",
            ],
            &SCENARIO_FLAGS[..],
        ]
        .concat(),
    )?;
    let queries: usize = flags.parse_num("queries", 5)?;
    let rows: usize = flags.parse_num("rows", 10_000)?;
    let frequency: f64 = flags.parse_num("frequency", 1.0)?;
    let seed: u64 = flags.parse_num("seed", 42)?;
    let epochs: usize = flags.parse_num("epochs", 6)?;
    let scale: f64 = flags.parse_num("scale", 500.0)?;
    let instances: u32 = flags.parse_num("instances", 2)?;
    let synthetic_rate: f64 = flags.parse_num("synthetic-rate", 100.0)?;
    let synthetic_overhead: f64 = flags.parse_num("synthetic-overhead", 0.0)?;
    if rows == 0 {
        return Err("--rows must be ≥ 1".to_string());
    }
    if epochs < 2 {
        return Err("--epochs must be ≥ 2 (the last epoch is held out of the fit)".to_string());
    }
    if !(scale > 0.0 && scale.is_finite()) {
        return Err("--scale must be a positive number of simulated GB".to_string());
    }
    if instances == 0 {
        return Err("--instances must be ≥ 1".to_string());
    }
    if !(synthetic_rate > 0.0 && synthetic_rate.is_finite()) {
        return Err("--synthetic-rate must be a positive GB/h/unit rate".to_string());
    }
    if !(synthetic_overhead >= 0.0 && synthetic_overhead.is_finite()) {
        return Err("--synthetic-overhead must be ≥ 0 hours".to_string());
    }
    let evolution = parse_evolution(&flags, "static")?;
    let scenario = parse_scenario(&flags)?;

    let domain = match flags.get("domain").unwrap_or("sales") {
        "sales" => {
            if !(1..=10).contains(&queries) {
                return Err("--queries must be 1..=10 (the paper's workload)".to_string());
            }
            sales_domain(rows, queries, frequency, seed)
        }
        "ssb" => {
            if flags.get("queries").is_some() {
                return Err(
                    "--queries does not apply to --domain ssb (fixed 13-query flight workload)"
                        .to_string(),
                );
            }
            mvcloud::ssb_domain(rows, frequency, seed)
        }
        other => return Err(format!("--domain must be sales or ssb, got {other:?}")),
    };
    let advisor = Advisor::build(
        domain,
        AdvisorConfig {
            nb_instances: instances,
            simulated_dataset: Gb::new(scale),
            ..AdvisorConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let config = CalibrationConfig {
        epochs,
        evolution,
        synthetic: ThroughputModel::calibrated(synthetic_rate, Hours::new(synthetic_overhead)),
    };
    let report = advisor
        .calibrate(scenario, &config)
        .map_err(|e| e.to_string())?;
    println!("{}", calibrate_json(&report, scenario));
    Ok(())
}

/// Renders a calibration report's reconciliation timeline as JSON
/// (through the shared [`mvcloud::json`] writer, like [`horizon_json`]).
fn calibrate_json(report: &mvcloud::CalibrationReport, scenario: Scenario) -> String {
    let epochs = Json::Arr(
        report
            .epochs
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("epoch", Json::UInt(e.epoch as u64)),
                    ("queries_via_views", Json::UInt(e.queries_via_views as u64)),
                    ("metered_gb", Json::Fixed(e.metered_gb, 6)),
                    (
                        "measured_bill",
                        Json::Fixed(e.measured_bill.to_dollars_f64(), 6),
                    ),
                    (
                        "planned_bill",
                        Json::Fixed(e.planned_bill.to_dollars_f64(), 6),
                    ),
                    (
                        "fitted_bill",
                        Json::Fixed(e.fitted_bill.to_dollars_f64(), 6),
                    ),
                    (
                        "synthetic_bill",
                        Json::Fixed(e.synthetic_bill.to_dollars_f64(), 6),
                    ),
                    ("planned_rel_error", Json::Fixed(e.planned_rel_error, 6)),
                    ("fitted_rel_error", Json::Fixed(e.fitted_rel_error, 6)),
                    ("synthetic_rel_error", Json::Fixed(e.synthetic_rel_error, 6)),
                ])
            })
            .collect(),
    );
    let fitted = report.fitted_throughput();
    Json::obj(vec![
        ("scenario", Json::str(scenario.label())),
        ("epochs", epochs),
        (
            "fitted",
            Json::obj(vec![
                (
                    "scan_gb_per_hour_per_unit",
                    Json::Fixed(fitted.scan_gb_per_hour_per_unit, 6),
                ),
                (
                    "job_overhead_hours",
                    Json::Fixed(fitted.job_overhead.value(), 6),
                ),
            ]),
        ),
        ("samples", Json::UInt(report.samples as u64)),
        ("holdout_epoch", Json::UInt(report.holdout_epoch as u64)),
        (
            "holdout_fitted_rel_error",
            Json::Fixed(report.holdout_fitted_rel_error, 6),
        ),
        (
            "holdout_synthetic_rel_error",
            Json::Fixed(report.holdout_synthetic_rel_error, 6),
        ),
        (
            "mean_planned_rel_error",
            Json::Fixed(report.mean_planned_rel_error, 6),
        ),
        (
            "mean_fitted_rel_error",
            Json::Fixed(report.mean_fitted_rel_error, 6),
        ),
    ])
    .render_pretty()
}

fn cmd_market(args: &[String]) -> Result<(), String> {
    use mvcloud::market::{
        AnnouncedCut, MarketConfig, MarketScenario, PriceProcess, SpotMarket, StorageDecay,
    };
    use mvcloud::pricing::CommitmentPlan;

    let mut args: Vec<String> = args.to_vec();
    let commitment_flag = extract_switch(&mut args, "--commitment");
    let flags = parse_flags(&args)?;
    flags.expect_known(
        &[
            &[
                "queries",
                "rows",
                "epochs",
                "paths",
                "seed",
                "volatility",
                "spot-mean",
                "bid",
                "cut-epoch",
                "cut-factor",
                "decay",
            ],
            &SCENARIO_FLAGS[..],
        ]
        .concat(),
    )?;
    let queries: usize = flags.parse_num("queries", 5)?;
    let rows: usize = flags.parse_num("rows", 10_000)?;
    let epochs: usize = flags.parse_num("epochs", 12)?;
    let paths: usize = flags.parse_num("paths", 16)?;
    let seed: u64 = flags.parse_num("seed", 42)?;
    let volatility: f64 = flags.parse_num("volatility", 0.3)?;
    let spot_mean: f64 = flags.parse_num("spot-mean", 1.0)?;
    let bid: f64 = flags.parse_num("bid", 1.2)?;
    let cut_factor: f64 = flags.parse_num("cut-factor", 0.8)?;
    let decay: f64 = flags.parse_num("decay", 0.0)?;
    if !(1..=10).contains(&queries) {
        return Err("--queries must be 1..=10 (the paper's workload)".to_string());
    }
    if rows == 0 {
        return Err("--rows must be ≥ 1".to_string());
    }
    if epochs == 0 || paths == 0 {
        return Err("--epochs and --paths must be ≥ 1".to_string());
    }
    let scenario = parse_scenario(&flags)?;

    if volatility < 0.0 {
        return Err("--volatility must be ≥ 0".to_string());
    }
    let mut market = MarketScenario::constant(epochs, seed);
    if volatility > 0.0 || spot_mean != 1.0 {
        // A zero-volatility spot with a non-unit mean is still a price
        // regime (a flat discount); only the fully-default case means
        // "no spot process at all".
        market = market.with(PriceProcess::Spot(SpotMarket {
            mean: spot_mean,
            start: spot_mean,
            bid,
            ..SpotMarket::with_volatility(volatility)
        }));
    } else if flags.get("bid").is_some() {
        return Err("--bid needs --volatility > 0 or a non-unit --spot-mean".to_string());
    }
    if let Some(e) = flags.get("cut-epoch") {
        let effective: usize = e.parse().map_err(|_| "--cut-epoch: not an epoch index")?;
        market = market.with(PriceProcess::Cut(AnnouncedCut::compute(
            effective, cut_factor,
        )));
    } else if flags.get("cut-factor").is_some() {
        return Err("--cut-factor needs --cut-epoch".to_string());
    }
    if decay > 0.0 {
        market = market.with(PriceProcess::StorageDecay(StorageDecay::new(decay, 0.25)));
    }

    let domain = sales_domain(rows, queries, 1.0, 42);
    let advisor = Advisor::build(domain, AdvisorConfig::default()).map_err(|e| e.to_string())?;
    let config = MarketConfig {
        market,
        paths,
        commitment: commitment_flag.then(CommitmentPlan::aws_small_1yr),
        ..MarketConfig::default()
    };
    let report = advisor
        .solve_market(scenario, &config)
        .map_err(|e| e.to_string())?;
    println!("{}", market_json(&report, scenario, paths));
    Ok(())
}

fn cmd_fleet(args: &[String]) -> Result<(), String> {
    use mvcloud::fleet::FleetConfig;
    use mvcloud::market::{CorrelatedHazard, MarketScenario, PriceProcess, SpotMarket};
    use mvcloud::pricing::{CommitmentPlan, FleetPlan};

    let mut args: Vec<String> = args.to_vec();
    let commitment_flag = extract_switch(&mut args, "--commitment");
    let no_compare = extract_switch(&mut args, "--no-compare");
    let flags = parse_flags(&args)?;
    flags.expect_known(
        &[
            &[
                "queries",
                "rows",
                "epochs",
                "paths",
                "seed",
                "spot-mean",
                "volatility",
                "crunch-share",
                "persistence",
                "crunch-hazard",
                "crunch-factor",
                "reserved-rate",
                "pin",
            ],
            &SCENARIO_FLAGS[..],
        ]
        .concat(),
    )?;
    let queries: usize = flags.parse_num("queries", 5)?;
    let rows: usize = flags.parse_num("rows", 10_000)?;
    let epochs: usize = flags.parse_num("epochs", 12)?;
    let paths: usize = flags.parse_num("paths", 16)?;
    let seed: u64 = flags.parse_num("seed", 42)?;
    let spot_mean: f64 = flags.parse_num("spot-mean", 0.5)?;
    let volatility: f64 = flags.parse_num("volatility", 0.3)?;
    let crunch_share: f64 = flags.parse_num("crunch-share", 0.25)?;
    let persistence: f64 = flags.parse_num("persistence", 0.7)?;
    let crunch_hazard: f64 = flags.parse_num("crunch-hazard", 0.5)?;
    let crunch_factor: f64 = flags.parse_num("crunch-factor", 1.3)?;
    let reserved_rate: f64 = flags.parse_num("reserved-rate", 1.0)?;
    if !(1..=10).contains(&queries) {
        return Err("--queries must be 1..=10 (the paper's workload)".to_string());
    }
    if rows == 0 {
        return Err("--rows must be ≥ 1".to_string());
    }
    if epochs == 0 || paths == 0 {
        return Err("--epochs and --paths must be ≥ 1".to_string());
    }
    if volatility < 0.0 {
        return Err("--volatility must be ≥ 0".to_string());
    }
    let scenario = parse_scenario(&flags)?;

    let mut market = MarketScenario::constant(epochs, seed);
    if volatility > 0.0 || spot_mean != 1.0 {
        market = market.with(PriceProcess::Spot(SpotMarket::discounted(
            spot_mean, volatility,
        )));
    }
    // A crunch regime matters as soon as crunch months exist and are
    // distinguishable — by hazard OR by a compute spike (a hazard-free
    // price-only crunch is a configuration CorrelatedHazard supports).
    if crunch_share > 0.0 && (crunch_hazard > 0.0 || crunch_factor != 1.0) {
        market = market.with(PriceProcess::Correlated(
            CorrelatedHazard::bursty(crunch_share, persistence, crunch_hazard)
                .with_crunch_compute(crunch_factor),
        ));
    }

    let mut fleet = match flags.get("pin") {
        None => FleetPlan::hedged("hedged"),
        Some("spot") => FleetPlan::pure_spot(),
        Some("reserved") => FleetPlan::pure_reserved(),
        Some(other) => return Err(format!("--pin must be spot or reserved, got {other:?}")),
    };
    fleet.reserved.rate_factor = reserved_rate;
    if commitment_flag {
        fleet.reserved.commitment = Some(CommitmentPlan::aws_small_1yr());
    }

    let domain = sales_domain(rows, queries, 1.0, 42);
    let advisor = Advisor::build(domain, AdvisorConfig::default()).map_err(|e| e.to_string())?;
    let config = FleetConfig {
        market,
        paths,
        fleet,
        compare_pure: !no_compare,
        ..FleetConfig::default()
    };
    let report = advisor
        .solve_fleet(scenario, &config)
        .map_err(|e| e.to_string())?;
    println!("{}", fleet_json(&report, scenario, paths));
    Ok(())
}

/// Renders one [`mvcloud::Quantiles`] as a JSON object — the ONE place
/// the six-field schema lives; the market and fleet renderers share it.
fn quantiles_json(q: &mvcloud::Quantiles) -> Json {
    Json::obj(vec![
        ("min", Json::Fixed(q.min, 6)),
        ("p10", Json::Fixed(q.p10, 6)),
        ("median", Json::Fixed(q.median, 6)),
        ("p90", Json::Fixed(q.p90, 6)),
        ("max", Json::Fixed(q.max, 6)),
        ("mean", Json::Fixed(q.mean, 6)),
    ])
}

/// The shared `{plan,spot_compute,reserved,saving,reserved_wins_share}`
/// commitment object of the market and fleet reports.
fn spot_commitment_json(c: &mvcloud::SpotCommitmentReport) -> Json {
    Json::obj(vec![
        ("plan", Json::str(c.plan.clone())),
        ("spot_compute", quantiles_json(&c.spot_compute)),
        ("reserved", quantiles_json(&c.reserved)),
        ("saving", quantiles_json(&c.saving)),
        ("reserved_wins_share", Json::Fixed(c.reserved_wins_share, 4)),
    ])
}

/// A JSON array of quoted names.
fn str_list_json(names: &[String]) -> Json {
    Json::Arr(names.iter().map(Json::str).collect())
}

/// Renders a fleet report's hedge/quantile timeline as JSON
/// (through the shared writer, like [`market_json`]).
fn fleet_json(report: &mvcloud::FleetReport, scenario: Scenario, paths: usize) -> String {
    let q = quantiles_json;
    let epochs = Json::Arr(
        report
            .epochs
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("epoch", Json::UInt(e.epoch as u64)),
                    ("charged_cost", q(&e.charged_cost)),
                    ("cumulative_cost", q(&e.cumulative_cost)),
                    ("hedge_ratio", q(&e.hedge_ratio)),
                    ("compute_factor", q(&e.compute_factor)),
                    ("interruption", q(&e.interruption)),
                    ("distinct_plans", Json::UInt(e.distinct_plans as u64)),
                    ("modal_share", Json::Fixed(e.modal_share, 4)),
                    ("modal_selection", str_list_json(&e.modal_selection)),
                ])
            })
            .collect(),
    );
    let comparison = Json::opt(report.comparison.as_ref().map(|c| {
        Json::obj(vec![
            ("hedged", q(&c.hedged)),
            ("pure_spot", q(&c.pure_spot)),
            ("pure_reserved", q(&c.pure_reserved)),
            ("hedged_wins_share", Json::Fixed(c.hedged_wins_share, 4)),
        ])
    }));
    let moves: usize = report.paths.iter().map(|p| p.moves).sum();
    Json::obj(vec![
        ("scenario", Json::str(scenario.label())),
        ("fleet", Json::str(report.fleet.clone())),
        ("paths", Json::UInt(paths as u64)),
        ("distinct_solves", Json::UInt(report.distinct_solves as u64)),
        (
            "tree_nodes",
            Json::opt(report.tree_nodes.map(|n| Json::UInt(n as u64))),
        ),
        ("epochs", epochs),
        ("total_cost", q(&report.total_cost)),
        ("hedge_ratio", q(&report.hedge_ratio)),
        ("plan_stability", Json::Fixed(report.plan_stability, 4)),
        (
            "placement_moves_per_path",
            Json::Fixed(moves as f64 / report.paths.len() as f64, 2),
        ),
        ("comparison", comparison),
        (
            "commitment",
            Json::opt(report.commitment.as_ref().map(spot_commitment_json)),
        ),
    ])
    .render_pretty()
}

/// Renders a market report's quantile timeline as JSON (through the
/// shared writer, like [`horizon_json`]).
fn market_json(report: &mvcloud::MarketReport, scenario: Scenario, paths: usize) -> String {
    let q = quantiles_json;
    let epochs = Json::Arr(
        report
            .epochs
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("epoch", Json::UInt(e.epoch as u64)),
                    ("charged_cost", q(&e.charged_cost)),
                    ("cumulative_cost", q(&e.cumulative_cost)),
                    ("time_hours", q(&e.time_hours)),
                    ("compute_factor", q(&e.compute_factor)),
                    ("interruption", q(&e.interruption)),
                    ("distinct_plans", Json::UInt(e.distinct_plans as u64)),
                    ("modal_share", Json::Fixed(e.modal_share, 4)),
                    ("modal_selection", str_list_json(&e.modal_selection)),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("scenario", Json::str(scenario.label())),
        ("paths", Json::UInt(paths as u64)),
        ("distinct_solves", Json::UInt(report.distinct_solves as u64)),
        (
            "tree_nodes",
            Json::opt(report.tree_nodes.map(|n| Json::UInt(n as u64))),
        ),
        ("epochs", epochs),
        ("total_cost", q(&report.total_cost)),
        ("total_time_hours", q(&report.total_time_hours)),
        ("plan_stability", Json::Fixed(report.plan_stability, 4)),
        (
            "commitment",
            Json::opt(report.commitment.as_ref().map(spot_commitment_json)),
        ),
    ])
    .render_pretty()
}

/// Renders a horizon report as JSON (the vendored serde is a no-op
/// marker crate, so the timeline goes through [`mvcloud::json`]).
fn horizon_json(report: &mvcloud::HorizonReport, scenario: Scenario, myopic: bool) -> String {
    let epochs = Json::Arr(
        report
            .epochs
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("epoch", Json::UInt(e.epoch as u64)),
                    ("selected", str_list_json(&e.selected)),
                    ("added", str_list_json(&e.added)),
                    ("kept", str_list_json(&e.kept)),
                    ("dropped", str_list_json(&e.dropped)),
                    ("time_hours", Json::Fixed(e.time_hours, 6)),
                    (
                        "charged_cost",
                        Json::Fixed(e.charged_cost.to_dollars_f64(), 6),
                    ),
                    (
                        "full_price_cost",
                        Json::Fixed(e.full_price_cost.to_dollars_f64(), 6),
                    ),
                    (
                        "cumulative_cost",
                        Json::Fixed(e.cumulative_cost.to_dollars_f64(), 6),
                    ),
                ])
            })
            .collect(),
    );
    let commitment = Json::opt(report.commitment.as_ref().map(|c| {
        Json::obj(vec![
            ("plan", Json::str(c.plan.clone())),
            (
                "billed_instance_hours",
                Json::Fixed(c.billed_instance_hours.value(), 6),
            ),
            ("on_demand", Json::Fixed(c.on_demand.to_dollars_f64(), 6)),
            ("reserved", Json::Fixed(c.reserved.to_dollars_f64(), 6)),
            ("saving", Json::Fixed(c.saving().to_dollars_f64(), 6)),
            ("reserved_wins", Json::Bool(c.reserved_wins())),
        ])
    }));
    Json::obj(vec![
        ("scenario", Json::str(scenario.label())),
        ("policy", Json::str(if myopic { "myopic" } else { "chain" })),
        ("epochs", epochs),
        (
            "total_cost",
            Json::Fixed(report.total_cost.to_dollars_f64(), 6),
        ),
        (
            "total_time_hours",
            Json::Fixed(report.total_time.value(), 6),
        ),
        (
            "billed_instance_hours",
            Json::Fixed(report.billed_instance_hours.value(), 6),
        ),
        ("commitment", commitment),
    ])
    .render_pretty()
}

/// The resident advisor loop: catalog-backed startup, scripted or CSV
/// ingest behind the high-water mark, drift-triggered warm re-solves,
/// and a final status document (plus a final catalog spill).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use mvcloud::{AdvisorService, ServiceConfig};

    let flags = parse_flags(args)?;
    flags.expect_known(
        &[
            &[
                "queries",
                "rows",
                "frequency",
                "provider",
                "instances",
                "catalog",
                "ingest",
                "script",
                "drift",
                "moves",
            ],
            &SCENARIO_FLAGS[..],
        ]
        .concat(),
    )?;
    let queries: usize = flags.parse_num("queries", 3)?;
    let rows: usize = flags.parse_num("rows", 2_000)?;
    let frequency: f64 = flags.parse_num("frequency", 1.0)?;
    let instances: u32 = flags.parse_num("instances", 2)?;
    let drift: f64 = flags.parse_num("drift", 0.25)?;
    let moves: usize = flags.parse_num("moves", 64)?;
    if !(1..=10).contains(&queries) {
        return Err("--queries must be 1..=10 (the paper's workload)".to_string());
    }
    if rows == 0 {
        return Err("--rows must be ≥ 1".to_string());
    }
    if !(0.0..=2.0).contains(&drift) {
        return Err("--drift must be in [0,2] (L1 distance of distributions)".to_string());
    }
    if flags.get("ingest").is_some() && flags.get("script").is_some() {
        return Err("choose at most one of --ingest, --script".to_string());
    }
    let provider = flags.get("provider").unwrap_or("aws-2012");
    let pricing = presets::all()
        .into_iter()
        .find(|p| p.name == provider)
        .ok_or_else(|| format!("unknown provider {provider:?} (see `pricing`)"))?;
    let instance = pricing
        .compute
        .catalog
        .cheapest_with_units(1.0)
        .ok_or("provider has no 1-unit instance")?
        .name
        .clone();
    let advisor_config = AdvisorConfig {
        pricing,
        instance,
        nb_instances: instances,
        ..AdvisorConfig::default()
    };
    let service_config = ServiceConfig {
        scenario: parse_scenario(&flags)?,
        drift_threshold: drift,
        resolve_moves: moves,
    };

    let catalog_path = flags.get("catalog").map(std::path::PathBuf::from);
    let mut svc = match &catalog_path {
        // Warm restart: reload the measured charges; never re-measure.
        Some(path) if path.exists() => {
            AdvisorService::open(path, advisor_config, service_config).map_err(|e| e.to_string())?
        }
        _ => {
            let domain = sales_domain(rows, queries, frequency, 42);
            let advisor = Advisor::build(domain, advisor_config).map_err(|e| e.to_string())?;
            let svc = AdvisorService::from_advisor(&advisor, service_config)
                .map_err(|e| e.to_string())?;
            // Spill immediately so even a crash before the first event
            // leaves a reloadable catalog on disk.
            if let Some(path) = &catalog_path {
                svc.spill(path).map_err(|e| e.to_string())?;
            }
            svc
        }
    };

    if let Some(csv_path) = flags.get("ingest") {
        let text =
            std::fs::read_to_string(csv_path).map_err(|e| format!("--ingest {csv_path:?}: {e}"))?;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let event = parse_event_csv(line)
                .map_err(|e| format!("--ingest {csv_path:?} line {}: {e}", lineno + 1))?;
            // One batch per event: stream semantics, a drift check per
            // observed execution.
            let out = svc.ingest(&[event]).map_err(|e| e.to_string())?;
            if out.resolved {
                println!(
                    "resolved after line {}: {} views selected",
                    lineno + 1,
                    svc.plan().num_selected()
                );
            }
        }
    } else if let Some(script_path) = flags.get("script") {
        let text = std::fs::read_to_string(script_path)
            .map_err(|e| format!("--script {script_path:?}: {e}"))?;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            run_script_line(&mut svc, line, catalog_path.as_deref())
                .map_err(|e| format!("--script {script_path:?} line {}: {e}", lineno + 1))?;
        }
    }

    if let Some(path) = &catalog_path {
        svc.spill(path).map_err(|e| e.to_string())?;
    }
    println!("{}", svc.status_json().render_pretty());
    Ok(())
}

/// Parses one `timestamp,query_id,query` CSV stream line.
fn parse_event_csv(line: &str) -> Result<mvcloud::QueryEvent, String> {
    let mut parts = line.splitn(3, ',');
    let (Some(ts), Some(id), Some(name)) = (parts.next(), parts.next(), parts.next()) else {
        return Err(format!("expected 'timestamp,query_id,query', got {line:?}"));
    };
    Ok(mvcloud::QueryEvent {
        timestamp: ts
            .trim()
            .parse()
            .map_err(|_| format!("bad timestamp {ts:?}"))?,
        query_id: id
            .trim()
            .parse()
            .map_err(|_| format!("bad query_id {id:?}"))?,
        query: name.trim().to_string(),
    })
}

/// Executes one `--script` command against the resident service.
fn run_script_line(
    svc: &mut mvcloud::AdvisorService,
    line: &str,
    catalog_path: Option<&std::path::Path>,
) -> Result<(), String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    match words.as_slice() {
        ["ingest", ts, id, name] => {
            let event = mvcloud::QueryEvent {
                timestamp: ts.parse().map_err(|_| format!("bad timestamp {ts:?}"))?,
                query_id: id.parse().map_err(|_| format!("bad query_id {id:?}"))?,
                query: (*name).to_string(),
            };
            let out = svc.ingest(&[event]).map_err(|e| e.to_string())?;
            if out.resolved {
                println!("resolved: {} views selected", svc.plan().num_selected());
            }
            Ok(())
        }
        ["resolve"] => {
            svc.resolve().map_err(|e| e.to_string())?;
            println!("resolved: {} views selected", svc.plan().num_selected());
            Ok(())
        }
        ["spill"] => {
            let path = catalog_path.ok_or("spill needs --catalog")?;
            svc.spill(path).map_err(|e| e.to_string())
        }
        ["status"] => {
            println!("{}", svc.status_json().render());
            Ok(())
        }
        ["whatif", toggles @ ..] if !toggles.is_empty() => {
            let ks: Vec<usize> = toggles
                .iter()
                .map(|t| t.parse().map_err(|_| format!("bad candidate index {t:?}")))
                .collect::<Result<_, String>>()?;
            let n = svc.catalog().candidates.len();
            if let Some(k) = ks.iter().find(|&&k| k >= n) {
                return Err(format!("candidate index {k} out of range (have {n})"));
            }
            let probe = svc.what_if_toggle(&ks);
            println!(
                "whatif {:?}: {} views, {:.4} h, ${:.2}",
                ks,
                probe.num_selected(),
                probe.time.value(),
                probe.cost().to_dollars_f64()
            );
            Ok(())
        }
        _ => Err(format!(
            "unknown script command {line:?} (ingest TS ID NAME | resolve | spill | status | whatif K..)"
        )),
    }
}

fn cmd_sql(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    flags.expect_known(&["rows", "format"])?;
    let statement = flags
        .positional
        .first()
        .ok_or("sql requires a statement argument")?;
    let rows: usize = flags.parse_num("rows", 10_000)?;
    if rows == 0 {
        return Err("--rows must be ≥ 1".to_string());
    }
    let parsed = parse_query(statement).map_err(|e| e.to_string())?;
    let table = match parsed.table.as_str() {
        "sales" => datagen::generate_sales(&SalesConfig::with_rows(rows)),
        "lineorder" => {
            mvcloud::engine::ssb::generate_lineorder(&mvcloud::engine::SsbConfig { rows, seed: 7 })
        }
        other => {
            return Err(format!(
                "unknown table {other:?}: use 'sales' or 'lineorder'"
            ))
        }
    };
    let (result, stats) = parsed.query.execute(&table).map_err(|e| e.to_string())?;
    if flags.get("format") == Some("csv") {
        println!("{}", csv::table_to_csv(&result));
    } else {
        println!("{}", result.render(40));
    }
    eprintln!(
        "({} rows in, {} groups out, {} bytes scanned)",
        stats.rows_scanned, stats.groups, stats.bytes_scanned
    );
    Ok(())
}

fn cmd_pricing() -> Result<(), String> {
    for p in presets::all() {
        println!("{}", p.name);
        for i in p.compute.catalog.all() {
            println!(
                "  {:<10} {} per hour, {} ECU",
                i.name, i.hourly, i.compute_units
            );
        }
    }
    Ok(())
}

fn cmd_excerpt() -> Result<(), String> {
    println!("{}", datagen::paper_excerpt().render(4));
    Ok(())
}
