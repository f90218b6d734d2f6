//! `mvcloud-cli` — command-line front-end for the advisor.
//!
//! Run `mvcloud-cli --help` for the subcommands and their flags: that
//! text, the parser, the defaults and the range checks are all derived
//! from the flag tables below ([`COMMANDS`]), so a new flag is one row.
//! Reports go to stdout — a plan summary for `advise`, JSON for the
//! multi-epoch subcommands, each rendered by its report's own `to_json`
//! (through [`mvcloud::json`]).
//!
//! Every subcommand additionally accepts `--metrics <path|->`, which
//! enables the [`mvcloud::obs`] telemetry registry for the run and
//! emits the versioned snapshot JSON — `-` appends one compact line to
//! stdout after the report, a path receives the pretty document.

use std::fmt::{Display, Write as _};
use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use mvcloud::engine::{csv, datagen, parse_query, SalesConfig};
use mvcloud::json::snapshot_json;
use mvcloud::lattice::WorkloadEvolution;
use mvcloud::pricing::{presets, CommitmentPlan};
use mvcloud::report::summarize;
use mvcloud::units::{Hours, Money};
use mvcloud::{obs, sales_domain, Advisor, AdvisorConfig, Scenario, SolverKind};

/// What fails a run: a flag error (a `String`) or any library error.
/// `main` prints it after `error:`.
type Failure = Box<dyn std::error::Error>;

/// A flag's type *and* legal range: what [`Kind::check`] enforces is
/// what `--help` prints.
#[derive(Clone, Copy)]
enum Kind {
    /// Valueless: present or absent.
    Switch,
    /// An unsigned integer in `min..=max`.
    Count { min: u64, max: u64 },
    /// A finite real in `[lo, hi]` (`hi` may be infinite: no upper bound).
    Real { lo: f64, hi: f64 },
    /// A finite real in `(0, hi]`.
    Positive { hi: f64 },
    /// A decimal dollar amount.
    Dollars,
    /// One of the listed words.
    Choice(&'static [&'static str]),
    /// Free text: a path or a name resolved later.
    Text,
}

/// A checked flag value.
#[derive(Clone, Copy)]
enum Value<'a> {
    Count(u64),
    Real(f64),
    Dollars(Money),
    Text(&'a str),
}

impl Kind {
    /// The range as `--help` and the range errors word it.
    fn describe(&self) -> String {
        match *self {
            Kind::Count { min, max: u64::MAX } => format!("an integer ≥ {min}"),
            Kind::Count { min, max } => format!("an integer in {min}..={max}"),
            Kind::Real { lo, hi } if hi.is_infinite() => format!("a number ≥ {lo}"),
            Kind::Real { lo, hi } => format!("a number in [{lo}, {hi}]"),
            Kind::Positive { hi } if hi.is_infinite() => "a number > 0".to_string(),
            Kind::Positive { hi } => format!("a number in (0, {hi}]"),
            Kind::Dollars => "a dollar amount".to_string(),
            Kind::Choice(words) => words.join("|"),
            // No range to speak of.
            Kind::Switch | Kind::Text => String::new(),
        }
    }

    /// Parses `raw` and holds it to the range.
    fn check<'a>(&self, raw: &'a str) -> Result<Value<'a>, String> {
        let real = || raw.parse::<f64>().ok().filter(|v| v.is_finite());
        let value = match *self {
            Kind::Switch => None,
            Kind::Count { min, max } => raw
                .parse()
                .ok()
                .filter(|v| (min..=max).contains(v))
                .map(Value::Count),
            Kind::Real { lo, hi } => real().filter(|v| (lo..=hi).contains(v)).map(Value::Real),
            Kind::Positive { hi } => real().filter(|&v| 0.0 < v && v <= hi).map(Value::Real),
            Kind::Dollars => Money::from_dollars_str(raw).ok().map(Value::Dollars),
            Kind::Choice(words) => words.contains(&raw).then_some(Value::Text(raw)),
            Kind::Text => Some(Value::Text(raw)),
        };
        value.ok_or_else(|| format!("must be {}, got {raw:?}", self.describe()))
    }
}

/// One row of a flag table.
struct Flag {
    name: &'static str,
    /// Placeholder for the value in `--help` (empty for a switch).
    metavar: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    help: &'static str,
}

const MAX: u64 = u64::MAX;
const INF: f64 = f64::INFINITY;
/// Ceiling of the multiplier and size flags: far past any price sheet
/// or dataset, far below where rate × hours × factor leaves `Money`.
const BIG: f64 = 1e9;

const fn flag(
    name: &'static str,
    metavar: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        metavar,
        kind,
        default,
        help,
    }
}

const fn count(min: u64, max: u64) -> Kind {
    Kind::Count { min, max }
}

const fn real(lo: f64, hi: f64) -> Kind {
    Kind::Real { lo, hi }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    flag(name, "", Kind::Switch, None, help)
}

// The tables are data, one row a line: name, metavar, kind (type and
// range), default, help. Cross-flag rules live in the command bodies.

/// Accepted before or after the subcommand, by all of them.
#[rustfmt::skip]
const GLOBAL: [Flag; 1] = [
    flag("metrics", "PATH", Kind::Text, None, "enable telemetry; write the snapshot JSON to PATH\n\
        ('-' = one compact line on stdout after the report)"),
];

/// The measured sales workload; ceiling and defaults differ per subcommand.
#[rustfmt::skip]
const fn workload(max_queries: u64, queries: &'static str, rows: &'static str) -> [Flag; 2] {
    [
        flag("queries", "N", count(1, max_queries), Some(queries), "workload size in paper queries"),
        flag("rows", "N", count(1, MAX), Some(rows), "generated fact rows"),
    ]
}

/// MV1 / MV2 / MV3: every advising subcommand takes exactly one.
#[rustfmt::skip]
const SCENARIO: [Flag; 3] = [
    flag("budget", "X", Kind::Dollars, None, "MV1: minimize time under $X total"),
    flag("time-limit", "H", real(0.0, INF), None, "MV2: minimize cost under H hours"),
    flag("alpha", "A", real(0.0, 1.0), None, "MV3: weighted time/cost tradeoff"),
];

#[rustfmt::skip]
const INSTANCES: Flag = flag("instances", "K", count(1, u32::MAX as u64), Some("2"), "number of identical instances");
#[rustfmt::skip]
const PROVIDER: [Flag; 2] = [
    flag("provider", "P", Kind::Text, Some("aws-2012"), "pricing preset (see `pricing`)"),
    INSTANCES,
];
#[rustfmt::skip]
const FREQUENCY: Flag = flag("frequency", "F", real(0.0, BIG), Some("1"), "per-period runs of each query");
#[rustfmt::skip]
const COMMITMENT: Flag = switch("commitment", "price the compute against a 1-year reservation");

const fn epochs(min: u64, default: &'static str, help: &'static str) -> Flag {
    flag("epochs", "N", count(min, MAX), Some(default), help)
}
const HORIZON_EPOCHS: Flag = epochs(1, "12", "billing periods in the horizon");

/// How query frequencies move between epochs; a knob given for another
/// pattern than the one its help names is an error.
#[rustfmt::skip]
const fn evolution(pattern: &'static str) -> [Flag; 5] {
    [
        flag("pattern", "P", Kind::Choice(&["static", "drift", "burst", "seasonal"]), Some(pattern), "workload evolution"),
        flag("rate", "R", real(0.0, BIG), Some("0.2"), "drift: per-epoch migration rate"),
        flag("factor", "F", real(0.0, BIG), Some("5"), "burst: spike multiplier"),
        flag("amplitude", "A", real(0.0, 1.0), Some("0.6"), "seasonal: modulation depth"),
        flag("period", "P", count(1, MAX), Some("12"), "burst/seasonal: epochs per cycle"),
    ]
}

/// The sampled spot market `market` and `fleet` share.
#[rustfmt::skip]
const fn sampling(spot_mean: &'static str) -> [Flag; 4] {
    [
        flag("paths", "K", count(1, MAX), Some("16"), "sampled price paths"),
        flag("seed", "S", count(0, MAX), Some("42"), "market seed (reproducible paths)"),
        flag("volatility", "V", real(0.0, BIG), Some("0.3"), "spot shock half-width (0 = no shocks)"),
        flag("spot-mean", "M", real(0.0, BIG), Some(spot_mean), "long-run spot compute factor"),
    ]
}

/// One subcommand: its flag table (groups in `--help` order), what it
/// does, and the function that runs it.
struct Command {
    name: &'static str,
    about: &'static str,
    /// Placeholder of the one positional argument, if it takes one.
    positional: Option<&'static str>,
    groups: &'static [&'static [Flag]],
    run: fn(&Args) -> Result<(), Failure>,
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().copied().flatten()
    }
}

#[rustfmt::skip]
const COMMANDS: [Command; 9] = [
    Command {
        name: "advise", run: cmd_advise, positional: None,
        about: "select views for one billing period and print the plan",
        // `--candidates` lifts the paper's ten-query ceiling.
        groups: &[&workload(MAX, "5", "10000"), &PROVIDER, &[
            flag("solver", "S", Kind::Choice(&["knapsack", "exhaustive", "greedy", "bnb", "local", "lns"]), Some("knapsack"),
                "selection algorithm (lns is the large-pool tier)"),
            flag("candidates", "N", count(1, MAX), None, "synthetic scale mode: solve an N-candidate sparse-coverage problem\n\
                instead of measuring the paper lattice (lifts --queries past 10,\n\
                e.g. --candidates 2000 --queries 50000)"),
            flag("seed", "S", count(0, MAX), Some("42"), "scale mode generation seed"),
        ], &SCENARIO],
    },
    Command {
        name: "horizon", run: cmd_horizon, positional: None,
        about: "plan a multi-epoch horizon; emits the per-epoch timeline as JSON",
        groups: &[&workload(10, "5", "10000"), &[HORIZON_EPOCHS], &evolution("seasonal"), &[
            COMMITMENT,
            switch("myopic", "re-solve each epoch from scratch (transition-blind)"),
        ], &SCENARIO],
    },
    Command {
        name: "market", run: cmd_market, positional: None,
        about: "Monte-Carlo horizon under spot prices; emits the per-epoch quantile timeline as JSON",
        groups: &[&workload(10, "5", "10000"), &[HORIZON_EPOCHS], &sampling("1.0"), &[
            flag("bid", "B", real(0.0, INF), Some("1.2"), "spot bid factor (interruption risk above it)"),
            flag("cut-epoch", "E", count(0, MAX), None, "announced compute cut effective at epoch E"),
            flag("cut-factor", "F", real(0.0, BIG), Some("0.8"), "the cut's compute factor (needs --cut-epoch)"),
            flag("decay", "R", real(0.0, INF), Some("0"), "linear storage-rate decline per epoch"),
            COMMITMENT,
        ], &SCENARIO],
    },
    Command {
        name: "fleet", run: cmd_fleet, positional: None,
        about: "hedged spot/reserved fleet under correlated crunches; emits the per-epoch\n\
            hedge/quantile timeline as JSON",
        groups: &[&workload(10, "5", "10000"), &[HORIZON_EPOCHS], &sampling("0.5"), &[
            flag("crunch-share", "S", real(0.0, 1.0), Some("0.25"), "stationary share of crunch epochs"),
            flag("persistence", "R", real(0.0, 1.0), Some("0.7"), "crunch regime autocorrelation (0 = iid)"),
            flag("crunch-hazard", "H", real(0.0, 1.0), Some("0.5"), "interruption probability in a crunch"),
            flag("crunch-factor", "F", real(0.0, BIG), Some("1.3"), "spot compute multiplier in a crunch"),
            flag("reserved-rate", "R", real(0.0, BIG), Some("1"), "reserved pool rate vs on-demand"),
            flag("pin", "P", Kind::Choice(&["spot", "reserved"]), None, "pin every view to one pool (pure fleet)"),
            COMMITMENT,
            switch("no-compare", "skip the pure-spot/pure-reserved comparison"),
        ], &SCENARIO],
    },
    Command {
        name: "calibrate", run: cmd_calibrate, positional: None,
        about: "replay the horizon plan through the engine, fit the throughput law from the\n\
            metered samples, and emit the per-epoch predicted-vs-metered reconciliation as JSON",
        groups: &[&[
            flag("domain", "D", Kind::Choice(&["sales", "ssb"]), Some("sales"), "workload domain (ssb: 13 fixed flight queries)"),
        ], &workload(10, "5", "10000"), &[
            FREQUENCY,
            flag("seed", "S", count(0, MAX), Some("42"), "data generation seed"),
            epochs(2, "6", "replayed epochs, the last held out of the fit"),
            flag("scale", "GB", Kind::Positive { hi: BIG }, Some("500"), "simulated cloud dataset size"),
            INSTANCES,
        ], &evolution("static"), &[
            flag("synthetic-rate", "R", Kind::Positive { hi: INF }, Some("100"), "mis-specified prior, GB/h/unit"),
            flag("synthetic-overhead", "H", real(0.0, BIG), Some("0"), "prior per-job overhead hours"),
        ], &SCENARIO],
    },
    Command {
        name: "serve", run: cmd_serve, positional: None,
        about: "run the resident advisor: ingest traffic behind the catalog's high-water mark,\n\
            re-solve warm (retarget, no rebuild) when the observed frequency mix drifts past\n\
            --drift, and print the service status JSON",
        groups: &[&workload(10, "3", "2000"), &[FREQUENCY], &PROVIDER, &[
            flag("catalog", "PATH", Kind::Text, None, "persistent candidate catalog; reloaded if it exists (skipping\n\
                measurement), spilled on exit"),
            flag("ingest", "CSV", Kind::Text, None, "event stream, one 'timestamp,query_id,query' line per observed\n\
                execution (not with --script)"),
            flag("script", "FILE", Kind::Text, None, "service script, one verb per line: ingest TS ID NAME | resolve |\n\
                spill | status | whatif K [K..]"),
            flag("drift", "T", real(0.0, 2.0), Some("0.25"), "L1 drift threshold of the frequency distribution"),
            flag("moves", "N", count(0, MAX), Some("64"), "re-solve local-search move budget"),
        ], &SCENARIO],
    },
    Command {
        name: "sql", run: cmd_sql, positional: Some("STATEMENT"),
        about: "run one aggregate query over `sales` or `lineorder`, e.g.\n\
            \"SELECT sum(profit) FROM sales GROUP BY year\"",
        groups: &[&[
            flag("rows", "N", count(1, MAX), Some("10000"), "generated fact rows"),
            flag("format", "F", Kind::Choice(&["table", "csv"]), Some("table"), "output format"),
        ]],
    },
    Command { name: "pricing", run: cmd_pricing, positional: None, about: "list the provider presets", groups: &[] },
    Command { name: "excerpt", run: cmd_excerpt, positional: None, about: "print the paper's Table 1", groups: &[] },
];

/// One parsed invocation: every given flag is in its subcommand's table
/// (or [`GLOBAL`]), appears once, and holds a value inside its range.
struct Args<'a> {
    command: &'static Command,
    given: Vec<(&'static Flag, Option<Value<'a>>)>,
    positional: Option<&'a str>,
}

/// Parses the command line in one pass; `None` asks for `--help`.
fn parse(argv: &[String]) -> Result<Option<Args<'_>>, String> {
    let mut command: Option<&'static Command> = None;
    let mut given: Vec<(&'static Flag, Option<Value>)> = Vec::new();
    let mut positional = None;
    let mut words = argv.iter().map(String::as_str);
    while let Some(word) = words.next() {
        if let Some(name) = word.strip_prefix("--") {
            if command.is_none() && name == "help" {
                return Ok(None);
            }
            let flag = GLOBAL
                .iter()
                .chain(command.into_iter().flat_map(Command::flags))
                .find(|f| f.name == name)
                .ok_or_else(|| format!("unknown flag --{name} (try --help)"))?;
            if given.iter().any(|(f, _)| f.name == name) {
                return Err(format!("flag --{name} given twice"));
            }
            let value = match flag.kind {
                Kind::Switch => None,
                kind => {
                    let raw = words
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("flag --{name} needs a value"))?;
                    Some(kind.check(raw).map_err(|e| format!("--{name} {e}"))?)
                }
            };
            given.push((flag, value));
        } else if let Some(c) = command {
            if c.positional.is_none() || positional.is_some() {
                return Err(format!("unexpected argument {word:?} (try --help)"));
            }
            positional = Some(word);
        } else if word == "-h" {
            return Ok(None);
        } else {
            let found = COMMANDS.iter().find(|c| c.name == word);
            command = Some(found.ok_or_else(|| format!("unknown command {word:?} (try --help)"))?);
        }
    }
    Ok(command.map(|command| Args {
        command,
        given,
        positional,
    }))
}

impl<'a> Args<'a> {
    /// Whether the flag (or switch) was on the command line.
    fn given(&self, name: &str) -> bool {
        self.given.iter().any(|(f, _)| f.name == name)
    }

    /// The flag's value: as given, else its row's default.
    fn value(&self, name: &str) -> Option<Value<'a>> {
        if let Some((_, value)) = self.given.iter().find(|(f, _)| f.name == name) {
            return *value;
        }
        let mut rows = GLOBAL.iter().chain(self.command.flags());
        let flag = rows
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("{} has no --{name} row", self.command.name));
        let checked = flag.kind.check(flag.default?);
        Some(checked.expect("a table default passes its own range (unit-tested)"))
    }

    fn opt_count(&self, name: &str) -> Option<usize> {
        match self.value(name) {
            Some(Value::Count(v)) => Some(v as usize),
            _ => None,
        }
    }

    fn text(&self, name: &str) -> Option<&'a str> {
        match self.value(name) {
            Some(Value::Text(v)) => Some(v),
            _ => None,
        }
    }

    // The next three read rows that have a default: there is always a
    // value, and asking for the wrong kind is a bug in a command body.

    fn count(&self, name: &str) -> usize {
        let count = self.opt_count(name);
        count.unwrap_or_else(|| panic!("--{name} is not a defaulted count row"))
    }

    fn real(&self, name: &str) -> f64 {
        match self.value(name) {
            Some(Value::Real(v)) => v,
            _ => panic!("--{name} is not a defaulted real row"),
        }
    }

    fn choice(&self, name: &str) -> &'a str {
        let word = self.text(name);
        word.unwrap_or_else(|| panic!("--{name} is not a defaulted text row"))
    }
}

/// The whole `--help` text, generated from the tables.
fn usage() -> String {
    let spelled = |f: &Flag| match f.metavar {
        "" => format!("--{}", f.name),
        metavar => format!("--{} {metavar}", f.name),
    };
    let mut out = "mvcloud-cli — cost-aware view materialization advisor\n\nUSAGE:\n".to_string();
    for c in &COMMANDS {
        let head = format!("  mvcloud-cli {}", c.name);
        let mut line = head.clone();
        let words = c.positional.map(str::to_string).into_iter();
        for word in words.chain(c.flags().map(|f| format!("[{}]", spelled(f)))) {
            if line.len() + 1 + word.len() > 78 {
                let _ = writeln!(out, "{line}");
                line = " ".repeat(head.len());
            }
            line = format!("{line} {word}");
        }
        let _ = writeln!(out, "{line}");
    }
    out.push_str("\nadvising subcommands take exactly one of --budget, --time-limit, --alpha\n");
    let mut section = |title: &str, about: &str, flags: &mut dyn Iterator<Item = &Flag>| {
        let _ = writeln!(out, "\n{title}");
        for line in about.lines() {
            let _ = writeln!(out, "  {line}");
        }
        for f in flags {
            // The range and the default close the last help line.
            let mut text = f.help.to_string();
            let range = f.kind.describe();
            if !range.is_empty() {
                let _ = write!(text, "; {range}");
            }
            if let Some(default) = f.default {
                let _ = write!(text, " [default {default}]");
            }
            let mut label = spelled(f);
            for line in text.lines() {
                let _ = writeln!(out, "    {label:<24} {line}");
                label.clear();
            }
        }
    };
    section("every subcommand also accepts:", "", &mut GLOBAL.iter());
    for c in &COMMANDS {
        section(&format!("{}:", c.name), c.about, &mut c.flags());
    }
    out
}

/// Set once stdout is found closed (`… | head`): later reports are
/// dropped and the run still finishes its work (a `serve` still spills
/// its catalog) and exits quietly.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes one report to stdout, newline-terminated — the one place the
/// CLI prints, so a closed pipe is handled once.
fn emit(report: impl Display) -> Result<(), Failure> {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{report}").and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            Ok(())
        }
        Err(e) => Err(format!("writing to stdout: {e}").into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            // Not `eprintln!`: a closed stderr must not turn the exit
            // status into a panic.
            let _ = writeln!(std::io::stderr(), "error: {failure}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), Failure> {
    let Some(args) = parse(argv)? else {
        return emit(usage().trim_end());
    };
    // `--metrics` turns the telemetry registry on for the whole run; the
    // snapshot is emitted after the subcommand succeeds.
    let metrics = args.text("metrics");
    if metrics.is_some() {
        obs::enable();
    }
    (args.command.run)(&args)?;
    emit_metrics(metrics)
}

/// Emits the telemetry snapshot `--metrics` asked for (see the module doc).
fn emit_metrics(target: Option<&str>) -> Result<(), Failure> {
    let Some(target) = target else { return Ok(()) };
    let doc = snapshot_json(&obs::Snapshot::capture());
    if target == "-" {
        return emit(doc.render());
    }
    // Atomic (temp + rename): a reader polling the snapshot file
    // never observes a partially written document.
    mvcloud::json::write_atomic(
        std::path::Path::new(target),
        &format!("{}\n", doc.render_pretty()),
    )
    .map_err(|e| format!("--metrics {target:?}: {e}").into())
}

/// The MV1/MV2/MV3 scenario: exactly one of the three flags.
fn parse_scenario(args: &Args) -> Result<Scenario, Failure> {
    match (
        args.value("budget"),
        args.value("time-limit"),
        args.value("alpha"),
    ) {
        (Some(Value::Dollars(budget)), None, None) => Ok(Scenario::budget(budget)),
        (None, Some(Value::Real(limit)), None) => Ok(Scenario::time_limit(Hours::new(limit))),
        (None, None, Some(Value::Real(alpha))) => Ok(Scenario::tradeoff_normalized(alpha)),
        _ => Err("choose exactly one of --budget, --time-limit, --alpha".into()),
    }
}

/// The workload evolution: `--pattern` plus its knobs. Each knob belongs
/// to one pattern; a knob supplied for a different pattern would be
/// silently ignored — reject it instead.
fn parse_evolution(args: &Args) -> Result<WorkloadEvolution, Failure> {
    let pattern = args.choice("pattern");
    let period = args.count("period");
    let (applicable, evolution): (&[&str], _) = match pattern {
        "drift" => (&["rate"], WorkloadEvolution::drift(args.real("rate"))),
        "burst" => (
            &["factor", "period"],
            WorkloadEvolution::burst(period, args.real("factor")),
        ),
        "seasonal" => (
            &["amplitude", "period"],
            WorkloadEvolution::seasonal(period, args.real("amplitude")),
        ),
        _ => (&[], WorkloadEvolution::fixed()),
    };
    for knob in ["rate", "factor", "amplitude", "period"] {
        if args.given(knob) && !applicable.contains(&knob) {
            return Err(format!("--{knob} does not apply to --pattern {pattern}").into());
        }
    }
    Ok(evolution)
}

/// The `--provider` preset with its cheapest 1-unit instance and the
/// `--instances` count.
fn provider_config(args: &Args) -> Result<AdvisorConfig, Failure> {
    let provider = args.choice("provider");
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
    Ok(AdvisorConfig {
        pricing,
        instance,
        nb_instances: args.count("instances") as u32,
        ..AdvisorConfig::default()
    })
}

/// The advisor over the measured `--rows` × `--queries` sales workload.
fn sales_advisor(args: &Args, frequency: f64, config: AdvisorConfig) -> Result<Advisor, Failure> {
    let domain = sales_domain(args.count("rows"), args.count("queries"), frequency, 42);
    Ok(Advisor::build(domain, config)?)
}

fn cmd_advise(args: &Args) -> Result<(), Failure> {
    let queries = args.count("queries");
    let solver = match args.choice("solver") {
        "exhaustive" => SolverKind::Exhaustive,
        "greedy" => SolverKind::Greedy,
        "bnb" => SolverKind::BranchAndBound,
        "local" => SolverKind::LocalSearch,
        "lns" => SolverKind::Lns,
        _ => SolverKind::PaperKnapsack,
    };
    let scenario = parse_scenario(args)?;

    // Synthetic scale mode: a sparse-coverage problem of arbitrary size
    // (n candidates × m queries) instead of the measured paper lattice.
    if let Some(candidates) = args.opt_count("candidates") {
        for inapplicable in ["rows", "provider", "instances"] {
            if args.given(inapplicable) {
                return Err(format!(
                    "--{inapplicable} does not apply with --candidates (synthetic scale mode)"
                )
                .into());
            }
        }
        let limit = mvcloud::select::MAX_CANDIDATES;
        if solver == SolverKind::Exhaustive && candidates > limit {
            return Err(format!(
                "--solver exhaustive enumerates every subset: at most {limit} --candidates"
            )
            .into());
        }
        let shape = mvcloud::lattice::ScaleShape {
            queries,
            candidates,
            mean_coverage: 12,
            seed: args.count("seed") as u64,
        };
        let problem = mvcloud::scale_problem(&shape);
        let outcome = mvcloud::select::solve(&problem, scenario, solver);
        let names: Vec<String> = problem
            .candidates()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        return emit(summarize(&outcome, &names));
    }
    if args.given("seed") {
        return Err("--seed needs --candidates (synthetic scale mode)".into());
    }
    if queries > 10 {
        return Err("--queries must be 1..=10 (the paper's workload) without --candidates".into());
    }
    let advisor = sales_advisor(args, 1.0, provider_config(args)?)?;
    let outcome = advisor.solve(scenario, solver);
    let names: Vec<String> = advisor
        .candidates()
        .iter()
        .map(|c| c.label.clone())
        .collect();
    emit(summarize(&outcome, &names))
}

fn cmd_horizon(args: &Args) -> Result<(), Failure> {
    let myopic = args.given("myopic");
    let scenario = parse_scenario(args)?;
    let horizon = mvcloud::HorizonConfig {
        epochs: args.count("epochs"),
        evolution: parse_evolution(args)?,
        commitment: args.given("commitment").then(CommitmentPlan::aws_small_1yr),
    };
    let advisor = sales_advisor(args, 1.0, AdvisorConfig::default())?;
    let report = if myopic {
        advisor.solve_horizon_myopic(scenario, &horizon)
    } else {
        advisor.solve_horizon(scenario, &horizon)
    }?;
    emit(report.to_json(scenario, myopic).render_pretty())
}

fn cmd_calibrate(args: &Args) -> Result<(), Failure> {
    use mvcloud::engine::ThroughputModel;

    let rows = args.count("rows");
    let frequency = args.real("frequency");
    let seed = args.count("seed") as u64;
    let evolution = parse_evolution(args)?;
    let scenario = parse_scenario(args)?;
    let domain = match args.choice("domain") {
        "ssb" if args.given("queries") => {
            return Err(
                "--queries does not apply to --domain ssb (fixed 13-query flight workload)".into(),
            )
        }
        "ssb" => mvcloud::ssb_domain(rows, frequency, seed),
        _ => sales_domain(rows, args.count("queries"), frequency, seed),
    };
    let config = AdvisorConfig {
        nb_instances: args.count("instances") as u32,
        simulated_dataset: mvcloud::units::Gb::new(args.real("scale")),
        ..AdvisorConfig::default()
    };
    let advisor = Advisor::build(domain, config)?;
    let config = mvcloud::CalibrationConfig {
        epochs: args.count("epochs"),
        evolution,
        synthetic: ThroughputModel::calibrated(
            args.real("synthetic-rate"),
            Hours::new(args.real("synthetic-overhead")),
        ),
    };
    let report = advisor.calibrate(scenario, &config)?;
    emit(report.to_json(scenario).render_pretty())
}

fn cmd_market(args: &Args) -> Result<(), Failure> {
    use mvcloud::market::{
        AnnouncedCut, MarketConfig, MarketScenario, PriceProcess, SpotMarket, StorageDecay,
    };

    let (volatility, spot_mean) = (args.real("volatility"), args.real("spot-mean"));
    let decay = args.real("decay");
    let scenario = parse_scenario(args)?;

    let mut market = MarketScenario::constant(args.count("epochs"), args.count("seed") as u64);
    if volatility > 0.0 || spot_mean != 1.0 {
        // A zero-volatility spot with a non-unit mean is still a price
        // regime (a flat discount); only the fully-default case means
        // "no spot process at all".
        market = market.with(PriceProcess::Spot(SpotMarket {
            mean: spot_mean,
            start: spot_mean,
            bid: args.real("bid"),
            ..SpotMarket::with_volatility(volatility)
        }));
    } else if args.given("bid") {
        return Err("--bid needs --volatility > 0 or a non-unit --spot-mean".into());
    }
    if let Some(effective) = args.opt_count("cut-epoch") {
        let cut = AnnouncedCut::compute(effective, args.real("cut-factor"));
        market = market.with(PriceProcess::Cut(cut));
    } else if args.given("cut-factor") {
        return Err("--cut-factor needs --cut-epoch".into());
    }
    if decay > 0.0 {
        market = market.with(PriceProcess::StorageDecay(StorageDecay::new(decay, 0.25)));
    }

    let advisor = sales_advisor(args, 1.0, AdvisorConfig::default())?;
    let config = MarketConfig {
        market,
        paths: args.count("paths"),
        commitment: args.given("commitment").then(CommitmentPlan::aws_small_1yr),
        ..MarketConfig::default()
    };
    let report = advisor.solve_market(scenario, &config)?;
    emit(report.to_json(scenario).render_pretty())
}

fn cmd_fleet(args: &Args) -> Result<(), Failure> {
    use mvcloud::fleet::FleetConfig;
    use mvcloud::market::{CorrelatedHazard, MarketScenario, PriceProcess, SpotMarket};
    use mvcloud::pricing::FleetPlan;

    let (volatility, spot_mean) = (args.real("volatility"), args.real("spot-mean"));
    let crunch_share = args.real("crunch-share");
    let crunch_hazard = args.real("crunch-hazard");
    let crunch_factor = args.real("crunch-factor");
    let scenario = parse_scenario(args)?;

    let mut market = MarketScenario::constant(args.count("epochs"), args.count("seed") as u64);
    if volatility > 0.0 || spot_mean != 1.0 {
        let spot = SpotMarket::discounted(spot_mean, volatility);
        market = market.with(PriceProcess::Spot(spot));
    }
    // A crunch regime matters as soon as crunch months exist and are
    // distinguishable — by hazard OR by a compute spike (a hazard-free
    // price-only crunch is a configuration CorrelatedHazard supports).
    if crunch_share > 0.0 && (crunch_hazard > 0.0 || crunch_factor != 1.0) {
        market = market.with(PriceProcess::Correlated(
            CorrelatedHazard::bursty(crunch_share, args.real("persistence"), crunch_hazard)
                .with_crunch_compute(crunch_factor),
        ));
    }

    let mut fleet = match args.text("pin") {
        Some("spot") => FleetPlan::pure_spot(),
        Some(_) => FleetPlan::pure_reserved(),
        None => FleetPlan::hedged("hedged"),
    };
    fleet.reserved.rate_factor = args.real("reserved-rate");
    if args.given("commitment") {
        fleet.reserved.commitment = Some(CommitmentPlan::aws_small_1yr());
    }

    let advisor = sales_advisor(args, 1.0, AdvisorConfig::default())?;
    let config = FleetConfig {
        market,
        paths: args.count("paths"),
        fleet,
        compare_pure: !args.given("no-compare"),
        ..FleetConfig::default()
    };
    let report = advisor.solve_fleet(scenario, &config)?;
    emit(report.to_json(scenario).render_pretty())
}

/// The resident advisor loop: catalog-backed startup, scripted or CSV
/// ingest behind the high-water mark, drift-triggered warm re-solves,
/// and a final status document (plus a final catalog spill).
fn cmd_serve(args: &Args) -> Result<(), Failure> {
    use mvcloud::{AdvisorService, ServiceConfig};

    if args.given("ingest") && args.given("script") {
        return Err("choose at most one of --ingest, --script".into());
    }
    let advisor_config = provider_config(args)?;
    let service_config = ServiceConfig {
        scenario: parse_scenario(args)?,
        drift_threshold: args.real("drift"),
        resolve_moves: args.count("moves"),
    };

    let catalog_path = args.text("catalog").map(std::path::PathBuf::from);
    let mut svc = match &catalog_path {
        // Warm restart: reload the measured charges; never re-measure.
        Some(path) if path.exists() => AdvisorService::open(path, advisor_config, service_config)?,
        _ => {
            let advisor = sales_advisor(args, args.real("frequency"), advisor_config)?;
            let svc = AdvisorService::from_advisor(&advisor, service_config)?;
            // Spill immediately so even a crash before the first event
            // leaves a reloadable catalog on disk.
            if let Some(path) = &catalog_path {
                svc.spill(path)?;
            }
            svc
        }
    };

    if let Some(path) = args.text("ingest") {
        // One batch per event: stream semantics, a drift check per
        // observed execution.
        for_each_line("ingest", path, |lineno, line| {
            let mut fields = line.splitn(3, ',').map(str::trim);
            let (Some(ts), Some(id), Some(name)) = (fields.next(), fields.next(), fields.next())
            else {
                return Err(format!("expected 'timestamp,query_id,query', got {line:?}").into());
            };
            if svc.ingest(&[query_event(ts, id, name)?])?.resolved {
                let views = svc.plan().num_selected();
                emit(format_args!(
                    "resolved after line {lineno}: {views} views selected"
                ))?;
            }
            Ok(())
        })?;
    } else if let Some(path) = args.text("script") {
        let catalog = catalog_path.as_deref();
        for_each_line("script", path, |_, line| {
            run_script_line(&mut svc, line, catalog)
        })?;
    }

    if let Some(path) = &catalog_path {
        svc.spill(path)?;
    }
    emit(svc.status_json().render_pretty())
}

/// Runs `step` on every line of the file `--{flag}` names that is
/// neither blank nor a `#` comment; an error carries flag, file and line.
fn for_each_line(
    flag: &str,
    path: &str,
    mut step: impl FnMut(usize, &str) -> Result<(), Failure>,
) -> Result<(), Failure> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--{flag} {path:?}: {e}"))?;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.is_empty() && !line.starts_with('#') {
            step(i + 1, line).map_err(|e| format!("--{flag} {path:?} line {}: {e}", i + 1))?;
        }
    }
    Ok(())
}

/// One observed execution, from the fields of a stream or script line.
fn query_event(ts: &str, id: &str, name: &str) -> Result<mvcloud::QueryEvent, Failure> {
    Ok(mvcloud::QueryEvent {
        timestamp: ts.parse().map_err(|_| format!("bad timestamp {ts:?}"))?,
        query_id: id.parse().map_err(|_| format!("bad query_id {id:?}"))?,
        query: name.to_string(),
    })
}

/// Executes one `--script` command against the resident service.
fn run_script_line(
    svc: &mut mvcloud::AdvisorService,
    line: &str,
    catalog_path: Option<&std::path::Path>,
) -> Result<(), Failure> {
    let words: Vec<&str> = line.split_whitespace().collect();
    match words.as_slice() {
        ["ingest", ts, id, name] => {
            let out = svc.ingest(&[query_event(ts, id, name)?]);
            if out?.resolved {
                let views = svc.plan().num_selected();
                emit(format_args!("resolved: {views} views selected"))?;
            }
            Ok(())
        }
        ["resolve"] => {
            svc.resolve()?;
            let views = svc.plan().num_selected();
            emit(format_args!("resolved: {views} views selected"))
        }
        ["spill"] => {
            let path = catalog_path.ok_or("spill needs --catalog")?;
            Ok(svc.spill(path)?)
        }
        ["status"] => emit(svc.status_json().render()),
        ["whatif", toggles @ ..] if !toggles.is_empty() => {
            let ks: Vec<usize> = toggles
                .iter()
                .map(|t| t.parse().map_err(|_| format!("bad candidate index {t:?}")))
                .collect::<Result<_, String>>()?;
            let n = svc.catalog().candidates().len();
            if let Some(k) = ks.iter().find(|&&k| k >= n) {
                return Err(format!("candidate index {k} out of range (have {n})").into());
            }
            let probe = svc.what_if_toggle(&ks);
            emit(format_args!(
                "whatif {:?}: {} views, {:.4} h, ${:.2}",
                ks,
                probe.num_selected(),
                probe.time.value(),
                probe.cost().to_dollars_f64()
            ))
        }
        _ => Err(format!(
            "unknown script command {line:?} (ingest TS ID NAME | resolve | spill | status | whatif K..)"
        ).into()),
    }
}

fn cmd_sql(args: &Args) -> Result<(), Failure> {
    let statement = args.positional.ok_or("sql requires a statement argument")?;
    let rows = args.count("rows");
    let parsed = parse_query(statement)?;
    let table = match parsed.table.as_str() {
        "sales" => datagen::generate_sales(&SalesConfig::with_rows(rows)),
        "lineorder" => {
            mvcloud::engine::ssb::generate_lineorder(&mvcloud::engine::SsbConfig { rows, seed: 7 })
        }
        other => return Err(format!("unknown table {other:?}: use 'sales' or 'lineorder'").into()),
    };
    let (result, stats) = parsed.query.execute(&table)?;
    if args.choice("format") == "csv" {
        emit(csv::table_to_csv(&result))?;
    } else {
        emit(result.render(40))?;
    }
    let _ = writeln!(
        std::io::stderr(),
        "({} rows in, {} groups out, {} bytes scanned)",
        stats.rows_scanned,
        stats.groups,
        stats.bytes_scanned
    );
    Ok(())
}

fn cmd_pricing(_: &Args) -> Result<(), Failure> {
    let mut sheet = String::new();
    for p in presets::all() {
        let _ = writeln!(sheet, "{}", p.name);
        for i in p.compute.catalog.all() {
            let _ = writeln!(
                sheet,
                "  {:<10} {} per hour, {} ECU",
                i.name, i.hourly, i.compute_units
            );
        }
    }
    emit(sheet.trim_end())
}

fn cmd_excerpt(_: &Args) -> Result<(), Failure> {
    emit(datagen::paper_excerpt().render(4))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> impl Iterator<Item = (&'static str, Vec<&'static Flag>)> {
        let global = ("every subcommand also accepts", GLOBAL.iter().collect());
        std::iter::once(global).chain(COMMANDS.iter().map(|c| (c.name, c.flags().collect())))
    }

    #[test]
    fn help_mentions_every_row_and_default() {
        let help = usage();
        for (command, flags) in tables() {
            let section = help
                .split("\n\n")
                .find(|s| s.starts_with(command))
                .unwrap_or_else(|| panic!("no help section for {command}"));
            for f in flags {
                // The row's lines: its `--name METAVAR` line up to the next flag's.
                let spelled = format!("\n    --{} {}", f.name, f.metavar);
                let at = section
                    .find(spelled.trim_end())
                    .unwrap_or_else(|| panic!("{command}: no help line for --{}", f.name));
                let row = &section[at + 1..];
                let row = row.find("\n    --").map_or(row, |end| &row[..end]);
                assert!(row.contains(f.help.lines().next().unwrap()), "{row}");
                if let Some(default) = f.default {
                    assert!(row.ends_with(&format!("[default {default}]")), "{row}");
                }
                assert_eq!(
                    f.metavar.is_empty(),
                    matches!(f.kind, Kind::Switch),
                    "{command} --{}: a metavar exactly when it takes a value",
                    f.name
                );
            }
        }
    }

    #[test]
    fn no_command_has_two_rows_of_one_name() {
        for (command, flags) in tables() {
            for (i, f) in flags.iter().enumerate() {
                assert!(
                    flags[..i].iter().all(|g| g.name != f.name)
                        && (command.starts_with("every")
                            || GLOBAL.iter().all(|g| g.name != f.name)),
                    "{command}: --{} twice",
                    f.name
                );
            }
        }
    }

    #[test]
    fn every_default_passes_its_own_range() {
        for (command, flags) in tables() {
            for f in flags {
                if let Some(default) = f.default {
                    if let Err(e) = f.kind.check(default) {
                        panic!("{command} --{} default: {e}", f.name);
                    }
                }
            }
        }
    }
}
