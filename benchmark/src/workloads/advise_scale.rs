//! `advise_scale`: one bounded LNS solve per op on a synthetic sparse
//! problem two orders of magnitude past the paper's shape.

use std::path::Path;

use mvcloud::lattice::ScaleShape;
use mvcloud::report::summarize;
use mvcloud::select::lns::{solve_lns_with, LnsConfig};
use mvcloud::{scale_problem, Evaluation, Outcome, SelectionProblem, SolverKind};

use super::{digest_evaluation, probe_evaluator, scenario_mv3};
use crate::cli::{args, Cli, SLOW_SPAWNS};
use crate::gen::lane_seed;
use crate::harness::{Layer, OpCheck, Workload};
use crate::trace::{spanned, Decompose, Tracer};

/// Final sizes (frozen; see README): n = 1 000 / m = 25 000 / mean
/// coverage 12, LNS rounds = 4. 16 problem seeds, rotated: one problem's
/// solve time differs from another's by a few percent, and a run must
/// average over enough of them that the seed does not decide the result.
const CANDIDATES: usize = 1_000;
const QUERIES: usize = 25_000;
const MEAN_COVERAGE: usize = 12;
const LNS_ROUNDS: usize = 4;
const PROBLEMS: usize = 16;
/// A probe costs two ops (it runs the slow reference), so one op in
/// four is probed.
const PROBE_EVERY: usize = 4;

struct Instance {
    shape: ScaleShape,
    problem: SelectionProblem,
    names: Vec<String>,
    /// The evaluation a full `evaluate` already confirmed for this
    /// problem. The solve is deterministic, so later ops on the same
    /// problem are verified by bit-equality with it instead of paying
    /// the 0.15 s slow reference again.
    verified: Option<Evaluation>,
}

pub struct AdviseScale {
    instances: Vec<Instance>,
    config: LnsConfig,
    last: Option<(Outcome, String)>,
}

fn shape(seed: u64) -> ScaleShape {
    ScaleShape {
        queries: QUERIES,
        candidates: CANDIDATES,
        mean_coverage: MEAN_COVERAGE,
        seed,
    }
}

impl Workload for AdviseScale {
    const NAME: &'static str = "advise_scale";
    const WHY: &'static str = "LNS (4 rounds, MV3) on n=1000/m=25000 sparse problems: evaluator build, flip, dirty-delta snapshot and the move loop over tables larger than L2; engine, lattice and market idle (their bypass)";
    const WARMUP: usize = 1;
    const SETTLE: usize = 2;
    const CYCLE: usize = PROBLEMS;
    const PREFIX: usize = 128;
    const PAIRED: bool = true;
    const DECOMPOSE: &'static [Decompose] = &[];

    fn setup(seed: u64, _scratch: &Path) -> Result<Self, String> {
        let instances = (0..PROBLEMS as u64)
            .map(|j| {
                let shape = shape(lane_seed(seed, j));
                let problem = scale_problem(&shape);
                let names = problem
                    .candidates()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect();
                Instance {
                    shape,
                    problem,
                    names,
                    verified: None,
                }
            })
            .collect();
        Ok(AdviseScale {
            instances,
            config: LnsConfig {
                rounds: LNS_ROUNDS,
                ..LnsConfig::for_problem(CANDIDATES)
            },
            last: None,
        })
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer) -> Result<(), String> {
        let inst = &self.instances[i % PROBLEMS];
        let outcome = spanned(tracer, "select.solve", || {
            solve_lns_with(&inst.problem, scenario_mv3(), &self.config)
        });
        let summary = spanned(tracer, "core.summarize", || {
            summarize(&outcome, &inst.names)
        });
        self.last = Some((outcome, summary));
        Ok(())
    }

    fn check(&mut self, i: usize, out: &mut OpCheck) {
        let inst = &mut self.instances[i % PROBLEMS];
        let Some((outcome, summary)) = &self.last else {
            return out.fail("no outcome");
        };
        if inst.verified.as_ref() != Some(&outcome.evaluation) {
            let full = inst.problem.evaluate(&outcome.evaluation.selection);
            out.require(full == outcome.evaluation, || {
                "LNS evaluation differs from full evaluate".to_string()
            });
            out.require(inst.verified.is_none(), || {
                "LNS solve of one problem is not deterministic".to_string()
            });
            inst.verified = Some(full);
        }
        out.require(outcome.solver == SolverKind::Lns, || {
            "wrong solver".to_string()
        });
        out.digest.str(summary);
        digest_evaluation(&mut out.digest, &outcome.evaluation);
        out.savings.push(outcome.tradeoff_improvement());
    }

    fn probe(&mut self, i: usize, tracer: &mut Tracer, layer: &mut Layer) {
        if !i.is_multiple_of(PROBE_EVERY) {
            return;
        }
        let inst = &self.instances[i % PROBLEMS];
        let Some((outcome, _)) = &self.last else {
            return;
        };
        spanned(tracer, "lattice.scale_coverage", || {
            inst.shape.sparse_coverage()
        });
        probe_evaluator(&inst.problem, &outcome.evaluation.selection, tracer, layer);
    }

    fn cli_parity(&mut self, cli: &Cli, layer: &mut Layer) -> Result<(), String> {
        // The CLI's scale mode runs the default LNS tier (12 rounds).
        let inst = &self.instances[0];
        let command = args(&format!(
            "advise --candidates {CANDIDATES} --queries {QUERIES} --seed {} --solver lns --alpha 0.5",
            inst.shape.seed
        ));
        let (stdout, wall_ms) = cli.median_wall(&command, SLOW_SPAWNS, || Ok(()))?;
        layer.set("cli.advise_wall_ms", wall_ms);
        let outcome = mvcloud::select::solve(&inst.problem, scenario_mv3(), SolverKind::Lns);
        let same = stdout.trim_end() == summarize(&outcome, &inst.names);
        layer.add("cli.parity_failures", f64::from(u8::from(!same)));
        Ok(())
    }
}
