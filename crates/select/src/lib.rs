//! The view-selection optimizer (the paper's Section 5).
//!
//! Three objective functions over the cost models of `mv-cost`:
//!
//! * **MV1** — minimize workload processing time under a budget;
//! * **MV2** — minimize monetary cost under a response-time limit;
//! * **MV3** — minimize the α-weighted combination of both.
//!
//! Six solvers, one [`SolverKind`] each (dispatched by [`solve`]): the
//! paper's dynamic-programming 0/1 knapsack ([`solve_knapsack`]),
//! exhaustive enumeration ([`SolverKind::Exhaustive`], ground truth),
//! greedy hill climbing ([`SolverKind::Greedy`]), branch-and-bound
//! ([`SolverKind::BranchAndBound`]), flip/swap local search
//! ([`solve_local_search`], never worse than greedy by construction)
//! and large-neighborhood search ([`solve_lns`], the destroy-and-repair
//! tier for candidate pools where the O(n²) swap neighborhood stalls —
//! never worse than local search while its polish pass is on).
//! All evaluate selections under the *true* interaction model — each
//! query uses its fastest selected view — so solver quality can be
//! compared honestly (ablation A1: `experiments ablations`).
//!
//! # Evaluation architecture
//!
//! Selections are [`SelectionSet`] bitsets (copy-on-write `u64` words):
//! cloning one — which every [`Evaluation`] does — is an atomic refcount
//! bump instead of a `Vec<bool>` allocation. Probes do not clone one at
//! all: they return a `Copy` [`Score`] (time + breakdown), the scenario
//! orderings accept either ([`Scored`]), and a move loop builds an
//! `Evaluation` only for the move it keeps.
//!
//! Every solver probes neighboring selections through the
//! [`IncrementalEvaluator`], which caches each query's fastest selected
//! view plus the runner-up over a **sparse struct-of-arrays answer
//! index**, built once per evaluator and never written: the per-view
//! answer lists live in one flat CSR table (parallel query-id/time
//! vectors with an offset per view), and its transpose — a second CSR
//! table by query, each query's answerers ordered fastest first — is
//! the reverse index, so the runner-up after a flip-off is the first
//! selected entry of the query's list: exact by construction, whatever
//! the pool's size or density. Against n candidates and m workload
//! queries, with `deg` the number of queries a view answers:
//!
//! * `flip`/`unflip` — O(deg) (a runner-up rescan only when the flipped
//!   view was among a query's two fastest);
//! * `score` / `snapshot` — O(1) once settled, reading the cached
//!   running totals of the time fold's block sums (B =
//!   `TIME_FOLD_BLOCK`) and of the selected views' charges; after
//!   accepted moves at most O(B·dirty + m/B + n/64 + selected) to
//!   refold what they left stale, summing
//!   in the model's own fold orders and billing through the model's one
//!   assembly (`CloudCostModel::breakdown_from_totals`), so results are
//!   **bit-identical** to
//!   [`SelectionProblem::evaluate`] (property-tested in
//!   `tests/evaluator_matches.rs`, including random sparse profiles and
//!   pool-edit/flip/placement interleavings);
//! * `probe(k)` — the one "what would toggling this view score?"
//!   primitive every tier calls: a read of the caches that writes
//!   nothing, O(deg + log selected + selected after `k` + m/B − b₁ +
//!   B·affected) for b₁ its first touched block — each fold restarts
//!   from its cached prefix, the touched blocks refold side by side —
//!   allocation-free and bit-identical to `flip → score → unflip` (see
//!   the *Probes* section of the evaluator module);
//! * a move loop reads each move from below first: O(deg) plus the
//!   charges after `k` and one bill price a floor of the probe's rank,
//!   and the exact probe runs only where that floor could beat the
//!   loop's best so far — same picks, far fewer exact scores (the
//!   *Bounded probes* section);
//! * `SelectionProblem::evaluate` itself is O(m + Σ deg) over the
//!   selected views' profiles (one scattered Formula 9 fold);
//! * a greedy pass is therefore O(n) probes instead of O(n) full
//!   evaluations, and the exhaustive sweep amortizes two flips and one
//!   score per subset by walking masks in ascending order.
//!
//! The sparse layout is what scales the evaluator 100–1000× past the
//! paper's shape: at n = 2 000 candidates and m = 50 000 queries a
//! single-flip probe still answers in microseconds (the repository
//! benchmark's `select.probe_ns` on its `advise_scale` workload, beside
//! `cost.full_evaluate_us` for the full re-evaluation), where the
//! historical dense per-view `Vec<Option<Hours>>` representation alone
//! would hold 10⁸ slots.
//!
//! The exhaustive and Pareto sweeps fan out across threads above a
//! fixed pool size (see [`solve_exhaustive_with_threads`]): contiguous
//! mask ranges per thread, each with its own evaluator, merged in
//! ascending chunk order so the outcome (including tie-breaks) is
//! identical to the serial sweep for any thread count (the
//! `evaluator/exhaustive_n20` group of `crates/bench/benches/micro.rs`
//! times the sweep at one and eight threads).
//!
//! # Large-neighborhood search
//!
//! The [`lns`] module is the solver tier for large pools:
//! destroy-and-repair rounds over the live evaluator, alternating
//! random and worst-charge destroy sets with a greedy repair restricted
//! to a benefit-ranked shortlist ([`lns::LnsConfig`]). Rounds are accepted
//! only on strict improvement and rolled back flip-for-flip otherwise,
//! so with the polish pass enabled [`solve_lns`] is never worse than
//! [`solve_local_search`] from the same start
//! (`tests/lns_never_worse.rs`).
//!
//! # Multi-epoch horizons
//!
//! The [`epoch`] module chains single-period problems into a billing
//! horizon with transition-aware charges: an [`epoch::EpochChain`]
//! re-prices each epoch's candidates by what the *previous* epoch
//! materialized (kept views pay maintenance only via
//! [`mv_cost::ViewCharge::carried`]; added views pay full
//! materialization; dropped views forfeit theirs), making the optimum
//! path-dependent. What crosses an epoch boundary is numbers, not
//! structures: one frequency per query and one [`mv_cost::Price`]
//! (size, build and refresh hours, pool) per candidate. The live
//! evaluator takes both — [`IncrementalEvaluator::retarget`] swaps the
//! costing model in O(m) while the answer caches survive, and
//! [`IncrementalEvaluator::update_charge`] splices a re-priced
//! candidate in O(1) — instead of rebuilding the problem per epoch (the
//! benchmark's `select.retarget_us` and `select.chain_solve_ms` on
//! `montecarlo` time the warm path; a bit-identical rebuild-per-epoch
//! reference lives in the module's tests).
//! [`epoch::EpochChain::solve_myopic`] is the transition-blind
//! re-solve-every-period comparator the regression tests beat.
//!
//! Every transition-aware solve is one driver,
//! [`epoch::EpochChain::solve_with`], varied along three axes — a
//! [`epoch::ChainSpec`] (per-node pool charges, placements) and the
//! chain's shape (a path or a prefix forest); see the [`epoch`] module
//! docs for the table. The pool charges are data: one
//! `[reserved, spot]` [`mv_cost::PoolCharge`] pair per chain node
//! ([`epoch::ChainSpec::pools`]), applied to every transition charge on
//! the same warm-started hot path (this is how `mvcloud` splices rate
//! differentials and spot-interruption risk premiums into the chain
//! without this crate knowing about markets; no table over the chain's
//! own epochs *is* [`epoch::EpochChain::solve`]). A pool charge maps a
//! `Price` to a `Price`, so no epoch edge can change what a view
//! answers. For tiny pools, a finite-horizon DP oracle in the module's
//! tests (`epoch/oracle_tests.rs`) — exact over selection states per
//! epoch — quantifies how far the sequential chain sits from the true
//! horizon optimum.
//!
//! # Mixed-fleet placement
//!
//! On a hedged fleet (part reserved, part spot capacity) each view
//! additionally carries a [`mv_cost::Placement`] deciding which pool
//! its build/refresh work bills against. With
//! [`epoch::ChainSpec::rebalance`] set the driver searches placements
//! **jointly** with the selection: the improvement pass
//! ([`local_search::improve_joint`]) gains a placement-flip move
//! alongside select-flip/swap. A flip re-prices the view through the
//! other slot of its node's pool pair, a `Price → Price` map, so every
//! placement flip is one O(1), allocation-free
//! [`IncrementalEvaluator::update_charge`] splice on the same live
//! evaluator instead of a rebuild of the charged problem per probe
//! (`core.fleet_ms` on `montecarlo` is the driver those splices run
//! under). Transition accounting extends naturally: a view kept *on the
//! same pool* is carried; a view moved across pools re-pays
//! materialization ([`epoch::EpochStep::moved`]).
//! The same DP oracle, given such a table (one pair per epoch, 3ⁿ
//! states per epoch, n ≤ 6), searches selection and placement jointly;
//! on the crunch fixture it exposes the chain's placement *lookahead*
//! gap — the DP pre-places a view on reserved capacity ahead of a
//! correlated interruption crunch the greedy chain only reacts to.
//!
//! # Scenario trees
//!
//! Monte-Carlo price sweeps share work across sampled paths: an
//! [`epoch::EpochChain::forest`] is a prefix forest of per-node costing models
//! (node = one epoch under one quote, edge = an epoch transition; built
//! from `mv-market`'s `ScenarioTree` of the sampled quote paths), and
//! [`epoch::EpochChain::solve_with`] solves each **node** exactly once — a
//! horizon's path is the one-leaf forest, run inline on the calling
//! thread — with one evaluator build per root, one warm
//! [`IncrementalEvaluator::retarget`] + charge splice per edge, and one
//! O(m) [`IncrementalEvaluator::fork`] per extra sibling at a split (the
//! per-selection caches are copied; the answer index is shared, and so
//! is the problem until the sibling's own retarget copies it) — instead
//! of per path × epoch. Because a node's search trajectory depends only
//! on its model, its effective charges and the selection it inherits
//! (all shared along a prefix), the per-leaf step sequences are
//! **bit-identical** to solving each path alone as an
//! [`epoch::EpochChain::new`] path (proptest-pinned at the driver layer in
//! `mvcloud`'s `fleet/paths_tests.rs`); ready nodes are work-stolen
//! across scoped threads.
//!
//! The same two warm primitives carry the resident advisor service
//! (`mvcloud::service`): a long-lived evaluator built **once** from the
//! persistent candidate catalog, [`IncrementalEvaluator::retarget`]ed
//! on every drift-triggered re-solve as live traffic shifts the
//! workload frequencies (counter-pinned rebuild-free), and
//! [`IncrementalEvaluator::fork`]ed per concurrent what-if probe for
//! snapshot isolation: a what-if that only flips copies ≈ 130 KB at
//! m = 4 096 whatever the pool holds, and one that edits copies what it
//! edits (the evaluator module's *Forks* section).
//! The tree's share of a Monte-Carlo sweep is the benchmark's
//! `market.tree_share` and `select.tree_node_busy_ms` on `montecarlo`;
//! the service's fork and warm re-solve are `select.fork_us` and
//! `select.resident_solve_ms` on `serve_stream`.
//!
//! # Telemetry
//!
//! Every hot path above reports into the [`mv_obs`] registry —
//! off-by-default, one relaxed atomic load per site while disabled
//! (the `obs/disabled` group of `crates/bench/benches/micro.rs` times
//! exactly that load; `obs.trace_overhead_share` is what switching it
//! on costs a whole benchmark workload). The instrumentation points:
//!
//! | site | counters | spans / histograms / events |
//! |---|---|---|
//! | [`IncrementalEvaluator`] build/retarget/fork | `evaluator/build`, `evaluator/retarget`, `evaluator/fork` | — |
//! | [`IncrementalEvaluator`] flip/unflip/score (a `probe` counts as one snapshot and no flips) | `evaluator/flip`, `evaluator/unflip`, `evaluator/snapshot` | `evaluator/snapshot_dirty_blocks` histogram (blocks refolded per score) |
//! | [`IncrementalEvaluator::update_charge`] | `evaluator/update_charge` | — |
//! | [`local_search`] probe loops | moves offered: `search/probes`; accepted moves: `search/flip_moves`, `search/swap_moves`, `search/place_moves` | `placement_move` event per accepted pool move |
//! | bounded move loops (those, and the knapsack repair's hill-climb) | moves their bound or the dominated rule ruled out, with no snapshot: `search/bounded` | — |
//! | [`lns`] refine rounds | `lns/rounds`, `lns/accepted`, `lns/rejected` | `lns/destroy_size` histogram, `lns_round` event |
//! | [`epoch::EpochChain`] step (every solve, the path-only references included) | `chain/epoch_steps` | `epoch_transition` event (added/kept/dropped/moved) |
//! | [`epoch::EpochChain::solve_with`] node solves (forest nodes and horizon epochs alike) | `tree/node_solves`, `tree/root_solves` | `solve_tree/node` span (count ≡ nodes solved), `tree/fork_width` histogram, `tree_node_solve` event |
//!
//! Telemetry is *observational*: with the registry enabled, solver
//! output stays bit-identical (`tests/obs_identity.rs`), and counters
//! only move inside [`mv_obs::CounterGuard`]-style enabled windows.
//!
//! ```
//! use mv_select::{fixtures, Scenario};
//! use mv_units::Money;
//!
//! let problem = fixtures::paper_like_problem();
//! let budget = problem.baseline().cost() + Money::from_cents(50);
//! let outcome = mv_select::solve_knapsack(&problem, Scenario::budget(budget));
//! assert!(outcome.feasible());
//! assert!(outcome.evaluation.time <= outcome.baseline.time);
//! ```

mod bnb;
pub mod epoch;
mod evaluator;
mod exhaustive;
pub mod fixtures;
mod greedy;
mod knapsack;
pub mod lns;
pub mod local_search;
pub mod pareto;
mod problem;
mod scenario;
mod solution;
mod sweep;

pub(crate) use bnb::solve_bnb;
pub use evaluator::IncrementalEvaluator;
pub(crate) use exhaustive::{solve_exhaustive, PARALLEL_THRESHOLD};
pub use exhaustive::{solve_exhaustive_with_threads, MAX_CANDIDATES};
pub(crate) use greedy::solve_greedy;
pub use knapsack::solve_knapsack;
pub use lns::solve_lns;
pub use local_search::solve_local_search;
pub use mv_cost::SelectionSet;
pub use problem::{Evaluation, Score, Scored, SelectionProblem};
pub(crate) use scenario::Rank;
pub use scenario::Scenario;
pub use solution::{Outcome, SolverKind};

/// Dispatches to the solver named by `kind`.
pub fn solve(problem: &SelectionProblem, scenario: Scenario, kind: SolverKind) -> Outcome {
    match kind {
        SolverKind::PaperKnapsack => solve_knapsack(problem, scenario),
        SolverKind::Exhaustive => solve_exhaustive(problem, scenario),
        SolverKind::Greedy => solve_greedy(problem, scenario),
        SolverKind::BranchAndBound => solve_bnb(problem, scenario),
        SolverKind::LocalSearch => solve_local_search(problem, scenario),
        SolverKind::Lns => solve_lns(problem, scenario),
    }
}
