//! Multi-epoch selection: a billing horizon as a chain of linked
//! per-epoch problems with transition-aware charges.
//!
//! The paper prices one billing period with a fixed workload. Real
//! deployments re-bill every period while the workload drifts, and the
//! periods are *not* independent: a view kept across an epoch boundary
//! pays maintenance and storage only (its materialization is sunk), a
//! newly added view pays full materialization, and a dropped view
//! forfeits what was spent building it. [`EpochChain`] threads that
//! state through a sequence of [`CloudCostModel`]s over one shared
//! candidate pool:
//!
//! * **Transition-aware charges** — at each epoch boundary the
//!   candidates selected in the previous epoch are re-priced to their
//!   [`ViewCharge::carried`] [`Price`] (materialization zeroed),
//!   everything else reverts to full price. The per-epoch optimum
//!   therefore depends on the path taken, and re-solving each epoch
//!   from scratch against full prices ([`EpochChain::solve_myopic`]) is
//!   suboptimal — it churns views and re-pays materializations the
//!   chain knows are sunk (pinned by `chain_beats_myopic_churn` below
//!   and the `tests/horizon.rs` regression).
//! * **Warm starts, not rebuilds** — one [`IncrementalEvaluator`] lives
//!   for a whole root-to-leaf lineage. An epoch boundary costs one
//!   [`IncrementalEvaluator::retarget`] (O(m) context switch: the
//!   per-query answer caches survive because they hold only candidate
//!   answer times) plus an [`IncrementalEvaluator::update_charge`]
//!   splice per candidate whose effective [`Price`] changed — four
//!   numbers each, compared against the live problem's — instead of an
//!   O(n·m) problem rebuild plus O(n) repositioning flips per epoch.
//!   The rebuild-per-epoch **reference** lives with its tests
//!   (`epoch/oracle_tests.rs`): bit-identical steps, only slower (the
//!   warm path is the repository benchmark's `select.retarget_us` and
//!   `select.chain_solve_ms`).
//!
//! # One driver, three axes
//!
//! Every transition-aware solve is [`EpochChain::solve_with`]: **one
//! node step** — inherit the parent's evaluator or build one at a root,
//! switch it to the node's model and splice the charges that moved,
//! greedy-fill from empty at a root, run [`crate::solve_local_search`]'s
//! best-improvement pass (bounded by
//! [`local_search::default_move_budget`]) from the inherited selection
//! (with zero drift it merely confirms the standing selection is still
//! a local optimum), assemble the [`EpochStep`] — scheduled
//! parent-before-child. What varies is three independent axes:
//!
//! | axis | set by | `solve` | `mvcloud`'s Monte-Carlo driver |
//! |---|---|---|---|
//! | reprice | [`ChainSpec::pools`] | identity | per-node `[PoolCharge; 2]`: rate differential + interruption premium |
//! | placement | [`ChainSpec::initial`], [`ChainSpec::rebalance`] | each charge's own pool, pinned | the fleet plan's start, pinned or free |
//! | shape | the chain's constructor | [`EpochChain::new`]: a path | [`EpochChain::forest`]: a prefix forest of sampled price paths |
//!
//! A single pool is the pinned fleet on its charges' own placements and
//! a path is the one-leaf forest, structurally: one scheduler runs both,
//! a path (width 1) inline on the calling thread. Each node is solved
//! exactly once — one evaluator build per root, one warm transition per
//! edge, one [`IncrementalEvaluator::fork`] per extra sibling — and
//! since a node's search depends only on its model, its effective
//! charges and the state it inherits (all shared along a prefix), every
//! leaf's steps are **bit-identical** to solving its lineage alone
//! (tested below and in `mvcloud`'s `fleet/paths_tests.rs`). The exact
//! small-pool oracle — one exhaustive trajectory DP over selection, or
//! selection and placement, states per epoch — is in
//! `epoch/oracle_tests.rs` with the tests it bounds the chain in.
//!
//! **Scenario caveat (MV1):** under a budget constraint, carried
//! materialization discounts free up budget headroom, so later epochs
//! can legitimately afford views the single-period solve could not —
//! the chain's per-epoch selection is then *not* expected to equal the
//! single-period selection even with zero drift. MV2 and MV3 have no
//! such headroom effect: hour rounding makes the marginal cost of a
//! new view at least what it was in the single-period problem, so a
//! zero-drift horizon reproduces the single-period solve bit-for-bit
//! (property-tested in `epoch/oracle_tests.rs`).

use mv_cost::{
    CloudCostModel, CostBreakdown, Placement, PoolCharge, Price, SelectionSet, ViewCharge,
};
use mv_units::{Hours, Money};

use crate::{
    local_search, Evaluation, IncrementalEvaluator, Outcome, Scenario, SelectionProblem, SolverKind,
};

/// One epoch of a solved chain: the transition-aware outcome plus the
/// carry-over accounting that produced it.
#[derive(Debug, Clone)]
pub struct EpochStep {
    /// The chosen selection under the epoch's *charged* problem —
    /// carried views contribute no materialization. Its baseline is the
    /// epoch's no-view evaluation (identical under charged and full
    /// prices: the empty selection materializes nothing).
    pub outcome: Outcome,
    /// The same selection evaluated at full price (as if this epoch
    /// stood alone) — the single-period reference the zero-drift
    /// property test compares bit-for-bit.
    pub full_price: Evaluation,
    /// Candidates newly materialized this epoch (they pay full
    /// materialization in `outcome`).
    pub added: Vec<usize>,
    /// Candidates carried over from the previous epoch's selection
    /// (maintenance + storage only; same pool as before).
    pub kept: Vec<usize>,
    /// Candidates selected in the previous epoch but not in this one
    /// (their build cost is forfeited).
    pub dropped: Vec<usize>,
    /// Candidates selected in both epochs but *moved* to the other
    /// fleet pool at this boundary — a move rebuilds the view on the
    /// new pool's capacity, so they re-pay materialization like
    /// `added`. Always empty outside the fleet solvers.
    pub moved: Vec<usize>,
    /// The standing per-candidate pool assignment at the end of this
    /// epoch (single-fleet solvers record each pool charge's own
    /// placement). Only the selected entries carry billing meaning;
    /// unselected entries are sticky search state.
    pub placements: Vec<Placement>,
}

impl EpochStep {
    /// The epoch's charged selection.
    pub fn selection(&self) -> &SelectionSet {
        &self.outcome.evaluation.selection
    }
}

/// Total charged cost of a solved horizon (the number a bill payer
/// compares across policies).
pub fn horizon_cost(steps: &[EpochStep]) -> Money {
    steps.iter().map(|s| s.outcome.evaluation.cost()).sum()
}

/// Total frequency-weighted processing time across a solved horizon.
pub fn horizon_time(steps: &[EpochStep]) -> Hours {
    steps.iter().map(|s| s.outcome.evaluation.time).sum()
}

/// The axes of a solve other than the chain's shape (module docs:
/// table). `ChainSpec::default()` is the single-pool, full-price solve:
/// identity charges, every candidate pinned on its charge's own
/// placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainSpec<'a> {
    /// One `[reserved, spot]` [`PoolCharge`] pair per chain node (on a
    /// path, node `e` is epoch `e`; [`Placement::slot`] orders a pair).
    /// At node `i` a candidate on pool `p` presents
    /// `pools[i][p.slot()].adjust(transition)`, where `transition` is its
    /// carry-aware price: the pool entry's full one, or its
    /// [`ViewCharge::carried`] form when the candidate survived the
    /// previous epoch *on the same pool* (a placement move rebuilds the
    /// view on the new pool's capacity, so it re-pays materialization).
    /// Prices in, prices out: no pool charge can reach a view's answer
    /// profile, so every splice is O(1). `None` is the identity at every
    /// node.
    pub pools: Option<&'a [[PoolCharge; 2]]>,
    /// Every candidate's starting pool; `None` is each charge's own.
    pub initial: Option<Placement>,
    /// Whether the improvement pass may move views between pools
    /// ([`local_search::improve_joint`]'s placement-flip moves, each one
    /// O(1) price splice); `false` pins every candidate where it starts.
    pub rebalance: bool,
}

/// A billing horizon: per-epoch costing models over one shared,
/// full-price candidate pool, shaped as a prefix forest.
///
/// Each node is one epoch under one costing model; its parent is the
/// previous epoch (`None` at a root), so its epoch is its depth. Each
/// leaf ends one lineage. [`EpochChain::new`] builds a path (node `e` is
/// epoch `e`, one leaf); [`EpochChain::forest`] builds a prefix forest of
/// sampled price paths — `mv-market`'s `ScenarioTree` compiles into one
/// (the driver attaches the quote-repriced models); this crate stays
/// market-agnostic. Nodes are stored parent-before-child, so index order
/// is a valid (serial) schedule and any parent-completes-first schedule
/// yields the same results.
///
/// Every node model must cover the same query universe (same workload
/// length; frequencies, base times, pricing and storage horizon are
/// free to differ per node) so the pool's answer profiles stay aligned
/// throughout — that is also what makes the warm-started evaluator's
/// caches valid across [`IncrementalEvaluator::retarget`].
#[derive(Debug, Clone)]
pub struct EpochChain {
    models: Vec<CloudCostModel>,
    parent: Vec<Option<usize>>,
    depths: Vec<usize>,
    leaves: Vec<usize>,
    pool: Vec<ViewCharge>,
}

impl EpochChain {
    /// Builds a path: epoch `e` follows epoch `e - 1`, one leaf at the
    /// last epoch.
    ///
    /// # Panics
    /// As [`EpochChain::forest`].
    pub fn new(epochs: Vec<CloudCostModel>, pool: Vec<ViewCharge>) -> Self {
        let last = epochs.len().saturating_sub(1);
        let nodes = epochs
            .into_iter()
            .enumerate()
            .map(|(e, model)| (e.checked_sub(1), model))
            .collect();
        Self::forest(nodes, vec![last], pool)
    }

    /// Builds a prefix forest from a `(parent, model)` pair per node plus
    /// the leaf each requested lineage ends at (duplicates allowed:
    /// identical sampled paths share a leaf).
    ///
    /// # Panics
    /// Panics unless there is a node and a leaf, nodes are stored
    /// parent-before-child, every node model and pool entry covers the
    /// first model's workload, and every leaf sits at one final epoch.
    pub fn forest(
        nodes: Vec<(Option<usize>, CloudCostModel)>,
        leaves: Vec<usize>,
        pool: Vec<ViewCharge>,
    ) -> Self {
        assert!(!nodes.is_empty(), "a horizon needs at least one epoch");
        assert!(!leaves.is_empty(), "a forest needs at least one leaf");
        let m = nodes[0].1.context().workload.len();
        let mut depths = Vec::with_capacity(nodes.len());
        for (idx, (parent, model)) in nodes.iter().enumerate() {
            assert_eq!(
                model.context().workload.len(),
                m,
                "node {idx} has a different workload length"
            );
            depths.push(match *parent {
                None => 0,
                Some(p) => {
                    assert!(p < idx, "node {idx} must be stored after its parent {p}");
                    depths[p] + 1
                }
            });
        }
        for c in &pool {
            assert_eq!(
                c.profile.workload_len(),
                m,
                "candidate {} has {} query times for a {}-query workload",
                c.name,
                c.profile.workload_len(),
                m
            );
        }
        let depth = |l: usize| {
            assert!(l < depths.len(), "leaf {l} out of {} nodes", depths.len());
            depths[l]
        };
        let last = depth(leaves[0]);
        for &l in &leaves {
            assert_eq!(depth(l), last, "every leaf must sit at one final epoch");
        }
        let (parent, models) = nodes.into_iter().unzip();
        EpochChain {
            models,
            parent,
            depths,
            leaves,
            pool,
        }
    }

    /// The per-node costing models, parent-before-child (on a path, node
    /// `e` is epoch `e`).
    pub fn epochs(&self) -> &[CloudCostModel] {
        &self.models
    }

    /// The shared full-price candidate pool.
    pub fn pool(&self) -> &[ViewCharge] {
        &self.pool
    }

    /// The epoch models of a path — what the path-only solves walk.
    ///
    /// # Panics
    /// Panics when the chain was built as a forest that is not a path.
    fn path(&self) -> &[CloudCostModel] {
        assert!(
            self.leaves == [self.models.len() - 1]
                && self.depths.iter().enumerate().all(|(i, &d)| d == i),
            "this solve walks a path; a forest is solved by solve_with"
        );
        &self.models
    }

    /// The transition-aware solve — the one driver every other entry
    /// point calls (see the module docs). Returns one epoch-ordered
    /// `Vec<EpochStep>` per leaf, in leaf order: exactly one on a path.
    ///
    /// # Panics
    /// Panics when `spec.pools` does not hold one pair per node.
    pub fn solve_with(&self, scenario: Scenario, spec: &ChainSpec<'_>) -> Vec<Vec<EpochStep>> {
        self.check_pools(spec.pools);
        // One worker per unit of forest width (the widest epoch's node
        // count), capped by the machine: a path runs inline.
        let mut per_epoch = vec![0; self.models.len()];
        for &d in &self.depths {
            per_epoch[d] += 1;
        }
        let width = per_epoch.into_iter().max().unwrap_or(1);
        let machine = std::thread::available_parallelism().map_or(1, |t| t.get());
        self.run_forest(scenario, spec, machine.min(width))
    }

    /// The single-pool solve of a path at full price:
    /// `ChainSpec::default()`.
    pub fn solve(&self, scenario: Scenario) -> Vec<EpochStep> {
        self.path();
        let mut solved = self.solve_with(scenario, &ChainSpec::default());
        solved.pop().expect("a path has one leaf")
    }

    /// Asserts that a pool table, if any, holds one pair per node.
    fn check_pools(&self, pools: Option<&[[PoolCharge; 2]]>) {
        assert!(
            pools.is_none_or(|pools| pools.len() == self.models.len()),
            "pool charges must cover every chain node"
        );
    }

    /// Every node solved once by [`run_tree`] on up to `threads` workers,
    /// then each leaf's lineage cloned out.
    fn run_forest(
        &self,
        scenario: Scenario,
        spec: &ChainSpec<'_>,
        threads: usize,
    ) -> Vec<Vec<EpochStep>> {
        let node_steps = run_tree(&self.parent, threads, |idx, inherited| {
            mv_obs::span!("solve_tree/node");
            mv_obs::inc(mv_obs::Counter::TreeNodeSolves);
            if inherited.is_none() {
                mv_obs::inc(mv_obs::Counter::TreeRootSolves);
            }
            mv_obs::event(
                "tree_node_solve",
                &[("node", idx as f64), ("epoch", self.depths[idx] as f64)],
            );
            self.node_step(scenario, spec, idx, inherited)
        });
        self.leaves
            .iter()
            .map(|&leaf| {
                let mut lineage: Vec<EpochStep> =
                    std::iter::successors(Some(leaf), |&i| self.parent[i])
                        .map(|i| node_steps[i].clone())
                        .collect();
                lineage.reverse();
                lineage
            })
            .collect()
    }

    /// The node step: one epoch under the node's model, from the state
    /// its parent left (`None` at a root). See the module docs.
    fn node_step(
        &self,
        scenario: Scenario,
        spec: &ChainSpec<'_>,
        node: usize,
        inherited: Option<NodeState>,
    ) -> (EpochStep, NodeState) {
        let model = &self.models[node];
        let n = self.pool.len();
        let max_moves = local_search::default_move_budget(n);
        let effective = |k, p, carried| self.effective(spec.pools, node, k, p, carried);
        let root = inherited.is_none();
        let mut state = match inherited {
            None => {
                let placements = self.initial_placements(spec.initial);
                let charges = self.charged(|k| effective(k, placements[k], false));
                let problem = SelectionProblem::new(model.clone(), charges);
                NodeState {
                    ev: IncrementalEvaluator::from_problem(problem),
                    prev: SelectionSet::empty(n),
                    placements,
                }
            }
            Some(mut state) => {
                // The whole epoch transition: an O(m) context switch
                // plus one splice per candidate whose effective price
                // changed. No rebuild, no repositioning.
                state.ev.retarget(model.clone());
                for k in 0..n {
                    let want = effective(k, state.placements[k], state.prev.contains(k));
                    if want != state.ev.problem().candidates()[k].price() {
                        state.ev.update_charge(k, want);
                    }
                }
                state
            }
        };
        let baseline = state.ev.problem().baseline();
        if root {
            local_search::greedy_fill(&mut state.ev, scenario, &baseline);
        }
        let mut entry_placements = None;
        let evaluation = if spec.rebalance {
            // Carried-ness during the search keys off the node's *entry*
            // state: flipping a carried view's placement re-prices it
            // full (rebuild on the new pool), flipping it back restores
            // the carried price bit-for-bit.
            let entry = entry_placements.insert(state.placements.clone());
            let prev = &state.prev;
            let charge_for = |k, p| effective(k, p, prev.contains(k) && p == entry[k]);
            local_search::improve_joint(
                &mut state.ev,
                scenario,
                &baseline,
                max_moves,
                &mut state.placements,
                &charge_for,
            )
        } else {
            local_search::improve(&mut state.ev, scenario, &baseline, max_moves)
        };
        let step = self.step(
            model,
            self.depths[node],
            Outcome::new(evaluation, baseline, scenario, SolverKind::LocalSearch),
            &state.prev,
            entry_placements.as_deref().unwrap_or(&state.placements),
            &state.placements,
        );
        state.prev = step.selection().clone();
        (step, state)
    }

    /// Candidate `k`'s effective price on pool `p` at `node` (see
    /// [`ChainSpec::pools`]).
    fn effective(
        &self,
        pools: Option<&[[PoolCharge; 2]]>,
        node: usize,
        k: usize,
        p: Placement,
        carried: bool,
    ) -> Price {
        let transition = if carried {
            self.pool[k].carried()
        } else {
            self.pool[k].price()
        };
        let price = match pools {
            Some(pools) => pools[node][p.slot()].adjust(transition),
            None => transition,
        };
        Price {
            placement: p,
            ..price
        }
    }

    /// The pool under `price_of(k)`: names and answer profiles cloned,
    /// prices replaced — the charged problem a root (and each epoch of
    /// the rebuild-per-epoch reference) is built over.
    fn charged(&self, price_of: impl Fn(usize) -> Price) -> Vec<ViewCharge> {
        let mut charges = self.pool.clone();
        for (k, charge) in charges.iter_mut().enumerate() {
            charge.set_price(price_of(k));
        }
        charges
    }

    /// A solve's starting placements: the caller's pool for every
    /// candidate, or each pool charge's own.
    fn initial_placements(&self, initial: Option<Placement>) -> Vec<Placement> {
        match initial {
            Some(p) => vec![p; self.pool.len()],
            None => self.pool.iter().map(|c| c.placement).collect(),
        }
    }

    /// The transition-*blind* comparator: each epoch is re-solved from
    /// scratch against full prices (as if it stood alone), then the
    /// chosen selection is charged under the true transition accounting
    /// (views kept from the previous myopic selection do not re-pay
    /// materialization). This is exactly the "greedily re-solve each
    /// period" policy a single-period advisor run every month amounts
    /// to; on drifting workloads it churns specialists and re-pays
    /// builds the chain keeps sunk.
    pub fn solve_myopic(&self, scenario: Scenario) -> Vec<EpochStep> {
        let epochs = self.path();
        let placements = self.initial_placements(None);
        let mut prev = SelectionSet::empty(self.pool.len());
        let mut steps = Vec::with_capacity(epochs.len());
        for (e, model) in epochs.iter().enumerate() {
            let full = SelectionProblem::new(model.clone(), self.pool.clone());
            let solo = local_search::solve_local_search(&full, scenario);
            let mut charged = self.pool.clone();
            for k in prev.ones() {
                charged[k].set_price(self.pool[k].carried());
            }
            let charged_problem = SelectionProblem::new(model.clone(), charged);
            let evaluation = charged_problem.evaluate(&solo.evaluation.selection);
            let baseline = charged_problem.baseline();
            let outcome = Outcome::new(evaluation, baseline, scenario, SolverKind::LocalSearch);
            let step = self.step(model, e, outcome, &prev, &placements, &placements);
            prev = step.selection().clone();
            steps.push(step);
        }
        steps
    }

    /// Assembles one epoch's step: transition accounting against the
    /// previous selection and placements — a candidate selected in both
    /// epochs whose placement changed is `moved` (it re-paid
    /// materialization on the new pool), not `kept` — plus the
    /// full-price reference evaluation. `model` is the epoch's
    /// *effective* costing model (a forest node's is quote-repriced).
    fn step(
        &self,
        model: &CloudCostModel,
        epoch: usize,
        outcome: Outcome,
        prev: &SelectionSet,
        prev_placements: &[Placement],
        placements: &[Placement],
    ) -> EpochStep {
        let selection = &outcome.evaluation.selection;
        let mut added = Vec::new();
        let mut kept = Vec::new();
        let mut moved = Vec::new();
        for k in selection.ones() {
            if !prev.contains(k) {
                added.push(k);
            } else if placements[k] != prev_placements[k] {
                moved.push(k);
            } else {
                kept.push(k);
            }
        }
        let dropped: Vec<usize> = prev.ones().filter(|&k| !selection.contains(k)).collect();
        debug_assert!(epoch > 0 || (kept.is_empty() && dropped.is_empty()));
        mv_obs::inc(mv_obs::Counter::ChainEpochSteps);
        if mv_obs::enabled() {
            mv_obs::event(
                "epoch_transition",
                &[
                    ("epoch", epoch as f64),
                    ("added", added.len() as f64),
                    ("kept", kept.len() as f64),
                    ("dropped", dropped.len() as f64),
                    ("moved", moved.len() as f64),
                ],
            );
        }
        // The full-price reference differs from the charged evaluation
        // only in the materialization component (carrying a view changes
        // nothing else), so it is derived — in the model's own fold
        // order, hence bit-identical to evaluating a full-price problem
        // from scratch (property-tested in `oracle_tests`)
        // — instead of rebuilding and re-evaluating a problem per epoch.
        let full_materialization: Hours =
            selection.ones().map(|k| self.pool[k].materialization).sum();
        let full_price = Evaluation {
            time: outcome.evaluation.time,
            breakdown: CostBreakdown {
                compute_materialization: model.compute_cost(full_materialization),
                ..outcome.evaluation.breakdown
            },
            selection: selection.clone(),
        };
        EpochStep {
            outcome,
            full_price,
            added,
            kept,
            dropped,
            moved,
            placements: placements.to_vec(),
        }
    }
}

/// What one node hands its children: the live evaluator on the node's
/// selection (its problem holds the effective prices spliced so far),
/// that selection, and the standing placements.
struct NodeState {
    ev: IncrementalEvaluator<'static>,
    prev: SelectionSet,
    placements: Vec<Placement>,
}

impl NodeState {
    /// An independent copy for a sibling subtree (one evaluator fork).
    fn fork(&self) -> NodeState {
        NodeState {
            ev: self.ev.fork(),
            prev: self.prev.clone(),
            placements: self.placements.clone(),
        }
    }
}

/// Solves every node of the forest `parents` describes (each node's
/// parent, stored parent-before-child) exactly once, parents before
/// children, handing each node's post-solve state to its children: the
/// last child takes it by move, earlier siblings get a
/// [`NodeState::fork`]. Returns one [`EpochStep`] per node, in node
/// order.
///
/// Workers drain a shared ready queue under a mutex + condvar — a node
/// enters the queue the moment its parent finishes. With `threads <= 1`
/// the calling thread is the one worker (a path pays no scope setup).
/// Results are schedule-independent: a node's inputs come only from its
/// parent. A node solve that panics aborts the whole run: the board is flagged on unwind, waiting
/// workers return on the flag, and `std::thread::scope` re-raises the
/// panic — the subtree that will never be queued must not leave its
/// siblings waiting for it.
fn run_tree<Solve>(parents: &[Option<usize>], threads: usize, solve: Solve) -> Vec<EpochStep>
where
    Solve: Fn(usize, Option<NodeState>) -> (EpochStep, NodeState) + Sync,
{
    use std::collections::VecDeque;
    use std::sync::{Condvar, Mutex};
    let len = parents.len();
    let mut roots = VecDeque::new();
    let mut children = vec![Vec::new(); len];
    for (i, parent) in parents.iter().enumerate() {
        match *parent {
            None => roots.push_back((i, None)),
            Some(p) => children[p].push(i),
        }
    }
    struct Board {
        queue: VecDeque<(usize, Option<NodeState>)>,
        steps: Vec<Option<EpochStep>>,
        done: usize,
        aborted: bool,
    }
    /// Flags the board and wakes every waiter if dropped by a panic.
    struct AbortOnUnwind<'a>(&'a Mutex<Board>, &'a Condvar);
    impl Drop for AbortOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                // Every board update leaves it consistent, so a poisoned
                // lock is still safe to flag.
                self.0.lock().unwrap_or_else(|e| e.into_inner()).aborted = true;
                self.1.notify_all();
            }
        }
    }
    let board = Mutex::new(Board {
        queue: roots,
        steps: (0..len).map(|_| None).collect(),
        done: 0,
        aborted: false,
    });
    let ready = Condvar::new();
    let worker = || loop {
        let (i, inherited) = {
            let mut b = board.lock().expect("tree board poisoned");
            loop {
                if b.aborted || b.done == len {
                    return;
                }
                if let Some(job) = b.queue.pop_front() {
                    break job;
                }
                b = ready.wait(b).expect("tree board poisoned");
            }
        };
        let _abort_on_unwind = AbortOnUnwind(&board, &ready);
        let (step, state) = solve(i, inherited);
        // Fork outside the lock: sibling hand-offs are the expensive
        // part of a split (a width-w one pays w-1 forks).
        let mut ship = Vec::with_capacity(children[i].len());
        if let Some((&last, rest)) = children[i].split_last() {
            if !rest.is_empty() {
                mv_obs::record(mv_obs::Hist::TreeForkWidth, rest.len() as u64 + 1);
            }
            ship.extend(rest.iter().map(|&c| (c, Some(state.fork()))));
            ship.push((last, Some(state)));
        }
        let mut b = board.lock().expect("tree board poisoned");
        b.steps[i] = Some(step);
        b.done += 1;
        b.queue.extend(ship);
        drop(b);
        ready.notify_all();
    };
    if threads <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    let board = board.into_inner().expect("tree board poisoned");
    board
        .steps
        .into_iter()
        .map(|s| s.expect("every tree node solved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_like_problem;
    use mv_cost::InterruptionRisk;

    /// `epochs` identical copies of the paper-like problem's model.
    fn flat_chain(epochs: usize) -> EpochChain {
        let p = paper_like_problem();
        EpochChain::new(vec![p.model().clone(); epochs], p.candidates().to_vec())
    }

    /// The driver over the chain's own epochs.
    fn on_path(chain: &EpochChain, scenario: Scenario, spec: &ChainSpec<'_>) -> Vec<EpochStep> {
        let mut solved = chain.solve_with(scenario, spec);
        assert_eq!(solved.len(), 1, "a path is one lineage");
        solved.remove(0)
    }

    /// The joint selection + placement solve over the chain's own
    /// epochs: every candidate starts on `initial`, `rebalance` frees
    /// the search to move it.
    fn fleet_path(
        chain: &EpochChain,
        scenario: Scenario,
        initial: Placement,
        rebalance: bool,
        pools: &[[PoolCharge; 2]],
    ) -> Vec<EpochStep> {
        let spec = ChainSpec {
            pools: Some(pools),
            initial: Some(initial),
            rebalance,
        };
        on_path(chain, scenario, &spec)
    }

    /// Both pools' hours scaled by `factor` under interruption risk
    /// `risk`: one node of a single-pool table.
    fn both(factor: f64, risk: f64) -> [PoolCharge; 2] {
        [PoolCharge::new(factor, InterruptionRisk::new(risk)); 2]
    }

    /// `ChainSpec::default()` under a pool table.
    fn priced(pools: &[[PoolCharge; 2]]) -> ChainSpec<'_> {
        ChainSpec {
            pools: Some(pools),
            ..ChainSpec::default()
        }
    }

    #[test]
    fn zero_drift_keeps_the_selection_and_stops_paying_materialization() {
        let chain = flat_chain(3);
        let scenario = Scenario::tradeoff_normalized(0.5);
        let steps = chain.solve(scenario);
        assert_eq!(steps.len(), 3);
        let solo = crate::solve_local_search(
            &SelectionProblem::new(chain.epochs()[0].clone(), chain.pool().to_vec()),
            scenario,
        );
        // Epoch 0 is exactly the single-period solve; later epochs keep
        // its selection and their full-price reference reproduces it
        // bit-for-bit.
        assert_eq!(steps[0].outcome.evaluation, solo.evaluation);
        for (e, s) in steps.iter().enumerate() {
            assert_eq!(s.selection(), &solo.evaluation.selection, "epoch {e}");
            assert_eq!(s.full_price, solo.evaluation, "epoch {e}");
        }
        // After epoch 0 everything is carried: no additions, no drops,
        // and the charged bill drops by exactly the materialization
        // component.
        for s in &steps[1..] {
            assert!(s.added.is_empty() && s.dropped.is_empty());
            assert_eq!(s.kept.len(), solo.evaluation.num_selected());
            assert_eq!(
                s.outcome.evaluation.breakdown.compute_materialization,
                Money::ZERO
            );
            assert!(s.outcome.evaluation.cost() <= steps[0].outcome.evaluation.cost());
            assert_eq!(s.outcome.evaluation.time, steps[0].outcome.evaluation.time);
        }
    }

    #[test]
    fn warm_start_matches_rebuild_per_epoch_bit_for_bit() {
        // Drifting frequencies so transitions actually fire.
        let chain = drifting_chain(5);
        for scenario in [
            Scenario::tradeoff(0.02),
            Scenario::tradeoff_normalized(0.5),
            Scenario::time_limit(Hours::new(20.0)),
        ] {
            let warm = chain.solve(scenario);
            let rebuilt = chain.rebuild_per_epoch(scenario, &ChainSpec::default());
            assert_eq!(warm.len(), rebuilt.len());
            for (e, (w, r)) in warm.iter().zip(&rebuilt).enumerate() {
                assert_eq!(w.outcome.evaluation, r.outcome.evaluation, "epoch {e}");
                assert_eq!(w.full_price, r.full_price, "epoch {e}");
                assert_eq!(w.added, r.added, "epoch {e}");
                assert_eq!(w.kept, r.kept, "epoch {e}");
                assert_eq!(w.dropped, r.dropped, "epoch {e}");
            }
        }
    }

    #[test]
    fn repriced_warm_start_matches_rebuild_bit_for_bit() {
        let chain = drifting_chain(5);
        // Per-epoch charges shaped like the market's interruption
        // premium: build/refresh inflate with the epoch, answers don't,
        // and a nonzero risk re-runs them on top.
        let pools: Vec<_> = (0..5).map(|e| both(1.0 + 0.15 * e as f64, 0.2)).collect();
        let spec = priced(&pools);
        for scenario in [
            Scenario::tradeoff(0.02),
            Scenario::tradeoff_normalized(0.5),
            Scenario::time_limit(Hours::new(20.0)),
        ] {
            let warm = on_path(&chain, scenario, &spec);
            let rebuilt = chain.rebuild_per_epoch(scenario, &spec);
            assert_eq!(warm.len(), rebuilt.len());
            for (e, (w, r)) in warm.iter().zip(&rebuilt).enumerate() {
                assert_eq!(w.outcome.evaluation, r.outcome.evaluation, "epoch {e}");
                assert_eq!(w.added, r.added, "epoch {e}");
                assert_eq!(w.kept, r.kept, "epoch {e}");
                assert_eq!(w.dropped, r.dropped, "epoch {e}");
            }
        }
    }

    #[test]
    fn identity_pools_are_the_default_solve_bit_for_bit() {
        // `solve` is the driver with the default spec, and the single
        // pool is the pinned fleet whose candidates start on their
        // charges' own placements (all reserved here) under identity
        // pool charges.
        let chain = drifting_chain(4);
        assert!(chain
            .pool()
            .iter()
            .all(|c| c.placement == Placement::Reserved));
        let identity = vec![[PoolCharge::IDENTITY; 2]; 4];
        let spec = ChainSpec {
            pools: Some(&identity),
            initial: Some(Placement::Reserved),
            rebalance: false,
        };
        for scenario in [Scenario::tradeoff(0.02), Scenario::tradeoff_normalized(0.5)] {
            let plain = chain.solve(scenario);
            assert_steps_eq(&plain, &on_path(&chain, scenario, &spec), "identity pools");
            let single = ChainSpec::default();
            assert_steps_eq(&plain, &on_path(&chain, scenario, &single), "single pool");
        }
    }

    #[test]
    fn charged_steps_reproduce_on_their_charged_problems() {
        let chain = drifting_chain(4);
        let steps = chain.solve(Scenario::tradeoff(0.02));
        let mut prev = SelectionSet::empty(chain.pool().len());
        for (e, s) in steps.iter().enumerate() {
            let mut charged = chain.pool().to_vec();
            for k in prev.ones() {
                charged[k].set_price(chain.pool()[k].carried());
            }
            let p = SelectionProblem::new(chain.epochs()[e].clone(), charged);
            assert_eq!(s.outcome.evaluation, p.evaluate(s.selection()), "epoch {e}");
            assert_eq!(s.outcome.baseline, p.baseline(), "epoch {e}");
            prev = s.selection().clone();
        }
    }

    #[test]
    fn chain_beats_myopic_churn() {
        // Pins the path-dependence claim: greedily re-solving each
        // epoch from scratch is suboptimal on a drifting horizon. (The
        // alternating two-specialist fixture lives in
        // `fixtures::churn_chain`; the end-to-end variant is in
        // `tests/horizon.rs`.)
        let chain = crate::fixtures::churn_chain(4);
        let scenario = Scenario::tradeoff(0.02);
        let myopic = chain.solve_myopic(scenario);
        let aware = chain.solve(scenario);
        // Myopic really churns: every epoch adds the hot specialist
        // afresh and drops the cold one.
        for (e, s) in myopic.iter().enumerate() {
            assert_eq!(s.added.len(), 1, "epoch {e} added {:?}", s.added);
            assert_eq!(s.kept.len(), 0, "epoch {e}");
            assert!(
                s.outcome.evaluation.breakdown.compute_materialization > Money::ZERO,
                "epoch {e} paid no materialization"
            );
        }
        // The chain settles on both specialists and stops paying
        // builds after epoch 1.
        for s in &aware[2..] {
            assert!(s.added.is_empty());
            assert_eq!(
                s.outcome.evaluation.breakdown.compute_materialization,
                Money::ZERO
            );
        }
        let chain_total = horizon_cost(&aware);
        let myopic_total = horizon_cost(&myopic);
        assert!(
            chain_total < myopic_total,
            "transition-aware {chain_total} must beat myopic {myopic_total}"
        );
        // Here the chain is faster too (both specialists stay resident).
        assert!(horizon_time(&aware) <= horizon_time(&myopic));
    }

    /// Paper-like pool with sinusoidally drifting frequencies.
    fn drifting_chain(epochs: usize) -> EpochChain {
        let p = paper_like_problem();
        let models = (0..epochs)
            .map(|e| {
                let mut ctx = p.model().context().clone();
                let m = ctx.workload.len() as f64;
                for (i, q) in ctx.workload.iter_mut().enumerate() {
                    let phase = (e as f64 + i as f64 / m) * std::f64::consts::TAU / 4.0;
                    q.frequency = 1.0 + 0.8 * phase.sin();
                }
                CloudCostModel::new(ctx)
            })
            .collect();
        EpochChain::new(models, p.candidates().to_vec())
    }

    #[test]
    fn transition_partitions_are_consistent() {
        let chain = drifting_chain(6);
        let steps = chain.solve(Scenario::budget(Money::from_dollars(1_000)));
        let mut prev: Vec<usize> = Vec::new();
        for s in &steps {
            let mut sel: Vec<usize> = s.selection().ones().collect();
            sel.sort_unstable();
            let mut union: Vec<usize> = s.added.iter().chain(&s.kept).copied().collect();
            union.sort_unstable();
            assert_eq!(sel, union, "added ∪ kept must equal the selection");
            for k in &s.kept {
                assert!(prev.contains(k));
            }
            for k in &s.dropped {
                assert!(prev.contains(k) && !sel.contains(k));
            }
            prev = sel;
        }
    }

    /// A fleet table shaped like the market's: spot work rides a
    /// per-epoch rate factor and an interruption premium (folded into
    /// the factor, plus `risk`), reserved work bills at the primary
    /// sheet.
    fn fleet_pools(spot_factor: &[f64], spot_attempts: &[f64], risk: f64) -> Vec<[PoolCharge; 2]> {
        spot_factor
            .iter()
            .zip(spot_attempts)
            .map(|(f, a)| {
                let spot = PoolCharge::new(f * a, InterruptionRisk::new(risk));
                [PoolCharge::IDENTITY, spot]
            })
            .collect()
    }

    #[test]
    fn fleet_warm_start_matches_rebuild_bit_for_bit() {
        let chain = drifting_chain(5);
        let pools = fleet_pools(&[0.4, 0.5, 0.9, 0.6, 0.4], &[1.0, 1.5, 2.0, 1.25, 1.0], 0.3);
        for scenario in [
            Scenario::tradeoff(0.02),
            Scenario::tradeoff_normalized(0.5),
            Scenario::time_limit(Hours::new(20.0)),
        ] {
            for rebalance in [false, true] {
                let spec = ChainSpec {
                    pools: Some(&pools),
                    initial: Some(Placement::Reserved),
                    rebalance,
                };
                let warm = on_path(&chain, scenario, &spec);
                let rebuilt = chain.rebuild_per_epoch(scenario, &spec);
                assert_eq!(warm.len(), rebuilt.len());
                for (e, (w, r)) in warm.iter().zip(&rebuilt).enumerate() {
                    assert_eq!(w.outcome.evaluation, r.outcome.evaluation, "epoch {e}");
                    assert_eq!(w.placements, r.placements, "epoch {e}");
                    assert_eq!(w.added, r.added, "epoch {e}");
                    assert_eq!(w.kept, r.kept, "epoch {e}");
                    assert_eq!(w.moved, r.moved, "epoch {e}");
                    assert_eq!(w.dropped, r.dropped, "epoch {e}");
                }
            }
        }
    }

    #[test]
    fn pinned_fleet_is_solve_with_on_one_pool_bit_for_bit() {
        // A fleet that cannot rebalance, with every view on the primary
        // pool, is `solve_with` under the same pool table on each
        // charge's own placement exactly — the degenerate case the
        // workspace-level conformance tests extend to
        // `Advisor::solve_market`.
        let chain = drifting_chain(4);
        let pools: Vec<_> = [1.0, 1.6, 2.2, 1.3].map(|a| both(a, 0.0)).to_vec();
        for scenario in [Scenario::tradeoff(0.02), Scenario::tradeoff_normalized(0.5)] {
            let plain = on_path(&chain, scenario, &priced(&pools));
            let pinned = fleet_path(&chain, scenario, Placement::Reserved, false, &pools);
            for (e, (p, f)) in plain.iter().zip(&pinned).enumerate() {
                assert_eq!(p.outcome.evaluation, f.outcome.evaluation, "epoch {e}");
                assert_eq!(p.added, f.added, "epoch {e}");
                assert_eq!(p.kept, f.kept, "epoch {e}");
                assert!(f.moved.is_empty(), "epoch {e}");
            }
        }
    }

    /// Two always-hot specialist queries with hefty multi-hour builds,
    /// so pool-rate differentials survive AWS whole-hour rounding (the
    /// paper-like pool's sub-hour charges round to the same billed hour
    /// on either pool).
    fn hot_chain(epochs: usize) -> EpochChain {
        use mv_cost::{CostContext, QueryCharge};
        let pricing = mv_pricing::presets::aws_2012();
        let instance = pricing.compute.instance("small").unwrap().clone();
        let models: Vec<CloudCostModel> = (0..epochs)
            .map(|_| {
                let mut q1 = QueryCharge::new("Q1", mv_units::Gb::new(0.01), Hours::new(10.0));
                q1.frequency = 5.0;
                let mut q2 = QueryCharge::new("Q2", mv_units::Gb::new(0.01), Hours::new(10.0));
                q2.frequency = 5.0;
                CloudCostModel::new(CostContext {
                    pricing: pricing.clone(),
                    instance: instance.clone(),
                    nb_instances: 1,
                    months: mv_units::Months::new(1.0),
                    dataset_size: mv_units::Gb::new(10.0),
                    workload: vec![q1, q2],
                })
            })
            .collect();
        let pool = vec![
            ViewCharge::new(
                "spec-Q1",
                mv_units::Gb::new(1.0),
                Hours::new(8.0),
                Hours::new(2.0),
                2,
            )
            .answers(0, Hours::new(0.5)),
            ViewCharge::new(
                "spec-Q2",
                mv_units::Gb::new(1.0),
                Hours::new(8.0),
                Hours::new(2.0),
                2,
            )
            .answers(1, Hours::new(0.5)),
        ];
        EpochChain::new(models, pool)
    }

    #[test]
    fn rebalancing_moves_views_to_the_cheaper_pool() {
        // Spot work at 40% of the reserved rate and no interruption:
        // every selected view should end up spot-placed, and flipping
        // placement must never rebuild the evaluator.
        let chain = hot_chain(3);
        let pools = fleet_pools(&[0.4; 3], &[1.0; 3], 0.0);
        let counters = mv_obs::CounterGuard::scoped();
        let steps = fleet_path(
            &chain,
            Scenario::tradeoff(0.02),
            Placement::Reserved,
            true,
            &pools,
        );
        assert_eq!(
            counters.local_delta(mv_obs::Counter::EvaluatorBuild),
            1,
            "fleet chain must keep one evaluator for the whole horizon"
        );
        drop(counters);
        for (e, s) in steps.iter().enumerate() {
            for k in s.selection().ones() {
                assert_eq!(s.placements[k], Placement::Spot, "epoch {e} view {k}");
            }
        }
        // The spot-placed horizon is strictly cheaper than the pinned
        // reserved one.
        let pinned = fleet_path(
            &chain,
            Scenario::tradeoff(0.02),
            Placement::Reserved,
            false,
            &pools,
        );
        assert!(horizon_cost(&steps) < horizon_cost(&pinned));
    }

    #[test]
    fn placement_moves_repay_materialization() {
        // Epoch 0 spot is cheap; from epoch 1 a crunch inflates spot
        // work 8×. The chain moves the resident views to reserved at
        // the boundary — classified `moved`, re-paying materialization.
        let chain = hot_chain(3);
        let pools = fleet_pools(&[0.2, 1.0, 1.0], &[1.0, 8.0, 8.0], 0.0);
        let steps = fleet_path(
            &chain,
            Scenario::tradeoff(0.02),
            Placement::Spot,
            true,
            &pools,
        );
        let selected: Vec<usize> = steps[0].selection().ones().collect();
        assert!(!selected.is_empty());
        for k in &selected {
            assert_eq!(steps[0].placements[*k], Placement::Spot);
        }
        // The boundary move re-pays the build: moved non-empty and the
        // epoch bills materialization again.
        let moved_epoch = steps
            .iter()
            .position(|s| !s.moved.is_empty())
            .expect("the crunch should force a placement move");
        assert!(
            steps[moved_epoch]
                .outcome
                .evaluation
                .breakdown
                .compute_materialization
                > Money::ZERO
        );
        for k in steps[moved_epoch].selection().ones() {
            assert_eq!(steps[moved_epoch].placements[k], Placement::Reserved);
        }
    }

    #[test]
    fn dp_fleet_single_epoch_matches_selection_dp_on_a_neutral_fleet() {
        // With both pools charging identically, the oracle on two pools
        // (radix 3) must land on its one-pool numbers (radix 2): on three
        // identical epochs of the paper-like problem, and on the DP
        // proptest's multi-epoch drifting horizons.
        let p = paper_like_problem();
        let mut horizons = vec![(
            EpochChain::new(vec![p.model().clone(); 3], p.candidates().to_vec()),
            Scenario::tradeoff_normalized(0.5),
        )];
        for seed in 0..12 {
            let p =
                crate::fixtures::random_problem(seed, 2 + seed as usize % 3, 2 + seed as usize % 5);
            let scenario = oracle_tests::drawn_scenario(&p, (seed % 3) as u8, seed as f64 / 12.0);
            let epochs = 2 + seed as usize % 3;
            horizons.push((oracle_tests::drifting_horizon(&p, epochs), scenario));
        }
        for (h, (chain, scenario)) in horizons.iter().enumerate() {
            let epochs = chain.epochs().len();
            let dp = chain.dp_optimum(*scenario, None);
            let joint = chain.dp_optimum(*scenario, Some(&vec![[PoolCharge::IDENTITY; 2]; epochs]));
            assert_eq!(joint.total_violation, dp.total_violation, "horizon {h}");
            assert_eq!(joint.total_objective, dp.total_objective, "horizon {h}");
            assert_eq!(joint.total_cost(), dp.total_cost(), "horizon {h}");
            for (e, (a, b)) in joint.selections.iter().zip(&dp.selections).enumerate() {
                assert_eq!(a, b, "horizon {h} epoch {e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 6 candidates")]
    fn dp_fleet_rejects_oversized_pools() {
        let p = crate::fixtures::random_problem(1, 3, 7);
        let chain = EpochChain::new(vec![p.model().clone()], p.candidates().to_vec());
        chain.dp_optimum(
            Scenario::tradeoff_normalized(0.5),
            Some(&[[PoolCharge::IDENTITY; 2]]),
        );
    }

    #[test]
    #[should_panic(expected = "cover every chain node")]
    fn pool_table_must_cover_every_node() {
        let chain = flat_chain(2);
        let one = [[PoolCharge::IDENTITY; 2]];
        fleet_path(
            &chain,
            Scenario::tradeoff(0.02),
            Placement::Spot,
            true,
            &one,
        );
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn empty_horizon_rejected() {
        EpochChain::new(vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "different workload length")]
    fn mismatched_epoch_workloads_rejected() {
        let p = paper_like_problem();
        let mut ctx = p.model().context().clone();
        ctx.workload.pop();
        EpochChain::new(
            vec![p.model().clone(), CloudCostModel::new(ctx)],
            p.candidates().to_vec(),
        );
    }

    /// Scales every query frequency of `model` by `1 + delta` — a
    /// deterministic stand-in for a branch-specific price/drift quote.
    fn perturbed(model: &CloudCostModel, delta: f64) -> CloudCostModel {
        if delta == 0.0 {
            return model.clone();
        }
        let mut ctx = model.context().clone();
        for q in ctx.workload.iter_mut() {
            q.frequency *= 1.0 + delta;
        }
        CloudCostModel::new(ctx)
    }

    /// A 3-leaf, 7-node forest over a 4-epoch drifting chain: paths
    /// share epochs 0–1, split at epoch 2 (two branches), and branch B
    /// splits again at epoch 3.
    ///
    /// ```text
    ///   0 ── 1 ──┬── 2 ─── 4          leaves: [4, 5, 6]
    ///            └── 3 ──┬─ 5
    ///                    └─ 6
    /// ```
    fn branchy_tree(chain: &EpochChain) -> EpochChain {
        let m = chain.epochs();
        let node =
            |parent: Option<usize>, epoch: usize, delta: f64| (parent, perturbed(&m[epoch], delta));
        EpochChain::forest(
            vec![
                node(None, 0, 0.0),
                node(Some(0), 1, 0.0),
                node(Some(1), 2, 0.0),
                node(Some(1), 2, 0.35),
                node(Some(2), 3, 0.0),
                node(Some(3), 3, 0.35),
                node(Some(3), 3, 0.7),
            ],
            vec![4, 5, 6],
            chain.pool().to_vec(),
        )
    }

    /// The unshared per-path reference for one leaf: its lineage as a
    /// stand-alone path, so a node-indexed pool table maps down to epochs.
    fn lineage_chain(forest: &EpochChain, leaf: usize) -> EpochChain {
        let mut models: Vec<CloudCostModel> =
            std::iter::successors(Some(leaf), |&i| forest.parent[i])
                .map(|i| forest.models[i].clone())
                .collect();
        models.reverse();
        EpochChain::new(models, forest.pool().to_vec())
    }

    fn assert_steps_eq(a: &[EpochStep], b: &[EpochStep], tag: &str) {
        assert_eq!(a.len(), b.len(), "{tag}: length");
        for (e, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.outcome.evaluation, y.outcome.evaluation,
                "{tag} epoch {e}"
            );
            assert_eq!(x.outcome.baseline, y.outcome.baseline, "{tag} epoch {e}");
            assert_eq!(x.full_price, y.full_price, "{tag} epoch {e}");
            assert_eq!(x.added, y.added, "{tag} epoch {e}");
            assert_eq!(x.kept, y.kept, "{tag} epoch {e}");
            assert_eq!(x.dropped, y.dropped, "{tag} epoch {e}");
            assert_eq!(x.moved, y.moved, "{tag} epoch {e}");
            assert_eq!(x.placements, y.placements, "{tag} epoch {e}");
        }
    }

    #[test]
    fn tree_solve_is_bit_identical_to_flat_per_path_solves() {
        let forest = branchy_tree(&drifting_chain(4));
        // Per-node charges shaped like the market's interruption premium,
        // keyed on the node's epoch so the per-path reference can
        // reproduce them exactly.
        let risked = |e: usize| both(1.0 + 0.2 * e as f64, 0.25);
        let by_node: Vec<_> = forest.depths.iter().map(|&d| risked(d)).collect();
        let by_epoch: Vec<_> = (0..4).map(risked).collect();
        for scenario in [
            Scenario::tradeoff(0.02),
            Scenario::tradeoff_normalized(0.5),
            Scenario::time_limit(Hours::new(20.0)),
        ] {
            let solved = forest.solve_with(scenario, &priced(&by_node));
            assert_eq!(solved.len(), forest.leaves.len());
            for (j, &leaf) in forest.leaves.iter().enumerate() {
                let alone = lineage_chain(&forest, leaf);
                let reference = on_path(&alone, scenario, &priced(&by_epoch));
                assert_steps_eq(
                    &solved[j],
                    &reference,
                    &format!("leaf {leaf} ({scenario:?})"),
                );
            }
        }
    }

    #[test]
    fn tree_fleet_solve_is_bit_identical_to_flat_per_path_solves() {
        let forest = branchy_tree(&drifting_chain(4));
        // Spot charges keyed on the node's epoch (so the per-path
        // reference can reproduce them) with enough spread to force
        // rebalancing, and a nonzero interruption risk.
        let spot = |e: usize| {
            let factor = [0.4, 0.5, 0.9, 0.45][e];
            [
                PoolCharge::IDENTITY,
                PoolCharge::new(factor, InterruptionRisk::new(0.3)),
            ]
        };
        let tree_pools: Vec<_> = forest.depths.iter().map(|&d| spot(d)).collect();
        let flat_pools: Vec<_> = (0..4).map(spot).collect();
        for scenario in [Scenario::tradeoff(0.02), Scenario::tradeoff_normalized(0.5)] {
            for rebalance in [false, true] {
                let spec = ChainSpec {
                    pools: Some(&tree_pools),
                    initial: Some(Placement::Reserved),
                    rebalance,
                };
                let solved = forest.solve_with(scenario, &spec);
                for (j, &leaf) in forest.leaves.iter().enumerate() {
                    let alone = lineage_chain(&forest, leaf);
                    let reference = fleet_path(
                        &alone,
                        scenario,
                        Placement::Reserved,
                        rebalance,
                        &flat_pools,
                    );
                    assert_steps_eq(
                        &solved[j],
                        &reference,
                        &format!("leaf {leaf} rebalance={rebalance} ({scenario:?})"),
                    );
                }
            }
        }
    }

    #[test]
    fn tree_solve_is_schedule_independent() {
        // The work-queue path must match the serial inline path for any
        // worker count (the 1-CPU CI box never exercises it otherwise).
        let forest = branchy_tree(&drifting_chain(4));
        let scenario = Scenario::tradeoff_normalized(0.5);
        let single = ChainSpec::default();
        let serial = forest.run_forest(scenario, &single, 1);
        for threads in [2, 4] {
            let parallel = forest.run_forest(scenario, &single, threads);
            for (j, (s, p)) in serial.iter().zip(&parallel).enumerate() {
                assert_steps_eq(s, p, &format!("leaf {j} threads={threads}"));
            }
        }
        let spot = PoolCharge::new(0.4, InterruptionRisk::NONE);
        let fleet = vec![[PoolCharge::IDENTITY, spot]; forest.epochs().len()];
        let hedged = ChainSpec {
            pools: Some(&fleet),
            initial: Some(Placement::Reserved),
            rebalance: true,
        };
        let serial_fleet = forest.run_forest(scenario, &hedged, 1);
        let parallel_fleet = forest.run_forest(scenario, &hedged, 4);
        for (j, (s, p)) in serial_fleet.iter().zip(&parallel_fleet).enumerate() {
            assert_steps_eq(s, p, &format!("fleet leaf {j}"));
        }
    }

    #[test]
    fn a_panicking_node_fails_the_solve_instead_of_hanging_it() {
        // The pool table stops at node 2, so node 3's charge lookup
        // panics (and node 4's), nodes 5 and 6 are never queued and
        // `done` never reaches the node count: a worker left waiting for
        // them would wait forever. `run_forest` is called directly, past
        // `solve_with`'s table check. The solve runs on a thread of its
        // own (deliberately not joined) so a hang is a timeout here, not
        // a stuck test binary.
        for threads in [1, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let forest = branchy_tree(&drifting_chain(4));
                let short = [[PoolCharge::IDENTITY; 2]; 3];
                let spec = priced(&short);
                let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    forest.run_forest(Scenario::tradeoff(0.02), &spec, threads)
                }));
                let _ = tx.send(solved.is_err());
            });
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_secs(10)),
                Ok(true),
                "threads = {threads}: the solve must panic, not hang or finish"
            );
        }
    }

    #[test]
    fn degenerate_chain_tree_reproduces_solve() {
        // A deterministic market's forest is a single chain: its solve
        // must be `solve` exactly, for every leaf alias.
        let chain = drifting_chain(4);
        let nodes = (0..4)
            .map(|e: usize| (e.checked_sub(1), chain.epochs()[e].clone()))
            .collect();
        let forest = EpochChain::forest(nodes, vec![3, 3, 3], chain.pool().to_vec());
        let scenario = Scenario::tradeoff(0.02);
        let solved = forest.solve_with(scenario, &ChainSpec::default());
        assert_eq!(solved.len(), 3);
        let reference = chain.solve(scenario);
        for (j, steps) in solved.iter().enumerate() {
            assert_steps_eq(steps, &reference, &format!("alias {j}"));
        }
    }

    #[test]
    #[should_panic(expected = "walks a path")]
    fn path_only_solves_reject_a_forest() {
        branchy_tree(&drifting_chain(4)).solve(Scenario::tradeoff(0.02));
    }

    #[test]
    #[should_panic(expected = "stored after its parent")]
    fn forest_rejects_a_child_stored_before_its_parent() {
        let p = paper_like_problem();
        let m = p.model().clone();
        EpochChain::forest(
            vec![(Some(1), m.clone()), (None, m)],
            vec![0],
            p.candidates().to_vec(),
        );
    }

    #[test]
    #[should_panic(expected = "one final epoch")]
    fn forest_leaves_must_share_one_depth() {
        let p = paper_like_problem();
        let m = p.model().clone();
        EpochChain::forest(
            vec![(None, m.clone()), (Some(0), m.clone()), (Some(1), m)],
            vec![2, 1],
            p.candidates().to_vec(),
        );
    }
}

#[cfg(test)]
mod oracle_tests;
