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
//!   [`ViewCharge::carried`] form (materialization zeroed), everything
//!   else reverts to full price. The per-epoch optimum therefore
//!   depends on the path taken to reach it, and re-solving each epoch
//!   from scratch against full prices ([`EpochChain::solve_myopic`]) is
//!   suboptimal — it churns views and re-pays materializations the
//!   chain knows are sunk (pinned by `chain_beats_myopic_churn` below
//!   and the `tests/horizon.rs` regression).
//! * **Warm starts, not rebuilds** — one [`IncrementalEvaluator`] lives
//!   for the whole horizon. Epoch boundaries cost one
//!   [`IncrementalEvaluator::retarget`] (O(m) context switch: the
//!   per-query answer caches survive because they hold only candidate
//!   answer times) plus an [`IncrementalEvaluator::update_charge`]
//!   splice per candidate whose carried state flipped — instead of an
//!   O(n·m) problem rebuild plus O(n) repositioning flips per epoch.
//!   [`EpochChain::solve_rebuilding`] is the rebuild-per-epoch
//!   reference implementation: bit-identical outcomes (tested), only
//!   slower (`crates/bench/benches/horizon.rs`).
//!
//! Each epoch is solved with the same move rules as
//! [`crate::solve_local_search`]: epoch 0 greedy-fills from empty, and
//! every epoch runs a bounded best-improvement flip/swap pass — from
//! the previous epoch's selection, so with zero drift the chain simply
//! confirms the standing selection is still a local optimum (one probe
//! round) instead of re-deriving it.
//!
//! **Scenario caveat (MV1):** under a budget constraint, carried
//! materialization discounts free up budget headroom, so later epochs
//! can legitimately afford views the single-period solve could not —
//! the chain's per-epoch selection is then *not* expected to equal the
//! single-period selection even with zero drift. MV2 and MV3 have no
//! such headroom effect: hour rounding makes the marginal cost of a
//! new view at least what it was in the single-period problem, so a
//! zero-drift horizon reproduces the single-period solve bit-for-bit
//! (property-tested in `tests/horizon_consistency.rs`).

use mv_cost::{CloudCostModel, CostBreakdown, Placement, SelectionSet, ViewCharge};
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

/// Hard cap on the pool size [`EpochChain::solve_dp_exact`] accepts:
/// the DP's state space is 2ⁿ per epoch and its transition relation 4ⁿ
/// per boundary, so it is an oracle for tiny pools only.
pub const DP_MAX_CANDIDATES: usize = 12;

/// The exact finite-horizon optimum found by
/// [`EpochChain::solve_dp_exact`].
#[derive(Debug, Clone)]
pub struct DpSolution {
    /// The optimal selection per epoch.
    pub selections: Vec<SelectionSet>,
    /// The charged (transition-aware) evaluation of each epoch's
    /// selection along the optimal trajectory, re-derived through
    /// [`SelectionProblem::evaluate`] so it reproduces externally.
    pub evaluations: Vec<Evaluation>,
    /// Total constraint violation along the trajectory (0 when every
    /// epoch is feasible).
    pub total_violation: f64,
    /// Total scenario objective along the trajectory — the number the
    /// sequential chain's optimality gap is measured against.
    pub total_objective: f64,
}

impl DpSolution {
    /// Total charged cost of the optimal trajectory.
    pub fn total_cost(&self) -> Money {
        self.evaluations.iter().map(|e| e.cost()).sum()
    }
}

/// Hard cap on the pool size [`EpochChain::solve_dp_fleet`] accepts:
/// the joint state space is 3ⁿ per epoch (unselected /
/// selected-reserved / selected-spot per candidate) and the transition
/// relation 9ⁿ per boundary — tighter than the selection-only DP's cap.
pub const DP_FLEET_MAX_CANDIDATES: usize = 6;

/// The exact joint selection+placement optimum found by
/// [`EpochChain::solve_dp_fleet`].
#[derive(Debug, Clone)]
pub struct DpFleetSolution {
    /// The optimal selection per epoch.
    pub selections: Vec<SelectionSet>,
    /// The optimal placement assignment per epoch (unselected
    /// candidates are reported at the canonical
    /// [`Placement::Reserved`]; only selected entries carry meaning).
    pub placements: Vec<Vec<Placement>>,
    /// The charged evaluation of each epoch along the optimal
    /// trajectory, re-derived through [`SelectionProblem::evaluate`]
    /// so it reproduces externally.
    pub evaluations: Vec<Evaluation>,
    /// Total constraint violation along the trajectory.
    pub total_violation: f64,
    /// Total scenario objective along the trajectory.
    pub total_objective: f64,
}

impl DpFleetSolution {
    /// Total charged cost of the optimal trajectory.
    pub fn total_cost(&self) -> Money {
        self.evaluations.iter().map(|e| e.cost()).sum()
    }
}

/// A billing horizon: per-epoch costing models over one shared,
/// full-price candidate pool.
///
/// Every epoch model must cover the same query universe (same workload
/// length; frequencies, base times, pricing and storage horizon are
/// free to differ per epoch) so the pool's answer profiles stay aligned
/// throughout — that is also what makes the warm-started evaluator's
/// caches valid across [`IncrementalEvaluator::retarget`].
#[derive(Debug, Clone)]
pub struct EpochChain {
    epochs: Vec<CloudCostModel>,
    pool: Vec<ViewCharge>,
}

impl EpochChain {
    /// Builds a chain, validating epoch/pool alignment.
    pub fn new(epochs: Vec<CloudCostModel>, pool: Vec<ViewCharge>) -> Self {
        assert!(!epochs.is_empty(), "a horizon needs at least one epoch");
        let m = epochs[0].context().workload.len();
        for (e, model) in epochs.iter().enumerate() {
            assert_eq!(
                model.context().workload.len(),
                m,
                "epoch {e} has a different workload length"
            );
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
        EpochChain { epochs, pool }
    }

    /// Number of epochs.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// `true` when the chain has no epochs (never constructible via
    /// [`EpochChain::new`], which rejects empty horizons).
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// The per-epoch costing models.
    pub fn epochs(&self) -> &[CloudCostModel] {
        &self.epochs
    }

    /// The shared full-price candidate pool.
    pub fn pool(&self) -> &[ViewCharge] {
        &self.pool
    }

    /// Solves the horizon transition-aware, warm-starting each epoch
    /// from the previous epoch's evaluator state. See the module docs
    /// for the mechanics; `max_moves` bounds the per-epoch improvement
    /// pass ([`EpochChain::solve`] uses the default budget).
    pub fn solve_bounded(&self, scenario: Scenario, max_moves: usize) -> Vec<EpochStep> {
        self.solve_repriced_bounded(scenario, max_moves, &|_, _, charge| charge.clone())
    }

    /// [`EpochChain::solve_bounded`] with the default per-epoch move
    /// budget.
    pub fn solve(&self, scenario: Scenario) -> Vec<EpochStep> {
        self.solve_bounded(scenario, local_search::default_move_budget(self.pool.len()))
    }

    /// The generalized transition-aware solve: each epoch's effective
    /// charges pass through `reprice(epoch, candidate, transition)`
    /// first, where `transition` is already the carry-aware charge (the
    /// full-price pool entry, or its [`ViewCharge::carried`] form when
    /// the candidate survived the previous epoch). This is the
    /// price-dynamics hook: `mv-market` re-risks every candidate per
    /// epoch (interruption premiums on materialization/maintenance)
    /// without this module knowing anything about markets.
    ///
    /// The hot path is unchanged from [`EpochChain::solve_bounded`]
    /// (which is this method with the identity transform): one
    /// [`IncrementalEvaluator`] lives for the whole horizon, every
    /// boundary costs one [`IncrementalEvaluator::retarget`] plus an
    /// [`IncrementalEvaluator::update_charge`] splice per candidate
    /// whose effective charge actually changed — never a rebuild
    /// (asserted via `IncrementalEvaluator::build_count` in the market
    /// tests). Transforms that only move materialization/maintenance
    /// (the risk transform does exactly that) keep every splice on
    /// `update_charge`'s O(1) same-answer-profile fast path.
    pub fn solve_repriced_bounded<F>(
        &self,
        scenario: Scenario,
        max_moves: usize,
        reprice: &F,
    ) -> Vec<EpochStep>
    where
        F: Fn(usize, usize, &ViewCharge) -> ViewCharge,
    {
        let n = self.pool.len();
        let mut current: Vec<ViewCharge> = self
            .pool
            .iter()
            .enumerate()
            .map(|(k, c)| reprice(0, k, c))
            .collect();
        let mut ev = IncrementalEvaluator::from_problem(SelectionProblem::new(
            self.epochs[0].clone(),
            current.clone(),
        ));
        let mut prev = SelectionSet::empty(n);
        let mut steps = Vec::with_capacity(self.epochs.len());
        for (e, model) in self.epochs.iter().enumerate() {
            mv_obs::span!("chain/epoch");
            if e > 0 {
                // The whole epoch transition: an O(m) context switch
                // plus one splice per candidate whose effective charge
                // changed. No rebuild, no repositioning.
                ev.retarget(model.clone());
                for (k, slot) in current.iter_mut().enumerate() {
                    // Borrow the full-price transition charge; only a
                    // carried one needs constructing.
                    let transition: std::borrow::Cow<'_, ViewCharge> = if prev.contains(k) {
                        std::borrow::Cow::Owned(self.pool[k].carried())
                    } else {
                        std::borrow::Cow::Borrowed(&self.pool[k])
                    };
                    let want = reprice(e, k, transition.as_ref());
                    if want != *slot {
                        ev.update_charge(k, want.clone());
                        *slot = want;
                    }
                }
            }
            let baseline = ev.problem().baseline();
            if e == 0 {
                local_search::greedy_fill(&mut ev, scenario, &baseline);
            }
            let evaluation = local_search::improve(&mut ev, scenario, &baseline, max_moves);
            steps.push(self.step(model, e, evaluation, baseline, &prev, scenario));
            prev = steps.last().expect("just pushed").selection().clone();
        }
        steps
    }

    /// [`EpochChain::solve_repriced_bounded`] with the default budget.
    pub fn solve_repriced<F>(&self, scenario: Scenario, reprice: &F) -> Vec<EpochStep>
    where
        F: Fn(usize, usize, &ViewCharge) -> ViewCharge,
    {
        self.solve_repriced_bounded(
            scenario,
            local_search::default_move_budget(self.pool.len()),
            reprice,
        )
    }

    /// The rebuild-per-epoch reference implementation of
    /// [`EpochChain::solve_repriced_bounded`]: identical transition and
    /// re-pricing semantics, but each epoch builds a fresh charged
    /// problem and a fresh evaluator repositioned by O(n) flips.
    /// Bit-identical steps (property-tested); exists as the correctness
    /// anchor and as the baseline the market bench measures against.
    pub fn solve_repriced_rebuilding_bounded<F>(
        &self,
        scenario: Scenario,
        max_moves: usize,
        reprice: &F,
    ) -> Vec<EpochStep>
    where
        F: Fn(usize, usize, &ViewCharge) -> ViewCharge,
    {
        let mut prev = SelectionSet::empty(self.pool.len());
        let mut steps = Vec::with_capacity(self.epochs.len());
        for (e, model) in self.epochs.iter().enumerate() {
            let charged: Vec<ViewCharge> = self
                .pool
                .iter()
                .enumerate()
                .map(|(k, c)| {
                    let transition = if prev.contains(k) {
                        c.carried()
                    } else {
                        c.clone()
                    };
                    reprice(e, k, &transition)
                })
                .collect();
            let problem = SelectionProblem::new(model.clone(), charged);
            let baseline = problem.baseline();
            let mut ev = IncrementalEvaluator::with_selection(&problem, &prev);
            if e == 0 {
                local_search::greedy_fill(&mut ev, scenario, &baseline);
            }
            let evaluation = local_search::improve(&mut ev, scenario, &baseline, max_moves);
            steps.push(self.step(model, e, evaluation, baseline, &prev, scenario));
            prev = steps.last().expect("just pushed").selection().clone();
        }
        steps
    }

    /// The rebuild-per-epoch reference implementation of
    /// [`EpochChain::solve`]: identical transition semantics and move
    /// rules, but each epoch builds a fresh charged problem and a fresh
    /// evaluator repositioned by O(n) flips. Produces bit-identical
    /// steps (tested below); exists as the correctness anchor for the
    /// warm-start machinery and as the baseline the horizon bench
    /// measures against.
    pub fn solve_rebuilding_bounded(&self, scenario: Scenario, max_moves: usize) -> Vec<EpochStep> {
        self.solve_repriced_rebuilding_bounded(scenario, max_moves, &|_, _, charge| charge.clone())
    }

    /// [`EpochChain::solve_rebuilding_bounded`] with the default budget.
    pub fn solve_rebuilding(&self, scenario: Scenario) -> Vec<EpochStep> {
        self.solve_rebuilding_bounded(scenario, local_search::default_move_budget(self.pool.len()))
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
        let mut prev = SelectionSet::empty(self.pool.len());
        let mut steps = Vec::with_capacity(self.epochs.len());
        for (e, model) in self.epochs.iter().enumerate() {
            let full = SelectionProblem::new(model.clone(), self.pool.clone());
            let solo = local_search::solve_local_search(&full, scenario);
            let mut charged = self.pool.clone();
            for k in prev.ones() {
                charged[k] = self.pool[k].carried();
            }
            let charged_problem = SelectionProblem::new(model.clone(), charged);
            let evaluation = charged_problem.evaluate(&solo.evaluation.selection);
            let baseline = charged_problem.baseline();
            steps.push(self.step(model, e, evaluation, baseline, &prev, scenario));
            prev = steps.last().expect("just pushed").selection().clone();
        }
        steps
    }

    /// The joint **selection + placement** chain solve over a mixed
    /// fleet: each candidate additionally carries a [`Placement`]
    /// deciding which pool its build/refresh work bills against, and
    /// the per-epoch improvement pass gains placement-flip moves
    /// ([`local_search::improve_joint`]) alongside select-flip/swap.
    ///
    /// `reprice(epoch, candidate, placement, transition)` yields the
    /// candidate's effective charge on that pool (the fleet hook:
    /// `mv-cost`'s `PoolCharge` folds rate differentials and spot
    /// interruption premiums into it); `transition` is already the
    /// carry-aware charge — carried only when the candidate survived
    /// the previous epoch *on the same pool*: a placement move rebuilds
    /// the view on the new pool's capacity, so it re-pays
    /// materialization (classified `moved` in the step). `initial`
    /// seeds each candidate's placement; `rebalance == false` pins
    /// them, degenerating to [`EpochChain::solve_repriced_bounded`]
    /// with the per-pool transform — the pure-fleet conformance cases.
    ///
    /// The hot path is unchanged: ONE [`IncrementalEvaluator`] lives
    /// for the whole horizon, every boundary costs one `retarget` plus
    /// an `update_charge` splice per candidate whose effective charge
    /// moved, and every placement flip is itself one O(1)
    /// `update_charge` splice (the transform never touches the answer
    /// profile) — never a rebuild, asserted via
    /// `IncrementalEvaluator::build_count` in
    /// `tests/market_no_rebuild.rs`.
    pub fn solve_fleet_bounded<F>(
        &self,
        scenario: Scenario,
        max_moves: usize,
        initial: &[Placement],
        rebalance: bool,
        reprice: &F,
    ) -> Vec<EpochStep>
    where
        F: Fn(usize, usize, Placement, &ViewCharge) -> ViewCharge,
    {
        let n = self.pool.len();
        assert_eq!(initial.len(), n, "initial placements must cover the pool");
        let effective = |e: usize, k: usize, p: Placement, carried: bool| -> ViewCharge {
            let transition = if carried {
                self.pool[k].carried()
            } else {
                self.pool[k].clone()
            };
            let mut charge = reprice(e, k, p, &transition);
            charge.placement = p;
            charge
        };
        let mut placements: Vec<Placement> = initial.to_vec();
        let mut current: Vec<ViewCharge> = (0..n)
            .map(|k| effective(0, k, placements[k], false))
            .collect();
        let mut ev = IncrementalEvaluator::from_problem(SelectionProblem::new(
            self.epochs[0].clone(),
            current.clone(),
        ));
        let mut prev = SelectionSet::empty(n);
        let mut prev_placements = placements.clone();
        let mut steps = Vec::with_capacity(self.epochs.len());
        for (e, model) in self.epochs.iter().enumerate() {
            mv_obs::span!("chain/epoch");
            if e > 0 {
                ev.retarget(model.clone());
                for (k, slot) in current.iter_mut().enumerate() {
                    let want = effective(e, k, placements[k], prev.contains(k));
                    if want != *slot {
                        ev.update_charge(k, want.clone());
                        *slot = want;
                    }
                }
            }
            let baseline = ev.problem().baseline();
            if e == 0 {
                local_search::greedy_fill(&mut ev, scenario, &baseline);
            }
            let evaluation = if rebalance {
                // Carried-ness during the search keys off the epoch's
                // *entry* state: flipping a carried view's placement
                // re-prices it full (rebuild on the new pool), flipping
                // it back restores the carried charge bit-for-bit.
                let entry_prev = prev.clone();
                let entry_place = placements.clone();
                let charge_for = |k: usize, p: Placement| -> ViewCharge {
                    effective(e, k, p, entry_prev.contains(k) && p == entry_place[k])
                };
                let ev_ = local_search::improve_joint(
                    &mut ev,
                    scenario,
                    &baseline,
                    max_moves,
                    &mut placements,
                    &charge_for,
                );
                // Placement flips spliced new charges in; refresh the
                // boundary-comparison cache from the live problem.
                current.clone_from_slice(ev.problem().candidates());
                ev_
            } else {
                local_search::improve(&mut ev, scenario, &baseline, max_moves)
            };
            steps.push(self.step_with_placements(
                model,
                e,
                evaluation,
                baseline,
                &prev,
                &prev_placements,
                placements.clone(),
                scenario,
            ));
            prev = steps.last().expect("just pushed").selection().clone();
            prev_placements.clone_from_slice(&placements);
        }
        steps
    }

    /// [`EpochChain::solve_fleet_bounded`] with the default per-epoch
    /// move budget.
    pub fn solve_fleet<F>(
        &self,
        scenario: Scenario,
        initial: &[Placement],
        rebalance: bool,
        reprice: &F,
    ) -> Vec<EpochStep>
    where
        F: Fn(usize, usize, Placement, &ViewCharge) -> ViewCharge,
    {
        self.solve_fleet_bounded(
            scenario,
            local_search::default_move_budget(self.pool.len()),
            initial,
            rebalance,
            reprice,
        )
    }

    /// The rebuild-per-epoch reference implementation of
    /// [`EpochChain::solve_fleet_bounded`]: identical transition,
    /// placement and re-pricing semantics, but each epoch builds a
    /// fresh charged problem and a fresh evaluator repositioned by
    /// O(n) flips. Bit-identical steps (property-tested below); the
    /// fleet bench measures against it.
    pub fn solve_fleet_rebuilding_bounded<F>(
        &self,
        scenario: Scenario,
        max_moves: usize,
        initial: &[Placement],
        rebalance: bool,
        reprice: &F,
    ) -> Vec<EpochStep>
    where
        F: Fn(usize, usize, Placement, &ViewCharge) -> ViewCharge,
    {
        let n = self.pool.len();
        assert_eq!(initial.len(), n, "initial placements must cover the pool");
        let effective = |e: usize, k: usize, p: Placement, carried: bool| -> ViewCharge {
            let transition = if carried {
                self.pool[k].carried()
            } else {
                self.pool[k].clone()
            };
            let mut charge = reprice(e, k, p, &transition);
            charge.placement = p;
            charge
        };
        let mut placements: Vec<Placement> = initial.to_vec();
        let mut prev = SelectionSet::empty(n);
        let mut prev_placements = placements.clone();
        let mut steps = Vec::with_capacity(self.epochs.len());
        for (e, model) in self.epochs.iter().enumerate() {
            let charged: Vec<ViewCharge> = (0..n)
                .map(|k| effective(e, k, placements[k], prev.contains(k)))
                .collect();
            let problem = SelectionProblem::new(model.clone(), charged);
            let baseline = problem.baseline();
            let mut ev = IncrementalEvaluator::with_selection(&problem, &prev);
            if e == 0 {
                local_search::greedy_fill(&mut ev, scenario, &baseline);
            }
            let evaluation = if rebalance {
                let entry_prev = prev.clone();
                let entry_place = placements.clone();
                let charge_for = |k: usize, p: Placement| -> ViewCharge {
                    effective(e, k, p, entry_prev.contains(k) && p == entry_place[k])
                };
                local_search::improve_joint(
                    &mut ev,
                    scenario,
                    &baseline,
                    max_moves,
                    &mut placements,
                    &charge_for,
                )
            } else {
                local_search::improve(&mut ev, scenario, &baseline, max_moves)
            };
            steps.push(self.step_with_placements(
                model,
                e,
                evaluation,
                baseline,
                &prev,
                &prev_placements,
                placements.clone(),
                scenario,
            ));
            prev = steps.last().expect("just pushed").selection().clone();
            prev_placements.clone_from_slice(&placements);
        }
        steps
    }

    /// The exact finite-horizon optimum over a tiny pool: dynamic
    /// programming over *selection states per epoch*. State = the subset
    /// selected at epoch `e`; transition `(S_prev → S)` is charged with
    /// materialization only for `S \ S_prev` (exactly the chain's
    /// transition accounting); the value function minimizes total
    /// constraint violation first, then total scenario objective — the
    /// same lexicographic order [`Scenario::better`] ranks candidates
    /// by, summed over the horizon.
    ///
    /// This is the oracle the sequential chain is measured against: the
    /// chain commits each epoch greedily and can land on a
    /// path-suboptimal trajectory (e.g. skipping a build that only pays
    /// off two epochs later), while the DP considers every trajectory.
    /// Its optimality gap is pinned in `tests/dp_oracle.rs`. Complexity
    /// is O(E·4ⁿ) transitions over O(2ⁿ·m) sweep work, so the pool is
    /// capped at [`DP_MAX_CANDIDATES`]; this is a reference solver for
    /// small pools, not a production path.
    ///
    /// The returned per-epoch evaluations are re-derived through
    /// [`SelectionProblem::evaluate`] on the chosen trajectory's charged
    /// problems, so they reproduce externally bit-for-bit; the DP's
    /// internal tallies only pick the trajectory.
    pub fn solve_dp_exact(&self, scenario: Scenario) -> DpSolution {
        let n = self.pool.len();
        assert!(
            n <= DP_MAX_CANDIDATES,
            "DP reference solver supports at most {DP_MAX_CANDIDATES} candidates, got {n}"
        );
        let size: usize = 1 << n;
        let epochs = self.epochs.len();

        // Materialization hours of every subset, indexed by mask (the
        // added-set lookup `mat[cur & !prev]` makes transitions O(1)).
        let mut mat = vec![Hours::ZERO; size];
        for mask in 1..size {
            let low = mask.trailing_zeros() as usize;
            mat[mask] = mat[mask & (mask - 1)] + self.pool[low].materialization;
        }
        let masks: Vec<SelectionSet> = (0..size)
            .map(|m| SelectionSet::from_mask(m as u64, n))
            .collect();

        // Per-epoch, per-mask full-price evaluations via the incremental
        // ascending-mask sweep (amortized two flips per subset).
        let mut full: Vec<Vec<(Hours, CostBreakdown)>> = Vec::with_capacity(epochs);
        let mut baselines = Vec::with_capacity(epochs);
        for model in &self.epochs {
            let problem = SelectionProblem::new(model.clone(), self.pool.clone());
            baselines.push(problem.baseline());
            let mut per_mask = Vec::with_capacity(size);
            crate::sweep::sweep_masks(&problem, 0, size as u64, |_, ev| {
                let e = ev.score();
                per_mask.push((e.time, e.breakdown));
            });
            full.push(per_mask);
        }

        // The charged evaluation of selecting `cur` after `prev` in
        // epoch `e`: the full-price evaluation with materialization
        // re-priced to the added set only.
        let charged = |e: usize, prev: usize, cur: usize| -> Evaluation {
            let (time, breakdown) = full[e][cur];
            Evaluation {
                time,
                breakdown: CostBreakdown {
                    compute_materialization: self.epochs[e].compute_cost(mat[cur & !prev]),
                    ..breakdown
                },
                selection: masks[cur].clone(),
            }
        };

        // value[cur] = (total violation, total objective) of the best
        // trajectory ending in `cur`; ties break toward the
        // first-visited predecessor, so the result is deterministic.
        let better = |a: (f64, f64), b: (f64, f64)| a.0 < b.0 || (a.0 == b.0 && a.1 < b.1);
        let mut value: Vec<(f64, f64)> = (0..size)
            .map(|cur| {
                let ev = charged(0, 0, cur);
                (
                    scenario.violation(&ev),
                    scenario.objective(&ev, &baselines[0]),
                )
            })
            .collect();
        let mut back: Vec<Vec<u32>> = Vec::with_capacity(epochs.saturating_sub(1));
        for (e, epoch_baseline) in baselines.iter().enumerate().skip(1) {
            let mut next = vec![(f64::INFINITY, f64::INFINITY); size];
            let mut prevptr = vec![0u32; size];
            for (prev, &base) in value.iter().enumerate() {
                for (cur, slot) in next.iter_mut().enumerate() {
                    let ev = charged(e, prev, cur);
                    let cand = (
                        base.0 + scenario.violation(&ev),
                        base.1 + scenario.objective(&ev, epoch_baseline),
                    );
                    if better(cand, *slot) {
                        *slot = cand;
                        prevptr[cur] = prev as u32;
                    }
                }
            }
            value = next;
            back.push(prevptr);
        }

        // Best terminal state, then backtrack the trajectory.
        let mut best = 0usize;
        for cur in 1..size {
            if better(value[cur], value[best]) {
                best = cur;
            }
        }
        let mut path = vec![best; epochs];
        for e in (1..epochs).rev() {
            path[e - 1] = back[e - 1][path[e]] as usize;
        }

        // Re-derive the chosen trajectory's evaluations exactly, through
        // the same charged problems the chain would bill.
        let mut evaluations = Vec::with_capacity(epochs);
        let mut total_violation = 0.0;
        let mut total_objective = 0.0;
        let mut prev_mask = 0usize;
        for (e, &cur) in path.iter().enumerate() {
            let mut charges = self.pool.clone();
            for k in masks[cur & prev_mask].ones() {
                charges[k] = self.pool[k].carried();
            }
            let problem = SelectionProblem::new(self.epochs[e].clone(), charges);
            let ev = problem.evaluate(&masks[cur]);
            total_violation += scenario.violation(&ev);
            total_objective += scenario.objective(&ev, &baselines[e]);
            evaluations.push(ev);
            prev_mask = cur;
        }
        DpSolution {
            selections: path.into_iter().map(|m| masks[m].clone()).collect(),
            evaluations,
            total_violation,
            total_objective,
        }
    }

    /// The exact finite-horizon optimum over the **joint** selection +
    /// placement state — the mixed-fleet counterpart of
    /// [`EpochChain::solve_dp_exact`]. Each candidate's per-epoch state
    /// is a trit (unselected / selected-reserved / selected-spot);
    /// transition `(s_prev → s)` charges materialization for every
    /// candidate selected in `s` that was not selected *on the same
    /// pool* in `s_prev` — exactly the fleet chain's transition
    /// accounting, where a placement move rebuilds the view. The value
    /// function minimizes total violation first, then total objective,
    /// as in [`Scenario::better`]'s lexicographic order.
    ///
    /// `reprice` has the [`EpochChain::solve_fleet_bounded`] contract
    /// plus the two properties the factored state tables rely on (both
    /// hold for every pool/risk transform): it scales materialization
    /// multiplicatively (zero in, zero out — so carried charges need no
    /// separate table) and never touches the answer profile (so the
    /// per-mask time table is placement-independent).
    ///
    /// This is the oracle that exposes the sequential chain's
    /// *lookahead* gap on placement: committing each epoch greedily,
    /// the chain parks a view on cheap spot capacity and only moves it
    /// when the crunch premium already bites, while the DP pre-places
    /// it on reserved ahead of the crunch (`tests/dp_oracle.rs` pins a
    /// strictly positive gap). State space is 3ⁿ per epoch, so the
    /// pool is capped at [`DP_FLEET_MAX_CANDIDATES`].
    pub fn solve_dp_fleet<F>(&self, scenario: Scenario, reprice: &F) -> DpFleetSolution
    where
        F: Fn(usize, usize, Placement, &ViewCharge) -> ViewCharge,
    {
        let n = self.pool.len();
        assert!(
            n <= DP_FLEET_MAX_CANDIDATES,
            "joint DP reference solver supports at most {DP_FLEET_MAX_CANDIDATES} candidates, got {n}"
        );
        let states: usize = 3usize.pow(n as u32);
        let epochs = self.epochs.len();
        let trit = |s: usize, k: usize| -> usize { s / 3usize.pow(k as u32) % 3 };
        let placement_of = |t: usize| -> Placement {
            match t {
                1 => Placement::Reserved,
                _ => Placement::Spot,
            }
        };
        let sel_mask = |s: usize| -> usize {
            (0..n).fold(0usize, |m, k| m | usize::from(trit(s, k) != 0) << k)
        };
        let masks: Vec<SelectionSet> = (0..1usize << n)
            .map(|m| SelectionSet::from_mask(m as u64, n))
            .collect();

        // Per-epoch effective full-price charges per (candidate, pool),
        // per-mask times (placement-independent: transforms never touch
        // answers), and per-state partial breakdowns.
        let mut eff: Vec<Vec<[ViewCharge; 2]>> = Vec::with_capacity(epochs);
        let mut times: Vec<Vec<Hours>> = Vec::with_capacity(epochs);
        let mut baselines = Vec::with_capacity(epochs);
        for (e, model) in self.epochs.iter().enumerate() {
            eff.push(
                (0..n)
                    .map(|k| {
                        [
                            reprice(e, k, Placement::Reserved, &self.pool[k]),
                            reprice(e, k, Placement::Spot, &self.pool[k]),
                        ]
                    })
                    .collect(),
            );
            let problem = SelectionProblem::new(model.clone(), self.pool.clone());
            baselines.push(problem.baseline());
            let mut per_mask = Vec::with_capacity(1usize << n);
            crate::sweep::sweep_masks(&problem, 0, 1u64 << n, |_, ev| {
                per_mask.push(ev.score().time);
            });
            times.push(per_mask);
        }
        let eff_of = |e: usize, k: usize, t: usize| &eff[e][k][usize::from(t == 2)];
        // partial[e][s]: the state's breakdown with materialization
        // zeroed (the only transition-dependent component).
        let mut partial: Vec<Vec<(Hours, CostBreakdown)>> = Vec::with_capacity(epochs);
        for (e, model) in self.epochs.iter().enumerate() {
            let mut per_state = Vec::with_capacity(states);
            for s in 0..states {
                let mut maint = Hours::ZERO;
                let mut size = mv_units::Gb::ZERO;
                for k in 0..n {
                    let t = trit(s, k);
                    if t != 0 {
                        let c = eff_of(e, k, t);
                        maint += c.maintenance;
                        size += c.size;
                    }
                }
                let time = times[e][sel_mask(s)];
                per_state.push((
                    time,
                    model.breakdown_from_totals(time, maint, Hours::ZERO, size),
                ));
            }
            partial.push(per_state);
        }

        // Charged evaluation of entering state `cur` from `prev`.
        let charged = |e: usize, prev: usize, cur: usize| -> Evaluation {
            let mut mat = Hours::ZERO;
            for k in 0..n {
                let t = trit(cur, k);
                if t != 0 && trit(prev, k) != t {
                    mat += eff_of(e, k, t).materialization;
                }
            }
            let (time, breakdown) = partial[e][cur];
            Evaluation {
                time,
                breakdown: CostBreakdown {
                    compute_materialization: self.epochs[e].compute_cost(mat),
                    ..breakdown
                },
                selection: masks[sel_mask(cur)].clone(),
            }
        };

        let better = |a: (f64, f64), b: (f64, f64)| a.0 < b.0 || (a.0 == b.0 && a.1 < b.1);
        let mut value: Vec<(f64, f64)> = (0..states)
            .map(|cur| {
                let ev = charged(0, 0, cur);
                (
                    scenario.violation(&ev),
                    scenario.objective(&ev, &baselines[0]),
                )
            })
            .collect();
        let mut back: Vec<Vec<u32>> = Vec::with_capacity(epochs.saturating_sub(1));
        for (e, epoch_baseline) in baselines.iter().enumerate().skip(1) {
            let mut next = vec![(f64::INFINITY, f64::INFINITY); states];
            let mut prevptr = vec![0u32; states];
            for (prev, &base) in value.iter().enumerate() {
                for (cur, slot) in next.iter_mut().enumerate() {
                    let ev = charged(e, prev, cur);
                    let cand = (
                        base.0 + scenario.violation(&ev),
                        base.1 + scenario.objective(&ev, epoch_baseline),
                    );
                    if better(cand, *slot) {
                        *slot = cand;
                        prevptr[cur] = prev as u32;
                    }
                }
            }
            value = next;
            back.push(prevptr);
        }
        let mut best = 0usize;
        for cur in 1..states {
            if better(value[cur], value[best]) {
                best = cur;
            }
        }
        let mut path = vec![best; epochs];
        for e in (1..epochs).rev() {
            path[e - 1] = back[e - 1][path[e]] as usize;
        }

        // Re-derive the chosen trajectory's evaluations exactly through
        // charged problems (the internal tallies only pick it).
        let mut evaluations = Vec::with_capacity(epochs);
        let mut placements = Vec::with_capacity(epochs);
        let mut total_violation = 0.0;
        let mut total_objective = 0.0;
        let mut prev_state = 0usize;
        for (e, &cur) in path.iter().enumerate() {
            let mut charges = self.pool.clone();
            let mut assignment = vec![Placement::Reserved; n];
            for (k, slot) in charges.iter_mut().enumerate() {
                let t = trit(cur, k);
                if t == 0 {
                    continue;
                }
                let p = placement_of(t);
                assignment[k] = p;
                let transition = if trit(prev_state, k) == t {
                    self.pool[k].carried()
                } else {
                    self.pool[k].clone()
                };
                let mut charge = reprice(e, k, p, &transition);
                charge.placement = p;
                *slot = charge;
            }
            let problem = SelectionProblem::new(self.epochs[e].clone(), charges);
            let ev = problem.evaluate(&masks[sel_mask(cur)]);
            total_violation += scenario.violation(&ev);
            total_objective += scenario.objective(&ev, &baselines[e]);
            evaluations.push(ev);
            placements.push(assignment);
            prev_state = cur;
        }
        DpFleetSolution {
            selections: path.iter().map(|&s| masks[sel_mask(s)].clone()).collect(),
            placements,
            evaluations,
            total_violation,
            total_objective,
        }
    }

    /// Solves a whole scenario *tree* of price trajectories in one
    /// pass — the Monte-Carlo hot path. `tree` factors K sampled paths
    /// into shared quote-prefixes (each [`EpochTreeNode`] carries the
    /// quote-repriced costing model for its epoch); this solver visits
    /// every node exactly once, warm-branching the incremental
    /// evaluator at split points. The horizon work is one evaluator
    /// build per *root* plus one [`IncrementalEvaluator::retarget`] +
    /// charge-splice pass per *edge* — instead of per path × epoch as
    /// the flat per-path loop ([`EpochChain::solve_repriced_bounded`])
    /// pays — and one [`IncrementalEvaluator::fork`] per extra sibling
    /// at each split (asserted in `tests/market_no_rebuild.rs`).
    ///
    /// `reprice(node, k, transition)` is the per-node analogue of the
    /// flat solver's `reprice(epoch, k, transition)`; `transition` is
    /// already the carry-aware charge. Returns one root→leaf
    /// `Vec<EpochStep>` per entry of [`EpochTree::leaves`],
    /// **bit-identical** to flat-solving each leaf's lineage as its own
    /// chain: a node's search trajectory depends only on its model, its
    /// effective charges and the selection it inherits — all shared
    /// along the prefix — so solving the prefix once and forking is
    /// exact, not approximate (pinned by the unit tests below and the
    /// workspace-level `tests/tree_identity.rs` proptests).
    ///
    /// `threads > 1` drains ready nodes from a shared work queue (a
    /// node becomes ready when its parent finishes); scheduling cannot
    /// change results, only wall-clock.
    pub fn solve_tree_threaded<F>(
        &self,
        scenario: Scenario,
        max_moves: usize,
        tree: &EpochTree,
        threads: usize,
        reprice: &F,
    ) -> Vec<Vec<EpochStep>>
    where
        F: Fn(usize, usize, &ViewCharge) -> ViewCharge + Sync,
    {
        self.validate_tree(tree);
        let n = self.pool.len();
        let solve = |idx: usize, inherited: Option<TreeState>| -> (EpochStep, TreeState) {
            mv_obs::span!("solve_tree/node");
            let node = &tree.nodes()[idx];
            mv_obs::inc(mv_obs::Counter::TreeNodeSolves);
            if node.parent.is_none() {
                mv_obs::inc(mv_obs::Counter::TreeRootSolves);
            }
            mv_obs::event(
                "tree_node_solve",
                &[("node", idx as f64), ("epoch", node.epoch as f64)],
            );
            let (mut ev, current, prev) = match inherited {
                None => {
                    let current: Vec<ViewCharge> = self
                        .pool
                        .iter()
                        .enumerate()
                        .map(|(k, c)| reprice(idx, k, c))
                        .collect();
                    let ev = IncrementalEvaluator::from_problem(SelectionProblem::new(
                        node.model.clone(),
                        current.clone(),
                    ));
                    (ev, current, SelectionSet::empty(n))
                }
                Some(state) => {
                    let TreeState {
                        mut ev,
                        mut current,
                        prev,
                    } = state;
                    ev.retarget(node.model.clone());
                    for (k, slot) in current.iter_mut().enumerate() {
                        let transition: std::borrow::Cow<'_, ViewCharge> = if prev.contains(k) {
                            std::borrow::Cow::Owned(self.pool[k].carried())
                        } else {
                            std::borrow::Cow::Borrowed(&self.pool[k])
                        };
                        let want = reprice(idx, k, transition.as_ref());
                        if want != *slot {
                            ev.update_charge(k, want.clone());
                            *slot = want;
                        }
                    }
                    (ev, current, prev)
                }
            };
            let baseline = ev.problem().baseline();
            if node.parent.is_none() {
                local_search::greedy_fill(&mut ev, scenario, &baseline);
            }
            let evaluation = local_search::improve(&mut ev, scenario, &baseline, max_moves);
            let step = self.step(
                &node.model,
                node.epoch,
                evaluation,
                baseline,
                &prev,
                scenario,
            );
            let next = step.selection().clone();
            (
                step,
                TreeState {
                    ev,
                    current,
                    prev: next,
                },
            )
        };
        let branch = |s: &TreeState| TreeState {
            ev: s.ev.fork(),
            current: s.current.clone(),
            prev: s.prev.clone(),
        };
        let node_steps = run_tree(tree, threads, solve, branch);
        collect_leaf_steps(tree, &node_steps)
    }

    /// [`EpochChain::solve_tree_threaded`] with the thread count picked
    /// from the machine and the tree's width (a degenerate chain stays
    /// serial inline).
    pub fn solve_tree_bounded<F>(
        &self,
        scenario: Scenario,
        max_moves: usize,
        tree: &EpochTree,
        reprice: &F,
    ) -> Vec<Vec<EpochStep>>
    where
        F: Fn(usize, usize, &ViewCharge) -> ViewCharge + Sync,
    {
        self.solve_tree_threaded(scenario, max_moves, tree, auto_tree_threads(tree), reprice)
    }

    /// [`EpochChain::solve_tree_bounded`] with the default per-epoch
    /// move budget — the tree counterpart of
    /// [`EpochChain::solve_repriced`].
    pub fn solve_tree<F>(
        &self,
        scenario: Scenario,
        tree: &EpochTree,
        reprice: &F,
    ) -> Vec<Vec<EpochStep>>
    where
        F: Fn(usize, usize, &ViewCharge) -> ViewCharge + Sync,
    {
        self.solve_tree_bounded(
            scenario,
            local_search::default_move_budget(self.pool.len()),
            tree,
            reprice,
        )
    }

    /// The mixed-fleet scenario-tree solve — the tree counterpart of
    /// [`EpochChain::solve_fleet_bounded`], with the same joint
    /// selection + placement semantics per node and the same
    /// one-solve-per-node accounting as
    /// [`EpochChain::solve_tree_threaded`]. Placement state branches
    /// with the evaluator, so sibling subtrees rebalance independently.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_tree_fleet_threaded<F>(
        &self,
        scenario: Scenario,
        max_moves: usize,
        tree: &EpochTree,
        threads: usize,
        initial: &[Placement],
        rebalance: bool,
        reprice: &F,
    ) -> Vec<Vec<EpochStep>>
    where
        F: Fn(usize, usize, Placement, &ViewCharge) -> ViewCharge + Sync,
    {
        self.validate_tree(tree);
        let n = self.pool.len();
        assert_eq!(initial.len(), n, "initial placements must cover the pool");
        let effective = |node: usize, k: usize, p: Placement, carried: bool| -> ViewCharge {
            let transition = if carried {
                self.pool[k].carried()
            } else {
                self.pool[k].clone()
            };
            let mut charge = reprice(node, k, p, &transition);
            charge.placement = p;
            charge
        };
        let solve =
            |idx: usize, inherited: Option<TreeFleetState>| -> (EpochStep, TreeFleetState) {
                mv_obs::span!("solve_tree/node");
                let node = &tree.nodes()[idx];
                mv_obs::inc(mv_obs::Counter::TreeNodeSolves);
                if node.parent.is_none() {
                    mv_obs::inc(mv_obs::Counter::TreeRootSolves);
                }
                mv_obs::event(
                    "tree_node_solve",
                    &[("node", idx as f64), ("epoch", node.epoch as f64)],
                );
                let (mut ev, mut current, prev, mut placements) = match inherited {
                    None => {
                        let placements: Vec<Placement> = initial.to_vec();
                        let current: Vec<ViewCharge> = (0..n)
                            .map(|k| effective(idx, k, placements[k], false))
                            .collect();
                        let ev = IncrementalEvaluator::from_problem(SelectionProblem::new(
                            node.model.clone(),
                            current.clone(),
                        ));
                        (ev, current, SelectionSet::empty(n), placements)
                    }
                    Some(state) => {
                        let TreeFleetState {
                            mut ev,
                            mut current,
                            prev,
                            placements,
                        } = state;
                        ev.retarget(node.model.clone());
                        for (k, slot) in current.iter_mut().enumerate() {
                            let want = effective(idx, k, placements[k], prev.contains(k));
                            if want != *slot {
                                ev.update_charge(k, want.clone());
                                *slot = want;
                            }
                        }
                        (ev, current, prev, placements)
                    }
                };
                let baseline = ev.problem().baseline();
                if node.parent.is_none() {
                    local_search::greedy_fill(&mut ev, scenario, &baseline);
                }
                // Carried-ness during the search keys off the node's *entry*
                // state, exactly as the flat fleet solver does per epoch.
                let entry_place = placements.clone();
                let evaluation = if rebalance {
                    let entry_prev = prev.clone();
                    let charge_for = |k: usize, p: Placement| -> ViewCharge {
                        effective(idx, k, p, entry_prev.contains(k) && p == entry_place[k])
                    };
                    let ev_ = local_search::improve_joint(
                        &mut ev,
                        scenario,
                        &baseline,
                        max_moves,
                        &mut placements,
                        &charge_for,
                    );
                    current.clone_from_slice(ev.problem().candidates());
                    ev_
                } else {
                    local_search::improve(&mut ev, scenario, &baseline, max_moves)
                };
                let step = self.step_with_placements(
                    &node.model,
                    node.epoch,
                    evaluation,
                    baseline,
                    &prev,
                    &entry_place,
                    placements.clone(),
                    scenario,
                );
                let next = step.selection().clone();
                (
                    step,
                    TreeFleetState {
                        ev,
                        current,
                        prev: next,
                        placements,
                    },
                )
            };
        let branch = |s: &TreeFleetState| TreeFleetState {
            ev: s.ev.fork(),
            current: s.current.clone(),
            prev: s.prev.clone(),
            placements: s.placements.clone(),
        };
        let node_steps = run_tree(tree, threads, solve, branch);
        collect_leaf_steps(tree, &node_steps)
    }

    /// [`EpochChain::solve_tree_fleet_threaded`] with the thread count
    /// picked from the machine and the tree's width.
    pub fn solve_tree_fleet_bounded<F>(
        &self,
        scenario: Scenario,
        max_moves: usize,
        tree: &EpochTree,
        initial: &[Placement],
        rebalance: bool,
        reprice: &F,
    ) -> Vec<Vec<EpochStep>>
    where
        F: Fn(usize, usize, Placement, &ViewCharge) -> ViewCharge + Sync,
    {
        self.solve_tree_fleet_threaded(
            scenario,
            max_moves,
            tree,
            auto_tree_threads(tree),
            initial,
            rebalance,
            reprice,
        )
    }

    /// [`EpochChain::solve_tree_fleet_bounded`] with the default
    /// per-epoch move budget — the tree counterpart of
    /// [`EpochChain::solve_fleet`].
    pub fn solve_tree_fleet<F>(
        &self,
        scenario: Scenario,
        tree: &EpochTree,
        initial: &[Placement],
        rebalance: bool,
        reprice: &F,
    ) -> Vec<Vec<EpochStep>>
    where
        F: Fn(usize, usize, Placement, &ViewCharge) -> ViewCharge + Sync,
    {
        self.solve_tree_fleet_bounded(
            scenario,
            local_search::default_move_budget(self.pool.len()),
            tree,
            initial,
            rebalance,
            reprice,
        )
    }

    /// Validates a scenario tree against this chain: every node model
    /// must cover the chain's query universe (that is what keeps the
    /// branched evaluators' answer caches valid across
    /// [`IncrementalEvaluator::retarget`]), node epochs must fit the
    /// horizon, and every leaf must sit at the final epoch.
    fn validate_tree(&self, tree: &EpochTree) {
        let m = self.epochs[0].context().workload.len();
        for (idx, node) in tree.nodes().iter().enumerate() {
            assert!(
                node.epoch < self.len(),
                "tree node {idx} at epoch {} exceeds the {}-epoch horizon",
                node.epoch,
                self.len()
            );
            assert_eq!(
                node.model.context().workload.len(),
                m,
                "tree node {idx} has a different workload length"
            );
        }
        for &leaf in tree.leaves() {
            assert_eq!(
                tree.nodes()[leaf].epoch,
                self.len() - 1,
                "leaf {leaf} must sit at the final epoch"
            );
        }
    }

    /// Assembles one epoch's step: transition accounting against the
    /// previous selection plus the full-price reference evaluation.
    /// Single-fleet solvers: every candidate keeps its pool charge's
    /// own placement, so the `moved` partition is always empty.
    /// `model` is the epoch's *effective* costing model — the chain's
    /// own epoch model on the flat solvers, the node's quote-repriced
    /// model on the tree solvers.
    fn step(
        &self,
        model: &CloudCostModel,
        epoch: usize,
        evaluation: Evaluation,
        baseline: Evaluation,
        prev: &SelectionSet,
        scenario: Scenario,
    ) -> EpochStep {
        let placements: Vec<Placement> = self.pool.iter().map(|c| c.placement).collect();
        self.step_with_placements(
            model,
            epoch,
            evaluation,
            baseline,
            prev,
            &placements.clone(),
            placements,
            scenario,
        )
    }

    /// [`EpochChain::step`] with explicit placement state: a candidate
    /// selected in both epochs whose placement changed is classified
    /// `moved` (it re-paid materialization on the new pool) instead of
    /// `kept`.
    #[allow(clippy::too_many_arguments)]
    fn step_with_placements(
        &self,
        model: &CloudCostModel,
        epoch: usize,
        evaluation: Evaluation,
        baseline: Evaluation,
        prev: &SelectionSet,
        prev_placements: &[Placement],
        placements: Vec<Placement>,
        scenario: Scenario,
    ) -> EpochStep {
        let selection = evaluation.selection.clone();
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
        // from scratch (property-tested in tests/horizon_consistency.rs)
        // — instead of rebuilding and re-evaluating a problem per epoch.
        let full_materialization: Hours =
            selection.ones().map(|k| self.pool[k].materialization).sum();
        let full_price = Evaluation {
            time: evaluation.time,
            breakdown: CostBreakdown {
                compute_materialization: model.compute_cost(full_materialization),
                ..evaluation.breakdown
            },
            selection: selection.clone(),
        };
        EpochStep {
            outcome: Outcome::new(evaluation, baseline, scenario, SolverKind::LocalSearch),
            full_price,
            added,
            kept,
            dropped,
            moved,
            placements,
        }
    }
}

/// One node of an [`EpochTree`]: a distinct price-prefix of some
/// Monte-Carlo path, carrying its own (quote-repriced) costing model
/// for the epoch it sits at.
#[derive(Debug, Clone)]
pub struct EpochTreeNode {
    /// The previous epoch's node; `None` for a root (epoch-0 node).
    pub parent: Option<usize>,
    /// The epoch this node prices.
    pub epoch: usize,
    /// The node's effective costing model — same query universe as the
    /// chain, pricing already repriced to the node's quote.
    pub model: CloudCostModel,
}

/// A prefix forest over Monte-Carlo price paths, in solver terms: each
/// node is one epoch-solve, each edge one warm evaluator transition.
/// `mv-market`'s `ScenarioTree` compiles into this (the driver attaches
/// the quote-repriced models); this crate stays market-agnostic.
///
/// Nodes are stored parent-before-child, so index order is a valid
/// (serial) schedule and any parent-completes-first schedule yields the
/// same results.
#[derive(Debug, Clone)]
pub struct EpochTree {
    nodes: Vec<EpochTreeNode>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
    leaves: Vec<usize>,
    width: usize,
}

impl EpochTree {
    /// Builds a tree from parent-linked nodes plus the leaf node each
    /// requested path ends at (duplicates allowed: identical sampled
    /// paths share a leaf).
    ///
    /// # Panics
    /// Panics unless nodes are stored parent-before-child, roots sit at
    /// epoch 0, every child sits one epoch below its parent, and every
    /// leaf sits at one common final epoch.
    pub fn new(nodes: Vec<EpochTreeNode>, leaves: Vec<usize>) -> EpochTree {
        assert!(!nodes.is_empty(), "an epoch tree needs at least one node");
        assert!(!leaves.is_empty(), "an epoch tree needs at least one leaf");
        let mut children = vec![Vec::new(); nodes.len()];
        let mut roots = Vec::new();
        let mut per_epoch: Vec<usize> = Vec::new();
        for (idx, node) in nodes.iter().enumerate() {
            match node.parent {
                None => {
                    assert_eq!(node.epoch, 0, "root node {idx} must sit at epoch 0");
                    roots.push(idx);
                }
                Some(p) => {
                    assert!(p < idx, "node {idx} must be stored after its parent {p}");
                    assert_eq!(
                        node.epoch,
                        nodes[p].epoch + 1,
                        "node {idx} must sit one epoch below its parent"
                    );
                    children[p].push(idx);
                }
            }
            if node.epoch >= per_epoch.len() {
                per_epoch.resize(node.epoch + 1, 0);
            }
            per_epoch[node.epoch] += 1;
        }
        for &l in &leaves {
            assert!(l < nodes.len(), "leaf {l} out of {} nodes", nodes.len());
        }
        let last = nodes[leaves[0]].epoch;
        for &l in &leaves {
            assert_eq!(
                nodes[l].epoch, last,
                "every leaf must sit at the same final epoch"
            );
        }
        let width = per_epoch.iter().copied().max().unwrap_or(1);
        EpochTree {
            nodes,
            children,
            roots,
            leaves,
            width,
        }
    }

    /// Every node, parent-before-child.
    pub fn nodes(&self) -> &[EpochTreeNode] {
        &self.nodes
    }

    /// The children of node `idx`, ascending.
    pub fn children(&self, idx: usize) -> &[usize] {
        &self.children[idx]
    }

    /// The epoch-0 nodes — each costs one fresh evaluator build.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// The leaf node of each requested path, in request order.
    pub fn leaves(&self) -> &[usize] {
        &self.leaves
    }

    /// Total node count — the number of epoch-solves a tree solve
    /// performs (vs `paths × epochs` for the flat loop).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the tree has no nodes (never constructible via
    /// [`EpochTree::new`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Edge count (nodes minus roots) — the number of warm
    /// retarget+splice transitions a tree solve pays.
    pub fn edges(&self) -> usize {
        self.nodes.len() - self.roots.len()
    }

    /// The widest epoch's node count — the maximum useful worker count.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The root→leaf node chain ending at `leaf`, in epoch order.
    pub fn lineage(&self, leaf: usize) -> Vec<usize> {
        let mut chain = Vec::new();
        let mut at = Some(leaf);
        while let Some(i) = at {
            chain.push(i);
            at = self.nodes[i].parent;
        }
        chain.reverse();
        chain
    }
}

/// Per-branch solver state threaded through [`run_tree`] by the
/// single-fleet tree solve.
struct TreeState {
    ev: IncrementalEvaluator<'static>,
    current: Vec<ViewCharge>,
    prev: SelectionSet,
}

/// [`TreeState`] plus the standing placement assignment, for the fleet
/// tree solve.
struct TreeFleetState {
    ev: IncrementalEvaluator<'static>,
    current: Vec<ViewCharge>,
    prev: SelectionSet,
    placements: Vec<Placement>,
}

/// Thread count for a tree solve: one worker per unit of maximum tree
/// width, capped by the machine. A degenerate chain (width 1) stays
/// serial inline, paying no scope setup.
fn auto_tree_threads(tree: &EpochTree) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |t| t.get())
        .min(tree.width())
}

/// Clones each leaf's root→leaf step chain out of the per-node results.
fn collect_leaf_steps(tree: &EpochTree, node_steps: &[EpochStep]) -> Vec<Vec<EpochStep>> {
    tree.leaves()
        .iter()
        .map(|&leaf| {
            tree.lineage(leaf)
                .into_iter()
                .map(|i| node_steps[i].clone())
                .collect()
        })
        .collect()
}

/// Solves every tree node exactly once, parents before children,
/// handing each node's post-solve state to its children: the last
/// child takes it by move, earlier siblings get a `branch` fork.
/// Returns one [`EpochStep`] per node, in node order.
///
/// With `threads <= 1` this is a plain forward pass (nodes are stored
/// parent-before-child). Otherwise `threads` workers drain a shared
/// ready queue under a mutex + condvar — a node enters the queue the
/// moment its parent finishes. Results are schedule-independent: a
/// node's inputs come only from its parent.
fn run_tree<S, Solve, Branch>(
    tree: &EpochTree,
    threads: usize,
    solve: Solve,
    branch: Branch,
) -> Vec<EpochStep>
where
    S: Send,
    Solve: Fn(usize, Option<S>) -> (EpochStep, S) + Sync,
    Branch: Fn(&S) -> S + Sync,
{
    let len = tree.len();
    if mv_obs::enabled() {
        // Branch-width telemetry (a width-w split pays w-1 forks).
        for i in 0..len {
            let width = tree.children(i).len();
            if width >= 2 {
                mv_obs::record(mv_obs::Hist::TreeForkWidth, width as u64);
            }
        }
    }
    let mut inbox: Vec<Option<S>> = (0..len).map(|_| None).collect();
    if threads <= 1 {
        let mut steps = Vec::with_capacity(len);
        for i in 0..len {
            let (step, state) = solve(i, inbox[i].take());
            steps.push(step);
            if let Some((&last, rest)) = tree.children(i).split_last() {
                for &c in rest {
                    inbox[c] = Some(branch(&state));
                }
                inbox[last] = Some(state);
            }
        }
        return steps;
    }

    use std::collections::VecDeque;
    use std::sync::{Condvar, Mutex};
    struct Board<S> {
        queue: VecDeque<usize>,
        inbox: Vec<Option<S>>,
        steps: Vec<Option<EpochStep>>,
        done: usize,
    }
    let board = Mutex::new(Board {
        queue: tree.roots().iter().copied().collect(),
        inbox,
        steps: (0..len).map(|_| None).collect(),
        done: 0,
    });
    let ready = Condvar::new();
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let (i, inherited) = {
                    let mut b = board.lock().expect("tree board poisoned");
                    loop {
                        if b.done == len {
                            return;
                        }
                        if let Some(i) = b.queue.pop_front() {
                            let inherited = b.inbox[i].take();
                            break (i, inherited);
                        }
                        b = ready.wait(b).expect("tree board poisoned");
                    }
                };
                let (step, state) = solve(i, inherited);
                // Fork outside the lock: sibling hand-offs are the
                // expensive part of a split.
                let kids = tree.children(i);
                let mut ship: Vec<(usize, S)> = Vec::with_capacity(kids.len());
                if let Some((&last, rest)) = kids.split_last() {
                    for &c in rest {
                        ship.push((c, branch(&state)));
                    }
                    ship.push((last, state));
                }
                let mut b = board.lock().expect("tree board poisoned");
                b.steps[i] = Some(step);
                b.done += 1;
                for (c, s) in ship {
                    b.inbox[c] = Some(s);
                    b.queue.push_back(c);
                }
                drop(b);
                ready.notify_all();
            });
        }
    })
    .expect("tree solve scope failed");
    board
        .into_inner()
        .expect("tree board poisoned")
        .steps
        .into_iter()
        .map(|s| s.expect("every tree node solved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_like_problem;

    /// `epochs` identical copies of the paper-like problem's model.
    fn flat_chain(epochs: usize) -> EpochChain {
        let p = paper_like_problem();
        EpochChain::new(vec![p.model().clone(); epochs], p.candidates().to_vec())
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
            let rebuilt = chain.solve_rebuilding(scenario);
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
        // A per-epoch transform shaped like the market's interruption
        // premium: build/refresh inflate with the epoch, answers don't.
        let reprice = |e: usize, _k: usize, c: &ViewCharge| -> ViewCharge {
            let attempts = 1.0 + 0.15 * e as f64;
            ViewCharge {
                materialization: c.materialization * attempts,
                maintenance: c.maintenance * attempts,
                ..c.clone()
            }
        };
        let budget = crate::local_search::default_move_budget(chain.pool().len());
        for scenario in [
            Scenario::tradeoff(0.02),
            Scenario::tradeoff_normalized(0.5),
            Scenario::time_limit(Hours::new(20.0)),
        ] {
            let warm = chain.solve_repriced(scenario, &reprice);
            let rebuilt = chain.solve_repriced_rebuilding_bounded(scenario, budget, &reprice);
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
    fn identity_reprice_is_solve_bounded_bit_for_bit() {
        let chain = drifting_chain(4);
        for scenario in [Scenario::tradeoff(0.02), Scenario::tradeoff_normalized(0.5)] {
            let plain = chain.solve(scenario);
            let repriced = chain.solve_repriced(scenario, &|_, _, c| c.clone());
            for (e, (p, r)) in plain.iter().zip(&repriced).enumerate() {
                assert_eq!(p.outcome.evaluation, r.outcome.evaluation, "epoch {e}");
                assert_eq!(p.full_price, r.full_price, "epoch {e}");
            }
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
                charged[k] = chain.pool()[k].carried();
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

    /// A fleet transform shaped like the market's: spot work rides a
    /// per-epoch rate factor and an interruption premium, reserved work
    /// bills at the primary sheet.
    fn fleet_reprice(
        spot_factor: &'static [f64],
        spot_attempts: &'static [f64],
    ) -> impl Fn(usize, usize, Placement, &ViewCharge) -> ViewCharge {
        move |e, _k, p, c| match p {
            Placement::Reserved => c.clone(),
            Placement::Spot => ViewCharge {
                materialization: c.materialization * (spot_factor[e] * spot_attempts[e]),
                maintenance: c.maintenance * (spot_factor[e] * spot_attempts[e]),
                ..c.clone()
            },
        }
    }

    #[test]
    fn fleet_warm_start_matches_rebuild_bit_for_bit() {
        let chain = drifting_chain(5);
        let factors: &[f64] = &[0.4, 0.5, 0.9, 0.6, 0.4];
        let attempts: &[f64] = &[1.0, 1.5, 2.0, 1.25, 1.0];
        let reprice = fleet_reprice(factors, attempts);
        let initial = vec![Placement::Reserved; chain.pool().len()];
        let budget = crate::local_search::default_move_budget(chain.pool().len());
        for scenario in [
            Scenario::tradeoff(0.02),
            Scenario::tradeoff_normalized(0.5),
            Scenario::time_limit(Hours::new(20.0)),
        ] {
            for rebalance in [false, true] {
                let warm =
                    chain.solve_fleet_bounded(scenario, budget, &initial, rebalance, &reprice);
                let rebuilt = chain.solve_fleet_rebuilding_bounded(
                    scenario, budget, &initial, rebalance, &reprice,
                );
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
    fn pinned_fleet_is_solve_repriced_bit_for_bit() {
        // A fleet that cannot rebalance, with every view on the primary
        // pool, is the single-fleet repriced chain exactly — the
        // degenerate case the workspace-level conformance tests extend
        // to `Advisor::solve_market`.
        let chain = drifting_chain(4);
        let n = chain.pool().len();
        let attempts: &[f64] = &[1.0, 1.6, 2.2, 1.3];
        let single = |e: usize, _k: usize, c: &ViewCharge| -> ViewCharge {
            ViewCharge {
                materialization: c.materialization * attempts[e],
                maintenance: c.maintenance * attempts[e],
                ..c.clone()
            }
        };
        let fleet = move |e: usize, k: usize, _p: Placement, c: &ViewCharge| single(e, k, c);
        for scenario in [Scenario::tradeoff(0.02), Scenario::tradeoff_normalized(0.5)] {
            let plain = chain.solve_repriced(scenario, &single);
            let pinned = chain.solve_fleet(scenario, &vec![Placement::Reserved; n], false, &fleet);
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
                    inserts: vec![],
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
        let n = chain.pool().len();
        let factors: &[f64] = &[0.4, 0.4, 0.4];
        let attempts: &[f64] = &[1.0, 1.0, 1.0];
        let reprice = fleet_reprice(factors, attempts);
        let counters = mv_obs::CounterGuard::scoped();
        let steps = chain.solve_fleet(
            Scenario::tradeoff(0.02),
            &vec![Placement::Reserved; n],
            true,
            &reprice,
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
        let pinned = chain.solve_fleet(
            Scenario::tradeoff(0.02),
            &vec![Placement::Reserved; n],
            false,
            &reprice,
        );
        assert!(horizon_cost(&steps) < horizon_cost(&pinned));
    }

    #[test]
    fn placement_moves_repay_materialization() {
        // Epoch 0 spot is cheap; from epoch 1 a crunch inflates spot
        // work 8×. The chain moves the resident views to reserved at
        // the boundary — classified `moved`, re-paying materialization.
        let chain = hot_chain(3);
        let n = chain.pool().len();
        let factors: &[f64] = &[0.2, 1.0, 1.0];
        let attempts: &[f64] = &[1.0, 8.0, 8.0];
        let reprice = fleet_reprice(factors, attempts);
        let steps = chain.solve_fleet(
            Scenario::tradeoff(0.02),
            &vec![Placement::Spot; n],
            true,
            &reprice,
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
        // With both pools charging identically, the joint DP must land
        // on the selection-only DP's numbers.
        let p = paper_like_problem();
        let chain = EpochChain::new(vec![p.model().clone(); 3], p.candidates().to_vec());
        let scenario = Scenario::tradeoff_normalized(0.5);
        let dp = chain.solve_dp_exact(scenario);
        let joint = chain.solve_dp_fleet(scenario, &|_, _, _, c| c.clone());
        assert_eq!(joint.total_violation, dp.total_violation);
        assert_eq!(joint.total_objective, dp.total_objective);
        assert_eq!(joint.total_cost(), dp.total_cost());
        for (e, (a, b)) in joint.selections.iter().zip(&dp.selections).enumerate() {
            assert_eq!(a, b, "epoch {e}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 6 candidates")]
    fn dp_fleet_rejects_oversized_pools() {
        let p = crate::fixtures::random_problem(1, 3, 7);
        let chain = EpochChain::new(vec![p.model().clone()], p.candidates().to_vec());
        chain.solve_dp_fleet(Scenario::tradeoff_normalized(0.5), &|_, _, _, c| c.clone());
    }

    #[test]
    #[should_panic(expected = "initial placements must cover")]
    fn fleet_initial_must_align() {
        let chain = flat_chain(2);
        chain.solve_fleet(
            Scenario::tradeoff(0.02),
            &[Placement::Spot],
            true,
            &|_, _, _, c: &ViewCharge| c.clone(),
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

    /// A 3-leaf, 7-node tree over a 4-epoch drifting chain: paths share
    /// epochs 0–1, split at epoch 2 (two branches), and branch B splits
    /// again at epoch 3.
    ///
    /// ```text
    ///   0 ── 1 ──┬── 2 ─── 4          leaves: [4, 5, 6]
    ///            └── 3 ──┬─ 5
    ///                    └─ 6
    /// ```
    fn branchy_tree(chain: &EpochChain) -> EpochTree {
        let m = chain.epochs();
        let node = |parent: Option<usize>, epoch: usize, delta: f64| EpochTreeNode {
            parent,
            epoch,
            model: perturbed(&m[epoch], delta),
        };
        EpochTree::new(
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
        )
    }

    /// The flat per-path reference for one leaf: its lineage solved as
    /// a stand-alone chain with the node-indexed reprice mapped down to
    /// epochs.
    fn lineage_chain(
        chain: &EpochChain,
        tree: &EpochTree,
        leaf: usize,
    ) -> (EpochChain, Vec<usize>) {
        let lineage = tree.lineage(leaf);
        let models: Vec<CloudCostModel> = lineage
            .iter()
            .map(|&i| tree.nodes()[i].model.clone())
            .collect();
        (EpochChain::new(models, chain.pool().to_vec()), lineage)
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
        let chain = drifting_chain(4);
        let tree = branchy_tree(&chain);
        // A per-node transform shaped like the market's interruption
        // premium, keyed on the node's epoch so the flat reference can
        // reproduce it exactly.
        let attempts = |e: usize| 1.0 + 0.2 * e as f64;
        let tree_reprice = |node: usize, _k: usize, c: &ViewCharge| -> ViewCharge {
            let a = attempts(tree.nodes()[node].epoch);
            ViewCharge {
                materialization: c.materialization * a,
                maintenance: c.maintenance * a,
                ..c.clone()
            }
        };
        for scenario in [
            Scenario::tradeoff(0.02),
            Scenario::tradeoff_normalized(0.5),
            Scenario::time_limit(Hours::new(20.0)),
        ] {
            let solved = chain.solve_tree(scenario, &tree, &tree_reprice);
            assert_eq!(solved.len(), tree.leaves().len());
            for (j, &leaf) in tree.leaves().iter().enumerate() {
                let (flat, _) = lineage_chain(&chain, &tree, leaf);
                let reference = flat.solve_repriced(scenario, &|e, _k, c: &ViewCharge| {
                    let a = attempts(e);
                    ViewCharge {
                        materialization: c.materialization * a,
                        maintenance: c.maintenance * a,
                        ..c.clone()
                    }
                });
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
        let chain = drifting_chain(4);
        let tree = branchy_tree(&chain);
        let n = chain.pool().len();
        let initial = vec![Placement::Reserved; n];
        // Spot factor keyed on the node's epoch (so the flat reference
        // can reproduce it) with enough spread to force rebalancing.
        let spot = |e: usize| [0.4, 0.5, 0.9, 0.45][e];
        let tree_reprice = |node: usize, _k: usize, p: Placement, c: &ViewCharge| -> ViewCharge {
            match p {
                Placement::Reserved => c.clone(),
                Placement::Spot => {
                    let f = spot(tree.nodes()[node].epoch);
                    ViewCharge {
                        materialization: c.materialization * f,
                        maintenance: c.maintenance * f,
                        ..c.clone()
                    }
                }
            }
        };
        let flat_reprice = |e: usize, _k: usize, p: Placement, c: &ViewCharge| -> ViewCharge {
            match p {
                Placement::Reserved => c.clone(),
                Placement::Spot => ViewCharge {
                    materialization: c.materialization * spot(e),
                    maintenance: c.maintenance * spot(e),
                    ..c.clone()
                },
            }
        };
        for scenario in [Scenario::tradeoff(0.02), Scenario::tradeoff_normalized(0.5)] {
            for rebalance in [false, true] {
                let solved =
                    chain.solve_tree_fleet(scenario, &tree, &initial, rebalance, &tree_reprice);
                for (j, &leaf) in tree.leaves().iter().enumerate() {
                    let (flat, _) = lineage_chain(&chain, &tree, leaf);
                    let reference = flat.solve_fleet(scenario, &initial, rebalance, &flat_reprice);
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
        let chain = drifting_chain(4);
        let tree = branchy_tree(&chain);
        let scenario = Scenario::tradeoff_normalized(0.5);
        let budget = crate::local_search::default_move_budget(chain.pool().len());
        let serial =
            chain.solve_tree_threaded(scenario, budget, &tree, 1, &|_, _, c: &ViewCharge| {
                c.clone()
            });
        for threads in [2, 4] {
            let parallel = chain.solve_tree_threaded(
                scenario,
                budget,
                &tree,
                threads,
                &|_, _, c: &ViewCharge| c.clone(),
            );
            for (j, (s, p)) in serial.iter().zip(&parallel).enumerate() {
                assert_steps_eq(s, p, &format!("leaf {j} threads={threads}"));
            }
        }
        let n = chain.pool().len();
        let initial = vec![Placement::Reserved; n];
        let fleet = |_: usize, _: usize, p: Placement, c: &ViewCharge| -> ViewCharge {
            match p {
                Placement::Reserved => c.clone(),
                Placement::Spot => ViewCharge {
                    materialization: c.materialization * 0.4,
                    maintenance: c.maintenance * 0.4,
                    ..c.clone()
                },
            }
        };
        let serial_fleet =
            chain.solve_tree_fleet_threaded(scenario, budget, &tree, 1, &initial, true, &fleet);
        let parallel_fleet =
            chain.solve_tree_fleet_threaded(scenario, budget, &tree, 4, &initial, true, &fleet);
        for (j, (s, p)) in serial_fleet.iter().zip(&parallel_fleet).enumerate() {
            assert_steps_eq(s, p, &format!("fleet leaf {j}"));
        }
    }

    #[test]
    fn degenerate_chain_tree_reproduces_solve() {
        // A deterministic market's tree is a single chain: the tree
        // solve must be `solve` exactly, for every leaf alias.
        let chain = drifting_chain(4);
        let nodes: Vec<EpochTreeNode> = (0..4)
            .map(|e| EpochTreeNode {
                parent: (e > 0).then(|| e - 1),
                epoch: e,
                model: chain.epochs()[e].clone(),
            })
            .collect();
        let tree = EpochTree::new(nodes, vec![3, 3, 3]);
        assert_eq!(tree.edges(), 3);
        assert_eq!(tree.width(), 1);
        let scenario = Scenario::tradeoff(0.02);
        let solved = chain.solve_tree(scenario, &tree, &|_, _, c: &ViewCharge| c.clone());
        let reference = chain.solve(scenario);
        for (j, steps) in solved.iter().enumerate() {
            assert_steps_eq(steps, &reference, &format!("alias {j}"));
        }
    }

    #[test]
    #[should_panic(expected = "one epoch below its parent")]
    fn tree_rejects_epoch_gaps() {
        let chain = flat_chain(3);
        let node = |parent: Option<usize>, epoch: usize| EpochTreeNode {
            parent,
            epoch,
            model: chain.epochs()[epoch].clone(),
        };
        EpochTree::new(vec![node(None, 0), node(Some(0), 2)], vec![1]);
    }

    #[test]
    #[should_panic(expected = "final epoch")]
    fn tree_leaves_must_reach_the_horizon() {
        let chain = flat_chain(3);
        let node = |parent: Option<usize>, epoch: usize| EpochTreeNode {
            parent,
            epoch,
            model: chain.epochs()[epoch].clone(),
        };
        let tree = EpochTree::new(vec![node(None, 0), node(Some(0), 1)], vec![1]);
        chain.solve_tree(Scenario::tradeoff(0.02), &tree, &|_, _, c: &ViewCharge| {
            c.clone()
        });
    }
}
