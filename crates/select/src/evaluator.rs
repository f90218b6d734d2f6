//! Incremental evaluation of single-candidate selection changes.
//!
//! Every solver probes neighbors of a current selection: "what happens
//! if view `k` is flipped on (or off)?" Answering through
//! [`SelectionProblem::evaluate`] recomputes the full interaction model —
//! O(m + Σ deg) over the selected views' profiles, for m workload
//! queries — per probe, which makes greedy O(n·(m + Σ deg)) per pass
//! and exhaustive O(2ⁿ·(m + Σ deg)).
//!
//! [`IncrementalEvaluator`] caches, per workload query, the fastest
//! selected view **and the runner-up**. A flip then touches only the
//! queries the flipped view can answer:
//!
//! * flipping **on** is a constant-time best/second update per affected
//!   query — O(deg) for a view answering `deg` queries;
//! * flipping **off** falls back to the cached runner-up, and only
//!   rescans a query's answer list when the flipped view was one of its
//!   two fastest.
//!
//! # Sparse struct-of-arrays layout
//!
//! At production scale (n = 2 000 candidates, m = 50 000 queries) most
//! views answer a handful of queries, so every table here is sparse and
//! flat. The answer index is two CSR arenas, built once per evaluator
//! in O(Σ deg + m) plus the per-query sorts and never written after:
//!
//! * **by view** — two parallel `Vec`s of query ids and times, with a
//!   `(start, len)` span per view — so a flip walks one contiguous
//!   slice, no per-view `Vec` pointer chasing;
//! * **by query** — its transpose: `m + 1` offsets into two parallel
//!   `Vec`s of view ids and times, each query's answerers ordered
//!   fastest first (equal times in ascending view order). A runner-up
//!   rescan returns the first selected entry that is not the current
//!   best: exact by construction, at the cost of the entries before
//!   it — at most the query's answerer count, and one or two when the
//!   selection holds its fast views, as a search's does;
//! * the best/runner-up cache is four parallel arrays, not an
//!   array-of-structs.
//!
//! # Dirty-delta snapshots
//!
//! [`IncrementalEvaluator::score`] (and [`IncrementalEvaluator::snapshot`],
//! which is `score` plus a handle on the selection) prices the current
//! selection from the cached per-query minima through the canonical
//! blocked processing-time fold (`mv_cost::TIME_FOLD_BLOCK`-wide partial
//! sums): flips mark only the blocks whose best view changed, and a
//! score refolds just those. Its cost, honestly itemized, is
//! **O(n/64 + selected + m/B + B·dirty)**: the word-wise walk of the
//! selection bitset, one pass over the selected views' charges
//! (maintenance, materialization, size — folded in ascending candidate
//! order from zero, so they cannot be kept as running sums), the
//! in-order total of the m/B block sums (a dependent add chain: the
//! floor of a probe at large m), and B adds per dirty block
//! ([`IncrementalEvaluator::snapshot_cold`] keeps the full
//! O(n/64 + selected + m) fold as the benchmark reference). Every fold
//! runs in exactly the same order as [`SelectionProblem::evaluate`],
//! and the four totals become a bill through the same
//! `CloudCostModel::breakdown_from_totals` call, so scores are
//! **bit-identical** to full re-evaluations — property-tested in
//! `tests/evaluator_matches.rs`.
//!
//! # Probes
//!
//! Every solver tier ranks neighbours of its current selection, and
//! keeps at most one of thousands. [`IncrementalEvaluator::probe`] is
//! the one implementation of that read — apply a few toggles, score,
//! revert — and three things keep it to the work the toggled views
//! cause:
//!
//! * **The term cache.** `term[i] = min(base_i, best_i) × frequency_i`
//!   is kept per query, rewritten only where a flip moves a query's
//!   best view and reloaded whole on `retarget` (the model owns base
//!   times and frequencies). A block refold is then a straight sum of
//!   64 contiguous `f64`s — in the same order, of the same products, as
//!   the model's own fold — instead of a stride through 48-byte
//!   `QueryCharge` structs. It is per-selection state: a `fork` copies
//!   it (see *Forks*).
//! * **Save and restore of block sums.** A probe first settles
//!   whatever earlier *accepted* moves left dirty, applies its toggles,
//!   saves the sums of the blocks they dirtied, scores, reverts the
//!   toggles, and puts the saved sums back with the dirty list cleared.
//!   Reverting returns every query's best time — hence every term — to
//!   its value before the probe, so the saved sums are again the right
//!   ones; without the restore each probe would also refold the blocks
//!   its predecessor's revert left dirty.
//! * **`Score` carries no selection.** An [`Evaluation`] holds the
//!   selection's `Arc`; while one is alive the evaluator's next flip
//!   must copy the word vector before writing to it — spelled as
//!   `flip → snapshot → unflip`, a probe pays two allocations.
//!   `probe` and `score` return a `Copy`
//!   [`Score`] (time + breakdown), the scenario orderings accept either
//!   (`crate::Scored`), and a move loop materializes an `Evaluation`
//!   (`Score::with_selection`) only for the move it keeps — so a warm
//!   probe allocates nothing (`tests/probe_allocs.rs`).
//!
//! A probe counts in telemetry as exactly the flips, unflips and one
//! snapshot it performs. `probe ≡ the triple`, with the evaluator left
//! bit-equal, is property-tested in `evaluator/probe_tests.rs`.
//!
//! # Dynamic candidates
//!
//! [`IncrementalEvaluator::add_candidate`] and
//! [`IncrementalEvaluator::remove_candidate`] edit the evaluator's
//! problem (`Vec::push` / `Vec::swap_remove` index semantics) and
//! rebuild the index and the per-query caches over it at the same
//! selection — O(Σ deg + m), as a fresh build. `snapshot()` stays
//! bit-identical to a from-scratch `SelectionProblem::evaluate` on the
//! equivalent static problem throughout — property-tested over random
//! add/remove/flip interleavings in `tests/evaluator_matches.rs`.
//!
//! # Forks
//!
//! [`IncrementalEvaluator::fork`] is what a scenario-tree branch point
//! and a resident what-if pay per exploration, so the evaluator is
//! split by who writes what:
//!
//! * **Shared** (one `Arc` bump each): the **answer index** — both
//!   arenas, a function of the candidate pool alone —
//!   and the **problem** (model, charges, names, profiles). A flip, a
//!   probe and a score only read them.
//! * **Copied**: the per-selection state — selection words (themselves
//!   copy-on-write), best / runner-up caches, terms, block sums and the
//!   dirty list. At m = 4 096 that is ≈ 130 KB in 7 allocations (8
//!   with blocks dirty), independent of n and of Σ deg
//!   (`tests/probe_allocs.rs`).
//!
//! The index is never written, so forks share it for good (a
//! candidate edit builds its evaluator a new one). A write to the
//! problem copies it first if — and only if — someone else still holds
//! it: `retarget`, `update_charge` and the two candidate edits.
//! Once the other holders are gone the writes are in place again, so
//! a what-if that has returned costs the resident nothing — but a fork
//! *kept alive* across the resident's next `retarget` (a service
//! re-solve) costs that retarget one problem copy. Forks never see each
//! other's edits, nor their origin's (`tests/fork_isolation.rs`).

use std::ops::Deref;
use std::sync::Arc;

use mv_cost::{CloudCostModel, Price, QueryCharge, SelectionSet, ViewCharge, TIME_FOLD_BLOCK};
use mv_obs::{Counter, Hist};
use mv_units::{Gb, Hours};

use crate::{Evaluation, Score, SelectionProblem};

/// Sentinel candidate index meaning "no view".
const NONE: u32 = u32::MAX;

// Build / retarget / fork accounting lives in the `mv-obs` registry
// ([`Counter::EvaluatorBuild`] and friends) rather than in ad-hoc
// process statics: counters only move while telemetry is enabled, and
// delta-asserting tests scope their reads with `mv_obs::CounterGuard`
// (which serializes those sections process-wide — the old always-on
// statics made cross-test interleaving a latent hazard under threaded
// `cargo test`).

/// One view's slice of the view-major arena.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

/// The answer index: who answers which query how fast, stored twice —
/// by view for the flips, by query for the rescans. A function of the
/// candidate pool alone — no selection, no model — built once and never
/// written, so forks share it for good (see the module's *Forks*
/// section).
#[derive(Debug)]
struct Index {
    /// Per-view spans into the view-major arena.
    spans: Vec<Span>,
    /// View-major arena: query ids, ascending within each span.
    arena_q: Vec<u32>,
    /// View-major arena: answer times, parallel to `arena_q`.
    arena_t: Vec<Hours>,
    /// Query `i`'s answerers are entries `by_query_start[i]..
    /// by_query_start[i + 1]` of the query-major arena (m + 1 offsets).
    by_query_start: Vec<u32>,
    /// Query-major arena: view ids, fastest first within each query,
    /// equal times in ascending view order.
    by_query_view: Vec<u32>,
    /// Query-major arena: answer times, parallel to `by_query_view`.
    by_query_time: Vec<Hours>,
}

impl Index {
    /// The index of `candidates` over an `m`-query workload.
    /// O(Σ deg + m) plus the per-query sorts.
    fn new(m: usize, candidates: &[ViewCharge]) -> Index {
        let entries: usize = candidates.iter().map(|v| v.profile.answered()).sum();
        // Invariant: every arena offset and length is at most `entries`
        // and every view id is below `NONE` — checked here, once, so the
        // `as u32` casts below are lossless and no `start + len` wraps.
        assert!(
            u32::try_from(entries).is_ok() && candidates.len() < NONE as usize,
            "{} views with {entries} answers do not fit a u32 index",
            candidates.len()
        );
        let mut spans = Vec::with_capacity(candidates.len());
        let mut arena_q = Vec::with_capacity(entries);
        let mut arena_t = Vec::with_capacity(entries);
        let mut by_query_start = vec![0u32; m + 1];
        for v in candidates {
            spans.push(Span {
                start: arena_q.len() as u32,
                len: v.profile.answered() as u32,
            });
            arena_q.extend_from_slice(v.profile.query_ids());
            arena_t.extend_from_slice(v.profile.times());
            for &q in v.profile.query_ids() {
                by_query_start[q as usize + 1] += 1;
            }
        }
        for i in 0..m {
            by_query_start[i + 1] += by_query_start[i];
        }
        // Transpose by counting sort — views arrive in ascending order
        // within each query — then order each query fastest first; the
        // sort is stable, so equal times keep that view order.
        let mut next = by_query_start[..m].to_vec();
        let mut by_query = vec![(Hours::ZERO, NONE); entries];
        for (v, view) in candidates.iter().enumerate() {
            for (q, t) in view.profile.entries() {
                by_query[next[q] as usize] = (t, v as u32);
                next[q] += 1;
            }
        }
        for i in 0..m {
            by_query[by_query_start[i] as usize..by_query_start[i + 1] as usize]
                .sort_by(|a, b| a.0.cmp_total(b.0));
        }
        let (by_query_time, by_query_view) = by_query.into_iter().unzip();
        Index {
            spans,
            arena_q,
            arena_t,
            by_query_start,
            by_query_view,
            by_query_time,
        }
    }

    /// View `k`'s answers: query ids (ascending) and times, parallel.
    fn span(&self, k: usize) -> (&[u32], &[Hours]) {
        let span = self.spans[k];
        let (s, e) = (span.start as usize, (span.start + span.len) as usize);
        (&self.arena_q[s..e], &self.arena_t[s..e])
    }

    /// The fastest view of `selection` answering query `i`, excluding
    /// `except` (the current best): the first selected entry of the
    /// query's fastest-first list that is not `except` — exact, at the
    /// cost of the entries before it. Returns `(view, time)` with
    /// `view == NONE` for "nobody".
    fn rescan_runner_up(&self, selection: &SelectionSet, i: usize, except: u32) -> (u32, Hours) {
        let (s, e) = (
            self.by_query_start[i] as usize,
            self.by_query_start[i + 1] as usize,
        );
        for (&v, &t) in self.by_query_view[s..e]
            .iter()
            .zip(&self.by_query_time[s..e])
        {
            if v != except && selection.contains(v as usize) {
                return (v, t);
            }
        }
        (NONE, Hours::ZERO)
    }
}

/// The evaluator's problem: borrowed from a solver's caller, or its own
/// — and then shared with its forks until one of them writes.
#[derive(Debug, Clone)]
enum ProblemHandle<'p> {
    Borrowed(&'p SelectionProblem),
    Shared(Arc<SelectionProblem>),
}

impl Deref for ProblemHandle<'_> {
    type Target = SelectionProblem;

    fn deref(&self) -> &SelectionProblem {
        match self {
            ProblemHandle::Borrowed(problem) => problem,
            ProblemHandle::Shared(problem) => problem,
        }
    }
}

impl ProblemHandle<'_> {
    /// The problem, for writing: a borrowed one is cloned into a handle
    /// of its own first, a shared one is copied only while a fork (or
    /// the origin) still holds it.
    fn to_mut(&mut self) -> &mut SelectionProblem {
        if let ProblemHandle::Borrowed(problem) = *self {
            *self = ProblemHandle::Shared(Arc::new(problem.clone()));
        }
        match self {
            ProblemHandle::Shared(problem) => Arc::make_mut(problem),
            ProblemHandle::Borrowed(_) => unreachable!("promoted above"),
        }
    }

    fn into_problem(self) -> SelectionProblem {
        match self {
            ProblemHandle::Borrowed(problem) => problem.clone(),
            ProblemHandle::Shared(problem) => Arc::unwrap_or_clone(problem),
        }
    }
}

/// O(deg)-per-flip evaluator over a [`SelectionProblem`].
///
/// ```
/// use mv_select::{fixtures, IncrementalEvaluator};
///
/// let problem = fixtures::paper_like_problem();
/// let mut ev = IncrementalEvaluator::new(&problem);
/// let mut sel = mv_cost::SelectionSet::empty(problem.len());
/// sel.set(0, true);
/// // What would selecting view 0 score? The evaluator does not move.
/// assert_eq!(ev.probe(&[0]), problem.evaluate(&sel).score());
/// assert_eq!(ev.snapshot(), problem.baseline());
/// ev.flip(0);
/// assert_eq!(ev.snapshot(), problem.evaluate(&sel));
/// ev.unflip(0);
/// assert_eq!(ev.snapshot(), problem.baseline());
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalEvaluator<'p> {
    problem: ProblemHandle<'p>,
    /// Shared with every fork; see [`Index`].
    index: Arc<Index>,
    selection: SelectionSet,
    /// Fastest selected view per query (`NONE` = none selected).
    best_view: Vec<u32>,
    /// Its time; meaningless where `best_view` is `NONE`.
    best_time: Vec<Hours>,
    /// Runner-up selected view per query.
    second_view: Vec<u32>,
    /// Its time; meaningless where `second_view` is `NONE`.
    second_time: Vec<Hours>,
    /// Cached per-block partial sums of the canonical
    /// [`TIME_FOLD_BLOCK`]-wide processing-time fold. A probe refolds
    /// only the blocks whose per-query minima changed since the last
    /// refresh, so `score()` is O(n/64 + selected + m/B + B·dirty)
    /// instead of O(n + m).
    block_time: Vec<Hours>,
    /// Whether block `b` needs a refold (parallel to `block_time`).
    block_dirty: Vec<bool>,
    /// The dirty blocks, unordered (refolds are independent).
    dirty_blocks: Vec<u32>,
    /// Every block is stale (fresh build / retarget): refold them all
    /// and ignore the dirty list.
    all_dirty: bool,
    /// Per-query term of the time fold, `min(base, best) × frequency`:
    /// rewritten where a flip moves a query's best view and reloaded
    /// whole on [`IncrementalEvaluator::retarget`], so a block refold
    /// sums 64 contiguous values instead of striding through the
    /// model's `QueryCharge` structs.
    term: Vec<Hours>,
    /// [`IncrementalEvaluator::probe`]'s scratch: the sums of the
    /// blocks it refolds, put back once the toggles are reverted.
    /// Empty between probes; kept for its capacity.
    saved_blocks: Vec<(u32, Hours)>,
}

/// Query `q`'s term of the time fold when its fastest selected view is
/// `view`, answering in `time` — the one expression every entry of
/// `term` is computed by.
fn term_of(q: &QueryCharge, view: u32, time: Hours) -> Hours {
    let t = if view == NONE {
        q.base_time
    } else {
        q.base_time.min(time)
    };
    t * q.frequency
}

/// Query `i`'s best selected view changed (its term is rewritten by
/// the caller): mark its time-fold block stale. O(1).
fn mark_dirty(i: usize, all_dirty: bool, block_dirty: &mut [bool], dirty_blocks: &mut Vec<u32>) {
    if all_dirty {
        return;
    }
    let b = i / TIME_FOLD_BLOCK;
    if !block_dirty[b] {
        block_dirty[b] = true;
        dirty_blocks.push(b as u32);
    }
}

impl<'p> IncrementalEvaluator<'p> {
    /// Builds an evaluator positioned at the empty selection, borrowing
    /// `problem`. O(Σ deg + m).
    pub fn new(problem: &'p SelectionProblem) -> Self {
        Self::build(ProblemHandle::Borrowed(problem))
    }

    /// Builds an evaluator that **owns** its problem — the streaming
    /// entry point: start from a zero-candidate problem and grow it with
    /// [`IncrementalEvaluator::add_candidate`] without ever paying the
    /// promotion's clone.
    pub fn from_problem(problem: SelectionProblem) -> IncrementalEvaluator<'static> {
        IncrementalEvaluator::build(ProblemHandle::Shared(Arc::new(problem)))
    }

    /// Total evaluator builds recorded by `mv-obs` so far (monotone
    /// while telemetry is enabled; frozen otherwise). Delta-asserting
    /// tests should scope reads with [`mv_obs::CounterGuard`] — it
    /// enables telemetry and serializes concurrent delta sections —
    /// and compare deltas to prove a hot loop never paid a full
    /// rebuild (the no-rebuild assertions of the market tests).
    pub fn build_count() -> usize {
        mv_obs::counter::get(Counter::EvaluatorBuild) as usize
    }

    /// Total [`IncrementalEvaluator::retarget`] calls recorded by
    /// `mv-obs` so far. The scenario-tree tests assert "one retarget
    /// per tree edge" through guarded deltas of this counter.
    pub fn retarget_count() -> usize {
        mv_obs::counter::get(Counter::EvaluatorRetarget) as usize
    }

    /// Total [`IncrementalEvaluator::fork`] calls recorded by `mv-obs`
    /// so far.
    pub fn fork_count() -> usize {
        mv_obs::counter::get(Counter::EvaluatorFork) as usize
    }

    /// An independent evaluator at the same selection, for a
    /// scenario-tree branch point or a what-if: the per-selection state
    /// is copied, the answer index and the problem are shared until
    /// either side writes to them (the module's *Forks* section).
    /// O(m), independent of the pool. Counted in
    /// [`IncrementalEvaluator::fork_count`], *not* in
    /// [`IncrementalEvaluator::build_count`] — no O(n·m) rebuild happens.
    pub fn fork(&self) -> Self {
        mv_obs::inc(Counter::EvaluatorFork);
        self.clone()
    }

    fn build(problem: ProblemHandle<'p>) -> Self {
        mv_obs::inc(Counter::EvaluatorBuild);
        let m = problem.model().context().workload.len();
        let mut ev = IncrementalEvaluator {
            index: Arc::new(Index::new(m, problem.candidates())),
            selection: SelectionSet::empty(problem.len()),
            problem,
            best_view: vec![NONE; m],
            best_time: vec![Hours::ZERO; m],
            second_view: vec![NONE; m],
            second_time: vec![Hours::ZERO; m],
            block_time: vec![Hours::ZERO; m.div_ceil(TIME_FOLD_BLOCK)],
            block_dirty: vec![false; m.div_ceil(TIME_FOLD_BLOCK)],
            dirty_blocks: Vec::new(),
            all_dirty: true,
            term: vec![Hours::ZERO; m],
            saved_blocks: Vec::new(),
        };
        ev.reload_terms();
        ev
    }

    /// Builds an evaluator positioned at `selection`.
    pub fn with_selection(problem: &'p SelectionProblem, selection: &SelectionSet) -> Self {
        let mut ev = IncrementalEvaluator::new(problem);
        for k in selection.ones() {
            ev.flip(k);
        }
        ev
    }

    /// The underlying problem (borrowed or owned; reflects any dynamic
    /// candidate edits).
    pub fn problem(&self) -> &SelectionProblem {
        &self.problem
    }

    /// Consumes the evaluator, returning its problem — including every
    /// dynamic candidate edit. Clones only if the problem was still
    /// borrowed and never edited, or a fork still shares it.
    pub fn into_problem(self) -> SelectionProblem {
        self.problem.into_problem()
    }

    // ------------------------------------------------------------------
    // Dynamic candidates.
    // ------------------------------------------------------------------

    /// Appends a candidate, deselected, returning its index: the
    /// problem grows (copied first while borrowed or shared with a
    /// fork) and the evaluator is rebuilt over it at the same
    /// selection. O(Σ deg + m).
    pub fn add_candidate(&mut self, charge: ViewCharge) -> usize {
        let k = self.problem.to_mut().push_candidate(charge);
        self.selection.push(false);
        self.reindex();
        k
    }

    /// Retires candidate `k`, returning its charge, with
    /// `Vec::swap_remove` index semantics — the last candidate takes
    /// index `k`, selected or not as it was — and rebuilds the
    /// evaluator over the shrunk problem at the remaining selection.
    /// O(Σ deg + m).
    pub fn remove_candidate(&mut self, k: usize) -> ViewCharge {
        let n = self.index.spans.len();
        assert!(k < n, "candidate {k} out of {n}");
        self.selection.swap_remove(k);
        let charge = self.problem.to_mut().swap_remove_candidate(k);
        self.reindex();
        charge
    }

    /// A fresh index over the (edited) problem, and the per-query
    /// caches replayed at the current selection.
    fn reindex(&mut self) {
        let m = self.term.len();
        self.index = Arc::new(Index::new(m, self.problem.candidates()));
        self.best_view.fill(NONE);
        self.second_view.fill(NONE);
        self.reload_terms();
        self.all_dirty = true;
        let standing =
            std::mem::replace(&mut self.selection, SelectionSet::empty(self.problem.len()));
        for k in standing.ones() {
            self.flip(k);
        }
    }

    /// Re-prices candidate `k` in place — the epoch-boundary splice,
    /// and the fleet search's placement flip. O(1) (after one problem
    /// copy while a fork shares it): a [`Price`] cannot
    /// carry an answer profile, and nothing this evaluator caches (answer
    /// index, per-query minima, terms, block sums) depends
    /// on a view's size, build or refresh time — `score` reads those
    /// from the problem. Indices and the selection state of `k` are
    /// untouched. Returns the old price. (A view whose *answers* change
    /// is a different candidate: [`IncrementalEvaluator::
    /// remove_candidate`] + [`IncrementalEvaluator::add_candidate`].)
    pub fn update_charge(&mut self, k: usize, price: Price) -> Price {
        let n = self.index.spans.len();
        assert!(k < n, "candidate {k} out of {n}");
        mv_obs::inc(Counter::EvaluatorUpdateCharge);
        self.problem.to_mut().reprice_candidate(k, price)
    }

    /// Swaps in a new costing model over the same workload shape — the
    /// epoch-boundary *context* switch. The per-query best/runner-up
    /// caches survive untouched: they hold only candidate answer times,
    /// which do not depend on the model. What does depend on it is the
    /// per-query term cache (base times and frequencies are the
    /// model's), reloaded in O(m); the model brings its own transfer
    /// cost and storage intervals. While a fork shares the problem, it
    /// is copied first.
    pub fn retarget(&mut self, model: CloudCostModel) {
        mv_obs::inc(Counter::EvaluatorRetarget);
        self.problem.to_mut().set_model(model);
        // Base times and frequencies may have changed under every block.
        self.reload_terms();
        self.all_dirty = true;
    }

    /// The current selection.
    pub fn selection(&self) -> &SelectionSet {
        &self.selection
    }

    /// Whether candidate `k` is currently selected.
    pub fn is_selected(&self, k: usize) -> bool {
        self.selection.contains(k)
    }

    /// Selects candidate `k` (must currently be deselected). O(deg).
    pub fn flip(&mut self, k: usize) {
        assert!(
            !self.selection.contains(k),
            "candidate {k} already selected"
        );
        mv_obs::inc(Counter::EvaluatorFlip);
        self.selection.set(k, true);
        let kk = k as u32;
        // The shared halves once per flip, not once per arena entry.
        let workload = &self.problem.model().context().workload;
        let (queries, times) = self.index.span(k);
        for (&q, &t) in queries.iter().zip(times) {
            let i = q as usize;
            if self.best_view[i] == NONE || t < self.best_time[i] {
                self.second_view[i] = self.best_view[i];
                self.second_time[i] = self.best_time[i];
                self.best_view[i] = kk;
                self.best_time[i] = t;
                self.term[i] = term_of(&workload[i], kk, t);
                mark_dirty(
                    i,
                    self.all_dirty,
                    &mut self.block_dirty,
                    &mut self.dirty_blocks,
                );
            } else if self.second_view[i] == NONE || t < self.second_time[i] {
                self.second_view[i] = kk;
                self.second_time[i] = t;
            }
        }
    }

    /// Deselects candidate `k` (must currently be selected). O(deg)
    /// unless `k` was a query's best or runner-up, in which case that
    /// query's fastest-first answer list is rescanned up to its first
    /// selected entry.
    pub fn unflip(&mut self, k: usize) {
        assert!(self.selection.contains(k), "candidate {k} not selected");
        mv_obs::inc(Counter::EvaluatorUnflip);
        self.selection.set(k, false);
        let kk = k as u32;
        // The shared halves once per unflip, not once per arena entry.
        let workload = &self.problem.model().context().workload;
        let index: &Index = &self.index;
        let selection = &self.selection;
        for &q in index.span(k).0 {
            let i = q as usize;
            if self.best_view[i] == kk {
                let (sv, st) = (self.second_view[i], self.second_time[i]);
                self.best_view[i] = sv;
                self.best_time[i] = st;
                self.term[i] = term_of(&workload[i], sv, st);
                mark_dirty(
                    i,
                    self.all_dirty,
                    &mut self.block_dirty,
                    &mut self.dirty_blocks,
                );
                if sv == NONE {
                    self.second_view[i] = NONE;
                    self.second_time[i] = Hours::ZERO;
                } else {
                    let (nv, nt) = index.rescan_runner_up(selection, i, sv);
                    self.second_view[i] = nv;
                    self.second_time[i] = nt;
                }
            } else if self.second_view[i] == kk {
                let (nv, nt) = index.rescan_runner_up(selection, i, self.best_view[i]);
                self.second_view[i] = nv;
                self.second_time[i] = nt;
            }
        }
    }

    /// Toggles candidate `k` regardless of current state.
    pub fn toggle(&mut self, k: usize) {
        if self.selection.contains(k) {
            self.unflip(k);
        } else {
            self.flip(k);
        }
    }

    /// Effective time of query `i` under the current selection: the
    /// cached best selected view, else the query's base time. O(1).
    pub fn query_time(&self, i: usize) -> Hours {
        let base = self.problem.model().context().workload[i].base_time;
        if self.best_view[i] == NONE {
            base
        } else {
            base.min(self.best_time[i])
        }
    }

    /// Recomputes every term (fresh build, new model). O(m).
    fn reload_terms(&mut self) {
        let workload = &self.problem.model().context().workload;
        for (i, q) in workload.iter().enumerate() {
            self.term[i] = term_of(q, self.best_view[i], self.best_time[i]);
        }
    }

    /// Block `b`'s partial sum: its terms in workload order from an
    /// exact zero — the same inner fold as
    /// `CloudCostModel::processing_time_with_views`.
    fn fold_block(&self, b: usize) -> Hours {
        let start = b * TIME_FOLD_BLOCK;
        let end = (start + TIME_FOLD_BLOCK).min(self.term.len());
        let mut block = Hours::ZERO;
        for &t in &self.term[start..end] {
            block += t;
        }
        block
    }

    /// Brings every stale block sum up to date.
    fn refresh_time_blocks(&mut self) {
        if self.all_dirty {
            for b in 0..self.block_time.len() {
                self.block_time[b] = self.fold_block(b);
            }
            self.all_dirty = false;
            for idx in 0..self.dirty_blocks.len() {
                self.block_dirty[self.dirty_blocks[idx] as usize] = false;
            }
            self.dirty_blocks.clear();
            return;
        }
        while let Some(b) = self.dirty_blocks.pop() {
            self.block_dirty[b as usize] = false;
            self.block_time[b as usize] = self.fold_block(b as usize);
        }
    }

    /// Frequency-weighted total processing time (Formula 9 summed)
    /// through the canonical blocked fold: stale block sums refold from
    /// the term cache (each in workload order from an exact zero) and
    /// the total folds the block sums in order — exactly the
    /// arithmetic of `processing_time_with_views`, so the result is
    /// bit-identical. O(m/B + B·dirty) per call instead of O(m).
    /// Telemetry records the dirty-delta size (blocks refolded).
    pub fn processing_time(&mut self) -> Hours {
        if mv_obs::enabled() {
            let dirty = if self.all_dirty {
                self.block_time.len()
            } else {
                self.dirty_blocks.len()
            };
            mv_obs::record(Hist::SnapshotDirtyBlocks, dirty as u64);
        }
        self.refresh_time_blocks();
        let mut total = Hours::ZERO;
        for &block in &self.block_time {
            total += block;
        }
        total
    }

    /// Time and cost breakdown of the current selection, agreeing
    /// exactly with [`SelectionProblem::evaluate`] — the selection-free
    /// half of [`IncrementalEvaluator::snapshot`], for the move loops
    /// that rank thousands of neighbours and keep one.
    /// O(n/64 + selected + m/B + B·dirty): the word-wise walk of the
    /// selection, one pass over the selected views' charges, the
    /// block-sum total and the refold of the stale blocks.
    ///
    /// Exactness: the time total is summed in workload order and the
    /// per-candidate totals in candidate order — the same fold orders as
    /// the model's own aggregation — and the four totals become a
    /// breakdown through `CloudCostModel::breakdown_from_totals`, the
    /// call [`SelectionProblem::evaluate`] and `with_views` make.
    pub fn score(&mut self) -> Score {
        mv_obs::inc(Counter::EvaluatorSnapshot);
        let time = self.processing_time();
        let candidates = self.problem.candidates();
        // One fused pass over the selected candidates; each accumulator
        // folds in ascending candidate order from its zero, exactly like
        // the model's separate `.sum()` calls.
        let mut maintenance = Hours::ZERO;
        let mut materialization = Hours::ZERO;
        let mut views_size = Gb::ZERO;
        for k in self.selection.ones() {
            let v = &candidates[k];
            // `+=` delegates to the same float add as `a + b`, so the fold
            // stays bit-identical to the model's `.sum()`.
            maintenance += v.maintenance;
            materialization += v.materialization;
            views_size += v.size;
        }
        let model = self.problem.model();
        Score {
            time,
            breakdown: model.breakdown_from_totals(time, maintenance, materialization, views_size),
        }
    }

    /// Full [`Evaluation`] of the current selection:
    /// [`IncrementalEvaluator::score`] plus a handle on the selection
    /// (an `Arc` bump — which makes the evaluator's *next* flip pay one
    /// copy-on-write allocation, the reason move loops rank on `score`
    /// and materialize an `Evaluation` only for the move they keep).
    pub fn snapshot(&mut self) -> Evaluation {
        self.score().with_selection(self.selection.clone())
    }

    /// What [`IncrementalEvaluator::score`] would return with
    /// `toggles` applied, leaving the evaluator exactly where it was:
    /// apply the toggles in order, score, revert them in reverse, and
    /// put back the block sums the score refolded — so no dirty block
    /// outlives the probe and the next one refolds only its own.
    /// Allocation-free on a warm evaluator; counts as the flips,
    /// unflips and one snapshot it performs.
    ///
    /// Putting the saved sums back is exact: reverting the toggles
    /// returns every query's best *time* (ties may swap which view
    /// holds it), hence every term, to its value before the probe, and
    /// the blocks were settled before the toggles were applied — so
    /// each block's sum is again the one it held then, whether the
    /// probe overwrote it (restored) or not (untouched).
    pub fn probe(&mut self, toggles: &[usize]) -> Score {
        self.refresh_time_blocks();
        for &k in toggles {
            self.toggle(k);
        }
        debug_assert!(self.saved_blocks.is_empty());
        self.saved_blocks.extend(
            self.dirty_blocks
                .iter()
                .map(|&b| (b, self.block_time[b as usize])),
        );
        let score = self.score();
        for &k in toggles.iter().rev() {
            self.toggle(k);
        }
        while let Some(b) = self.dirty_blocks.pop() {
            self.block_dirty[b as usize] = false;
        }
        while let Some((b, sum)) = self.saved_blocks.pop() {
            self.block_time[b as usize] = sum;
            debug_assert!(self.fold_block(b as usize) == sum, "block {b} moved");
        }
        score
    }

    /// [`IncrementalEvaluator::snapshot`] with every block sum forced
    /// stale first — the full O(n/64 + selected + m) fold the
    /// dirty-delta path avoids. Exists as the benchmark reference (`--bench scale`
    /// races the two) and as a self-check handle; results are identical.
    pub fn snapshot_cold(&mut self) -> Evaluation {
        self.all_dirty = true;
        self.snapshot()
    }
}

#[cfg(test)]
mod probe_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_like_problem, random_problem};
    use mv_units::Months;

    #[test]
    fn empty_matches_baseline() {
        let p = paper_like_problem();
        let mut ev = IncrementalEvaluator::new(&p);
        assert_eq!(ev.snapshot(), p.baseline());
    }

    #[test]
    fn single_flips_match_evaluate() {
        let p = paper_like_problem();
        let mut ev = IncrementalEvaluator::new(&p);
        for k in 0..p.len() {
            ev.flip(k);
            let mut sel = SelectionSet::empty(p.len());
            sel.set(k, true);
            assert_eq!(ev.snapshot(), p.evaluate(&sel), "flip {k}");
            ev.unflip(k);
            assert_eq!(ev.snapshot(), p.baseline(), "unflip {k}");
        }
    }

    #[test]
    fn random_walks_match_evaluate() {
        for seed in 0..10 {
            let p = random_problem(seed, 4, 8);
            let mut ev = IncrementalEvaluator::new(&p);
            let mut sel = SelectionSet::empty(p.len());
            // Deterministic pseudo-random flip sequence.
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            for step in 0..64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let k = (state as usize) % p.len();
                ev.toggle(k);
                sel.set(k, !sel.contains(k));
                assert_eq!(ev.snapshot(), p.evaluate(&sel), "seed {seed} step {step}");
            }
        }
    }

    /// More answerers per query than `ANSWER_TOP_K` slots: the pruned
    /// tables must stay exact through flips and unflips (the fallback
    /// sweep path).
    #[test]
    fn pruned_tables_stay_exact_past_top_k() {
        for seed in 0..5 {
            // 20 candidates over 2 queries at ~60% density ⇒ ~12
            // answerers per query, well past the 8 table slots.
            let p = random_problem(seed + 300, 2, 20);
            let mut ev = IncrementalEvaluator::new(&p);
            let mut sel = SelectionSet::empty(p.len());
            let mut state = seed.wrapping_mul(0x2545f4914f6cdd1d) | 1;
            for step in 0..128 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let k = (state as usize) % p.len();
                ev.toggle(k);
                sel.set(k, !sel.contains(k));
                assert_eq!(ev.snapshot(), p.evaluate(&sel), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn with_selection_positions_correctly() {
        let p = paper_like_problem();
        let sel = SelectionSet::from_mask(0b0101, p.len());
        let mut ev = IncrementalEvaluator::with_selection(&p, &sel);
        assert_eq!(ev.snapshot(), p.evaluate(&sel));
        assert!(ev.is_selected(0) && ev.is_selected(2));
        assert!(!ev.is_selected(1));
    }

    #[test]
    fn add_candidate_matches_grown_problem() {
        let p = paper_like_problem();
        let m = p.model().context().workload.len();
        let mut ev = IncrementalEvaluator::new(&p);
        ev.flip(1);
        let v = ViewCharge::new("v-dyn", Gb::new(0.2), Hours::new(0.1), Hours::new(0.01), m)
            .answers(1, Hours::new(0.001))
            .answers(2, Hours::new(0.002));
        let k = ev.add_candidate(v);
        assert_eq!(k, 4);
        assert_eq!(ev.problem().len(), 5);
        // Parity with full evaluation of the grown problem, before and
        // after selecting the newcomer.
        assert_eq!(ev.snapshot(), ev.problem().evaluate(ev.selection()));
        ev.flip(k);
        assert_eq!(ev.snapshot(), ev.problem().evaluate(ev.selection()));
        ev.unflip(k);
        assert_eq!(ev.snapshot(), ev.problem().evaluate(ev.selection()));
        // The borrowed source problem is untouched (copy-on-write).
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn from_problem_grows_from_zero_candidates() {
        let p = paper_like_problem();
        let mut ev =
            IncrementalEvaluator::from_problem(SelectionProblem::new(p.model().clone(), vec![]));
        let base = p.baseline();
        assert_eq!(ev.snapshot().time, base.time);
        assert_eq!(ev.snapshot().breakdown, base.breakdown);
        // Stream the static problem's candidates in one at a time,
        // selecting each; parity must hold at every step.
        for (k, v) in p.candidates().iter().enumerate() {
            let got = ev.add_candidate(v.clone());
            assert_eq!(got, k);
            ev.flip(k);
            assert_eq!(ev.snapshot(), ev.problem().evaluate(ev.selection()));
        }
        // Fully grown, the owned problem is the static problem.
        let full = p.evaluate(&SelectionSet::full(p.len()));
        assert_eq!(ev.snapshot(), full);
    }

    #[test]
    fn remove_candidate_swap_renumbers_and_matches() {
        let p = paper_like_problem();
        let mut ev = IncrementalEvaluator::new(&p);
        ev.flip(0);
        ev.flip(2);
        ev.flip(3);
        // Retire the deselected middle candidate: the last one (selected)
        // takes its slot.
        let removed = ev.remove_candidate(1);
        assert_eq!(removed.name, "v-month-country");
        assert_eq!(ev.problem().len(), 3);
        assert_eq!(ev.selection().ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(ev.snapshot(), ev.problem().evaluate(ev.selection()));
        // Independent cross-check: rebuild the equivalent static problem.
        let mirror = SelectionProblem::new(
            p.model().clone(),
            vec![
                p.candidates()[0].clone(),
                p.candidates()[3].clone(),
                p.candidates()[2].clone(),
            ],
        );
        assert_eq!(ev.snapshot(), mirror.evaluate(&SelectionSet::full(3)));
        // Remove a *selected* candidate: auto-deselects first.
        ev.remove_candidate(0);
        assert_eq!(ev.problem().len(), 2);
        assert_eq!(ev.snapshot(), ev.problem().evaluate(ev.selection()));
    }

    /// Regression: retiring the **last, selected** candidate must evict it
    /// from every per-query cache — no best/runner-up slot may keep
    /// naming the retired index (it would alias whichever view is moved
    /// into that slot next, silently corrupting probes).
    #[test]
    fn remove_last_selected_leaves_no_stale_runner_up() {
        let p = paper_like_problem();
        let mut ev = IncrementalEvaluator::new(&p);
        for k in 0..p.len() {
            ev.flip(k);
        }
        let last = p.len() - 1;
        let lk = last as u32;
        // Precondition: the retiring index really is cached somewhere
        // (v-bulky answers Q3 slower than v-day-region, so it is Q3's
        // runner-up).
        assert!(ev
            .best_view
            .iter()
            .zip(&ev.second_view)
            .any(|(&b, &s)| b == lk || s == lk));
        ev.remove_candidate(last);
        let n = ev.index.spans.len();
        for i in 0..ev.best_view.len() {
            // Every surviving slot either holds the NONE sentinel or a
            // live index — never the retired one.
            assert!(
                ev.best_view[i] == NONE || (ev.best_view[i] as usize) < n,
                "query {i}: stale best {}",
                ev.best_view[i]
            );
            assert!(
                ev.second_view[i] == NONE || (ev.second_view[i] as usize) < n,
                "query {i}: stale runner-up {}",
                ev.second_view[i]
            );
        }
        // Q3's runner-up specifically collapsed to the NONE sentinel: only
        // v-day-region (still index 2) answers it now.
        assert_eq!(ev.best_view[2], 2);
        assert_eq!(ev.second_view[2], NONE);
        assert_eq!(ev.snapshot(), ev.problem().evaluate(ev.selection()));
        // A fresh unflip of the moved-into-place views still behaves.
        ev.unflip(2);
        assert_eq!(ev.snapshot(), ev.problem().evaluate(ev.selection()));
    }

    #[test]
    fn remove_then_add_reuses_slots_consistently() {
        let p = paper_like_problem();
        let mut ev = IncrementalEvaluator::new(&p);
        for k in 0..p.len() {
            ev.flip(k);
        }
        let charge = ev.remove_candidate(0);
        let k = ev.add_candidate(charge);
        assert_eq!(k, p.len() - 1);
        ev.flip(k);
        assert_eq!(ev.snapshot(), ev.problem().evaluate(ev.selection()));
        // The processing time matches the all-selected static evaluation
        // exactly: per-query minima are order-independent and the time
        // fold runs in workload order. (The per-candidate cost folds run
        // in the *permuted* candidate order, so only the equivalent
        // problem — not the original — is the bit-exact reference.)
        let full = p.evaluate(&SelectionSet::full(p.len()));
        assert_eq!(ev.snapshot().time, full.time);
    }

    /// Heavy churn crosses the arena's compaction threshold; parity and
    /// span integrity must survive the rebuild.
    #[test]
    fn arena_compaction_preserves_parity() {
        let p = random_problem(7, 4, 6);
        let mut ev = IncrementalEvaluator::new(&p);
        ev.flip(0);
        ev.flip(3);
        // Enough add/remove cycles to push `dead` past COMPACT_MIN_DEAD.
        let mut spin = 0usize;
        for round in 0..800 {
            let charge = p.candidates()[round % p.len()].clone();
            let k = ev.add_candidate(charge);
            if round % 3 == 0 {
                ev.flip(k);
                spin += 1;
            }
            let victim = (round * 5) % ev.problem().len();
            ev.remove_candidate(victim);
            if spin.is_multiple_of(7) {
                assert_eq!(ev.snapshot(), ev.problem().evaluate(ev.selection()));
            }
        }
        assert_eq!(ev.snapshot(), ev.problem().evaluate(ev.selection()));
    }

    #[test]
    fn update_charge_reprices_in_place() {
        // The epoch-boundary splice: a different materialization under
        // the same answers. Indices, selection and caches all survive.
        let p = paper_like_problem();
        let mut ev = IncrementalEvaluator::new(&p);
        ev.flip(1);
        ev.flip(2);
        let carried = p.candidates()[1].carried();
        let old = ev.update_charge(1, carried);
        assert_eq!(old, p.candidates()[1].price());
        assert!(ev.is_selected(1) && ev.is_selected(2));
        // Parity with a from-scratch problem holding the carried charge.
        let mut mirror_charges: Vec<ViewCharge> = p.candidates().to_vec();
        mirror_charges[1].set_price(carried);
        let mirror = SelectionProblem::new(p.model().clone(), mirror_charges);
        assert_eq!(ev.snapshot(), mirror.evaluate(ev.selection()));
        // Restore full price: back to the original problem bit-for-bit.
        ev.update_charge(1, old);
        assert_eq!(ev.snapshot(), p.evaluate(ev.selection()));
    }

    #[test]
    fn a_new_answer_profile_is_remove_then_add() {
        let p = paper_like_problem();
        let m = p.model().context().workload.len();
        let mut ev = IncrementalEvaluator::new(&p);
        for k in 0..p.len() {
            ev.flip(k);
        }
        // Replace the all-query view with one answering only Q3, slower:
        // every query's best/runner-up must be rebuilt correctly.
        let replacement = ViewCharge::new(
            "v-day-region-degraded",
            Gb::new(0.9),
            Hours::new(0.3),
            Hours::new(0.06),
            m,
        )
        .answers(2, Hours::new(0.05));
        ev.remove_candidate(2);
        let k = ev.add_candidate(replacement.clone());
        ev.flip(k);
        // Swap-remove moved the last view into slot 2; the replacement
        // took the last index.
        let mirror = SelectionProblem::new(
            p.model().clone(),
            vec![
                p.candidates()[0].clone(),
                p.candidates()[1].clone(),
                p.candidates()[3].clone(),
                replacement,
            ],
        );
        assert_eq!(ev.snapshot(), mirror.evaluate(&SelectionSet::full(4)));
        // Subsequent flips still behave (no stale cache slots).
        ev.unflip(0);
        assert_eq!(ev.snapshot(), ev.problem().evaluate(ev.selection()));
    }

    #[test]
    fn retarget_swaps_the_model_and_keeps_caches() {
        let p = paper_like_problem();
        let mut ev = IncrementalEvaluator::new(&p);
        ev.flip(0);
        ev.flip(2);
        // Next epoch: double Q2's frequency, halve the storage horizon.
        let mut ctx = p.model().context().clone();
        ctx.workload[1].frequency = 2.0;
        ctx.months = Months::new(0.5);
        let epoch_model = CloudCostModel::new(ctx);
        ev.retarget(epoch_model.clone());
        let mirror = SelectionProblem::new(epoch_model, p.candidates().to_vec());
        assert_eq!(ev.snapshot(), mirror.evaluate(ev.selection()));
        // Flips after the retarget stay bit-exact too.
        ev.flip(1);
        assert_eq!(ev.snapshot(), mirror.evaluate(ev.selection()));
    }

    #[test]
    #[should_panic(expected = "workload length")]
    fn retarget_rejects_misaligned_model() {
        let p = paper_like_problem();
        let mut ev = IncrementalEvaluator::new(&p);
        let mut ctx = p.model().context().clone();
        ctx.workload.pop();
        ev.retarget(CloudCostModel::new(ctx));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn remove_out_of_range_panics() {
        let p = paper_like_problem();
        let mut ev = IncrementalEvaluator::new(&p);
        ev.remove_candidate(4);
    }

    #[test]
    #[should_panic(expected = "query times")]
    fn add_misaligned_candidate_panics() {
        let p = paper_like_problem();
        let mut ev = IncrementalEvaluator::new(&p);
        ev.add_candidate(ViewCharge::new(
            "v-bad",
            Gb::new(0.1),
            Hours::new(0.1),
            Hours::new(0.0),
            7,
        ));
    }

    #[test]
    #[should_panic(expected = "already selected")]
    fn double_flip_panics() {
        let p = paper_like_problem();
        let mut ev = IncrementalEvaluator::new(&p);
        ev.flip(0);
        ev.flip(0);
    }

    #[test]
    #[should_panic(expected = "not selected")]
    fn unflip_unselected_panics() {
        let p = paper_like_problem();
        let mut ev = IncrementalEvaluator::new(&p);
        ev.unflip(0);
    }
}
