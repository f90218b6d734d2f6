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
//! flat. The answer index is two compressed-sparse-row tables — one
//! offset per row into two parallel `Vec`s of ids and times — built
//! once per evaluator in O(Σ deg + m) plus the per-query sorts and
//! never written after:
//!
//! * **by view** — each view's answered query ids, ascending, and their
//!   times — so a flip walks one contiguous slice, no per-view `Vec`
//!   pointer chasing;
//! * **by query** — the transpose: each query's answering view ids and
//!   their times, fastest first (equal times in ascending view order).
//!   A runner-up rescan returns the first selected entry that is not
//!   the current best: exact by construction, at the cost of the
//!   entries before it — at most the query's answerer count, and one or
//!   two when the selection holds the query's fast views, as a search's
//!   does;
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
//! score refolds just those. The two folds that run across the whole
//! workload or selection keep their running value after every step,
//! so what a change leaves in front of it is never added again:
//!
//! * **the block prefix** — the in-order total of the block sums
//!   through each block, rebuilt from the lowest refolded block on;
//! * **the charge run** — the selected views' maintenance,
//!   materialization and size in ascending candidate order, each with
//!   the three folds through it, refolded from the lowest view a
//!   toggle or a price splice has invalidated.
//!
//! A settled score reads the two last entries: O(1). After accepted
//! moves it costs, honestly itemized,
//! **O(B·dirty + m/B − b₀ + n/64 + selected)** at most: B adds per
//! dirty block (full blocks four at a time side by side), the prefix
//! from the lowest dirty block b₀ on, and the charges from the lowest
//! invalidated view on (reached by a walk of the selection's words;
//! a score folds them without writing the run, the next probe
//! refolds it).
//! Every fold runs in exactly the same order as
//! [`SelectionProblem::evaluate`],
//! and the four totals become a bill through the same
//! `CloudCostModel::breakdown_from_totals` call, so scores are
//! **bit-identical** to full re-evaluations — property-tested in
//! `tests/evaluator_matches.rs`.
//!
//! # Probes
//!
//! Every solver tier ranks neighbours of its current selection, and
//! keeps at most one of thousands. [`IncrementalEvaluator::probe`] is
//! the one implementation of that read — what would the selection
//! score with candidate `k` toggled? — and it is a read: apart from
//! settling whatever earlier *accepted* moves left dirty, it writes no
//! field, so there is nothing to revert and no dirty block outlives it.
//! Five things keep it to the work the toggled view causes:
//!
//! * **The term cache.** `term[i] = min(base_i, best_i) × frequency_i`
//!   is kept per query, rewritten only where a flip moves a query's
//!   best view and reloaded whole on `retarget` (the model owns base
//!   times and frequencies). A block refold is then a straight sum of
//!   64 contiguous `f64`s — in the same order, of the same products, as
//!   the model's own fold — instead of a stride through 48-byte
//!   `QueryCharge` structs. It is per-selection state: a `fork` copies
//!   it (see *Forks*).
//! * **Overrides, not writes.** One walk of `k`'s answers finds the
//!   queries whose term the toggle would rewrite — by the tests `flip`
//!   and `unflip` apply — and computes those terms; the time total
//!   refolds only the blocks holding such a query, from an exact zero
//!   in workload order with the new terms in place, and adds the
//!   cached block sums around them in order.
//! * **Restarts from cached prefixes.** Every probe at one position
//!   shares the leading part of each fold, so it starts there: the time
//!   chain at the block prefix of its first touched block, the charges
//!   at the run's fold through the last selected view before `k` — then
//!   `k` merged in (selecting it) or left out (deselecting it), then
//!   the views after it.
//! * **Touched blocks side by side.** A probe gathers its touched
//!   blocks' 64 terms, new terms in place, into a stack buffer and sums
//!   four of them in one loop, one accumulator each — every block
//!   still in workload order from +0.0, a short last block padded with
//!   +0.0 (exact: terms are finite and ≥ 0). A one-block workload (the
//!   SSB and sales lattices' thirteen and ten queries) folds its block
//!   in place, as before: there is no prefix to skip and nothing to
//!   sum beside it.
//! * **`Score` carries no selection.** An [`Evaluation`] holds the
//!   selection's `Arc`; while one is alive the evaluator's next flip
//!   must copy the word vector before writing to it — spelled as
//!   `flip → snapshot → unflip`, a probe pays two allocations.
//!   `probe` and `score` return a `Copy`
//!   [`Score`] (time + breakdown), the scenario orderings accept either
//!   (`crate::Scored`), and a move loop materializes an `Evaluation`
//!   (`Score::with_selection`) only for the move it keeps — so a probe
//!   allocates nothing (`tests/probe_allocs.rs`).
//!
//! Same folds, same order, same one bill assembly as a `score` after the
//! toggle — bit-identical to it — at O(deg + log selected + selected
//! after `k` + m/B − b₁ + B·affected), for b₁ its first touched block.
//! At n = 1 000, m = 25 000 and ≈ 320 selected (an `advise_scale`
//! problem at its LNS end) that is ≈ 0.6 µs a probe, against ≈ 1 µs
//! with every chain from zero and every block one after another
//! (`select/probe/lns_n1000_m25000` in `BENCH_micro.json`).
//!
//! A probe is one toggle. A move of two — a swap — is probed by
//! applying the first for real around probes of the second
//! (`local_search`'s swap rows: one `unflip(out)`, a probe per `in_`,
//! one `flip(out)`).
//!
//! A probe counts in telemetry as one snapshot and no flips; its
//! `evaluator/snapshot_dirty_blocks` sample is the number of blocks it
//! refolded. `probe ≡ the flip → snapshot → unflip triple`, with the
//! evaluator left `==` in every field, is property-tested in
//! `evaluator/probe_tests.rs`.
//!
//! # Bounded probes
//!
//! A move loop keeps the first move whose rank beats its best so far,
//! and at a local optimum that is none of thousands. So the loops —
//! `local_search`'s flip-on fill and its flip, swap and placed flip-on
//! rows, and the knapsack repair's hill-climb — go through one
//! crate-private entry, `probe_below(k, scenario, baseline, to_beat)`,
//! which rules most moves out without a refold. Past one fold block it
//! walks the same `Toggled` queries a probe walks, sums their term
//! changes Δ and their terms old and new, A — O(deg), no block refold,
//! no prefix chain — and forms the time floor
//!
//! `t_lb = max(0, total + Δ − ε·(total + A))`
//!
//! for `total` the settled time total. It prices `t_lb` with the
//! toggle's exact charge totals through the one `breakdown_from_totals`
//! and scores exactly — with the same charge totals, folded once — only
//! if that rank is below `to_beat`. (Selecting toggles meet a cheaper
//! floor first; see below.) A move the floor rules out could not have
//! won, by three facts:
//!
//! * **Every [`Rank`] field is monotone in (time, cost)** under MV1–MV3:
//!   feasibility, violation and objective are, and cost and time are
//!   the last two fields; the derived comparison is lexicographic, so
//!   a score no later in time and cost ranks no later.
//! * **`compute_cost` is monotone in hours** under every
//!   `BillingRounding` (each rounds up, zero bills zero) and
//!   `Money::scale` in its factor, so a lower time never bills more.
//! * **Maintenance, materialization and storage come from the exact
//!   totals**, the exact score's own, so they need no envelope (a
//!   `FlatByVolume` storage sheet included).
//!
//! ε is derived from the fold's chain lengths, not tuned. Every term is
//! ≥ 0 (an `Hours`) and passes through at most h = B + blocks roundings
//! of the blocked fold (B in its block, one per block in the prefix
//! chain), so by Higham's bound for recursive summation the settled
//! total and the exact toggled total are each within γₕ of the exact
//! sums S and S′ (relatively: Σ|x| = S), and Δ — deg differences, each
//! rounded once, then summed in a chain — within γ_{deg+1}·A of S′ − S.
//! For γ = γ_N, N = B + blocks + deg + 1, that puts the exact toggled
//! time at or above `total + Δ − 3γ·(total + A)`; a fourth γ covers the
//! bound's own few roundings (each at most u·(total + A), against
//! γ ≥ 66u). So ε = 4γ_N: ≈ 2·10⁻¹³ at m = 25 000.
//!
//! Before that bill, a *selecting* toggle meets a cheaper floor, the
//! **standing-charge floor**: the position's own charge totals — the
//! settled run's last fold, read in O(1) — stand in for the toggled
//! ones. When `k`'s charges and those totals are finite and ≥ 0,
//! selecting `k` inserts one more term ≥ 0 into each fold, and rounded
//! addition is monotone in each operand, so no total falls (the
//! insertion argument of *Dominated toggles*); compute bills them no
//! more. Storage is priced at its floor, `CloudCostModel::storage_floor`:
//! the least bill any views size at or above the standing one can
//! reach — the bill itself on a graduated sheet, and on a flat-by-volume
//! sheet the least over the standing bracket and every bracket above it
//! of its rate times the least volume it bills (the standing volume in
//! its own bracket, the threshold in a higher one), so a move that would
//! carry storage over a threshold to a cheaper bracket is never ruled
//! out on the bill it leaves behind. Every toggle at one position shares
//! those charges, so the floor's rank depends on its time alone and
//! never falls as that time grows: "ruled out" is a **threshold in
//! time** per (position, `to_beat`). A loop's `Floors` keep the
//! smallest time floor found ruled out and the largest found not, and
//! price a bill only for a time between them — at `advise_scale`'s LNS
//! end a few thousand bills a solve for tens of thousands of moves. A
//! move this floor does not rule out goes on to the floor of its exact
//! charges, at the same time floor, and then to the exact score.
//!
//! A flip-on fill offers the same candidates step after step, and
//! between two steps it only selects views: every cached term can only
//! fall, a query `k` no longer answers faster than its best stays so,
//! and each query's term change when `k` is selected can only rise
//! toward zero. So the (Δ, A) a fill scanned for `k` at an earlier step
//! still bounds Δ from below now, and with that A as the ε scale —
//! the same chain lengths, the same Higham bound — forms a floor with
//! no scan at all. The fill's `Floors` keep one per candidate (one
//! allocation per fill call, owned by the fill and not by the
//! evaluator, so a fork copies none of it); a move the standing-charge
//! floor does not rule out at its stale time floor re-scans `k`'s
//! answers, refreshes its entry and tries again. Every bound is a
//! floor, so picks, scores and digests are the unbounded loop's by
//! construction.
//!
//! A one-block workload (the SSB and sales lattices') skips the floor
//! — its fold has no prefix to skip, so a floor would save nothing: a
//! property of the input, like the one-block fold in place — and scores
//! exactly every move the next section does not rule out. A ruled-out
//! move counts as `search/bounded` and no snapshot, so
//! `evaluator/snapshot` counts exact scores only. Under debug
//! assertions every ruled-out move is also scored exactly, uncounted,
//! and asserted not to have won; the floor's soundness — its time and
//! rank never past the probe's, a score returned exactly when the
//! probe's rank beats `to_beat`, under every scenario and rounding — is
//! property-tested in `evaluator/probe_tests.rs`, as are the
//! standing-charge floor's (no bill component above the probe's, on
//! flat-by-volume sheets that could cross a threshold and graduated
//! ones, zero-charge views included) and the stale term change's
//! (a floor while the selection only gains views; a fill through it
//! picks what a fill scoring every move exactly picks).
//!
//! # Dominated toggles
//!
//! Near a local optimum most unselected views answer no query faster
//! than the selection already does. Selecting such a view `k` changes
//! no query's best time and adds only charges, so it cannot rank better
//! than the position it leaves. The move loops rule it out before any
//! bound or fold, through `probe_unless_dominated`, when the crate-private
//! `dominated_on(k)` holds:
//!
//! * `k` is unselected, and `toggled(k, true)` yields no query — the
//!   walk a probe makes of `k`'s answers, O(deg);
//! * `k`'s size, maintenance and materialization are finite and ≥ 0;
//! * the bill never falls as the views' size grows, at any size a
//!   selection can reach: a flag computed at build and `retarget`, and
//!   again when `update_charge` moves a size, as
//!   `CloudCostModel::bill_monotone_upto` of the candidate-order fold
//!   of every candidate's size.
//!
//! Such a move ranks no better than the standing position, for these
//! reasons:
//!
//! * **The time is the standing total, bit for bit.** No term changes,
//!   so every fold runs over the same terms in the same order.
//! * **Every charge total is at least the standing one.** The toggled
//!   fold is the standing fold with one more term ≥ 0 inserted, and
//!   rounded addition is monotone in each operand, so inserting it
//!   never lowers the running sum or anything folded after it.
//! * **Every cost component is at least the standing one.** Compute is
//!   monotone in hours (*Bounded probes*) and transfer is fixed.
//!   Storage is monotone in the views' size under the flag: Formula 5's
//!   one interval holds dataset + views, a size between its value at no
//!   views and at the fold of every candidate's size — which bounds every
//!   selection's fold from above, by the insertion argument again — and
//!   the flag holds only if the storage sheet never falls over that
//!   range (`TierSchedule::monotone_between`). A graduated sheet never
//!   falls. A flat-by-volume sheet vouches only inside one bracket:
//!   AWS-2012's gets cheaper at 1 TB, so a dataset near it turns the
//!   rule off.
//! * **[`Rank`] is monotone in (time, cost)** under MV1–MV3
//!   (*Bounded probes*).
//!
//! So a loop may skip the move when `to_beat` is no worse than the
//! standing rank, which each loop keeps as its invariant (see
//! `local_search`'s module docs). `probe_below` itself keeps its
//! contract for any `to_beat`, so the rule is not inside it. A skipped
//! move counts as `search/bounded` and no snapshot; under debug
//! assertions it is scored exactly, uncounted, and asserted not to beat
//! `to_beat`. The rule's soundness — the standing time's bits, no
//! component below the standing one, no better rank under MV1, MV2 and
//! both MV3s, every rounding, both tier modes, and no move ruled out
//! where storage could cross a flat-by-volume threshold — is
//! property-tested in `evaluator/probe_tests.rs`. At the SSB node shape
//! of `select/improve/warm_round_ssb_n63` (63 candidates, 11 selected,
//! one block) a no-move round offers 635 moves and scores 125 of them
//! exactly, where it scored all 635; on the sales lattice (15
//! candidates, 4 selected), 34 of 59.
//!
//! # Forks
//!
//! [`IncrementalEvaluator::fork`] is what a scenario-tree branch point
//! and a resident what-if pay per exploration, so the evaluator is
//! split by who writes what:
//!
//! * **Shared** (one `Arc` bump each): the **answer index** — both
//!   tables, a function of the candidate pool alone — and the
//!   **problem** (model, charges, names, profiles). A flip, a probe and
//!   a score only read them. And the **charge run**, until one side
//!   settles a stale run (a `score` reads a stale run without writing
//!   it; a probe after a toggle refolds it, copying it first — 56
//!   bytes per selected view). A fork of a stale evaluator settles its
//!   own copy at once, so its first probes allocate nothing; the move
//!   loops leave their evaluator settled, so forks of their result
//!   (what-ifs, scenario-tree branches) share it.
//! * **Copied**: the per-selection state — selection words (themselves
//!   copy-on-write), best / runner-up caches, terms, block sums and
//!   prefix, dirty flags and list. At m = 4 096 that is ≈ 130 KB in 8
//!   allocations (9 with blocks dirty), independent of n, of Σ deg
//!   and of the selection's size (`tests/probe_allocs.rs`).
//!
//! The index is never written, so forks share it for good. A write to
//! the problem — `retarget`, `update_charge` — copies it first if, and
//! only if, someone else still holds it. Once the other holders are
//! gone the writes are in place again, so a what-if that has returned
//! costs the resident nothing — but a fork *kept alive* across the
//! resident's next `retarget` (a service re-solve) costs that retarget
//! one problem copy. Forks never see each other's edits, nor their
//! origin's (`tests/fork_isolation.rs`).
//!
//! # One pool per evaluator
//!
//! The candidate pool is fixed for an evaluator's life, as the paper's
//! `V_cand` is for a problem's. A caller whose pool changes — a what-if
//! that wants one more candidate — edits its own candidate `Vec` and
//! builds a new evaluator over it at the standing selection:
//! O(Σ deg + m), the cost of the index.

use std::cmp::Ordering;
use std::ops::Deref;
use std::sync::Arc;

use mv_cost::{
    CloudCostModel, CostBreakdown, Price, QueryCharge, SelectionSet, ViewCharge, TIME_FOLD_BLOCK,
};
use mv_obs::{Counter, Hist};
use mv_units::{Gb, Hours};

use crate::{Evaluation, Rank, Scenario, Score, Scored, SelectionProblem};

/// Sentinel candidate index meaning "no view".
const NONE: u32 = u32::MAX;

/// A compressed-sparse-row table of answers: row `r`'s entries are
/// `start[r]..start[r + 1]` of two parallel arrays.
#[derive(Debug)]
struct Csr {
    /// One offset per row, plus the total.
    start: Vec<u32>,
    /// The other side of each entry: a query id in a view's row, a view
    /// id in a query's.
    id: Vec<u32>,
    /// Answer times, parallel to `id`.
    time: Vec<Hours>,
}

impl Csr {
    fn row(&self, r: usize) -> (&[u32], &[Hours]) {
        let (s, e) = (self.start[r] as usize, self.start[r + 1] as usize);
        (&self.id[s..e], &self.time[s..e])
    }
}

/// The answer index: who answers which query how fast, stored twice —
/// by view for the flips, by query for the rescans. A function of the
/// candidate pool alone — no selection, no model — built once and never
/// written, so forks share it for good (see the module's *Forks*
/// section).
#[derive(Debug)]
struct Index {
    /// A view's answers, in ascending query order.
    by_view: Csr,
    /// A query's answerers, fastest first; equal times in ascending
    /// view order.
    by_query: Csr,
}

impl Index {
    /// The index of `candidates` over an `m`-query workload.
    /// O(Σ deg + m) plus the per-query sorts.
    fn new(m: usize, candidates: &[ViewCharge]) -> Index {
        let entries: usize = candidates.iter().map(|v| v.profile.answered()).sum();
        // Invariant: every offset is at most `entries` and every view id
        // is below `NONE` — checked here, once, so the `as u32` casts
        // below are lossless.
        assert!(
            u32::try_from(entries).is_ok() && candidates.len() < NONE as usize,
            "{} views with {entries} answers do not fit a u32 index",
            candidates.len()
        );
        let mut by_view = Csr {
            start: Vec::with_capacity(candidates.len() + 1),
            id: Vec::with_capacity(entries),
            time: Vec::with_capacity(entries),
        };
        let mut query_start = vec![0u32; m + 1];
        for v in candidates {
            by_view.start.push(by_view.id.len() as u32);
            by_view.id.extend_from_slice(v.profile.query_ids());
            by_view.time.extend_from_slice(v.profile.times());
            for &q in v.profile.query_ids() {
                query_start[q as usize + 1] += 1;
            }
        }
        by_view.start.push(entries as u32);
        for i in 0..m {
            query_start[i + 1] += query_start[i];
        }
        // Transpose by counting sort — views arrive in ascending order
        // within each query — then order each query fastest first; the
        // sort is stable, so equal times keep that view order.
        let mut next = query_start[..m].to_vec();
        let mut answers = vec![(Hours::ZERO, NONE); entries];
        for (v, view) in candidates.iter().enumerate() {
            for (q, t) in view.profile.entries() {
                answers[next[q] as usize] = (t, v as u32);
                next[q] += 1;
            }
        }
        for i in 0..m {
            answers[query_start[i] as usize..query_start[i + 1] as usize]
                .sort_by(|a, b| a.0.cmp_total(b.0));
        }
        let (time, id) = answers.into_iter().unzip();
        Index {
            by_view,
            by_query: Csr {
                start: query_start,
                id,
                time,
            },
        }
    }

    /// The fastest view of `selection` answering query `i`, excluding
    /// `except` (the current best): the first selected entry of the
    /// query's fastest-first row that is not `except` — exact, at the
    /// cost of the entries before it. Returns `(view, time)` with
    /// `view == NONE` for "nobody".
    fn rescan_runner_up(&self, selection: &SelectionSet, i: usize, except: u32) -> (u32, Hours) {
        let (views, times) = self.by_query.row(i);
        for (&v, &t) in views.iter().zip(times) {
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
        match self {
            ProblemHandle::Shared(problem) => Arc::make_mut(problem),
            &mut ProblemHandle::Borrowed(problem) => {
                *self = ProblemHandle::Shared(Arc::new(problem.clone()));
                self.to_mut()
            }
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
/// assert_eq!(ev.probe(0), problem.evaluate(&sel).score());
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
    /// [`TIME_FOLD_BLOCK`]-wide processing-time fold. A score refolds
    /// only the blocks whose per-query minima changed since the last
    /// refresh.
    block_time: Vec<Hours>,
    /// `block_prefix[b]`: the in-order running total of
    /// `block_time[0..b]` from zero, one entry per block plus the
    /// total. Rebuilt from the lowest block a refresh refolds, so a
    /// probe starts its chain at its first touched block and a settled
    /// `score` reads the last entry.
    block_prefix: Vec<Hours>,
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
    /// The *charge run*: the selected views in candidate order, each
    /// with its charges and the fold through it. Entries of views at or
    /// past `run_stale` may be stale until the next settle. Shared with
    /// forks until one side settles a stale run (copy on write).
    run: Arc<Vec<RunEntry>>,
    /// The lowest candidate whose run entry a toggle or a price splice
    /// has invalidated since the last settle; `usize::MAX` when none.
    run_stale: usize,
    /// Whether the bill never falls as views are added, at any reachable
    /// views size ([`bill_monotone`]): the condition under which a
    /// toggle can be ruled out as dominated. Recomputed when the model
    /// or a candidate's size changes.
    bill_monotone: bool,
}

/// Maintenance, materialization and size totals of a selection's
/// views. Each accumulator folds from its zero in the order views are
/// added; added in ascending candidate order, that is the model's own
/// separate `.sum()` calls bit for bit (`+=` delegates to the same
/// float add as `a + b`). A fold through the first `j` selected views
/// is the same whatever follows them, so the charge run keeps one per
/// selected view and a probe restarts from the one before its toggle.
#[derive(Debug, Default, Clone, Copy)]
struct Charges {
    maintenance: Hours,
    materialization: Hours,
    size: Gb,
}

impl Charges {
    fn of(v: &ViewCharge) -> Charges {
        Charges {
            maintenance: v.maintenance,
            materialization: v.materialization,
            size: v.size,
        }
    }

    fn add(&mut self, v: Charges) {
        self.maintenance += v.maintenance;
        self.materialization += v.materialization;
        self.size += v.size;
    }

    /// Every charge finite and ≥ 0: adding them to a fold never lowers
    /// it.
    fn nonnegative(self) -> bool {
        [
            self.maintenance.value(),
            self.materialization.value(),
            self.size.value(),
        ]
        .iter()
        .all(|x| x.is_finite() && *x >= 0.0)
    }

    /// The three totals' bits: equal bits, equal bills.
    fn bits(self) -> [u64; 3] {
        [
            self.maintenance.value(),
            self.materialization.value(),
            self.size.value(),
        ]
        .map(f64::to_bits)
    }

    /// The score of a selection with these charges and processing time
    /// `time`: the model's one bill assembly.
    fn score(self, model: &CloudCostModel, time: Hours) -> Score {
        let breakdown =
            model.breakdown_from_totals(time, self.maintenance, self.materialization, self.size);
        Score { time, breakdown }
    }
}

/// One selected view's entry in the charge run.
#[derive(Debug, Clone, Copy)]
struct RunEntry {
    view: u32,
    /// The view's own charges.
    own: Charges,
    /// The run's fold through this view, from zero.
    fold: Charges,
}

/// A toggle's effect on the time fold, summed over the queries it
/// rewrites: Δ, their term changes, and A, their terms old and new —
/// what [`IncrementalEvaluator::time_floor`] is formed from.
#[derive(Debug, Clone, Copy)]
struct TermChange {
    delta: f64,
    touched: f64,
}

/// What a move loop carries from one bounded probe to the next
/// ([`IncrementalEvaluator::probe_below`]; the module's *Bounded
/// probes*): the standing-charge floor's time threshold and, in a
/// flip-on fill, every candidate's selecting [`TermChange`] as last
/// scanned. One per loop, over one model, scenario and baseline; the
/// loop owns it, not the evaluator, so a fork copies none of it.
#[derive(Debug, Default)]
pub(crate) struct Floors {
    threshold: Option<Threshold>,
    /// Per candidate, its selecting toggle's term change as last
    /// scanned — empty outside a fill, whose evaluator only gains views
    /// between two reads.
    stale: Vec<Option<TermChange>>,
}

/// The standing-charge floor at one standing position and rank to beat:
/// its bill but the processing component, and what it decided so far.
/// With the charges fixed, the floor's rank never falls as its time
/// grows, so "ruled out" is a threshold in time.
#[derive(Debug, Clone, Copy)]
struct Threshold {
    /// The standing charges' bits.
    charges: [u64; 3],
    to_beat: Rank,
    /// Compute of the standing maintenance and materialization, the
    /// storage floor of the standing size, transfer.
    bill: CostBreakdown,
    /// The largest time floor found not ruled out (−∞: none yet) and the
    /// smallest ruled out (+∞).
    kept: f64,
    ruled: f64,
}

impl Floors {
    /// The floors of a flip-on fill from `ev`'s position, which must
    /// only gain views while they are read. Allocates once, and only
    /// past one fold block, where a bound is formed at all.
    pub(crate) fn for_fill(ev: &IncrementalEvaluator<'_>) -> Floors {
        let stale = if ev.block_time.len() > 1 {
            vec![None; ev.problem.len()]
        } else {
            Vec::new()
        };
        Floors {
            threshold: None,
            stale,
        }
    }

    /// Whether a selecting toggle whose time is at least `time` ranks no
    /// better than `to_beat` with the `standing` charges — a floor on the
    /// toggled ones — billed with storage at its floor. Reads the
    /// threshold when `time` is on a side of it already found, else
    /// prices one bill and moves it.
    fn standing_rules_out(
        &mut self,
        model: &CloudCostModel,
        standing: Charges,
        time: Hours,
        scenario: Scenario,
        baseline: &impl Scored,
        to_beat: Rank,
    ) -> bool {
        let charges = standing.bits();
        if self
            .threshold
            .as_ref()
            .is_some_and(|m| m.charges != charges || m.to_beat != to_beat)
        {
            self.threshold = None;
        }
        let memo = self.threshold.get_or_insert_with(|| {
            let (maintenance, materialization) = (standing.maintenance, standing.materialization);
            let bill = CostBreakdown {
                storage: model.storage_floor(standing.size),
                ..model.breakdown_from_totals(Hours::ZERO, maintenance, materialization, Gb::ZERO)
            };
            Threshold {
                charges,
                to_beat,
                bill,
                kept: f64::NEG_INFINITY,
                ruled: f64::INFINITY,
            }
        });
        let t = time.value();
        if t >= memo.ruled {
            return true;
        }
        if t <= memo.kept {
            return false;
        }
        let breakdown = CostBreakdown {
            compute_processing: model.compute_cost(time),
            ..memo.bill
        };
        match scenario
            .rank(&Score { time, breakdown }, baseline)
            .partial_cmp(&to_beat)
        {
            Some(Ordering::Less) => {
                memo.kept = t;
                false
            }
            Some(_) => {
                memo.ruled = t;
                true
            }
            None => false,
        }
    }
}

/// How many fold blocks are summed side by side: one accumulator each,
/// so the adds of different blocks overlap instead of queueing behind
/// one another.
const LANES: usize = 4;

/// Sums `LANES` full blocks of terms side by side, each in its own
/// order from an exact zero — every block's sum is the serial fold's
/// bit for bit.
fn fold_lanes(lanes: [&[Hours; TIME_FOLD_BLOCK]; LANES]) -> [Hours; LANES] {
    let mut sums = [Hours::ZERO; LANES];
    for i in 0..TIME_FOLD_BLOCK {
        for (sum, lane) in sums.iter_mut().zip(&lanes) {
            *sum += lane[i];
        }
    }
    sums
}

/// Refolds `blocks` of `term` into `block_time`: full blocks `LANES` at
/// a time side by side, a short last block on its own. Returns the
/// lowest block refolded (`block_time.len()` when none).
fn refold(term: &[Hours], block_time: &mut [Hours], blocks: impl Iterator<Item = usize>) -> usize {
    let (full, tail) = term.as_chunks::<TIME_FOLD_BLOCK>();
    let mut lowest = block_time.len();
    let mut group = [0usize; LANES];
    let mut used = 0;
    let flush = |group: &[usize; LANES], used: usize, block_time: &mut [Hours]| {
        // Unused lanes repeat the first block; their sums are dropped.
        let lanes = std::array::from_fn(|l| &full[group[if l < used { l } else { 0 }]]);
        for (&b, sum) in group[..used].iter().zip(fold_lanes(lanes)) {
            block_time[b] = sum;
        }
    };
    for b in blocks {
        lowest = lowest.min(b);
        if b == full.len() {
            let mut sum = Hours::ZERO;
            for &t in tail {
                sum += t;
            }
            block_time[b] = sum;
            continue;
        }
        group[used] = b;
        used += 1;
        if used == LANES {
            flush(&group, used, block_time);
            used = 0;
        }
    }
    if used > 0 {
        flush(&group, used, block_time);
    }
    lowest
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

/// Whether `problem`'s bill never falls as views are added, whichever
/// are selected: [`CloudCostModel::bill_monotone_upto`] the candidate-order
/// fold of every candidate's size. That fold bounds every selection's
/// folded size from above — a selection's fold is the full fold with
/// terms left out, and adding a term ≥ 0 to a sequential IEEE sum never
/// lowers it. O(n).
fn bill_monotone(problem: &SelectionProblem) -> bool {
    let max_views_size: Gb = problem.candidates().iter().map(|v| v.size).sum();
    problem.model().bill_monotone_upto(max_views_size)
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

/// The queries whose term toggling candidate `k` would rewrite, found
/// as [`IncrementalEvaluator::flip`] / [`IncrementalEvaluator::unflip`]
/// find them, each with the term the toggle would store — in ascending
/// query order, off `k`'s answers.
/// (One non-generic iterator, its `next` inlined: the probe's two
/// consumers, the one-block fold and the lane gather, then share it
/// without calling out per answer.)
struct Toggled<'a> {
    answers: std::iter::Zip<std::slice::Iter<'a, u32>, std::slice::Iter<'a, Hours>>,
    workload: &'a [QueryCharge],
    best_view: &'a [u32],
    best_time: &'a [Hours],
    second_view: &'a [u32],
    second_time: &'a [Hours],
    k: u32,
    /// Selecting `k` (else deselecting it).
    on: bool,
}

impl Iterator for Toggled<'_> {
    type Item = (usize, Hours);

    #[inline(always)]
    fn next(&mut self) -> Option<(usize, Hours)> {
        for (&q, &t) in self.answers.by_ref() {
            let i = q as usize;
            if self.on {
                // Selecting `k`: the queries it answers faster than their best.
                if self.best_view[i] == NONE || t < self.best_time[i] {
                    return Some((i, term_of(&self.workload[i], self.k, t)));
                }
            } else if self.best_view[i] == self.k {
                // Deselecting it: those whose best it is fall back to the
                // cached runner-up.
                let (view, time) = (self.second_view[i], self.second_time[i]);
                return Some((i, term_of(&self.workload[i], view, time)));
            }
        }
        None
    }
}

impl<'p> IncrementalEvaluator<'p> {
    /// Builds an evaluator positioned at the empty selection, borrowing
    /// `problem`. O(Σ deg + m).
    pub fn new(problem: &'p SelectionProblem) -> Self {
        Self::build(ProblemHandle::Borrowed(problem))
    }

    /// Builds an evaluator that **owns** its problem — what a caller
    /// that outlives the problem's scope holds (the epoch chain, the
    /// resident service); `retarget` and `update_charge` then write in
    /// place instead of cloning a borrow.
    pub fn from_problem(problem: SelectionProblem) -> IncrementalEvaluator<'static> {
        IncrementalEvaluator::build(ProblemHandle::Shared(Arc::new(problem)))
    }

    /// An independent evaluator at the same selection, for a
    /// scenario-tree branch point or a what-if: the per-selection state
    /// is copied, the answer index is shared for good and the problem
    /// until either side writes to it (the module's *Forks* section).
    /// O(m), independent of the pool. Counted as
    /// [`Counter::EvaluatorFork`], *not* as [`Counter::EvaluatorBuild`] —
    /// no index is built.
    pub fn fork(&self) -> Self {
        mv_obs::inc(Counter::EvaluatorFork);
        let mut fork = self.clone();
        // A stale run is copied and refolded here, not by the fork's
        // first probe; a settled one stays shared.
        fork.settle_run();
        fork
    }

    fn build(problem: ProblemHandle<'p>) -> Self {
        mv_obs::inc(Counter::EvaluatorBuild);
        let m = problem.model().context().workload.len();
        let blocks = m.div_ceil(TIME_FOLD_BLOCK);
        let mut ev = IncrementalEvaluator {
            index: Arc::new(Index::new(m, problem.candidates())),
            selection: SelectionSet::empty(problem.len()),
            problem,
            best_view: vec![NONE; m],
            best_time: vec![Hours::ZERO; m],
            second_view: vec![NONE; m],
            second_time: vec![Hours::ZERO; m],
            block_time: vec![Hours::ZERO; blocks],
            block_prefix: vec![Hours::ZERO; blocks + 1],
            block_dirty: vec![false; blocks],
            dirty_blocks: Vec::new(),
            all_dirty: true,
            term: vec![Hours::ZERO; m],
            run: Arc::new(Vec::new()),
            run_stale: usize::MAX,
            bill_monotone: false,
        };
        ev.reload_terms();
        ev.bill_monotone = bill_monotone(&ev.problem);
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

    /// The underlying problem (borrowed or owned), as `retarget` and
    /// `update_charge` have left it.
    pub fn problem(&self) -> &SelectionProblem {
        &self.problem
    }

    /// Re-prices candidate `k` in place — the epoch-boundary splice,
    /// and the fleet search's placement flip. O(1) (after one problem
    /// copy while a fork shares it): a [`Price`] cannot
    /// carry an answer profile, and nothing this evaluator caches (answer
    /// index, per-query minima, terms, block sums) depends
    /// on a view's size, build or refresh time but the charge run,
    /// whose entries from a selected `k` on the next settle refolds.
    /// Indices and the selection state of `k` are
    /// untouched. Returns the old price. (A view whose *answers* change
    /// is a different candidate, in a different pool.) A new size also
    /// rechecks whether the bill is monotone in the views: O(n).
    pub fn update_charge(&mut self, k: usize, price: Price) -> Price {
        let n = self.problem.len();
        assert!(k < n, "candidate {k} out of {n}");
        mv_obs::inc(Counter::EvaluatorUpdateCharge);
        if self.selection.contains(k) {
            self.run_stale = self.run_stale.min(k);
        }
        let old = self.problem.to_mut().reprice_candidate(k, price);
        if old.size != price.size {
            self.bill_monotone = bill_monotone(&self.problem);
        }
        old
    }

    /// Swaps in a new costing model over the same workload shape — the
    /// epoch-boundary *context* switch. The per-query best/runner-up
    /// caches survive untouched: they hold only candidate answer times,
    /// which do not depend on the model. What does depend on it is the
    /// per-query term cache (base times and frequencies are the
    /// model's), reloaded in O(m); the model brings its own transfer
    /// cost. While a fork shares the problem, it
    /// is copied first.
    pub fn retarget(&mut self, model: CloudCostModel) {
        mv_obs::inc(Counter::EvaluatorRetarget);
        self.problem.to_mut().set_model(model);
        // Base times and frequencies may have changed under every block.
        self.reload_terms();
        self.all_dirty = true;
        self.bill_monotone = bill_monotone(&self.problem);
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
        self.run_stale = self.run_stale.min(k);
        let kk = k as u32;
        // The shared halves once per flip, not once per answer.
        let workload = &self.problem.model().context().workload;
        let (queries, times) = self.index.by_view.row(k);
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
        self.run_stale = self.run_stale.min(k);
        let kk = k as u32;
        // The shared halves once per unflip, not once per answer.
        let workload = &self.problem.model().context().workload;
        let index: &Index = &self.index;
        let selection = &self.selection;
        for &q in index.by_view.row(k).0 {
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
                // With no runner-up to promote, the slot already says so.
                if sv != NONE {
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

    /// Recomputes every term (fresh build, new model). O(m).
    fn reload_terms(&mut self) {
        let workload = &self.problem.model().context().workload;
        for (i, q) in workload.iter().enumerate() {
            self.term[i] = term_of(q, self.best_view[i], self.best_time[i]);
        }
    }

    /// Brings every stale block sum up to date, and the block prefix
    /// from the lowest of them on.
    fn refresh_time_blocks(&mut self) {
        if !self.all_dirty && self.dirty_blocks.is_empty() {
            return;
        }
        for &b in &self.dirty_blocks {
            self.block_dirty[b as usize] = false;
        }
        let lowest = if std::mem::take(&mut self.all_dirty) {
            self.dirty_blocks.clear();
            let blocks = 0..self.block_time.len();
            refold(&self.term, &mut self.block_time, blocks)
        } else {
            let dirty = self.dirty_blocks.drain(..).map(|b| b as usize);
            refold(&self.term, &mut self.block_time, dirty)
        };
        // The running total stays in a local: read back from the prefix
        // each step, the chain would wait on its own stores.
        let mut total = self.block_prefix[lowest];
        let sums = &self.block_time[lowest..];
        for (prefix, &sum) in self.block_prefix[lowest + 1..].iter_mut().zip(sums) {
            total += sum;
            *prefix = total;
        }
    }

    /// Brings the charge run up to date: keeps the entries below the
    /// lowest invalidated candidate and refolds the selected views from
    /// there on.
    fn settle_run(&mut self) {
        if self.run_stale == usize::MAX {
            return;
        }
        let from = std::mem::replace(&mut self.run_stale, usize::MAX);
        let run = Arc::make_mut(&mut self.run);
        run.truncate(run.partition_point(|e| (e.view as usize) < from));
        let mut fold = run.last().map_or(Charges::default(), |e| e.fold);
        let candidates = self.problem.candidates();
        for j in self.selection.ones().skip_while(|&j| j < from) {
            let own = Charges::of(&candidates[j]);
            fold.add(own);
            run.push(RunEntry {
                view: j as u32,
                own,
                fold,
            });
        }
    }

    /// The selected views' charge totals, read off the run without
    /// writing it: its fold through the last entry still valid, then
    /// the views from the lowest invalidated one on.
    fn charges(&self) -> Charges {
        let stale = self.run_stale;
        let valid = self.run.partition_point(|e| (e.view as usize) < stale);
        let mut charges = valid
            .checked_sub(1)
            .map_or(Charges::default(), |j| self.run[j].fold);
        if stale != usize::MAX {
            let candidates = self.problem.candidates();
            for j in self.selection.ones().skip_while(|&j| j < stale) {
                charges.add(Charges::of(&candidates[j]));
            }
        }
        charges
    }

    /// What earlier accepted moves left stale — block sums, the block
    /// prefix, the charge run — brought up to date: the only write a
    /// probe makes, and what a move loop does last, so that forks of
    /// its result share the run.
    pub(crate) fn settle(&mut self) {
        self.refresh_time_blocks();
        self.settle_run();
    }

    /// Frequency-weighted total processing time (Formula 9 summed)
    /// through the canonical blocked fold: stale block sums refold from
    /// the term cache (each in workload order from an exact zero) and
    /// the total folds the block sums in order — exactly the
    /// arithmetic of `processing_time_with_views`, so the result is
    /// bit-identical. O(B·dirty + m/B − b₀) per call, for b₀ the lowest
    /// stale block (the prefix is rebuilt from there); O(1) once
    /// settled. Telemetry records the dirty-delta size (blocks
    /// refolded).
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
        self.block_prefix[self.block_time.len()]
    }

    /// Time and cost breakdown of the current selection, agreeing
    /// exactly with [`SelectionProblem::evaluate`] — the selection-free
    /// half of [`IncrementalEvaluator::snapshot`], for the move loops
    /// that rank thousands of neighbours and keep one. Settled, it
    /// reads the block prefix's total and the charge run's last fold.
    /// Otherwise it first refolds the stale blocks (see
    /// [`IncrementalEvaluator::processing_time`]) and folds the charges
    /// from the run's last valid entry on without writing the run — a
    /// what-if's fork scores its toggles without copying it.
    ///
    /// Exactness: the time total is summed in workload order and the
    /// per-candidate totals in candidate order — the same fold orders as
    /// the model's own aggregation — and the four totals become a
    /// breakdown through `CloudCostModel::breakdown_from_totals`, the
    /// call [`SelectionProblem::evaluate`] and `with_views` make.
    pub fn score(&mut self) -> Score {
        mv_obs::inc(Counter::EvaluatorSnapshot);
        let time = self.processing_time();
        self.charges().score(self.problem.model(), time)
    }

    /// Full [`Evaluation`] of the current selection:
    /// [`IncrementalEvaluator::score`] plus a handle on the selection
    /// (an `Arc` bump — which makes the evaluator's *next* flip pay one
    /// copy-on-write allocation, the reason move loops rank on `score`
    /// and materialize an `Evaluation` only for the move they keep).
    pub fn snapshot(&mut self) -> Evaluation {
        self.score().with_selection(self.selection.clone())
    }

    /// The time total with the terms of `changed` (ascending queries)
    /// in place of the cached ones, and the number of blocks refolded.
    /// The chain starts from the block prefix at the first touched
    /// block; the touched blocks are gathered, new terms in place, and
    /// summed [`LANES`] at a time side by side (a short last block
    /// padded with exact zeros: terms are finite and ≥ 0, so adding
    /// +0.0 to a running sum is the identity). A one-block workload
    /// folds its block in place: with no prefix to skip and nothing to
    /// sum beside it, a gather would only add work. (Inlined into both
    /// callers, `probe` and `probe_below`, as are `toggled` and
    /// `charges_toggled`: out of line, every probe paid the calls and a
    /// `Toggled` passed through memory.)
    #[inline(always)]
    fn time_with(&self, changed: Toggled<'_>) -> (Hours, u64) {
        let mut changed = changed.peekable();
        let blocks = self.block_time.len();
        let Some(&(first, _)) = changed.peek() else {
            return (self.block_prefix[blocks], 0);
        };
        if blocks == 1 {
            let mut block = Hours::ZERO;
            let mut i = 0;
            for (q, term) in changed {
                for &t in &self.term[i..q] {
                    block += t;
                }
                block += term;
                i = q + 1;
            }
            for &t in &self.term[i..] {
                block += t;
            }
            return (self.block_prefix[0] + block, 1);
        }
        self.time_with_lanes(first, changed)
    }

    /// [`IncrementalEvaluator::time_with`] past one block, from the
    /// first change's query `first` on. Out of line: its lane buffers
    /// would otherwise weigh on every one-block probe.
    #[inline(never)]
    fn time_with_lanes(
        &self,
        first: usize,
        mut changed: std::iter::Peekable<Toggled<'_>>,
    ) -> (Hours, u64) {
        let mut settled = first / TIME_FOLD_BLOCK;
        let mut time = self.block_prefix[settled];
        let mut refolded = 0u64;
        let mut lanes = [[Hours::ZERO; TIME_FOLD_BLOCK]; LANES];
        let mut group = [0usize; LANES];
        while changed.peek().is_some() {
            let mut used = 0;
            while let (true, Some(&(q, _))) = (used < LANES, changed.peek()) {
                let b = q / TIME_FOLD_BLOCK;
                let start = b * TIME_FOLD_BLOCK;
                let end = (start + TIME_FOLD_BLOCK).min(self.term.len());
                let lane = &mut lanes[used];
                lane[..end - start].copy_from_slice(&self.term[start..end]);
                lane[end - start..].fill(Hours::ZERO);
                while let Some((q, term)) = changed.next_if(|&(q, _)| q < end) {
                    lane[q - start] = term;
                }
                group[used] = b;
                used += 1;
            }
            // Unused lanes hold earlier blocks; their sums are dropped.
            for (&b, sum) in group[..used].iter().zip(fold_lanes(lanes.each_ref())) {
                for &s in &self.block_time[settled..b] {
                    time += s;
                }
                time += sum;
                settled = b + 1;
            }
            refolded += used as u64;
        }
        for &s in &self.block_time[settled..] {
            time += s;
        }
        (time, refolded)
    }

    /// The walk of the queries whose term toggling `k` would rewrite —
    /// selecting it if `on`, else deselecting it.
    #[inline(always)]
    fn toggled(&self, k: usize, on: bool) -> Toggled<'_> {
        let (queries, times) = self.index.by_view.row(k);
        Toggled {
            answers: queries.iter().zip(times),
            workload: &self.problem.model().context().workload,
            best_view: &self.best_view,
            best_time: &self.best_time,
            second_view: &self.second_view,
            second_time: &self.second_time,
            k: k as u32,
            on,
        }
    }

    /// The selected views' charge totals with `k` toggled, off a settled
    /// run: the run's fold through the views before `k`, then `k` in its
    /// place when selecting it (passed over when deselecting it), then
    /// the views after it.
    #[inline(always)]
    fn charges_toggled(&self, k: usize, on: bool) -> Charges {
        let at = self.run.partition_point(|e| (e.view as usize) < k);
        let mut charges = at
            .checked_sub(1)
            .map_or(Charges::default(), |j| self.run[j].fold);
        let after = if on {
            charges.add(Charges::of(&self.problem.candidates()[k]));
            at
        } else {
            at + 1
        };
        for e in &self.run[after..] {
            charges.add(e.own);
        }
        charges
    }

    /// What [`IncrementalEvaluator::score`] would return with candidate
    /// `k` toggled — selected if it is not, deselected if it is — read
    /// off the caches without writing to them: no flip, no dirty block,
    /// nothing to revert (the module's *Probes* section). The queries
    /// whose term would change are found as [`IncrementalEvaluator::flip`]
    /// / [`IncrementalEvaluator::unflip`] find them — selecting `k`:
    /// those it answers faster than their best; deselecting it: those
    /// whose best it is, which fall back to the cached runner-up — and
    /// get the term the toggle would have stored; every fold then runs
    /// as `score` would have run it after the toggle, each from the
    /// cached fold of what precedes the toggle's first change, so the
    /// result is bit-identical. O(deg + log selected + selected after
    /// `k` + blocks after the first touched one + B·affected); counts
    /// as one snapshot and no flips.
    pub fn probe(&mut self, k: usize) -> Score {
        mv_obs::inc(Counter::EvaluatorSnapshot);
        self.settle();
        let on = !self.selection.contains(k);
        let (time, refolded) = self.time_with(self.toggled(k, on));
        mv_obs::record(Hist::SnapshotDirtyBlocks, refolded);
        self.charges_toggled(k, on)
            .score(self.problem.model(), time)
    }

    /// The toggle's [`TermChange`]: one walk of its `Toggled` queries,
    /// O(deg).
    fn term_change(&self, k: usize, on: bool) -> TermChange {
        let (mut delta, mut touched) = (0.0, 0.0);
        for (i, term) in self.toggled(k, on) {
            let (new, old) = (term.value(), self.term[i].value());
            delta += new - old;
            touched += new + old;
        }
        TermChange { delta, touched }
    }

    /// A lower bound on the time total with `k` toggled, in O(1) from
    /// its term change — the settled total plus Δ, less the rounding
    /// error the blocked fold could hide (the module's *Bounded
    /// probes*): never above what [`IncrementalEvaluator::probe`]
    /// returns. So is a selecting toggle's term change scanned at an
    /// earlier position this one only added views to.
    fn time_floor(&self, k: usize, change: TermChange) -> Hours {
        let blocks = self.block_time.len();
        let total = self.block_prefix[blocks].value();
        let deg = self.index.by_view.row(k).0.len();
        let eps = 4.0 * gamma(TIME_FOLD_BLOCK + blocks + deg + 1);
        Hours::new((total + change.delta - eps * (total + change.touched)).max(0.0))
    }

    /// The standing charges — the settled run's last fold — when they
    /// are a floor on the charges of selecting `k`: both finite and ≥ 0,
    /// so inserting `k`'s into the fold lowers none of its totals.
    fn standing_floor(&self, k: usize) -> Option<Charges> {
        let standing = self.run.last().map_or(Charges::default(), |e| e.fold);
        let own = Charges::of(&self.problem.candidates()[k]);
        (standing.nonnegative() && own.nonnegative()).then_some(standing)
    }

    /// Past one fold block, the bounds a move goes through before an
    /// exact score, cheapest first; the toggle's exact charges if none
    /// rules it out. A selecting toggle tries the standing-charge floor
    /// — first at its stale term change in a fill (no scan), then at a
    /// fresh one — and every toggle the floor of its exact charges, at
    /// the same time floor.
    fn bounded(
        &self,
        k: usize,
        on: bool,
        scenario: Scenario,
        baseline: &impl Scored,
        to_beat: Rank,
        floors: &mut Floors,
    ) -> Option<Charges> {
        let model = self.problem.model();
        let standing = if on { self.standing_floor(k) } else { None };
        let stale = if on {
            floors.stale.get(k).copied().flatten()
        } else {
            None
        };
        if let (Some(standing), Some(change)) = (standing, stale) {
            let time = self.time_floor(k, change);
            if floors.standing_rules_out(model, standing, time, scenario, baseline, to_beat) {
                return self.ruled_out(k, on, scenario, baseline, to_beat, time);
            }
        }
        let change = self.term_change(k, on);
        if let (true, Some(slot)) = (on, floors.stale.get_mut(k)) {
            *slot = Some(change);
        }
        let time = self.time_floor(k, change);
        if let Some(standing) = standing {
            if floors.standing_rules_out(model, standing, time, scenario, baseline, to_beat) {
                return self.ruled_out(k, on, scenario, baseline, to_beat, time);
            }
        }
        let charges = self.charges_toggled(k, on);
        // The exact rank is no lower than the floor's, so a floor not
        // below `to_beat` rules the move out.
        let floor = scenario.rank(&charges.score(model, time), baseline);
        if floor.partial_cmp(&to_beat) != Some(Ordering::Less) {
            return self.ruled_out(k, on, scenario, baseline, to_beat, time);
        }
        Some(charges)
    }

    /// A move a bound ruled out at time floor `floor`: counted as
    /// [`Counter::SearchBounded`] and no snapshot. Under debug
    /// assertions it is also scored exactly, uncounted, and asserted not
    /// to have won (off a settled evaluator).
    fn ruled_out<T>(
        &self,
        k: usize,
        on: bool,
        scenario: Scenario,
        baseline: &impl Scored,
        to_beat: Rank,
        floor: Hours,
    ) -> Option<T> {
        mv_obs::inc(Counter::SearchBounded);
        if cfg!(debug_assertions) {
            let (time, _) = self.time_with(self.toggled(k, on));
            let exact = self
                .charges_toggled(k, on)
                .score(self.problem.model(), time);
            let rank = scenario.rank(&exact, baseline);
            assert!(
                floor <= exact.time && rank.partial_cmp(&to_beat) != Some(Ordering::Less),
                "candidate {k}: ruled out at {floor:?}, yet {exact:?} beats {to_beat:?}"
            );
        }
        None
    }

    /// [`IncrementalEvaluator::probe`]`(k)` and its rank, if that rank is
    /// below `to_beat` — `None` otherwise: the entry every move loop that
    /// keeps the first strictly better move goes through, with the
    /// [`Floors`] it carries from move to move. Past one fold block it
    /// first tries the bounds of [`IncrementalEvaluator::bounded`], and
    /// scores exactly only a move none of them rules out: a ruled-out
    /// move counts as [`Counter::SearchBounded`] and no snapshot. The
    /// exact score's charges are those its last bound priced.
    pub(crate) fn probe_below(
        &mut self,
        k: usize,
        scenario: Scenario,
        baseline: &impl Scored,
        to_beat: Rank,
        floors: &mut Floors,
    ) -> Option<(Score, Rank)> {
        self.settle();
        let on = !self.selection.contains(k);
        let charges = if self.block_time.len() > 1 {
            self.bounded(k, on, scenario, baseline, to_beat, floors)?
        } else {
            self.charges_toggled(k, on)
        };
        mv_obs::inc(Counter::EvaluatorSnapshot);
        let (time, refolded) = self.time_with(self.toggled(k, on));
        mv_obs::record(Hist::SnapshotDirtyBlocks, refolded);
        let score = charges.score(self.problem.model(), time);
        let rank = scenario.rank(&score, baseline);
        (rank < to_beat).then_some((score, rank))
    }

    /// Whether selecting candidate `k` is *dominated* — ranks no better
    /// than the standing position, under every scenario (the module's
    /// *Dominated toggles*): `k` is unselected, answers no query faster
    /// than its best (the toggle yields no query: the time stays the
    /// standing total bit for bit), its charges are finite and ≥ 0 (each
    /// charge total can only grow), and the bill never falls as the
    /// views' size grows. O(deg) — no fold, no bill.
    pub(crate) fn dominated_on(&self, k: usize) -> bool {
        self.bill_monotone
            && !self.selection.contains(k)
            && Charges::of(&self.problem.candidates()[k]).nonnegative()
            && self.toggled(k, true).next().is_none()
    }

    /// [`IncrementalEvaluator::probe_below`] for a move loop whose
    /// `to_beat` is no worse than the standing position's rank (each
    /// loop's invariant: see `local_search`'s module docs). A dominated
    /// toggle ranks no better than the standing position, so it cannot
    /// beat `to_beat`: it is ruled out first, without a score, as
    /// [`IncrementalEvaluator::ruled_out`] counts and checks it.
    pub(crate) fn probe_unless_dominated(
        &mut self,
        k: usize,
        scenario: Scenario,
        baseline: &impl Scored,
        to_beat: Rank,
        floors: &mut Floors,
    ) -> Option<(Score, Rank)> {
        if self.dominated_on(k) {
            self.settle();
            return self.ruled_out(k, true, scenario, baseline, to_beat, Hours::ZERO);
        }
        self.probe_below(k, scenario, baseline, to_beat, floors)
    }
}

/// Higham's γₙ = n·u / (1 − n·u), for u the unit roundoff of `f64`: a
/// bound on the relative error of a chain of n roundings.
fn gamma(n: usize) -> f64 {
    let nu = n as f64 * (f64::EPSILON / 2.0);
    nu / (1.0 - nu)
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

    /// One query, forty answerers on five time levels: the query's row
    /// is fastest first with ties in view order, and whichever views a
    /// walk leaves selected, the cached best and runner-up are the two
    /// smallest selected times — the rescan's first hit is exact.
    #[test]
    fn rescan_is_exact_on_a_query_with_forty_tied_answerers() {
        let model = random_problem(1, 1, 0).model().clone();
        let time_of = |k: usize| Hours::new(0.001 * (1 + (k * 7) % 5) as f64);
        let views = (0..40)
            .map(|k| {
                let size = Gb::new(0.1 + k as f64);
                ViewCharge::new(format!("v{k}"), size, Hours::new(0.1), Hours::new(0.01), 1)
                    .answers(0, time_of(k))
            })
            .collect();
        let p = SelectionProblem::new(model, views);
        let mut ev = IncrementalEvaluator::new(&p);
        let (row_views, row_times) = ev.index.by_query.row(0);
        assert_eq!(row_views.len(), 40);
        for j in 1..40 {
            let (a, b) = (row_times[j - 1], row_times[j]);
            assert!(
                a < b || (a == b && row_views[j - 1] < row_views[j]),
                "row entry {j}"
            );
        }
        let mut state = 0x2545f4914f6cdd1du64;
        for step in 0..400 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ev.toggle((state as usize) % 40);
            let mut times: Vec<Hours> = ev.selection().ones().map(time_of).collect();
            times.sort_by(|a, b| a.cmp_total(*b));
            let cached = |view: u32, time: Hours| (view != NONE).then_some(time);
            assert_eq!(
                cached(ev.best_view[0], ev.best_time[0]),
                times.first().copied()
            );
            assert_eq!(
                cached(ev.second_view[0], ev.second_time[0]),
                times.get(1).copied(),
                "step {step}: runner-up of {times:?}"
            );
            assert_eq!(ev.snapshot(), p.evaluate(ev.selection()), "step {step}");
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
    fn from_problem_grows_from_zero_candidates() {
        let p = paper_like_problem();
        let over = |pool: &[ViewCharge]| {
            IncrementalEvaluator::from_problem(SelectionProblem::new(
                p.model().clone(),
                pool.to_vec(),
            ))
        };
        let mut ev = over(&[]);
        let base = p.baseline();
        assert_eq!(ev.snapshot().time, base.time);
        assert_eq!(ev.snapshot().breakdown, base.breakdown);
        // Admit the static problem's candidates one at a time: a new
        // evaluator over the grown pool at the standing selection, then
        // select the newcomer.
        for k in 0..p.len() {
            let standing = ev.selection().clone();
            ev = over(&p.candidates()[..=k]);
            for j in standing.ones() {
                ev.flip(j);
            }
            ev.flip(k);
            assert_eq!(ev.snapshot(), ev.problem().evaluate(ev.selection()));
        }
        // Fully grown, the owned problem is the static problem.
        let full = p.evaluate(&SelectionSet::full(p.len()));
        assert_eq!(ev.snapshot(), full);
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
