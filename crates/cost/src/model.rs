//! The paper's cost models (Sections 3 and 4).
//!
//! [`CloudCostModel::without_views`] implements Section 3 — data management
//! cost with no materialized views (Formulas 1–5). [`CloudCostModel::
//! with_views`] implements Section 4 — the same three components, with
//! compute split into processing/maintenance/materialization (Formulas
//! 6–12) and storage covering the views for the whole period.
//!
//! Rounding convention: billable hours are rounded **per cost component**
//! (processing, maintenance, materialization each round up independently),
//! which is exactly how the paper's worked Examples 2, 4, 6 and 8 compute
//! their dollar figures.

use std::sync::Arc;

use mv_pricing::StorageTimeline;
use mv_units::{Gb, Hours, Money, Months};

use crate::{CostBreakdown, CostContext, SelectionSet, ViewCharge};

/// Block width of the canonical two-level processing-time fold shared by
/// [`CloudCostModel::processing_time_with_views`] and the incremental
/// evaluators that must reproduce it bit-for-bit.
pub const TIME_FOLD_BLOCK: usize = 64;

/// Evaluates the paper's cost formulas over a [`CostContext`].
///
/// What a bill needs of the context but not of the selection — the
/// transfer cost — is worked out once, in [`CloudCostModel::new`]. That
/// makes [`CloudCostModel::breakdown_from_totals`] allocation-free —
/// cheap enough to be the one bill assembly behind full evaluations and
/// incremental probes alike.
///
/// A model is never written after [`CloudCostModel::new`], so a clone
/// shares the context (workload names, price catalog) behind one `Arc`:
/// a reference-count bump, no allocation — what an epoch edge's
/// retarget and a fleet node's base model pay.
/// [`CloudCostModel::with_frequencies`] and
/// [`CloudCostModel::scale_rates`] are new models and copy the context
/// once.
#[derive(Debug, Clone)]
pub struct CloudCostModel {
    ctx: Arc<CostContext>,
    /// [`CloudCostModel::transfer_cost`] of the context.
    transfer: Money,
}

impl CloudCostModel {
    /// Wraps a context and precomputes its selection-independent part,
    /// the transfer cost. Every context is accepted: nothing here panics.
    pub fn new(ctx: CostContext) -> Self {
        CloudCostModel {
            transfer: transfer_cost_of(&ctx),
            ctx: Arc::new(ctx),
        }
    }

    /// The wrapped context.
    pub fn context(&self) -> &CostContext {
        &self.ctx
    }

    /// The same model with query `i` executed `frequencies[i]` times per
    /// period — what differs between two epochs of a horizon, or between
    /// a resident plan and the traffic observed since. Every measured
    /// charge and the price sheet are kept. A new model: the context is
    /// copied once, not shared.
    ///
    /// # Panics
    /// Panics unless there is one frequency per workload query.
    pub fn with_frequencies(&self, frequencies: &[f64]) -> CloudCostModel {
        assert_eq!(
            frequencies.len(),
            self.ctx.workload.len(),
            "one frequency per workload query"
        );
        let mut ctx = CostContext::clone(&self.ctx);
        for (q, &f) in ctx.workload.iter_mut().zip(frequencies) {
            q.frequency = f;
        }
        CloudCostModel::new(ctx)
    }

    /// The same model on a re-priced sheet: compute, storage and
    /// transfer rates multiplied by their own factors
    /// ([`mv_pricing::PricingPolicy::scale_rates`]), and the rented
    /// instance by the compute factor under the catalog's own rule
    /// ([`mv_pricing::InstanceType::scaled`]) — Formula 4 prices through
    /// the context's instance, so an unscaled one would keep compute
    /// drift off the bill. Factors of exactly `1.0` reproduce the model
    /// bit for bit. A new model: the context is copied once.
    ///
    /// # Panics
    /// Panics unless every factor is finite and non-negative.
    pub fn scale_rates(&self, compute: f64, storage: f64, transfer: f64) -> CloudCostModel {
        let ctx = &self.ctx;
        CloudCostModel::new(CostContext {
            pricing: ctx.pricing.scale_rates(compute, storage, transfer),
            instance: ctx.instance.scaled(compute),
            workload: ctx.workload.clone(),
            ..**ctx
        })
    }

    // ------------------------------------------------------------------
    // Section 3: no views.
    // ------------------------------------------------------------------

    /// Formula 3: `Ct = Σ s(R_i) × ct`, with the provider's tier schedule
    /// applied to the period's aggregated outbound volume. (Formula 2's
    /// input terms are zero under free-inbound providers; for providers
    /// that do charge inbound, the initial upload is added.) Recomputed
    /// from the context on every call — the reference for the value
    /// [`CloudCostModel::new`] caches for the bill assembly.
    pub fn transfer_cost(&self) -> Money {
        transfer_cost_of(&self.ctx)
    }

    /// Formula 4: `Cc = RoundUp(Σ t_i) × c(IC) × nbIC`.
    pub fn compute_cost_without_views(&self) -> Money {
        self.compute_cost(self.ctx.base_processing_time())
    }

    /// Section 3 total: `C = Cc + Cs + Ct` — the Section 4 bill of no
    /// views at all.
    pub fn without_views(&self) -> CostBreakdown {
        self.breakdown_from_totals(
            self.ctx.base_processing_time(),
            Hours::ZERO,
            Hours::ZERO,
            Gb::ZERO,
        )
    }

    // ------------------------------------------------------------------
    // Section 4: with views.
    // ------------------------------------------------------------------

    /// Formula 9: per-query best time under a selection — each query uses
    /// the fastest selected view that can answer it, else its base time.
    /// O(selected · log deg) for the one query; the summed form
    /// ([`CloudCostModel::processing_time_with_views`]) does not call
    /// this per query, and the differential tests fold it as the slow
    /// reference.
    pub fn query_time_with_views(
        &self,
        index: usize,
        views: &[ViewCharge],
        selected: &SelectionSet,
    ) -> Hours {
        let mut best = self.ctx.workload[index].base_time;
        for k in selected.ones() {
            if let Some(t) = views[k].profile.get(index) {
                best = best.min(t);
            }
        }
        best
    }

    /// Formula 9 summed: `TprocessingQ = Σ t_iV` (frequency-weighted).
    ///
    /// The per-query minima are found by *scattering*: every query
    /// starts at its base time and each selected view, in ascending
    /// candidate order, lowers the queries of its sparse profile —
    /// the same `min` sequence per query as
    /// [`CloudCostModel::query_time_with_views`], in O(m + Σ deg) over
    /// the selected views' degrees instead of one O(selected · log deg)
    /// sweep per query.
    ///
    /// The fold is *blocked*: per-query terms accumulate into
    /// [`TIME_FOLD_BLOCK`]-wide partial sums (each folded from zero in
    /// workload order) and the total folds the block sums in order. For
    /// workloads of at most one block this is bitwise-identical to the
    /// flat left fold (adding to an exact zero is the identity on
    /// non-negative terms), so the paper's worked dollar figures are
    /// unchanged — and incremental evaluators can cache the block sums
    /// and refold only dirty blocks while staying bit-identical to this
    /// definition.
    pub fn processing_time_with_views(
        &self,
        views: &[ViewCharge],
        selected: &SelectionSet,
    ) -> Hours {
        let workload = &self.ctx.workload;
        let mut best: Vec<Hours> = workload.iter().map(|q| q.base_time).collect();
        for k in selected.ones() {
            let profile = &views[k].profile;
            for (&i, &t) in profile.query_ids().iter().zip(profile.times()) {
                let slot = &mut best[i as usize];
                *slot = slot.min(t);
            }
        }
        let mut total = Hours::ZERO;
        for (times, queries) in best
            .chunks(TIME_FOLD_BLOCK)
            .zip(workload.chunks(TIME_FOLD_BLOCK))
        {
            let mut block = Hours::ZERO;
            for (&t, q) in times.iter().zip(queries) {
                block += t * q.frequency;
            }
            total += block;
        }
        total
    }

    /// Formula 7: total materialization time of the selected views.
    pub fn materialization_time(&self, views: &[ViewCharge], selected: &SelectionSet) -> Hours {
        selected.ones().map(|k| views[k].materialization).sum()
    }

    /// Formula 11: total maintenance time of the selected views per period.
    pub fn maintenance_time(&self, views: &[ViewCharge], selected: &SelectionSet) -> Hours {
        selected.ones().map(|k| views[k].maintenance).sum()
    }

    /// Extra storage of the selected views.
    pub fn views_size(&self, views: &[ViewCharge], selected: &SelectionSet) -> Gb {
        selected.ones().map(|k| views[k].size).sum()
    }

    /// Section 4 total (Formulas 6–12 plus unchanged Formula 3 transfer).
    /// Callers that also need the processing time fold it once and go
    /// through [`CloudCostModel::breakdown_from_totals`] themselves
    /// (`SelectionProblem::evaluate` does).
    pub fn with_views(&self, views: &[ViewCharge], selected: &SelectionSet) -> CostBreakdown {
        assert_eq!(
            views.len(),
            selected.len(),
            "selection mask must align with candidates"
        );
        self.breakdown_from_totals(
            self.processing_time_with_views(views, selected),
            self.maintenance_time(views, selected),
            self.materialization_time(views, selected),
            self.views_size(views, selected),
        )
    }

    /// Assembles the Section 4 breakdown from already-aggregated totals
    /// — the one place a bill is put together. [`CloudCostModel::
    /// with_views`] is defined in terms of it, and so is every consumer
    /// that tracks the four totals itself (`mv-select`'s
    /// `SelectionProblem::evaluate`, its `IncrementalEvaluator::score`,
    /// the DP oracles' state tables), so their breakdowns are
    /// bit-identical to a full re-evaluation by construction. Allocates
    /// nothing: transfer was worked out by [`CloudCostModel::new`].
    pub fn breakdown_from_totals(
        &self,
        processing: Hours,
        maintenance: Hours,
        materialization: Hours,
        views_size: Gb,
    ) -> CostBreakdown {
        CostBreakdown {
            transfer: self.transfer,
            compute_processing: self.compute_cost(processing),
            compute_maintenance: self.compute_cost(maintenance),
            compute_materialization: self.compute_cost(materialization),
            storage: self.storage_cost(views_size),
        }
    }

    // ------------------------------------------------------------------
    // Shared pieces.
    // ------------------------------------------------------------------

    /// One compute component: `RoundUp(time) × c(IC) × nbIC` under the
    /// provider's rounding rule. Zero time bills zero (no idle charge).
    /// Public for callers that re-price one component of a breakdown
    /// [`CloudCostModel::breakdown_from_totals`] produced (the epoch
    /// chain's full-price materialization).
    pub fn compute_cost(&self, time: Hours) -> Money {
        if time == Hours::ZERO {
            return Money::ZERO;
        }
        self.ctx
            .pricing
            .compute
            .cost(time, &self.ctx.instance, self.ctx.nb_instances)
    }

    /// Formula 5 over a static dataset: `dataset + extra` (the selected
    /// views) stored for the whole period, one interval — equal to
    /// `period_cost(&storage_timeline(extra))` bit for bit
    /// (`tests/bill_reference.rs`).
    fn storage_cost(&self, extra: Gb) -> Money {
        self.ctx
            .pricing
            .storage
            .cost(self.ctx.dataset_size + extra, self.ctx.months)
    }

    /// A floor on the storage bill of any selection whose views weigh
    /// at least `views_size`: the least storage component of
    /// [`CloudCostModel::breakdown_from_totals`] any size at or above it
    /// can reach
    /// ([`mv_pricing::StoragePricing::floor_cost`] of `dataset +
    /// views_size`; rounded addition never falls as an operand grows).
    /// The storage bill itself on a graduated sheet; on a flat-by-volume
    /// sheet, possibly less, where more views would cross a threshold
    /// to a cheaper bracket.
    pub fn storage_floor(&self, views_size: Gb) -> Money {
        self.ctx
            .pricing
            .storage
            .floor_cost(self.ctx.dataset_size + views_size, self.ctx.months)
    }

    /// Whether the bill never falls as the selected views' total size
    /// grows anywhere in `[0, max_views_size]` (compute, transfer and
    /// the hours' rounding already never do). Storage is the one
    /// component that can: it bills `dataset + views`, and the storage
    /// sheet must never fall from the dataset alone to `dataset +
    /// max_views_size` ([`mv_pricing::TierSchedule::monotone_between`]).
    /// `true` for a zero-length period, which stores nothing; `false`
    /// for a `max_views_size` that overflowed to infinity.
    pub fn bill_monotone_upto(&self, max_views_size: Gb) -> bool {
        if !max_views_size.value().is_finite() {
            return false;
        }
        let dataset = self.ctx.dataset_size;
        self.ctx.months == Months::ZERO
            || self
                .ctx
                .pricing
                .storage
                .monthly
                .monotone_between(dataset, dataset + max_views_size)
    }

    /// The storage timeline [`CloudCostModel::with_views`] bills —
    /// rebuilt (and allocated) per call: the slow reference of the
    /// storage component, and what invoice reconciliation records.
    pub fn storage_timeline(&self, extra_views: Gb) -> StorageTimeline {
        StorageTimeline::new(self.ctx.dataset_size + extra_views, self.ctx.months)
    }
}

/// Formula 3 (plus Formula 2's inbound term where the provider charges
/// it) over a context.
fn transfer_cost_of(ctx: &CostContext) -> Money {
    let out = ctx.pricing.transfer.outbound_cost(ctx.total_result_size());
    if ctx.pricing.transfer.inbound_is_free() {
        out
    } else {
        // General Formula 2: the dataset enters once.
        out + ctx.pricing.transfer.inbound_cost(ctx.dataset_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryCharge;
    use mv_pricing::presets;

    /// The running example as a costing context.
    fn running_example() -> CloudCostModel {
        let pricing = presets::aws_2012();
        let instance = pricing.compute.instance("small").unwrap().clone();
        CloudCostModel::new(CostContext {
            pricing,
            instance,
            nb_instances: 2,
            months: Months::new(12.0),
            dataset_size: Gb::new(500.0),
            workload: vec![QueryCharge::new("Q", Gb::new(10.0), Hours::new(50.0))],
        })
    }

    fn v1(workload_len: usize) -> ViewCharge {
        ViewCharge::new(
            "V1",
            Gb::new(50.0),
            Hours::new(1.0),
            Hours::new(5.0),
            workload_len,
        )
        .answers(0, Hours::new(40.0))
    }

    #[test]
    fn section3_costs() {
        let m = running_example();
        let b = m.without_views();
        assert_eq!(b.transfer, Money::from_dollars_str("1.08").unwrap());
        assert_eq!(b.compute_processing, Money::from_dollars(12));
        // 500 GB × 12 × $0.14 = $840.
        assert_eq!(b.storage, Money::from_dollars(840));
        assert_eq!(b.total(), Money::from_dollars_str("853.08").unwrap());
    }

    #[test]
    fn section4_costs_with_v1() {
        let m = running_example();
        let views = vec![v1(1)];
        let selected = SelectionSet::full(1);
        assert_eq!(
            m.processing_time_with_views(&views, &selected).value(),
            40.0
        );
        let b = m.with_views(&views, &selected);
        assert_eq!(
            b.compute_processing,
            Money::from_dollars_str("9.6").unwrap()
        );
        assert_eq!(
            b.compute_maintenance,
            Money::from_dollars_str("1.2").unwrap()
        );
        assert_eq!(
            b.compute_materialization,
            Money::from_dollars_str("0.24").unwrap()
        );
        // (500+50) GB × 12 × $0.14 = $924 (the paper's Example 9).
        assert_eq!(b.storage, Money::from_dollars(924));
        // Transfer unchanged (Section 4.1).
        assert_eq!(b.transfer, Money::from_dollars_str("1.08").unwrap());
    }

    #[test]
    fn deselected_views_charge_nothing() {
        let m = running_example();
        let views = vec![v1(1)];
        let selected = SelectionSet::empty(1);
        let b = m.with_views(&views, &selected);
        assert_eq!(b, m.without_views());
    }

    #[test]
    fn best_view_wins_per_query() {
        let m = running_example();
        let views = vec![
            v1(1),
            ViewCharge::new("V2", Gb::new(5.0), Hours::new(0.5), Hours::new(1.0), 1)
                .answers(0, Hours::new(20.0)),
        ];
        // Both selected: the faster V2 answers Q.
        assert_eq!(
            m.processing_time_with_views(&views, &SelectionSet::from_mask(0b11, 2))
                .value(),
            20.0
        );
        // Only V1: 40 h.
        assert_eq!(
            m.processing_time_with_views(&views, &SelectionSet::from_mask(0b01, 2))
                .value(),
            40.0
        );
        // A view that cannot answer leaves the base time.
        assert_eq!(
            m.processing_time_with_views(&views, &SelectionSet::from_mask(0b00, 2))
                .value(),
            50.0
        );
    }

    #[test]
    fn bill_is_monotone_while_storage_stays_in_one_bracket() {
        // 500 GB of data on AWS-2012's flat-by-volume sheet: up to 523 GB
        // of views stays under its 1 024 GB threshold.
        let m = running_example();
        assert!(m.bill_monotone_upto(Gb::ZERO));
        assert!(m.bill_monotone_upto(Gb::new(523.0)));
        assert!(!m.bill_monotone_upto(Gb::new(524.0)));
        let overflow = Gb::new(f64::MAX) + Gb::new(f64::MAX);
        assert!(!m.bill_monotone_upto(overflow));
        // A graduated sheet never falls.
        let mut ctx = m.context().clone();
        ctx.pricing.storage.monthly = ctx
            .pricing
            .storage
            .monthly
            .with_mode(mv_pricing::TierMode::Graduated);
        assert!(CloudCostModel::new(ctx).bill_monotone_upto(Gb::new(1e6)));
        // No data and no views is zero volume: in no bracket.
        let mut empty = m.context().clone();
        empty.dataset_size = Gb::ZERO;
        assert!(!CloudCostModel::new(empty.clone()).bill_monotone_upto(Gb::new(1.0)));
        // A zero-length period stores nothing.
        empty.months = Months::ZERO;
        assert!(CloudCostModel::new(empty).bill_monotone_upto(Gb::new(1.0)));
    }

    #[test]
    fn storage_floor_bounds_every_larger_selection() {
        // 500 GB of data on AWS-2012's flat-by-volume sheet: up to 523 GB
        // of views the bill is the floor; 524 GB and more could cross
        // 1 TB, where every gigabyte bills at $0.125 instead of $0.14.
        let m = running_example();
        let storage = |views: f64| {
            m.breakdown_from_totals(Hours::ZERO, Hours::ZERO, Hours::ZERO, Gb::new(views))
                .storage
        };
        assert_eq!(m.storage_floor(Gb::new(50.0)), storage(50.0));
        let floor = m.storage_floor(Gb::new(523.5));
        assert!(floor < storage(523.5));
        assert_eq!(
            floor,
            Money::from_dollars_str("0.125")
                .unwrap()
                .scale(1024.0)
                .scale(12.0)
        );
        for views in [523.5, 523.9, 524.0, 524.5, 600.0, 2000.0] {
            assert!(floor <= storage(views), "{views} GB");
        }
    }

    #[test]
    fn a_clone_shares_the_context() {
        let m = running_example();
        let c = m.clone();
        assert!(std::ptr::eq(m.context(), c.context()));
        assert_eq!(
            c.with_views(&[v1(1)], &SelectionSet::full(1)),
            m.with_views(&[v1(1)], &SelectionSet::full(1))
        );
        let f = m.with_frequencies(&[2.0]);
        assert!(!std::ptr::eq(m.context(), f.context()));
        assert_eq!(m.context().workload[0].frequency, 1.0);
    }

    #[test]
    #[should_panic(expected = "selection mask must align")]
    fn misaligned_selection_panics() {
        let m = running_example();
        m.with_views(&[v1(1)], &SelectionSet::from_mask(0b01, 2));
    }
}
