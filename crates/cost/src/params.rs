//! Cost-model inputs (the paper's Table 5 parameters and Section 4 view
//! attributes).

use mv_pricing::{InstanceType, Placement, PricingPolicy};
use mv_units::{Gb, Hours, Months};

use crate::AnswerProfile;

/// One workload query's chargeable characteristics: the paper's `Q_i`,
/// `s(R_i)` and `t_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCharge {
    /// Query identifier.
    pub name: String,
    /// Result size `s(R_i)` transferred out per execution.
    pub result_size: Gb,
    /// Processing time on the base dataset (no views), `t_i`.
    pub base_time: Hours,
    /// Executions per billing period (1.0 = the paper's fixed workload).
    pub frequency: f64,
}

impl QueryCharge {
    /// A once-per-period query.
    pub fn new(name: impl Into<String>, result_size: Gb, base_time: Hours) -> Self {
        QueryCharge {
            name: name.into(),
            result_size,
            base_time,
            frequency: 1.0,
        }
    }
}

/// A candidate view's chargeable characteristics (Section 4): size,
/// one-time materialization time, per-period maintenance time, and the
/// improved per-query times `t_iV`.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewCharge {
    /// View identifier.
    pub name: String,
    /// Stored size `s(V_k)` (extra storage for the whole period).
    pub size: Gb,
    /// One-time build time `t_materialization(V_k)`.
    pub materialization: Hours,
    /// Refresh time per billing period `t_maintenance(V_k)`.
    pub maintenance: Hours,
    /// Which workload queries this view can answer, and in what time
    /// `t_iV` — a sparse profile keyed by workload index (most views in
    /// a large lattice answer only a few queries). Its workload length
    /// must align with the costing context's workload.
    pub profile: AnswerProfile,
    /// Which fleet pool this view's build/refresh work runs on. The
    /// paper's single-fleet setting is all-[`Placement::Reserved`];
    /// mixed-fleet solves treat it as a per-view decision dimension
    /// (`mv_select`'s placement-flip moves) and charge the view through
    /// its pool's terms ([`crate::PoolCharge`]).
    pub placement: Placement,
}

impl ViewCharge {
    /// Convenience constructor; the profile defaults to "answers
    /// nothing" and is filled per query with [`ViewCharge::answers`].
    pub fn new(
        name: impl Into<String>,
        size: Gb,
        materialization: Hours,
        maintenance: Hours,
        workload_len: usize,
    ) -> Self {
        ViewCharge {
            name: name.into(),
            size,
            materialization,
            maintenance,
            profile: AnswerProfile::none(workload_len),
            placement: Placement::default(),
        }
    }

    /// Declares that this view answers workload query `index` in `time`.
    pub fn answers(mut self, index: usize, time: Hours) -> Self {
        self.profile.set(index, time);
        self
    }

    /// Sets the view's fleet placement (builder style).
    pub fn placed(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// The four numbers re-pricing may move.
    pub fn price(&self) -> Price {
        Price {
            size: self.size,
            materialization: self.materialization,
            maintenance: self.maintenance,
            placement: self.placement,
        }
    }

    /// Re-prices the view in place; name and answer profile stay.
    pub fn set_price(&mut self, price: Price) {
        self.size = price.size;
        self.materialization = price.materialization;
        self.maintenance = price.maintenance;
        self.placement = price.placement;
    }

    /// The price this view presents when *carried over* an epoch
    /// boundary in a multi-period horizon: its one-time materialization
    /// was paid in an earlier billing period and is sunk, so keeping the
    /// view costs maintenance and storage only.
    pub fn carried(&self) -> Price {
        Price {
            materialization: Hours::ZERO,
            ..self.price()
        }
    }
}

/// What a candidate view is charged, apart from what it answers: the
/// part of a [`ViewCharge`] that differs between two billing periods,
/// two fleet pools or two sampled quotes. Every re-pricing — the carried
/// discount, [`crate::PoolCharge::adjust`] (what `mv-select`'s chain
/// applies per node and pool) and its `update_charge` splice — takes and
/// returns one of these, so none of them can touch a view's name or
/// answer profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Price {
    /// Stored size `s(V_k)`.
    pub size: Gb,
    /// One-time build time `t_materialization(V_k)`.
    pub materialization: Hours,
    /// Refresh time per billing period `t_maintenance(V_k)`.
    pub maintenance: Hours,
    /// The fleet pool the build/refresh work runs on.
    pub placement: Placement,
}

/// The full costing context: everything the paper's formulas consume.
#[derive(Debug, Clone)]
pub struct CostContext {
    /// Provider pricing (Tables 2–4).
    pub pricing: PricingPolicy,
    /// The rented instance configuration `IC`.
    pub instance: InstanceType,
    /// Number of identical instances `nbIC`.
    pub nb_instances: u32,
    /// Billing horizon in months (storage period).
    pub months: Months,
    /// Initial dataset size `s(DS)`.
    pub dataset_size: Gb,
    /// The query workload `Q` with per-query charges.
    pub workload: Vec<QueryCharge>,
}

impl CostContext {
    /// Total (frequency-weighted) base processing time — the paper's
    /// "processing time of Q without views" (50 h in the running example).
    pub fn base_processing_time(&self) -> Hours {
        self.workload
            .iter()
            .map(|q| q.base_time * q.frequency)
            .sum()
    }

    /// Total outbound result volume per period (transfer tiers apply to
    /// this aggregate).
    pub fn total_result_size(&self) -> Gb {
        self.workload
            .iter()
            .map(|q| q.result_size * q.frequency)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_pricing::presets;

    fn running_example() -> CostContext {
        let pricing = presets::aws_2012();
        let instance = pricing.compute.instance("small").unwrap().clone();
        CostContext {
            pricing,
            instance,
            nb_instances: 2,
            months: Months::new(12.0),
            dataset_size: Gb::new(500.0),
            workload: vec![QueryCharge::new("Q", Gb::new(10.0), Hours::new(50.0))],
        }
    }

    #[test]
    fn aggregates_respect_frequency() {
        let mut ctx = running_example();
        assert_eq!(ctx.base_processing_time().value(), 50.0);
        assert_eq!(ctx.total_result_size().value(), 10.0);
        ctx.workload[0].frequency = 2.0;
        assert_eq!(ctx.base_processing_time().value(), 100.0);
        assert_eq!(ctx.total_result_size().value(), 20.0);
    }

    #[test]
    fn price_is_a_view_onto_four_fields() {
        let mut v = ViewCharge::new("V1", Gb::new(50.0), Hours::new(1.0), Hours::new(5.0), 3)
            .answers(1, Hours::new(0.1));
        let full = v.clone();
        let carried = v.carried();
        assert_eq!(carried.materialization, Hours::ZERO);
        assert_eq!(
            (carried.size, carried.maintenance, carried.placement),
            (v.size, v.maintenance, v.placement)
        );
        v.set_price(Price {
            placement: Placement::Spot,
            ..carried
        });
        assert_eq!(v.price().placement, Placement::Spot);
        assert_eq!((&v.name, &v.profile), (&full.name, &full.profile));
        v.set_price(full.price());
        assert_eq!(v, full);
    }

    #[test]
    fn view_charge_builder() {
        let v = ViewCharge::new("V1", Gb::new(50.0), Hours::new(1.0), Hours::new(5.0), 3)
            .answers(1, Hours::new(0.1));
        assert_eq!(
            v.profile.entries().collect::<Vec<_>>(),
            vec![(1, Hours::new(0.1))]
        );
        assert_eq!(v.profile.workload_len(), 3);
    }
}
