//! Mixed-fleet capacity plans (extension).
//!
//! The paper rents one homogeneous fleet from one price sheet. Real
//! deployments hedge: latency-critical work runs on reserved (or
//! on-demand) capacity that the provider cannot reclaim, while cheap,
//! rebuildable work rides the spot market's discount and eats its
//! interruption risk. A [`FleetPlan`] describes that split as two
//! capacity pools — reserved and spot — each with its own rate terms
//! relative to the base on-demand sheet, plus the *primary* pool the
//! shared charges (workload processing, dataset storage, transfer)
//! bill against.
//!
//! Which pool a given materialized view's build/refresh work lands on
//! is a **per-view decision** ([`Placement`], carried on
//! `mv_cost::ViewCharge`); the selection machinery in `mv-select`
//! searches placements jointly with the selection itself. This module
//! only holds the vocabulary and the pure-fleet degenerate plans the
//! conformance tests pin against `Advisor::solve_market`.

use mv_units::Money;

use crate::CommitmentPlan;

/// Which capacity pool a view's materialization/maintenance work runs
/// on (its stored bytes bill at the primary sheet's storage rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Reserved / on-demand capacity: contract rates, never reclaimed.
    Reserved,
    /// Spot capacity: rides the sampled market rate and pays the
    /// interruption premium when the market spikes.
    Spot,
}

impl Placement {
    /// The other pool.
    pub fn flipped(self) -> Placement {
        match self {
            Placement::Reserved => Placement::Spot,
            Placement::Spot => Placement::Reserved,
        }
    }

    /// Short label for reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Placement::Reserved => "reserved",
            Placement::Spot => "spot",
        }
    }

    /// This pool's slot in a `[reserved, spot]` pair — the one place
    /// that order is written down.
    pub fn slot(self) -> usize {
        usize::from(self == Placement::Spot)
    }
}

impl Default for Placement {
    /// The paper's single-fleet deployments are stable capacity.
    fn default() -> Self {
        Placement::Reserved
    }
}

/// One pool's pricing terms, expressed relative to the provider's base
/// on-demand sheet.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolTerms {
    /// Hourly compute-rate multiplier vs the base sheet (`1.0` =
    /// on-demand parity; a reservation's discounted rate divided by
    /// on-demand). The spot pool's effective rate is additionally
    /// multiplied by the sampled market factor each epoch.
    pub rate_factor: f64,
    /// Optional reservation backing the pool; its upfronts and
    /// discounted hourly feed the fleet's commitment comparison.
    pub commitment: Option<CommitmentPlan>,
}

impl PoolTerms {
    /// On-demand parity terms: a rate factor of exactly `1.0` — charging
    /// through them is bit-identical to the base sheet, which the
    /// degenerate-fleet conformance tests lean on.
    pub(crate) fn on_demand() -> PoolTerms {
        PoolTerms {
            rate_factor: 1.0,
            commitment: None,
        }
    }

    /// Terms derived from a reservation: the pool's compute rate is
    /// the plan's discounted hourly over the on-demand rate. Only tests
    /// build one: `reserved_terms_derive_the_discount` below and the
    /// reservation-backed fleet digest in `tests/driver_golden.rs`.
    pub fn reserved(plan: CommitmentPlan, on_demand_hourly: Money) -> PoolTerms {
        let od = on_demand_hourly.to_dollars_f64();
        PoolTerms {
            rate_factor: if od > 0.0 {
                plan.hourly.to_dollars_f64() / od
            } else {
                1.0
            },
            commitment: Some(plan),
        }
    }

    /// `true` when charging through these terms is the exact identity.
    pub fn is_parity(&self) -> bool {
        self.rate_factor == 1.0
    }
}

impl Default for PoolTerms {
    fn default() -> Self {
        PoolTerms::on_demand()
    }
}

/// A mixed fleet: a reserved pool and a spot pool, the primary pool
/// the shared sheet bills against, and whether per-view placement is a
/// free search dimension or pinned.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// Plan name for reports.
    pub name: String,
    /// Pool whose pricing the shared charges (workload processing,
    /// dataset storage, transfer) follow. A spot primary rides the
    /// sampled market sheet; a reserved primary keeps the base sheet.
    pub primary: Placement,
    /// Reserved-pool terms.
    pub reserved: PoolTerms,
    /// Spot-pool terms (multipliers on top of the sampled market).
    pub spot: PoolTerms,
    /// When `true`, the solver may move views between pools
    /// (placement-flip local-search moves); when `false`, every view
    /// keeps its starting placement — the pure-fleet degenerate cases.
    pub rebalance: bool,
    /// Force every view's starting placement; `None` keeps each
    /// charge's own [`Placement`].
    pub initial: Option<Placement>,
}

impl FleetPlan {
    /// The all-spot degenerate fleet at market parity: primary spot,
    /// every view pinned spot, unit terms. Solving it reproduces the
    /// single-fleet spot-market solve (`Advisor::solve_market`)
    /// bit-for-bit (pinned in `tests/fleet.rs`).
    pub fn pure_spot() -> FleetPlan {
        FleetPlan {
            name: "pure-spot".to_string(),
            primary: Placement::Spot,
            reserved: PoolTerms::on_demand(),
            spot: PoolTerms::on_demand(),
            rebalance: false,
            initial: Some(Placement::Spot),
        }
    }

    /// The all-reserved degenerate fleet at on-demand parity: primary
    /// reserved, every view pinned reserved, unit terms. Market
    /// dynamics never reach it, so solving it reproduces the risk-free
    /// horizon solve (`Advisor::solve_horizon`) bit-for-bit.
    pub fn pure_reserved() -> FleetPlan {
        FleetPlan {
            name: "pure-reserved".to_string(),
            primary: Placement::Reserved,
            reserved: PoolTerms::on_demand(),
            spot: PoolTerms::on_demand(),
            rebalance: false,
            initial: Some(Placement::Reserved),
        }
    }

    /// A hedged fleet: shared charges on reserved capacity at
    /// on-demand parity, spot pool riding the market at parity, and
    /// placement free per view (starting reserved).
    pub fn hedged(name: impl Into<String>) -> FleetPlan {
        FleetPlan {
            name: name.into(),
            primary: Placement::Reserved,
            reserved: PoolTerms::on_demand(),
            spot: PoolTerms::on_demand(),
            rebalance: true,
            initial: Some(Placement::Reserved),
        }
    }

    /// The terms of one pool.
    pub fn terms(&self, placement: Placement) -> &PoolTerms {
        match placement {
            Placement::Reserved => &self.reserved,
            Placement::Spot => &self.spot,
        }
    }

    /// `Some(p)` when the plan is a pinned single-pool fleet (no
    /// rebalancing, every view forced to `p`).
    pub fn pinned_pool(&self) -> Option<Placement> {
        match (self.rebalance, self.initial) {
            (false, Some(p)) => Some(p),
            _ => None,
        }
    }

    /// This plan with every view pinned to `pool` and rebalancing off
    /// — the pure comparator the fleet report prices alongside the
    /// hedged solve. Pool terms and the primary sheet follow the pool.
    pub fn as_pure(&self, pool: Placement) -> FleetPlan {
        FleetPlan {
            name: format!("{}/pure-{}", self.name, pool.name()),
            primary: pool,
            rebalance: false,
            initial: Some(pool),
            ..self.clone()
        }
    }

    /// Validates the plan's rate factors (positive and finite).
    pub fn validate(&self) -> Result<(), crate::PricingError> {
        for (pool, terms) in [("reserved", &self.reserved), ("spot", &self.spot)] {
            let f = terms.rate_factor;
            if !f.is_finite() || f <= 0.0 {
                return Err(crate::PricingError::InvalidRate {
                    what: format!("fleet {}: {pool} pool rate_factor {f}", self.name),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_flips_and_defaults() {
        assert_eq!(Placement::Reserved.flipped(), Placement::Spot);
        assert_eq!(Placement::Spot.flipped(), Placement::Reserved);
        assert_eq!(Placement::default(), Placement::Reserved);
        assert_eq!(Placement::Spot.name(), "spot");
        assert_eq!([Placement::Reserved.slot(), Placement::Spot.slot()], [0, 1]);
    }

    #[test]
    fn pure_fleets_are_pinned_at_parity() {
        let spot = FleetPlan::pure_spot();
        assert_eq!(spot.pinned_pool(), Some(Placement::Spot));
        assert!(spot.terms(Placement::Spot).is_parity());
        assert!(spot.validate().is_ok());
        let reserved = FleetPlan::pure_reserved();
        assert_eq!(reserved.pinned_pool(), Some(Placement::Reserved));
        assert!(reserved.terms(Placement::Reserved).is_parity());
        let hedged = FleetPlan::hedged("h");
        assert_eq!(hedged.pinned_pool(), None);
    }

    #[test]
    fn as_pure_pins_and_renames() {
        let hedged = FleetPlan::hedged("h");
        let pure = hedged.as_pure(Placement::Spot);
        assert_eq!(pure.pinned_pool(), Some(Placement::Spot));
        assert_eq!(pure.primary, Placement::Spot);
        assert_eq!(pure.name, "h/pure-spot");
        assert_eq!(pure.reserved, hedged.reserved);
    }

    #[test]
    fn reserved_terms_derive_the_discount() {
        let plan = CommitmentPlan::aws_small_1yr();
        let od = Money::from_dollars_str("0.12").unwrap();
        let terms = PoolTerms::reserved(plan.clone(), od);
        assert!((terms.rate_factor - 0.5).abs() < 1e-12);
        assert_eq!(terms.commitment, Some(plan));
    }

    #[test]
    fn bad_factors_rejected() {
        let mut plan = FleetPlan::hedged("bad");
        plan.spot.rate_factor = 0.0;
        assert!(plan.validate().is_err());
        plan.spot.rate_factor = f64::NAN;
        assert!(plan.validate().is_err());
    }
}
