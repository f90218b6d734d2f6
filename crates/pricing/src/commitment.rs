//! Reserved-capacity pricing (extension).
//!
//! The paper prices compute purely on-demand. Real 2012 AWS also sold
//! *reserved instances*: pay an upfront fee for a term, then a lower hourly
//! rate. For steady workloads (the recurring dashboard regime of the
//! evaluation) reservations change the view-materialization calculus: the
//! cheaper the marginal hour, the less a view's compute saving is worth.
//! This module models the plan, its effective cost, and the breakeven
//! utilisation against on-demand — used by the elasticity example and the
//! what-if analyses.

use mv_units::{Hours, Money, Months};

use crate::InstanceType;

/// A reserved-capacity plan for one instance type.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitmentPlan {
    /// Plan name (e.g. `"small-1yr-medium"`).
    pub name: String,
    /// The instance configuration the reservation applies to.
    pub instance: String,
    /// One-time upfront fee for the whole term.
    pub upfront: Money,
    /// Discounted hourly rate while reserved.
    pub hourly: Money,
    /// Reservation term.
    pub term: Months,
}

impl CommitmentPlan {
    /// AWS 2012-style "medium utilization" 1-year reservation for the
    /// small instance: $160 upfront, $0.06/h (vs $0.12 on demand).
    pub fn aws_small_1yr() -> Self {
        CommitmentPlan {
            name: "small-1yr-medium".to_string(),
            instance: "small".to_string(),
            upfront: Money::from_dollars(160),
            hourly: Money::from_cents(6),
            term: Months::new(12.0),
        }
    }

    /// Total cost of running `used` instance-hours over the term (per
    /// instance): upfront is sunk, hours are billed at the reserved rate.
    pub fn total_cost(&self, used: Hours) -> Money {
        self.upfront + self.hourly.scale(used.value())
    }

    /// Hours of use per term above which this plan beats paying
    /// `on_demand_hourly`. `None` when the reserved rate is not actually
    /// cheaper (the plan can never pay off).
    pub fn breakeven_hours(&self, on_demand_hourly: Money) -> Option<Hours> {
        if self.hourly >= on_demand_hourly {
            return None;
        }
        let saving_per_hour = (on_demand_hourly - self.hourly).micros() as f64;
        Some(Hours::new(self.upfront.micros() as f64 / saving_per_hour))
    }

    /// Whether reserving beats on-demand for a workload using `used` hours
    /// per term on `on_demand` pricing of the same instance type.
    pub fn worthwhile(&self, used: Hours, on_demand: &InstanceType) -> bool {
        self.total_cost(used) < on_demand.hourly.scale(used.value())
    }

    /// Consecutive reservation terms needed to cover a billing horizon
    /// (partially-used final terms still pay their full upfront).
    pub(crate) fn terms_for(&self, horizon: Months) -> u32 {
        (horizon.value() / self.term.value()).ceil().max(1.0) as u32
    }

    /// Total cost of covering a multi-epoch horizon with this plan on a
    /// fleet of `count` identical instances: one upfront per instance
    /// per term, plus the discounted rate on every billed
    /// instance-hour. `billed_instance_hours` is the horizon's total
    /// *billable* compute (already rounded per the provider's rule and
    /// multiplied by the fleet size), so the on-demand and reserved
    /// sides of a comparison price exactly the same hours.
    pub fn fleet_horizon_cost(
        &self,
        horizon: Months,
        billed_instance_hours: Hours,
        count: u32,
    ) -> Money {
        self.upfront * count * self.terms_for(horizon)
            + self.hourly.scale(billed_instance_hours.value())
    }

    /// Prices a solved horizon's compute both ways — pay-as-you-go at
    /// `on_demand_hourly` vs this reservation — over the same billed
    /// instance-hours. The single-period paper never gives the upfront
    /// fee enough hours to amortize; a multi-epoch horizon does.
    pub fn compare_horizon(
        &self,
        on_demand_hourly: Money,
        horizon: Months,
        billed_instance_hours: Hours,
        count: u32,
    ) -> CommitmentComparison {
        let on_demand = on_demand_hourly.scale(billed_instance_hours.value());
        let reserved = self.fleet_horizon_cost(horizon, billed_instance_hours, count);
        CommitmentComparison {
            plan: self.name.clone(),
            billed_instance_hours,
            on_demand,
            reserved,
        }
    }
}

/// On-demand vs reserved compute pricing for one solved horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitmentComparison {
    /// The reservation plan compared.
    pub plan: String,
    /// Billed instance-hours the horizon consumed.
    pub billed_instance_hours: Hours,
    /// Compute bill at the on-demand hourly rate.
    pub on_demand: Money,
    /// Compute bill under the plan (upfronts + discounted hours).
    pub reserved: Money,
}

impl CommitmentComparison {
    /// What reserving saves (negative when the plan never pays off).
    pub fn saving(&self) -> Money {
        self.on_demand - self.reserved
    }

    /// Whether the reservation is the cheaper way to buy these hours.
    pub fn reserved_wins(&self) -> bool {
        self.reserved < self.on_demand
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn on_demand_small() -> InstanceType {
        presets::aws_2012()
            .compute
            .instance("small")
            .unwrap()
            .clone()
    }

    #[test]
    fn breakeven_matches_closed_form() {
        let plan = CommitmentPlan::aws_small_1yr();
        // $160 / ($0.12 − $0.06) = 2666.67 h.
        let be = plan
            .breakeven_hours(on_demand_small().hourly)
            .expect("plan is cheaper per hour");
        assert!((be.value() - 2666.6667).abs() < 0.01, "{be:?}");
        // Just below breakeven: on-demand wins; just above: reservation.
        assert!(!plan.worthwhile(Hours::new(2_600.0), &on_demand_small()));
        assert!(plan.worthwhile(Hours::new(2_700.0), &on_demand_small()));
    }

    #[test]
    fn never_pays_off_when_not_cheaper() {
        let bad = CommitmentPlan {
            hourly: Money::from_dollars_str("0.12").unwrap(),
            ..CommitmentPlan::aws_small_1yr()
        };
        assert_eq!(bad.breakeven_hours(on_demand_small().hourly), None);
    }

    #[test]
    fn total_cost_is_affine() {
        let plan = CommitmentPlan::aws_small_1yr();
        assert_eq!(plan.total_cost(Hours::ZERO), Money::from_dollars(160));
        assert_eq!(plan.total_cost(Hours::new(100.0)), Money::from_dollars(166));
    }

    #[test]
    fn horizon_terms_round_up() {
        let plan = CommitmentPlan::aws_small_1yr();
        assert_eq!(plan.terms_for(Months::new(1.0)), 1);
        assert_eq!(plan.terms_for(Months::new(12.0)), 1);
        assert_eq!(plan.terms_for(Months::new(12.5)), 2);
        assert_eq!(plan.terms_for(Months::new(36.0)), 3);
    }

    #[test]
    fn horizon_comparison_amortizes_across_epochs() {
        let plan = CommitmentPlan::aws_small_1yr();
        let od = on_demand_small().hourly;
        // One month of light dashboard use: upfront swamps the discount.
        let light = plan.compare_horizon(od, Months::new(12.0), Hours::new(200.0), 2);
        assert!(!light.reserved_wins());
        assert!(light.saving() < Money::ZERO);
        // A year of heavy epochs on 2 instances: 6000 billed
        // instance-hours — on-demand $720 vs $320 upfront + $360.
        let heavy = plan.compare_horizon(od, Months::new(12.0), Hours::new(6_000.0), 2);
        assert_eq!(heavy.on_demand, Money::from_dollars(720));
        assert_eq!(heavy.reserved, Money::from_dollars(680));
        assert!(heavy.reserved_wins());
        assert_eq!(heavy.saving(), Money::from_dollars(40));
        // A 13-month horizon needs a second term's upfronts.
        let spill = plan.fleet_horizon_cost(Months::new(13.0), Hours::new(6_000.0), 2);
        assert_eq!(spill, Money::from_dollars(1_000));
    }
}
