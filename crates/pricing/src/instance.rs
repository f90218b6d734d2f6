//! Compute-instance configurations and hourly pricing (paper Table 2).

use mv_units::{Gb, Hours, Money};

use crate::{BillingRounding, PricingError};

/// One rentable instance configuration ("micro", "small", …).
///
/// The resource columns mirror the paper's description of an EC2 small
/// instance ("1.7 GB RAM, 1 EC2 Compute Unit, 160 GB of local storage");
/// the selection algorithms only consume [`InstanceType::hourly`] and
/// `compute_units`, but the full shape is kept so the engine's throughput
/// model can scale with the rented hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceType {
    /// Configuration name, unique within a catalog.
    pub name: String,
    /// Main memory.
    pub ram: Gb,
    /// Relative CPU capacity (1.0 = one EC2 Compute Unit).
    pub compute_units: f64,
    /// Ephemeral local disk.
    pub local_storage: Gb,
    /// Rental price per (rounded) hour: the paper's `c(IC)`.
    pub hourly: Money,
}

impl InstanceType {
    /// Convenience constructor.
    pub(crate) fn new(
        name: impl Into<String>,
        ram_gb: f64,
        compute_units: f64,
        local_storage_gb: f64,
        hourly: Money,
    ) -> Self {
        InstanceType {
            name: name.into(),
            ram: Gb::new(ram_gb),
            compute_units,
            local_storage: Gb::new(local_storage_gb),
            hourly,
        }
    }

    /// This configuration with its hourly rate multiplied by `factor`
    /// (name, capacities unchanged) — the one per-instance re-pricing
    /// rule, which [`crate::PricingPolicy::scale_rates`] maps over a
    /// catalog.
    /// A factor of exactly `1.0` returns a bit-identical clone.
    pub fn scaled(&self, factor: f64) -> InstanceType {
        InstanceType {
            hourly: if factor == 1.0 {
                self.hourly
            } else {
                self.hourly.scale(factor)
            },
            ..self.clone()
        }
    }
}

/// An ordered collection of instance types, looked up by name.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceCatalog {
    instances: Vec<InstanceType>,
}

impl InstanceCatalog {
    /// Builds a catalog, rejecting duplicate names.
    pub(crate) fn new(instances: Vec<InstanceType>) -> Result<Self, PricingError> {
        for (i, a) in instances.iter().enumerate() {
            for b in &instances[i + 1..] {
                if a.name == b.name {
                    return Err(PricingError::DuplicateInstance {
                        name: a.name.clone(),
                    });
                }
            }
        }
        Ok(InstanceCatalog { instances })
    }

    /// Looks up a configuration by name.
    pub(crate) fn get(&self, name: &str) -> Result<&InstanceType, PricingError> {
        self.instances
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| PricingError::UnknownInstance {
                name: name.to_string(),
            })
    }

    /// All configurations, in catalog order (cheapest-first by convention).
    pub fn all(&self) -> &[InstanceType] {
        &self.instances
    }

    /// The cheapest configuration whose compute capacity is at least
    /// `min_units` — a simple right-sizing helper for the elasticity
    /// example.
    pub fn cheapest_with_units(&self, min_units: f64) -> Option<&InstanceType> {
        self.instances
            .iter()
            .filter(|i| i.compute_units >= min_units)
            .min_by(|a, b| a.hourly.cmp(&b.hourly))
    }
}

/// Compute pricing: a catalog plus the billing rounding rules.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputePricing {
    /// Available instance configurations (paper Table 2).
    pub catalog: InstanceCatalog,
    /// Granularity of billable-time rounding.
    pub rounding: BillingRounding,
}

impl ComputePricing {
    /// Compute pricing with the paper's rules: round the total up to whole
    /// hours.
    pub(crate) fn paper_rules(catalog: InstanceCatalog) -> Self {
        ComputePricing {
            catalog,
            rounding: BillingRounding::PerStartedHour,
        }
    }

    /// Looks up an instance configuration.
    pub fn instance(&self, name: &str) -> Result<&InstanceType, PricingError> {
        self.catalog.get(name)
    }

    /// Cost of running `count` instances of type `instance` for `time`
    /// (already-aggregated total time; the paper's Formula 4 with identical
    /// instances): `RoundUp(t) × c(IC) × nbIC`.
    pub fn cost(&self, time: Hours, instance: &InstanceType, count: u32) -> Money {
        let billable = self.rounding.apply(time);
        instance.hourly.scale(billable.value()) * count
    }

    /// Returns a copy with every instance's hourly rate multiplied by
    /// `factor` (names, capacities, rounding rules unchanged) — the
    /// price-drift hook used by `mv-market` to model spot swings and
    /// announced price cuts. A factor of exactly `1.0` returns a
    /// bit-identical clone.
    pub(crate) fn scale_rates(&self, factor: f64) -> ComputePricing {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "rate factor must be finite and non-negative, got {factor}"
        );
        ComputePricing {
            catalog: InstanceCatalog {
                instances: self
                    .catalog
                    .instances
                    .iter()
                    .map(|i| i.scaled(factor))
                    .collect(),
            },
            rounding: self.rounding,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> InstanceCatalog {
        InstanceCatalog::new(vec![
            InstanceType::new(
                "micro",
                0.6,
                0.25,
                0.0,
                Money::from_dollars_str("0.03").unwrap(),
            ),
            InstanceType::new(
                "small",
                1.7,
                1.0,
                160.0,
                Money::from_dollars_str("0.12").unwrap(),
            ),
            InstanceType::new(
                "large",
                7.5,
                4.0,
                850.0,
                Money::from_dollars_str("0.48").unwrap(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn example2_two_small_instances() {
        let pricing = ComputePricing::paper_rules(catalog());
        let small = pricing.instance("small").unwrap();
        assert_eq!(
            pricing.cost(Hours::new(50.0), small, 2),
            Money::from_dollars(12)
        );
        // 40 h with views: $9.60.
        assert_eq!(
            pricing.cost(Hours::new(40.0), small, 2),
            Money::from_dollars_str("9.6").unwrap()
        );
    }

    #[test]
    fn fractional_hours_round_up() {
        let pricing = ComputePricing::paper_rules(catalog());
        let small = pricing.instance("small").unwrap();
        // 40.2 h bills as 41 h.
        assert_eq!(
            pricing.cost(Hours::new(40.2), small, 1),
            Money::from_dollars_str("4.92").unwrap()
        );
    }

    #[test]
    fn unknown_instance_is_an_error() {
        let pricing = ComputePricing::paper_rules(catalog());
        assert!(matches!(
            pricing.instance("xxl"),
            Err(PricingError::UnknownInstance { .. })
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let dup = InstanceCatalog::new(vec![
            InstanceType::new("small", 1.7, 1.0, 160.0, Money::ZERO),
            InstanceType::new("small", 3.4, 2.0, 320.0, Money::ZERO),
        ]);
        assert!(matches!(dup, Err(PricingError::DuplicateInstance { .. })));
    }

    #[test]
    fn cheapest_with_units_right_sizes() {
        let c = catalog();
        assert_eq!(c.cheapest_with_units(0.5).unwrap().name, "small");
        assert_eq!(c.cheapest_with_units(2.0).unwrap().name, "large");
        assert!(c.cheapest_with_units(100.0).is_none());
    }
}
