//! Cloud pricing substrate.
//!
//! The paper charges three things (its Section 2.2, Tables 2–4): compute
//! instance-hours, data stored per month, and data transferred out. This
//! crate models each as a first-class pricing component and groups them into
//! a [`PricingPolicy`] — the object every cost formula takes as input.
//!
//! The concrete numbers from the paper's AWS tables live in
//! [`presets::aws_2012`]; three further fictional providers exercise the
//! paper's "include pricing models from several CSPs" future-work item.
//!
//! # Module map
//!
//! * [`tier`](TierSchedule) — volume-tiered rate schedules (Tables 3–4's
//!   shape), graduated or flat-by-volume, rescaled by
//!   [`PricingPolicy::scale_rates`] as the price-drift hook;
//! * [`instance`](ComputePricing) — the instance catalog, billing rounding
//!   rules and Formula 4 compute charges;
//! * [`storage`](StoragePricing) — interval-based storage timelines and
//!   Formula 5;
//! * [`transfer`](TransferPricing) — inbound/outbound bandwidth (Formulas
//!   2–3);
//! * [`rounding`](BillingRounding) — per-started-hour/minute/second
//!   billable-time rules and their scope;
//! * [`billing`](UsageLedger) — the provider-side usage ledger and invoice
//!   reconciliation;
//! * [`commitment`](CommitmentPlan) — reserved-capacity plans and the
//!   on-demand comparison;
//! * [`fleet`](FleetPlan) — mixed reserved+spot fleets: per-pool rate
//!   terms, the per-view [`Placement`] dimension, and the pinned
//!   pure-fleet degenerate plans the conformance tests lean on;
//! * [`presets`] — concrete providers (the paper's AWS-2012 plus fictional
//!   CSPs).
//!
//! Every priced component also exposes a `scale_rates(factor)` hook
//! ([`PricingPolicy::scale_rates`] composes them) so `mv-market` can compile
//! per-epoch pricing models — spot swings, announced cuts, storage decay —
//! without rebuilding policies by hand; a factor of exactly `1.0` is a
//! bit-identical clone by construction.
//!
//! ```
//! use mv_pricing::presets;
//! use mv_units::{Gb, Hours};
//!
//! let aws = presets::aws_2012();
//!
//! // Example 1 of the paper: a 10 GB query result, first GB free,
//! // remainder at $0.12/GB => $1.08.
//! let ct = aws.transfer.outbound_cost(Gb::new(10.0));
//! assert_eq!(ct.to_string(), "$1.08");
//!
//! // Example 2: 50 h on two "small" instances at $0.12/h => $12.00.
//! let small = aws.compute.instance("small").unwrap();
//! let cc = aws.compute.cost(Hours::new(50.0), small, 2);
//! assert_eq!(cc.to_string(), "$12.00");
//! ```

mod billing;
mod commitment;
mod error;
mod fleet;
mod instance;
pub mod presets;
mod rounding;
mod storage;
mod tier;
mod transfer;

pub use billing::{Invoice, InvoiceLine, UsageLedger};
pub use commitment::{CommitmentComparison, CommitmentPlan};
pub use error::PricingError;
pub use fleet::{FleetPlan, Placement, PoolTerms};
pub use instance::{ComputePricing, InstanceCatalog, InstanceType};
pub use rounding::{BillingRounding, RoundingScope};
pub use storage::{StorageInterval, StoragePricing, StorageTimeline};
pub use tier::{Tier, TierMode, TierSchedule};
pub use transfer::TransferPricing;

/// A complete provider pricing policy: the three billed components plus a
/// display name.
///
/// This is the "CSP pricing model" parameter of every formula in the paper's
/// Sections 3–4.
#[derive(Debug, Clone)]
pub struct PricingPolicy {
    /// Human-readable provider name (e.g. `"aws-2012"`).
    pub name: String,
    /// Instance-hour pricing (paper Table 2).
    pub compute: ComputePricing,
    /// Bandwidth pricing (paper Table 3).
    pub transfer: TransferPricing,
    /// Storage pricing (paper Table 4).
    pub storage: StoragePricing,
}

impl PricingPolicy {
    /// Convenience constructor.
    pub(crate) fn new(
        name: impl Into<String>,
        compute: ComputePricing,
        transfer: TransferPricing,
        storage: StoragePricing,
    ) -> Self {
        PricingPolicy {
            name: name.into(),
            compute,
            transfer,
            storage,
        }
    }

    /// Returns a copy of this policy with each billed component's rates
    /// multiplied by its own factor — the per-epoch re-pricing hook
    /// `mv-market` compiles price trajectories through. Factors of
    /// exactly `1.0` leave the component bit-identical (each component's
    /// `scale_rates` clones on the identity), so a constant-price market
    /// epoch reproduces the base policy exactly.
    pub fn scale_rates(&self, compute: f64, storage: f64, transfer: f64) -> PricingPolicy {
        PricingPolicy {
            name: self.name.clone(),
            compute: self.compute.scale_rates(compute),
            transfer: self.transfer.scale_rates(transfer),
            storage: self.storage.scale_rates(storage),
        }
    }
}
