//! The paper's monetary cost models.
//!
//! Section 3 of the paper prices cloud data management without views:
//! transfer (Formulas 2–3), compute (Formula 4) and storage (Formula 5).
//! Section 4 extends compute with view materialization and maintenance
//! (Formulas 6–12). This crate implements both over the pricing substrate,
//! exactly reproducing every worked example of the paper (see
//! `tests/paper_examples.rs` for Examples 1–9 as golden tests).
//!
//! What differs between two billing periods is one frequency per query
//! ([`CloudCostModel::with_frequencies`]) and one [`Price`] per view —
//! size, build time, refresh time, fleet pool: the `Copy` part of a
//! [`ViewCharge`], without its name or answer profile. One extension
//! charges views beyond the paper's single static fleet, as a
//! `Price → Price` transform: a [`PoolCharge`] folds a mixed fleet's
//! per-pool rate differential and the pool's [`InterruptionRisk`] (the
//! expected re-run count under spot interruption) into effective
//! build/refresh hours for views [`Placement`]-assigned to that pool.
//! Every bill — a full evaluation, an incremental evaluator's score, a
//! DP oracle's state table — is assembled by
//! [`CloudCostModel::breakdown_from_totals`] from four totals.
//!
//! The model bills a static dataset: storage is one Formula 5 interval
//! holding dataset + views for the whole period. A chronology of inserts
//! and deletions — Formula 5's interval edges — is
//! [`mv_pricing::StorageTimeline`]'s, which
//! [`CloudCostModel::storage_timeline`] starts for the invoice ledger.
//!
//! ```
//! use mv_cost::{CloudCostModel, CostContext, QueryCharge};
//! use mv_pricing::presets;
//! use mv_units::{Gb, Hours, Months};
//!
//! let pricing = presets::aws_2012();
//! let instance = pricing.compute.instance("small").unwrap().clone();
//! let model = CloudCostModel::new(CostContext {
//!     pricing,
//!     instance,
//!     nb_instances: 2,
//!     months: Months::new(12.0),
//!     dataset_size: Gb::new(500.0),
//!     workload: vec![QueryCharge::new("Q", Gb::new(10.0), Hours::new(50.0))],
//! });
//! // Example 2: $12 of compute without views.
//! assert_eq!(model.without_views().compute().to_string(), "$12.00");
//! ```

mod answers;
mod breakdown;
mod fit;
mod model;
mod params;
mod risk;
mod selection;

pub use answers::AnswerProfile;
pub use breakdown::CostBreakdown;
pub use fit::{CalibratedParams, LinearFit, MeterSample, WorkKind};
pub use model::{CloudCostModel, TIME_FOLD_BLOCK};
pub use mv_pricing::Placement;
pub use params::{CostContext, Price, QueryCharge, ViewCharge};
pub use risk::{InterruptionRisk, PoolCharge};
pub use selection::SelectionSet;
