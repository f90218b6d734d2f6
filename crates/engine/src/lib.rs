//! An in-memory columnar aggregation engine.
//!
//! This crate is the execution substrate of the reproduction: it plays the
//! role of the paper's Hadoop 0.20 + Pig Latin cluster. It executes the
//! paper's query class — roll-up group-by aggregations over a denormalized
//! star schema — materializes views, answers queries from them, and
//! maintains them incrementally. Every execution reports the work performed
//! ([`ExecStats`]); a [`ThroughputModel`] turns work into deterministic
//! simulated cluster-hours for the cost models (see `crates/cost`).
//!
//! ## Module map — the replay/metering path
//!
//! The calibration loop (`mvcloud::calibrate`) drives these modules, in
//! order:
//!
//! * [`ssb`] / [`datagen`] — generate the fact table the replay runs on;
//! * [`query`](AggQuery) — the roll-up query class, executed with full
//!   per-operator metering;
//! * [`view`](MaterializedView) — plan candidates from their group count
//!   ([`PlannedView`]: what a build would store and meter, without the
//!   rows), materialize them (build work is metered) and answer queries
//!   from them;
//! * [`catalog`](ViewCatalog) — best-view routing with base-table
//!   fallback, plus every registered view's incremental refresh for
//!   epoch-boundary maintenance;
//! * [`replay`](ReplayDriver) — the epoch driver: apply a plan's view
//!   transitions, run the query stream, refresh, and return the metered
//!   [`replay::EpochReplay`];
//! * [`metering`](ThroughputModel) — convert metered bytes into
//!   simulated cluster-hours ([`SimScale`] maps engine bytes to cloud
//!   gigabytes).
//!
//! ## The group-by kernel
//!
//! Queries, view builds, view answers and incremental refreshes all run on
//! one columnar operator (`groupby.rs`). It packs each row's key columns —
//! `Int` values offset by the column minimum, `Str` dictionary codes — into
//! a single mixed-radix `u64`, re-densifying the running prefix where a
//! hierarchy (country → region → city) would make the product needlessly
//! sparse and a column's own values where they span more than a `u64` can
//! multiply. Packed keys resolve to group ids through a direct-indexed slot
//! table when the packed domain is small against the row count and through
//! an Fx-hashed `u64 → u32` map otherwise; ids are assigned in scan order,
//! so **output rows appear in order of each group's first input row**,
//! whatever the thread count. Aggregates then make one typed pass each over
//! the id vector (sums in `i128`, narrowed with a typed overflow error),
//! and key columns are gathered by representative row with dictionaries
//! rebuilt through a code remap table. The parallel variant shares one key
//! layout, aggregates contiguous row ranges on their own threads and merges
//! the partials by packed key in range order, which reproduces the serial
//! result exactly. Incremental refresh indexes the delta's few groups and
//! probes that index with the stored rows' packed keys.
//!
//! ```
//! use mv_engine::{
//!     datagen, AggQuery, AggSpec, MaterializedView, SalesConfig, ViewDefinition,
//! };
//!
//! // The paper's running example: V1 = "sales per month and country".
//! let sales = datagen::generate_sales(&SalesConfig::with_rows(1_000));
//! let v1 = MaterializedView::materialize(
//!     ViewDefinition::canonical("V1", &["year", "month", "country"], &[AggSpec::sum("profit")]),
//!     &sales,
//! )
//! .unwrap();
//!
//! // Q1 = "sales per year and country" answered from V1 equals the answer
//! // from the base table.
//! let q1 = AggQuery::new("Q1", &["year", "country"], vec![AggSpec::sum("profit")]);
//! let (from_base, _) = q1.execute(&sales).unwrap();
//! let (from_view, _) = v1.answer(&q1).unwrap();
//! assert_eq!(from_base.to_sorted_rows(), from_view.to_sorted_rows());
//! ```

mod agg;
mod catalog;
mod column;
pub mod csv;
pub mod datagen;
mod dict;
mod error;
mod fx;
mod groupby;
mod maintenance;
mod metering;
mod predicate;
mod query;
pub mod replay;
mod schema;
pub mod sql;
pub mod ssb;
mod table;
mod value;
mod view;

pub(crate) use agg::AggFunc;
pub use agg::AggSpec;
pub use catalog::ViewCatalog;
pub use column::Column;
pub use datagen::SalesConfig;
pub use dict::Dictionary;
pub use error::EngineError;
pub use metering::{ExecStats, SimScale, ThroughputModel};
pub use predicate::{CmpOp, Predicate};
pub use query::AggQuery;
pub use replay::ReplayDriver;
pub use schema::{DataType, Field, Schema};
pub use sql::parse_query;
pub use ssb::SsbConfig;
pub use table::{Table, TableBuilder};
pub use value::Value;
pub use view::{MaterializedView, PlannedView, ViewDefinition};

// The `_tests.rs` file name marks the whole module as test code for
// CI's line count and the caller-less scan; the module keeps its name.
#[cfg(test)]
#[path = "reference_tests.rs"]
mod reference;
