//! # mv-market — cloud price dynamics for the view advisor
//!
//! The paper's cost models take the provider's price sheet as a
//! constant. The cloud it models never held still: spot markets clear
//! at fluctuating discounts and reclaim capacity when demand spikes,
//! providers announce step price cuts quarters in advance, and storage
//! rates decline secularly year over year. This crate models those
//! forces as data, so the multi-epoch advisor can optimize *against a
//! price trajectory* instead of a snapshot — and, because trajectories
//! are uncertain, sample many of them reproducibly for Monte-Carlo
//! envelopes.
//!
//! # Module map
//!
//! * [`process`](PriceProcess) — the composable forces on a price
//!   sheet: [`AnnouncedCut`] step changes, linear [`StorageDecay`], the
//!   seeded mean-reverting [`SpotMarket`] with interruption risk, and
//!   the two-state calm/crunch [`CorrelatedHazard`] regime (bursty,
//!   *correlated* interruption epochs — zero persistence degenerates to
//!   the i.i.d. hazard exactly). Each samples a whole horizon of
//!   [`ProcessQuote`]s (price factors + interruption probability per
//!   epoch).
//! * [`scenario`](MarketScenario) — a process stack compiled over a
//!   horizon: [`MarketScenario::path`] samples one reproducible
//!   trajectory ([`MarketPath`] of [`EpochQuote`]s; factors multiply
//!   across the stack, interruption hazards combine independently),
//!   and [`EpochQuote::reprice`] turns a quote into a concrete
//!   `PricingPolicy` through the pricing crate's `scale_rates` hooks.
//! * [`tree`](ScenarioTree) — shared-prefix factoring of K sampled
//!   paths into a scenario forest (one node per distinct quote-prefix,
//!   keyed on each quote's price factors and interruption probability,
//!   interruption *events* excluded — the one rule for when two paths
//!   are the same).
//!   Tree-aware Monte-Carlo solvers pay one solve per node instead of
//!   per path × epoch; a deterministic market degenerates to a single
//!   chain.
//!
//! # Reproducibility contract
//!
//! Everything derives from an explicit seed: path `j` of a scenario is
//! a pure function of `(seed, j)` — no wall-clock, no global state, no
//! sequential coupling between paths — so a K-path Monte-Carlo sweep
//! can fan out across threads in any order and still reproduce
//! bit-for-bit. A scenario with no stochastic process (or a
//! [`SpotMarket`] at zero volatility) yields unit quotes on every path,
//! and a unit quote re-prices to a bit-identical policy; that chain of
//! identities is what pins `Advisor::solve_market` to `solve_horizon`
//! in the zero-volatility consistency proptest (`tests/market.rs` at
//! the workspace root).

mod process;
mod scenario;
mod tree;

pub use process::{
    AnnouncedCut, CorrelatedHazard, PriceFactors, PriceProcess, ProcessQuote, SpotMarket,
    StorageDecay,
};
pub use scenario::{EpochQuote, MarketPath, MarketScenario};
pub use tree::{ScenarioTree, TreeNode};

/// Largest admissible interruption probability — the same constant
/// `mv_cost::InterruptionRisk` clamps by (hosted in `mv-units`, the
/// only dependency this crate shares with the charging side).
pub use mv_units::MAX_INTERRUPTION;
