//! Risk-adjusted view charging under spot interruption.
//!
//! The paper's formulas assume the rented instances survive the whole
//! billing period. Spot markets break that assumption: the provider can
//! reclaim capacity mid-epoch, and work that was running — a view build,
//! a refresh — must be re-run when capacity returns. A view's *expected*
//! materialization charge under interruption is therefore higher than
//! its nominal one, and a money-optimal selection should see that
//! premium before committing to a build.
//!
//! [`InterruptionRisk`] models the classic retry process: an attempt
//! survives the epoch with probability `1 − p`, an interrupted attempt
//! is re-run from scratch, so the expected number of attempts is the
//! geometric mean `1 / (1 − p)`. A [`PoolCharge`] pairs one pool's risk
//! with its rate differential against the primary sheet, and
//! [`PoolCharge::adjust`] inflates a [`Price`]'s materialization and
//! maintenance hours by both — the two charges that buy *re-runnable
//! work* — while size is untouched (stored bytes are not lost to an
//! interruption, and bill at the primary sheet's storage rate).
//!
//! The transform maps a [`Price`] to a [`Price`]: a view's name and
//! answer profile are out of its reach by type, which is what lets
//! `mv-select` splice a re-risked price into a live evaluator in O(1)
//! (`IncrementalEvaluator::update_charge`) — re-risking a whole pool at
//! an epoch boundary moves four numbers per candidate and rebuilds no
//! answer table. `mv-select`'s chain takes one `[reserved, spot]` pair
//! of these per node as plain data. One more property the multi-epoch
//! market machinery leans on: **a unit factor at zero risk is the exact
//! identity** — `adjust` returns its argument bit for bit, so a
//! zero-volatility market scenario reproduces the risk-free horizon
//! solve exactly (property-tested in `tests/market.rs` at the workspace
//! root).

use mv_units::Hours;

use crate::Price;

// The largest admissible per-epoch interruption probability, shared with
// the quoting side in `mv-market` via `mv-units`. Probabilities are
// clamped here so the geometric expected-attempt factor stays finite.
use mv_units::MAX_INTERRUPTION;

/// Per-epoch interruption risk: the probability that the fleet is
/// reclaimed mid-epoch and in-flight build/refresh work must re-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterruptionRisk {
    probability: f64,
}

impl InterruptionRisk {
    /// No interruption: every adjustment is the exact identity.
    pub const NONE: InterruptionRisk = InterruptionRisk { probability: 0.0 };

    /// Builds a risk from a probability, clamping to
    /// `[0, MAX_INTERRUPTION]`. Non-finite input is treated as zero.
    pub fn new(probability: f64) -> Self {
        let p = if probability.is_finite() {
            probability.clamp(0.0, MAX_INTERRUPTION)
        } else {
            0.0
        };
        InterruptionRisk { probability: p }
    }

    /// Expected number of attempts until a build/refresh survives the
    /// epoch: `1 / (1 − p)` (geometric). `1.0` exactly at zero risk.
    pub(crate) fn expected_attempts(&self) -> f64 {
        1.0 / (1.0 - self.probability)
    }
}

/// One fleet pool's effective per-epoch charging of a view: the pool's
/// rate differential against the primary sheet folded into billable
/// hours, plus the pool's interruption risk.
///
/// The cost model prices every hour through the *primary* pool's sheet
/// (the epoch's `CostContext::pricing`). A view placed on the other
/// pool really runs at that pool's rate, so its materialization and
/// maintenance hours are scaled by `hour_factor` — the pool rate over
/// the primary rate — before pricing. Rate differentials therefore
/// reach the bill through the rounding rule exactly like the
/// interruption premium does: per-minute providers see them exactly,
/// whole-hour providers through the round-up (the `tests/market.rs`
/// caveat).
///
/// The primary pool is the exact identity, which the fleet conformance
/// tests lean on: an `hour_factor` of `1.0` with zero risk returns the
/// price it was given (no float touches it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolCharge {
    /// Pool compute rate over the primary sheet's rate this epoch.
    hour_factor: f64,
    /// The pool's interruption risk this epoch (zero on reserved
    /// capacity).
    risk: InterruptionRisk,
}

impl PoolCharge {
    /// The do-nothing pool: primary-rate hours, no risk.
    pub const IDENTITY: PoolCharge = PoolCharge {
        hour_factor: 1.0,
        risk: InterruptionRisk::NONE,
    };

    /// Builds a pool charge. A non-finite or non-positive factor falls
    /// back to `1.0` (a rate ratio is always positive).
    pub fn new(hour_factor: f64, risk: InterruptionRisk) -> PoolCharge {
        PoolCharge {
            hour_factor: if hour_factor.is_finite() && hour_factor > 0.0 {
                hour_factor
            } else {
                1.0
            },
            risk,
        }
    }

    /// The effective price a view presents when placed on this pool:
    /// materialization and maintenance through [`PoolCharge::hours`];
    /// size and placement unchanged. The identity pool returns `price`
    /// bit for bit.
    pub fn adjust(&self, price: Price) -> Price {
        Price {
            materialization: self.hours(price.materialization),
            maintenance: self.hours(price.maintenance),
            ..price
        }
    }

    /// The effective billable hours of `hours` of build or refresh work
    /// on this pool: risk premium first (build/refresh re-runs), then
    /// the rate differential on the risk-adjusted hours. A factor of
    /// exactly `1.0` (and zero risk) performs no float operation at all.
    pub fn hours(&self, hours: Hours) -> Hours {
        let risked = if self.risk.probability == 0.0 {
            hours
        } else {
            hours * self.risk.expected_attempts()
        };
        if self.hour_factor == 1.0 {
            risked
        } else {
            risked * self.hour_factor
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placement;
    use mv_units::{Gb, Hours};

    fn price() -> Price {
        Price {
            size: Gb::new(2.0),
            materialization: Hours::new(4.0),
            maintenance: Hours::new(0.5),
            placement: Placement::Reserved,
        }
    }

    /// The primary-rate pool under `risk`.
    fn risked(risk: InterruptionRisk) -> PoolCharge {
        PoolCharge::new(1.0, risk)
    }

    #[test]
    fn zero_risk_is_bit_identity() {
        let c = price();
        assert_eq!(risked(InterruptionRisk::NONE).adjust(c), c);
        assert_eq!(risked(InterruptionRisk::new(0.0)).adjust(c), c);
        assert_eq!(risked(InterruptionRisk::new(-3.0)).adjust(c), c);
        assert_eq!(risked(InterruptionRisk::new(f64::NAN)).adjust(c), c);
        assert_eq!(InterruptionRisk::NONE.expected_attempts(), 1.0);
    }

    #[test]
    fn geometric_inflation_hits_build_and_refresh_only() {
        let c = price();
        let risk = InterruptionRisk::new(0.5);
        assert_eq!(risk.expected_attempts(), 2.0);
        let adjusted = risked(risk).adjust(c);
        assert_eq!(adjusted.materialization, Hours::new(8.0));
        assert_eq!(adjusted.maintenance, Hours::new(1.0));
        assert_eq!(adjusted.size, c.size);
        assert_eq!(adjusted.placement, c.placement);
    }

    #[test]
    fn probability_is_clamped() {
        assert_eq!(InterruptionRisk::new(2.0).probability, MAX_INTERRUPTION);
        assert_eq!(InterruptionRisk::new(-1.0).probability, 0.0);
        assert!(InterruptionRisk::new(1.0).expected_attempts().is_finite());
    }

    #[test]
    fn identity_pool_is_bit_exact() {
        let c = price();
        assert_eq!(PoolCharge::IDENTITY.adjust(c), c);
        assert_eq!(PoolCharge::new(1.0, InterruptionRisk::NONE).adjust(c), c);
        // An insane factor falls back to the identity.
        for f in [f64::NAN, -2.0, 0.0, f64::INFINITY] {
            assert_eq!(PoolCharge::new(f, InterruptionRisk::NONE).adjust(c), c);
        }
    }

    #[test]
    fn pool_factor_scales_hours_only() {
        let c = price();
        let pool = PoolCharge::new(0.5, InterruptionRisk::NONE);
        let adjusted = pool.adjust(c);
        assert_eq!(adjusted.materialization, Hours::new(2.0));
        assert_eq!(adjusted.maintenance, Hours::new(0.25));
        assert_eq!(adjusted.size, c.size);
        assert_eq!(adjusted.placement, c.placement);
    }

    #[test]
    fn risk_applies_before_the_rate_differential() {
        let c = price();
        let pool = PoolCharge::new(0.5, InterruptionRisk::new(0.5));
        let adjusted = pool.adjust(c);
        // 4 h × 2 attempts × 0.5 rate = 4 h.
        assert_eq!(adjusted.materialization, Hours::new(4.0));
        assert_eq!(adjusted.maintenance, Hours::new(0.5));
        assert_eq!(pool.hours(Hours::new(3.0)), Hours::new(3.0));
    }

    #[test]
    fn monotone_in_probability() {
        let c = price();
        let mut prev = Hours::ZERO;
        for p in [0.0, 0.1, 0.3, 0.6, 0.9] {
            let adj = risked(InterruptionRisk::new(p)).adjust(c);
            assert!(adj.materialization >= prev, "p={p}");
            prev = adj.materialization;
        }
    }
}
