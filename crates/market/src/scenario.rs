//! Market scenarios: a process stack compiled into epoch-aligned
//! pricing.
//!
//! A [`MarketScenario`] owns a horizon length, a seed, and a stack of
//! [`PriceProcess`]es. Sampling path `j` ([`MarketScenario::path`])
//! derives an independent generator from `(seed, j)`, samples every
//! process over the horizon, and combines them epoch-wise into
//! [`EpochQuote`]s: factors multiply, interruption probabilities
//! combine as independent hazards (`1 − Π(1 − pᵢ)`). The same `(seed,
//! path)` pair always reproduces the same quotes — Monte-Carlo sweeps
//! are replayable by construction, and a path can be re-derived in
//! isolation (no sequential draw coupling between paths).
//!
//! [`EpochQuote::reprice`] turns a quote into a concrete
//! [`PricingPolicy`] via the pricing crate's `scale_rates` hooks; a
//! unit quote reproduces the base policy bit-for-bit, which is what the
//! zero-volatility consistency guarantee rests on.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use mv_pricing::PricingPolicy;

use crate::{PriceFactors, PriceProcess, ProcessQuote, MAX_INTERRUPTION};

/// One epoch of a sampled price path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochQuote {
    /// Combined multiplicative price factors for the epoch.
    pub factors: PriceFactors,
    /// Combined probability of a mid-epoch capacity interruption.
    pub interruption: f64,
    /// Whether an interruption *event* was sampled for this epoch (a
    /// Bernoulli draw at `interruption`; reporting only — the expected
    /// -cost charging uses the probability, not the event).
    pub interrupted: bool,
}

impl EpochQuote {
    /// The solve-relevant identity of the quote: the three price-factor
    /// bits plus the interruption-*probability* bits. The Bernoulli
    /// `interrupted` event flag is excluded — it is reporting-only
    /// (expected-cost charging uses the probability), so two quotes
    /// with equal keys re-price and risk-adjust bit-identically. This
    /// is the one rule for path identity: the merge key of
    /// [`crate::ScenarioTree`].
    pub(crate) fn solve_key(&self) -> [u64; 4] {
        [
            self.factors.compute.to_bits(),
            self.factors.storage.to_bits(),
            self.factors.transfer.to_bits(),
            self.interruption.to_bits(),
        ]
    }

    /// Applies the quote to a base policy. A unit quote returns a
    /// bit-identical policy (every `scale_rates` hook clones on factor
    /// `1.0`).
    pub fn reprice(&self, base: &PricingPolicy) -> PricingPolicy {
        base.scale_rates(
            self.factors.compute,
            self.factors.storage,
            self.factors.transfer,
        )
    }
}

/// One sampled trajectory of the market over the horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketPath {
    /// Which sampled path this is (0-based).
    pub path: usize,
    /// One quote per epoch.
    pub quotes: Vec<EpochQuote>,
}

impl MarketPath {
    /// Number of sampled interruption events along the path.
    pub fn interruptions(&self) -> usize {
        self.quotes.iter().filter(|q| q.interrupted).count()
    }
}

/// A compiled market: horizon length, seed, and the process stack.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketScenario {
    /// Billing periods in the horizon.
    pub epochs: usize,
    /// Master seed; path `j` derives its own generator from `(seed, j)`.
    pub seed: u64,
    /// The composable process stack (empty = constant prices).
    pub processes: Vec<PriceProcess>,
}

impl MarketScenario {
    /// A constant-price market over `epochs` epochs (every path is all
    /// unit quotes until processes are pushed).
    pub fn constant(epochs: usize, seed: u64) -> Self {
        MarketScenario {
            epochs,
            seed,
            processes: Vec::new(),
        }
    }

    /// Pushes a process onto the stack (builder style).
    pub fn with(mut self, process: PriceProcess) -> Self {
        self.processes.push(process);
        self
    }

    /// Samples path `path`: an independent, reproducible trajectory.
    /// Processes sample in stack order from a generator seeded by
    /// `(seed, path)`, then one Bernoulli event draw per epoch realizes
    /// the combined interruption probability.
    pub fn path(&self, path: usize) -> MarketPath {
        // splitmix-style mix of the path index into the master seed, so
        // consecutive paths land far apart in the generator's stream.
        let mixed = self
            .seed
            .wrapping_add((path as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut rng = StdRng::seed_from_u64(mixed);
        let sampled: Vec<Vec<ProcessQuote>> = self
            .processes
            .iter()
            .map(|p| p.sample(self.epochs, &mut rng))
            .collect();
        let mut quotes = Vec::with_capacity(self.epochs);
        for e in 0..self.epochs {
            let mut factors = PriceFactors::UNIT;
            let mut survive = 1.0f64;
            for s in &sampled {
                factors = factors.combine(s[e].factors);
                survive *= 1.0 - s[e].interruption;
            }
            let interruption = (1.0 - survive).clamp(0.0, MAX_INTERRUPTION);
            let interrupted = interruption > 0.0 && rng.random_range(0.0f64..1.0) < interruption;
            quotes.push(EpochQuote {
                factors,
                interruption,
                interrupted,
            });
        }
        MarketPath { path, quotes }
    }
}

#[cfg(test)]
impl EpochQuote {
    /// The identity quote: base prices, no interruption risk.
    pub(crate) const UNIT: EpochQuote = EpochQuote {
        factors: PriceFactors::UNIT,
        interruption: 0.0,
        interrupted: false,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnnouncedCut, CorrelatedHazard, SpotMarket, StorageDecay};
    use mv_pricing::presets;
    use mv_units::{Gb, Hours};

    #[test]
    fn constant_market_is_all_unit_quotes() {
        let m = MarketScenario::constant(5, 99);
        for j in [0, 1, 7] {
            let p = m.path(j);
            assert_eq!(p.quotes.len(), 5);
            for q in &p.quotes {
                assert_eq!(*q, EpochQuote::UNIT);
            }
        }
    }

    #[test]
    fn unit_quote_repricing_is_bit_identical() {
        let base = presets::aws_2012();
        let repriced = EpochQuote::UNIT.reprice(&base);
        assert_eq!(repriced.compute, base.compute);
        assert_eq!(repriced.storage, base.storage);
        assert_eq!(repriced.transfer, base.transfer);
    }

    #[test]
    fn factors_stack_multiplicatively() {
        let m = MarketScenario::constant(6, 0)
            .with(PriceProcess::Cut(AnnouncedCut::compute(2, 0.8)))
            .with(PriceProcess::StorageDecay(StorageDecay::new(0.1, 0.5)))
            .with(PriceProcess::Cut(AnnouncedCut::compute(4, 0.5)));
        let p = m.path(0);
        assert_eq!(p.quotes[0].factors.compute, 1.0);
        assert_eq!(p.quotes[2].factors.compute, 0.8);
        assert_eq!(p.quotes[4].factors.compute, 0.8 * 0.5);
        assert_eq!(p.quotes[3].factors.storage, 0.7);
        assert_eq!(p.quotes[0].interruption, 0.0);
        // Deterministic stacks: every path identical.
        assert_eq!(m.path(3).quotes, p.quotes);
    }

    #[test]
    fn repricing_scales_real_costs() {
        let base = presets::aws_2012();
        let m =
            MarketScenario::constant(2, 0).with(PriceProcess::Cut(AnnouncedCut::compute(1, 0.5)));
        let p = m.path(0);
        let cut = p.quotes[1].reprice(&base);
        let small = base.compute.instance("small").unwrap();
        let small_cut = cut.compute.instance("small").unwrap();
        assert_eq!(small.hourly.scale(0.5).micros(), small_cut.hourly.micros());
        // Non-scaled components untouched.
        assert_eq!(
            cut.storage.monthly_cost(Gb::new(100.0)),
            base.storage.monthly_cost(Gb::new(100.0))
        );
        assert_eq!(
            base.compute
                .cost(Hours::new(10.0), small_cut, 2)
                .to_dollars_f64(),
            base.compute
                .cost(Hours::new(10.0), small, 2)
                .to_dollars_f64()
                * 0.5
        );
    }

    #[test]
    fn paths_are_reproducible_and_independent() {
        let m = MarketScenario::constant(8, 1234)
            .with(PriceProcess::Spot(SpotMarket::with_volatility(0.4)));
        let a = m.path(3);
        let b = m.path(3);
        assert_eq!(a, b);
        // Different paths genuinely differ...
        assert_ne!(m.path(0).quotes, m.path(1).quotes);
        // ...and re-deriving path 5 without sampling 0..4 first gives
        // the same trajectory (no sequential coupling).
        let direct = m.path(5);
        for j in 0..5 {
            let _ = m.path(j);
        }
        assert_eq!(m.path(5), direct);
    }

    #[test]
    fn hazards_combine_as_independent_probabilities() {
        // Two always-crunching regimes, each quoting p = 0.5.
        let crunch = PriceProcess::Correlated(CorrelatedHazard::bursty(1.0, 0.0, 0.5));
        let m = MarketScenario::constant(1, 0)
            .with(crunch.clone())
            .with(crunch);
        let p = m.path(0);
        assert!((p.quotes[0].interruption - 0.75).abs() < 1e-12);
    }
}
