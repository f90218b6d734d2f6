//! Composable price processes.
//!
//! Each process describes one force acting on a provider's price sheet
//! over a billing horizon — an announced price cut, the secular decline
//! of storage rates, a fluctuating spot market, a bursty interruption
//! regime. A process samples a whole horizon at once
//! ([`PriceProcess::sample`]): per epoch it yields a [`PriceFactors`]
//! multiplier triple plus an interruption probability, and a
//! [`crate::MarketScenario`] multiplies the factors of its whole
//! process stack together (probabilities combine as independent
//! hazards).
//!
//! Everything is reproducible from an explicit seed: stochastic
//! processes draw from the seeded generator they are handed, in a fixed
//! order; deterministic processes ignore it (and consume no draws, so
//! adding a deterministic process never perturbs a stochastic one's
//! stream).

use rand::rngs::StdRng;
use rand::RngExt;

use crate::MAX_INTERRUPTION;

/// Multiplicative factors applied to the three billed components of a
/// pricing policy for one epoch. `1.0` everywhere is the identity (and
/// re-pricing through it is bit-exact, see
/// `mv_pricing::PricingPolicy::scale_rates`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceFactors {
    /// Instance-hour rate multiplier.
    pub compute: f64,
    /// $/GB-month storage rate multiplier.
    pub storage: f64,
    /// Transfer rate multiplier.
    pub transfer: f64,
}

impl PriceFactors {
    /// The identity: base prices unchanged.
    pub const UNIT: PriceFactors = PriceFactors {
        compute: 1.0,
        storage: 1.0,
        transfer: 1.0,
    };

    /// Component-wise product (stacked processes compose
    /// multiplicatively).
    pub(crate) fn combine(self, other: PriceFactors) -> PriceFactors {
        PriceFactors {
            compute: self.compute * other.compute,
            storage: self.storage * other.storage,
            transfer: self.transfer * other.transfer,
        }
    }
}

/// One epoch of one process's output: price factors plus the epoch's
/// interruption probability under that process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessQuote {
    /// Multiplicative price factors for the epoch.
    pub factors: PriceFactors,
    /// Probability that the fleet is interrupted mid-epoch (0 for
    /// everything but spot capacity).
    pub interruption: f64,
}

impl ProcessQuote {
    /// The do-nothing quote.
    pub(crate) const UNIT: ProcessQuote = ProcessQuote {
        factors: PriceFactors::UNIT,
        interruption: 0.0,
    };
}

/// A provider-announced step change taking effect at a known epoch —
/// the "we are cutting instance prices by 15% next quarter" pattern
/// cloud vendors repeated throughout the 2010s. Factors apply from
/// `effective_epoch` onward; earlier epochs are untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnouncedCut {
    /// First epoch the new prices apply to.
    pub effective_epoch: usize,
    /// Factors in force from that epoch on.
    pub factors: PriceFactors,
}

impl AnnouncedCut {
    /// A compute-only cut: hourly rates multiply by `factor` from
    /// `effective_epoch` onward.
    pub fn compute(effective_epoch: usize, factor: f64) -> Self {
        AnnouncedCut {
            effective_epoch,
            factors: PriceFactors {
                compute: factor,
                ..PriceFactors::UNIT
            },
        }
    }

    fn quote(&self, epoch: usize) -> ProcessQuote {
        if epoch >= self.effective_epoch {
            ProcessQuote {
                factors: self.factors,
                interruption: 0.0,
            }
        } else {
            ProcessQuote::UNIT
        }
    }
}

/// Secular storage-price decline: the storage factor decays linearly by
/// `rate` per epoch down to `floor` (e.g. `rate = 0.02`, `floor = 0.5`
/// models the steady multi-year slide of object-storage rates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageDecay {
    /// Linear per-epoch decline of the storage factor.
    pub rate: f64,
    /// Lowest factor the decline can reach.
    pub floor: f64,
}

impl StorageDecay {
    /// Builds a decay, clamping to sane ranges.
    pub fn new(rate: f64, floor: f64) -> Self {
        StorageDecay {
            rate: rate.max(0.0),
            floor: floor.clamp(0.0, 1.0),
        }
    }

    fn quote(&self, epoch: usize) -> ProcessQuote {
        ProcessQuote {
            factors: PriceFactors {
                storage: (1.0 - self.rate * epoch as f64).max(self.floor),
                ..PriceFactors::UNIT
            },
            interruption: 0.0,
        }
    }
}

/// A seeded mean-reverting spot market for compute, with interruption
/// risk once the clearing price climbs toward the renter's bid.
///
/// The compute factor follows a discrete Ornstein–Uhlenbeck-style
/// recurrence: `x ← x + reversion·(mean − x) + volatility·u` with `u`
/// uniform on [−1, 1] drawn from the scenario's seeded generator, then
/// floored at a small positive value. The interruption probability is 0
/// while `x ≤ bid` and ramps linearly to `max_interruption` as `x`
/// approaches `2·bid` — the classic spot contract: you keep capacity
/// while the market clears under your bid, and the further the market
/// moves past it the likelier a reclaim becomes.
///
/// With `volatility == 0` and `start == mean == 1 ≤ bid` the process is
/// the exact identity (factor 1, probability 0) — the zero-volatility
/// consistency guarantee leans on this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotMarket {
    /// Long-run mean of the compute factor (e.g. 0.35: spot clears at a
    /// third of the on-demand rate on average).
    pub mean: f64,
    /// Initial compute factor.
    pub start: f64,
    /// Per-epoch pull toward the mean, in [0, 1].
    pub reversion: f64,
    /// Half-width of the uniform per-epoch shock.
    pub volatility: f64,
    /// Compute factor above which interruption risk begins.
    pub bid: f64,
    /// Interruption probability as the price reaches twice the bid.
    pub max_interruption: f64,
}

impl SpotMarket {
    /// Smallest admissible price factor (prices never reach zero).
    pub(crate) const PRICE_FLOOR: f64 = 0.01;

    /// A calm spot market centered on the on-demand price: mean and
    /// start 1.0, mild reversion, the given volatility, interruptions
    /// ramping above a 1.2× bid.
    pub fn with_volatility(volatility: f64) -> Self {
        SpotMarket {
            mean: 1.0,
            start: 1.0,
            reversion: 0.35,
            volatility,
            bid: 1.2,
            max_interruption: 0.6,
        }
    }

    /// A discounted spot regime: clears well under on-demand on
    /// average, but swings hard and reclaims capacity in spikes.
    pub fn discounted(mean: f64, volatility: f64) -> Self {
        SpotMarket {
            mean,
            start: mean,
            reversion: 0.35,
            volatility,
            bid: 1.0,
            max_interruption: 0.6,
        }
    }

    /// Interruption probability at compute factor `x`.
    fn interruption_at(&self, x: f64) -> f64 {
        if x <= self.bid || self.bid <= 0.0 {
            return 0.0;
        }
        let ramp = ((x - self.bid) / self.bid).min(1.0);
        (self.max_interruption * ramp).clamp(0.0, MAX_INTERRUPTION)
    }

    fn sample(&self, epochs: usize, rng: &mut StdRng) -> Vec<ProcessQuote> {
        let mut quotes = Vec::with_capacity(epochs);
        let mut x = self.start.max(Self::PRICE_FLOOR);
        for _ in 0..epochs {
            quotes.push(ProcessQuote {
                factors: PriceFactors {
                    compute: x,
                    ..PriceFactors::UNIT
                },
                interruption: self.interruption_at(x),
            });
            let shock = if self.volatility > 0.0 {
                self.volatility * rng.random_range(-1.0f64..1.0)
            } else {
                // Draw nothing: a zero-volatility spot process must not
                // perturb the stream of any stochastic process after it.
                0.0
            };
            x = (x + self.reversion * (self.mean - x) + shock).max(Self::PRICE_FLOOR);
        }
        quotes
    }
}

/// Bursty, regime-switching interruption hazard: a two-state
/// calm/crunch Markov chain modulating the quoted interruption
/// probability (and optionally the compute factor) — capacity crunches
/// hit *consecutive* epochs, unlike [`SpotMarket`]'s per-epoch
/// price-driven hazard.
///
/// The regime chain is parameterized by its stationary crunch share
/// `π` and its epoch-to-epoch persistence `ρ` (the regime's lag-1
/// autocorrelation): from any epoch, the next is a crunch with
/// probability `π(1−ρ) + ρ·[current is crunch]`. Two boundary
/// identities the conformance tests pin:
///
/// * **`ρ = 0` is the independent-hazard process exactly** — every
///   epoch is an i.i.d. Bernoulli(π) crunch, one uniform draw per
///   epoch, reproducible from the scenario's seeded generator
///   (`tests/fleet.rs` reconstructs the draws by hand and matches the
///   quotes bit-for-bit);
/// * **a degenerate regime quotes deterministically** — `π ∈ {0, 1}`,
///   or `calm == crunch` with a unit crunch factor, yields identical
///   quotes on every path (so the scenario tree merges them into one
///   chain and the Monte-Carlo driver pays one solve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatedHazard {
    /// Stationary probability `π` of an epoch being in the crunch
    /// regime, in `[0, 1]`.
    pub crunch_share: f64,
    /// Epoch-to-epoch persistence `ρ` of the regime, in `[0, 1)`:
    /// `0` = i.i.d. crunches, `→ 1` = long contiguous crunches.
    pub persistence: f64,
    /// Interruption probability quoted in calm epochs.
    pub calm: f64,
    /// Interruption probability quoted in crunch epochs.
    pub crunch: f64,
    /// Compute-factor multiplier during a crunch (capacity crunches
    /// also spike clearing prices; `1.0` = hazard only).
    pub crunch_compute: f64,
}

impl CorrelatedHazard {
    /// A bursty spot-reclaim regime: calm epochs are risk-free, crunch
    /// epochs interrupt with probability `crunch`, crunches cover
    /// `share` of epochs on average and persist with autocorrelation
    /// `persistence`.
    pub fn bursty(share: f64, persistence: f64, crunch: f64) -> Self {
        CorrelatedHazard {
            crunch_share: share,
            persistence,
            calm: 0.0,
            crunch,
            crunch_compute: 1.0,
        }
    }

    /// Sets the crunch-epoch compute multiplier (builder style).
    pub fn with_crunch_compute(mut self, factor: f64) -> Self {
        self.crunch_compute = factor;
        self
    }

    /// The sanitized parameters the sampler actually uses.
    fn sanitized(&self) -> (f64, f64, f64, f64, f64) {
        let clamp01 = |x: f64| {
            if x.is_finite() {
                x.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        (
            clamp01(self.crunch_share),
            if self.persistence.is_finite() {
                self.persistence.clamp(0.0, 0.999_999)
            } else {
                0.0
            },
            clamp01(self.calm).min(MAX_INTERRUPTION),
            clamp01(self.crunch).min(MAX_INTERRUPTION),
            if self.crunch_compute.is_finite() && self.crunch_compute > 0.0 {
                self.crunch_compute
            } else {
                1.0
            },
        )
    }

    fn sample(&self, epochs: usize, rng: &mut StdRng) -> Vec<ProcessQuote> {
        let (share, rho, calm, crunch, crunch_compute) = self.sanitized();
        let mut quotes = Vec::with_capacity(epochs);
        let mut in_crunch = false;
        for e in 0..epochs {
            // Epoch 0 draws the stationary distribution; later epochs
            // mix persistence in. One uniform per epoch, so ρ = 0 is
            // exactly the i.i.d. Bernoulli(π) draw sequence.
            let p = if e == 0 {
                share
            } else {
                share * (1.0 - rho) + rho * f64::from(in_crunch)
            };
            in_crunch = rng.random_range(0.0f64..1.0) < p;
            quotes.push(ProcessQuote {
                factors: PriceFactors {
                    compute: if in_crunch { crunch_compute } else { 1.0 },
                    ..PriceFactors::UNIT
                },
                interruption: if in_crunch { crunch } else { calm },
            });
        }
        quotes
    }
}

/// One composable force on the price sheet. See the variants' types for
/// semantics; a [`crate::MarketScenario`] samples whole horizons from them.
#[derive(Debug, Clone, PartialEq)]
pub enum PriceProcess {
    /// Announced step price change.
    Cut(AnnouncedCut),
    /// Linear storage-rate decline.
    StorageDecay(StorageDecay),
    /// Seeded mean-reverting spot market with interruption risk.
    Spot(SpotMarket),
    /// Two-state calm/crunch Markov modulation of the interruption
    /// hazard (correlated, bursty reclaims).
    Correlated(CorrelatedHazard),
}

impl PriceProcess {
    /// Samples the process over `epochs` epochs. Stochastic variants
    /// draw from `rng` in a fixed order; deterministic variants consume
    /// no draws.
    pub(crate) fn sample(&self, epochs: usize, rng: &mut StdRng) -> Vec<ProcessQuote> {
        match self {
            PriceProcess::Cut(c) => (0..epochs).map(|e| c.quote(e)).collect(),
            PriceProcess::StorageDecay(d) => (0..epochs).map(|e| d.quote(e)).collect(),
            PriceProcess::Spot(s) => s.sample(epochs, rng),
            PriceProcess::Correlated(h) => h.sample(epochs, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn cuts_take_effect_on_schedule() {
        let c = AnnouncedCut::compute(3, 0.85);
        assert_eq!(c.quote(2).factors, PriceFactors::UNIT);
        assert_eq!(c.quote(3).factors.compute, 0.85);
        assert_eq!(c.quote(9).factors.compute, 0.85);
    }

    #[test]
    fn storage_decay_is_floored() {
        let d = StorageDecay::new(0.1, 0.5);
        assert_eq!(d.quote(0).factors.storage, 1.0);
        assert_eq!(d.quote(3).factors.storage, 0.7);
        assert_eq!(d.quote(40).factors.storage, 0.5);
        assert_eq!(d.quote(3).factors.compute, 1.0);
    }

    #[test]
    fn zero_volatility_spot_is_identity_and_draws_nothing() {
        let spot = SpotMarket::with_volatility(0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let quotes = spot.sample(6, &mut rng);
        for q in &quotes {
            assert_eq!(q.factors, PriceFactors::UNIT);
            assert_eq!(q.interruption, 0.0);
        }
        // The generator was never touched.
        let mut fresh = StdRng::seed_from_u64(7);
        use rand::RngExt;
        assert_eq!(rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn spot_reverts_to_the_mean_and_ramps_interruption() {
        let spot = SpotMarket {
            mean: 0.4,
            start: 2.0,
            reversion: 0.5,
            volatility: 0.0,
            bid: 1.0,
            max_interruption: 0.6,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let quotes = spot.sample(12, &mut rng);
        // Starts hot (interrupting), decays toward the mean and calms.
        assert_eq!(quotes[0].factors.compute, 2.0);
        assert!(quotes[0].interruption > 0.0);
        assert!(quotes[11].factors.compute < 0.45);
        assert_eq!(quotes[11].interruption, 0.0);
        for w in quotes.windows(2) {
            assert!(w[1].factors.compute <= w[0].factors.compute);
        }
    }

    #[test]
    fn zero_persistence_hazard_is_iid_bernoulli() {
        // ρ = 0: one uniform per epoch against the stationary share —
        // reconstruct the draw sequence by hand and match bit-for-bit.
        let hazard = CorrelatedHazard::bursty(0.3, 0.0, 0.5);
        let mut rng = StdRng::seed_from_u64(99);
        let quotes = hazard.sample(32, &mut rng);
        let mut mirror = StdRng::seed_from_u64(99);
        for (e, q) in quotes.iter().enumerate() {
            let crunch = mirror.random_range(0.0f64..1.0) < 0.3;
            assert_eq!(q.interruption, if crunch { 0.5 } else { 0.0 }, "epoch {e}");
            assert_eq!(q.factors, PriceFactors::UNIT);
        }
    }

    #[test]
    fn persistent_crunches_cluster() {
        // High persistence: crunch epochs arrive in runs. Compare the
        // number of regime switches against the i.i.d. variant at the
        // same stationary share over a long horizon.
        let switches = |quotes: &[ProcessQuote]| -> usize {
            quotes
                .windows(2)
                .filter(|w| (w[0].interruption > 0.0) != (w[1].interruption > 0.0))
                .count()
        };
        let sticky = CorrelatedHazard::bursty(0.4, 0.9, 0.6);
        let iid = CorrelatedHazard::bursty(0.4, 0.0, 0.6);
        let mut sticky_switches = 0;
        let mut iid_switches = 0;
        for seed in 0..20 {
            sticky_switches += switches(&sticky.sample(64, &mut StdRng::seed_from_u64(seed)));
            iid_switches += switches(&iid.sample(64, &mut StdRng::seed_from_u64(seed)));
        }
        assert!(
            sticky_switches * 2 < iid_switches,
            "persistent regimes should switch far less: {sticky_switches} vs {iid_switches}"
        );
    }

    #[test]
    fn crunch_factor_reaches_the_compute_quote() {
        let hazard = CorrelatedHazard::bursty(1.0, 0.5, 0.4).with_crunch_compute(1.5);
        let quotes = hazard.sample(4, &mut StdRng::seed_from_u64(1));
        for q in &quotes {
            assert_eq!(q.factors.compute, 1.5);
            assert_eq!(q.interruption, 0.4);
        }
    }

    #[test]
    fn degenerate_hazards_are_deterministic() {
        // π ∈ {0, 1} or indistinguishable regimes: the quotes are
        // path-independent.
        for h in [
            CorrelatedHazard::bursty(0.0, 0.5, 0.6),
            CorrelatedHazard::bursty(1.0, 0.5, 0.6),
            CorrelatedHazard {
                crunch_share: 0.4,
                persistence: 0.5,
                calm: 0.3,
                crunch: 0.3,
                crunch_compute: 1.0,
            },
        ] {
            let a = h.sample(12, &mut StdRng::seed_from_u64(7));
            let b = h.sample(12, &mut StdRng::seed_from_u64(1234));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn hazard_parameters_are_sanitized() {
        let wild = CorrelatedHazard {
            crunch_share: f64::NAN,
            persistence: 2.0,
            calm: -1.0,
            crunch: 7.0,
            crunch_compute: -3.0,
        };
        let quotes = wild.sample(6, &mut StdRng::seed_from_u64(3));
        for q in &quotes {
            assert!(q.factors.compute > 0.0);
            assert!((0.0..=MAX_INTERRUPTION).contains(&q.interruption));
        }
    }

    #[test]
    fn spot_paths_are_seed_deterministic() {
        let spot = SpotMarket::with_volatility(0.3);
        let a = spot.sample(10, &mut StdRng::seed_from_u64(42));
        let b = spot.sample(10, &mut StdRng::seed_from_u64(42));
        let c = spot.sample(10, &mut StdRng::seed_from_u64(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
        for q in &a {
            assert!(q.factors.compute >= SpotMarket::PRICE_FLOOR);
            assert!((0.0..=MAX_INTERRUPTION).contains(&q.interruption));
        }
    }
}
