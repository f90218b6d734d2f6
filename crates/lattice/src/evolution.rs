//! Workload evolution across a billing horizon.
//!
//! The paper fixes one workload for one billing period, but its own
//! setup — dashboard queries by day, maintenance by night, re-billed
//! every period — implies a *repeating* horizon in which query
//! frequencies drift. A [`WorkloadEvolution`] turns a base
//! [`LatticeWorkload`] into a deterministic per-epoch sequence over the
//! **same query universe**: only frequencies change, never the query
//! set or its order. Keeping the universe fixed is what lets a
//! multi-epoch solver warm-start its evaluator across epochs (candidate
//! answer times stay aligned; see `mv_select::epoch`).
//!
//! The drift families cover the scenarios the horizon experiments
//! exercise:
//!
//! * [`EvolutionKind::Drift`] — interest migrates monotonically from
//!   the front of the workload to the back (yesterday's dashboards
//!   fade, new reports ramp up), at a geometric per-epoch rate;
//! * [`EvolutionKind::Burst`] — a rotating query spikes every `period`
//!   epochs (end-of-quarter closes, campaign launches);
//! * [`EvolutionKind::Seasonal`] — frequencies oscillate sinusoidally
//!   with a phase offset per query (weekly/monthly seasonality);
//! * [`EvolutionKind::Static`] — the identity evolution: every epoch
//!   repeats the base workload exactly (the zero-drift reference the
//!   horizon property tests pin against the single-period solve).
//!
//! Every generator is pure and deterministic: epoch `e`'s frequencies
//! depend only on the base workload, the spec and `e`.

use crate::LatticeWorkload;

/// The drift family and its knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvolutionKind {
    /// Identity: every epoch repeats the base workload.
    Static,
    /// Geometric migration of interest across the query list: query `i`
    /// of `n` has signed position `p_i = 2i/(n−1) − 1 ∈ [−1, 1]` and
    /// epoch `e` multiplies its base frequency by `(1 + rate)^(e·p_i)`
    /// — early queries decay, late queries grow, the middle holds.
    Drift {
        /// Per-epoch growth rate at the workload's tail (and decay rate
        /// at its head). Must be ≥ 0; 0 is the identity.
        rate: f64,
    },
    /// Every `period` epochs one query — rotating through the workload
    /// — has its frequency multiplied by `factor` for that epoch only.
    Burst {
        /// Epochs between bursts (≥ 1; epoch 0 bursts query 0).
        period: usize,
        /// Spike multiplier applied to the bursting query (≥ 0).
        factor: f64,
    },
    /// Sinusoidal modulation: epoch `e` multiplies query `i`'s base
    /// frequency by `1 + amplitude·sin(2π·e/period + 2π·i/n)` — each
    /// query peaks at a different point of the cycle.
    Seasonal {
        /// Epochs per full cycle (≥ 1).
        period: usize,
        /// Modulation depth in `[0, 1]` (1 swings between 0× and 2×).
        amplitude: f64,
    },
}

/// A deterministic workload trajectory over a fixed query universe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadEvolution {
    /// The drift family.
    pub kind: EvolutionKind,
}

impl WorkloadEvolution {
    /// The identity evolution.
    pub fn fixed() -> Self {
        WorkloadEvolution {
            kind: EvolutionKind::Static,
        }
    }

    /// Geometric head-to-tail drift (validates `rate ≥ 0`).
    pub fn drift(rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite(), "rate must be ≥ 0");
        WorkloadEvolution {
            kind: EvolutionKind::Drift { rate },
        }
    }

    /// Rotating bursts every `period` epochs.
    pub fn burst(period: usize, factor: f64) -> Self {
        assert!(period >= 1, "burst period must be ≥ 1");
        assert!(factor >= 0.0 && factor.is_finite(), "factor must be ≥ 0");
        WorkloadEvolution {
            kind: EvolutionKind::Burst { period, factor },
        }
    }

    /// Sinusoidal seasonality (validates `period ≥ 1`, `amplitude ∈
    /// [0, 1]` so frequencies never go negative).
    pub fn seasonal(period: usize, amplitude: f64) -> Self {
        assert!(period >= 1, "seasonal period must be ≥ 1");
        assert!(
            (0.0..=1.0).contains(&amplitude),
            "amplitude must be in [0, 1]"
        );
        WorkloadEvolution {
            kind: EvolutionKind::Seasonal { period, amplitude },
        }
    }

    /// Epoch `epoch`'s frequency multipliers, one per query of an
    /// `n`-query workload. Always finite and ≥ 0.
    pub(crate) fn multipliers(&self, n: usize, epoch: usize) -> Vec<f64> {
        match self.kind {
            EvolutionKind::Static => vec![1.0; n],
            EvolutionKind::Drift { rate } => (0..n)
                .map(|i| {
                    let pos = if n <= 1 {
                        0.0
                    } else {
                        2.0 * i as f64 / (n as f64 - 1.0) - 1.0
                    };
                    (1.0 + rate).powf(epoch as f64 * pos)
                })
                .collect(),
            EvolutionKind::Burst { period, factor } => {
                let mut mult = vec![1.0; n];
                if n > 0 && epoch.is_multiple_of(period) {
                    mult[(epoch / period) % n] = factor;
                }
                mult
            }
            EvolutionKind::Seasonal { period, amplitude } => (0..n)
                .map(|i| {
                    // Reduce the epoch modulo the period *before* the
                    // trig so a full-cycle shift reproduces an epoch's
                    // frequencies bit-for-bit (floating-point sin is
                    // not exactly periodic over distinct arguments).
                    let phase = std::f64::consts::TAU
                        * ((epoch % period) as f64 / period as f64 + i as f64 / n.max(1) as f64);
                    (1.0 + amplitude * phase.sin()).max(0.0)
                })
                .collect(),
        }
    }

    /// Epoch `epoch`'s frequencies for `base` (base frequency ×
    /// multiplier, clamped at 0).
    pub fn frequencies(&self, base: &LatticeWorkload, epoch: usize) -> Vec<f64> {
        base.queries
            .iter()
            .zip(self.multipliers(base.len(), epoch))
            .map(|(q, m)| (q.frequency * m).max(0.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_workload, Lattice};

    fn base() -> LatticeWorkload {
        paper_workload(&Lattice::paper_running_example())
    }

    #[test]
    fn static_evolution_is_the_identity() {
        let b = base();
        let base_frequencies: Vec<f64> = b.queries.iter().map(|q| q.frequency).collect();
        for e in 0..5 {
            assert_eq!(
                WorkloadEvolution::fixed().frequencies(&b, e),
                base_frequencies
            );
        }
    }

    #[test]
    fn drift_shifts_weight_tailward() {
        let b = base();
        let ev = WorkloadEvolution::drift(0.3);
        let e0 = ev.frequencies(&b, 0);
        let e4 = ev.frequencies(&b, 4);
        assert_eq!(e0, vec![1.0; b.len()], "epoch 0 is the base workload");
        // Head decays, tail grows, monotone across the list.
        assert!(e4[0] < 1.0 && e4[b.len() - 1] > 1.0);
        for pair in e4.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-12);
        }
        // Zero rate is the identity at any epoch.
        assert_eq!(
            WorkloadEvolution::drift(0.0).frequencies(&b, 7),
            vec![1.0; b.len()]
        );
    }

    #[test]
    fn bursts_rotate_and_spike_one_query() {
        let b = base();
        let ev = WorkloadEvolution::burst(2, 10.0);
        for e in 0..8 {
            let f = ev.frequencies(&b, e);
            if e % 2 == 0 {
                let spiked: Vec<usize> = (0..b.len()).filter(|&i| f[i] > 1.0).collect();
                assert_eq!(spiked, vec![(e / 2) % b.len()], "epoch {e}");
                assert_eq!(f[spiked[0]], 10.0);
            } else {
                assert_eq!(f, vec![1.0; b.len()], "off-epoch {e} is unmodified");
            }
        }
    }

    #[test]
    fn seasonal_cycles_and_stays_nonnegative() {
        let b = base();
        let ev = WorkloadEvolution::seasonal(12, 1.0);
        for e in 0..24 {
            for f in ev.frequencies(&b, e) {
                assert!((0.0..=2.0 + 1e-12).contains(&f), "epoch {e}: {f}");
            }
        }
        // Full-period shift reproduces the epoch exactly.
        assert_eq!(ev.frequencies(&b, 3), ev.frequencies(&b, 15));
        // Different queries peak at different epochs (phase offset).
        let e0 = ev.frequencies(&b, 0);
        assert!(e0.iter().any(|&f| f > 1.0) && e0.iter().any(|&f| f < 1.0));
    }

    #[test]
    fn evolution_never_touches_the_query_universe() {
        let b = base();
        for ev in [
            WorkloadEvolution::drift(0.5),
            WorkloadEvolution::burst(3, 0.0),
            WorkloadEvolution::seasonal(4, 0.7),
        ] {
            // One non-negative frequency per base query: names and
            // cuboids are the base workload's by construction.
            for e in 0..9 {
                let frequencies = ev.frequencies(&b, e);
                assert_eq!(frequencies.len(), b.len());
                assert!(frequencies.iter().all(|&f| f >= 0.0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn overdeep_seasonal_rejected() {
        WorkloadEvolution::seasonal(12, 1.5);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_rejected() {
        WorkloadEvolution::burst(0, 2.0);
    }
}
