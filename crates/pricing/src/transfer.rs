//! Bandwidth pricing (paper Table 3).

use mv_units::{Gb, Money};

use crate::TierSchedule;

/// Transfer pricing: separate schedules for inbound and outbound traffic.
///
/// The paper's model (Amazon 2012): "input data transfers are free, whereas
/// output data transfer cost varies with respect to data volume". Outbound
/// volumes are aggregated per billing period before the schedule applies —
/// that is how the paper's Example 1 treats the workload's 10 GB of query
/// results as one volume.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferPricing {
    /// Inbound ($0 under every 2012 preset, but modellable).
    pub inbound: TierSchedule,
    /// Outbound, applied to the period's aggregated volume.
    pub outbound: TierSchedule,
}

impl TransferPricing {
    /// Free inbound + the given outbound schedule (the AWS shape).
    pub(crate) fn free_inbound(outbound: TierSchedule) -> Self {
        TransferPricing {
            inbound: TierSchedule::free(),
            outbound,
        }
    }

    /// Cost of transferring `volume` out of the cloud in one billing period.
    pub fn outbound_cost(&self, volume: Gb) -> Money {
        self.outbound.cost_for(volume)
    }

    /// Cost of transferring `volume` into the cloud.
    pub fn inbound_cost(&self, volume: Gb) -> Money {
        self.inbound.cost_for(volume)
    }

    /// `true` when inbound transfers cost nothing — lets the cost models use
    /// the paper's simplified Formula 3 instead of the general Formula 2.
    pub fn inbound_is_free(&self) -> bool {
        self.inbound.tiers().iter().all(|t| t.rate == Money::ZERO)
    }

    /// Returns a copy with every inbound and outbound rate multiplied by
    /// `factor` — the price-drift hook used by `mv-market`. A factor of
    /// exactly `1.0` returns a bit-identical clone; free tiers stay free
    /// under any factor.
    pub(crate) fn scale_rates(&self, factor: f64) -> TransferPricing {
        TransferPricing {
            inbound: self.inbound.scale_rates(factor),
            outbound: self.outbound.scale_rates(factor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tier, TierMode};

    fn aws_outbound() -> TierSchedule {
        TierSchedule::new(
            vec![
                Tier::upto_gb(1.0, Money::ZERO),
                Tier::upto_gb(10.0 * 1024.0, Money::from_dollars_str("0.12").unwrap()),
                Tier::rest(Money::from_dollars_str("0.09").unwrap()),
            ],
            TierMode::Graduated,
        )
        .unwrap()
    }

    #[test]
    fn example1_outbound() {
        let t = TransferPricing::free_inbound(aws_outbound());
        assert_eq!(
            t.outbound_cost(Gb::new(10.0)),
            Money::from_dollars_str("1.08").unwrap()
        );
        assert_eq!(t.inbound_cost(Gb::new(500.0)), Money::ZERO);
        assert!(t.inbound_is_free());
    }

    #[test]
    fn paid_inbound_detected() {
        let t = TransferPricing {
            inbound: TierSchedule::flat(Money::from_cents(1)),
            outbound: aws_outbound(),
        };
        assert!(!t.inbound_is_free());
        assert_eq!(t.inbound_cost(Gb::new(100.0)), Money::from_dollars(1));
    }
}
