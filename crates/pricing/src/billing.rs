//! A usage ledger and invoice renderer.
//!
//! The cost models compute *predicted* costs; the billing simulator plays
//! the provider's side: record what was actually used, then produce an
//! itemized invoice. Integration tests reconcile the two — predicted total
//! equals invoiced total for the same usage — which is exactly the property
//! the paper's client-side selection relies on.

use std::fmt;

use mv_units::{Gb, Hours, Money};

use crate::{PricingError, PricingPolicy, StorageTimeline};

/// The kind of resource a ledger entry charges.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum UsageKind {
    /// Instance-hours on a named configuration.
    Compute {
        /// Instance configuration name.
        instance: String,
        /// Number of identical instances (the paper's `nbIC`).
        count: u32,
        /// Total on-time across the period for this entry.
        time: Hours,
    },
    /// Outbound transfer volume.
    TransferOut {
        /// Volume transferred out of the cloud.
        volume: Gb,
    },
    /// Inbound transfer volume.
    TransferIn {
        /// Volume transferred into the cloud.
        volume: Gb,
    },
    /// A storage timeline over the billing horizon.
    Storage {
        /// Size-over-time record.
        timeline: StorageTimeline,
    },
}

/// A usage record with a human-readable label ("query workload",
/// "materialize V1", …).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LineItem {
    /// What the charge is for.
    pub label: String,
    /// The recorded usage.
    pub usage: UsageKind,
}

/// Accumulates usage during a simulated billing period.
#[derive(Debug, Clone, Default)]
pub struct UsageLedger {
    items: Vec<LineItem>,
}

impl UsageLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        UsageLedger::default()
    }

    /// Records compute usage.
    pub fn record_compute(
        &mut self,
        label: impl Into<String>,
        instance: impl Into<String>,
        count: u32,
        time: Hours,
    ) {
        self.items.push(LineItem {
            label: label.into(),
            usage: UsageKind::Compute {
                instance: instance.into(),
                count,
                time,
            },
        });
    }

    /// Records outbound transfer. Outbound volumes are *aggregated* before
    /// pricing (tier schedules apply to the period total).
    pub fn record_transfer_out(&mut self, label: impl Into<String>, volume: Gb) {
        self.items.push(LineItem {
            label: label.into(),
            usage: UsageKind::TransferOut { volume },
        });
    }

    /// Records inbound transfer.
    pub fn record_transfer_in(&mut self, label: impl Into<String>, volume: Gb) {
        self.items.push(LineItem {
            label: label.into(),
            usage: UsageKind::TransferIn { volume },
        });
    }

    /// Records a storage timeline.
    pub fn record_storage(&mut self, label: impl Into<String>, timeline: StorageTimeline) {
        self.items.push(LineItem {
            label: label.into(),
            usage: UsageKind::Storage { timeline },
        });
    }

    /// Prices the ledger under `policy` and produces an invoice.
    ///
    /// Compute and storage items are priced independently; transfer volumes
    /// are summed per direction and priced once, with the total charge
    /// reported on a synthetic aggregate line.
    pub fn invoice(&self, policy: &PricingPolicy) -> Result<Invoice, PricingError> {
        let mut lines = Vec::with_capacity(self.items.len() + 2);
        let mut compute_total = Money::ZERO;
        let mut storage_total = Money::ZERO;
        let mut out_volume = Gb::ZERO;
        let mut in_volume = Gb::ZERO;

        for item in &self.items {
            match &item.usage {
                UsageKind::Compute {
                    instance,
                    count,
                    time,
                } => {
                    let inst = policy.compute.instance(instance)?;
                    let amount = policy.compute.cost(*time, inst, *count);
                    compute_total += amount;
                    lines.push(InvoiceLine {
                        label: item.label.clone(),
                        detail: format!("{count} × {instance} × {time}"),
                        amount,
                    });
                }
                UsageKind::Storage { timeline } => {
                    let amount = policy.storage.period_cost(timeline);
                    storage_total += amount;
                    lines.push(InvoiceLine {
                        label: item.label.clone(),
                        detail: format!(
                            "{:.1} GB-months over {}",
                            timeline.gb_months(),
                            timeline.horizon()
                        ),
                        amount,
                    });
                }
                UsageKind::TransferOut { volume } => {
                    out_volume += *volume;
                }
                UsageKind::TransferIn { volume } => {
                    in_volume += *volume;
                }
            }
        }

        let transfer_out = policy.transfer.outbound_cost(out_volume);
        let transfer_in = policy.transfer.inbound_cost(in_volume);
        if out_volume > Gb::ZERO {
            lines.push(InvoiceLine {
                label: "outbound transfer (aggregated)".to_string(),
                detail: format!("{out_volume}"),
                amount: transfer_out,
            });
        }
        if in_volume > Gb::ZERO {
            lines.push(InvoiceLine {
                label: "inbound transfer (aggregated)".to_string(),
                detail: format!("{in_volume}"),
                amount: transfer_in,
            });
        }

        Ok(Invoice {
            provider: policy.name.clone(),
            lines,
            compute: compute_total,
            storage: storage_total,
            transfer: transfer_out + transfer_in,
        })
    }
}

/// One priced line of an [`Invoice`].
#[derive(Debug, Clone, PartialEq)]
pub struct InvoiceLine {
    /// What the charge is for.
    pub label: String,
    /// Quantity description.
    pub detail: String,
    /// The charge.
    pub amount: Money,
}

/// An itemized bill: the provider's view of a billing period.
#[derive(Debug, Clone, PartialEq)]
pub struct Invoice {
    /// Provider name from the pricing policy.
    pub provider: String,
    /// Priced line items.
    pub lines: Vec<InvoiceLine>,
    /// Total compute charges (the paper's `Cc`).
    pub compute: Money,
    /// Total storage charges (`Cs`).
    pub storage: Money,
    /// Total transfer charges (`Ct`).
    pub transfer: Money,
}

impl Invoice {
    /// Grand total: the paper's Formula 1, `C = Cc + Cs + Ct`.
    pub fn total(&self) -> Money {
        self.compute + self.storage + self.transfer
    }
}

impl fmt::Display for Invoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Invoice — {}", self.provider)?;
        for line in &self.lines {
            writeln!(
                f,
                "  {:<42} {:<28} {:>12}",
                line.label,
                line.detail,
                line.amount.to_string()
            )?;
        }
        writeln!(f, "  {:-<84}", "")?;
        writeln!(f, "  compute  {:>10}", self.compute.to_string())?;
        writeln!(f, "  storage  {:>10}", self.storage.to_string())?;
        writeln!(f, "  transfer {:>10}", self.transfer.to_string())?;
        write!(f, "  TOTAL    {:>10}", self.total().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use mv_units::Months;

    #[test]
    fn invoice_reproduces_running_example_components() {
        let aws = presets::aws_2012();
        let mut ledger = UsageLedger::new();
        ledger.record_compute("workload", "small", 2, Hours::new(50.0));
        ledger.record_transfer_out("query results", Gb::new(10.0));
        ledger.record_storage(
            "dataset",
            StorageTimeline::new(Gb::new(550.0), Months::new(12.0)),
        );

        let invoice = ledger.invoice(&aws).unwrap();
        assert_eq!(invoice.compute, Money::from_dollars(12));
        assert_eq!(invoice.transfer, Money::from_dollars_str("1.08").unwrap());
        assert_eq!(invoice.storage, Money::from_dollars(924));
        assert_eq!(invoice.total(), Money::from_dollars_str("937.08").unwrap());
    }

    #[test]
    fn outbound_volumes_aggregate_before_tiering() {
        let aws = presets::aws_2012();
        // Two 0.6 GB results: separately each is under the free first GB,
        // aggregated they bill (1.2 - 1.0) GB.
        let mut ledger = UsageLedger::new();
        ledger.record_transfer_out("r1", Gb::new(0.6));
        ledger.record_transfer_out("r2", Gb::new(0.6));
        let invoice = ledger.invoice(&aws).unwrap();
        assert_eq!(
            invoice.transfer,
            Money::from_dollars_str("0.12").unwrap().scale(0.2)
        );
    }

    #[test]
    fn unknown_instance_fails_invoicing() {
        let aws = presets::aws_2012();
        let mut ledger = UsageLedger::new();
        ledger.record_compute("workload", "mainframe", 1, Hours::new(1.0));
        assert!(matches!(
            ledger.invoice(&aws),
            Err(PricingError::UnknownInstance { .. })
        ));
    }

    #[test]
    fn invoice_renders() {
        let aws = presets::aws_2012();
        let mut ledger = UsageLedger::new();
        ledger.record_compute("workload", "small", 2, Hours::new(50.0));
        ledger.record_transfer_out("results", Gb::new(10.0));
        let text = ledger.invoice(&aws).unwrap().to_string();
        assert!(text.contains("workload"));
        assert!(text.contains("$12.00"));
        assert!(text.contains("TOTAL"));
    }

    #[test]
    fn empty_ledger_bills_zero() {
        let aws = presets::aws_2012();
        let invoice = UsageLedger::new().invoice(&aws).unwrap();
        assert_eq!(invoice.total(), Money::ZERO);
        assert!(invoice.lines.is_empty());
    }
}
