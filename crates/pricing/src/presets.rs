//! Provider pricing presets.
//!
//! [`aws_2012`] encodes the paper's Tables 2–4 exactly. [`intro_fictitious`]
//! encodes the simpler pricing used by the paper's introduction ($0.10 per
//! GB-month, $0.24 per hour). The remaining presets are fictional providers
//! with deliberately different shapes — cheaper storage / dearer compute and
//! vice versa — used by the multi-CSP comparison (the paper's first
//! future-work item).

use mv_units::{Money, GB_PER_TB};

use crate::{
    ComputePricing, InstanceCatalog, InstanceType, PricingPolicy, StoragePricing, Tier, TierMode,
    TierSchedule, TransferPricing,
};

fn dollars(s: &str) -> Money {
    Money::from_dollars_str(s).expect("preset literal")
}

/// The paper's AWS pricing (Tables 2–4, early 2012).
///
/// * Table 2 — EC2: micro $0.03/h, small $0.12/h, large $0.48/h,
///   extra-large $0.96/h; per-started-hour billing on the total.
/// * Table 3 — bandwidth: inbound free; outbound first 1 GB free, up to
///   10 TB $0.12/GB, next 40 TB $0.09/GB, next 100 TB $0.07/GB, beyond
///   $0.05/GB; graduated (the paper's Example 1 computes `(10−1)×0.12`).
/// * Table 4 — S3: first 1 TB $0.14/GB-month, next 49 TB $0.125, next
///   450 TB $0.11, beyond $0.095; flat-by-volume (the paper's Example 3
///   charges all 2 560 GB at $0.125).
pub fn aws_2012() -> PricingPolicy {
    let catalog = InstanceCatalog::new(vec![
        InstanceType::new("micro", 0.613, 0.25, 0.0, dollars("0.03")),
        InstanceType::new("small", 1.7, 1.0, 160.0, dollars("0.12")),
        InstanceType::new("large", 7.5, 4.0, 850.0, dollars("0.48")),
        InstanceType::new("xlarge", 15.0, 8.0, 1690.0, dollars("0.96")),
    ])
    .expect("aws catalog is valid");

    let outbound = TierSchedule::new(
        vec![
            Tier::upto_gb(1.0, Money::ZERO),
            Tier::upto_gb(10.0 * GB_PER_TB, dollars("0.12")),
            Tier::upto_gb(50.0 * GB_PER_TB, dollars("0.09")),
            Tier::upto_gb(150.0 * GB_PER_TB, dollars("0.07")),
            Tier::rest(dollars("0.05")),
        ],
        TierMode::Graduated,
    )
    .expect("aws outbound schedule is valid");

    let storage = TierSchedule::new(
        vec![
            Tier::upto_gb(GB_PER_TB, dollars("0.14")),
            Tier::upto_gb(50.0 * GB_PER_TB, dollars("0.125")),
            Tier::upto_gb(500.0 * GB_PER_TB, dollars("0.11")),
            Tier::rest(dollars("0.095")),
        ],
        TierMode::FlatByVolume,
    )
    .expect("aws storage schedule is valid");

    PricingPolicy::new(
        "aws-2012",
        ComputePricing::paper_rules(catalog),
        TransferPricing::free_inbound(outbound),
        StoragePricing::new(storage),
    )
}

/// The simplified pricing of the paper's introduction: one instance type at
/// $0.24/h and flat $0.10/GB-month storage, free transfer. Reproduces the
/// "$62 without views vs $64.60 with views" opening example.
pub fn intro_fictitious() -> PricingPolicy {
    let catalog = InstanceCatalog::new(vec![InstanceType::new(
        "std",
        4.0,
        2.0,
        100.0,
        dollars("0.24"),
    )])
    .expect("intro catalog is valid");

    PricingPolicy::new(
        "intro-fictitious",
        ComputePricing::paper_rules(catalog),
        TransferPricing::free_inbound(TierSchedule::free()),
        StoragePricing::new(TierSchedule::flat(dollars("0.10"))),
    )
}

/// Fictional provider "Cumulus": compute ~35 % cheaper than AWS-2012 but
/// storage ~50 % dearer, graduated everywhere, per-minute billing. Makes
/// view materialization *more* attractive on the compute side and less on
/// the storage side — a useful stress direction for the selector.
pub fn cumulus() -> PricingPolicy {
    let catalog = InstanceCatalog::new(vec![
        InstanceType::new("c.nano", 0.5, 0.25, 0.0, dollars("0.02")),
        InstanceType::new("c.std", 2.0, 1.0, 120.0, dollars("0.078")),
        InstanceType::new("c.big", 8.0, 4.0, 700.0, dollars("0.312")),
    ])
    .expect("cumulus catalog is valid");

    let mut compute = ComputePricing::paper_rules(catalog);
    compute.rounding = crate::BillingRounding::PerStartedMinute;

    let outbound = TierSchedule::new(
        vec![
            Tier::upto_gb(5.0, Money::ZERO),
            Tier::upto_gb(20.0 * GB_PER_TB, dollars("0.10")),
            Tier::rest(dollars("0.06")),
        ],
        TierMode::Graduated,
    )
    .expect("cumulus outbound schedule is valid");

    let storage = TierSchedule::new(
        vec![
            Tier::upto_gb(GB_PER_TB, dollars("0.21")),
            Tier::upto_gb(100.0 * GB_PER_TB, dollars("0.19")),
            Tier::rest(dollars("0.16")),
        ],
        TierMode::Graduated,
    )
    .expect("cumulus storage schedule is valid");

    PricingPolicy::new(
        "cumulus",
        compute,
        TransferPricing::free_inbound(outbound),
        StoragePricing::new(storage),
    )
}

/// Fictional provider "Stratus": very cheap storage, expensive compute and
/// egress. Tilts the optimum toward materializing aggressively (storage is
/// nearly free) while punishing large result transfers.
pub fn stratus() -> PricingPolicy {
    let catalog = InstanceCatalog::new(vec![
        InstanceType::new("s1", 1.0, 0.5, 40.0, dollars("0.11")),
        InstanceType::new("s2", 4.0, 2.0, 160.0, dollars("0.44")),
        InstanceType::new("s4", 16.0, 8.0, 640.0, dollars("1.76")),
    ])
    .expect("stratus catalog is valid");

    let outbound = TierSchedule::new(
        vec![Tier::upto_gb(1.0, Money::ZERO), Tier::rest(dollars("0.19"))],
        TierMode::Graduated,
    )
    .expect("stratus outbound schedule is valid");

    let storage = TierSchedule::new(
        vec![
            Tier::upto_gb(10.0 * GB_PER_TB, dollars("0.04")),
            Tier::rest(dollars("0.03")),
        ],
        TierMode::FlatByVolume,
    )
    .expect("stratus storage schedule is valid");

    PricingPolicy::new(
        "stratus",
        ComputePricing::paper_rules(catalog),
        TransferPricing::free_inbound(outbound),
        StoragePricing::new(storage),
    )
}

/// A deliberately boring single-rate provider: $0.10/h compute, $0.10/GB
/// egress, $0.10/GB-month storage, exact (unrounded) billing. Useful as a
/// neutral baseline in tests because every cost is linear.
pub fn flat_rate() -> PricingPolicy {
    let catalog = InstanceCatalog::new(vec![InstanceType::new(
        "node",
        4.0,
        1.0,
        100.0,
        dollars("0.10"),
    )])
    .expect("flat catalog is valid");

    let mut compute = ComputePricing::paper_rules(catalog);
    compute.rounding = crate::BillingRounding::Exact;

    PricingPolicy::new(
        "flat-rate",
        compute,
        TransferPricing::free_inbound(TierSchedule::flat(dollars("0.10"))),
        StoragePricing::new(TierSchedule::flat(dollars("0.10"))),
    )
}

/// All presets, for iteration in comparison examples and tests.
pub fn all() -> Vec<PricingPolicy> {
    vec![
        aws_2012(),
        intro_fictitious(),
        cumulus(),
        stratus(),
        flat_rate(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_units::{Gb, Hours, Months};

    #[test]
    fn table2_ec2_prices() {
        let aws = aws_2012();
        let prices: Vec<(String, Money)> = aws
            .compute
            .catalog
            .all()
            .iter()
            .map(|i| (i.name.clone(), i.hourly))
            .collect();
        assert_eq!(
            prices,
            vec![
                ("micro".to_string(), dollars("0.03")),
                ("small".to_string(), dollars("0.12")),
                ("large".to_string(), dollars("0.48")),
                ("xlarge".to_string(), dollars("0.96")),
            ]
        );
    }

    #[test]
    fn table3_bandwidth_examples() {
        let aws = aws_2012();
        assert_eq!(aws.transfer.outbound_cost(Gb::new(1.0)), Money::ZERO);
        assert_eq!(aws.transfer.outbound_cost(Gb::new(10.0)), dollars("1.08"));
        assert!(aws.transfer.inbound_is_free());
    }

    #[test]
    fn table4_storage_examples() {
        let aws = aws_2012();
        // 500 GB in the first bracket at $0.14 = $70/month (Section 2.2).
        assert_eq!(
            aws.storage.monthly_cost(Gb::new(500.0)),
            Money::from_dollars(70)
        );
        // 550 GB (with views) = $77/month.
        assert_eq!(
            aws.storage.monthly_cost(Gb::new(550.0)),
            Money::from_dollars(77)
        );
    }

    #[test]
    fn intro_example_costs() {
        let intro = intro_fictitious();
        let std = intro.compute.instance("std").unwrap();
        // $50 storage + $12 compute = $62 without views.
        let storage = intro.storage.cost(Gb::new(500.0), Months::new(1.0));
        let compute = intro.compute.cost(Hours::new(50.0), std, 1);
        assert_eq!(storage + compute, Money::from_dollars(62));
        // $55 + $9.6 = $64.60 with views.
        let storage_v = intro.storage.cost(Gb::new(550.0), Months::new(1.0));
        let compute_v = intro.compute.cost(Hours::new(40.0), std, 1);
        assert_eq!(
            storage_v + compute_v,
            Money::from_dollars_str("64.6").unwrap()
        );
    }

    #[test]
    fn all_presets_are_wellformed() {
        for p in all() {
            assert!(!p.compute.catalog.all().is_empty(), "{}", p.name);
            // Bigger transfers never cost less: every outbound sheet is
            // graduated.
            let c1 = p.transfer.outbound_cost(Gb::new(10.0));
            let c2 = p.transfer.outbound_cost(Gb::new(100.0));
            assert!(c2 >= c1, "{}: outbound pricing not monotone", p.name);
            // Storage never costs less for more volume inside one
            // bracket. Across a threshold a flat-by-volume sheet reprices
            // the whole volume, and may drop (below).
            let sheet = &p.storage.monthly;
            let mut start = 0.0;
            for (i, tier) in sheet.tiers().iter().enumerate() {
                let end = tier.upto.map_or(2.0 * start + GB_PER_TB, Gb::value);
                let volumes: Vec<Gb> = [1e-3, 0.25, 0.5, 0.75, 0.999]
                    .iter()
                    .map(|f| Gb::new(start + f * (end - start)))
                    .collect();
                assert!(
                    sheet.monotone_between(volumes[0], volumes[4]),
                    "{}: bracket {i}",
                    p.name
                );
                for pair in volumes.windows(2) {
                    assert!(
                        sheet.cost_for(pair[0]) <= sheet.cost_for(pair[1]),
                        "{}: storage falls inside bracket {i} at {:?}",
                        p.name,
                        pair[1]
                    );
                }
                start = end;
            }
        }
        // The drop at the first flat-by-volume threshold: AWS-2012 storage
        // bills 1 023 GB above 1 025 GB, Stratus 10 TB less 1 GB above
        // 10 TB plus 1 GB.
        let aws = aws_2012().storage;
        assert_eq!(aws.monthly_cost(Gb::new(1023.0)), dollars("143.22"));
        assert_eq!(aws.monthly_cost(Gb::new(1025.0)), dollars("128.125"));
        assert!(!aws
            .monthly
            .monotone_between(Gb::new(1023.0), Gb::new(1025.0)));
        let stratus = stratus().storage.monthly;
        let (below, above) = (
            Gb::new(10.0 * GB_PER_TB - 1.0),
            Gb::new(10.0 * GB_PER_TB + 1.0),
        );
        assert!(stratus.cost_for(below) > stratus.cost_for(above));
        assert!(!stratus.monotone_between(below, above));
    }

    #[test]
    fn presets_have_distinct_names() {
        let names: Vec<String> = all().into_iter().map(|p| p.name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
