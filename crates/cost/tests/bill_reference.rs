//! Property: the bill `CloudCostModel::breakdown_from_totals` assembles
//! from what `new` precomputed equals the slow references, bit for bit —
//! storage against `StoragePricing::period_cost` over a freshly built
//! [`StorageTimeline`](mv_pricing::StorageTimeline) (Formula 5), transfer
//! against Formulas 2–3 recomputed from the context — over random insert
//! chronologies: same-instant inserts (coalesced), inserts at and after
//! the horizon (ignored), a zero-length horizon, inbound-free and
//! inbound-charged price sheets, and after a `with_frequencies`
//! re-weighting (which must refresh the cached transfer cost).

use mv_cost::{CloudCostModel, CostContext, QueryCharge};
use mv_pricing::presets;
use mv_units::{Gb, Hours, Months};
use proptest::prelude::*;

/// Insert times advance in multiples of this, so they land exactly on
/// each other and on the horizons below.
const QUANTUM: f64 = 1.5;
const HORIZONS: [f64; 5] = [0.0, 1.5, 4.5, 6.0, 12.0];

fn context(
    sheet: usize,
    inbound_charged: bool,
    horizon: usize,
    steps: &[(u8, f64)],
    frequencies: &[f64],
) -> CostContext {
    let mut pricing = presets::all().swap_remove(sheet % presets::all().len());
    if inbound_charged {
        pricing.transfer.inbound = pricing.transfer.outbound.clone();
    }
    let instance = pricing.compute.catalog.all()[0].clone();
    let mut at = 0.0;
    let inserts = steps
        .iter()
        .map(|&(step, added)| {
            // Step 0 is a same-instant insert.
            at += f64::from(step) * QUANTUM;
            (Months::new(at), Gb::new(added))
        })
        .collect();
    let workload = frequencies
        .iter()
        .enumerate()
        .map(|(i, &f)| QueryCharge {
            name: format!("Q{i}"),
            result_size: Gb::new(0.25 + i as f64),
            base_time: Hours::new(1.0 + i as f64),
            frequency: f,
        })
        .collect();
    CostContext {
        pricing,
        instance,
        nb_instances: 2,
        months: Months::new(HORIZONS[horizon]),
        dataset_size: Gb::new(500.0),
        inserts,
        workload,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_assembled_bill_matches_the_slow_references(
        sheet in 0usize..8,
        inbound_charged in proptest::bool::ANY,
        horizon in 0usize..HORIZONS.len(),
        steps in proptest::collection::vec((0u8..4, 0.0f64..700.0), 0..8),
        frequencies in proptest::collection::vec(0.0f64..9.0, 1..5),
        reweighted in proptest::collection::vec(0.0f64..9.0, 4),
        extra in 0.0f64..2_000.0,
        hours in (0.0f64..90.0, 0.0f64..9.0, 0.0f64..9.0),
    ) {
        let ctx = context(sheet, inbound_charged, horizon, &steps, &frequencies);
        let base = CloudCostModel::new(ctx.clone());
        let reweighted = &reweighted[..frequencies.len()];
        for (model, frequencies) in [
            (base.clone(), &frequencies[..]),
            (base.with_frequencies(reweighted), reweighted),
        ] {
            let ctx = model.context();
            let extra = Gb::new(extra);
            let bill = model.breakdown_from_totals(
                Hours::new(hours.0),
                Hours::new(hours.1),
                Hours::new(hours.2),
                extra,
            );
            prop_assert_eq!(
                bill.storage,
                ctx.pricing.storage.period_cost(&model.storage_timeline(extra))
            );
            prop_assert_eq!(bill.transfer, model.transfer_cost());
            // Formulas 2–3 by hand: outbound results, plus — where the
            // sheet charges it — the dataset and every insert, once.
            let results: Gb = ctx
                .workload
                .iter()
                .zip(frequencies)
                .map(|(q, &f)| q.result_size * f)
                .sum();
            let mut transfer = ctx.pricing.transfer.outbound_cost(results);
            if inbound_charged {
                let inserted: Gb = ctx.inserts.iter().map(|(_, g)| *g).sum();
                transfer += ctx.pricing.transfer.inbound_cost(ctx.dataset_size + inserted);
            }
            prop_assert_eq!(bill.transfer, transfer);
            prop_assert_eq!(bill.compute_processing, model.compute_cost(Hours::new(hours.0)));
        }
    }
}

#[test]
#[should_panic(expected = "context inserts are chronological")]
fn out_of_order_inserts_are_rejected_when_the_model_is_built() {
    let mut ctx = context(0, false, 4, &[], &[1.0]);
    ctx.inserts = vec![
        (Months::new(6.0), Gb::new(10.0)),
        (Months::new(3.0), Gb::new(10.0)),
    ];
    CloudCostModel::new(ctx);
}
