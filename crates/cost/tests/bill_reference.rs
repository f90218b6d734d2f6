//! Property: the bill `CloudCostModel::breakdown_from_totals` assembles
//! from what `new` precomputed equals the slow references, bit for bit —
//! storage against `StoragePricing::period_cost` over a freshly built
//! [`StorageTimeline`](mv_pricing::StorageTimeline) (Formula 5), transfer
//! against Formulas 2–3 recomputed from the context — over five
//! horizons (a zero-length one among them), inbound-free and
//! inbound-charged price sheets, and after a `with_frequencies`
//! re-weighting (which must refresh the cached transfer cost). And
//! `CloudCostModel::scale_rates` against a by-name reference: the
//! context copied, the sheet scaled, the rented instance looked up by name
//! on the scaled sheet.

use mv_cost::{CloudCostModel, CostContext, QueryCharge, SelectionSet, ViewCharge};
use mv_pricing::presets;
use mv_units::{Gb, Hours, Months};
use proptest::prelude::*;

const HORIZONS: [f64; 5] = [0.0, 1.5, 4.5, 6.0, 12.0];

fn context(
    sheet: usize,
    instance: usize,
    inbound_charged: bool,
    horizon: usize,
    frequencies: &[f64],
) -> CostContext {
    let mut pricing = presets::all().swap_remove(sheet % presets::all().len());
    if inbound_charged {
        pricing.transfer.inbound = pricing.transfer.outbound.clone();
    }
    let catalog = pricing.compute.catalog.all();
    let instance = catalog[instance % catalog.len()].clone();
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
        frequencies in proptest::collection::vec(0.0f64..9.0, 1..5),
        reweighted in proptest::collection::vec(0.0f64..9.0, 4),
        extra in 0.0f64..2_000.0,
        hours in (0.0f64..90.0, 0.0f64..9.0, 0.0f64..9.0),
    ) {
        let ctx = context(sheet, 0, inbound_charged, horizon, &frequencies);
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
            // sheet charges it — the dataset, once.
            let results: Gb = ctx
                .workload
                .iter()
                .zip(frequencies)
                .map(|(q, &f)| q.result_size * f)
                .sum();
            let mut transfer = ctx.pricing.transfer.outbound_cost(results);
            if inbound_charged {
                transfer += ctx.pricing.transfer.inbound_cost(ctx.dataset_size);
            }
            prop_assert_eq!(bill.transfer, transfer);
            prop_assert_eq!(bill.compute_processing, model.compute_cost(Hours::new(hours.0)));
        }
    }

    #[test]
    fn scale_rates_matches_the_lookup_reference(
        sheet in 0usize..8,
        instance in 0usize..8,
        inbound_charged in proptest::bool::ANY,
        horizon in 0usize..HORIZONS.len(),
        frequencies in proptest::collection::vec(0.0f64..9.0, 1..5),
        first in (factor(), factor(), factor()),
        second in (factor(), factor(), factor()),
        views in proptest::collection::vec(
            (0.0f64..600.0, 0.0f64..9.0, 0.0f64..9.0, proptest::collection::vec(0.0f64..90.0, 4)),
            0..6,
        ),
        masks in proptest::collection::vec(0u64..64, 4),
    ) {
        let ctx = context(sheet, instance, inbound_charged, horizon, &frequencies);
        let base = CloudCostModel::new(ctx);
        let views: Vec<ViewCharge> = views
            .iter()
            .enumerate()
            .map(|(k, (size, build, refresh, answers))| {
                let mut v = ViewCharge::new(
                    format!("V{k}"),
                    Gb::new(*size),
                    Hours::new(*build),
                    Hours::new(*refresh),
                    frequencies.len(),
                );
                for (i, &t) in answers.iter().enumerate().take(frequencies.len()) {
                    if (i + k) % 2 == 0 {
                        v = v.answers(i, Hours::new(t));
                    }
                }
                v
            })
            .collect();
        let once = base.scale_rates(first.0, first.1, first.2);
        let once_reference = scale_rates_reference(&base, first);
        let chained = once.scale_rates(second.0, second.1, second.2);
        let chained_reference = scale_rates_reference(&once_reference, second);
        for (fast, slow) in [(&once, &once_reference), (&chained, &chained_reference)] {
            let (f, s) = (fast.context(), slow.context());
            prop_assert_eq!(&f.instance, &s.instance);
            prop_assert_eq!(&f.pricing.name, &s.pricing.name);
            prop_assert_eq!(&f.pricing.compute, &s.pricing.compute);
            prop_assert_eq!(&f.pricing.storage, &s.pricing.storage);
            prop_assert_eq!(&f.pricing.transfer, &s.pricing.transfer);
            for &mask in &masks {
                let selected = SelectionSet::from_mask(mask & ((1 << views.len()) - 1), views.len());
                prop_assert_eq!(fast.with_views(&views, &selected), slow.with_views(&views, &selected));
            }
        }
    }
}

/// A rate factor: the identity, the two fixed drifts, or any.
fn factor() -> impl Strategy<Value = f64> {
    (0usize..4, 0.0f64..3.0).prop_map(|(pick, any)| [1.0, 0.5, 1.3, any][pick])
}

/// The reference `CloudCostModel::scale_rates` is held to: the context
/// copied, the sheet scaled, and the rented instance looked up again by
/// name on the scaled sheet.
fn scale_rates_reference(model: &CloudCostModel, f: (f64, f64, f64)) -> CloudCostModel {
    let mut ctx = model.context().clone();
    ctx.pricing = ctx.pricing.scale_rates(f.0, f.1, f.2);
    ctx.instance = ctx
        .pricing
        .compute
        .instance(&ctx.instance.name)
        .unwrap()
        .clone();
    CloudCostModel::new(ctx)
}
