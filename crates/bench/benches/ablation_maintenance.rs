//! Ablation A3: incremental vs full view maintenance.
//!
//! The incremental path's work is proportional to the delta, the full
//! path's to the whole base — this bench quantifies the gap that makes the
//! maintenance-cost term in the paper's Formula 12 small.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mv_engine::{datagen, AggSpec, MaterializedView, SalesConfig, ViewDefinition};

/// Short measurement windows keep `cargo bench --workspace` minutes,
/// not hours; absolute numbers matter less than the relative shapes.
fn fast_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}

fn bench_maintenance(c: &mut Criterion) {
    let cfg = SalesConfig::with_rows(20_000);
    let mut base = datagen::generate_sales(&cfg);
    let delta = datagen::generate_delta(&cfg, 400, 2011, 1); // 2% of base
    let def = ViewDefinition::canonical(
        "v",
        &["year", "month", "country"],
        &[
            AggSpec::sum("profit"),
            AggSpec::min("profit"),
            AggSpec::max("profit"),
        ],
    );
    let view = MaterializedView::materialize(def, &base).unwrap();
    base.append(&delta).unwrap();

    let mut group = c.benchmark_group("ablation_maintenance");
    group.bench_with_input(
        BenchmarkId::new("incremental", "2pct_delta"),
        &(&view, &delta),
        |b, (view, delta)| {
            b.iter(|| {
                let mut v = (*view).clone();
                let stats = v.refresh_incremental(delta).unwrap();
                black_box(stats.rows_scanned)
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("full", "rebuild"),
        &(&view, &base),
        |b, (view, base)| {
            b.iter(|| {
                let mut v = (*view).clone();
                let stats = v.refresh_full(base).unwrap();
                black_box(stats.rows_scanned)
            })
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_maintenance
}
criterion_main!(benches);
