//! Ablation A4: serial vs multi-threaded aggregation.
//!
//! The paper's compute formulas scale cost with `nbIC` identical
//! instances. This bench shows where partitioned aggregation actually
//! pays: scan-bound coarse keys (few groups, cheap merge) parallelize
//! well; merge-bound fine keys (thousands of groups per partial) do not —
//! which is why the throughput model charges scans, not merges.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mv_engine::{datagen, AggQuery, AggSpec, SalesConfig};

/// Short measurement windows keep `cargo bench --workspace` minutes,
/// not hours; absolute numbers matter less than the relative shapes.
fn fast_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}

fn bench_threads(c: &mut Criterion) {
    let table = datagen::generate_sales(&SalesConfig::with_rows(200_000));
    let cases = [
        (
            "coarse_key",
            AggQuery::new("q", &["country"], vec![AggSpec::sum("profit")]),
        ),
        (
            "fine_key",
            AggQuery::new(
                "q",
                &["year", "month", "country", "region"],
                vec![AggSpec::sum("profit"), AggSpec::avg("profit")],
            ),
        ),
    ];
    for (label, query) in cases {
        let mut group = c.benchmark_group(format!("ablation_parallel/{label}"));
        for threads in [1usize, 2, 4] {
            group.bench_with_input(BenchmarkId::from_parameter(threads), &table, |b, table| {
                b.iter(|| {
                    let (out, _) = query
                        .execute_with_threads(black_box(table), threads)
                        .unwrap();
                    black_box(out.num_rows())
                })
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_threads
}
criterion_main!(benches);
