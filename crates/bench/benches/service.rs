//! The resident advisor's restart and re-plan economics.
//!
//! The service exists to avoid two cold costs, and the groups measure
//! exactly those offsets:
//!
//! 1. **startup** — `catalog_reload` (parse the spilled JSON, rebuild
//!    the problem, canonical solve) vs `cold_build` (measure every
//!    candidate through the engine first). The gap is the measurement
//!    pipeline the persistent catalog amortizes away.
//! 2. **replan** — `drift_resolve` (warm: retarget the standing
//!    evaluator, greedy fill + polish over live answer tables) vs
//!    `cold_solve` (build a fresh evaluator for the re-costed problem
//!    first). The gap is the evaluator rebuild a drift re-solve never
//!    pays.
//! 3. **ingest** — the per-event cost of the high-water-mark fold and
//!    drift check, the service's steady-state hot path.
//! 4. **whatif** — a two-toggle what-if, and the bare fork under it, on
//!    the resident shape (n = 256 / m = 4 096): the sales r1000 / q3
//!    service of the other groups has 15 candidates over 3 queries,
//!    where a fork copies a few hundred bytes whatever it shares.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use mv_bench::shapes;
use mvcloud::select::{local_search, IncrementalEvaluator, SelectionProblem};
use mvcloud::{
    sales_domain, Advisor, AdvisorConfig, AdvisorService, CandidateCatalog, QueryEvent, Scenario,
    ServiceConfig,
};

const ROWS: usize = 1_000;
const QUERIES: usize = 3;

fn advisor() -> Advisor {
    Advisor::build(
        sales_domain(ROWS, QUERIES, 1.0, 42),
        AdvisorConfig::default(),
    )
    .expect("advisor builds")
}

fn service_config() -> ServiceConfig {
    ServiceConfig::new(Scenario::tradeoff_normalized(0.5))
}

fn skew(timestamp: u64, n: u64) -> Vec<QueryEvent> {
    (0..n)
        .map(|i| QueryEvent {
            timestamp,
            query_id: i + 1,
            query: "Q1".to_string(),
        })
        .collect()
}

fn bench_startup(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("mv-bench-service-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench dir");
    let path = dir.join("catalog.json");
    let svc = AdvisorService::from_advisor(&advisor(), service_config()).expect("service");
    svc.spill(&path).expect("spill");

    let mut group = c.benchmark_group("service/startup_sales_r1000_q3");
    group.bench_function("catalog_reload", |b| {
        b.iter(|| {
            let svc = AdvisorService::open(&path, AdvisorConfig::default(), service_config())
                .expect("open");
            black_box(svc.plan().time)
        })
    });
    group.bench_function("cold_build", |b| {
        b.iter(|| {
            let svc = AdvisorService::from_advisor(&advisor(), service_config()).expect("service");
            black_box(svc.plan().time)
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_replan(c: &mut Criterion) {
    let mut svc = AdvisorService::from_advisor(&advisor(), service_config()).expect("service");
    // Stand at a drifted stream position so every re-solve re-costs.
    svc.ingest(&skew(1, 40)).expect("ingest");
    let config = service_config();
    let baseline_problem: SelectionProblem = {
        let fork = svc.what_if(|ev| ev.fork());
        fork.into_problem()
    };

    let mut group = c.benchmark_group("service/replan_sales_r1000_q3");
    group.bench_function("drift_resolve", |b| {
        b.iter(|| {
            let plan = svc.resolve().expect("resolve");
            black_box(plan.time)
        })
    });
    group.bench_function("cold_solve", |b| {
        b.iter(|| {
            // What the warm path avoids: a fresh evaluator build for
            // the same re-costed problem, then the same canonical solve.
            let mut ev = IncrementalEvaluator::from_problem(baseline_problem.clone());
            let baseline = ev.problem().baseline();
            local_search::greedy_fill(&mut ev, config.scenario, &baseline);
            let plan =
                local_search::improve(&mut ev, config.scenario, &baseline, config.resolve_moves);
            black_box(plan.time)
        })
    });
    group.finish();
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/ingest_sales_r1000_q3");
    group.bench_function("fold_1000_events", |b| {
        // High drift threshold: time the pure fold + drift check, not
        // re-solves.
        let mut config = service_config();
        config.drift_threshold = 2.0;
        let mut svc = AdvisorService::from_advisor(&advisor(), config).expect("service");
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let out = svc.ingest(&skew(t, 1_000)).expect("ingest");
            black_box(out.accepted)
        })
    });
    group.finish();
}

fn bench_whatif(c: &mut Criterion) {
    let problem = shapes::scale_problem(&shapes::resident_shape());
    let catalog = CandidateCatalog::new(
        problem.model().context().workload.clone(),
        problem.candidates().to_vec(),
    );
    // A short polish: at n = 256 each accepted move scans an O(n²)
    // swap neighbourhood, and the plan is only the what-ifs' start.
    let config = ServiceConfig {
        resolve_moves: 2,
        ..service_config()
    };
    let svc =
        AdvisorService::from_catalog(catalog, AdvisorConfig::default(), config).expect("service");
    let n = problem.len();
    let mut group = c.benchmark_group("service/whatif_n256_m4096");
    group.bench_function("what_if_toggle_2", |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 7) % n;
            black_box(svc.what_if_toggle(&[k, (k + 101) % n]).time)
        })
    });
    group.bench_function("fork_only", |b| b.iter(|| svc.what_if(|_| ())));
    group.finish();
}

fn bench_catalog_json(c: &mut Criterion) {
    let svc = AdvisorService::from_advisor(&advisor(), service_config()).expect("service");
    let text = svc.catalog().to_json().render_pretty();
    let mut group = c.benchmark_group("service/catalog_json");
    group.bench_function("render", |b| {
        b.iter(|| black_box(svc.catalog().to_json().render_pretty().len()))
    });
    group.bench_function("parse", |b| {
        b.iter(|| {
            let parsed = mvcloud::json::Json::parse(black_box(&text)).expect("parse");
            black_box(CandidateCatalog::from_json(&parsed).expect("decode").hwm)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = shapes::fast_config();
    targets = bench_startup, bench_replan, bench_ingest, bench_whatif, bench_catalog_json
}
criterion_main!(benches);
