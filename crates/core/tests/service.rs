//! Resident-service durability and isolation contracts.
//!
//! 1. **Bit-identical restart** — spilling the catalog and reopening
//!    the service reproduces the resident plan's report byte for byte
//!    (the canonical solve is deterministic in the catalog + configs).
//! 2. **Crash recovery** — a crash mid-spill leaves only the atomic
//!    temp file behind; reload returns the last durably-written state,
//!    with the high-water mark not advanced past it, so replaying the
//!    tail of the stream reconverges.
//! 3. **Snapshot isolation** — concurrent what-if probes (proptest,
//!    real threads) never perturb the resident plan.

use std::fs;
use std::path::Path;

use mvcloud::select::IncrementalEvaluator;
use mvcloud::{
    sales_domain, Advisor, AdvisorConfig, AdvisorService, CandidateCatalog, QueryEvent, Scenario,
    ServiceConfig,
};
use proptest::prelude::*;

fn service(rows: usize, n_queries: usize, seed: u64) -> AdvisorService {
    let domain = sales_domain(rows, n_queries, 1.0, seed);
    let advisor = Advisor::build(domain, AdvisorConfig::default()).expect("build");
    AdvisorService::from_advisor(
        &advisor,
        ServiceConfig::new(Scenario::tradeoff_normalized(0.5)),
    )
    .expect("service")
}

fn skew_events(timestamp: u64, n: u64, query: &str) -> Vec<QueryEvent> {
    (0..n)
        .map(|i| QueryEvent {
            timestamp,
            query_id: i + 1,
            query: query.to_string(),
        })
        .collect()
}

fn reopen(path: &Path) -> AdvisorService {
    AdvisorService::open(
        path,
        AdvisorConfig::default(),
        ServiceConfig::new(Scenario::tradeoff_normalized(0.5)),
    )
    .expect("reopen")
}

#[test]
fn restart_reproduces_the_plan_report_bit_identically() {
    let dir = std::env::temp_dir().join(format!("mv-service-restart-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.json");

    let mut svc = service(600, 3, 11);
    // Drive skewed traffic through a drift re-solve, then spill at the
    // re-solve point — the precondition for report-identical reload.
    let out = svc.ingest(&skew_events(7, 25, "Q2")).expect("ingest");
    assert!(out.resolved, "skew must re-solve (drift {})", out.drift);
    svc.spill(&path).expect("spill");
    let before = svc.plan_report().render_pretty();

    let reloaded = reopen(&path);
    assert_eq!(
        reloaded.plan_report().render_pretty(),
        before,
        "reloaded service must render the identical plan report"
    );
    assert_eq!(reloaded.plan(), svc.plan());
    assert_eq!(reloaded.catalog(), svc.catalog());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_fresh_catalog_accepts_the_event_at_zero_zero() {
    // A fresh catalog has folded no event, so its high-water mark
    // `(0, 0)` is no event's position: the event `(0, 0)` is new, and
    // only once folded is it a replay — before a spill and after the
    // reload alike.
    let dir = std::env::temp_dir().join(format!("mv-service-origin-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.json");
    let origin = || {
        skew_events(0, 1, "Q1")
            .into_iter()
            .map(|e| QueryEvent { query_id: 0, ..e })
    };
    let counts = |svc: &AdvisorService| svc.catalog().counts().iter().sum::<u64>();

    let mut svc = service(500, 3, 5);
    let out = svc.ingest(&origin().collect::<Vec<_>>()).expect("ingest");
    assert_eq!((out.accepted, out.replayed), (1, 0), "(0, 0) is new");
    let out = svc.ingest(&origin().collect::<Vec<_>>()).expect("ingest");
    assert_eq!((out.accepted, out.replayed), (0, 1), "(0, 0) again replays");
    assert_eq!(counts(&svc), 1);

    svc.spill(&path).expect("spill");
    let mut reopened = reopen(&path);
    let mut batch: Vec<_> = origin().collect();
    batch.extend(skew_events(1, 1, "Q1"));
    let out = reopened.ingest(&batch).expect("replay");
    assert_eq!(
        (out.accepted, out.replayed),
        (1, 1),
        "reloaded, (0, 0) replays"
    );
    assert_eq!(counts(&reopened), 2);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_mid_spill_recovers_the_last_durable_state() {
    let dir = std::env::temp_dir().join(format!("mv-service-crash-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.json");

    let mut svc = service(500, 3, 3);
    svc.ingest(&skew_events(1, 5, "Q1")).expect("ingest");
    svc.spill(&path).expect("durable spill");
    let durable = svc.catalog().clone();

    // More traffic arrives, then the process dies mid-spill: the atomic
    // protocol writes a temp file first, so a crash before the rename
    // leaves the destination untouched. Simulate the torn temp file.
    svc.ingest(&skew_events(2, 9, "Q3")).expect("ingest");
    let torn = svc.catalog().to_json().render_pretty();
    fs::write(dir.join("catalog.json.tmp.99999"), &torn[..torn.len() / 2]).unwrap();

    let recovered = CandidateCatalog::load(&path).expect("reload");
    assert_eq!(recovered, durable, "reload sees the last durable state");
    assert_eq!(
        recovered.hwm(),
        durable.hwm(),
        "HWM not advanced past the spill"
    );
    assert!(recovered.hwm() < svc.catalog().hwm());

    // Replaying the full stream from a reopened service reconverges:
    // the pre-spill prefix is skipped, the lost tail is re-applied.
    let mut reopened = reopen(&path);
    let mut all = skew_events(1, 5, "Q1");
    all.extend(skew_events(2, 9, "Q3"));
    let out = reopened.ingest(&all).expect("replay");
    assert_eq!(out.replayed, 5, "durable prefix is idempotent");
    assert_eq!(out.accepted, 9, "lost tail is re-applied");
    assert_eq!(reopened.catalog().counts(), svc.catalog().counts());
    assert_eq!(reopened.catalog().hwm(), svc.catalog().hwm());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn replayed_restart_converges_on_the_running_plan() {
    let dir = std::env::temp_dir().join(format!("mv-service-replay-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.json");

    // A service that spilled before traffic (cold catalog on disk).
    let mut svc = service(400, 3, 21);
    svc.spill(&path).expect("cold spill");
    let stream = skew_events(5, 30, "Q1");
    let out = svc.ingest(&stream).expect("ingest");
    assert!(out.resolved);

    // Restart from the cold catalog and replay the same stream: the
    // mark is behind, everything is accepted, and the two services
    // agree bit for bit.
    let mut restarted = reopen(&path);
    let replay = restarted.ingest(&stream).expect("replay");
    assert_eq!(replay.accepted, 30);
    assert!(replay.resolved);
    assert_eq!(restarted.plan_report().render(), svc.plan_report().render());
    fs::remove_dir_all(&dir).ok();
}

proptest! {
    // Each case builds a measured advisor; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent what-ifs run on evaluator forks: whatever they flip —
    /// or write to what a fork shares with the resident: the model
    /// (`retarget`), a price (`update_charge`) — from however many
    /// threads, and however long a fork outlives its call, the resident
    /// plan, its report and its next re-solve are those of a twin
    /// service that never ran a what-if.
    #[test]
    fn concurrent_what_ifs_never_perturb_the_resident_plan(
        seed in 0u64..1_000,
        rows in 250usize..500,
        n_queries in 2usize..5,
        toggles in prop::collection::vec(prop::collection::vec(0usize..15, 1..5), 1..8),
    ) {
        let mut svc = service(rows, n_queries, seed);
        let mut twin = service(rows, n_queries, seed);
        let before = svc.plan().clone();
        let report_before = svc.plan_report().render();
        let n = svc.catalog().candidates().len();

        let kept: Vec<IncrementalEvaluator<'static>> = std::thread::scope(|scope| {
            let handles: Vec<_> = toggles
                .iter()
                .enumerate()
                .map(|(t, spec)| {
                    let svc = &svc;
                    scope.spawn(move || {
                        let ks: Vec<usize> = spec.iter().map(|&k| k % n).collect();
                        let probe = svc.what_if_toggle(&ks);
                        // The fork starts from the resident selection, so a
                        // single distinct toggle must change it.
                        let mut distinct: Vec<usize> = ks.clone();
                        distinct.sort_unstable();
                        distinct.dedup();
                        let odd: Vec<usize> = distinct
                            .into_iter()
                            .filter(|k| ks.iter().filter(|&&x| x == *k).count() % 2 == 1)
                            .collect();
                        if !odd.is_empty() {
                            assert_ne!(probe.selection, svc.plan().selection);
                        }
                        // A what-if that writes to the shared problem — a
                        // retarget, a price splice or both, by thread;
                        // every other one hands its fork out.
                        let k = ks[0];
                        svc.what_if(|ev| {
                            if t % 3 != 1 {
                                let model = ev.problem().model();
                                let mut reweighted: Vec<f64> = model
                                    .context()
                                    .workload
                                    .iter()
                                    .map(|q| q.frequency + 1.0)
                                    .collect();
                                reweighted[0] += 3.0;
                                let model = model.with_frequencies(&reweighted);
                                ev.retarget(model);
                            }
                            if t % 3 != 0 {
                                let carried = ev.problem().candidates()[k].carried();
                                ev.update_charge(k, carried);
                            }
                            let written = ev.snapshot();
                            assert_eq!(written, ev.problem().evaluate(ev.selection()));
                            (t % 2 == 0).then(|| ev.fork())
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().expect("what-if thread"))
                .collect()
        });

        prop_assert_eq!(svc.plan(), &before);
        prop_assert_eq!(svc.plan_report().render(), report_before);
        // The resident evaluator still evaluates to the resident plan.
        prop_assert_eq!(svc.what_if(|ev| ev.snapshot()), before);
        prop_assert_eq!(svc.plan(), twin.plan());
        prop_assert_eq!(svc.plan_report().render(), twin.plan_report().render());

        // The next re-solve — with the handed-out forks still alive and
        // still sharing whatever they never wrote to.
        for s in [&mut svc, &mut twin] {
            s.ingest(&skew_events(3, 4, "Q1")).expect("ingest");
            s.resolve().expect("resolve");
        }
        prop_assert_eq!(svc.plan(), twin.plan());
        prop_assert_eq!(svc.plan_report().render(), twin.plan_report().render());
        // Nor did the re-solve reach the forks.
        for mut fork in kept {
            prop_assert_eq!(fork.snapshot(), fork.problem().evaluate(fork.selection()));
        }
    }
}
