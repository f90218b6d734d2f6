//! `BENCH_micro.json` holds a recorded baseline for every id
//! `benches/micro.rs` times, and for nothing else: a group added
//! without a full run recorded beside it — or deleted with its records
//! left behind — fails here. To re-record, run
//! `cargo bench -p mv-bench --bench micro | grep '^{'` and replace the
//! `records` lines (and `commit` / `nproc` / `rustc`) with what it
//! printed.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use mvcloud::json::Json;

#[test]
fn every_micro_id_has_one_recorded_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("BENCH_micro.json")).expect("BENCH_micro.json");
    let ledger = Json::parse(&text).expect("BENCH_micro.json parses");
    for key in ["commit", "rustc"] {
        let value = ledger.get(key).and_then(Json::as_str);
        assert!(value.is_some_and(|v| !v.is_empty()), "{key} is recorded");
    }
    assert!(ledger.get("nproc").and_then(Json::as_u64) >= Some(1));

    let mut recorded = BTreeSet::new();
    for record in ledger
        .get("records")
        .and_then(Json::as_array)
        .expect("records")
    {
        let text = |key| record.get(key).and_then(Json::as_str).expect(key);
        let label = format!("{}/{}", text("group"), text("id"));
        for key in ["median_ns", "mean_ns", "best_ns"] {
            let ns = record.get(key).and_then(Json::as_f64);
            assert!(ns.is_some_and(|ns| ns > 0.0), "{label}: {key}");
        }
        for key in ["samples", "iters"] {
            assert!(
                record.get(key).and_then(Json::as_u64) >= Some(1),
                "{label}: {key}"
            );
        }
        assert!(recorded.insert(label.clone()), "{label} is recorded twice");
    }

    // The ids the target has today, from its smoke mode.
    let out = Command::new(env!("CARGO"))
        .args([
            "bench",
            "--offline",
            "-p",
            "mv-bench",
            "--bench",
            "micro",
            "--",
            "--test",
        ])
        .current_dir(&root)
        .output()
        .expect("spawn cargo bench");
    assert!(
        out.status.success(),
        "cargo bench --bench micro -- --test: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let listed: BTreeSet<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|line| line.starts_with("bench ") && line.ends_with("smoke ok"))
        .filter_map(|line| line.split_whitespace().nth(1).map(str::to_string))
        .collect();
    assert!(!listed.is_empty(), "the smoke run listed no id");
    assert_eq!(recorded, listed, "recorded ids vs `micro -- --test`");
}
