//! The two lines `benches/micro.rs`'s timer prints: a timed id is one
//! JSON object with the seven fields `BENCH_micro.json` records, and the
//! `-- --test` smoke mode runs the body exactly once.

#[path = "../benches/timer/mod.rs"]
#[allow(dead_code)]
mod timer;

use mvcloud::json::Json;

#[test]
fn a_timed_id_prints_one_parseable_record() {
    let mut calls = 0u64;
    let line = timer::report_line(false, "timer", "count/x1", &mut || calls += 1);
    assert!(!line.contains('\n'), "{line}");
    let record = Json::parse(&line).expect("the line is one JSON object");
    assert_eq!(record.get("group").and_then(Json::as_str), Some("timer"));
    assert_eq!(record.get("id").and_then(Json::as_str), Some("count/x1"));
    let ns = |key| record.get(key).and_then(Json::as_f64).expect(key);
    assert!(0.0 < ns("best_ns") && ns("best_ns") <= ns("median_ns"));
    assert!(ns("mean_ns") >= ns("best_ns"));
    let count = |key| record.get(key).and_then(Json::as_u64).expect(key);
    assert!((20..=160).contains(&count("samples")));
    // Every batch — calibration, warm-up, samples — is `iters` calls or,
    // while calibrating, fewer.
    assert!(count("iters") >= 1 && calls >= count("samples") * count("iters"));
}

#[test]
fn smoke_mode_runs_the_body_exactly_once() {
    let mut calls = 0u64;
    let line = timer::report_line(true, "timer", "count/x1", &mut || calls += 1);
    assert_eq!(calls, 1);
    assert_eq!(line.split_whitespace().nth(1), Some("timer/count/x1"));
    assert!(
        line.starts_with("bench ") && line.ends_with("smoke ok"),
        "{line}"
    );
}
