//! Aggregates that leave `i64` are typed errors, never panics or wraps.
//!
//! Input arrives from outside the program (`csv::table_from_csv`), so a
//! fact table holding values near `i64::MAX` is legal input: both places a
//! `SUM`/`COUNT` grows — the scan that aggregates rows and the refresh
//! that merges a delta into stored totals — must report it.

use mv_engine::csv::table_from_csv;
use mv_engine::{
    AggQuery, AggSpec, DataType, EngineError, Field, MaterializedView, Schema, Table, Value,
    ViewDefinition,
};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Str),
        Field::new("v", DataType::Int),
    ])
    .unwrap()
}

fn csv(rows: &[(&str, i64)]) -> Table {
    let mut text = String::from("k,v");
    for (k, v) in rows {
        text.push_str(&format!("\n{k},{v}"));
    }
    table_from_csv(&text, &schema()).unwrap()
}

fn overflow(aggregate: &str) -> EngineError {
    EngineError::AggregateOverflow {
        aggregate: aggregate.to_string(),
    }
}

#[test]
fn scan_reports_a_sum_past_i64() {
    let table = csv(&[("a", i64::MAX), ("b", 5), ("a", 1), ("b", -7)]);
    let sum = AggQuery::new("q", &["k"], vec![AggSpec::count(), AggSpec::sum("v")]);
    for threads in [1, 2, 4] {
        assert_eq!(
            sum.execute_with_threads(&table, threads).unwrap_err(),
            overflow("sum_v"),
            "{threads} threads"
        );
    }
    // Three minima: their SUM is out of range, their AVG is not.
    let table = csv(&[("a", i64::MIN), ("a", i64::MIN), ("a", i64::MIN)]);
    let sum = AggQuery::new("q", &[], vec![AggSpec::sum("v")]);
    assert_eq!(sum.execute(&table).unwrap_err(), overflow("sum_v"));
    let avg = AggQuery::new("q", &[], vec![AggSpec::avg("v")]);
    let (out, _) = avg.execute(&table).unwrap();
    assert_eq!(out.row(0), vec![Value::Int(i64::MIN)]);
}

#[test]
fn a_total_that_fits_is_not_an_error_whatever_the_row_order() {
    // The running sum leaves i64 after two rows and comes back: only the
    // total decides, so serial and parallel scans agree.
    let table = csv(&[
        ("a", i64::MAX),
        ("a", i64::MAX),
        ("a", -i64::MAX),
        ("a", -1),
    ]);
    let q = AggQuery::new("q", &["k"], vec![AggSpec::sum("v")]);
    for threads in [1, 2, 4] {
        let (out, _) = q.execute_with_threads(&table, threads).unwrap();
        assert_eq!(out.row(0), vec![Value::from("a"), Value::Int(i64::MAX - 1)]);
    }
}

#[test]
fn refresh_merge_reports_a_stored_sum_past_i64_and_writes_nothing() {
    let base = csv(&[("a", i64::MAX - 10), ("b", 1)]);
    let def = ViewDefinition::canonical("v", &["k"], &[AggSpec::sum("v"), AggSpec::max("v")]);
    let mut view = MaterializedView::materialize(def, &base).unwrap();
    let before = view.clone();

    // "b" merges fine and "c" is new, but "a" overflows: all or nothing.
    let delta = csv(&[("b", 4), ("c", 2), ("a", 11)]);
    assert_eq!(
        view.refresh_incremental(&delta).unwrap_err(),
        overflow("sum_v")
    );
    assert_eq!(view, before);

    // One short of the edge still merges.
    let delta = csv(&[("b", 4), ("c", 2), ("a", 10)]);
    view.refresh_incremental(&delta).unwrap();
    assert_eq!(
        view.data().to_rows(),
        vec![
            vec![
                Value::from("a"),
                i64::MAX.into(),
                (i64::MAX - 10).into(),
                2.into()
            ],
            vec![Value::from("b"), 5.into(), 4.into(), 2.into()],
            vec![Value::from("c"), 2.into(), 2.into(), 1.into()],
        ]
    );
    // A full rebuild over the same rows hits the same wall.
    let mut all = csv(&[("a", i64::MAX - 10), ("b", 1)]);
    all.append(&csv(&[("a", 11)])).unwrap();
    assert_eq!(view.refresh_full(&all).unwrap_err(), overflow("sum_v"));
}
