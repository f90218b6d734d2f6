//! Aggregates that leave `i64` are typed errors, never panics or wraps.
//!
//! Input arrives from outside the program (`csv::table_from_csv`), so a
//! fact table holding values near `i64::MAX` is legal input: both places a
//! `SUM`/`COUNT` grows — the scan that aggregates rows and the refresh
//! that merges a delta into stored totals — must report it.

use mv_engine::csv::table_from_csv;
use mv_engine::{
    AggQuery, AggSpec, DataType, EngineError, Field, MaterializedView, PlannedView, Schema, Table,
    Value, ViewDefinition,
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

/// A two-level table: `fine` groups whose sums fit, one `k` group whose
/// re-summed total does not.
fn two_level(rows: &[(&str, &str, i64)]) -> Table {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Str),
        Field::new("fine", DataType::Str),
        Field::new("v", DataType::Int),
    ])
    .unwrap();
    let mut text = String::from("k,fine,v");
    for (k, fine, v) in rows {
        text.push_str(&format!("\n{k},{fine},{v}"));
    }
    table_from_csv(&text, &schema).unwrap()
}

/// The counting pass forms no total, so a view whose from-base build
/// leaves `i64` still has a plan — the group count and footprint the
/// build would store — and only materializing it reports the overflow.
/// (The advisor counts only while Σ|measure| over the base table fits
/// `i64`, where no total can leave it.)
#[test]
fn a_counted_view_forms_no_total_and_its_materialization_reports_one_past_i64() {
    let base = two_level(&[
        ("a", "x", i64::MAX - 5),
        ("b", "x", 1),
        ("a", "y", 10),
        ("b", "y", -3),
    ]);
    let measures = [AggSpec::sum("v"), AggSpec::min("v")];
    let fine = ViewDefinition::canonical("fine", &["k", "fine"], &measures);
    let (fine, reps) = PlannedView::count(fine, &base, None).unwrap();
    assert_eq!(fine.materialize(&base).unwrap().plan(), &fine);
    let coarse = ViewDefinition::canonical("coarse", &["k"], &measures);
    let (counted, _) = PlannedView::count(coarse.clone(), &base, Some((&fine, &reps))).unwrap();
    assert_eq!(counted.num_rows(), 2);
    assert_eq!(counted.materialize(&base).unwrap_err(), overflow("sum_v"));
    assert_eq!(
        MaterializedView::materialize(coarse, &base).unwrap_err(),
        overflow("sum_v")
    );
}

/// A view's answer is the base query's result or the base query's
/// error, so the advisor may read a workload query's result rows off a
/// deriving view instead of running it on the base table: inside its
/// Σ|measure| bound neither can fail, and past it the query runs on the
/// base table.
#[test]
fn a_view_answer_fails_only_where_the_base_query_does() {
    let base = two_level(&[
        ("a", "x", i64::MAX - 5),
        ("b", "x", 1),
        ("a", "y", 10),
        ("b", "y", -3),
    ]);
    let def = ViewDefinition::canonical("fine", &["k", "fine"], &[AggSpec::sum("v")]);
    let view = MaterializedView::materialize(def, &base).unwrap();
    let aggregates = || vec![AggSpec::sum("v"), AggSpec::avg("v"), AggSpec::count()];
    for key in [&["k", "fine"][..], &["fine"], &["k"], &[]] {
        let q = AggQuery::new("q", key, aggregates());
        assert!(view.can_answer(&q).is_ok());
        let on_base = q.execute(&base).map(|(out, _)| out.to_sorted_rows());
        let on_view = view.answer(&q).map(|(out, _)| out.to_sorted_rows());
        assert_eq!(on_view, on_base, "{key:?}");
        // Both outcomes occur: per `fine` fits, per `k` and in total not.
        assert_eq!(on_base.is_err(), matches!(key, [] | ["k"]), "{key:?}");
    }
}
