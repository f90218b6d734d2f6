//! Test-only reference implementations and the differential tests that
//! hold the columnar kernel to them.
//!
//! [`hash_group_by`] is the row-at-a-time aggregation the engine shipped
//! with before the kernel in [`crate::groupby`] replaced it — a boxed
//! `[i64]` key per group, a slice hashed per row, one enum-dispatched
//! accumulator update per row and aggregate, every output string
//! re-interned — and [`refresh_incremental`] is the matching stored-table
//! merge. They are slow and obviously right, which is the point: the
//! proptests below require the kernel's output to be *equal* to theirs
//! (`Table ==`: row order, dictionary contents and codes; `ExecStats ==`),
//! not merely equivalent after sorting.

use crate::agg::AggExpr;
use crate::fx::FxHashMap;
use crate::groupby::LoweredAgg;
use crate::{
    AggFunc, Column, DataType, EngineError, ExecStats, Field, MaterializedView, Schema, Table,
};

/// Per-group accumulator state, one per lowered expression.
#[derive(Debug, Clone, Copy)]
enum AggState {
    SumCount { sum: i64, count: i64 },
    MinMax { value: i64, seen: bool },
}

fn init(expr: AggExpr) -> AggState {
    match expr {
        AggExpr::Sum { .. }
        | AggExpr::Count
        | AggExpr::Avg { .. }
        | AggExpr::RatioOfSums { .. } => AggState::SumCount { sum: 0, count: 0 },
        AggExpr::Min { .. } | AggExpr::Max { .. } => AggState::MinMax {
            value: 0,
            seen: false,
        },
    }
}

/// Folds row `row`'s contribution into `state`; `get` reads an input
/// column's integer at that row.
fn update(expr: AggExpr, state: &mut AggState, get: &impl Fn(usize, usize) -> i64, row: usize) {
    match (expr, state) {
        (AggExpr::Sum { col } | AggExpr::Avg { col }, AggState::SumCount { sum, count }) => {
            *sum += get(col, row);
            *count += 1;
        }
        (AggExpr::Count, AggState::SumCount { sum, count }) => {
            *sum += 1;
            *count += 1;
        }
        (AggExpr::RatioOfSums { sum_col, count_col }, AggState::SumCount { sum, count }) => {
            *sum += get(sum_col, row);
            *count += get(count_col, row);
        }
        (AggExpr::Min { col }, AggState::MinMax { value, seen }) => {
            let v = get(col, row);
            if !*seen || v < *value {
                *value = v;
                *seen = true;
            }
        }
        (AggExpr::Max { col }, AggState::MinMax { value, seen }) => {
            let v = get(col, row);
            if !*seen || v > *value {
                *value = v;
                *seen = true;
            }
        }
        _ => unreachable!("accumulator state mismatch"),
    }
}

/// Final output value of `state`.
fn finish(expr: AggExpr, state: &AggState) -> i64 {
    match (expr, state) {
        (AggExpr::Sum { .. } | AggExpr::Count, AggState::SumCount { sum, .. }) => *sum,
        (AggExpr::Avg { .. } | AggExpr::RatioOfSums { .. }, AggState::SumCount { sum, count }) => {
            if *count == 0 {
                0
            } else {
                sum.div_euclid(*count)
            }
        }
        (AggExpr::Min { .. } | AggExpr::Max { .. }, AggState::MinMax { value, .. }) => *value,
        _ => unreachable!("accumulator state mismatch"),
    }
}

/// A group-by key fragment for `row`: the raw integer of an `Int`
/// column, the dictionary code of a `Str` one. Only comparable within
/// one column, which is all grouping needs.
fn key_at(column: &Column, row: usize) -> i64 {
    match column {
        Column::Int(v) => v[row],
        Column::Str { codes, .. } => codes[row] as i64,
    }
}

/// Appends an integer to an `Int` column; panics on a `Str` one.
fn push_int(column: &mut Column, v: i64) {
    match column {
        Column::Int(vals) => vals.push(v),
        Column::Str { .. } => panic!("push_int on a string column"),
    }
}

/// Row-at-a-time hash aggregation (serial).
pub(crate) fn hash_group_by(
    table: &Table,
    group_cols: &[usize],
    aggs: &[LoweredAgg],
    mask: Option<&[bool]>,
) -> Result<(Table, ExecStats), EngineError> {
    let get = |col: usize, row: usize| key_at(table.column(col), row);
    let mut index: FxHashMap<Box<[i64]>, usize> = FxHashMap::default();
    let mut states: Vec<AggState> = Vec::new();
    let mut rep_rows: Vec<usize> = Vec::new();
    let mut key: Vec<i64> = vec![0; group_cols.len()];
    for row in 0..table.num_rows() {
        if mask.is_some_and(|m| !m[row]) {
            continue;
        }
        for (i, &c) in group_cols.iter().enumerate() {
            key[i] = key_at(table.column(c), row);
        }
        let g = match index.get(key.as_slice()) {
            Some(&g) => g,
            None => {
                let g = rep_rows.len();
                index.insert(key.as_slice().into(), g);
                rep_rows.push(row);
                states.extend(aggs.iter().map(|a| init(a.expr)));
                g
            }
        };
        for (a, agg) in aggs.iter().enumerate() {
            update(agg.expr, &mut states[g * aggs.len() + a], &get, row);
        }
    }

    let in_schema = table.schema();
    let mut fields: Vec<Field> = group_cols
        .iter()
        .map(|&c| in_schema.fields()[c].clone())
        .collect();
    fields.extend(
        aggs.iter()
            .map(|a| Field::new(a.alias.clone(), DataType::Int)),
    );
    let out_schema = Schema::new(fields)?;
    let mut out_cols: Vec<Column> = out_schema
        .fields()
        .iter()
        .map(|f| Column::empty(f.dtype))
        .collect();
    for (g, &rep) in rep_rows.iter().enumerate() {
        for (i, &c) in group_cols.iter().enumerate() {
            match table.column(c) {
                Column::Int(v) => push_int(&mut out_cols[i], v[rep]),
                Column::Str { codes, dict } => out_cols[i].push_str(dict.decode(codes[rep])),
            }
        }
        for (a, agg) in aggs.iter().enumerate() {
            let v = finish(agg.expr, &states[g * aggs.len() + a]);
            push_int(&mut out_cols[group_cols.len() + a], v);
        }
    }
    let out = Table::new(out_schema, out_cols)?;

    let rows = table.num_rows() as u64;
    let mut scanned_width: u64 = group_cols
        .iter()
        .map(|&c| in_schema.fields()[c].dtype.byte_width())
        .sum();
    for a in aggs {
        scanned_width += match a.expr {
            AggExpr::Sum { .. }
            | AggExpr::Min { .. }
            | AggExpr::Max { .. }
            | AggExpr::Avg { .. } => 8,
            AggExpr::Count => 0,
            AggExpr::RatioOfSums { .. } => 16,
        };
    }
    let stats = ExecStats {
        rows_scanned: rows,
        bytes_scanned: rows * scanned_width,
        rows_out: out.num_rows() as u64,
        bytes_out: out.num_rows() as u64 * out.schema().row_byte_width(),
        groups: rep_rows.len() as u64,
    };
    Ok((out, stats))
}

/// The stored-table merge of an insert-only `delta`: index every stored
/// row under a boxed key, then look each row of the delta's aggregate up
/// through decoded strings.
pub(crate) fn refresh_incremental(
    view: &mut MaterializedView,
    delta: &Table,
) -> Result<ExecStats, EngineError> {
    let (partial, mut stats) = view.def().as_query().execute(delta)?;
    if partial.schema() != view.data().schema() {
        return Err(EngineError::SchemaMismatch);
    }
    let n_keys = view.def().group_by.len();
    let measures = view.def().measures.clone();

    let mut index: FxHashMap<Box<[i64]>, usize> = FxHashMap::default();
    {
        let data = view.data();
        let mut key = vec![0i64; n_keys];
        for row in 0..data.num_rows() {
            for (i, k) in key.iter_mut().enumerate() {
                *k = key_at(data.column(i), row);
            }
            index.insert(key.as_slice().into(), row);
        }
    }

    let data = view.data_mut_internal();
    let mut appended = 0u64;
    for prow in 0..partial.num_rows() {
        // Build the key in the *stored* table's code space.
        let mut key = Vec::with_capacity(n_keys);
        let mut translatable = true;
        for i in 0..n_keys {
            match (partial.column(i), data.column(i)) {
                (Column::Int(v), Column::Int(_)) => key.push(v[prow]),
                (Column::Str { codes, dict }, Column::Str { dict: tdict, .. }) => {
                    match tdict.lookup(dict.decode(codes[prow])) {
                        Some(code) => key.push(code as i64),
                        None => {
                            translatable = false;
                            break;
                        }
                    }
                }
                _ => return Err(EngineError::SchemaMismatch),
            }
        }
        let existing = if translatable {
            index.get(key.as_slice()).copied()
        } else {
            None
        };
        match existing {
            Some(row) => {
                for (m, spec) in measures.iter().enumerate() {
                    let col_idx = n_keys + m;
                    let delta_v = partial.column(col_idx).as_int()?[prow];
                    let values = data.column_mut(col_idx).int_values_mut();
                    let cur = values[row];
                    values[row] = match spec.func() {
                        AggFunc::Sum | AggFunc::Count => cur + delta_v,
                        AggFunc::Min => cur.min(delta_v),
                        AggFunc::Max => cur.max(delta_v),
                        AggFunc::Avg => unreachable!("canonical views never store Avg"),
                    };
                }
            }
            None => {
                data.push_row(&partial.row(prow))?;
                appended += 1;
            }
        }
    }
    stats.rows_out += appended;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::TestRng;

    use super::*;
    use crate::groupby::parallel_group_by;
    use crate::{AggQuery, AggSpec, CmpOp, Predicate, Value, ViewDefinition};

    /// Values every wide `Int` key column draws from: the extremes force
    /// the packed-key span past `u64`, the repeats make groups collide.
    const EXTREMES: [i64; 8] = [
        i64::MIN,
        i64::MIN + 1,
        -1,
        0,
        1,
        1 << 40,
        i64::MAX - 1,
        i64::MAX,
    ];
    const KEY_KINDS: u64 = 9;

    /// One key column of `rows` values of the given kind. `shift` offsets
    /// every pool, so a delta drawn with another shift shares some keys
    /// with its base table and brings some new ones.
    fn key_column(rng: &mut TestRng, kind: u64, rows: usize, shift: u64) -> Column {
        let int = |f: &mut dyn FnMut(usize) -> i64| Column::Int((0..rows).map(f).collect());
        let string = |f: &mut dyn FnMut(usize) -> String| {
            let mut c = Column::empty(DataType::Str);
            (0..rows).for_each(|r| c.push_str(&f(r)));
            c
        };
        match kind {
            // Small dense range.
            0 => int(&mut |_| (rng.below(5) + shift) as i64 - 2),
            // Spanning all of i64.
            1 => int(&mut |_| EXTREMES[((rng.below(6) + shift) % 8) as usize]),
            // Single value.
            2 => int(&mut |_| 7 + shift as i64),
            // All distinct and narrow.
            3 => int(&mut |r| (r as u64 + 40 * shift) as i64),
            // All distinct and wider than 2^32.
            4 => int(&mut |r| (r as i64 - 50 * shift as i64).wrapping_mul(0x0123_4567_89ab_cdef)),
            // Sparse in a range far larger than any slot table.
            5 => int(&mut |_| (rng.below(12) + shift) as i64 * 1_000_003),
            // Few strings.
            6 => string(&mut |_| format!("s{}", rng.below(4) + shift)),
            // One string.
            7 => string(&mut |_| format!("only{shift}")),
            // All distinct strings.
            _ => string(&mut |r| format!("row{}", r as u64 + 30 * shift)),
        }
    }

    /// A table of the given key column kinds (`k0`, `k1`, …) plus two
    /// measures: `m0` signed, `m1` positive and count-like.
    fn table(rng: &mut TestRng, kinds: &[u64], rows: usize, shift: u64) -> Table {
        let mut fields = Vec::new();
        let mut columns = Vec::new();
        for (i, &kind) in kinds.iter().enumerate() {
            let column = key_column(rng, kind, rows, shift);
            fields.push(Field::new(format!("k{i}"), column.dtype()));
            columns.push(column);
        }
        fields.push(Field::new("m0", DataType::Int));
        columns.push(Column::Int(
            (0..rows)
                .map(|_| rng.below(2_000_001) as i64 - 1_000_000)
                .collect(),
        ));
        fields.push(Field::new("m1", DataType::Int));
        columns.push(Column::Int(
            (0..rows).map(|_| rng.below(50) as i64 + 1).collect(),
        ));
        Table::new(Schema::new(fields).unwrap(), columns).unwrap()
    }

    /// A country → region → city hierarchy as three `Str` key columns
    /// (`k0`, `k1`, `k2`; up to 6 / 18 / 54 strings) plus the two measures:
    /// the product of the three dictionary domains is past any slot
    /// table these row counts allow while the distinct prefixes are few,
    /// which is when [`KeyLayout`](crate::groupby::KeyLayout) re-densifies
    /// the running prefix.
    fn hierarchy_table(rng: &mut TestRng, rows: usize) -> Table {
        let mut keys = [
            Column::empty(DataType::Str),
            Column::empty(DataType::Str),
            Column::empty(DataType::Str),
        ];
        for _ in 0..rows {
            let (c, r, t) = (rng.below(6), rng.below(3), rng.below(3));
            keys[0].push_str(&format!("c{c}"));
            keys[1].push_str(&format!("c{c}-r{r}"));
            keys[2].push_str(&format!("c{c}-r{r}-t{t}"));
        }
        let measures = table(rng, &[], rows, 0);
        let mut fields: Vec<Field> = (0..3)
            .map(|i| Field::new(format!("k{i}"), DataType::Str))
            .collect();
        fields.extend(measures.schema().fields().iter().cloned());
        let measure_columns = (0..fields.len() - 3).map(|c| measures.column(c).clone());
        let columns = keys.into_iter().chain(measure_columns);
        Table::new(Schema::new(fields).unwrap(), columns.collect()).unwrap()
    }

    /// A base table for the view proptests — one case in four the
    /// hierarchy, otherwise `n_keys` columns of random kinds — and a
    /// description of it for failure messages.
    fn view_base(rng: &mut TestRng, seed: u64, n_keys: usize, rows: usize) -> (Table, String) {
        if seed.is_multiple_of(4) {
            (hierarchy_table(rng, rows), "hierarchy".to_string())
        } else {
            let kinds: Vec<u64> = (0..n_keys).map(|_| rng.below(KEY_KINDS)).collect();
            let what = format!("kinds {kinds:?}");
            (table(rng, &kinds, rows, 0), what)
        }
    }

    /// A random sub-list of `names`, in a random order.
    fn sub_key(rng: &mut TestRng, names: &[String]) -> Vec<String> {
        let mut kept: Vec<String> = names.iter().filter(|_| rng.below(3) > 0).cloned().collect();
        for i in (1..kept.len()).rev() {
            kept.swap(i, rng.below(i as u64 + 1) as usize);
        }
        kept
    }

    fn mask(rng: &mut TestRng, kind: u64, rows: usize) -> Option<Vec<bool>> {
        match kind {
            0 => None,
            1 => Some(vec![true; rows]),
            2 => Some(vec![false; rows]),
            _ => Some((0..rows).map(|_| rng.below(3) > 0).collect()),
        }
    }

    /// Every lowered expression, over the two measure columns.
    fn all_aggs(m0: usize) -> Vec<LoweredAgg> {
        let m1 = m0 + 1;
        [
            ("sum", AggExpr::Sum { col: m0 }),
            ("count", AggExpr::Count),
            ("min", AggExpr::Min { col: m0 }),
            ("max", AggExpr::Max { col: m1 }),
            ("avg", AggExpr::Avg { col: m0 }),
            (
                "ratio",
                AggExpr::RatioOfSums {
                    sum_col: m0,
                    count_col: m1,
                },
            ),
        ]
        .into_iter()
        .map(|(alias, expr)| LoweredAgg {
            expr,
            alias: alias.to_string(),
        })
        .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The kernel, at any thread count, returns the reference's table
        /// and stats exactly.
        #[test]
        fn kernel_equals_row_at_a_time_reference(
            seed in 0u64..u64::MAX,
            n_keys in 0usize..7,
            rows in 0usize..160,
            mask_kind in 0u64..5,
        ) {
            let mut rng = TestRng::deterministic(&seed.to_string());
            // One case in eight runs on an empty table.
            let rows = if seed % 8 == 0 { 0 } else { rows };
            let kinds: Vec<u64> = (0..n_keys).map(|_| rng.below(KEY_KINDS)).collect();
            let t = table(&mut rng, &kinds, rows, 0);
            let m = mask(&mut rng, mask_kind, rows);
            let group_cols: Vec<usize> = (0..n_keys).collect();
            let aggs = all_aggs(n_keys);
            let expected = hash_group_by(&t, &group_cols, &aggs, m.as_deref());
            prop_assert!(expected.is_ok());
            for threads in [1, 2, 3, 8] {
                let got = parallel_group_by(&t, &group_cols, &aggs, m.as_deref(), threads);
                prop_assert_eq!(&got, &expected, "kinds {:?}, {} threads", &kinds, threads);
            }
        }

        /// The kernel's probe-based refresh leaves the stored table, and
        /// reports the work, exactly as the reference merge does.
        #[test]
        fn refresh_equals_reference_merge(
            seed in 0u64..u64::MAX,
            n_keys in 0usize..5,
            base_rows in 0usize..120,
            delta_rows in 0usize..60,
            shift in 0u64..3,
        ) {
            let mut rng = TestRng::deterministic(&seed.to_string());
            let kinds: Vec<u64> = (0..n_keys).map(|_| rng.below(KEY_KINDS)).collect();
            let base = table(&mut rng, &kinds, base_rows, 0);
            let delta = table(&mut rng, &kinds, delta_rows, shift);
            let names: Vec<String> = (0..n_keys).map(|i| format!("k{i}")).collect();
            let group_by: Vec<&str> = names.iter().map(String::as_str).collect();
            let def = ViewDefinition::canonical(
                "v",
                &group_by,
                &[AggSpec::sum("m0"), AggSpec::min("m0"), AggSpec::max("m1"), AggSpec::avg("m1")],
            );
            let mut expected = MaterializedView::materialize(def, &base).unwrap();
            let mut got = expected.clone();
            // Two rounds: the second merges into rows the first appended.
            for _ in 0..2 {
                let expected_stats = refresh_incremental(&mut expected, &delta).unwrap();
                let stats = got.refresh_incremental(&delta).unwrap();
                prop_assert_eq!(stats, expected_stats, "kinds {:?}", &kinds);
                prop_assert_eq!(&got, &expected, "kinds {:?}", &kinds);
            }
        }

        /// A view rolled up from any ancestor — along a chain of up to
        /// three, each link dropping key columns (and reordering the
        /// rest) and possibly the `MIN` / `MAX` partials — equals the
        /// same definition materialized from the base table: stored
        /// table and `build_stats`.
        #[test]
        fn roll_up_equals_materialize_from_base(
            seed in 0u64..u64::MAX,
            n_keys in 1usize..6,
            rows in 0usize..160,
            threads in 0usize..3,
        ) {
            let mut rng = TestRng::deterministic(&seed.to_string());
            let (base, what) = view_base(&mut rng, seed, n_keys, rows);
            let mut key: Vec<String> = base.schema().fields()[..base.schema().len() - 2]
                .iter()
                .map(|f| f.name.clone())
                .collect();
            let mut measures =
                vec![AggSpec::sum("m0"), AggSpec::min("m0"), AggSpec::max("m1"), AggSpec::avg("m1")];
            let group_by: Vec<&str> = key.iter().map(String::as_str).collect();
            let def = ViewDefinition::canonical("v0", &group_by, &measures);
            let mut source =
                MaterializedView::materialize_with_threads(def, &base, [1, 2, 4][threads]).unwrap();
            for link in 1..=3 {
                key = sub_key(&mut rng, &key);
                measures.truncate(measures.len() - rng.below(2) as usize);
                let group_by: Vec<&str> = key.iter().map(String::as_str).collect();
                let def = ViewDefinition::canonical(format!("v{link}"), &group_by, &measures);
                let expected = MaterializedView::materialize(def.clone(), &base).unwrap();
                let rolled = MaterializedView::roll_up(def, &source).unwrap();
                prop_assert_eq!(&rolled, &expected, "seed {}, {}, link {} onto {:?}", seed, &what, link, &key);
                source = rolled;
            }
        }

        /// What the planner says a view's answer scans is what running
        /// the answer meters, for every query the view can answer — a
        /// predicate on a key column and an `AVG` (two stored columns)
        /// included — and the same error for one it cannot.
        #[test]
        fn planned_scan_bytes_equal_the_executed_scan(
            seed in 0u64..u64::MAX,
            n_keys in 1usize..6,
            rows in 0usize..160,
        ) {
            let mut rng = TestRng::deterministic(&seed.to_string());
            let (base, what) = view_base(&mut rng, seed, n_keys, rows);
            let key: Vec<String> = base.schema().fields()[..base.schema().len() - 2]
                .iter()
                .map(|f| f.name.clone())
                .collect();
            let group_by: Vec<&str> = key.iter().map(String::as_str).collect();
            // One view in three stores no MIN, so some queries are not derivable.
            let mut stored = vec![AggSpec::sum("m0"), AggSpec::max("m1"), AggSpec::min("m0")];
            stored.truncate(3 - (rng.below(3) == 0) as usize);
            let def = ViewDefinition::canonical("v", &group_by, &stored);
            let view = MaterializedView::materialize(def, &base).unwrap();
            let wanted = [
                AggSpec::sum("m0"),
                AggSpec::count(),
                AggSpec::min("m0"),
                AggSpec::max("m1"),
                AggSpec::avg("m0"),
            ];
            for _ in 0..6 {
                let columns = sub_key(&mut rng, &key);
                let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
                let mut aggregates: Vec<AggSpec> =
                    wanted.iter().filter(|_| rng.below(2) == 0).cloned().collect();
                aggregates.push(wanted[rng.below(5) as usize].clone().with_alias("last"));
                let mut query = AggQuery::new("q", &columns, aggregates);
                if rng.below(2) == 0 {
                    let column = &key[rng.below(key.len() as u64) as usize];
                    let literal = match base.column_by_name(column).unwrap() {
                        Column::Int(v) => Value::Int(v.first().copied().unwrap_or(0)),
                        Column::Str { .. } => Value::from("c1-r1"),
                    };
                    let filter = Predicate::cmp(column.clone(), CmpOp::Ne, literal);
                    // Half of the filters read a second key column.
                    query = query.with_predicate(if rng.below(2) == 0 {
                        Predicate::And(vec![filter, Predicate::eq(key[0].clone(), "c0")])
                    } else {
                        filter
                    });
                }
                let planned = view.planned_scan_bytes(&query);
                match view.answer(&query) {
                    Ok((_, stats)) => prop_assert_eq!(
                        planned, Ok(stats.bytes_scanned), "seed {}, {}, {:?}", seed, &what, &query
                    ),
                    // A string literal against an `Int` key fails in the
                    // filter itself, which only an executed scan reaches.
                    Err(EngineError::TypeMismatch { .. }) => prop_assert!(planned.is_ok()),
                    Err(e) => prop_assert_eq!(planned, Err(e), "seed {}, {}, {:?}", seed, &what, &query),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "push_int on a string column")]
    fn push_int_on_str_panics() {
        push_int(&mut Column::empty(DataType::Str), 1);
    }
}
