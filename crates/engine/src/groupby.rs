//! Columnar group-by kernel.
//!
//! The single physical operator this engine needs, used by base-table
//! queries, view materialization, view answers and incremental refresh
//! alike. It never builds a row: every step is a pass over typed column
//! slices.
//!
//! 1. **Key packing** ([`KeyLayout`]). Each key column is read as an offset
//!    from its smallest value (`Int`) or as its dictionary code (`Str`) and
//!    folded, column at a time, into one mixed-radix `u64` per row. When the
//!    next radix would push the packed domain past what a direct-indexed
//!    table may span, the running prefix is first *re-densified* — replaced
//!    by the dense id of its distinct values — which is what keeps hierarchy
//!    columns (country → region → city) from multiplying into a domain far
//!    sparser than the data. When even a dense prefix times the radix would
//!    overflow `u64` — `Int` keys spanning most of `i64` — the column's
//!    values are re-densified on their own. Packing is injective, so equal
//!    packed keys mean equal key tuples.
//! 2. **Resolution** ([`Resolver`]). Packed keys become group ids through a
//!    direct-indexed slot table when the packed domain is small against the
//!    row count, and through an `FxHashMap<u64, u32>` otherwise. Ids are
//!    handed out in scan order, so group `g` is the `g`-th distinct key *by
//!    first appearance* and output rows come out in that order.
//! 3. **Accumulation** ([`Accumulator`]). Each aggregate makes one pass over
//!    the group-id vector and its input column(s), with the expression and
//!    column type matched once outside the loop.
//! 4. **Output.** Key columns are gathered by each group's representative
//!    (first) row; string dictionaries are rebuilt through an old-code →
//!    new-code table ([`Column::gather`]).
//!
//! The counting pass ([`first_rows`]) is steps 1 and 2 alone: it returns
//! the representatives, over every row or over a given list of rows, and
//! a [`crate::PlannedView`] is read off their number.
//!
//! The parallel variant packs keys once for the whole table (the layout is
//! shared), resolves and accumulates contiguous row ranges on their own
//! threads, and merges the partial states by packed key in range order —
//! the same partial-aggregate/combine structure MapReduce gave the paper's
//! Pig Latin queries. Because ranges are merged in row order and each lists
//! its groups by first appearance, the merged result is *identical* to the
//! serial one, row order included.

use std::ops::Range;

use crate::agg::{Accumulator, AggExpr, SKIP};
use crate::fx::FxHashMap;
use crate::{Column, DataType, EngineError, ExecStats, Field, Schema, Table};

/// A lowered aggregate with its output column name.
#[derive(Debug, Clone)]
pub(crate) struct LoweredAgg {
    pub expr: AggExpr,
    pub alias: String,
}

/// Packed key of a probed row that matches no row of the build side. Packed
/// keys stay below their layout's `card`, itself a `u64`, so this is never
/// one of them and no [`Resolver`] of packed keys resolves it.
const NO_KEY: u64 = u64::MAX;

/// Largest packed domain resolved through a direct-indexed table, for an
/// input of `rows` rows: a few slots per row, so clearing the table never
/// costs more than the scan it serves.
fn direct_limit(rows: usize) -> u64 {
    4 * rows.max(256) as u64
}

/// Maps `u64` keys to dense ids `0, 1, 2, …` in order of first insertion.
#[derive(Debug)]
pub(crate) enum Resolver {
    /// `slots[key]` is the key's id, or [`Resolver::VACANT`].
    Direct { slots: Vec<u32>, len: u32 },
    /// For domains too large (or too sparse) to index directly.
    Hashed(FxHashMap<u64, u32>),
}

impl Resolver {
    const VACANT: u32 = u32::MAX;

    /// A resolver for keys below `card`, sized for about `rows` insertions.
    pub(crate) fn new(card: u64, rows: usize) -> Self {
        if card <= direct_limit(rows) {
            Resolver::Direct {
                slots: vec![Self::VACANT; card as usize],
                len: 0,
            }
        } else {
            Resolver::hashed(rows.min(usize::try_from(card).unwrap_or(usize::MAX)))
        }
    }

    fn hashed(capacity: usize) -> Self {
        Resolver::Hashed(FxHashMap::with_capacity_and_hasher(
            capacity,
            Default::default(),
        ))
    }

    #[inline]
    fn direct_id(slots: &mut [u32], len: &mut u32, key: u64) -> u32 {
        let slot = &mut slots[key as usize];
        if *slot == Self::VACANT {
            *slot = *len;
            *len += 1;
        }
        *slot
    }

    #[inline]
    fn hashed_id(map: &mut FxHashMap<u64, u32>, key: u64) -> u32 {
        let next = map.len() as u32;
        *map.entry(key).or_insert(next)
    }

    /// The id of `key`, assigning the next free one on first sight.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, key: u64) -> u32 {
        match self {
            Resolver::Direct { slots, len } => Self::direct_id(slots, len, key),
            Resolver::Hashed(map) => Self::hashed_id(map, key),
        }
    }

    /// [`Resolver::get_or_insert`] over a whole column of keys, with the
    /// table kind matched once outside the loop. Rows whose `mask` entry is
    /// `false` are not inserted and come out as [`SKIP`].
    pub(crate) fn assign(&mut self, keys: &[u64], mask: Option<&[bool]>) -> Vec<u32> {
        fn scan(keys: &[u64], mask: Option<&[bool]>, mut id: impl FnMut(u64) -> u32) -> Vec<u32> {
            match mask {
                None => keys.iter().map(|&k| id(k)).collect(),
                Some(mask) => keys
                    .iter()
                    .zip(mask)
                    .map(|(&k, &keep)| if keep { id(k) } else { SKIP })
                    .collect(),
            }
        }
        match self {
            Resolver::Direct { slots, len } => scan(keys, mask, |k| Self::direct_id(slots, len, k)),
            Resolver::Hashed(map) => scan(keys, mask, |k| Self::hashed_id(map, k)),
        }
    }

    /// The position of the first occurrence of each distinct key of
    /// `keys`, in order of first appearance — the group representatives
    /// [`Resolver::assign`] would hand out ids for, with no id vector.
    pub(crate) fn first_rows(&mut self, keys: &[u64]) -> Vec<u32> {
        fn scan(keys: &[u64], mut id: impl FnMut(u64) -> u32) -> Vec<u32> {
            let mut firsts = Vec::new();
            for (row, &k) in keys.iter().enumerate() {
                if id(k) as usize == firsts.len() {
                    firsts.push(row as u32);
                }
            }
            firsts
        }
        match self {
            Resolver::Direct { slots, len } => scan(keys, |k| Self::direct_id(slots, len, k)),
            Resolver::Hashed(map) => scan(keys, |k| Self::hashed_id(map, k)),
        }
    }

    /// The id of `key`, if it was inserted.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        match self {
            Resolver::Direct { slots, .. } => usize::try_from(key)
                .ok()
                .and_then(|k| slots.get(k))
                .copied()
                .filter(|&id| id != Self::VACANT),
            Resolver::Hashed(map) => map.get(&key).copied(),
        }
    }

    /// Number of distinct keys inserted.
    pub(crate) fn len(&self) -> usize {
        match self {
            Resolver::Direct { len, .. } => *len as usize,
            Resolver::Hashed(map) => map.len(),
        }
    }
}

/// One key column's values, borrowed from its table.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KeySlice<'a> {
    /// Integer values.
    Int(&'a [i64]),
    /// Dictionary codes, all below `domain`.
    Codes { codes: &'a [u32], domain: usize },
}

impl<'a> KeySlice<'a> {
    /// The key view of a table column.
    pub(crate) fn of(column: &'a Column) -> Self {
        match column {
            Column::Int(v) => KeySlice::Int(v),
            Column::Str { codes, dict } => KeySlice::Codes {
                codes,
                domain: dict.len(),
            },
        }
    }

    /// `(min, max - min)` over the column; `(0, 0)` when it is empty.
    fn bounds(&self) -> (i64, u64) {
        match self {
            KeySlice::Int(v) => match (v.iter().min(), v.iter().max()) {
                (Some(&min), Some(&max)) => (min, max.wrapping_sub(min) as u64),
                _ => (0, 0),
            },
            KeySlice::Codes { domain, .. } => (0, domain.saturating_sub(1) as u64),
        }
    }

    /// Calls `f(key, offset)` for every row, `offset` being the row's value
    /// minus `min` (wrapping, so values below `min` come out above any span).
    #[inline]
    fn fold_offsets(&self, min: i64, keys: &mut [u64], mut f: impl FnMut(&mut u64, u64)) {
        match self {
            KeySlice::Int(v) => {
                for (k, &x) in keys.iter_mut().zip(*v) {
                    f(k, (x as u64).wrapping_sub(min as u64));
                }
            }
            KeySlice::Codes { codes, .. } => {
                for (k, &c) in keys.iter_mut().zip(*codes) {
                    f(k, c as u64);
                }
            }
        }
    }
}

/// How one key column enters the packed key.
#[derive(Debug)]
struct KeyPart {
    /// The running prefix is replaced by its dense id before this column
    /// is folded in.
    prefix: Option<Resolver>,
    /// Smallest value on the build side (`0` for dictionary codes).
    min: i64,
    /// Largest build-side offset from `min`.
    span: u64,
    /// The column's offsets are replaced by their dense ids (only for
    /// columns too wide to multiply into a `u64` any other way).
    dense: Option<Resolver>,
    /// Exclusive bound on what this column adds: `key = key * radix + v`.
    radix: u64,
}

/// The packing of a list of key columns into one `u64` per row, planned
/// over a *build side* and replayable over any table with the same column
/// types ([`KeyLayout::probe`]).
#[derive(Debug)]
pub(crate) struct KeyLayout {
    parts: Vec<KeyPart>,
    /// Exclusive bound on the packed keys.
    card: u64,
}

impl KeyLayout {
    /// Plans the packing of `cols` (each `rows` long) and returns it with
    /// the packed key of every row.
    pub(crate) fn build(cols: &[KeySlice<'_>], rows: usize) -> (KeyLayout, Vec<u64>) {
        assert!(rows < SKIP as usize, "group ids are 32-bit");
        let limit = direct_limit(rows);
        let mut keys = vec![0u64; rows];
        let mut parts = Vec::with_capacity(cols.len());
        let mut card = 1u64;
        // Whether `card` already counts distinct prefixes exactly.
        let mut dense = true;
        for col in cols {
            let (min, span) = col.bounds();
            let mut part = KeyPart {
                prefix: None,
                min,
                span,
                dense: None,
                radix: 0,
            };
            let radix = span.checked_add(1);
            let fits = |card: u64, radix: Option<u64>, bound: u64| {
                radix
                    .and_then(|r| card.checked_mul(r))
                    .is_some_and(|c| c <= bound)
            };
            // Re-densify the prefix when that keeps the packed domain
            // directly indexable and costs only a direct-indexed pass
            // itself, or when nothing else stops a `u64` overflow.
            if !dense
                && !fits(card, radix, limit)
                && (card <= limit || !fits(card, radix, u64::MAX))
            {
                let mut ids = Resolver::new(card, rows);
                keys = ids.assign(&keys, None).into_iter().map(u64::from).collect();
                card = ids.len() as u64;
                dense = true;
                part.prefix = Some(ids);
            }
            // A dense prefix is at most `rows` wide; a column that still
            // overflows spans more than 2^32 values and is densified too.
            part.radix = match radix.filter(|&r| fits(card, Some(r), u64::MAX)) {
                Some(radix) => {
                    col.fold_offsets(min, &mut keys, |k, off| *k = *k * radix + off);
                    radix
                }
                None => {
                    let mut ids = Resolver::hashed(rows);
                    col.fold_offsets(min, &mut keys, |_, off| {
                        ids.get_or_insert(off);
                    });
                    let radix = ids.len() as u64;
                    // Every offset is present now, so each gets its id back.
                    col.fold_offsets(min, &mut keys, |k, off| {
                        *k = *k * radix + u64::from(ids.get_or_insert(off));
                    });
                    part.dense = Some(ids);
                    radix
                }
            };
            card *= part.radix;
            dense = dense && part.radix == 1;
            parts.push(part);
        }
        (KeyLayout { parts, card }, keys)
    }

    /// Packs the rows of another table's key columns the way the build
    /// side was packed; rows holding a value the build side never saw in
    /// that column come out as [`NO_KEY`].
    pub(crate) fn probe(&self, cols: &[KeySlice<'_>], rows: usize) -> Vec<u64> {
        let mut keys = vec![0u64; rows];
        for (part, col) in self.parts.iter().zip(cols) {
            if let Some(ids) = &part.prefix {
                for k in keys.iter_mut().filter(|k| **k != NO_KEY) {
                    *k = ids.get(*k).map_or(NO_KEY, u64::from);
                }
            }
            col.fold_offsets(part.min, &mut keys, |k, off| {
                let v = match &part.dense {
                    _ if *k == NO_KEY || off > part.span => None,
                    Some(ids) => ids.get(off).map(u64::from),
                    None => Some(off),
                };
                *k = v.map_or(NO_KEY, |v| *k * part.radix + v);
            });
        }
        keys
    }

    /// A resolver for this layout's packed keys.
    pub(crate) fn resolver(&self, rows: usize) -> Resolver {
        Resolver::new(self.card, rows)
    }
}

/// Aggregation state of a contiguous row range.
struct Partial {
    /// Packed key → group id, ids in first-appearance order.
    groups: Resolver,
    /// First row (table-wide index) of each group.
    reps: Vec<u32>,
    /// One accumulator per aggregate.
    accs: Vec<Accumulator>,
}

/// Runs the group-by over `table`.
///
/// * `group_cols` — input column indices forming the key (order defines the
///   output column order);
/// * `aggs` — lowered aggregate expressions with output names;
/// * `mask` — optional row filter (from a predicate evaluation).
pub(crate) fn group_by(
    table: &Table,
    group_cols: &[usize],
    aggs: &[LoweredAgg],
    mask: Option<&[bool]>,
) -> Result<(Table, ExecStats), EngineError> {
    let (layout, keys) = pack_keys(table, group_cols);
    let partial = aggregate_range(table, &layout, &keys, aggs, mask, 0..table.num_rows())?;
    build_output(table, group_cols, aggs, partial, mask)
}

/// Parallel group-by: packs keys once, aggregates `threads` row ranges on
/// their own threads, then merges the partials by packed key. Produces
/// exactly the same table as [`group_by`], only faster.
pub(crate) fn parallel_group_by(
    table: &Table,
    group_cols: &[usize],
    aggs: &[LoweredAgg],
    mask: Option<&[bool]>,
    threads: usize,
) -> Result<(Table, ExecStats), EngineError> {
    let threads = threads.max(1);
    let rows = table.num_rows();
    if threads == 1 || rows < 2 * threads {
        return group_by(table, group_cols, aggs, mask);
    }
    let (layout, keys) = pack_keys(table, group_cols);
    let chunk = rows.div_ceil(threads);
    let (layout, keys) = (&layout, &keys);
    let partials: Vec<Result<Partial, EngineError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..rows)
            .step_by(chunk)
            .map(|start| {
                let range = start..(start + chunk).min(rows);
                scope.spawn(move || aggregate_range(table, layout, keys, aggs, mask, range))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("aggregation worker panicked"))
            .collect()
    });

    // Merge in range order: a group new to `merged` first appeared in this
    // range, after every group of the ranges before it.
    let mut partials = partials.into_iter();
    let mut merged = partials.next().expect("at least one range")?;
    for partial in partials {
        let partial = partial?;
        let dst: Vec<u32> = partial
            .reps
            .iter()
            .map(|&rep| {
                let g = merged.groups.get_or_insert(keys[rep as usize]);
                if g as usize == merged.reps.len() {
                    merged.reps.push(rep);
                }
                g
            })
            .collect();
        for (acc, other) in merged.accs.iter_mut().zip(&partial.accs) {
            acc.grow(merged.reps.len());
            acc.merge(other, &dst);
        }
    }
    build_output(table, group_cols, aggs, merged, mask)
}

/// The counting pass: the first row of each distinct key of
/// `group_cols` in `table`, in order of first appearance — the
/// representatives [`group_by`] gathers its key columns by, found by the
/// same key packing and resolver with no accumulator, gather or output
/// table. `among` restricts the pass to those rows, in that order (an
/// increasing list of row indices); `None` scans every row.
pub(crate) fn first_rows(table: &Table, group_cols: &[usize], among: Option<&[u32]>) -> Vec<u32> {
    let Some(among) = among else {
        let (layout, keys) = pack_keys(table, group_cols);
        return layout.resolver(keys.len()).first_rows(&keys);
    };
    // The key values at `among`, copied out; codes keep their column's
    // dictionary, so its size still bounds them.
    enum Picked {
        Int(Vec<i64>),
        Codes(Vec<u32>, usize),
    }
    let picked: Vec<Picked> = group_cols
        .iter()
        .map(|&c| match table.column(c) {
            Column::Int(v) => Picked::Int(among.iter().map(|&r| v[r as usize]).collect()),
            Column::Str { codes, dict } => Picked::Codes(
                among.iter().map(|&r| codes[r as usize]).collect(),
                dict.len(),
            ),
        })
        .collect();
    let cols: Vec<KeySlice<'_>> = picked
        .iter()
        .map(|p| match p {
            Picked::Int(v) => KeySlice::Int(v),
            Picked::Codes(codes, domain) => KeySlice::Codes {
                codes,
                domain: *domain,
            },
        })
        .collect();
    let (layout, keys) = KeyLayout::build(&cols, among.len());
    let mut firsts = layout.resolver(among.len()).first_rows(&keys);
    for r in &mut firsts {
        *r = among[*r as usize];
    }
    firsts
}

/// Packs the group key of every row of `table`.
fn pack_keys(table: &Table, group_cols: &[usize]) -> (KeyLayout, Vec<u64>) {
    let cols: Vec<KeySlice<'_>> = group_cols
        .iter()
        .map(|&c| KeySlice::of(table.column(c)))
        .collect();
    KeyLayout::build(&cols, table.num_rows())
}

/// Aggregates the rows `rows` (whose packed keys are `keys[rows]`) into a
/// fresh partial.
fn aggregate_range(
    table: &Table,
    layout: &KeyLayout,
    keys: &[u64],
    aggs: &[LoweredAgg],
    mask: Option<&[bool]>,
    rows: Range<usize>,
) -> Result<Partial, EngineError> {
    let mut groups = layout.resolver(rows.len());
    let gids = groups.assign(&keys[rows.clone()], mask.map(|m| &m[rows.clone()]));
    // Ids count up in scan order, so each group's first row is where the
    // next unseen id shows.
    let mut reps: Vec<u32> = Vec::with_capacity(groups.len());
    for (row, &g) in rows.clone().zip(&gids) {
        if g as usize == reps.len() {
            reps.push(row as u32);
        }
    }
    let mut accs = Vec::with_capacity(aggs.len());
    for agg in aggs {
        accs.push(Accumulator::fold(
            agg.expr,
            reps.len(),
            table,
            rows.clone(),
            &gids,
        )?);
    }
    Ok(Partial { groups, reps, accs })
}

/// Bytes of each input row a group-by reads: a columnar scan touches
/// every key column and every aggregate input, counted per reference,
/// over all rows. The one width rule — executed scans ([`build_output`])
/// and planned ones ([`crate::query::Plan::scan_bytes`], which a counted
/// view's from-base `build_stats` read too) both charge `rows ×` this.
pub(crate) fn scanned_width(
    schema: &Schema,
    group_cols: &[usize],
    aggs: impl Iterator<Item = AggExpr>,
) -> u64 {
    let keys: u64 = group_cols
        .iter()
        .map(|&c| schema.fields()[c].dtype.byte_width())
        .sum();
    keys + aggs.map(AggExpr::input_width).sum::<u64>()
}

/// The schema a group-by over `in_schema` outputs: the group columns,
/// then one `Int` column per aggregate.
pub(crate) fn output_schema(
    in_schema: &Schema,
    group_cols: &[usize],
    aggs: &[LoweredAgg],
) -> Result<Schema, EngineError> {
    let keys = group_cols.iter().map(|&c| in_schema.fields()[c].clone());
    let measures = aggs
        .iter()
        .map(|a| Field::new(a.alias.clone(), DataType::Int));
    Schema::new(keys.chain(measures).collect())
}

/// Emits the output table (group columns + one Int column per aggregate)
/// and the metering record.
fn build_output(
    table: &Table,
    group_cols: &[usize],
    aggs: &[LoweredAgg],
    partial: Partial,
    mask: Option<&[bool]>,
) -> Result<(Table, ExecStats), EngineError> {
    let in_schema = table.schema();
    let out_schema = output_schema(in_schema, group_cols, aggs)?;

    // Groups are numbered by first appearance: deterministic given input
    // order, whatever the thread count.
    let n_groups = partial.reps.len();
    let mut out_cols: Vec<Column> = group_cols
        .iter()
        .map(|&c| table.column(c).gather(&partial.reps))
        .collect();
    for (agg, acc) in aggs.iter().zip(partial.accs) {
        out_cols.push(Column::Int(acc.finish(&agg.alias)?));
    }
    let out = Table::new(out_schema, out_cols)?;

    // Mask evaluation is metered by the caller that built the mask.
    let rows = table.num_rows() as u64;
    let selected = match mask {
        Some(m) => m.iter().filter(|&&b| b).count() as u64,
        None => rows,
    };
    let stats = ExecStats {
        rows_scanned: rows,
        bytes_scanned: rows * scanned_width(in_schema, group_cols, aggs.iter().map(|a| a.expr)),
        rows_out: out.num_rows() as u64,
        bytes_out: out.num_rows() as u64 * out.schema().row_byte_width(),
        groups: n_groups as u64,
    };
    // Selected rows bound the group count.
    debug_assert!(n_groups as u64 <= selected.max(1));
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, TableBuilder, Value};

    fn sales() -> Table {
        TableBuilder::new(&[
            ("year", DataType::Int),
            ("country", DataType::Str),
            ("profit", DataType::Int),
        ])
        .unwrap()
        .row(&[2000.into(), "France".into(), 35.into()])
        .unwrap()
        .row(&[2000.into(), "France".into(), 40.into()])
        .unwrap()
        .row(&[2000.into(), "Italy".into(), 23.into()])
        .unwrap()
        .row(&[1999.into(), "Italy".into(), 50.into()])
        .unwrap()
        .build()
    }

    fn sum_profit() -> Vec<LoweredAgg> {
        vec![LoweredAgg {
            expr: AggExpr::Sum { col: 2 },
            alias: "sum_profit".to_string(),
        }]
    }

    #[test]
    fn groups_and_sums() {
        let t = sales();
        let (out, stats) = group_by(&t, &[0, 1], &sum_profit(), None).unwrap();
        let rows = out.to_sorted_rows();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1999), "Italy".into(), Value::Int(50)],
                vec![Value::Int(2000), "France".into(), Value::Int(75)],
                vec![Value::Int(2000), "Italy".into(), Value::Int(23)],
            ]
        );
        assert_eq!(stats.rows_scanned, 4);
        assert_eq!(stats.groups, 3);
        assert_eq!(stats.rows_out, 3);
        // year(8) + country(4) + profit(8) per row.
        assert_eq!(stats.bytes_scanned, 4 * 20);
    }

    #[test]
    fn empty_group_key_is_grand_total() {
        let t = sales();
        let (out, _) = group_by(&t, &[], &sum_profit(), None).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0), vec![Value::Int(148)]);
    }

    #[test]
    fn mask_filters_rows() {
        let t = sales();
        let mask = vec![true, false, true, false];
        let (out, _) = group_by(&t, &[1], &sum_profit(), Some(&mask)).unwrap();
        assert_eq!(
            out.to_sorted_rows(),
            vec![
                vec![Value::from("France"), Value::Int(35)],
                vec![Value::from("Italy"), Value::Int(23)],
            ]
        );
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let t = TableBuilder::new(&[("a", DataType::Int), ("v", DataType::Int)])
            .unwrap()
            .build();
        let aggs = vec![LoweredAgg {
            expr: AggExpr::Sum { col: 1 },
            alias: "s".into(),
        }];
        let (out, stats) = group_by(&t, &[0], &aggs, None).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(stats.groups, 0);
    }

    #[test]
    fn parallel_matches_serial() {
        // Large-ish synthetic input exercising the merge path.
        let mut b = TableBuilder::new(&[
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("v", DataType::Int),
        ])
        .unwrap();
        for i in 0..1000i64 {
            b = b
                .row(&[
                    Value::Int(i % 7),
                    Value::from(if i % 3 == 0 { "x" } else { "y" }),
                    Value::Int(i),
                ])
                .unwrap();
        }
        let t = b.build();
        let aggs = vec![
            LoweredAgg {
                expr: AggExpr::Sum { col: 2 },
                alias: "sum_v".into(),
            },
            LoweredAgg {
                expr: AggExpr::Count,
                alias: "count_rows".into(),
            },
            LoweredAgg {
                expr: AggExpr::Min { col: 2 },
                alias: "min_v".into(),
            },
            LoweredAgg {
                expr: AggExpr::Max { col: 2 },
                alias: "max_v".into(),
            },
            LoweredAgg {
                expr: AggExpr::Avg { col: 2 },
                alias: "avg_v".into(),
            },
        ];
        let (serial, _) = group_by(&t, &[0, 1], &aggs, None).unwrap();
        for threads in [2, 3, 8] {
            let (par, _) = parallel_group_by(&t, &[0, 1], &aggs, None, threads).unwrap();
            assert_eq!(
                serial.to_sorted_rows(),
                par.to_sorted_rows(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_with_mask_matches_serial() {
        let mut b = TableBuilder::new(&[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
        for i in 0..500i64 {
            b = b.row(&[Value::Int(i % 5), Value::Int(i)]).unwrap();
        }
        let t = b.build();
        let mask: Vec<bool> = (0..500).map(|i| i % 2 == 0).collect();
        let aggs = vec![LoweredAgg {
            expr: AggExpr::Sum { col: 1 },
            alias: "s".into(),
        }];
        let (serial, _) = group_by(&t, &[0], &aggs, Some(&mask)).unwrap();
        let (par, _) = parallel_group_by(&t, &[0], &aggs, Some(&mask), 4).unwrap();
        assert_eq!(serial.to_sorted_rows(), par.to_sorted_rows());
    }

    #[test]
    fn output_follows_first_appearance_at_any_thread_count() {
        let mut b = TableBuilder::new(&[("s", DataType::Str), ("v", DataType::Int)]).unwrap();
        for i in 0..300i64 {
            // "g9", "g8", … first appear in that order, then repeat.
            b = b
                .row(&[Value::from(format!("g{}", 9 - i % 10)), Value::Int(i)])
                .unwrap();
        }
        let t = b.build();
        let aggs = vec![LoweredAgg {
            expr: AggExpr::Count,
            alias: "n".into(),
        }];
        let (serial, stats) = group_by(&t, &[0], &aggs, None).unwrap();
        let firsts: Vec<Value> = (0..10).map(|g| serial.row(g)[0].clone()).collect();
        let expected: Vec<Value> = (0..10)
            .map(|g| Value::from(format!("g{}", 9 - g)))
            .collect();
        assert_eq!(firsts, expected);
        for threads in [2, 3, 8] {
            // Equal tables, not merely equal row sets: order, codes, dictionary.
            assert_eq!(
                parallel_group_by(&t, &[0], &aggs, None, threads).unwrap(),
                (serial.clone(), stats)
            );
        }
    }

    #[test]
    fn keys_spanning_all_of_i64_are_grouped_exactly() {
        let mut b = TableBuilder::new(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("v", DataType::Int),
        ])
        .unwrap();
        let keys = [i64::MIN, i64::MAX, 0, i64::MAX, i64::MIN, -1];
        for (i, &a) in keys.iter().enumerate() {
            b = b
                .row(&[
                    Value::Int(a),
                    Value::Int(-a.max(-i64::MAX)),
                    Value::Int(i as i64),
                ])
                .unwrap();
        }
        let (out, _) = group_by(&b.build(), &[0, 1], &sum_profit(), None).unwrap();
        assert_eq!(
            out.to_rows(),
            vec![
                vec![Value::Int(i64::MIN), Value::Int(i64::MAX), Value::Int(4)],
                vec![Value::Int(i64::MAX), Value::Int(-i64::MAX), Value::Int(4)],
                vec![Value::Int(0), Value::Int(0), Value::Int(2)],
                vec![Value::Int(-1), Value::Int(1), Value::Int(5)],
            ]
        );
    }

    #[test]
    fn probe_matches_only_keys_the_build_side_holds() {
        let build = [KeySlice::Int(&[10, 20, 10]), KeySlice::Int(&[1, 1, 2])];
        let (layout, keys) = KeyLayout::build(&build, 3);
        let mut index = layout.resolver(3);
        assert_eq!(index.assign(&keys, None), vec![0, 1, 2]);
        // Same tuples, values outside each column's range, and a tuple
        // inside both ranges that was never inserted.
        let probe = [
            KeySlice::Int(&[10, 20, 10, 30, 10, 20]),
            KeySlice::Int(&[2, 1, 1, 1, 0, 2]),
        ];
        let found: Vec<Option<u32>> = layout
            .probe(&probe, 6)
            .into_iter()
            .map(|k| index.get(k))
            .collect();
        assert_eq!(found, vec![Some(2), Some(1), Some(0), None, None, None]);
    }

    #[test]
    fn small_input_falls_back_to_serial() {
        let t = sales();
        let (out, _) = parallel_group_by(&t, &[1], &sum_profit(), None, 8).unwrap();
        assert_eq!(out.num_rows(), 2);
    }
}
