//! View maintenance: full recomputation vs incremental refresh.
//!
//! The paper charges a maintenance time `t_maintenance(V_k)` per view per
//! period but does not prescribe a method ("queries are posed during
//! day-time and maintenance is performed during night-time"). Both classic
//! strategies are implemented so the maintenance ablation (A3: the
//! `ablation_maintenance` group of `--bench micro`) can quantify the
//! difference the choice makes to the cost models:
//!
//! * **Full** — rerun the view's defining query over the whole base table;
//! * **Incremental** — aggregate only the day's insert delta and merge the
//!   partial states into the stored table (valid for insert-only deltas;
//!   `MIN`/`MAX` stay correct because inserts can only tighten them).

use crate::groupby::{KeyLayout, KeySlice};
use crate::{AggFunc, Column, EngineError, ExecStats, MaterializedView, Table};

impl MaterializedView {
    /// Fully recomputes this view from `base` (which must already contain
    /// any new rows). Returns the work performed.
    pub fn refresh_full(&mut self, base: &Table) -> Result<ExecStats, EngineError> {
        let rebuilt = MaterializedView::materialize(self.def().clone(), base)?;
        let stats = *rebuilt.build_stats();
        *self = rebuilt;
        Ok(stats)
    }

    /// Incrementally merges the insert-only `delta` (same schema as the
    /// base table) into the stored table. Returns the work performed —
    /// proportional to the delta, not the base, which is the whole point.
    ///
    /// The delta is aggregated at the view's granularity; its (few) groups
    /// are indexed by packed key, in the stored table's dictionary code
    /// space, and the stored rows are scanned once, probing that index.
    /// Matched groups merge in place, the rest are appended in the delta's
    /// group order. A `SUM`/`COUNT` that would leave `i64` is reported as
    /// [`EngineError::AggregateOverflow`] before anything is written.
    pub fn refresh_incremental(&mut self, delta: &Table) -> Result<ExecStats, EngineError> {
        // Aggregate the delta at the view's granularity.
        let (partial, mut stats) = self.def().as_query().execute(delta)?;

        // The partial and the stored table share an identical schema
        // (both produced by the same defining query).
        if partial.schema() != self.data().schema() {
            return Err(EngineError::SchemaMismatch);
        }
        let n_keys = self.def().group_by.len();
        let data = self.data();

        // String keys only compare within one dictionary: translate the
        // partial's codes into the stored table's, one lookup per distinct
        // string. A group with a string the stored table lacks is new.
        let mut untranslatable = vec![false; partial.num_rows()];
        let translated: Vec<Option<Vec<u32>>> = (0..n_keys)
            .map(|i| match (partial.column(i), data.column(i)) {
                (Column::Int(_), Column::Int(_)) => Ok(None),
                (Column::Str { codes, dict }, Column::Str { dict: stored, .. }) => {
                    let remap: Vec<Option<u32>> =
                        dict.iter().map(|(_, s)| stored.lookup(s)).collect();
                    let codes = codes.iter().zip(&mut untranslatable).map(|(&c, un)| {
                        *un |= remap[c as usize].is_none();
                        remap[c as usize].unwrap_or(0)
                    });
                    Ok(Some(codes.collect()))
                }
                _ => Err(EngineError::SchemaMismatch),
            })
            .collect::<Result<_, _>>()?;
        let partial_keys: Vec<KeySlice<'_>> = (0..n_keys)
            .map(|i| match (&translated[i], data.column(i)) {
                (Some(codes), Column::Str { dict, .. }) => KeySlice::Codes {
                    codes,
                    domain: dict.len(),
                },
                _ => KeySlice::of(partial.column(i)),
            })
            .collect();

        // Index the partial's groups, then probe with every stored row.
        let (layout, keys) = KeyLayout::build(&partial_keys, partial.num_rows());
        let mut index = layout.resolver(partial.num_rows());
        let mut indexed: Vec<usize> = Vec::new();
        for (prow, &key) in keys.iter().enumerate() {
            if !untranslatable[prow] {
                index.get_or_insert(key);
                indexed.push(prow);
            }
        }
        let stored_keys: Vec<KeySlice<'_>> =
            (0..n_keys).map(|i| KeySlice::of(data.column(i))).collect();
        let mut matches: Vec<(usize, usize)> = Vec::new();
        let mut is_new = vec![true; partial.num_rows()];
        for (row, &key) in layout
            .probe(&stored_keys, data.num_rows())
            .iter()
            .enumerate()
        {
            if let Some(id) = index.get(key) {
                let prow = indexed[id as usize];
                matches.push((row, prow));
                is_new[prow] = false;
            }
        }

        // Merge measures of matched groups; nothing is written until every
        // merged value is known to fit.
        let mut merged: Vec<Vec<i64>> = Vec::with_capacity(self.def().measures.len());
        for (m, spec) in self.def().measures.iter().enumerate() {
            let current = data.column(n_keys + m).as_int()?;
            let incoming = partial.column(n_keys + m).as_int()?;
            let merge = |&(row, prow): &(usize, usize)| {
                let (cur, inc) = (current[row], incoming[prow]);
                match spec.func() {
                    AggFunc::Sum | AggFunc::Count => {
                        cur.checked_add(inc)
                            .ok_or_else(|| EngineError::AggregateOverflow {
                                aggregate: spec.alias.clone(),
                            })
                    }
                    AggFunc::Min => Ok(cur.min(inc)),
                    AggFunc::Max => Ok(cur.max(inc)),
                    AggFunc::Avg => unreachable!("canonical views never store Avg"),
                }
            };
            merged.push(matches.iter().map(merge).collect::<Result<_, _>>()?);
        }
        let data = self.data_mut_internal();
        for (m, values) in merged.iter().enumerate() {
            let stored = data.column_mut(n_keys + m).int_values_mut();
            for (&(row, _), &v) in matches.iter().zip(values) {
                stored[row] = v;
            }
        }

        // New groups: append the partial rows wholesale.
        for prow in (0..partial.num_rows()).filter(|&prow| is_new[prow]) {
            data.push_row(&partial.row(prow))?;
            stats.rows_out += 1;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggQuery, AggSpec, DataType, TableBuilder, Value, ViewDefinition};

    fn base() -> Table {
        TableBuilder::new(&[
            ("year", DataType::Int),
            ("country", DataType::Str),
            ("profit", DataType::Int),
        ])
        .unwrap()
        .row(&[2000.into(), "France".into(), 35.into()])
        .unwrap()
        .row(&[2000.into(), "Italy".into(), 23.into()])
        .unwrap()
        .row(&[1999.into(), "Italy".into(), 50.into()])
        .unwrap()
        .build()
    }

    fn delta() -> Table {
        TableBuilder::new(&[
            ("year", DataType::Int),
            ("country", DataType::Str),
            ("profit", DataType::Int),
        ])
        .unwrap()
        // Existing group.
        .row(&[2000.into(), "France".into(), 5.into()])
        .unwrap()
        // New group with a new dictionary string.
        .row(&[2001.into(), "Spain".into(), 7.into()])
        .unwrap()
        .build()
    }

    fn view() -> MaterializedView {
        let def = ViewDefinition::canonical(
            "v",
            &["year", "country"],
            &[
                AggSpec::sum("profit"),
                AggSpec::min("profit"),
                AggSpec::max("profit"),
            ],
        );
        MaterializedView::materialize(def, &base()).unwrap()
    }

    fn base_after() -> Table {
        let mut b = base();
        b.append(&delta()).unwrap();
        b
    }

    #[test]
    fn incremental_equals_full() {
        let mut inc = view();
        let mut full = view();
        inc.refresh_incremental(&delta()).unwrap();
        full.refresh_full(&base_after()).unwrap();
        assert_eq!(inc.data().to_sorted_rows(), full.data().to_sorted_rows());
    }

    #[test]
    fn incremental_work_proportional_to_delta() {
        let mut v = view();
        let stats = v.refresh_incremental(&delta()).unwrap();
        // Scanned the 2-row delta, not the 5-row base.
        assert_eq!(stats.rows_scanned, 2);
        let mut v2 = view();
        let full_stats = v2.refresh_full(&base_after()).unwrap();
        assert_eq!(full_stats.rows_scanned, 5);
    }

    #[test]
    fn refreshed_view_answers_queries_correctly() {
        let mut v = view();
        v.refresh_incremental(&delta()).unwrap();
        let q = AggQuery::new(
            "q",
            &["country"],
            vec![
                AggSpec::sum("profit"),
                AggSpec::min("profit"),
                AggSpec::max("profit"),
                AggSpec::count(),
                AggSpec::avg("profit"),
            ],
        );
        let (from_view, _) = v.answer(&q).unwrap();
        let (from_base, _) = q.execute(&base_after()).unwrap();
        assert_eq!(from_view.to_sorted_rows(), from_base.to_sorted_rows());
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let mut v = view();
        let before = v.data().to_sorted_rows();
        let empty = TableBuilder::new(&[
            ("year", DataType::Int),
            ("country", DataType::Str),
            ("profit", DataType::Int),
        ])
        .unwrap()
        .build();
        let stats = v.refresh_incremental(&empty).unwrap();
        assert_eq!(stats.rows_scanned, 0);
        assert_eq!(v.data().to_sorted_rows(), before);
    }

    #[test]
    fn repeated_increments_accumulate() {
        let mut v = view();
        v.refresh_incremental(&delta()).unwrap();
        v.refresh_incremental(&delta()).unwrap();
        let q = AggQuery::new("q", &[], vec![AggSpec::sum("profit")]);
        let (out, _) = v.answer(&q).unwrap();
        // 108 base + 2×12 delta.
        assert_eq!(out.row(0), vec![Value::Int(132)]);
    }
}
