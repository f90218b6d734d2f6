//! Sparse per-view answer profiles.
//!
//! A candidate view in a production-scale lattice answers a handful of
//! the workload's queries, not most of them: at n = 2 000 candidates and
//! m = 50 000 queries the historical dense `Vec<Option<Hours>>` per view
//! would hold 100 million mostly-`None` slots (~1.6 GB), while the views
//! that actually matter carry a few dozen entries each. [`AnswerProfile`]
//! stores only the answered queries, as two parallel arrays — ascending
//! query ids and their answer times — so the evaluator's probe loops walk
//! contiguous memory and the profile's footprint scales with what the
//! view can do, not with the workload size.

use mv_units::Hours;

/// Which workload queries a view can answer, and how fast: the sparse
/// `t_iV` map of the paper's Section 4, keyed by workload index.
///
/// Invariants: `queries` is strictly ascending (no duplicates), every id
/// is `< workload_len`, and `times` is index-parallel to `queries`.
/// Equality compares the workload length and the entry set — exactly the
/// distinctions the dense representation's `Vec` equality drew.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerProfile {
    workload_len: u32,
    queries: Vec<u32>,
    times: Vec<Hours>,
}

impl AnswerProfile {
    /// The "answers nothing" profile over a `workload_len`-query workload.
    pub fn none(workload_len: usize) -> Self {
        AnswerProfile {
            workload_len: u32::try_from(workload_len).expect("workload fits in u32"),
            queries: Vec::new(),
            times: Vec::new(),
        }
    }

    /// The workload length this profile is aligned to (counting
    /// unanswered queries).
    pub fn workload_len(&self) -> usize {
        self.workload_len as usize
    }

    /// Number of queries this view answers (the profile's degree).
    pub fn answered(&self) -> usize {
        self.queries.len()
    }

    /// The answer time for workload query `index`, or `None` when the
    /// view cannot answer it. O(log degree).
    pub fn get(&self, index: usize) -> Option<Hours> {
        assert!(
            index < self.workload_len as usize,
            "query {index} out of a {}-query workload",
            self.workload_len
        );
        self.queries
            .binary_search(&(index as u32))
            .ok()
            .map(|pos| self.times[pos])
    }

    /// Declares (or re-times) an answer for workload query `index`.
    /// Appending in ascending order is O(1); out-of-order inserts shift.
    pub fn set(&mut self, index: usize, time: Hours) {
        assert!(
            index < self.workload_len as usize,
            "query {index} out of a {}-query workload",
            self.workload_len
        );
        let id = index as u32;
        if self.queries.last().is_none_or(|&last| last < id) {
            self.queries.push(id);
            self.times.push(time);
            return;
        }
        match self.queries.binary_search(&id) {
            Ok(pos) => self.times[pos] = time,
            Err(pos) => {
                self.queries.insert(pos, id);
                self.times.insert(pos, time);
            }
        }
    }

    /// The answered queries as `(workload index, time)`, ascending.
    pub fn entries(&self) -> impl Iterator<Item = (usize, Hours)> + '_ {
        self.queries
            .iter()
            .zip(&self.times)
            .map(|(&i, &t)| (i as usize, t))
    }

    /// The answered query ids, ascending. Index-parallel to
    /// [`AnswerProfile::times`].
    pub fn query_ids(&self) -> &[u32] {
        &self.queries
    }

    /// The answer times, parallel to [`AnswerProfile::query_ids`].
    pub fn times(&self) -> &[Hours] {
        &self.times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_roundtrip_matches_dense() {
        let dense = [None, Some(Hours::new(0.5)), None, Some(Hours::new(0.1))];
        let mut p = AnswerProfile::none(dense.len());
        for (i, t) in dense.iter().enumerate() {
            if let Some(t) = *t {
                p.set(i, t);
            }
        }
        assert_eq!(p.workload_len(), 4);
        assert_eq!(p.answered(), 2);
        for (i, t) in dense.iter().enumerate() {
            assert_eq!(p.get(i), *t);
        }
        assert_eq!(
            p.entries().collect::<Vec<_>>(),
            vec![(1, Hours::new(0.5)), (3, Hours::new(0.1))]
        );
    }

    #[test]
    fn out_of_order_set_keeps_ascending_order() {
        let mut p = AnswerProfile::none(5);
        p.set(4, Hours::new(0.4));
        p.set(1, Hours::new(0.1));
        p.set(2, Hours::new(0.2));
        assert_eq!(p.query_ids(), &[1, 2, 4]);
        // Re-timing an existing entry overwrites in place.
        p.set(2, Hours::new(0.9));
        assert_eq!(p.answered(), 3);
        assert_eq!(p.get(2), Some(Hours::new(0.9)));
    }

    #[test]
    fn equality_tracks_workload_length_and_entries() {
        let a = AnswerProfile::none(3);
        let b = AnswerProfile::none(4);
        assert_ne!(a, b);
        let mut c = AnswerProfile::none(3);
        c.set(1, Hours::new(0.2));
        assert_ne!(a, c);
        let mut d = AnswerProfile::none(3);
        d.set(1, Hours::new(0.2));
        assert_eq!(c, d);
    }

    #[test]
    fn empty_profile_reports_answering_nothing() {
        let p = AnswerProfile::none(2);
        assert_eq!(p.answered(), 0);
        assert_eq!(p.times(), &[]);
    }

    #[test]
    #[should_panic(expected = "out of a")]
    fn get_past_workload_panics() {
        AnswerProfile::none(2).get(2);
    }

    #[test]
    #[should_panic(expected = "out of a")]
    fn set_past_workload_panics() {
        AnswerProfile::none(2).set(5, Hours::new(1.0));
    }
}
