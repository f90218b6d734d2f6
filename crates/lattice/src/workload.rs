//! Lattice-level workloads.
//!
//! The paper's experimental workload: "10 queries that calculate the total
//! profit per day, month, year and per country, department, and region,
//! such as 'per year and per country'" — i.e. the nine time-level ×
//! geo-level combinations plus the grand total, run in variable subsets of
//! 3, 5 and 10 queries (its Figure 5).

use crate::{Cuboid, Lattice, LatticeError};

/// A query pinned to a lattice cuboid, with a monthly frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct LatticeQuery {
    /// Query identifier (`"Q1"`, …).
    pub name: String,
    /// The granularity the query groups at.
    pub cuboid: Cuboid,
    /// Executions per billing period (the paper's workload is fixed; 1.0
    /// means "once per period").
    pub frequency: f64,
}

impl LatticeQuery {
    /// A once-per-period query.
    pub fn once(name: impl Into<String>, cuboid: Cuboid) -> Self {
        LatticeQuery {
            name: name.into(),
            cuboid,
            frequency: 1.0,
        }
    }
}

/// An ordered set of lattice queries.
#[derive(Debug, Clone, PartialEq)]
pub struct LatticeWorkload {
    /// The queries.
    pub queries: Vec<LatticeQuery>,
}

impl LatticeWorkload {
    /// Wraps queries, validating them against `lattice`.
    pub fn new(lattice: &Lattice, queries: Vec<LatticeQuery>) -> Result<Self, LatticeError> {
        for q in &queries {
            lattice.check(&q.cuboid)?;
        }
        Ok(LatticeWorkload { queries })
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The first `n` queries (the paper's 3-/5-/10-query subsets).
    pub fn prefix(&self, n: usize) -> LatticeWorkload {
        LatticeWorkload {
            queries: self.queries.iter().take(n).cloned().collect(),
        }
    }

    /// Lowers the workload to engine-executable roll-up descriptions:
    /// each lattice-level query becomes its concrete group-by column
    /// set (the cuboid's key columns under `lattice`'s hierarchy
    /// encoding). This is the ONE place workload cuboids turn into
    /// group-by keys — the advisor's measurement pipeline and the
    /// calibration replay both lower through it, so they are guaranteed
    /// to execute the same queries.
    pub fn lower(&self, lattice: &Lattice) -> Vec<LoweredQuery> {
        self.queries
            .iter()
            .map(|q| LoweredQuery {
                name: q.name.clone(),
                group_by: lattice.key_columns(&q.cuboid),
                frequency: q.frequency,
            })
            .collect()
    }
}

/// A workload query lowered to its executable shape: a named group-by
/// over concrete columns, with its per-period frequency. Engine-agnostic
/// on purpose — the lattice crate does not depend on the engine; callers
/// turn this into an `AggQuery` by adding the measure aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredQuery {
    /// Query identifier.
    pub name: String,
    /// The concrete group-by key (hierarchy prefix columns).
    pub group_by: Vec<String>,
    /// Executions per billing period.
    pub frequency: f64,
}

/// The paper's 10-query workload over the running-example lattice, ordered
/// so its 3- and 5-query prefixes are meaningful mixes of granularities:
///
/// 1. `Q1` year×country  2. `Q2` month×country  3. `Q3` year×region
/// 4. `Q4` month×region  5. `Q5` day×country    6. `Q6` year×department
/// 7. `Q7` day×region    8. `Q8` month×department
/// 9. `Q9` day×department  10. `Q10` grand total.
pub fn paper_workload(lattice: &Lattice) -> LatticeWorkload {
    // Level indices: time 0=ALL,1=year,2=month,3=day; geo 0=ALL,1=country,
    // 2=region,3=department.
    let combos: [(u8, u8); 10] = [
        (1, 1),
        (2, 1),
        (1, 2),
        (2, 2),
        (3, 1),
        (1, 3),
        (3, 2),
        (2, 3),
        (3, 3),
        (0, 0),
    ];
    let queries = combos
        .iter()
        .enumerate()
        .map(|(i, (t, g))| LatticeQuery::once(format!("Q{}", i + 1), Cuboid::new(vec![*t, *g])))
        .collect();
    LatticeWorkload::new(lattice, queries).expect("paper workload fits the paper lattice")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_shape() {
        let l = Lattice::paper_running_example();
        let w = paper_workload(&l);
        assert_eq!(w.len(), 10);
        assert_eq!(w.queries[0].name, "Q1");
        assert_eq!(l.label(&w.queries[0].cuboid), "year×country");
        assert_eq!(l.label(&w.queries[9].cuboid), "ALL×ALL");
        // Distinct cuboids.
        let mut cs: Vec<_> = w.queries.iter().map(|q| q.cuboid.clone()).collect();
        cs.sort();
        cs.dedup();
        assert_eq!(cs.len(), 10);
    }

    #[test]
    fn prefixes() {
        let l = Lattice::paper_running_example();
        let w = paper_workload(&l);
        assert_eq!(w.prefix(3).len(), 3);
        assert_eq!(w.prefix(5).len(), 5);
        assert_eq!(w.prefix(100).len(), 10);
        assert!(!w.prefix(3).is_empty());
        assert!(w.prefix(0).is_empty());
    }

    #[test]
    fn validation_rejects_foreign_cuboids() {
        let l = Lattice::paper_running_example();
        let bad = LatticeWorkload::new(&l, vec![LatticeQuery::once("q", Cuboid::new(vec![9, 9]))]);
        assert!(bad.is_err());
    }

    #[test]
    fn frequencies_default_to_once() {
        let q = LatticeQuery::once("q", Cuboid::new(vec![1, 1]));
        assert_eq!(q.frequency, 1.0);
    }
}
