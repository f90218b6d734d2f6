//! Synthetic sparse coverage at scale: the shape generator behind the
//! n = 2 000 / m = 50 000 evaluator benchmarks.
//!
//! Real lattices at that size are too expensive to enumerate per bench
//! iteration, and the evaluator only ever sees a problem through its
//! *coverage structure* — which candidate answers which query, how much
//! faster. [`ScaleShape::sparse_coverage`] produces exactly that
//! structure as a CSR triple (offsets / query ids / speedups), in pure
//! numbers with no costing attached, so `mv-cost`-level charge
//! construction stays where the cost models live (`mvcloud`'s
//! `scale_problem`). Generation is deterministic per seed and
//! allocation-lean: one pass per candidate, ids emitted ascending.
//!
//! Two skews keep the synthetic shape honest to a roll-up lattice:
//!
//! * **degree skew** — candidate answer-list lengths follow a rough
//!   power law around [`ScaleShape::mean_coverage`] (a few broad
//!   cuboids answer many queries; most answer a handful), and
//! * **popularity skew** — answer lists cluster around per-candidate
//!   anchor queries rather than spraying uniformly, so some queries
//!   collect many answerers (long rows in the evaluator's by-query
//!   index) while most keep one or two.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters of a synthetic sparse workload/candidate shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleShape {
    /// Workload queries (`m`).
    pub queries: usize,
    /// Candidate views (`n`).
    pub candidates: usize,
    /// Mean answer-list length per candidate; individual degrees skew
    /// around it between `1` and roughly `8×` the mean.
    pub mean_coverage: usize,
    /// Generation seed.
    pub seed: u64,
}

impl ScaleShape {
    /// Generates the shape's coverage structure.
    pub fn sparse_coverage(&self) -> SparseCoverage {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x4c_6174_7469_6365);
        let m = self.queries;
        let mut offsets = Vec::with_capacity(self.candidates + 1);
        let mut query_ids = Vec::new();
        let mut speedups = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        offsets.push(0u32);
        for _ in 0..self.candidates {
            // Degree: power-law-ish around the mean — u⁻² keeps most
            // candidates near 1–2× the mean and a thin tail out to 8×.
            let u = rng.random_range(0.0..1.0).max(1e-9);
            let deg = ((self.mean_coverage as f64 * 0.5 / u.sqrt()) as usize)
                .clamp(1, (8 * self.mean_coverage).min(m.max(1)));
            // Answer list: cluster around an anchor query with a window
            // a few times the degree, plus occasional far jumps, so
            // answerers pile up on popular queries.
            let anchor = (rng.next_u64() as usize) % m.max(1);
            let window = (deg * 6).max(8).min(m.max(1));
            scratch.clear();
            while scratch.len() < deg {
                let q = if rng.random_range(0.0..1.0) < 0.85 {
                    (anchor + (rng.next_u64() as usize) % window) % m
                } else {
                    (rng.next_u64() as usize) % m
                };
                scratch.push(q as u32);
            }
            scratch.sort_unstable();
            scratch.dedup();
            for &q in scratch.iter() {
                query_ids.push(q);
                // Speedup factor in (0, 1): answering time = base × f,
                // between 50× faster and 2× faster than the base scan.
                speedups.push(rng.random_range(0.02..0.5));
            }
            offsets.push(query_ids.len() as u32);
        }
        SparseCoverage {
            queries: m,
            offsets,
            query_ids,
            speedups,
        }
    }
}

/// CSR coverage structure: candidate `k`'s answer list is
/// `query_ids[offsets[k]..offsets[k+1]]` (strictly ascending) with the
/// parallel `speedups` slice giving each answer's time as a fraction of
/// the query's base time.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCoverage {
    /// Workload size the query ids index into.
    pub queries: usize,
    /// Per-candidate span boundaries, `candidates + 1` entries.
    pub offsets: Vec<u32>,
    /// Concatenated answer lists.
    pub query_ids: Vec<u32>,
    /// Parallel speedup fractions in `(0, 1)`.
    pub speedups: Vec<f64>,
}

impl SparseCoverage {
    /// Number of candidates.
    pub fn candidates(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Candidate `k`'s answer list as parallel (ids, speedups) slices.
    pub fn answer_list(&self, k: usize) -> (&[u32], &[f64]) {
        let lo = self.offsets[k] as usize;
        let hi = self.offsets[k + 1] as usize;
        (&self.query_ids[lo..hi], &self.speedups[lo..hi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScaleShape {
        ScaleShape {
            queries: 500,
            candidates: 40,
            mean_coverage: 6,
            seed: 7,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small().sparse_coverage();
        let b = small().sparse_coverage();
        assert_eq!(a, b);
        let c = ScaleShape { seed: 8, ..small() }.sparse_coverage();
        assert_ne!(a, c);
    }

    #[test]
    fn lists_are_ascending_unique_and_in_range() {
        let cov = small().sparse_coverage();
        assert_eq!(cov.candidates(), 40);
        for k in 0..cov.candidates() {
            let (ids, ups) = cov.answer_list(k);
            assert!(!ids.is_empty(), "candidate {k} answers nothing");
            assert_eq!(ids.len(), ups.len());
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            assert!(ids.iter().all(|&q| (q as usize) < cov.queries));
            assert!(ups.iter().all(|&f| f > 0.0 && f < 1.0));
        }
    }

    #[test]
    fn shape_is_sparse_with_popularity_skew() {
        let cov = small().sparse_coverage();
        // Far from dense…
        let entries = cov.query_ids.len();
        assert!(entries < 500 * 40 / 10, "dense: {entries}");
        // …and clustered: some query has strictly more answerers than
        // the uniform expectation.
        let mut per_query = vec![0usize; cov.queries];
        for &q in &cov.query_ids {
            per_query[q as usize] += 1;
        }
        let max = per_query.iter().max().copied().unwrap();
        assert!(max >= 3, "no popular query emerged: max degree {max}");
    }
}
