//! Candidate-view generation.
//!
//! The paper assumes "a set of candidate materialized views that have
//! already been generated by an existing materialized view selection method
//! (e.g., \[8\])". Three generators of increasing selectivity stand in for
//! that method:
//!
//! * [`full_lattice`] — every non-base cuboid (exhaustive candidates;
//!   feasible for the paper's 16-cuboid lattice);
//! * [`workload_closure`] — the workload's own cuboids plus the pairwise
//!   least-common-ancestors that can serve several queries at once (the
//!   syntactic flavour of Baril & Bellahsene's cost-based approach);
//! * [`hru_greedy`] — the classical Harinarayan–Rajaraman–Ullman greedy
//!   benefit-per-unit-space selection, bounded to `k` views.

use crate::{Cuboid, Lattice, LatticeWorkload, SizeEstimator};

/// Every cuboid except the base (materializing the base cuboid would just
/// duplicate the fact table) and except the workload-irrelevant apex-only
/// case kept: the apex *is* a useful candidate (grand totals).
pub fn full_lattice(lattice: &Lattice) -> Vec<Cuboid> {
    let base = lattice.base();
    lattice
        .all_cuboids()
        .into_iter()
        .filter(|c| *c != base)
        .collect()
}

/// The workload's cuboids plus all pairwise LCAs, deduplicated, base
/// excluded. An LCA is the coarsest single view able to answer both of its
/// arguments, so this closure contains every "shared ancestor" worth
/// pricing.
pub fn workload_closure(lattice: &Lattice, workload: &LatticeWorkload) -> Vec<Cuboid> {
    let base = lattice.base();
    let mut out: Vec<Cuboid> = Vec::new();
    let mut push = |c: Cuboid| {
        if c != base && !out.contains(&c) {
            out.push(c);
        }
    };
    for q in &workload.queries {
        push(q.cuboid.clone());
    }
    for i in 0..workload.queries.len() {
        for j in i + 1..workload.queries.len() {
            push(workload.queries[i].cuboid.lca(&workload.queries[j].cuboid));
        }
    }
    out.sort();
    out
}

/// Scan cost of answering `q` given the selected set `sel` (plus the
/// always-available base): expected rows of the cheapest covering view.
fn answer_cost(lattice: &Lattice, est: &SizeEstimator, sel: &[Cuboid], q: &Cuboid) -> f64 {
    let mut best = est.base_rows as f64;
    for v in sel {
        if v.covers(q) {
            best = best.min(est.expected_rows(lattice, v));
        }
    }
    best
}

/// Harinarayan–Rajaraman–Ullman greedy selection: repeatedly pick the
/// non-base cuboid with the highest positive workload benefit per unit
/// of space given the views already picked, until `k` views are chosen
/// or no candidate helps. Returns the picks in selection order.
pub fn hru_greedy(
    lattice: &Lattice,
    est: &SizeEstimator,
    workload: &LatticeWorkload,
    k: usize,
) -> Vec<Cuboid> {
    let base = lattice.base();
    let mut selected: Vec<Cuboid> = Vec::new();
    for _ in 0..k {
        let mut best: Option<(f64, Cuboid)> = None;
        for cand in lattice.iter_cuboids() {
            if cand == base || selected.contains(&cand) {
                continue;
            }
            let rows = est.expected_rows(lattice, &cand).max(1.0);
            let mut benefit = 0.0;
            for q in &workload.queries {
                if cand.covers(&q.cuboid) {
                    let now = answer_cost(lattice, est, &selected, &q.cuboid);
                    let with = now.min(rows);
                    benefit += (now - with) * q.frequency;
                }
            }
            let per_space = benefit / rows;
            let better = match &best {
                None => per_space > 0.0,
                Some((b, _)) => per_space > *b,
            };
            if better {
                best = Some((per_space, cand));
            }
        }
        match best {
            Some((_, cand)) => selected.push(cand),
            None => break,
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::paper_workload;

    #[test]
    fn full_lattice_excludes_base() {
        let l = Lattice::paper_running_example();
        let cands = full_lattice(&l);
        assert_eq!(cands.len(), 15);
        assert!(!cands.contains(&l.base()));
        assert!(cands.contains(&l.apex()));
    }

    #[test]
    fn closure_covers_workload() {
        let l = Lattice::paper_running_example();
        let w = paper_workload(&l);
        let closure = workload_closure(&l, &w);
        // Every workload query is answerable by some closure member or by
        // the always-available base table (Q9 = day×department *is* the
        // base cuboid, so the closure rightly omits it).
        for q in &w.queries {
            assert!(
                q.cuboid == l.base() || closure.iter().any(|c| c.covers(&q.cuboid)),
                "{} uncovered",
                q.name
            );
        }
        // No base, no duplicates.
        assert!(!closure.contains(&l.base()));
        let mut dedup = closure.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), closure.len());
    }

    #[test]
    fn closure_includes_shared_ancestors() {
        let l = Lattice::paper_running_example();
        let w = paper_workload(&l).prefix(3); // year×country, month×country, year×region
        let closure = workload_closure(&l, &w);
        // LCA(month×country, year×region) = month×region.
        assert!(closure.contains(&Cuboid::new(vec![2, 2])));
    }

    #[test]
    fn hru_greedy_picks_useful_views() {
        let l = Lattice::paper_running_example();
        let est = SizeEstimator::new(1_000_000);
        let w = paper_workload(&l);
        let picks = hru_greedy(&l, &est, &w, 5);
        assert!(!picks.is_empty() && picks.len() <= 5);
        // Picks are distinct and never the base cuboid.
        let mut d = picks.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), picks.len());
        assert!(!picks.contains(&l.base()));
        // The first pick must benefit the most queries per space: it covers
        // at least one workload query.
        assert!(w.queries.iter().any(|q| picks[0].covers(&q.cuboid)));
    }

    #[test]
    fn hru_greedy_benefit_decreases_cost() {
        let l = Lattice::paper_running_example();
        let est = SizeEstimator::new(1_000_000);
        let w = paper_workload(&l);
        let picks = hru_greedy(&l, &est, &w, 4);
        // Total workload scan cost with the picks must be strictly lower
        // than scanning the base for everything.
        let base_cost = w.queries.len() as f64 * est.base_rows as f64;
        let with_cost: f64 = w
            .queries
            .iter()
            .map(|q| answer_cost(&l, &est, &picks, &q.cuboid))
            .sum();
        assert!(with_cost < base_cost);
    }

    #[test]
    fn hru_greedy_k_zero_is_empty() {
        let l = Lattice::paper_running_example();
        let est = SizeEstimator::new(1_000);
        let w = paper_workload(&l);
        assert!(hru_greedy(&l, &est, &w, 0).is_empty());
    }
}
