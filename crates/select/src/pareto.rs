//! The (time, cost) solution space and its Pareto frontier.
//!
//! The paper's Figures 2–4 sketch the solution space of each scenario as a
//! scatter of (processing time, monetary cost) points with the chosen
//! solution highlighted. This module regenerates that picture exactly:
//! every subset's true evaluation, the non-dominated frontier, and an
//! ASCII rendering for the `solution_space` experiment binary.
//!
//! Enumeration runs through the [`crate::IncrementalEvaluator`] in ascending
//! mask order (amortized two O(m) flips per subset instead of an
//! O(n·m) re-evaluation), and fans out across threads above the
//! exhaustive sweep's fixed pool size — each thread sweeps a contiguous
//! mask range with its own evaluator and the chunks are concatenated in
//! order, so the output is identical to the serial sweep for any thread
//! count.

use mv_units::{Hours, Money};

use crate::SelectionProblem;

/// One point of the solution space.
#[derive(Debug, Clone)]
pub struct SpacePoint {
    /// The subset, encoded as a bitmask over the candidate list.
    pub mask: u64,
    /// True processing time of the subset.
    pub time: Hours,
    /// True total cost of the subset.
    pub cost: Money,
    /// Whether the point is Pareto-optimal (no other point is faster and
    /// cheaper).
    pub on_frontier: bool,
}

/// Enumerates the full solution space (≤ 20 candidates) with frontier
/// marking, sorted by time ascending. Thread count is chosen
/// automatically; the result is identical for every thread count.
pub fn solution_space(problem: &SelectionProblem) -> Vec<SpacePoint> {
    solution_space_with_threads(problem, crate::sweep::auto_threads(problem.len()))
}

/// [`solution_space`] with an explicit thread count (1 = serial).
fn solution_space_with_threads(problem: &SelectionProblem, threads: usize) -> Vec<SpacePoint> {
    let n = problem.len();
    assert!(n <= 20, "solution space over {n} candidates is too large");
    let total: u64 = 1u64 << n;
    let threads = threads.max(1).min(total as usize);

    let chunks = crate::sweep::chunked(total, threads, |lo, hi| {
        let mut out = Vec::with_capacity((hi - lo) as usize);
        crate::sweep::sweep_masks(problem, lo, hi, |mask, ev| {
            let e = ev.score();
            out.push(SpacePoint {
                mask,
                time: e.time,
                cost: e.cost(),
                on_frontier: false,
            });
        });
        out
    });
    let mut points: Vec<SpacePoint> = chunks.into_iter().flatten().collect();

    points.sort_by(|a, b| a.time.cmp_total(b.time).then(a.cost.cmp(&b.cost)));
    // Sweep: a point is on the frontier iff its cost is strictly below
    // every earlier (faster-or-equal) point's cost.
    let mut best_cost = Money::MAX;
    for p in &mut points {
        if p.cost < best_cost {
            p.on_frontier = true;
            best_cost = p.cost;
        }
    }
    points
}

/// Renders the space as an ASCII scatter (time on x, cost on y), marking
/// frontier points `o`, dominated points `·`, and `highlight_mask` (the
/// scenario's chosen solution) `X`.
pub fn render_ascii(
    points: &[SpacePoint],
    highlight_mask: u64,
    width: usize,
    height: usize,
) -> String {
    assert!(width >= 10 && height >= 5, "canvas too small");
    let (mut tmin, mut tmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut cmin, mut cmax) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in points {
        tmin = tmin.min(p.time.value());
        tmax = tmax.max(p.time.value());
        cmin = cmin.min(p.cost.to_dollars_f64());
        cmax = cmax.max(p.cost.to_dollars_f64());
    }
    let tspan = (tmax - tmin).max(1e-12);
    let cspan = (cmax - cmin).max(1e-12);
    let mut canvas = vec![vec![' '; width]; height];
    let place = |v: f64, lo: f64, span: f64, cells: usize| -> usize {
        (((v - lo) / span) * (cells - 1) as f64).round() as usize
    };
    // Draw dominated first so frontier and highlight overwrite them.
    for pass in 0..3 {
        for p in points {
            let glyph = if p.mask == highlight_mask {
                'X'
            } else if p.on_frontier {
                'o'
            } else {
                '·'
            };
            let order = match glyph {
                '·' => 0,
                'o' => 1,
                _ => 2,
            };
            if order != pass {
                continue;
            }
            let x = place(p.time.value(), tmin, tspan, width);
            // Cost grows upward: invert the row index.
            let y = height - 1 - place(p.cost.to_dollars_f64(), cmin, cspan, height);
            canvas[y][x] = glyph;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("cost ${cmax:.2}\n"));
    for row in canvas {
        out.push_str("  |");
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!(
        "  +{}\n   ${cmin:.2}  time {tmin:.3}h → {tmax:.3}h   (o frontier · dominated X chosen)",
        "-".repeat(width)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_like_problem, random_problem};
    use mv_cost::SelectionSet;

    #[test]
    fn space_has_all_subsets() {
        let p = paper_like_problem();
        let pts = solution_space(&p);
        assert_eq!(pts.len(), 1 << p.len());
        // Masks are unique.
        let mut masks: Vec<u64> = pts.iter().map(|p| p.mask).collect();
        masks.sort();
        masks.dedup();
        assert_eq!(masks.len(), pts.len());
    }

    #[test]
    fn incremental_points_match_full_evaluation() {
        let p = random_problem(5, 3, 7);
        for pt in solution_space(&p) {
            let e = p.evaluate(&SelectionSet::from_mask(pt.mask, p.len()));
            assert_eq!(pt.time, e.time, "mask {}", pt.mask);
            assert_eq!(pt.cost, e.cost(), "mask {}", pt.mask);
        }
    }

    #[test]
    fn threaded_space_matches_serial() {
        let p = random_problem(11, 4, 8);
        let serial = solution_space_with_threads(&p, 1);
        for threads in [2, 5] {
            let par = solution_space_with_threads(&p, threads);
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.mask, b.mask);
                assert_eq!(a.time, b.time);
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.on_frontier, b.on_frontier);
            }
        }
    }

    #[test]
    fn frontier_is_nondominated_and_sorted() {
        let p = paper_like_problem();
        let all = solution_space(&p);
        let f: Vec<&SpacePoint> = all.iter().filter(|pt| pt.on_frontier).collect();
        assert!(!f.is_empty());
        for w in f.windows(2) {
            // Time strictly increases, cost strictly decreases.
            assert!(w[0].time < w[1].time);
            assert!(w[0].cost > w[1].cost);
        }
        // No point in the space strictly dominates a frontier point.
        for fp in &f {
            for q in &all {
                let weakly_dominates = q.time <= fp.time && q.cost <= fp.cost;
                let strictly_better = q.time < fp.time || q.cost < fp.cost;
                assert!(
                    !(weakly_dominates && strictly_better),
                    "frontier point dominated by mask {}",
                    q.mask
                );
            }
        }
    }

    #[test]
    fn empty_and_full_masks_present() {
        let p = paper_like_problem();
        let pts = solution_space(&p);
        assert!(pts.iter().any(|pt| pt.mask == 0));
        assert!(pts.iter().any(|pt| pt.mask == (1 << p.len()) - 1));
    }

    #[test]
    fn ascii_rendering_contains_markers() {
        let p = paper_like_problem();
        let pts = solution_space(&p);
        let chosen = pts.iter().find(|pt| pt.on_frontier).unwrap().mask;
        let text = render_ascii(&pts, chosen, 40, 12);
        assert!(text.contains('X'));
        assert!(text.contains('o') || text.contains('·'));
        assert!(text.contains("time"));
    }

    #[test]
    #[should_panic(expected = "canvas too small")]
    fn tiny_canvas_panics() {
        let p = paper_like_problem();
        let pts = solution_space(&p);
        render_ascii(&pts, 0, 2, 2);
    }
}

#[cfg(test)]
mod space_solver_tests {
    use super::*;
    use crate::fixtures::{paper_like_problem, random_problem};
    use crate::{solve_exhaustive, Evaluation, Scenario};
    use mv_cost::SelectionSet;
    use mv_units::{Hours, Money as M};

    /// Solves any scenario directly from the enumerated solution space — every
    /// constrained optimum lies on the Pareto frontier, so scanning the space
    /// is a complete (if exponential) solver. Exists as an independent
    /// cross-check of [`crate::solve_exhaustive`]: the two must always agree
    /// (property-tested), and disagreement would indicate a bug in either the
    /// frontier sweep or the scenario ordering. Deliberately re-evaluates
    /// every subset through [`SelectionProblem::evaluate`] — the slow,
    /// non-incremental path — so it also cross-checks the evaluator.
    fn solve_via_space(problem: &SelectionProblem, scenario: Scenario) -> crate::Outcome {
        let baseline = problem.baseline();
        let n = problem.len();
        let mut best: Option<Evaluation> = None;
        for p in solution_space(problem) {
            let e = problem.evaluate(&SelectionSet::from_mask(p.mask, n));
            let better = match &best {
                None => true,
                Some(b) => scenario.better(&e, b, &baseline),
            };
            if better {
                best = Some(e);
            }
        }
        crate::Outcome::new(
            best.unwrap_or_else(|| baseline.clone()),
            baseline,
            scenario,
            crate::SolverKind::Exhaustive,
        )
    }

    #[test]
    fn agrees_with_exhaustive_on_all_scenarios() {
        let p = paper_like_problem();
        let scenarios = [
            Scenario::budget(p.baseline().cost() + M::from_cents(40)),
            Scenario::time_limit(Hours::new(0.3)),
            Scenario::tradeoff_normalized(0.4),
        ];
        for s in scenarios {
            let a = solve_via_space(&p, s);
            let b = solve_exhaustive(&p, s);
            assert_eq!(a.feasible(), b.feasible(), "{s:?}");
            assert!((a.objective() - b.objective()).abs() < 1e-12, "{s:?}");
        }
    }

    #[test]
    fn agrees_on_random_instances() {
        for seed in 0..8 {
            let p = random_problem(seed, 3, 5);
            let s = Scenario::tradeoff_normalized(0.6);
            let a = solve_via_space(&p, s);
            let b = solve_exhaustive(&p, s);
            assert!((a.objective() - b.objective()).abs() < 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn constrained_optima_lie_on_the_frontier() {
        let p = paper_like_problem();
        let space = solution_space(&p);
        for s in [
            Scenario::budget(p.baseline().cost() + M::from_dollars(1)),
            Scenario::time_limit(Hours::new(0.5)),
        ] {
            let o = solve_exhaustive(&p, s);
            if !o.feasible() {
                continue;
            }
            // Find the chosen point in the space and check the frontier flag.
            let mask = o.evaluation.selection.as_mask();
            let point = space.iter().find(|pt| pt.mask == mask).expect("in space");
            assert!(point.on_frontier, "{s:?} chose a dominated point");
        }
    }
}
