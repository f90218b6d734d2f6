//! Shared benchmark shapes and criterion configuration.
//!
//! Every micro-bench in `benches/` measures against one of these
//! problem shapes; all are defined HERE so a shape change (or a new
//! ROADMAP ledger baseline) edits one file, not five:
//!
//! * the **hot-path shape** — n = [`HOT_CANDIDATES`] candidates over
//!   m = [`HOT_QUERIES`] queries, the streaming/churn regime the
//!   evaluator/churn/horizon/market/fleet ratios are recorded at;
//! * the **scale shape** — n = 2 000 / m = 50 000 sparse coverage
//!   ([`mv_lattice::ScaleShape::benchmark`]), the regime
//!   `benches/scale.rs` certifies microsecond probes on;
//! * the **resident shape** — n = 256 / m = 4 096 at the same coverage,
//!   the catalog a long-lived `AdvisorService` stands on
//!   ([`resident_shape`]).

use criterion::Criterion;
use mv_lattice::ScaleShape;
use mv_select::{fixtures, SelectionProblem};

/// Short measurement windows keep `cargo bench --workspace` minutes,
/// not hours; absolute numbers matter less than the relative shapes.
pub fn fast_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}

/// [`fast_config`] with an explicit sample size — the scale bench runs
/// n = 2 000 solves where even 20 samples would take minutes.
pub fn fast_config_samples(samples: usize) -> Criterion {
    fast_config().sample_size(samples.max(10))
}

/// The hot-path workload size (m): the paper's larger experiment
/// workloads run tens of queries, and m is the dimension a probe must
/// *not* rescan per candidate.
pub const HOT_QUERIES: usize = 30;

/// The hot-path pool size (n) the ROADMAP ratios are recorded at.
pub const HOT_CANDIDATES: usize = 20;

/// The hot-path problem at its canonical n = 20: seeds stay caller-
/// chosen so each bench keeps its historical fixture.
pub fn hot_problem(seed: u64) -> SelectionProblem {
    hot_problem_sized(seed, HOT_CANDIDATES)
}

/// The hot-path shape with an explicit pool size (the probe benches
/// sweep n = 12, 16, 20; churn builds n + 1 and splits off a newcomer).
pub fn hot_problem_sized(seed: u64, candidates: usize) -> SelectionProblem {
    fixtures::random_problem(seed, HOT_QUERIES, candidates)
}

/// The headline scale shape: n = 2 000 / m = 50 000, mean coverage 12.
pub fn scale_shape() -> ScaleShape {
    ScaleShape::benchmark()
}

/// A reduced scale shape for comparison points and smoke runs where the
/// full 10⁸-slot-equivalent shape would dominate bench runtime.
pub fn scale_shape_sized(queries: usize, candidates: usize) -> ScaleShape {
    ScaleShape {
        queries,
        candidates,
        ..ScaleShape::benchmark()
    }
}

/// The resident-service shape: n = 256 / m = 4 096, mean coverage 12 —
/// large enough that what a what-if's fork copies shows (on the sales
/// r1000 / q3 service a fork is a few hundred bytes).
pub fn resident_shape() -> ScaleShape {
    scale_shape_sized(4_096, 256)
}

/// Builds the charged problem for a scale shape (delegates to
/// [`mvcloud::scale_problem`] — one construction path with the CLI).
pub fn scale_problem(shape: &ScaleShape) -> SelectionProblem {
    mvcloud::scale_problem(shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_shape_matches_the_ledger_regime() {
        let p = hot_problem(17);
        assert_eq!(p.len(), 20);
        assert_eq!(p.model().context().workload.len(), 30);
    }

    #[test]
    fn scale_shape_is_the_headline() {
        let s = scale_shape();
        assert_eq!((s.queries, s.candidates), (50_000, 2_000));
        let small = scale_shape_sized(100, 10);
        assert_eq!((small.queries, small.candidates), (100, 10));
        assert_eq!(small.seed, s.seed);
        let resident = resident_shape();
        assert_eq!((resident.queries, resident.candidates), (4_096, 256));
        assert_eq!(resident.mean_coverage, s.mean_coverage);
    }
}
