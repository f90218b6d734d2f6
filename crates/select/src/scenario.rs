//! The paper's three objective functions (Section 5.1).

use mv_units::{Hours, Money};

use crate::Scored;

/// An optimization scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// MV1 (Formula 13): minimize `TprocessingQ` subject to `C ≤ budget`.
    Mv1 {
        /// The financial budget `Bl`.
        budget: Money,
    },
    /// MV2 (Formula 14): minimize `C` subject to `TprocessingQ ≤ limit`.
    Mv2 {
        /// The response-time limit `Tl`.
        time_limit: Hours,
    },
    /// MV3 (Formula 15): minimize `α·T + (1−α)·C`, unconstrained.
    Mv3 {
        /// Weight on processing time (`1−α` weights cost).
        alpha: f64,
        /// When `true`, `T` and `C` are divided by their no-view baselines
        /// before weighting, making the two terms commensurable. The paper
        /// mixes raw hours and dollars (`false`): only tests build that
        /// form, through [`Scenario::tradeoff`]; every bench, binary and
        /// `experiments` subcommand normalizes. Which form stays is
        /// ROADMAP direction 10(iii).
        normalize: bool,
    },
}

/// A score's place in a [`Scenario`]'s ordering ([`Scenario::rank`]);
/// smaller is better. The derived comparison is field by field in
/// declaration order: feasible before infeasible, then the smaller
/// constraint violation (0 when feasible), then the smaller objective,
/// then the smaller cost, then the smaller time. Keys of different
/// scenarios or baselines do not compare meaningfully.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub(crate) struct Rank {
    infeasible: bool,
    violation: f64,
    objective: f64,
    cost: Money,
    time: Hours,
}

impl Scenario {
    /// MV1 constructor.
    pub fn budget(budget: Money) -> Self {
        Scenario::Mv1 { budget }
    }

    /// MV2 constructor.
    pub fn time_limit(time_limit: Hours) -> Self {
        Scenario::Mv2 { time_limit }
    }

    /// MV3 constructor (paper-style raw mixing). No non-test caller
    /// (every binary normalizes): the solver and chain tests run the
    /// paper's own objective through it.
    pub fn tradeoff(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        Scenario::Mv3 {
            alpha,
            normalize: false,
        }
    }

    /// MV3 constructor with baseline normalization.
    pub fn tradeoff_normalized(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        Scenario::Mv3 {
            alpha,
            normalize: true,
        }
    }

    /// Whether `e` (an `Evaluation` or a bare `Score`, here and in the
    /// three methods below) satisfies the scenario's constraint.
    pub fn feasible(&self, e: &impl Scored) -> bool {
        match self {
            Scenario::Mv1 { budget } => e.cost() <= *budget,
            Scenario::Mv2 { time_limit } => e.time() <= *time_limit,
            Scenario::Mv3 { .. } => true,
        }
    }

    /// Constraint violation magnitude, as a dimensionless number used only
    /// to rank infeasible solutions (0 when feasible).
    pub(crate) fn violation(&self, e: &impl Scored) -> f64 {
        match self {
            Scenario::Mv1 { budget } => (e.cost() - *budget).to_dollars_f64().max(0.0),
            Scenario::Mv2 { time_limit } => (e.time().value() - time_limit.value()).max(0.0),
            Scenario::Mv3 { .. } => 0.0,
        }
    }

    /// The scenario's objective value for `e`, lower = better. `baseline`
    /// supplies the normalization denominators for MV3.
    pub fn objective(&self, e: &impl Scored, baseline: &impl Scored) -> f64 {
        match self {
            Scenario::Mv1 { .. } => e.time().value(),
            Scenario::Mv2 { .. } => e.cost().to_dollars_f64(),
            Scenario::Mv3 { alpha, normalize } => {
                let (t, c) = if *normalize {
                    (
                        e.time().value() / baseline.time().value().max(f64::MIN_POSITIVE),
                        e.cost().to_dollars_f64()
                            / baseline
                                .cost()
                                .to_dollars_f64()
                                .abs()
                                .max(f64::MIN_POSITIVE),
                    )
                } else {
                    (e.time().value(), e.cost().to_dollars_f64())
                };
                alpha * t + (1.0 - alpha) * c
            }
        }
    }

    /// Where `e` stands in the scenario's ordering — everything
    /// [`Scenario::better`] compares, derived once, so a move loop
    /// ranks each probed score when it sees it and keeps the key of
    /// the score to beat.
    pub(crate) fn rank(&self, e: &impl Scored, baseline: &impl Scored) -> Rank {
        let infeasible = !self.feasible(e);
        Rank {
            infeasible,
            violation: if infeasible { self.violation(e) } else { 0.0 },
            objective: self.objective(e, baseline),
            cost: e.cost(),
            time: e.time(),
        }
    }

    /// `true` when `a` is strictly better than `b`: feasibility first, then
    /// smaller violation, then smaller objective, then (tie-break) smaller
    /// cost and time — `rank(a) < rank(b)`.
    pub fn better(&self, a: &impl Scored, b: &impl Scored, baseline: &impl Scored) -> bool {
        self.rank(a, baseline) < self.rank(b, baseline)
    }

    /// Short label for reports (`"MV1"`, `"MV2"`, `"MV3"`).
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Mv1 { .. } => "MV1",
            Scenario::Mv2 { .. } => "MV2",
            Scenario::Mv3 { .. } => "MV3",
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fixtures::paper_like_problem;
    use proptest::prelude::*;

    /// [`Scenario::better`] as it stood before `Scenario::rank`, kept
    /// as the reference ordering: feasibility first, then smaller
    /// violation, then smaller objective, then smaller cost and time.
    pub(crate) fn better_reference(
        s: &Scenario,
        a: &impl Scored,
        b: &impl Scored,
        baseline: &impl Scored,
    ) -> bool {
        let (fa, fb) = (s.feasible(a), s.feasible(b));
        if fa != fb {
            return fa;
        }
        if !fa {
            let (va, vb) = (s.violation(a), s.violation(b));
            if va != vb {
                return va < vb;
            }
        }
        let (oa, ob) = (s.objective(a, baseline), s.objective(b, baseline));
        if oa != ob {
            return oa < ob;
        }
        if a.cost() != b.cost() {
            return a.cost() < b.cost();
        }
        a.time() < b.time()
    }

    #[test]
    fn feasibility_and_violation() {
        let p = paper_like_problem();
        let base = p.baseline();
        let tight = Scenario::budget(base.cost() - Money::from_dollars(1));
        assert!(!tight.feasible(&base));
        assert!(tight.violation(&base) > 0.0);
        let loose = Scenario::budget(base.cost() + Money::from_dollars(1));
        assert!(loose.feasible(&base));
        assert_eq!(loose.violation(&base), 0.0);

        let t = Scenario::time_limit(base.time);
        assert!(t.feasible(&base));
        assert!(Scenario::tradeoff(0.5).feasible(&base));
    }

    #[test]
    fn objective_directions() {
        let p = paper_like_problem();
        let base = p.baseline();
        let all = p.evaluate(&mv_cost::SelectionSet::full(p.len()));
        // MV1 objective = time: all views is better.
        assert!(
            Scenario::budget(Money::MAX).objective(&all, &base)
                < Scenario::budget(Money::MAX).objective(&base, &base)
        );
        // MV3 normalized baseline objective = alpha·1 + (1-alpha)·1 = 1.
        let mv3 = Scenario::tradeoff_normalized(0.3);
        assert!((mv3.objective(&base, &base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn better_prefers_feasible_then_objective() {
        let p = paper_like_problem();
        let base = p.baseline();
        let all = p.evaluate(&mv_cost::SelectionSet::full(p.len()));
        let s = Scenario::budget(Money::MAX);
        assert!(s.better(&all, &base, &base)); // faster, both feasible
        assert!(!s.better(&base, &all, &base));
        // Infeasible vs feasible.
        let tight = Scenario::budget(Money::ZERO);
        // Both infeasible: smaller violation wins.
        let cheaper = if all.cost() < base.cost() {
            &all
        } else {
            &base
        };
        let dearer = if all.cost() < base.cost() {
            &base
        } else {
            &all
        };
        assert!(tight.better(cheaper, dearer, &base));
    }

    /// A bare point of the time × cost plane.
    #[derive(Debug, Clone, Copy)]
    struct Point(Hours, Money);

    impl Scored for Point {
        fn time(&self) -> Hours {
            self.0
        }

        fn cost(&self) -> Money {
            self.1
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `better` is `rank <`, and both are the spelled-out ordering
        /// — over points on a coarse grid, so that equal objectives
        /// with different costs (MV1: equal times; MV3 at α = ½: t and
        /// c traded one for one), equal costs with different times,
        /// infeasible pairs with equal violations and exact ties all
        /// occur, against baselines that include zero time and zero
        /// cost (the `f64::MIN_POSITIVE` guards; 0 · ∞ makes the
        /// objective NaN there, which must order nothing).
        #[test]
        fn better_is_rank_order(
            pick in 0usize..4,
            level in 0i64..5,
            a in (0i64..5, 0i64..5),
            b in (0i64..5, 0i64..5),
            base in (0i64..3, 0i64..3),
        ) {
            let point = |(t, c): (i64, i64)| Point(Hours::new(t as f64 * 0.5), Money::from_dollars(c));
            let (a, b, base) = (point(a), point(b), point(base));
            let scenario = match pick {
                0 => Scenario::budget(Money::from_dollars(level)),
                1 => Scenario::time_limit(Hours::new(level as f64 * 0.5)),
                2 => Scenario::tradeoff(level as f64 / 4.0),
                _ => Scenario::tradeoff_normalized(level as f64 / 4.0),
            };
            let expected = better_reference(&scenario, &a, &b, &base);
            prop_assert_eq!(
                scenario.better(&a, &b, &base), expected,
                "{:?}: {:?} vs {:?} over {:?}", scenario, a, b, base
            );
            prop_assert_eq!(
                scenario.rank(&a, &base) < scenario.rank(&b, &base), expected,
                "{:?}: rank {:?} vs {:?} over {:?}", scenario, a, b, base
            );
            // Strict: nothing is better than itself.
            prop_assert!(!scenario.better(&a, &a, &base));
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0,1]")]
    fn alpha_out_of_range_panics() {
        Scenario::tradeoff(1.5);
    }

    #[test]
    fn labels() {
        assert_eq!(Scenario::budget(Money::ZERO).label(), "MV1");
        assert_eq!(Scenario::time_limit(Hours::ZERO).label(), "MV2");
        assert_eq!(Scenario::tradeoff(0.5).label(), "MV3");
    }
}
