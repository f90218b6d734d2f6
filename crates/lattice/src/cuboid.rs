//! Cuboids and the derivability order.

/// A cuboid: one level index per dimension (index 0 = apex = coarsest).
///
/// The derivability ("fineness") order: `a.covers(b)` means a view stored
/// at `a` can answer a query at `b` — `a` is at least as fine as `b` on
/// every dimension. This is the classical data-cube lattice order of
/// Harinarayan–Rajaraman–Ullman, which the paper's candidate-selection
/// method \[8\] also builds on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cuboid(Vec<u8>);

impl Cuboid {
    /// Builds from per-dimension level indices.
    pub fn new(levels: Vec<u8>) -> Self {
        Cuboid(levels)
    }

    /// Per-dimension level indices.
    pub(crate) fn levels(&self) -> &[u8] {
        &self.0
    }

    /// Number of dimensions.
    pub(crate) fn arity(&self) -> usize {
        self.0.len()
    }

    /// `true` when `self` is at least as fine as `other` on every dimension
    /// — i.e. a view at `self` can answer a query at `other`.
    pub fn covers(&self, other: &Cuboid) -> bool {
        debug_assert_eq!(self.0.len(), other.0.len());
        self.0.iter().zip(&other.0).all(|(a, b)| a >= b)
    }

    /// The *coarsest* cuboid that covers both inputs: component-wise max.
    /// This is the cheapest single view able to answer both (the "least
    /// common ancestor" along drill-down paths).
    pub fn lca(&self, other: &Cuboid) -> Cuboid {
        debug_assert_eq!(self.0.len(), other.0.len());
        Cuboid(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| *a.max(b))
                .collect(),
        )
    }

    /// The *finest* cuboid both inputs cover: component-wise min (the meet
    /// of the lattice). Test reference: no non-test caller; the property
    /// tests check [`Cuboid::lca`] against its dual.
    pub fn meet(&self, other: &Cuboid) -> Cuboid {
        debug_assert_eq!(self.0.len(), other.0.len());
        Cuboid(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| *a.min(b))
                .collect(),
        )
    }

    /// Total level count — a cheap "fineness rank" used for ordering
    /// reports (not a linear extension of the partial order across equal
    /// sums).
    pub fn rank(&self) -> u32 {
        self.0.iter().map(|&l| l as u32).sum()
    }
}

#[cfg(test)]
impl Cuboid {
    /// Strictly finer: covers and differs. Test reference: no non-test
    /// caller; the Hasse-neighbour tests state the order with it.
    pub(crate) fn strictly_covers(&self, other: &Cuboid) -> bool {
        self.covers(other) && self != other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_is_componentwise() {
        let day_dept = Cuboid::new(vec![3, 3]);
        let year_country = Cuboid::new(vec![1, 1]);
        let month_all = Cuboid::new(vec![2, 0]);
        assert!(day_dept.covers(&year_country));
        assert!(day_dept.covers(&month_all));
        assert!(!year_country.covers(&month_all)); // month finer than year
        assert!(!month_all.covers(&year_country)); // country finer than ALL
        assert!(year_country.covers(&year_country));
    }

    #[test]
    fn strict_cover_excludes_self() {
        let c = Cuboid::new(vec![1, 1]);
        assert!(!c.strictly_covers(&c));
        assert!(Cuboid::new(vec![2, 1]).strictly_covers(&c));
    }

    #[test]
    fn lca_and_meet() {
        let a = Cuboid::new(vec![2, 0]); // month × ALL
        let b = Cuboid::new(vec![1, 1]); // year × country
        assert_eq!(a.lca(&b), Cuboid::new(vec![2, 1])); // month × country
        assert_eq!(a.meet(&b), Cuboid::new(vec![1, 0])); // year × ALL
                                                         // LCA covers both inputs.
        assert!(a.lca(&b).covers(&a));
        assert!(a.lca(&b).covers(&b));
        // Both inputs cover the meet.
        assert!(a.covers(&a.meet(&b)));
        assert!(b.covers(&a.meet(&b)));
    }

    #[test]
    fn rank_sums_levels() {
        assert_eq!(Cuboid::new(vec![3, 3]).rank(), 6);
        assert_eq!(Cuboid::new(vec![0, 0]).rank(), 0);
    }
}
