//! The full cuboid lattice over a set of dimensions.

use crate::{Cuboid, Dimension, LatticeError};

/// The data-cube lattice: the cross product of every dimension's levels.
///
/// For the paper's running example (time: ALL/year/month/day × geography:
/// ALL/country/region/department) this is the 16-cuboid lattice its
/// candidate views live in.
#[derive(Debug, Clone, PartialEq)]
pub struct Lattice {
    dims: Vec<Dimension>,
}

impl Lattice {
    /// Builds a lattice from one or more dimensions.
    pub fn new(dims: Vec<Dimension>) -> Result<Self, LatticeError> {
        if dims.is_empty() {
            return Err(LatticeError::NoDimensions);
        }
        Ok(Lattice { dims })
    }

    /// The paper's running-example lattice (11 years of data, the
    /// generator's geography catalog).
    pub fn paper_running_example() -> Lattice {
        Lattice::new(vec![
            Dimension::paper_time(11),
            Dimension::paper_geography(),
        ])
        .expect("paper lattice is valid")
    }

    /// The dimensions. No non-test caller: `tests/proptests.rs` draws
    /// random cuboids through it.
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dims
    }

    /// Total number of cuboids (product of level counts). No non-test
    /// caller: the crate's doc test and the lattice / domain shape tests
    /// hold [`Lattice::all_cuboids`] to it.
    pub fn num_cuboids(&self) -> usize {
        self.dims.iter().map(Dimension::depth).product()
    }

    /// Every cuboid, in lexicographic level order (apex first).
    pub fn all_cuboids(&self) -> Vec<Cuboid> {
        self.iter_cuboids().collect()
    }

    /// Lazily iterates every cuboid in lexicographic level order (apex
    /// first) without materializing the `num_cuboids()`-sized vector —
    /// [`crate::candidates::hru_greedy`] re-walks the lattice per pick.
    pub(crate) fn iter_cuboids(&self) -> impl Iterator<Item = Cuboid> + '_ {
        let mut next = Some(vec![0u8; self.dims.len()]);
        std::iter::from_fn(move || {
            let current = next.take()?;
            let out = Cuboid::new(current.clone());
            // Odometer increment; exhausted when every digit wraps.
            let mut digits = current;
            let mut i = self.dims.len();
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                if (digits[i] as usize) + 1 < self.dims[i].depth() {
                    digits[i] += 1;
                    for d in digits[i + 1..].iter_mut() {
                        *d = 0;
                    }
                    next = Some(digits);
                    break;
                }
            }
            Some(out)
        })
    }

    /// The apex cuboid (every dimension at ALL): the grand total. Test
    /// reference: no non-test caller; the bottom the order tests hold
    /// every cuboid, estimate and candidate set to.
    pub fn apex(&self) -> Cuboid {
        Cuboid::new(vec![0; self.dims.len()])
    }

    /// The base cuboid (every dimension at its finest level): the raw fact
    /// table's granularity.
    pub fn base(&self) -> Cuboid {
        Cuboid::new(self.dims.iter().map(|d| (d.depth() - 1) as u8).collect())
    }

    /// Validates that `cuboid` belongs to this lattice.
    pub fn check(&self, cuboid: &Cuboid) -> Result<(), LatticeError> {
        if cuboid.arity() != self.dims.len() {
            return Err(LatticeError::DimensionMismatch);
        }
        for (l, d) in cuboid.levels().iter().zip(&self.dims) {
            if *l as usize >= d.depth() {
                return Err(LatticeError::DimensionMismatch);
            }
        }
        Ok(())
    }

    /// The physical key columns of `cuboid`: concatenation of each
    /// dimension's level columns, in dimension order.
    pub fn key_columns(&self, cuboid: &Cuboid) -> Vec<String> {
        let mut cols = Vec::new();
        for (l, d) in cuboid.levels().iter().zip(&self.dims) {
            cols.extend(d.levels()[*l as usize].columns.iter().cloned());
        }
        cols
    }

    /// Human-readable label, e.g. `"year×country"` or `"ALL×ALL"`.
    pub fn label(&self, cuboid: &Cuboid) -> String {
        cuboid
            .levels()
            .iter()
            .zip(&self.dims)
            .map(|(l, d)| d.levels()[*l as usize].name.clone())
            .collect::<Vec<_>>()
            .join("×")
    }

    /// Product of level cardinalities: the cuboid's key-domain size (an
    /// upper bound on its row count).
    pub fn domain_size(&self, cuboid: &Cuboid) -> u64 {
        cuboid
            .levels()
            .iter()
            .zip(&self.dims)
            .map(|(l, d)| d.levels()[*l as usize].cardinality)
            .fold(1u64, u64::saturating_mul)
    }

    /// Maps a set of group-by columns back to the cuboid with exactly those
    /// key columns (order-insensitive).
    pub fn cuboid_for_columns(&self, columns: &[String]) -> Result<Cuboid, LatticeError> {
        let mut want: Vec<&String> = columns.iter().collect();
        want.sort();
        for c in self.all_cuboids() {
            let mut have = self.key_columns(&c);
            have.sort();
            if have.len() == want.len() && have.iter().zip(&want).all(|(a, b)| a == *b) {
                return Ok(c);
            }
        }
        Err(LatticeError::NoSuchCuboid {
            columns: columns.to_vec(),
        })
    }
}

#[cfg(test)]
impl Lattice {
    /// Direct parents in the Hasse diagram: one dimension coarsened by one
    /// level (cuboids `self` can be rolled up *to* in one step... direction:
    /// a parent is coarser). Test reference: no non-test caller; the dual
    /// the tests check their `children` against.
    pub(crate) fn parents(&self, cuboid: &Cuboid) -> Vec<Cuboid> {
        let mut out = Vec::new();
        for (i, l) in cuboid.levels().iter().enumerate() {
            if *l > 0 {
                let mut levels = cuboid.levels().to_vec();
                levels[i] -= 1;
                out.push(Cuboid::new(levels));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct children in the Hasse diagram: one dimension refined by one
    /// level (finer cuboids) — the dual of [`Lattice::parents`].
    fn children(l: &Lattice, cuboid: &Cuboid) -> Vec<Cuboid> {
        let mut out = Vec::new();
        for (i, level) in cuboid.levels().iter().enumerate() {
            if (*level as usize) + 1 < l.dims[i].depth() {
                let mut levels = cuboid.levels().to_vec();
                levels[i] += 1;
                out.push(Cuboid::new(levels));
            }
        }
        out
    }

    #[test]
    fn paper_lattice_has_16_cuboids() {
        let l = Lattice::paper_running_example();
        assert_eq!(l.num_cuboids(), 16);
        assert_eq!(l.all_cuboids().len(), 16);
        // All distinct.
        let mut cs = l.all_cuboids();
        cs.sort();
        cs.dedup();
        assert_eq!(cs.len(), 16);
    }

    #[test]
    fn apex_and_base() {
        let l = Lattice::paper_running_example();
        assert_eq!(l.label(&l.apex()), "ALL×ALL");
        assert_eq!(l.label(&l.base()), "day×department");
        assert!(l.base().covers(&l.apex()));
        assert_eq!(l.domain_size(&l.apex()), 1);
        assert_eq!(l.domain_size(&l.base()), 11 * 365 * 36);
    }

    #[test]
    fn key_columns_concatenate() {
        let l = Lattice::paper_running_example();
        let month_country = Cuboid::new(vec![2, 1]);
        assert_eq!(
            l.key_columns(&month_country),
            vec!["year", "month", "country"]
        );
        assert_eq!(l.label(&month_country), "month×country");
        assert!(l.key_columns(&l.apex()).is_empty());
    }

    #[test]
    fn parents_children_are_hasse_neighbours() {
        let l = Lattice::paper_running_example();
        let c = Cuboid::new(vec![2, 1]);
        let parents = l.parents(&c);
        assert_eq!(parents.len(), 2);
        for p in &parents {
            assert!(c.strictly_covers(p));
            assert_eq!(c.rank() - p.rank(), 1);
        }
        let finer = children(&l, &c);
        assert_eq!(finer.len(), 2);
        for ch in &finer {
            assert!(ch.strictly_covers(&c));
        }
        assert!(l.parents(&l.apex()).is_empty());
        assert!(children(&l, &l.base()).is_empty());
    }

    #[test]
    fn cuboid_for_columns_roundtrips() {
        let l = Lattice::paper_running_example();
        for c in l.all_cuboids() {
            let cols = l.key_columns(&c);
            assert_eq!(l.cuboid_for_columns(&cols).unwrap(), c);
        }
        assert!(matches!(
            l.cuboid_for_columns(&["nope".to_string()]),
            Err(LatticeError::NoSuchCuboid { .. })
        ));
    }

    #[test]
    fn check_validates_shape() {
        let l = Lattice::paper_running_example();
        assert!(l.check(&Cuboid::new(vec![3, 3])).is_ok());
        assert!(l.check(&Cuboid::new(vec![4, 0])).is_err());
        assert!(l.check(&Cuboid::new(vec![1])).is_err());
    }

    #[test]
    fn empty_lattice_rejected() {
        assert!(matches!(
            Lattice::new(vec![]),
            Err(LatticeError::NoDimensions)
        ));
    }

    #[test]
    fn single_dimension_lattice() {
        let l = Lattice::new(vec![Dimension::paper_time(5)]).unwrap();
        assert_eq!(l.num_cuboids(), 4);
        assert_eq!(l.label(&l.base()), "day");
    }
}
