//! Compact candidate-selection bitsets.
//!
//! The optimizer probes thousands-to-millions of candidate subsets per
//! solve; selections were previously `Vec<bool>`, cloned on every probe
//! and stored in every evaluation.
//! [`SelectionSet`] packs the mask into `u64` words behind an `Arc`:
//!
//! * **clone is O(1)** — an atomic refcount bump, no allocation;
//! * **mutation is copy-on-write** — `Arc::make_mut` only copies the
//!   word vector when the selection is actually shared;
//! * **n ≤ 64 never allocates more than one word**, the common case for
//!   the paper's ≤ 16-candidate problems;
//! * **iteration is word-wise** — [`SelectionSet::ones`] peels set bits
//!   with `trailing_zeros`, O(len/64 + selected), so folding the few
//!   hundred selected views of a 2 000-candidate pool does not test
//!   2 000 bits.

use std::fmt;
use std::sync::Arc;

/// A set of selected candidate views, as a bitmask aligned with a
/// candidate slice. Cheap to clone (copy-on-write words).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SelectionSet {
    len: usize,
    words: Arc<Vec<u64>>,
}

impl SelectionSet {
    /// The empty selection over `len` candidates.
    pub fn empty(len: usize) -> Self {
        SelectionSet {
            len,
            words: Arc::new(vec![0; len.div_ceil(64)]),
        }
    }

    /// The all-selected selection over `len` candidates.
    pub fn full(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = len % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        SelectionSet {
            len,
            words: Arc::new(words),
        }
    }

    /// Builds a selection from a bool slice (index k selected iff
    /// `bools[k]`).
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut s = SelectionSet::empty(bools.len());
        let words = Arc::make_mut(&mut s.words);
        for (k, &on) in bools.iter().enumerate() {
            if on {
                words[k / 64] |= 1u64 << (k % 64);
            }
        }
        s
    }

    /// Builds a selection over `len ≤ 64` candidates from a bitmask
    /// (bit k = candidate k).
    pub fn from_mask(mask: u64, len: usize) -> Self {
        assert!(len <= 64, "from_mask supports at most 64 candidates");
        assert!(
            len == 64 || mask < (1u64 << len),
            "mask {mask:#x} has bits beyond {len} candidates"
        );
        SelectionSet {
            len,
            // Word count must match `empty(len)` so Eq/Hash are
            // representation-independent.
            words: Arc::new(if len == 0 { Vec::new() } else { vec![mask] }),
        }
    }

    /// Number of candidates the selection ranges over (not the number
    /// selected).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no candidates at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether candidate `k` is selected.
    #[inline]
    pub fn contains(&self, k: usize) -> bool {
        debug_assert!(k < self.len, "candidate {k} out of {}", self.len);
        self.words[k / 64] >> (k % 64) & 1 == 1
    }

    /// Selects (`on = true`) or deselects candidate `k`.
    #[inline]
    pub fn set(&mut self, k: usize, on: bool) {
        assert!(k < self.len, "candidate {k} out of {}", self.len);
        let words = Arc::make_mut(&mut self.words);
        let bit = 1u64 << (k % 64);
        if on {
            words[k / 64] |= bit;
        } else {
            words[k / 64] &= !bit;
        }
    }

    /// Number of selected candidates.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of the selected candidates, ascending. Walks the words,
    /// peeling set bits with `trailing_zeros` — O(len/64 + selected),
    /// not one test per candidate. (Bits at and past `len` are zero in
    /// every word: each constructor and mutator keeps them so.)
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        Ones {
            rest: self.words.iter().enumerate(),
            word: 0,
            base: 0,
        }
    }

    /// The selection as a `u64` bitmask (requires ≤ 64 candidates).
    pub fn as_mask(&self) -> u64 {
        assert!(self.len <= 64, "as_mask supports at most 64 candidates");
        self.words.first().copied().unwrap_or(0)
    }
}

/// [`SelectionSet::ones`]: the unvisited bits of the current word and
/// the words after it.
struct Ones<'a> {
    rest: std::iter::Enumerate<std::slice::Iter<'a, u64>>,
    word: u64,
    /// Index of bit 0 of `word`.
    base: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (w, &word) = self.rest.next()?;
            self.word = word;
            self.base = w * 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl fmt::Debug for SelectionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SelectionSet[")?;
        for k in 0..self.len {
            write!(f, "{}", if self.contains(k) { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

impl From<&[bool]> for SelectionSet {
    fn from(bools: &[bool]) -> Self {
        SelectionSet::from_bools(bools)
    }
}

impl From<Vec<bool>> for SelectionSet {
    fn from(bools: Vec<bool>) -> Self {
        SelectionSet::from_bools(&bools)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_full_and_counts() {
        let e = SelectionSet::empty(70);
        assert_eq!(e.len(), 70);
        assert_eq!(e.count_ones(), 0);
        let f = SelectionSet::full(70);
        assert_eq!(f.count_ones(), 70);
        assert!((0..70).all(|k| f.contains(k)));
        assert_eq!(SelectionSet::full(64).count_ones(), 64);
        assert!(SelectionSet::empty(0).is_empty());
    }

    #[test]
    fn set_toggle_contains() {
        let mut s = SelectionSet::empty(10);
        s.set(3, true);
        s.set(9, true);
        assert!(s.contains(3) && s.contains(9) && !s.contains(0));
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![3, 9]);
        s.set(3, false);
        s.set(4, true);
        assert!(!s.contains(3) && s.contains(4));
        assert_eq!(s.count_ones(), 2);
    }

    #[test]
    fn copy_on_write_isolation() {
        let mut a = SelectionSet::empty(8);
        a.set(1, true);
        let b = a.clone();
        a.set(2, true);
        assert!(a.contains(2));
        assert!(!b.contains(2));
        assert!(b.contains(1));
    }

    #[test]
    fn mask_and_bools_roundtrip() {
        let s = SelectionSet::from_mask(0b1011, 4);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(s.as_mask(), 0b1011);
        let t = SelectionSet::from_bools(&[true, false, true]);
        assert_eq!(t.as_mask(), 0b101);
        assert_eq!(SelectionSet::from(vec![false, true]).as_mask(), 0b10);
    }

    #[test]
    fn empty_set_storage_and_edges() {
        // A zero-candidate selection is a real value — an evaluator
        // over an empty pool holds one — and its word vector must stay
        // empty so Eq against `from_mask(0, 0)` holds.
        let s = SelectionSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.as_mask(), 0);
        assert_eq!(s, SelectionSet::from_mask(0, 0));
        assert_eq!(s, SelectionSet::from_bools(&[]));
        assert_eq!(s.ones().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_set_panics() {
        SelectionSet::empty(3).set(3, true);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn oversized_mask_panics() {
        SelectionSet::from_mask(0b100, 2);
    }

    #[test]
    fn debug_renders_bits() {
        let s = SelectionSet::from_mask(0b01, 2);
        assert_eq!(format!("{s:?}"), "SelectionSet[10]");
    }
}
