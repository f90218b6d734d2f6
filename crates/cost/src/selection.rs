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

    /// Toggles candidate `k`, returning its new state.
    #[inline]
    pub fn toggle(&mut self, k: usize) -> bool {
        assert!(k < self.len, "candidate {k} out of {}", self.len);
        let words = Arc::make_mut(&mut self.words);
        words[k / 64] ^= 1u64 << (k % 64);
        words[k / 64] >> (k % 64) & 1 == 1
    }

    /// Appends a new candidate slot at index `len`, selected iff `on`.
    /// Grows the word vector only when `len` crosses a 64-bit boundary,
    /// keeping the representation identical to `empty(new_len)` + `set`s
    /// (so `Eq`/`Hash` stay representation-independent).
    pub fn push(&mut self, on: bool) {
        let k = self.len;
        self.len += 1;
        let words = Arc::make_mut(&mut self.words);
        words.resize(self.len.div_ceil(64), 0);
        if on {
            words[k / 64] |= 1u64 << (k % 64);
        }
    }

    /// Removes slot `k` by moving the **last** slot into it (swap-remove,
    /// matching `Vec::swap_remove` on an aligned candidate vector) and
    /// shrinking the range by one. Returns whether `k` was selected.
    pub fn swap_remove(&mut self, k: usize) -> bool {
        assert!(k < self.len, "candidate {k} out of {}", self.len);
        let last = self.len - 1;
        let was = self.contains(k);
        let last_on = self.contains(last);
        let words = Arc::make_mut(&mut self.words);
        // Clear the retiring top slot, then rewrite slot k with its value.
        words[last / 64] &= !(1u64 << (last % 64));
        if k != last {
            let bit = 1u64 << (k % 64);
            if last_on {
                words[k / 64] |= bit;
            } else {
                words[k / 64] &= !bit;
            }
        }
        self.len = last;
        words.truncate(self.len.div_ceil(64));
        was
    }

    /// Number of selected candidates.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Per-candidate booleans in index order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |k| self.contains(k))
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
        assert!(f.iter().all(|b| b));
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
        assert!(!s.toggle(3));
        assert!(s.toggle(4));
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
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![true, true, false, true]);
        assert_eq!(s.as_mask(), 0b1011);
        let t = SelectionSet::from_bools(&[true, false, true]);
        assert_eq!(t.as_mask(), 0b101);
        assert_eq!(SelectionSet::from(vec![false, true]).as_mask(), 0b10);
    }

    #[test]
    fn push_grows_and_matches_set_representation() {
        // Pushing past one word must equal building the same selection via
        // empty + set: Eq/Hash are representation-dependent on the word
        // vector, so push must size it exactly like `empty(new_len)`.
        let mut pushed = SelectionSet::empty(0);
        for k in 0..130 {
            pushed.push(k % 3 == 0);
        }
        assert_eq!(pushed.len(), 130);
        let mut built = SelectionSet::empty(130);
        for k in (0..130).step_by(3) {
            built.set(k, true);
        }
        assert_eq!(pushed, built);
        assert_eq!(pushed.count_ones(), built.count_ones());
        // Word-boundary counts: 63→64→65 slots.
        let mut s = SelectionSet::empty(63);
        s.push(true);
        assert_eq!(s.len(), 64);
        assert!(s.contains(63));
        s.push(true);
        assert_eq!(s.len(), 65);
        assert!(s.contains(64));
        assert_eq!(s.count_ones(), 2);
    }

    #[test]
    fn swap_remove_moves_last_and_shrinks() {
        let mut s = SelectionSet::from_bools(&[true, false, true, false, true]);
        // Remove middle: last slot (selected) moves into index 2.
        assert!(s.swap_remove(2));
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![true, false, true, false]);
        // Remove the last slot directly (no move).
        assert!(!s.swap_remove(3));
        assert_eq!(s.len(), 3);
        assert_eq!(s.count_ones(), 2);
        // Representation equals a freshly-built equivalent (Eq is
        // word-vector-sensitive).
        assert_eq!(s, SelectionSet::from_bools(&[true, false, true]));
    }

    #[test]
    fn swap_remove_across_word_boundary_truncates_words() {
        let mut s = SelectionSet::empty(65);
        s.set(64, true);
        s.set(3, true);
        // Removing slot 3 pulls bit 64 down into one-word range.
        assert!(s.swap_remove(3));
        assert_eq!(s.len(), 64);
        assert!(s.contains(3));
        assert_eq!(s.count_ones(), 1);
        let mut expect = SelectionSet::empty(64);
        expect.set(3, true);
        assert_eq!(s, expect);
        assert_eq!(s.as_mask(), 1u64 << 3);
    }

    #[test]
    fn push_and_swap_remove_preserve_cow_isolation() {
        // Mutating a clone through the grow/shrink paths must not alias the
        // original's shared words (Arc::make_mut copy-on-write).
        let mut a = SelectionSet::from_bools(&[true, false, true]);
        let b = a.clone();
        a.push(true);
        a.swap_remove(1);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![true, true, true]);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![true, false, true]);
        // And the reverse direction: clone mutates, original unchanged.
        let mut c = b.clone();
        c.swap_remove(0);
        assert_eq!(b.count_ones(), 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn empty_set_storage_and_edges() {
        // A zero-candidate selection is a real value: pushes start from it,
        // and its word vector must stay empty so Eq against `empty(0)`
        // holds.
        let mut s = SelectionSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.as_mask(), 0);
        assert_eq!(s, SelectionSet::from_mask(0, 0));
        s.push(true);
        assert!(!s.is_empty());
        assert!(s.swap_remove(0));
        assert!(s.is_empty());
        assert_eq!(s, SelectionSet::empty(0));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn swap_remove_out_of_range_panics() {
        SelectionSet::empty(2).swap_remove(2);
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
