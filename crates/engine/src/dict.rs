//! String dictionary encoding.
//!
//! String columns store a `u32` code per row plus one [`Dictionary`] mapping
//! codes to distinct strings. Group-by keys then compare as integers, which
//! is what makes the hash aggregation cheap.
//!
//! Each distinct string is owned once, in code order; the reverse index is
//! an open-addressing table of codes hashed with [`FxHasher`] over the
//! string's bytes, so neither interning nor cloning copies a string twice.

use std::hash::Hasher;

use crate::fx::FxHasher;

/// An append-only mapping between distinct strings and dense `u32` codes.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<String>,
    /// `code + 1` per occupied slot, `0` when empty; the length is zero or
    /// a power of two at least twice `values.len()`.
    slots: Vec<u32>,
}

/// Equality is content and code order: two dictionaries are equal when
/// they decode every code to the same string (the index is derived data).
impl PartialEq for Dictionary {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl Dictionary {
    /// An empty dictionary.
    pub(crate) fn new() -> Self {
        Dictionary::default()
    }

    /// The slot probing for `s` starts at. Multiplicative hashing keeps its
    /// entropy in the high bits, so the slot is taken from the top.
    fn home_slot(slots: usize, s: &str) -> usize {
        debug_assert!(slots.is_power_of_two());
        let mut hasher = FxHasher::default();
        hasher.write(s.as_bytes());
        hasher.write_usize(s.len());
        (hasher.finish() >> (u64::BITS - slots.trailing_zeros())) as usize
    }

    /// The slot holding `s`, or the empty slot where it belongs.
    fn find_slot(&self, s: &str) -> usize {
        let wrap = self.slots.len() - 1;
        let mut slot = Self::home_slot(self.slots.len(), s);
        loop {
            match self.slots[slot] {
                0 => return slot,
                code if self.values[code as usize - 1] == s => return slot,
                _ => slot = (slot + 1) & wrap,
            }
        }
    }

    /// Doubles the index and re-seats every code.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(8);
        self.slots = vec![0; slots];
        for (i, s) in self.values.iter().enumerate() {
            let mut slot = Self::home_slot(slots, s);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            self.slots[slot] = i as u32 + 1;
        }
    }

    /// Interns `s`, returning its code (allocating one if unseen).
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        if self.slots.len() < 2 * (self.values.len() + 1) {
            self.grow();
        }
        let slot = self.find_slot(s);
        if self.slots[slot] != 0 {
            return self.slots[slot] - 1;
        }
        let code = u32::try_from(self.values.len())
            .ok()
            .filter(|&c| c < u32::MAX)
            .expect("dictionary overflow");
        self.values.push(s.to_string());
        self.slots[slot] = code + 1;
        code
    }

    /// The code of `s`, if already interned.
    pub(crate) fn lookup(&self, s: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots[self.find_slot(s)].checked_sub(1)
    }

    /// The string for `code`.
    ///
    /// # Panics
    /// Panics if the code was not produced by this dictionary.
    pub(crate) fn decode(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no string has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Modelled footprint in bytes: each string's bytes plus a 24-byte
    /// header, counted for the value and again for its index entry. View
    /// sizes — and so the cost models' storage charges — are computed from
    /// this figure, which is why it is a function of the contents alone and
    /// not of how the index happens to be laid out.
    pub(crate) fn heap_bytes(&self) -> u64 {
        (0..self.values.len() as u32)
            .map(|c| self.entry_bytes(c))
            .sum()
    }

    /// [`Dictionary::heap_bytes`]'s share of the string coded `code`.
    pub(crate) fn entry_bytes(&self, code: u32) -> u64 {
        (self.values[code as usize].len() as u64 + 24) * 2
    }

    /// Iterates `(code, string)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("France");
        let b = d.intern("Italy");
        assert_ne!(a, b);
        assert_eq!(d.intern("France"), a);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn decode_roundtrip() {
        let mut d = Dictionary::new();
        let code = d.intern("Auvergne");
        assert_eq!(d.decode(code), "Auvergne");
        assert_eq!(d.lookup("Auvergne"), Some(code));
        assert_eq!(d.lookup("Campania"), None);
    }

    #[test]
    fn codes_are_dense_and_ordered() {
        let mut d = Dictionary::new();
        for (i, s) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(d.intern(s), i as u32);
        }
        let pairs: Vec<(u32, &str)> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "a"), (1, "b"), (2, "c")]);
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.heap_bytes(), 0);
        assert_eq!(d.lookup(""), None);
    }

    #[test]
    fn index_survives_growth() {
        let mut d = Dictionary::new();
        let words: Vec<String> = (0..1000).map(|i| format!("w{}", i * 7919)).collect();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(d.intern(w), i as u32);
        }
        for (i, w) in words.iter().enumerate() {
            assert_eq!(d.lookup(w), Some(i as u32));
            assert_eq!(d.intern(w), i as u32);
            assert_eq!(d.decode(i as u32), w);
        }
        assert_eq!(d.len(), 1000);
        assert_eq!(d.lookup("w1"), None);
        // The empty string and prefixes of each other are distinct keys.
        let e = d.intern("");
        assert_eq!(d.lookup(""), Some(e));
        assert_ne!(d.intern("w"), e);
    }

    #[test]
    fn heap_bytes_is_a_function_of_the_contents() {
        // Pinned: view sizes (and so `ViewCharge`s) are computed from it.
        let mut d = Dictionary::new();
        for s in ["France", "Italy", "", "Île-de-France"] {
            d.intern(s);
        }
        assert_eq!(d.heap_bytes(), 2 * ((6 + 24) + (5 + 24) + 24 + (14 + 24)));
        d.intern("Italy");
        assert_eq!(d.heap_bytes(), 2 * ((6 + 24) + (5 + 24) + 24 + (14 + 24)));
    }

    #[test]
    fn equality_is_content_and_code_order() {
        let build = |words: &[&str]| {
            let mut d = Dictionary::new();
            for w in words {
                d.intern(w);
            }
            d
        };
        let a = build(&["x", "y", "z"]);
        // Same contents reached through re-interning and a clone.
        let mut b = build(&["x", "y", "x", "z", "y"]).clone();
        assert_eq!(a, b);
        assert_ne!(a, build(&["y", "x", "z"]));
        assert_ne!(a, build(&["x", "y"]));
        b.intern("w");
        assert_ne!(a, b);
    }
}
