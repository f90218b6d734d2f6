//! A fast, non-cryptographic hasher for group-by keys.
//!
//! This is the well-known "Fx" multiply-rotate hash used by rustc (the
//! `rustc-hash` crate), reimplemented here because the offline dependency
//! set does not include it. It hashes the group-by kernel's packed `u64`
//! keys and the dictionary's strings; neither has an adversarial source,
//! so HashDoS resistance is not needed and a fast integer mix wins — the
//! guide's standard advice for database hash aggregation.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher; state is a single `u64`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&[1i64, 2, 3][..]), hash_of(&[1i64, 2, 3][..]));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&[1i64, 2][..]), hash_of(&[2i64, 1][..]));
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<Vec<i64>, u32> = FxHashMap::default();
        m.insert(vec![2000, 0], 1);
        m.insert(vec![2000, 1], 2);
        assert_eq!(m.get(&vec![2000, 0]), Some(&1));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn byte_writes_cover_partial_chunks() {
        // 9 bytes exercises the chunked `write` path.
        assert_ne!(hash_of(&b"123456789"[..]), hash_of(&b"123456780"[..]));
    }
}
