//! A fast, dependency-free hasher for hot in-memory maps.
//!
//! The workspace's hot paths key hash maps by small fixed-size tuples
//! (`(class, var, node)` in the match cache, `(node, radius)` in the
//! block cache). `std`'s default SipHash is DoS-resistant but costs
//! tens of nanoseconds per lookup — measurable when the detection loop
//! does several lookups per work unit. [`FxHasher`] is the classic
//! multiply-rotate word hasher (the scheme rustc uses): one rotate,
//! one xor and one multiply per word, no allocation, no state beyond a
//! `u64`.
//!
//! **Not** DoS-resistant — use only for internal keys derived from
//! graph/pattern ids, never for attacker-controlled strings.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate word hasher; see the module docs.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// The golden-ratio multiplier (2^64 / φ, forced odd).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<(usize, u32), &str> = FxHashMap::default();
        for i in 0..1000usize {
            m.insert((i, (i * 7) as u32), "v");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&(123, 861)));
        assert!(!m.contains_key(&(123, 862)));
    }

    #[test]
    fn bytes_and_words_hash_consistently() {
        use std::hash::Hash;
        let mut a = FxHasher::default();
        (1u64, 2u32).hash(&mut a);
        let mut b = FxHasher::default();
        (1u64, 2u32).hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        (1u64, 3u32).hash(&mut c);
        assert_ne!(a.finish(), c.finish());
    }
}
