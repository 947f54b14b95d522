//! The Fx multiply-rotate hasher and the `FxHashMap` / `FxHashSet` aliases
//! every vertex-id set and map in the workspace uses.
//!
//! Vertex ids are small dense integers, so SipHash's flood resistance buys
//! nothing and costs several times the hashing time in the k-hop closures
//! and plan builders. The hash is also *deterministic*, which `std`'s
//! default is not: the iteration order of these sets feeds partition
//! tie-breaks, sampled neighbour lists and plan row order, so the constant
//! and the finishing rotation below are part of every pinned number. The
//! tests record them.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Builds [`FxHasher`]s; zero-sized, so `Default` is the constructor.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// One multiply per word written, one rotation at the end (the scheme of
/// `rustc-hash` 2).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
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
        self.add(bytes.len() as u64);
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    // Recorded from the `rustc-hash` stand-in this module replaced, before
    // it was removed.

    #[test]
    fn known_answers() {
        let h = FxBuildHasher::default();
        assert_eq!(h.hash_one(7u32), 0x9d12_ca91_8e61_d971);
        assert_eq!(h.hash_one(7usize), 0x9d12_ca91_8e61_d971);
        assert_eq!(h.hash_one((3u32, 9u32)), 0x0d1e_d432_e2dd_620f);
    }

    #[test]
    fn set_iteration_order_is_the_recorded_one() {
        let set: FxHashSet<u32> = (0..1000).collect();
        let order: Vec<u32> = set.iter().copied().collect();
        assert_eq!(
            order[..16],
            [0, 604, 327, 50, 931, 654, 377, 100, 981, 704, 427, 150, 754, 477, 200, 804]
        );
        // All 1000 positions, folded FNV-style so the test stays short.
        let fold = order.iter().enumerate().fold(0u64, |acc, (i, &v)| {
            acc.wrapping_mul(0x0000_0100_0000_01b3).wrapping_add(v as u64 ^ (i as u64) << 32)
        });
        assert_eq!(fold, 0xa1ee_cee2_78a4_8b44);
    }
}
