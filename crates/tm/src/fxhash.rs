//! A minimal FNV/Fx-style hasher for the engine's hot hash maps (write
//! buffers, line sets, directory shards, and `tm::verify`'s per-attempt
//! line index, released-line set, bypass dedup set, and the install-run,
//! edge-dedup and first-seen maps of its finalize pass). Avoids an
//! external dependency; quality is adequate because keys are simulated
//! addresses (or transaction node pairs) that are already well
//! distributed, never input from outside the program.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher in the style of rustc's FxHasher.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(i as u64)
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64)
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributes_sequential_keys() {
        let mut set = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            set.insert(h.finish() % 256);
        }
        // Sequential keys should cover most buckets.
        assert!(set.len() > 200, "poor distribution: {}", set.len());
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&40), Some(&80));
        assert_eq!(m.len(), 100);
    }
}
