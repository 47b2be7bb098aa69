//! Hardware-signature model.
//!
//! Table V of the paper gives each core 2048-bit signature registers with
//! four hash functions: (1) the unpermuted cache line address, (2) the
//! line address run through a bit-matrix permutation (as in Ceze et al.'s
//! Bulk), (3) hash 2 shifted right by 10 bits, and (4) a permutation of
//! the lower 16 bits of the line address. The hybrids use one read and one
//! write signature per transaction for conflict detection; the eager HTM
//! uses one signature as a Bloom filter for cache-overflowed addresses.
//! Because signatures are conservative, membership tests may report false
//! positives (never false negatives) — the source of the false-conflict
//! behaviour the paper observes on bayes and labyrinth+.

use std::cell::Cell;

use crate::addr::LineAddr;

/// A fixed bit permutation of a 32-bit value (stand-in for the Bulk
/// bit-matrix permutation): an odd-multiplier mix followed by a rotate,
/// which is bijective on 32-bit values.
#[inline]
fn permute32(x: u32) -> u32 {
    x.wrapping_mul(0x9E37_79B1).rotate_left(13)
}

/// A fixed bijective permutation of the lower 16 bits.
#[inline]
fn permute16(x: u16) -> u16 {
    x.wrapping_mul(0x9E37).rotate_left(7)
}

/// The four Table V hash functions, reduced to the signature size
/// (`bits`, a power of two, as [`Signature::new`] asserts) by masking,
/// which gives the same positions as `% bits` without a division.
///
/// Public so the property tests can check determinism, bit-range, and
/// membership soundness directly against the hash family.
#[inline]
pub fn table_v_hashes(line: LineAddr, bits: u64) -> [u64; 4] {
    debug_assert!(bits.is_power_of_two(), "signature size {bits}");
    let mask = bits - 1;
    let l = line.0;
    let permuted = permute32(l as u32) as u64;
    [
        l & mask,
        permuted & mask,
        (permuted >> 10) & mask,
        (permute16(l as u16) as u64) & mask,
    ]
}

/// A line's four bit positions in every signature of one size. A scan
/// over n threads' signatures hashes the line once into a probe and
/// tests each signature with [`Signature::hits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigProbe {
    bits: u64,
    positions: [u64; 4],
}

impl SigProbe {
    /// The positions of `line` in signatures of `bits` bits.
    #[inline]
    pub fn new(line: LineAddr, bits: u64) -> SigProbe {
        SigProbe {
            bits,
            positions: table_v_hashes(line, bits),
        }
    }
}

/// A signature register readable by other cores (threads).
///
/// The owner inserts and clears it; other threads test it. None of these
/// makes a scheduler call, so an observer always sees a signature
/// between operations, never half cleared.
pub struct Signature {
    bits: u64,
    words: Box<[Cell<u64>]>,
    /// Mutation hook for `tm::verify` teeth tests: when set, `insert`
    /// sets the *wrong* bits, so membership tests produce false
    /// negatives — exactly the Bloom-filter guarantee a hash bug would
    /// break.
    corrupt: bool,
}

impl Signature {
    /// Create an empty signature of `bits` bits (power of two, ≥ 64).
    pub fn new(bits: usize) -> Self {
        Self::new_maybe_corrupted(bits, false)
    }

    /// Create a signature whose insert path is deliberately corrupted
    /// when `corrupt` is true (mutation testing of the sanitizer; see
    /// [`crate::config::MutationHook::CorruptSignatureHash`]).
    pub fn new_maybe_corrupted(bits: usize, corrupt: bool) -> Self {
        assert!(bits.is_power_of_two() && bits >= 64);
        let words = (0..bits / 64).map(|_| Cell::new(0)).collect();
        Signature {
            bits: bits as u64,
            words,
            corrupt,
        }
    }

    /// Size in bits.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Insert a line address.
    #[inline]
    pub fn insert(&self, line: LineAddr) {
        for h in table_v_hashes(line, self.bits) {
            // Mutation hook: flipping the low bit of the bit index
            // sets four wrong bits, so `maybe_contains` (which still
            // probes the correct bits) reports false negatives.
            let h = if self.corrupt { h ^ 1 } else { h };
            let w = &self.words[(h / 64) as usize];
            w.set(w.get() | 1 << (h % 64));
        }
    }

    /// Test membership: false means definitely absent; true may be a
    /// false positive.
    #[inline]
    pub fn maybe_contains(&self, line: LineAddr) -> bool {
        self.hits(&SigProbe::new(line, self.bits))
    }

    /// [`Signature::maybe_contains`] for an already hashed line.
    /// `probe` must be for this signature's size.
    #[inline]
    pub fn hits(&self, probe: &SigProbe) -> bool {
        assert_eq!(probe.bits, self.bits, "probe for another signature size");
        probe
            .positions
            .iter()
            .all(|h| self.words[(h / 64) as usize].get() >> (h % 64) & 1 == 1)
    }

    /// Clear all bits.
    pub fn clear(&self) {
        for w in self.words.iter() {
            w.set(0);
        }
    }

    /// Whether the signature is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| w.get() == 0)
    }

    /// Number of set bits (diagnostic; occupancy drives the false
    /// positive rate).
    pub fn popcount(&self) -> u64 {
        self.words.iter().map(|w| w.get().count_ones() as u64).sum()
    }
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({} bits, {} set)", self.bits, self.popcount())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let sig = Signature::new(2048);
        for i in 0..200 {
            sig.insert(LineAddr(i * 37));
        }
        for i in 0..200 {
            assert!(sig.maybe_contains(LineAddr(i * 37)));
        }
    }

    #[test]
    fn empty_contains_nothing() {
        let sig = Signature::new(2048);
        for i in 0..1000 {
            assert!(!sig.maybe_contains(LineAddr(i)));
        }
        assert!(sig.is_empty());
    }

    #[test]
    fn clear_resets() {
        let sig = Signature::new(256);
        sig.insert(LineAddr(5));
        assert!(!sig.is_empty());
        sig.clear();
        assert!(sig.is_empty());
        assert!(!sig.maybe_contains(LineAddr(5)));
    }

    #[test]
    fn false_positive_rate_grows_with_occupancy() {
        // With few insertions, random probes should rarely hit; with many
        // insertions, false positives must appear (Bloom saturation).
        let sparse = Signature::new(2048);
        for i in 0..16 {
            sparse.insert(LineAddr(i));
        }
        let fp_sparse = (10_000..20_000)
            .filter(|&i| sparse.maybe_contains(LineAddr(i)))
            .count();

        let dense = Signature::new(2048);
        for i in 0..2000 {
            dense.insert(LineAddr(i));
        }
        let fp_dense = (10_000..20_000)
            .filter(|&i| dense.maybe_contains(LineAddr(i)))
            .count();

        assert!(fp_sparse < fp_dense, "{fp_sparse} !< {fp_dense}");
        assert!(fp_dense > 100, "dense filter should alias heavily");
        assert!(fp_sparse < 100, "sparse filter should rarely alias");
    }

    #[test]
    fn smaller_signature_aliases_more() {
        let small = Signature::new(64);
        let large = Signature::new(8192);
        for i in 0..64 {
            small.insert(LineAddr(i));
            large.insert(LineAddr(i));
        }
        let fp_small = (1000..3000)
            .filter(|&i| small.maybe_contains(LineAddr(i)))
            .count();
        let fp_large = (1000..3000)
            .filter(|&i| large.maybe_contains(LineAddr(i)))
            .count();
        assert!(fp_small > fp_large);
    }

    #[test]
    fn corrupted_insert_produces_false_negatives() {
        let sig = Signature::new_maybe_corrupted(2048, true);
        let misses = (0..200)
            .filter(|&i| {
                let l = LineAddr(i * 37);
                sig.insert(l);
                !sig.maybe_contains(l)
            })
            .count();
        // A corrupted hash must break the no-false-negative guarantee
        // for essentially every line (modulo accidental aliasing).
        assert!(misses > 150, "only {misses} false negatives");
    }

    #[test]
    fn permutations_are_bijective_on_samples() {
        use std::collections::HashSet;
        let outs: HashSet<u32> = (0..10_000u32).map(permute32).collect();
        assert_eq!(outs.len(), 10_000);
        let outs16: HashSet<u16> = (0..=u16::MAX).map(permute16).collect();
        assert_eq!(outs16.len(), 1 << 16);
    }
}
