//! TL2-style global version clock and versioned-lock table, used by the
//! two STM systems.
//!
//! Every transactional word (or line, under the granularity ablation) maps
//! to one lock word in a global table. A lock word is either *unlocked*,
//! carrying the version of the last commit that wrote any address mapping
//! to it, or *locked*, carrying the owner's thread id. Readers validate
//! that a location's version is no newer than their read timestamp and
//! that it is unlocked; writers lock entries (at commit for the lazy STM,
//! at encounter for the eager one) and release them stamped with a fresh
//! version from the global clock.
//!
//! The table is sparse. [`LockTable::index_of`] hashes a granule to one
//! of `2^bits` indices, and that size alone sets how addresses alias.
//! Storage holds only the entries a run has written: an absent entry is
//! `Unlocked { version: 0 }`, so a load never inserts, and an entry
//! restored to 0 is removed. At full size on one thread the reference
//! runs write between 69 (bayes) and 76,051 (ssca2) of the default 2^20
//! entries, so the table costs host memory in proportion to what a run
//! writes, not to its size. Where a lock word is stored is invisible to
//! the simulated machine, so no simulated cycle depends on it.

use std::cell::{Cell, RefCell};

use crate::addr::WordAddr;
use crate::config::Granularity;
use crate::fxhash::FxHashMap;

/// Decoded view of a lock word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockWord {
    /// Unlocked; the version of the last writer.
    Unlocked {
        /// Commit timestamp of the last write.
        version: u64,
    },
    /// Locked by a writer.
    Locked {
        /// Thread id of the owner.
        owner: usize,
    },
}

impl LockWord {
    #[inline]
    fn decode(raw: u64) -> LockWord {
        if raw & 1 == 1 {
            LockWord::Locked {
                owner: (raw >> 1) as usize,
            }
        } else {
            LockWord::Unlocked { version: raw >> 1 }
        }
    }

    #[inline]
    fn encode(self) -> u64 {
        match self {
            LockWord::Unlocked { version } => version << 1,
            LockWord::Locked { owner } => ((owner as u64) << 1) | 1,
        }
    }
}

/// The TL2 global version clock.
#[derive(Debug, Default)]
pub struct GlobalClock {
    clock: Cell<u64>,
}

impl GlobalClock {
    /// A clock starting at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current version (a transaction's read timestamp `rv`).
    #[inline]
    pub fn read(&self) -> u64 {
        self.clock.get()
    }

    /// Advance the clock and return the new write version `wv`.
    #[inline]
    pub fn increment(&self) -> u64 {
        let wv = self.clock.get() + 1;
        self.clock.set(wv);
        wv
    }
}

/// The global versioned-lock table.
pub struct LockTable {
    /// Lock index -> raw lock word, for the entries that are not 0.
    words: RefCell<FxHashMap<u32, u64>>,
    mask: u64,
    gran_shift: u32,
}

impl LockTable {
    /// Create a table of `2^bits` lock words covering addresses at the
    /// given conflict-detection granularity. Every entry starts as
    /// `Unlocked { version: 0 }`.
    pub fn new(bits: u32, granularity: Granularity) -> Self {
        assert!((10..=28).contains(&bits), "unreasonable lock table size");
        LockTable {
            words: RefCell::new(FxHashMap::default()),
            mask: (1u64 << bits) - 1,
            gran_shift: match granularity {
                Granularity::Word => 0, // word addresses are already word-granular
                Granularity::Line => 2, // 4 words per line
            },
        }
    }

    /// The lock-table index covering `addr`.
    #[inline]
    pub fn index_of(&self, addr: WordAddr) -> u32 {
        let g = addr.0 >> self.gran_shift;
        // Fibonacci hashing spreads adjacent granules across the table.
        ((g.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) & self.mask) as u32
    }

    /// Load and decode the lock word at `idx`.
    #[inline]
    pub fn load(&self, idx: u32) -> LockWord {
        LockWord::decode(self.words.borrow().get(&idx).copied().unwrap_or(0))
    }

    /// Try to lock entry `idx` for `owner`. On success returns the
    /// version the entry held; on failure (already locked, by anyone)
    /// returns `Err` with the observed word.
    #[inline]
    pub fn try_lock(&self, idx: u32, owner: usize) -> Result<u64, LockWord> {
        let mut words = self.words.borrow_mut();
        let slot = words.entry(idx).or_default();
        match LockWord::decode(*slot) {
            LockWord::Unlocked { version } => {
                *slot = LockWord::Locked { owner }.encode();
                Ok(version)
            }
            locked => Err(locked),
        }
    }

    /// Release entry `idx`, stamping it with `version`.
    ///
    /// The caller must hold the lock.
    #[inline]
    pub fn unlock(&self, idx: u32, version: u64) {
        let mut words = self.words.borrow_mut();
        debug_assert!(matches!(
            LockWord::decode(words.get(&idx).copied().unwrap_or(0)),
            LockWord::Locked { .. }
        ));
        let raw = LockWord::Unlocked { version }.encode();
        if raw == 0 {
            words.remove(&idx);
        } else {
            words.insert(idx, raw);
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl std::fmt::Debug for LockTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockTable")
            .field("entries", &self.len())
            .field("gran_shift", &self.gran_shift)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_monotonic() {
        let c = GlobalClock::new();
        assert_eq!(c.read(), 0);
        assert_eq!(c.increment(), 1);
        assert_eq!(c.increment(), 2);
        assert_eq!(c.read(), 2);
    }

    #[test]
    fn lock_word_roundtrip() {
        for w in [
            LockWord::Unlocked { version: 0 },
            LockWord::Unlocked { version: 123456 },
            LockWord::Locked { owner: 0 },
            LockWord::Locked { owner: 31 },
        ] {
            assert_eq!(LockWord::decode(w.encode()), w);
        }
    }

    #[test]
    fn lock_unlock_cycle() {
        let t = LockTable::new(10, Granularity::Word);
        let idx = t.index_of(WordAddr(100));
        assert_eq!(t.load(idx), LockWord::Unlocked { version: 0 });
        assert_eq!(t.try_lock(idx, 3), Ok(0));
        assert_eq!(t.load(idx), LockWord::Locked { owner: 3 });
        // Second lock attempt fails and reports the owner.
        assert_eq!(t.try_lock(idx, 4), Err(LockWord::Locked { owner: 3 }));
        t.unlock(idx, 7);
        assert_eq!(t.load(idx), LockWord::Unlocked { version: 7 });
        assert_eq!(t.try_lock(idx, 4), Ok(7));
    }

    #[test]
    fn unwritten_entries_read_zero_and_storage_stays_sparse() {
        let t = LockTable::new(10, Granularity::Word);
        assert_eq!(t.len(), 1024);
        for idx in 0..1024 {
            assert_eq!(t.load(idx), LockWord::Unlocked { version: 0 });
        }
        assert_eq!(t.words.borrow().len(), 0, "loads must not insert");
        let mut written = std::collections::HashSet::new();
        for (i, addr) in (0..600u64).map(|a| a * 37).enumerate() {
            let idx = t.index_of(WordAddr(addr));
            if t.try_lock(idx, i % 8).is_ok() {
                written.insert(idx);
                // Every third release restores version 0.
                t.unlock(idx, if i % 3 == 0 { 0 } else { i as u64 });
            }
            assert!(t.words.borrow().len() <= written.len());
        }
        for idx in 0..1024 {
            if !written.contains(&idx) {
                assert_eq!(t.load(idx), LockWord::Unlocked { version: 0 });
            }
        }
    }

    #[test]
    fn word_granularity_separates_words_in_a_line() {
        let t = LockTable::new(20, Granularity::Word);
        // Adjacent words should (virtually always) map to different
        // entries under word granularity.
        let a = t.index_of(WordAddr(64));
        let b = t.index_of(WordAddr(65));
        assert_ne!(a, b);
    }

    #[test]
    fn line_granularity_merges_words_in_a_line() {
        let t = LockTable::new(20, Granularity::Line);
        let a = t.index_of(WordAddr(64)); // line 16
        let b = t.index_of(WordAddr(65));
        let c = t.index_of(WordAddr(67));
        let d = t.index_of(WordAddr(68)); // line 17
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_ne!(a, d);
    }
}
