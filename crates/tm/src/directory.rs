//! The line directory: a software stand-in for the coherence protocol
//! that the HTM systems use for conflict detection (§IV of the paper).
//!
//! Each 32-byte line speculatively touched by some transaction has an
//! entry recording its transactional readers and writers as thread
//! bitmasks. The eager HTM checks the entry at every access
//! (encounter-time detection, single-writer discipline enforced by
//! aborts); the lazy HTM only records entries during execution — multiple
//! buffered writers are legal — and scans them at commit to doom
//! conflicting transactions (commit-time detection). The entries live in
//! one map owned by the run. A directory operation makes no scheduler
//! call, so it completes before any other logical thread runs; that is
//! the atomicity the real coherence protocol provides (see
//! [`crate::runtime`] for the interleaving model).

use std::cell::RefCell;

use crate::addr::LineAddr;
use crate::fxhash::FxHashMap;

/// Lines the map holds before it first grows. Entries live only while
/// a transaction tracks the line: on 16 threads at the apps' default
/// sizes the most live at once was 1,352 (bayes), so no run measured
/// rehashes.
const PRESIZED_LINES: usize = 2048;

/// Readers and writers of a line, as observed atomically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Occupancy {
    /// Bitmask of reader thread ids.
    pub readers: u32,
    /// Bitmask of writer thread ids.
    pub writers: u32,
}

impl Occupancy {
    /// Readers other than `tid`, as a bitmask.
    #[inline]
    pub fn other_readers(&self, tid: usize) -> u32 {
        self.readers & !(1u32 << tid)
    }

    /// Writers other than `tid`, as a bitmask.
    #[inline]
    pub fn other_writers(&self, tid: usize) -> u32 {
        self.writers & !(1u32 << tid)
    }

    /// Everyone involved with the line except `tid`.
    #[inline]
    pub fn others(&self, tid: usize) -> u32 {
        (self.readers | self.writers) & !(1u32 << tid)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    readers: u32,
    writers: u32,
}

impl Entry {
    fn occupancy(&self) -> Occupancy {
        Occupancy {
            readers: self.readers,
            writers: self.writers,
        }
    }

    fn is_empty(&self) -> bool {
        self.readers == 0 && self.writers == 0
    }
}

/// The line directory. Supports up to 32 threads.
pub struct Directory {
    lines: RefCell<FxHashMap<u64, Entry>>,
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Directory {
    /// Create an empty directory.
    pub fn new() -> Self {
        let lines = FxHashMap::with_capacity_and_hasher(PRESIZED_LINES, Default::default());
        Directory {
            lines: RefCell::new(lines),
        }
    }

    /// Record `tid` as a reader of `line` and return the occupancy
    /// *before* the insertion (for encounter-time conflict checks).
    pub fn add_reader(&self, line: LineAddr, tid: usize) -> Occupancy {
        let mut lines = self.lines.borrow_mut();
        let entry = lines.entry(line.0).or_default();
        let before = entry.occupancy();
        entry.readers |= 1u32 << tid;
        before
    }

    /// Record `tid` as a writer of `line` and return the occupancy
    /// *before* the insertion.
    pub fn add_writer(&self, line: LineAddr, tid: usize) -> Occupancy {
        let mut lines = self.lines.borrow_mut();
        let entry = lines.entry(line.0).or_default();
        let before = entry.occupancy();
        entry.writers |= 1u32 << tid;
        before
    }

    /// Current occupancy of `line`.
    pub fn occupancy(&self, line: LineAddr) -> Occupancy {
        self.lines
            .borrow()
            .get(&line.0)
            .map(|e| e.occupancy())
            .unwrap_or_default()
    }

    /// Remove `tid` from `line` (both roles), garbage-collecting empty
    /// entries.
    pub fn remove(&self, line: LineAddr, tid: usize) {
        self.clear_roles(line, !(1u32 << tid), !(1u32 << tid));
    }

    /// Remove `tid` as a *reader* of `line` only (early release).
    pub fn remove_reader(&self, line: LineAddr, tid: usize) {
        self.clear_roles(line, !(1u32 << tid), u32::MAX);
    }

    /// Mask `line`'s readers and writers, dropping the entry once empty.
    fn clear_roles(&self, line: LineAddr, keep_readers: u32, keep_writers: u32) {
        let mut lines = self.lines.borrow_mut();
        if let Some(entry) = lines.get_mut(&line.0) {
            entry.readers &= keep_readers;
            entry.writers &= keep_writers;
            if entry.is_empty() {
                lines.remove(&line.0);
            }
        }
    }

    /// Commit-time scan for the lazy HTM: collect every transaction
    /// involved with `line` other than the committer `tid`, run `apply`
    /// (which performs the actual memory writes for this line), and
    /// return the victims as a bitmask. `apply` makes no scheduler call,
    /// so readers that join after this call observe the post-apply
    /// memory: the doom-then-apply pair is atomic per line.
    pub fn commit_line(&self, line: LineAddr, tid: usize, apply: impl FnOnce()) -> u32 {
        let victims = self.occupancy(line).others(tid);
        apply();
        victims
    }

    /// Total number of live entries (diagnostic).
    pub fn live_entries(&self) -> usize {
        self.lines.borrow().len()
    }
}

impl std::fmt::Debug for Directory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Directory({} live lines)", self.live_entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_then_writer_occupancy() {
        let d = Directory::new();
        let l = LineAddr(10);
        let before = d.add_reader(l, 1);
        assert_eq!(before, Occupancy::default());
        let before = d.add_writer(l, 2);
        assert_eq!(before.readers, 0b10);
        assert_eq!(before.writers, 0);
        let occ = d.occupancy(l);
        assert_eq!(occ.readers, 0b10);
        assert_eq!(occ.writers, 0b100);
    }

    #[test]
    fn multiple_writers_coexist() {
        let d = Directory::new();
        let l = LineAddr(3);
        d.add_writer(l, 0);
        let before = d.add_writer(l, 1);
        assert_eq!(before.writers, 0b1);
        assert_eq!(d.occupancy(l).writers, 0b11);
    }

    #[test]
    fn remove_clears_roles_and_garbage_collects() {
        let d = Directory::new();
        let l = LineAddr(99);
        d.add_reader(l, 4);
        d.add_writer(l, 4);
        d.remove(l, 4);
        assert_eq!(d.occupancy(l), Occupancy::default());
        assert_eq!(d.live_entries(), 0);
    }

    #[test]
    fn remove_reader_keeps_writer_role() {
        let d = Directory::new();
        let l = LineAddr(50);
        d.add_reader(l, 2);
        d.add_writer(l, 2);
        d.remove_reader(l, 2);
        let occ = d.occupancy(l);
        assert_eq!(occ.readers, 0);
        assert_eq!(occ.writers, 0b100);
    }

    #[test]
    fn masks_exclude_self() {
        let occ = Occupancy {
            readers: 0b1011,
            writers: 0b0110,
        };
        assert_eq!(occ.other_readers(0), 0b1010);
        assert_eq!(occ.other_writers(1), 0b0100);
        assert_eq!(occ.others(1), 0b1101);
    }

    #[test]
    fn commit_line_reports_victims_and_applies() {
        let d = Directory::new();
        let l = LineAddr(7);
        d.add_reader(l, 0);
        d.add_reader(l, 2);
        d.add_writer(l, 1);
        let mut applied = false;
        let victims = d.commit_line(l, 1, || applied = true);
        assert!(applied);
        assert_eq!(victims, 0b101); // readers 0 and 2; committer 1 excluded
    }

    #[test]
    fn commit_line_on_absent_entry() {
        let d = Directory::new();
        let victims = d.commit_line(LineAddr(1234), 0, || {});
        assert_eq!(victims, 0);
    }
}
