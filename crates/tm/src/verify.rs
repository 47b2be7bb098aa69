//! `tm::verify` — an opt-in serializability sanitizer for the TM engine.
//!
//! When enabled (`TmConfig::verify(true)`), every transactional heap
//! access is paired, in one uninterrupted step, with an exact
//! *(value, version)* observation against a shadow copy of the heap.
//! Each committed install gets a
//! globally unique sequence number (unique even under eager undo,
//! because rollback restores the *previous shadow entry*, never
//! re-issues a number). From the per-transaction observation logs the
//! finalize pass builds the direct serialization graph:
//!
//! * **WR** edges: the committed writer of an observed version precedes
//!   its reader,
//! * **WW** edges: consecutive committed installs on the same address,
//!   in install order,
//! * **RW** edges: a reader precedes the committed writer that next
//!   overwrites what it read.
//!
//! A cycle among *committed* transactions means the execution is not
//! serializable — the report names the transaction pair(s), the
//! conflicting addresses, and the owning TM system. On top of the
//! graph the sanitizer checks:
//!
//! * **dirty reads** — a committed transaction observed a version
//!   installed by an attempt that never committed (eager in-place
//!   write leaked past an abort),
//! * **zombie / unstable reads** — one attempt observed two different
//!   versions of the same address. Committed attempts must be stable
//!   on every system; where the system's row sets
//!   [`aborts_must_be_opaque`](crate::txn::SystemProps::aborts_must_be_opaque)
//!   (the two STMs) even *aborted* attempts are checked,
//! * **bypassed writes** — the real heap value diverged from the
//!   shadow value, i.e. somebody wrote memory without going through a
//!   `Txn`/`ThreadCtx` barrier while transactions were live,
//! * **early-release audit** — after [`crate::txn::Txn::early_release`]
//!   drops a line from the read set, the same transaction must not
//!   write that line without re-reading it first (labyrinth's
//!   revalidation pattern re-arms the line; a blind write would be
//!   invisible to conflict detection).
//!
//! The sanitizer is a pure observer: it charges **zero** simulated
//! cycles, so `sim_cycles` figures are bit-identical with verification
//! on or off. Its cost is real wall-clock time (a shadow update or
//! lookup on the instrumented paths plus the finalize pass) and is
//! reported in [`crate::stats::VerifyCost`].
//!
//! Data layout, chosen so that the work is proportional to *distinct*
//! observations and a lookup by address is array indexing, not hashing:
//!
//! * The **shadow heap** is dense and indexed by word address, like
//!   [`TmHeap`] itself: a page table of fixed-size pages, each page
//!   allocated zeroed the first time one of its words is touched. An
//!   entry whose `seq` is 0 has never been touched; the first check of
//!   such a word seeds it from the real heap value as an environment
//!   install, so first touch is never mistaken for a bypass.
//! * An attempt logs each (word, version) it reads once. A per-attempt
//!   map holds each word's first observation; a read-back of the
//!   attempt's own write or a re-read of that version logs nothing, and
//!   a re-read at another version is logged and flagged as unstable on
//!   the spot. Early release looks up the line's four words in that map.
//! * Committed logs are appended to one arena per run (reads, installs,
//!   flagged violations), in commit order.
//! * `finalize` groups the committed installs by address with a
//!   counting sort through a dense index over the same page layout,
//!   filters each transaction's WR and RW edges through node-indexed
//!   marks before the edge set sees them, and searches for a cycle over
//!   a compressed adjacency that keeps each node's edges in insertion
//!   order. Edge witnesses and violation order are a pure function of
//!   the run.
//!
//! Borrow discipline: code holding the sanitizer state's `RefCell`
//! borrow never touches the scheduler, lock table, directory, or commit
//! token — it only reads/writes the heap word under inspection and the
//! shadow heap — so a heap access and its shadow update form one
//! uninterrupted step (see [`crate::runtime`]).

use std::cell::RefCell;
use std::collections::hash_map::Entry as MapEntry;
use std::fmt;
use std::time::Instant;

use crate::config::SystemKind;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::heap::TmHeap;
use crate::stats::VerifyCost;
use crate::{LineAddr, WordAddr, WORDS_PER_LINE};

/// Who installed a shadow entry: 0 stands for the environment
/// (pre-existing memory, setup-phase writes, or instrumented
/// non-transactional stores such as `ThreadCtx::store`), which is not a
/// graph node; any other value is the globally unique id of the
/// transactional attempt (ids start at 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Writer(u64);

impl Writer {
    const ENV: Writer = Writer(0);

    fn attempt(id: u64) -> Writer {
        debug_assert_ne!(id, 0, "attempt ids start at 1");
        Writer(id)
    }

    /// The installing attempt, or `None` for the environment.
    fn attempt_id(self) -> Option<u64> {
        (self.0 != 0).then_some(self.0)
    }
}

/// Current shadow state of one heap word. The all-zero entry (`seq`
/// 0) means "never touched".
#[derive(Debug, Clone, Copy, Default)]
struct ShadowEntry {
    /// Globally unique install sequence number (issued from 1 up).
    seq: u64,
    /// Who installed it.
    writer: Writer,
    /// The value that the heap must hold while this entry is current.
    value: u64,
}

/// log2 of the page size in words, for the shadow heap and the
/// finalize install index alike.
const SHADOW_PAGE_BITS: u32 = 12;
/// Words per page.
const SHADOW_PAGE_WORDS: usize = 1 << SHADOW_PAGE_BITS;

/// A dense table indexed by word address: a page table of fixed-size
/// pages, each allocated (every slot `T::default()`) the first time one
/// of its words is touched.
#[derive(Debug)]
struct Pages<T> {
    pages: Vec<Option<Box<[T]>>>,
}

impl<T> Default for Pages<T> {
    fn default() -> Self {
        Pages { pages: Vec::new() }
    }
}

impl<T: Copy + Default> Pages<T> {
    fn slot(&mut self, addr: u64) -> &mut T {
        let page = (addr >> SHADOW_PAGE_BITS) as usize;
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let words =
            self.pages[page].get_or_insert_with(|| vec![T::default(); SHADOW_PAGE_WORDS].into());
        &mut words[addr as usize & (SHADOW_PAGE_WORDS - 1)]
    }

    /// The slot of `addr`, or `None` if its page was never touched.
    fn get(&self, addr: u64) -> Option<&T> {
        let words = self
            .pages
            .get((addr >> SHADOW_PAGE_BITS) as usize)?
            .as_deref()?;
        Some(&words[addr as usize & (SHADOW_PAGE_WORDS - 1)])
    }

    /// Every slot of every allocated page with its word address, in
    /// ascending address order.
    fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.pages.iter_mut().enumerate().flat_map(|(page, words)| {
            let base = (page as u64) << SHADOW_PAGE_BITS;
            words
                .iter_mut()
                .flat_map(|w| w.iter_mut())
                .enumerate()
                .map(move |(k, slot)| (base + k as u64, slot))
        })
    }
}

/// `ReadObs::seq` of an observation whose line the attempt later
/// early-released (real versions are issued from 1).
const RELEASED: u64 = 0;

/// One read observation: `(address, version)` plus provenance.
#[derive(Debug, Clone, Copy)]
struct ReadObs {
    addr: u64,
    /// The version read, or [`RELEASED`] once the attempt early-released
    /// the line: released observations are dropped at commit, so they
    /// take part in no edge or check.
    seq: u64,
    writer: Writer,
}

// Every committed read is kept until finalize: keep the record at three words.
const _: () = assert!(std::mem::size_of::<ReadObs>() == 24);

/// One committed install: `(address, version)`.
#[derive(Debug, Clone, Copy)]
struct WriteObs {
    addr: u64,
    seq: u64,
}

/// The line holding word `addr`.
fn line_of(addr: u64) -> u64 {
    WordAddr(addr).line().0
}

/// Per-thread, per-attempt observation log. Lives in `ThreadCtx`;
/// reset by [`begin_attempt`], harvested by [`commit_attempt`].
#[derive(Debug, Default)]
pub(crate) struct VerifyTxn {
    /// Globally unique id of the current attempt (0 = none yet).
    attempt: u64,
    /// Each distinct `(word, version)` the attempt read from someone
    /// else, in first-read order.
    reads: Vec<ReadObs>,
    /// word -> index in `reads` of the attempt's first observation of
    /// it since its line was last released.
    first_read: FxHashMap<u64, u32>,
    /// Re-reads that saw a version other than the word's first
    /// observation, as `(addr, first_seq, second_seq)` in read order.
    unstable: Vec<(u64, u64, u64)>,
    writes: Vec<WriteObs>,
    /// Shadow entries displaced by eager in-place writes, in push
    /// order; restored (in reverse) on rollback, mirroring the
    /// engine's own undo log one-for-one.
    shadow_undo: Vec<(u64, ShadowEntry)>,
    /// Lines released by `early_release` and not re-read since.
    released_lines: FxHashSet<u64>,
    /// Addresses written while their line sat in `released_lines`.
    release_violations: Vec<u64>,
}

/// A committed transaction: who ran it, and where its observations end
/// in the [`CommitLog`] arenas (each starts where the previous
/// transaction's ends).
#[derive(Debug)]
struct CommittedTxn {
    attempt: u64,
    tid: usize,
    reads_end: usize,
    writes_end: usize,
}

/// The committed transactions of a run, in commit order, with their
/// logs concatenated into one arena per kind.
#[derive(Debug, Default)]
struct CommitLog {
    txns: Vec<CommittedTxn>,
    reads: Vec<ReadObs>,
    writes: Vec<WriteObs>,
    /// Violations a transaction's own log already showed (unstable
    /// reads, then early-release misuse), keyed by its index in `txns`.
    flags: Vec<(u32, Violation)>,
}

impl CommitLog {
    /// Each committed transaction with its reads and installs.
    fn iter(&self) -> impl Iterator<Item = (&CommittedTxn, &[ReadObs], &[WriteObs])> {
        let mut reads = 0;
        let mut writes = 0;
        self.txns.iter().map(move |c| {
            let r = &self.reads[reads..c.reads_end];
            let w = &self.writes[writes..c.writes_end];
            (reads, writes) = (c.reads_end, c.writes_end);
            (c, r, w)
        })
    }
}

#[derive(Debug, Default)]
struct VerifyInner {
    next_seq: u64,
    next_attempt: u64,
    shadow: Pages<ShadowEntry>,
    log: CommitLog,
    /// Violations detected while the run is still going (bypassed
    /// writes, zombie reads in aborted STM attempts).
    runtime_violations: Vec<Violation>,
    /// Addresses already reported as bypassed (dedup).
    bypass_reported: FxHashSet<u64>,
}

/// Global sanitizer state, one per [`crate::runtime::TmRuntime::run`]
/// phase (it hangs off `Global`).
#[derive(Debug, Default)]
pub struct VerifyState {
    inner: RefCell<VerifyInner>,
}
/// Identifies one transaction in a report: which attempt, on which
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnId {
    /// Globally unique attempt id (assigned at `begin_attempt`).
    pub attempt: u64,
    /// The thread that ran it.
    pub tid: usize,
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}@tid{}", self.attempt, self.tid)
    }
}

/// The kind of a direct-serialization-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Writer → reader of the installed version.
    WriteRead,
    /// Earlier installer → next installer of the same address.
    WriteWrite,
    /// Reader → the committed writer that next overwrote what it read.
    ReadWrite,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EdgeKind::WriteRead => "WR",
            EdgeKind::WriteWrite => "WW",
            EdgeKind::ReadWrite => "RW",
        })
    }
}

/// One edge of the serialization graph, with the address that induced
/// it (the witness used in cycle reports).
#[derive(Debug, Clone, Copy)]
pub struct EdgeWitness {
    /// Source transaction.
    pub from: TxnId,
    /// Destination transaction (must serialize after `from`).
    pub to: TxnId,
    /// Dependency kind.
    pub kind: EdgeKind,
    /// The heap word the two transactions conflict on.
    pub addr: u64,
}

impl fmt::Display for EdgeWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -{}(0x{:x})-> {}",
            self.from, self.kind, self.addr, self.to
        )
    }
}

/// One correctness violation found by the sanitizer.
#[derive(Debug, Clone)]
pub enum Violation {
    /// The committed transactions are not serializable: the direct
    /// serialization graph contains this cycle.
    SerializationCycle {
        /// The transactions on the cycle, in order (the last edge
        /// closes back to the first entry).
        txns: Vec<TxnId>,
        /// One witness edge per consecutive pair.
        edges: Vec<EdgeWitness>,
    },
    /// A committed transaction read a version installed by an attempt
    /// that never committed.
    DirtyRead {
        /// The committed reader.
        reader: TxnId,
        /// The heap word involved.
        addr: u64,
        /// Attempt id of the aborted writer whose value leaked.
        writer_attempt: u64,
    },
    /// One attempt observed two different versions of the same word —
    /// its reads fit no single snapshot (zombie read / opacity
    /// violation).
    UnstableRead {
        /// The attempt with inconsistent reads (`attempt` id is still
        /// meaningful for aborted attempts).
        txn: TxnId,
        /// The word read twice.
        addr: u64,
        /// Version seen first.
        first_seq: u64,
        /// Different version seen later in the same attempt.
        second_seq: u64,
        /// Whether the attempt went on to commit.
        committed: bool,
    },
    /// The heap value diverged from the shadow value: something wrote
    /// memory without going through a `Txn`/`ThreadCtx` barrier.
    BypassedWrite {
        /// The word that diverged.
        addr: u64,
        /// What the heap actually held.
        heap_value: u64,
        /// What the last instrumented write installed.
        shadow_value: u64,
    },
    /// A transaction wrote a word whose line it had early-released
    /// without re-reading it first — the write is invisible to
    /// conflict detection.
    EarlyReleaseWrite {
        /// The offending transaction.
        txn: TxnId,
        /// The word written on the still-released line.
        addr: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SerializationCycle { txns, edges } => {
                write!(f, "serialization cycle among {} txns: ", txns.len())?;
                for (i, e) in edges.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            Violation::DirtyRead {
                reader,
                addr,
                writer_attempt,
            } => write!(
                f,
                "dirty read: {reader} observed 0x{addr:x} from aborted attempt T{writer_attempt}"
            ),
            Violation::UnstableRead {
                txn,
                addr,
                first_seq,
                second_seq,
                committed,
            } => write!(
                f,
                "unstable read: {txn} ({}) saw 0x{addr:x} at version {first_seq} then {second_seq}",
                if *committed { "committed" } else { "aborted" }
            ),
            Violation::BypassedWrite {
                addr,
                heap_value,
                shadow_value,
            } => write!(
                f,
                "bypassed write: heap[0x{addr:x}] = {heap_value} but last barriered write installed {shadow_value}"
            ),
            Violation::EarlyReleaseWrite { txn, addr } => write!(
                f,
                "early-release misuse: {txn} wrote 0x{addr:x} on a line it released without re-reading"
            ),
        }
    }
}

/// The sanitizer's end-of-run report, attached to
/// [`crate::runtime::RunReport`] when verification is enabled.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The TM system the run used (named in violation reports).
    pub system: SystemKind,
    /// Bookkeeping cost of the verification pass.
    pub cost: VerifyCost,
    /// Everything the sanitizer found; empty means the run was clean.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// True when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} txns, {} edges, {:?}: ",
            self.system.label(),
            self.cost.txns_checked,
            self.cost.edges,
            self.cost.wall
        )?;
        if self.is_clean() {
            f.write_str("clean")
        } else {
            writeln!(f, "{} violation(s)", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

impl VerifyInner {
    fn fresh_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Look up (seeding on first touch) the shadow entry for `addr`,
    /// cross-checking it against the real heap value. A divergence is
    /// a bypassed write: report it once per address and re-seed so the
    /// run can continue producing meaningful observations.
    fn entry_checked(&mut self, addr: u64, heap_value: u64) -> ShadowEntry {
        let slot = self.shadow.slot(addr);
        let cur = *slot;
        if cur.seq != 0 && cur.value == heap_value {
            return cur;
        }
        if cur.seq != 0 && self.bypass_reported.insert(addr) {
            self.runtime_violations.push(Violation::BypassedWrite {
                addr,
                heap_value,
                shadow_value: cur.value,
            });
        }
        self.next_seq += 1;
        let fresh = ShadowEntry {
            seq: self.next_seq,
            writer: Writer::ENV,
            value: heap_value,
        };
        *slot = fresh;
        fresh
    }

    /// Install a new version of `addr` written by `writer` (after
    /// checking the current one against `heap_value`, the heap word it
    /// replaces). Returns the displaced entry and the new version.
    fn install(
        &mut self,
        addr: u64,
        heap_value: u64,
        writer: Writer,
        value: u64,
    ) -> (ShadowEntry, u64) {
        let prev = self.entry_checked(addr, heap_value);
        let seq = self.fresh_seq();
        *self.shadow.slot(addr) = ShadowEntry { seq, writer, value };
        (prev, seq)
    }
}

/// Assign the next attempt id and clear the per-attempt log.
pub(crate) fn begin_attempt(vs: &VerifyState, vtx: &mut VerifyTxn) {
    let mut inner = vs.inner.borrow_mut();
    inner.next_attempt += 1;
    vtx.attempt = inner.next_attempt;
    drop(inner);
    vtx.reads.clear();
    vtx.first_read.clear();
    vtx.unstable.clear();
    vtx.writes.clear();
    vtx.shadow_undo.clear();
    vtx.released_lines.clear();
    vtx.release_violations.clear();
}

/// Load `addr` and the shadow entry that says which version it holds.
fn observe(inner: &mut VerifyInner, addr: WordAddr, heap: &TmHeap) -> (u64, ReadObs) {
    let value = heap.raw_load(addr);
    let entry = inner.entry_checked(addr.0, value);
    let obs = ReadObs {
        addr: addr.0,
        seq: entry.seq,
        writer: entry.writer,
    };
    (value, obs)
}

/// Transactional read, its observation recorded at once: the raw load
/// is the last step of every read barrier.
pub(crate) fn read_record(
    vs: &VerifyState,
    vtx: &mut VerifyTxn,
    heap: &TmHeap,
    addr: WordAddr,
) -> u64 {
    let (value, obs) = observe(&mut vs.inner.borrow_mut(), addr, heap);
    record_read(vtx, obs);
    value
}

/// Add a read observation to the attempt's log. A read-back of the
/// attempt's own write, or a re-read of the version it first read,
/// records nothing; a re-read at another version is logged and flagged
/// as unstable.
fn record_read(vtx: &mut VerifyTxn, obs: ReadObs) {
    // A fresh read re-arms an early-released line.
    if !vtx.released_lines.is_empty() {
        vtx.released_lines.remove(&line_of(obs.addr));
    }
    if obs.writer == Writer::attempt(vtx.attempt) {
        return;
    }
    let idx = u32::try_from(vtx.reads.len()).expect("read log exceeds u32 indices");
    match vtx.first_read.entry(obs.addr) {
        MapEntry::Vacant(e) => {
            e.insert(idx);
        }
        MapEntry::Occupied(e) => {
            let first_seq = vtx.reads[*e.get() as usize].seq;
            if first_seq == obs.seq {
                return;
            }
            vtx.unstable.push((obs.addr, first_seq, obs.seq));
        }
    }
    vtx.reads.push(obs);
}

fn note_write_line(vtx: &mut VerifyTxn, addr: WordAddr) {
    if !vtx.released_lines.is_empty() && vtx.released_lines.remove(&addr.line().0) {
        vtx.release_violations.push(addr.0);
    }
}

/// Eager in-place transactional write: installs the new value in heap
/// and shadow, pushing the displaced shadow entry onto the attempt's
/// shadow undo log. Returns the previous heap value for the engine's
/// own undo log (the two logs stay index-aligned).
pub(crate) fn write_eager(
    vs: &VerifyState,
    vtx: &mut VerifyTxn,
    heap: &TmHeap,
    addr: WordAddr,
    value: u64,
) -> u64 {
    note_write_line(vtx, addr);
    let mut inner = vs.inner.borrow_mut();
    let prev_value = heap.raw_load(addr);
    let (prev, seq) = inner.install(addr.0, prev_value, Writer::attempt(vtx.attempt), value);
    heap.raw_store(addr, value);
    drop(inner);
    vtx.shadow_undo.push((addr.0, prev));
    vtx.writes.push(WriteObs { addr: addr.0, seq });
    prev_value
}

/// Commit-time write-back (lazy systems): installs with no undo.
pub(crate) fn write_commit(
    vs: &VerifyState,
    vtx: &mut VerifyTxn,
    heap: &TmHeap,
    addr: WordAddr,
    value: u64,
) {
    note_write_line(vtx, addr);
    let mut inner = vs.inner.borrow_mut();
    let prev_value = heap.raw_load(addr);
    let (_, seq) = inner.install(addr.0, prev_value, Writer::attempt(vtx.attempt), value);
    heap.raw_store(addr, value);
    drop(inner);
    vtx.writes.push(WriteObs { addr: addr.0, seq });
}

/// Instrumented non-transactional store (`ThreadCtx::store`,
/// `Txn::init_word`): keeps the shadow in sync so later transactional
/// reads don't see a phantom bypass. Not a graph node.
pub(crate) fn write_nontxn(vs: &VerifyState, heap: &TmHeap, addr: WordAddr, value: u64) {
    let mut inner = vs.inner.borrow_mut();
    let prev_value = heap.raw_load(addr);
    inner.install(addr.0, prev_value, Writer::ENV, value);
    heap.raw_store(addr, value);
}

/// The transaction early-released `line`: its observations of that
/// line stop participating in conflict edges and stability checks, a
/// later read of one of its words starts a fresh observation, and the
/// line is armed for the write-without-re-read audit.
pub(crate) fn release_line(vtx: &mut VerifyTxn, line: LineAddr) {
    let first = line.first_word().0;
    for addr in first..first + WORDS_PER_LINE {
        if let Some(idx) = vtx.first_read.remove(&addr) {
            vtx.reads[idx as usize].seq = RELEASED;
        }
    }
    // Only an unstable re-read logs a word twice; those observations
    // are found by a scan, and their pending violations dropped.
    if vtx
        .unstable
        .iter()
        .any(|&(addr, ..)| line_of(addr) == line.0)
    {
        for obs in vtx.reads.iter_mut().filter(|o| line_of(o.addr) == line.0) {
            obs.seq = RELEASED;
        }
        vtx.unstable.retain(|&(addr, ..)| line_of(addr) != line.0);
    }
    vtx.released_lines.insert(line.0);
}

/// The unstable reads an attempt flagged, as violations.
fn unstable_violations(
    vtx: &VerifyTxn,
    tid: usize,
    committed: bool,
) -> impl Iterator<Item = Violation> + '_ {
    let txn = TxnId {
        attempt: vtx.attempt,
        tid,
    };
    vtx.unstable.iter().map(
        move |&(addr, first_seq, second_seq)| Violation::UnstableRead {
            txn,
            addr,
            first_seq,
            second_seq,
            committed,
        },
    )
}

/// Append a committed attempt's log to the run's arenas.
pub(crate) fn commit_attempt(vs: &VerifyState, vtx: &mut VerifyTxn, tid: usize) {
    let mut inner = vs.inner.borrow_mut();
    let log = &mut inner.log;
    let node = u32::try_from(log.txns.len()).expect("committed transactions exceed u32 nodes");
    log.reads
        .extend(vtx.reads.iter().filter(|obs| obs.seq != RELEASED));
    log.writes.extend_from_slice(&vtx.writes);
    let txn = TxnId {
        attempt: vtx.attempt,
        tid,
    };
    log.flags.extend(
        unstable_violations(vtx, tid, true)
            .chain(
                vtx.release_violations
                    .iter()
                    .map(|&addr| Violation::EarlyReleaseWrite { txn, addr }),
            )
            .map(|v| (node, v)),
    );
    log.txns.push(CommittedTxn {
        attempt: vtx.attempt,
        tid,
        reads_end: log.reads.len(),
        writes_end: log.writes.len(),
    });
    drop(inner);
    vtx.shadow_undo.clear();
}

/// Roll back an aborted attempt: restore heap *and* shadow from the
/// two index-aligned undo logs (newest first), then — if the system
/// promises `opaque` aborts — report the zombie's unstable reads.
pub(crate) fn rollback_restore(
    vs: &VerifyState,
    vtx: &mut VerifyTxn,
    heap: &TmHeap,
    undo: &[(u64, u64)],
    tid: usize,
    opaque: bool,
) {
    let mut inner = vs.inner.borrow_mut();
    debug_assert_eq!(undo.len(), vtx.shadow_undo.len());
    for (&(addr, value), &(saddr, sentry)) in undo.iter().rev().zip(vtx.shadow_undo.iter().rev()) {
        debug_assert_eq!(addr, saddr);
        heap.raw_store(WordAddr(addr), value);
        *inner.shadow.slot(saddr) = sentry;
    }
    if opaque {
        inner
            .runtime_violations
            .extend(unstable_violations(vtx, tid, false));
    }
    drop(inner);
    vtx.shadow_undo.clear();
}

/// Find a directed cycle in a graph of `n` nodes. Returns the nodes on
/// one cycle in path order (each consecutive pair is an edge, and so
/// is last → first), or `None` if the graph is acyclic. The search is
/// a depth-first walk that tries each node's out-edges in the order
/// they appear in `edges`.
///
/// Public so the property tests can drive it directly with random
/// DAGs and planted cycles.
pub fn find_cycle(n: usize, edges: &[(u32, u32)]) -> Option<Vec<u32>> {
    // Compressed adjacency: node u's successors are
    // `succ[start[u]..start[u + 1]]`, in edge order.
    let mut start = vec![0u32; n + 1];
    for &(a, _) in edges {
        start[a as usize + 1] += 1;
    }
    for u in 0..n {
        start[u + 1] += start[u];
    }
    let mut succ = vec![0u32; edges.len()];
    for &(a, b) in edges {
        succ[start[a as usize] as usize] = b;
        start[a as usize] += 1;
    }
    // Placement advanced each start to the next node's: shift back.
    start.copy_within(0..n, 1);
    start[0] = 0;

    // 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut color = vec![0u8; n];
    let mut path: Vec<u32> = Vec::new();
    // Iterative DFS: (node, next index into `succ`).
    let mut stack: Vec<(u32, u32)> = Vec::new();
    for root in 0..n {
        if color[root] != 0 {
            continue;
        }
        color[root] = 1;
        path.push(root as u32);
        stack.push((root as u32, start[root]));
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            if *next < start[u as usize + 1] {
                let v = succ[*next as usize];
                *next += 1;
                match color[v as usize] {
                    0 => {
                        color[v as usize] = 1;
                        path.push(v);
                        stack.push((v, start[v as usize]));
                    }
                    1 => {
                        let pos = path.iter().position(|&p| p == v).expect("on path");
                        return Some(path[pos..].to_vec());
                    }
                    _ => {}
                }
            } else {
                color[u as usize] = 2;
                path.pop();
                stack.pop();
            }
        }
    }
    None
}

/// Graph node of a committed transaction: its index in commit order.
type Node = u32;
/// `node_of` value for an attempt that never committed.
const NO_NODE: Node = Node::MAX;

/// The serialization graph under construction: each distinct edge once,
/// as a node pair plus the (kind, address) that first induced it.
#[derive(Default)]
struct Graph {
    pairs: Vec<(Node, Node)>,
    witness: Vec<(EdgeKind, u64)>,
    seen: FxHashSet<(Node, Node)>,
}

impl Graph {
    fn add(&mut self, from: Node, to: Node, kind: EdgeKind, addr: u64) {
        if from != to && self.seen.insert((from, to)) {
            self.pairs.push((from, to));
            self.witness.push((kind, addr));
        }
    }

    /// The cycle violation, if the graph has a cycle.
    fn cycle(&self, ids: &[TxnId]) -> Option<Violation> {
        let cycle = find_cycle(ids.len(), &self.pairs)?;
        let edges = (0..cycle.len())
            .filter_map(|k| {
                let hop = (cycle[k], cycle[(k + 1) % cycle.len()]);
                let e = self.pairs.iter().position(|&p| p == hop)?;
                let (kind, addr) = self.witness[e];
                Some(EdgeWitness {
                    from: ids[hop.0 as usize],
                    to: ids[hop.1 as usize],
                    kind,
                    addr,
                })
            })
            .collect();
        Some(Violation::SerializationCycle {
            txns: cycle.iter().map(|&n| ids[n as usize]).collect(),
            edges,
        })
    }
}

/// Each committed transaction's [`TxnId`] (indexed by node) and the
/// node of each attempt id (ids are dense from 1; attempts that never
/// committed map to [`NO_NODE`]).
fn nodes(log: &CommitLog, attempts: u64) -> (Vec<TxnId>, Vec<Node>) {
    let ids: Vec<TxnId> = log
        .txns
        .iter()
        .map(|c| TxnId {
            attempt: c.attempt,
            tid: c.tid,
        })
        .collect();
    let mut node_of = vec![NO_NODE; attempts as usize + 1];
    for (i, c) in log.txns.iter().enumerate() {
        node_of[c.attempt as usize] = i as Node;
    }
    (ids, node_of)
}

/// Build the serialization graph over the committed transactions and
/// append every finding to `violations` (which holds the runtime ones).
/// Returns the number of distinct edges.
fn analyze(mut log: CommitLog, attempts: u64, violations: &mut Vec<Violation>) -> u64 {
    let (ids, node_of) = nodes(&log, attempts);
    let mut flags = std::mem::take(&mut log.flags).into_iter().peekable();

    // Committed installs grouped by address, by counting sort: `runs`
    // maps each word to its run `lo..hi` of `installs`, laid out in
    // ascending address order; within a run, installs follow commit
    // order, which is install order unless the engine is broken.
    u32::try_from(log.writes.len()).expect("install log exceeds u32 indices");
    let mut runs: Pages<(u32, u32)> = Pages::default();
    for w in &log.writes {
        runs.slot(w.addr).1 += 1;
    }
    let mut next = 0u32;
    for (_, run) in runs.iter_mut() {
        let count = run.1;
        *run = (next, next);
        next += count;
    }
    let mut installs: Vec<(u64, Node)> = vec![(0, 0); log.writes.len()];
    for (node, (_, _, writes)) in log.iter().enumerate() {
        for w in writes {
            let run = runs.slot(w.addr);
            installs[run.1 as usize] = (w.seq, node as Node);
            run.1 += 1;
        }
    }

    // WW: consecutive committed installs on each address.
    let mut graph = Graph::default();
    for (addr, &mut (lo, hi)) in runs.iter_mut() {
        let run = &mut installs[lo as usize..hi as usize];
        if !run.is_sorted_by_key(|&(seq, _)| seq) {
            run.sort_unstable_by_key(|&(seq, _)| seq);
        }
        for pair in run.windows(2) {
            graph.add(pair[0].1, pair[1].1, EdgeKind::WriteWrite, addr);
        }
    }

    // WR / RW / dirty reads, then the transaction's flagged violations.
    // `wr_mark[p] == stamp` once this transaction offered the graph its
    // WR edge from `p`, `rw_mark[p]` its RW edge to `p`: the edge set
    // sees each (transaction, peer, direction) once.
    let mut wr_mark: Vec<Node> = vec![0; ids.len()];
    let mut rw_mark: Vec<Node> = vec![0; ids.len()];
    for (node, (_, reads, _)) in log.iter().enumerate() {
        let me = node as Node;
        let stamp = me + 1;
        for obs in reads {
            if let Some(a) = obs.writer.attempt_id() {
                match node_of[a as usize] {
                    NO_NODE => violations.push(Violation::DirtyRead {
                        reader: ids[node],
                        addr: obs.addr,
                        writer_attempt: a,
                    }),
                    w if wr_mark[w as usize] != stamp => {
                        wr_mark[w as usize] = stamp;
                        graph.add(w, me, EdgeKind::WriteRead, obs.addr);
                    }
                    _ => {}
                }
            }
            // First committed install of this address strictly after
            // what we read.
            if let Some(&(lo, hi)) = runs.get(obs.addr) {
                let run = &installs[lo as usize..hi as usize];
                let pos = run.partition_point(|&(seq, _)| seq <= obs.seq);
                if let Some(&(_, w2)) = run.get(pos) {
                    if rw_mark[w2 as usize] != stamp {
                        rw_mark[w2 as usize] = stamp;
                        graph.add(me, w2, EdgeKind::ReadWrite, obs.addr);
                    }
                }
            }
        }
        while let Some((_, v)) = flags.next_if(|&(n, _)| n == me) {
            violations.push(v);
        }
    }
    // Only the graph is left to search: free the rest first.
    drop((log, installs, runs, wr_mark, rw_mark));

    violations.extend(graph.cycle(&ids));
    graph.pairs.len() as u64
}

/// End-of-run analysis: build the serialization graph over committed
/// transactions, run every check, and produce the report.
pub(crate) fn finalize(vs: &VerifyState, system: SystemKind) -> VerifyReport {
    let t0 = Instant::now();
    let mut inner = vs.inner.borrow_mut();
    // The run is over: the shadow heap goes back to the allocator
    // before finalize builds its own tables.
    drop(std::mem::take(&mut inner.shadow));
    let log = std::mem::take(&mut inner.log);
    let mut violations = std::mem::take(&mut inner.runtime_violations);
    let attempts = inner.next_attempt;
    drop(inner);

    #[cfg(any(test, feature = "verify-reference"))]
    let reference =
        reference::armed().then(|| reference::finalize(&log, violations.clone(), attempts, system));
    let txns_checked = log.txns.len() as u64;
    let edges = analyze(log, attempts, &mut violations);
    let report = VerifyReport {
        system,
        cost: VerifyCost {
            txns_checked,
            edges,
            wall: t0.elapsed(),
        },
        violations,
    };
    #[cfg(any(test, feature = "verify-reference"))]
    if let Some(reference) = reference {
        reference::record(&report, reference);
    }
    crate::trace!(crate::trace::TraceLevel::Verify, "{report}");
    report
}

/// The previous finalize algorithm — one sort of every committed
/// install, an address → run hash map, an edge-set probe per read, and
/// an offline stability check over each read log — kept only to
/// cross-check [`finalize`] on the same committed logs.
#[cfg(any(test, feature = "verify-reference"))]
pub mod reference {
    use super::*;

    thread_local! {
        static PAIRS: RefCell<Option<Vec<(VerifyReport, VerifyReport)>>> =
            const { RefCell::new(None) };
    }

    /// Run `f`; every sanitizer finalize it performs on this thread is
    /// also computed by the reference algorithm. Returns `f`'s result
    /// and, per finalize, `(report, reference report)`, both with
    /// `cost.wall` zeroed.
    pub fn compare<R>(f: impl FnOnce() -> R) -> (R, Vec<(VerifyReport, VerifyReport)>) {
        PAIRS.with(|p| *p.borrow_mut() = Some(Vec::new()));
        let out = f();
        let pairs = PAIRS.with(|p| p.borrow_mut().take()).unwrap_or_default();
        (out, pairs)
    }

    pub(super) fn armed() -> bool {
        PAIRS.with(|p| p.borrow().is_some())
    }

    pub(super) fn record(report: &VerifyReport, mut reference: VerifyReport) {
        let mut report = report.clone();
        report.cost.wall = std::time::Duration::ZERO;
        reference.cost.wall = std::time::Duration::ZERO;
        PAIRS.with(|p| {
            if let Some(pairs) = p.borrow_mut().as_mut() {
                pairs.push((report, reference));
            }
        });
    }

    /// The previous `check_stable`: two observations of one word at
    /// different versions, own writes excluded.
    fn check_stable(
        reads: &[ReadObs],
        txn: TxnId,
        first_seen: &mut FxHashMap<u64, u64>,
        out: &mut Vec<Violation>,
    ) {
        first_seen.clear();
        let own = Writer::attempt(txn.attempt);
        for obs in reads {
            if obs.writer == own {
                continue;
            }
            match first_seen.entry(obs.addr) {
                MapEntry::Vacant(e) => {
                    e.insert(obs.seq);
                }
                MapEntry::Occupied(e) => {
                    if *e.get() != obs.seq {
                        out.push(Violation::UnstableRead {
                            txn,
                            addr: obs.addr,
                            first_seq: *e.get(),
                            second_seq: obs.seq,
                            committed: true,
                        });
                    }
                }
            }
        }
    }

    /// The previous cycle search, over per-node adjacency vectors.
    fn find_cycle_nested(n: usize, edges: &[(u32, u32)]) -> Option<Vec<u32>> {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a as usize].push(b);
        }
        let mut color = vec![0u8; n];
        let mut path: Vec<u32> = Vec::new();
        for start in 0..n {
            if color[start] != 0 {
                continue;
            }
            let mut stack: Vec<(u32, usize)> = vec![(start as u32, 0)];
            while let Some(&mut (u, ref mut idx)) = stack.last_mut() {
                if *idx == 0 {
                    color[u as usize] = 1;
                    path.push(u);
                }
                if let Some(&v) = adj[u as usize].get(*idx) {
                    *idx += 1;
                    match color[v as usize] {
                        0 => stack.push((v, 0)),
                        1 => {
                            let pos = path.iter().position(|&p| p == v).expect("on path");
                            return Some(path[pos..].to_vec());
                        }
                        _ => {}
                    }
                } else {
                    color[u as usize] = 2;
                    path.pop();
                    stack.pop();
                }
            }
        }
        None
    }

    /// The previous finalize over `log`, after the runtime
    /// `violations`.
    pub(super) fn finalize(
        log: &CommitLog,
        mut violations: Vec<Violation>,
        attempts: u64,
        system: SystemKind,
    ) -> VerifyReport {
        let (ids, node_of) = nodes(log, attempts);
        let mut installs: Vec<(u64, u64, u32)> = log
            .iter()
            .enumerate()
            .flat_map(|(i, (_, _, w))| w.iter().map(move |w| (w.addr, w.seq, i as u32)))
            .collect();
        installs.sort_unstable();
        let mut runs: FxHashMap<u64, (u32, u32)> = FxHashMap::default();
        for (k, &(addr, _, _)) in installs.iter().enumerate() {
            runs.entry(addr).or_insert((k as u32, 0)).1 = k as u32 + 1;
        }

        let mut edges: Vec<EdgeWitness> = Vec::new();
        let mut flat: Vec<(u32, u32)> = Vec::new();
        let mut edge_set: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut push_edge = |from: u32, to: u32, kind: EdgeKind, addr: u64| {
            if from != to && edge_set.insert((from, to)) {
                flat.push((from, to));
                edges.push(EdgeWitness {
                    from: ids[from as usize],
                    to: ids[to as usize],
                    kind,
                    addr,
                });
            }
        };
        for pair in installs.windows(2) {
            let ((a0, _, n0), (a1, _, n1)) = (pair[0], pair[1]);
            if a0 == a1 {
                push_edge(n0, n1, EdgeKind::WriteWrite, a0);
            }
        }
        let mut first_seen: FxHashMap<u64, u64> = FxHashMap::default();
        for (i, (c, reads, _)) in log.iter().enumerate() {
            let me = i as u32;
            let own = Writer::attempt(c.attempt);
            for obs in reads {
                if obs.writer == own {
                    continue;
                }
                if let Some(a) = obs.writer.attempt_id() {
                    match node_of[a as usize] {
                        NO_NODE => violations.push(Violation::DirtyRead {
                            reader: ids[i],
                            addr: obs.addr,
                            writer_attempt: a,
                        }),
                        w => push_edge(w, me, EdgeKind::WriteRead, obs.addr),
                    }
                }
                if let Some(&(lo, hi)) = runs.get(&obs.addr) {
                    let run = &installs[lo as usize..hi as usize];
                    let pos = run.partition_point(|&(_, s, _)| s <= obs.seq);
                    if let Some(&(_, _, w2)) = run.get(pos) {
                        push_edge(me, w2, EdgeKind::ReadWrite, obs.addr);
                    }
                }
            }
            check_stable(reads, ids[i], &mut first_seen, &mut violations);
            violations.extend(
                log.flags
                    .iter()
                    .filter(|&&(n, ref v)| {
                        n == me && matches!(v, Violation::EarlyReleaseWrite { .. })
                    })
                    .map(|(_, v)| v.clone()),
            );
        }

        if let Some(cycle) = find_cycle_nested(ids.len(), &flat) {
            let mut witness = Vec::new();
            for k in 0..cycle.len() {
                let hop = (cycle[k], cycle[(k + 1) % cycle.len()]);
                if let Some(e) = flat.iter().position(|&f| f == hop) {
                    witness.push(edges[e]);
                }
            }
            violations.push(Violation::SerializationCycle {
                txns: cycle.iter().map(|&n| ids[n as usize]).collect(),
                edges: witness,
            });
        }
        VerifyReport {
            system,
            cost: VerifyCost {
                txns_checked: ids.len() as u64,
                edges: edges.len() as u64,
                wall: std::time::Duration::ZERO,
            },
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::XorShift64;

    /// [`finalize`], asserting that the reference algorithm reports the
    /// same on the same committed logs.
    fn finalize_checked(vs: &VerifyState, system: SystemKind) -> VerifyReport {
        let (report, pairs) = reference::compare(|| finalize(vs, system));
        let [(new, old)] = &pairs[..] else {
            panic!("one finalize, one comparison; got {}", pairs.len())
        };
        assert_eq!(new.to_string(), old.to_string());
        assert_eq!(new.cost.edges, old.cost.edges);
        assert_eq!(new.cost.txns_checked, old.cost.txns_checked);
        report
    }

    #[test]
    fn find_cycle_on_dag_is_none() {
        // 0 -> 1 -> 2, 0 -> 2: acyclic.
        assert!(find_cycle(3, &[(0, 1), (1, 2), (0, 2)]).is_none());
        assert!(find_cycle(0, &[]).is_none());
        assert!(find_cycle(5, &[]).is_none());
    }

    #[test]
    fn find_cycle_two_cycle() {
        let c = find_cycle(2, &[(0, 1), (1, 0)]).expect("cycle");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn find_cycle_returns_real_cycle() {
        // 0 -> 1 -> 2 -> 3 -> 1 plus noise.
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 1), (0, 3)];
        let c = find_cycle(4, &edges).expect("cycle");
        assert!(c.len() >= 2);
        let set: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
        for k in 0..c.len() {
            assert!(
                set.contains(&(c[k], c[(k + 1) % c.len()])),
                "edge {k} missing"
            );
        }
    }

    #[test]
    fn find_cycle_tries_out_edges_in_edge_order() {
        // Node 0's first edge leads into the 1-2 cycle, its second into
        // the 3-4 cycle: the walk must report the first.
        let edges = [(3u32, 4u32), (0, 1), (4, 3), (0, 3), (1, 2), (2, 1)];
        assert_eq!(find_cycle(5, &edges), Some(vec![1, 2]));
    }

    #[test]
    fn shadow_tracks_installs_and_detects_bypass() {
        let heap = TmHeap::new();
        let cell = heap.alloc_cell(7u64);
        let addr = cell.addr();
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        assert_eq!(read_record(&vs, &mut vtx, &heap, addr), 7);
        write_eager(&vs, &mut vtx, &heap, addr, 8);
        commit_attempt(&vs, &mut vtx, 0);
        // Un-instrumented store behind the sanitizer's back:
        heap.raw_store(addr, 99);
        begin_attempt(&vs, &mut vtx);
        assert_eq!(read_record(&vs, &mut vtx, &heap, addr), 99);
        commit_attempt(&vs, &mut vtx, 0);
        // A second divergence of the same word is not reported again.
        heap.raw_store(addr, 100);
        begin_attempt(&vs, &mut vtx);
        assert_eq!(read_record(&vs, &mut vtx, &heap, addr), 100);
        commit_attempt(&vs, &mut vtx, 0);
        let report = finalize_checked(&vs, SystemKind::EagerStm);
        assert_eq!(report.cost.txns_checked, 3);
        let bypasses: Vec<&Violation> = report
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::BypassedWrite { .. }))
            .collect();
        assert_eq!(bypasses.len(), 1, "report: {report}");
        assert!(matches!(
            bypasses[0],
            Violation::BypassedWrite {
                heap_value: 99,
                shadow_value: 8,
                ..
            }
        ));
    }

    #[test]
    fn first_touch_of_zero_word_in_allocated_page_seeds_env_entry() {
        let heap = TmHeap::new();
        let touched = heap.alloc_cell(7u64).addr();
        let zero = heap.alloc_cell(0u64).addr();
        assert_eq!(
            touched.0 >> SHADOW_PAGE_BITS,
            zero.0 >> SHADOW_PAGE_BITS,
            "both words must share a shadow page"
        );
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        read_record(&vs, &mut vtx, &heap, touched);
        // The page now exists and `zero`'s slot is all-zero, which
        // matches the heap value 0: it must still count as untouched.
        assert_eq!(read_record(&vs, &mut vtx, &heap, zero), 0);
        let entry = *vs.inner.borrow_mut().shadow.slot(zero.0);
        assert_ne!(entry.seq, 0);
        assert_eq!(entry.writer, Writer::ENV);
        assert_eq!(entry.value, 0);
        assert_eq!(vtx.reads[1].seq, entry.seq);
        commit_attempt(&vs, &mut vtx, 0);
        let report = finalize_checked(&vs, SystemKind::LazyStm);
        assert!(report.is_clean(), "report: {report}");
    }

    #[test]
    fn words_beyond_the_first_heap_chunk_are_shadowed() {
        let heap = TmHeap::new();
        heap.alloc_words(1 << 20);
        let far = heap.alloc_cell(11u64).addr();
        assert!(far.0 >= 1 << 20);
        let vs = VerifyState::default();
        let mut t1 = VerifyTxn::default();
        let mut t2 = VerifyTxn::default();
        begin_attempt(&vs, &mut t1);
        assert_eq!(read_record(&vs, &mut t1, &heap, far), 11);
        write_commit(&vs, &mut t1, &heap, far, 12);
        commit_attempt(&vs, &mut t1, 0);
        begin_attempt(&vs, &mut t2);
        assert_eq!(read_record(&vs, &mut t2, &heap, far), 12);
        commit_attempt(&vs, &mut t2, 1);
        let report = finalize_checked(&vs, SystemKind::LazyStm);
        assert!(report.is_clean(), "report: {report}");
        assert_eq!(report.cost.edges, 1, "T1 -WR-> T2 on the far word");
    }

    #[test]
    fn eager_rollback_restores_shadow() {
        let heap = TmHeap::new();
        let cell = heap.alloc_cell(5u64);
        let addr = cell.addr();
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        let prev = write_eager(&vs, &mut vtx, &heap, addr, 6);
        assert_eq!(prev, 5);
        let undo = [(addr.0, prev)];
        rollback_restore(&vs, &mut vtx, &heap, &undo, 0, true);
        assert_eq!(heap.raw_load(addr), 5);
        // Committed reader after the rollback sees the restored entry,
        // not a phantom bypass.
        begin_attempt(&vs, &mut vtx);
        assert_eq!(read_record(&vs, &mut vtx, &heap, addr), 5);
        commit_attempt(&vs, &mut vtx, 0);
        let report = finalize_checked(&vs, SystemKind::EagerStm);
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn lost_update_is_a_cycle() {
        // T1 and T2 both read v0 of the counter, then T2 and T1 each
        // commit an install: T1 -RW-> T2 (T2 overwrote what T1 read)
        // and T2 -WW-> T1 (T1 installed last) close a cycle.
        let heap = TmHeap::new();
        let cell = heap.alloc_cell(0u64);
        let addr = cell.addr();
        let vs = VerifyState::default();
        let mut t1 = VerifyTxn::default();
        let mut t2 = VerifyTxn::default();
        begin_attempt(&vs, &mut t1);
        begin_attempt(&vs, &mut t2);
        assert_eq!(read_record(&vs, &mut t1, &heap, addr), 0);
        assert_eq!(read_record(&vs, &mut t2, &heap, addr), 0);
        write_commit(&vs, &mut t2, &heap, addr, 1);
        commit_attempt(&vs, &mut t2, 1);
        write_commit(&vs, &mut t1, &heap, addr, 1);
        commit_attempt(&vs, &mut t1, 0);
        let report = finalize_checked(&vs, SystemKind::LazyStm);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::SerializationCycle { .. })),
            "report: {report}"
        );
    }

    /// Two transactions read every one of `words` fresh cells, then both
    /// install all of them: a lost update on each address.
    fn planted_lost_updates(words: u64) -> VerifyReport {
        let heap = TmHeap::new();
        let base = heap.alloc_words(words);
        let vs = VerifyState::default();
        let mut t1 = VerifyTxn::default();
        let mut t2 = VerifyTxn::default();
        begin_attempt(&vs, &mut t1);
        begin_attempt(&vs, &mut t2);
        for k in 0..words {
            read_record(&vs, &mut t1, &heap, base.offset(k));
            read_record(&vs, &mut t2, &heap, base.offset(k));
        }
        for k in 0..words {
            write_commit(&vs, &mut t2, &heap, base.offset(k), 2);
        }
        commit_attempt(&vs, &mut t2, 1);
        for k in 0..words {
            write_commit(&vs, &mut t1, &heap, base.offset(k), 1);
        }
        commit_attempt(&vs, &mut t1, 0);
        let mut report = finalize_checked(&vs, SystemKind::LazyStm);
        // Host time is the one field that is not a function of the run.
        report.cost.wall = std::time::Duration::ZERO;
        report
    }

    #[test]
    fn report_is_a_pure_function_of_the_run() {
        let first = planted_lost_updates(16);
        assert!(
            first
                .violations
                .iter()
                .any(|v| matches!(v, Violation::SerializationCycle { .. })),
            "report: {first}"
        );
        for _ in 0..4 {
            assert_eq!(planted_lost_updates(16).to_string(), first.to_string());
        }
    }

    /// Installs whose commit order is not their install order (only a
    /// broken engine interleaves them) are still ordered by version.
    #[test]
    fn installs_committed_out_of_install_order() {
        let heap = TmHeap::new();
        let addr = heap.alloc_cell(0u64).addr();
        let vs = VerifyState::default();
        let (mut t1, mut t2, mut t3) = Default::default();
        begin_attempt(&vs, &mut t1);
        begin_attempt(&vs, &mut t2);
        begin_attempt(&vs, &mut t3);
        read_record(&vs, &mut t3, &heap, addr);
        write_eager(&vs, &mut t1, &heap, addr, 1);
        write_eager(&vs, &mut t2, &heap, addr, 2);
        commit_attempt(&vs, &mut t2, 1);
        commit_attempt(&vs, &mut t1, 0);
        commit_attempt(&vs, &mut t3, 2);
        let report = finalize_checked(&vs, SystemKind::EagerStm);
        // T1 -WW-> T2 (by version, not commit order) and T3 -RW-> T1.
        assert_eq!(report.cost.edges, 2, "report: {report}");
        assert!(report.is_clean(), "report: {report}");
    }

    #[test]
    fn early_release_excludes_every_read_of_the_line() {
        let heap = TmHeap::new();
        let word = heap.alloc_words_line_padded(2);
        let sibling = word.offset(1);
        assert_eq!(word.line(), sibling.line());
        let vs = VerifyState::default();
        let (mut t0, mut t1) = Default::default();
        begin_attempt(&vs, &mut t0);
        read_record(&vs, &mut t0, &heap, word);
        read_record(&vs, &mut t0, &heap, word);
        read_record(&vs, &mut t0, &heap, sibling);
        release_line(&mut t0, word.line());
        // T1 overwrites both words and commits. Had T0's reads counted,
        // T0 -RW-> T1 would close a cycle with T0's later install.
        begin_attempt(&vs, &mut t1);
        write_commit(&vs, &mut t1, &heap, word, 1);
        write_commit(&vs, &mut t1, &heap, sibling, 1);
        commit_attempt(&vs, &mut t1, 1);
        // Blind write to the released line: T1 -WW-> T0.
        write_commit(&vs, &mut t0, &heap, sibling, 5);
        commit_attempt(&vs, &mut t0, 0);
        let report = finalize_checked(&vs, SystemKind::LazyStm);
        assert_eq!(report.cost.edges, 1, "report: {report}");
        assert_eq!(report.violations.len(), 1, "report: {report}");
        assert!(matches!(
            report.violations[0],
            Violation::EarlyReleaseWrite { addr, .. } if addr == sibling.0
        ));
    }

    #[test]
    fn reread_after_release_starts_a_fresh_observation() {
        let heap = TmHeap::new();
        let word = heap.alloc_words_line_padded(1);
        let vs = VerifyState::default();
        let (mut t0, mut t1, mut t2) = Default::default();
        begin_attempt(&vs, &mut t0);
        read_record(&vs, &mut t0, &heap, word);
        release_line(&mut t0, word.line());
        begin_attempt(&vs, &mut t1);
        write_commit(&vs, &mut t1, &heap, word, 1);
        commit_attempt(&vs, &mut t1, 1);
        // A new version after the release: not unstable, and it counts.
        assert_eq!(read_record(&vs, &mut t0, &heap, word), 1);
        assert_eq!(read_record(&vs, &mut t0, &heap, word), 1);
        commit_attempt(&vs, &mut t0, 0);
        begin_attempt(&vs, &mut t2);
        write_commit(&vs, &mut t2, &heap, word, 2);
        commit_attempt(&vs, &mut t2, 2);
        let report = finalize_checked(&vs, SystemKind::LazyStm);
        // T1 -WW-> T2, T1 -WR-> T0, T0 -RW-> T2.
        assert_eq!(report.cost.edges, 3, "report: {report}");
        assert!(report.is_clean(), "report: {report}");
    }

    #[test]
    fn repeated_reads_of_one_version_keep_one_observation() {
        let heap = TmHeap::new();
        let base = heap.alloc_words(2);
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        for _ in 0..3 {
            read_record(&vs, &mut vtx, &heap, base);
            read_record(&vs, &mut vtx, &heap, base.offset(1));
        }
        assert_eq!(vtx.reads.len(), 2);
        commit_attempt(&vs, &mut vtx, 0);
        assert!(finalize_checked(&vs, SystemKind::EagerHtm).is_clean());
    }

    #[test]
    fn versions_s1_s2_s1_s2_report_two_unstable_reads() {
        let heap = TmHeap::new();
        let addr = heap.alloc_cell(1u64).addr();
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        // `read_record` observes and records in one step; observing
        // both versions first replays them in the order s1, s2, s1, s2.
        let (_, s1) = observe(&mut vs.inner.borrow_mut(), addr, &heap);
        write_nontxn(&vs, &heap, addr, 2);
        let (_, s2) = observe(&mut vs.inner.borrow_mut(), addr, &heap);
        for obs in [s1, s2, s1, s2] {
            record_read(&mut vtx, obs);
        }
        commit_attempt(&vs, &mut vtx, 0);
        let report = finalize_checked(&vs, SystemKind::LazyStm);
        let (first, second) = (s1.seq, s2.seq);
        assert_eq!(report.violations.len(), 2, "report: {report}");
        for v in &report.violations {
            assert!(
                matches!(v, Violation::UnstableRead { first_seq, second_seq, committed: true, .. }
                    if (*first_seq, *second_seq) == (first, second)),
                "report: {report}"
            );
        }
    }

    #[test]
    fn aborted_stm_attempt_reports_its_unstable_read() {
        let heap = TmHeap::new();
        let addr = heap.alloc_cell(1u64).addr();
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        read_record(&vs, &mut vtx, &heap, addr);
        write_nontxn(&vs, &heap, addr, 2);
        read_record(&vs, &mut vtx, &heap, addr);
        rollback_restore(&vs, &mut vtx, &heap, &[], 3, true);
        let report = finalize_checked(&vs, SystemKind::EagerStm);
        assert_eq!(report.violations.len(), 1, "report: {report}");
        assert!(matches!(
            report.violations[0],
            Violation::UnstableRead {
                committed: false,
                txn: TxnId { tid: 3, .. },
                ..
            }
        ));
    }

    #[test]
    fn release_drops_the_lines_unstable_reads() {
        let heap = TmHeap::new();
        let addr = heap.alloc_cell(1u64).addr();
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        read_record(&vs, &mut vtx, &heap, addr);
        write_nontxn(&vs, &heap, addr, 2);
        read_record(&vs, &mut vtx, &heap, addr);
        release_line(&mut vtx, addr.line());
        commit_attempt(&vs, &mut vtx, 0);
        let report = finalize_checked(&vs, SystemKind::LazyStm);
        assert!(report.is_clean(), "report: {report}");
    }

    #[test]
    fn read_back_of_own_write_records_nothing() {
        let heap = TmHeap::new();
        let addr = heap.alloc_cell(1u64).addr();
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        write_eager(&vs, &mut vtx, &heap, addr, 2);
        assert_eq!(read_record(&vs, &mut vtx, &heap, addr), 2);
        assert!(vtx.reads.is_empty());
        commit_attempt(&vs, &mut vtx, 0);
        assert!(finalize_checked(&vs, SystemKind::EagerStm).is_clean());
    }

    #[test]
    fn repeated_dirty_read_yields_one_dirty_read() {
        let heap = TmHeap::new();
        let addr = heap.alloc_cell(1u64).addr();
        let vs = VerifyState::default();
        let (mut writer, mut reader) = (VerifyTxn::default(), VerifyTxn::default());
        begin_attempt(&vs, &mut writer);
        let prev = write_eager(&vs, &mut writer, &heap, addr, 2);
        begin_attempt(&vs, &mut reader);
        for _ in 0..3 {
            assert_eq!(read_record(&vs, &mut reader, &heap, addr), 2);
        }
        rollback_restore(&vs, &mut writer, &heap, &[(addr.0, prev)], 0, false);
        commit_attempt(&vs, &mut reader, 1);
        let report = finalize_checked(&vs, SystemKind::EagerHtm);
        assert_eq!(report.violations.len(), 1, "report: {report}");
        assert!(matches!(
            report.violations[0],
            Violation::DirtyRead {
                writer_attempt: 1,
                ..
            }
        ));
    }

    #[test]
    fn early_release_write_without_reread_flagged() {
        let heap = TmHeap::new();
        let cell = heap.alloc_cell(3u64);
        let addr = cell.addr();
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        read_record(&vs, &mut vtx, &heap, addr);
        release_line(&mut vtx, addr.line());
        write_eager(&vs, &mut vtx, &heap, addr, 4);
        commit_attempt(&vs, &mut vtx, 0);
        let report = finalize_checked(&vs, SystemKind::EagerStm);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::EarlyReleaseWrite { .. })),
            "report: {report}"
        );
    }

    #[test]
    fn early_release_with_reread_is_clean() {
        let heap = TmHeap::new();
        let cell = heap.alloc_cell(3u64);
        let addr = cell.addr();
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        read_record(&vs, &mut vtx, &heap, addr);
        release_line(&mut vtx, addr.line());
        // labyrinth's pattern: re-read transactionally, then write.
        read_record(&vs, &mut vtx, &heap, addr);
        write_eager(&vs, &mut vtx, &heap, addr, 4);
        commit_attempt(&vs, &mut vtx, 0);
        let report = finalize_checked(&vs, SystemKind::EagerStm);
        assert!(report.is_clean(), "report: {report}");
    }

    /// Random interleavings of three attempts over eight words (two
    /// lines), with no engine enforcing isolation: cycles, dirty and
    /// unstable reads, bypasses and release misuse all occur, and
    /// `finalize` must report exactly what the reference reports.
    #[test]
    fn finalize_matches_reference_on_random_histories() {
        let mut seen = [0usize; 5];
        for seed in 1..=400u64 {
            let mut rng = XorShift64::new(seed);
            let mut below = |n: u64| rng.next_u64() % n;
            let heap = TmHeap::new();
            let base = heap.alloc_words_line_padded(8);
            let vs = VerifyState::default();
            let eager = seed % 2 == 0;
            let system = if eager {
                SystemKind::EagerStm
            } else {
                SystemKind::LazyStm
            };
            // Per thread: its attempt log, engine undo log, and whether
            // an attempt is open.
            type Slot = (VerifyTxn, Vec<(u64, u64)>, bool);
            let mut slots: Vec<Slot> = (0..3).map(|_| Default::default()).collect();
            for step in 0..60 {
                let tid = below(3) as usize;
                let word = base.offset(below(8));
                let (vtx, undo, active) = &mut slots[tid];
                if !*active {
                    begin_attempt(&vs, vtx);
                    *active = true;
                    continue;
                }
                match below(10) {
                    0..=3 => {
                        read_record(&vs, vtx, &heap, word);
                    }
                    4 | 5 if eager => undo.push((word.0, write_eager(&vs, vtx, &heap, word, step))),
                    4 | 5 => write_commit(&vs, vtx, &heap, word, step),
                    6 => release_line(vtx, word.line()),
                    7 => {
                        commit_attempt(&vs, vtx, tid);
                        undo.clear();
                        *active = false;
                    }
                    8 => {
                        rollback_restore(&vs, vtx, &heap, undo, tid, true);
                        undo.clear();
                        *active = false;
                    }
                    _ if below(2) == 0 => write_nontxn(&vs, &heap, word, step),
                    _ => heap.raw_store(word, step + 1000),
                }
            }
            let report = finalize_checked(&vs, system);
            for v in &report.violations {
                seen[match v {
                    Violation::SerializationCycle { .. } => 0,
                    Violation::DirtyRead { .. } => 1,
                    Violation::UnstableRead { .. } => 2,
                    Violation::BypassedWrite { .. } => 3,
                    Violation::EarlyReleaseWrite { .. } => 4,
                }] += 1;
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "violation kinds seen: {seen:?}"
        );
    }
}
