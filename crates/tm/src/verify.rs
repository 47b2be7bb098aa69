//! `tm::verify` — an opt-in serializability sanitizer for the TM engine.
//!
//! When enabled (`TmConfig::verify(true)`), every
//! transactional heap access is routed through a global verify mutex
//! that pairs the access with an exact *(value, version)* observation
//! against a shadow copy of the heap. Each committed install gets a
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
//!   on every system; for the two STMs (which promise opacity via
//!   read-time validation) even *aborted* attempts are checked,
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
//! on or off. Its cost is real wall-clock time (a global mutex on the
//! instrumented paths plus the finalize pass) and is reported in
//! [`crate::stats::VerifyCost`].
//!
//! Data layout, chosen so that a shadow lookup is array indexing, not
//! hashing, and a committed log holds no slack:
//!
//! * The **shadow heap** is dense and indexed by word address, like
//!   [`TmHeap`] itself: a page table of fixed-size pages, each page
//!   allocated zeroed the first time one of its words is touched. An
//!   entry whose `seq` is 0 has never been touched; the first check of
//!   such a word seeds it from the real heap value as an environment
//!   install, so first touch is never mistaken for a bypass.
//! * Per-attempt logs are plain vectors. The early-release index is an
//!   intrusive chain through the read log (each observation links to
//!   the previous read of its line) plus one `line → newest read` map,
//!   so releasing a line walks exactly the reads it must mark.
//! * The remaining maps and sets use [`crate::fxhash`], and `finalize`
//!   works from one sorted install list, so its edge witnesses and
//!   violation order are a pure function of the run.
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
use crate::{LineAddr, WordAddr};

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

/// log2 of the shadow page size in words.
const SHADOW_PAGE_BITS: u32 = 12;
/// Words per shadow page.
const SHADOW_PAGE_WORDS: usize = 1 << SHADOW_PAGE_BITS;

/// Dense shadow of the heap, indexed by word address. Pages are
/// allocated zeroed on first touch, so an untouched word reads as an
/// entry with `seq == 0`.
#[derive(Debug, Default)]
struct ShadowHeap {
    pages: Vec<Option<Box<[ShadowEntry]>>>,
}

impl ShadowHeap {
    fn slot(&mut self, addr: u64) -> &mut ShadowEntry {
        let page = (addr >> SHADOW_PAGE_BITS) as usize;
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let words = self.pages[page]
            .get_or_insert_with(|| vec![ShadowEntry::default(); SHADOW_PAGE_WORDS].into());
        &mut words[addr as usize & (SHADOW_PAGE_WORDS - 1)]
    }
}

/// `ReadObs::prev_same_line` value marking the end of a line's chain.
const NO_READ: u32 = u32::MAX;

/// One read observation: `(address, version)` plus provenance.
#[derive(Debug, Clone, Copy)]
struct ReadObs {
    addr: u64,
    seq: u64,
    writer: Writer,
    /// Index in the attempt's read log of the previous read of the same
    /// line since that line was last released ([`NO_READ`] if none).
    prev_same_line: u32,
    /// Set when the transaction later early-releases the line; released
    /// observations are excluded from edges and consistency checks.
    released: bool,
}

/// One committed install: `(address, version)`.
#[derive(Debug, Clone, Copy)]
struct WriteObs {
    addr: u64,
    seq: u64,
}

/// A read observation made under the verify mutex but not yet
/// confirmed. STM read barriers validate the lock word *after* the
/// raw load; only reads that actually return to the application are
/// recorded, so the barrier confirms the pending observation after
/// its post-load recheck passes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRead {
    obs: ReadObs,
    line: u64,
}

/// Per-thread, per-attempt observation log. Lives in `ThreadCtx`;
/// reset by [`begin_attempt`], harvested by [`commit_attempt`].
#[derive(Debug, Default)]
pub(crate) struct VerifyTxn {
    /// Globally unique id of the current attempt (0 = none yet).
    attempt: u64,
    reads: Vec<ReadObs>,
    writes: Vec<WriteObs>,
    /// Shadow entries displaced by eager in-place writes, in push
    /// order; restored (in reverse) on rollback, mirroring the
    /// engine's own undo log one-for-one.
    shadow_undo: Vec<(u64, ShadowEntry)>,
    /// line -> index in `reads` of the newest read of that line since
    /// its last release: the head of the chain an early release of the
    /// line walks (via `ReadObs::prev_same_line`) to mark reads released.
    line_heads: FxHashMap<u64, u32>,
    /// Lines released by `early_release` and not re-read since.
    released_lines: FxHashSet<u64>,
    /// Addresses written while their line sat in `released_lines`.
    release_violations: Vec<u64>,
}

/// A committed transaction's harvested log.
#[derive(Debug)]
struct CommittedTxn {
    attempt: u64,
    tid: usize,
    reads: Box<[ReadObs]>,
    writes: Box<[WriteObs]>,
    release_violations: Vec<u64>,
}

#[derive(Debug, Default)]
struct VerifyInner {
    next_seq: u64,
    next_attempt: u64,
    shadow: ShadowHeap,
    committed: Vec<CommittedTxn>,
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
    vtx.writes.clear();
    vtx.shadow_undo.clear();
    vtx.line_heads.clear();
    vtx.released_lines.clear();
    vtx.release_violations.clear();
}

fn make_pending(inner: &mut VerifyInner, addr: WordAddr, heap: &TmHeap) -> (u64, PendingRead) {
    let value = heap.raw_load(addr);
    let entry = inner.entry_checked(addr.0, value);
    (
        value,
        PendingRead {
            obs: ReadObs {
                addr: addr.0,
                seq: entry.seq,
                writer: entry.writer,
                prev_same_line: NO_READ,
                released: false,
            },
            line: addr.line().0,
        },
    )
}

/// Transactional read, observation recorded immediately (HTM/hybrid
/// barriers, where the raw load is the last step of the read).
pub(crate) fn read_record(
    vs: &VerifyState,
    vtx: &mut VerifyTxn,
    heap: &TmHeap,
    addr: WordAddr,
) -> u64 {
    let (value, pending) = make_pending(&mut vs.inner.borrow_mut(), addr, heap);
    confirm_read(vtx, pending);
    value
}

/// Transactional read whose observation is only tentative: the STM
/// read barrier still re-validates the lock word after the load, and
/// only a read that survives that recheck reaches the application.
pub(crate) fn read_pending(vs: &VerifyState, heap: &TmHeap, addr: WordAddr) -> (u64, PendingRead) {
    make_pending(&mut vs.inner.borrow_mut(), addr, heap)
}

/// Record a read observation produced by [`read_pending`] once the
/// barrier's post-load validation has passed.
pub(crate) fn confirm_read(vtx: &mut VerifyTxn, pending: PendingRead) {
    // A fresh read re-arms an early-released line.
    if !vtx.released_lines.is_empty() {
        vtx.released_lines.remove(&pending.line);
    }
    let idx = u32::try_from(vtx.reads.len()).expect("read log exceeds u32 indices");
    let mut obs = pending.obs;
    obs.prev_same_line = vtx.line_heads.insert(pending.line, idx).unwrap_or(NO_READ);
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
/// line stop participating in conflict edges, and the line is armed
/// for the write-without-re-read audit.
pub(crate) fn release_line(vtx: &mut VerifyTxn, line: LineAddr) {
    let mut next = vtx.line_heads.remove(&line.0).unwrap_or(NO_READ);
    while next != NO_READ {
        let obs = &mut vtx.reads[next as usize];
        obs.released = true;
        next = obs.prev_same_line;
    }
    vtx.released_lines.insert(line.0);
}

/// Check one attempt's read log for two observations of the same word
/// at different versions (own writes and released lines excluded),
/// appending an [`Violation::UnstableRead`] per mismatch. `first_seen`
/// is scratch space, cleared here.
fn check_stable(
    reads: &[ReadObs],
    txn: TxnId,
    committed: bool,
    first_seen: &mut FxHashMap<u64, u64>,
    out: &mut Vec<Violation>,
) {
    first_seen.clear();
    let own = Writer::attempt(txn.attempt);
    for obs in reads {
        if obs.released || obs.writer == own {
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
                        committed,
                    });
                }
            }
        }
    }
}

/// Harvest a committed attempt's log into the global record.
pub(crate) fn commit_attempt(vs: &VerifyState, vtx: &mut VerifyTxn, tid: usize) {
    // Copied out at their exact length: the attempt's buffers keep
    // their capacity for the thread's next attempt, and the record of
    // committed logs holds no slack.
    let committed = CommittedTxn {
        attempt: vtx.attempt,
        tid,
        reads: vtx.reads.as_slice().into(),
        writes: vtx.writes.as_slice().into(),
        release_violations: std::mem::take(&mut vtx.release_violations),
    };
    vtx.shadow_undo.clear();
    vtx.line_heads.clear();
    vtx.released_lines.clear();
    vs.inner.borrow_mut().committed.push(committed);
}

/// Roll back an aborted attempt: restore heap *and* shadow from the
/// two index-aligned undo logs (newest first), then — on the STMs,
/// which promise opacity — audit the zombie's reads for snapshot
/// consistency.
pub(crate) fn rollback_restore(
    vs: &VerifyState,
    vtx: &mut VerifyTxn,
    heap: &TmHeap,
    undo: &[(u64, u64)],
    tid: usize,
    system: SystemKind,
) {
    let mut zombies = Vec::new();
    if matches!(system, SystemKind::EagerStm | SystemKind::LazyStm) {
        let txn = TxnId {
            attempt: vtx.attempt,
            tid,
        };
        check_stable(
            &vtx.reads,
            txn,
            false,
            &mut FxHashMap::default(),
            &mut zombies,
        );
    }
    let mut inner = vs.inner.borrow_mut();
    debug_assert_eq!(undo.len(), vtx.shadow_undo.len());
    for (&(addr, value), &(saddr, sentry)) in undo.iter().rev().zip(vtx.shadow_undo.iter().rev()) {
        debug_assert_eq!(addr, saddr);
        heap.raw_store(WordAddr(addr), value);
        *inner.shadow.slot(saddr) = sentry;
    }
    inner.runtime_violations.append(&mut zombies);
    drop(inner);
    vtx.shadow_undo.clear();
}

/// Find a directed cycle in a graph of `n` nodes. Returns the nodes on
/// one cycle in path order (each consecutive pair is an edge, and so
/// is last → first), or `None` if the graph is acyclic.
///
/// Public so the property tests can drive it directly with random
/// DAGs and planted cycles.
pub fn find_cycle(n: usize, edges: &[(u32, u32)]) -> Option<Vec<u32>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a as usize].push(b);
    }
    // 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut color = vec![0u8; n];
    let mut path: Vec<u32> = Vec::new();
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // Iterative DFS: (node, next-child index).
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

/// End-of-run analysis: build the serialization graph over committed
/// transactions, run every check, and produce the report.
pub(crate) fn finalize(vs: &VerifyState, system: SystemKind) -> VerifyReport {
    let t0 = Instant::now();
    let mut inner = vs.inner.borrow_mut();
    let committed = std::mem::take(&mut inner.committed);
    let mut violations = std::mem::take(&mut inner.runtime_violations);
    let attempts = inner.next_attempt as usize;
    drop(inner);

    let ids: Vec<TxnId> = committed
        .iter()
        .map(|c| TxnId {
            attempt: c.attempt,
            tid: c.tid,
        })
        .collect();
    // Attempt id -> graph node; ids are dense from 1, and attempts that
    // never committed map to `NO_NODE`.
    const NO_NODE: u32 = u32::MAX;
    let mut node_of = vec![NO_NODE; attempts + 1];
    for (i, c) in committed.iter().enumerate() {
        node_of[c.attempt as usize] = i as u32;
    }

    // Every committed install as (addr, seq, node), in address then
    // install order: one address's installs are adjacent.
    let mut installs: Vec<(u64, u64, u32)> = committed
        .iter()
        .enumerate()
        .flat_map(|(i, c)| c.writes.iter().map(move |w| (w.addr, w.seq, i as u32)))
        .collect();
    installs.sort_unstable();
    // addr -> its run `lo..hi` in `installs`.
    let mut runs: FxHashMap<u64, (u32, u32)> = FxHashMap::default();
    for (k, &(addr, _, _)) in installs.iter().enumerate() {
        runs.entry(addr).or_insert((k as u32, 0)).1 = k as u32 + 1;
    }

    // `edges` and `flat` (the same edges as node pairs) stay parallel.
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

    // WW: consecutive committed installs on each address.
    for pair in installs.windows(2) {
        let ((a0, _, n0), (a1, _, n1)) = (pair[0], pair[1]);
        if a0 == a1 {
            push_edge(n0, n1, EdgeKind::WriteWrite, a0);
        }
    }

    // WR / RW / dirty reads / committed-attempt stability.
    let mut first_seen: FxHashMap<u64, u64> = FxHashMap::default();
    for (i, c) in committed.iter().enumerate() {
        let me = i as u32;
        let own = Writer::attempt(c.attempt);
        for obs in &c.reads {
            if obs.released || obs.writer == own {
                continue; // released, or own write read back
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
            // First committed install of this address strictly after
            // what we read.
            if let Some(&(lo, hi)) = runs.get(&obs.addr) {
                let run = &installs[lo as usize..hi as usize];
                let pos = run.partition_point(|&(_, s, _)| s <= obs.seq);
                if let Some(&(_, _, w2)) = run.get(pos) {
                    push_edge(me, w2, EdgeKind::ReadWrite, obs.addr);
                }
            }
        }
        check_stable(&c.reads, ids[i], true, &mut first_seen, &mut violations);
        for &addr in &c.release_violations {
            violations.push(Violation::EarlyReleaseWrite { txn: ids[i], addr });
        }
    }

    // Cycle detection over the committed-transaction graph.
    if let Some(cycle) = find_cycle(committed.len(), &flat) {
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

    let report = VerifyReport {
        system,
        cost: VerifyCost {
            txns_checked: committed.len() as u64,
            edges: edges.len() as u64,
            wall: t0.elapsed(),
        },
        violations,
    };
    if crate::trace::enabled(crate::trace::TraceLevel::Verify) {
        crate::trace::emit(crate::trace::TraceLevel::Verify, format_args!("{report}"));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let report = finalize(&vs, SystemKind::EagerStm);
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
        let report = finalize(&vs, SystemKind::LazyStm);
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
        let report = finalize(&vs, SystemKind::LazyStm);
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
        rollback_restore(&vs, &mut vtx, &heap, &undo, 0, SystemKind::EagerStm);
        assert_eq!(heap.raw_load(addr), 5);
        // Committed reader after the rollback sees the restored entry,
        // not a phantom bypass.
        begin_attempt(&vs, &mut vtx);
        assert_eq!(read_record(&vs, &mut vtx, &heap, addr), 5);
        commit_attempt(&vs, &mut vtx, 0);
        let report = finalize(&vs, SystemKind::EagerStm);
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn lost_update_is_a_cycle() {
        // T1 and T2 both read v0 of the counter and both commit an
        // install: T1 -RW-> T2 (T2 overwrote what T1 read is wrong way;
        // actually T1 read v0, T2 installs v1: T1 -RW-> T2; T2 read v0,
        // T1 installs v2 after: T2 -RW-> T1 and T1 -WW-> ... either
        // way the pair must cycle).
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
        let report = finalize(&vs, SystemKind::LazyStm);
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
        let mut report = finalize(&vs, SystemKind::LazyStm);
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

    #[test]
    fn early_release_chain_marks_every_read_of_the_line() {
        let heap = TmHeap::new();
        let word = heap.alloc_words_line_padded(2);
        let sibling = word.offset(1);
        assert_eq!(word.line(), sibling.line());
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        read_record(&vs, &mut vtx, &heap, word);
        read_record(&vs, &mut vtx, &heap, word);
        read_record(&vs, &mut vtx, &heap, sibling);
        release_line(&mut vtx, word.line());
        assert!(vtx.reads.iter().all(|r| r.released));
        // Blind write to the released line.
        write_commit(&vs, &mut vtx, &heap, sibling, 5);
        // Re-read, then release again: the new read joins a fresh chain.
        read_record(&vs, &mut vtx, &heap, word);
        assert!(!vtx.reads[3].released);
        release_line(&mut vtx, word.line());
        assert!(vtx.reads.iter().all(|r| r.released));
        commit_attempt(&vs, &mut vtx, 0);
        let report = finalize(&vs, SystemKind::LazyStm);
        let misuses: Vec<&Violation> = report
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::EarlyReleaseWrite { .. }))
            .collect();
        assert_eq!(misuses.len(), 1, "report: {report}");
        assert!(matches!(
            misuses[0],
            Violation::EarlyReleaseWrite { addr, .. } if *addr == sibling.0
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
        let report = finalize(&vs, SystemKind::EagerStm);
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
        let report = finalize(&vs, SystemKind::EagerStm);
        assert!(report.is_clean(), "report: {report}");
    }
}
