//! Transactions: the retry loop, the [`Txn`] handle, and the dispatch
//! from each transactional entry point to the protocol of the
//! configured TM system (§IV of the paper).
//!
//! A transaction is executed by passing a closure to
//! [`crate::runtime::ThreadCtx::atomic`]; the closure receives a [`Txn`]
//! handle and returns `Result<_, Abort>`, using `?` on every transactional
//! access so the engine can restart it on conflicts. Nesting is not
//! supported (STAMP uses flat transactions).
//!
//! # Protocol modules
//!
//! The paper's six designs are three families, each with eager and lazy
//! versioning. One private module per family holds its barriers,
//! commits, rollback cleanup and early release: `tl2` (the STMs), `htm`
//! (the HTMs, including the eager HTM's priority token) and `sigtm` (the
//! SigTM-style hybrids). This module keeps what every system shares: the
//! retry loop and its contention-manager, watchdog and irrevocable-mode
//! paths, fault injection, the helpers more than one family uses, and
//! the two non-transactional baselines (`Sequential`, `GlobalLock`).
//!
//! The dispatch rule: a system is named only here, in its
//! [`SystemProps`] row and in the dispatch matches, one `match` on
//! `config.system` per entry point (begin, read, write, early release,
//! commit, rollback), and in the calls those matches make into the
//! system's module. Code outside this module reads what a design is
//! from its row, never which design it is. A new design is one module,
//! one row, and one arm per match.
//!
//! # Consistency model
//!
//! The STMs provide opacity (TL2 validation) so transaction bodies never
//! observe inconsistent state. The lazy HTM and lazy hybrid doom
//! conflicting transactions *before and after* applying a commit's writes
//! (per line in one uninterrupted step of the committer, or by the
//! doom–apply–doom signature scan), so a transaction that could observe
//! mixed state is always already doomed; every barrier checks the doom
//! flag, and bounds checks that fail inside a doomed transaction convert
//! to aborts instead of panics. This bounds zombie execution to a single
//! barrier.

mod htm;
mod sigtm;
mod tl2;

use crate::addr::{LineAddr, WordAddr};
use crate::cm::{ewma_step, CmPolicy, HTM_PRIORITY_AFTER};
use crate::config::SystemKind;
use crate::fault::FaultKind;
use crate::fxhash::FxHashMap;
use crate::heap::{TArray, TCell, TmValue};
use crate::prof::ProfBucket;
use crate::runtime::{ThreadCtx, NO_PRIORITY};
use crate::signature::SigProbe;
use crate::stats::TxnRecord;
use crate::trace::TraceLevel;

/// What a TM design is, as far as code outside its protocol module
/// needs to know (§IV of the paper describes each design by these
/// properties). One row per [`SystemKind`], read through
/// [`SystemKind::props`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemProps {
    /// Runs speculative attempts that can abort. False for the two
    /// baselines (`Sequential`, `GlobalLock`), which have no abort path
    /// for injected faults or the starvation watchdog to act through.
    pub transactional: bool,
    /// Barriers are performed by hardware at no instruction cost: the
    /// paper compiles the HTM versions with barrier annotations ignored.
    pub implicit_barriers: bool,
    /// Conflict detection probes Bloom signatures (the hybrids', or the
    /// eager HTM's overflow filter), so signature false positives
    /// (`sigfp` faults) can strike.
    pub signatures: bool,
    /// Promises opacity through read-time validation: even an aborted
    /// attempt must never have observed two versions of one word, so
    /// the sanitizer audits aborted attempts' reads too.
    pub aborts_must_be_opaque: bool,
    /// A transaction that keeps aborting is promoted to the priority
    /// token, so no other transaction can abort it (the paper's
    /// livelock guard for the eager HTM).
    pub priority_token: bool,
    /// The paper's contention-management policy for the design.
    pub default_cm: CmPolicy,
    /// Read barrier overhead in cycles, excluding the memory access.
    pub read_barrier: u64,
    /// Write barrier overhead in cycles, excluding the memory access.
    pub write_barrier: u64,
    /// Fixed overhead charged at begin and again at commit: nearly free
    /// in hardware, a library call for the software systems.
    pub txn_fixed: u64,
}

/// The non-transactional baseline's row; the other rows name only the
/// fields in which they differ from it.
const NON_TM: SystemProps = SystemProps {
    transactional: false,
    implicit_barriers: false,
    signatures: false,
    aborts_must_be_opaque: false,
    priority_token: false,
    default_cm: CmPolicy::Immediate,
    read_barrier: 0,
    write_barrier: 0,
    txn_fixed: 0,
};

impl SystemKind {
    /// This design's properties and barrier costs. The barrier costs
    /// are modeled constants chosen to reproduce the paper's ratios:
    /// STM read barriers are the dearest (the lazy STM's must search
    /// the write buffer, §V-B4), and the hybrids sit in between because
    /// signatures replace software read-set bookkeeping.
    pub const fn props(self) -> SystemProps {
        match self {
            SystemKind::Sequential => NON_TM,
            SystemKind::GlobalLock => SystemProps {
                txn_fixed: 10, // lock acquire/release
                ..NON_TM
            },
            SystemKind::LazyHtm => SystemProps {
                transactional: true,
                implicit_barriers: true,
                txn_fixed: 3,
                ..NON_TM
            },
            SystemKind::EagerHtm => SystemProps {
                transactional: true,
                implicit_barriers: true,
                signatures: true,
                priority_token: true,
                txn_fixed: 3,
                ..NON_TM
            },
            SystemKind::LazyHybrid | SystemKind::EagerHybrid => SystemProps {
                transactional: true,
                signatures: true,
                default_cm: CmPolicy::DEFAULT_LINEAR,
                read_barrier: 5,
                write_barrier: 7,
                txn_fixed: 15,
                ..NON_TM
            },
            SystemKind::LazyStm => SystemProps {
                transactional: true,
                aborts_must_be_opaque: true,
                default_cm: CmPolicy::DEFAULT_LINEAR,
                read_barrier: 22,
                write_barrier: 10,
                txn_fixed: 30,
                ..NON_TM
            },
            SystemKind::EagerStm => SystemProps {
                transactional: true,
                aborts_must_be_opaque: true,
                default_cm: CmPolicy::DEFAULT_LINEAR,
                read_barrier: 12,
                write_barrier: 24,
                txn_fixed: 30,
                ..NON_TM
            },
        }
    }
}

/// A transaction abort: unwinds the body back to the retry loop.
///
/// Constructed only by the engine; application code simply propagates it
/// with `?`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort(pub(crate) ());

/// Result of a transactional operation.
pub type TxResult<T> = Result<T, Abort>;

/// Explicitly abort and restart the current transaction (the analogue of
/// STAMP's `TM_RESTART`): return this from the transaction body.
///
/// labyrinth uses this when commit-time revalidation of a routed path
/// fails (§III-B5 of the paper).
pub fn abort<T>() -> TxResult<T> {
    Err(Abort(()))
}

/// [`TxnState::lines`] flags: the attempt read the line; it wrote the
/// line; the line holds an L1 slot (HTMs); the line spilled into the
/// eager HTM's overflow filter.
const READ: u8 = 1;
const WRITTEN: u8 = 2;
const RESIDENT: u8 = 4;
const OVERFLOWED: u8 = 8;

/// Per-attempt transaction state, owned by the thread context and reused
/// across attempts to avoid allocation churn.
#[derive(Debug, Default)]
pub(crate) struct TxnState {
    /// TL2 read timestamp.
    pub rv: u64,
    /// STM read set: lock-table indices to validate at commit.
    pub read_locks: Vec<u32>,
    /// Lazy redo buffer: word address -> value.
    pub write_map: FxHashMap<u64, u64>,
    /// Eager undo log: (word address, previous value), in write order.
    pub undo: Vec<(u64, u64)>,
    /// Eager STM: locks held, with the version to restore on abort.
    pub held_locks: Vec<(u32, u64)>,
    /// Every line this attempt touched, with its flag bits: [`READ`]
    /// and [`WRITTEN`] (the Table IV read and write sets on every
    /// system, and the lines the HTMs registered in the directory),
    /// [`RESIDENT`] (HTMs: in the modeled L1) and [`OVERFLOWED`] (eager
    /// HTM: spilled into the Bloom filter).
    pub lines: FxHashMap<u64, u8>,
    /// Lines with [`READ`] set.
    pub n_read: u32,
    /// Lines with [`WRITTEN`] set.
    pub n_written: u32,
    /// HTM capacity model: [`RESIDENT`] lines per L1 set.
    pub set_counts: FxHashMap<u64, u8>,
    /// True while this thread holds the commit token: from begin when
    /// GlobalLock, the contention manager or irrevocable mode
    /// serializes the attempt, or from mid-attempt when the lazy HTM
    /// overflows or a lazy system commits. Whoever releases the token
    /// clears it. `reset` leaves it alone: an irrevocable transaction
    /// keeps the token across the re-executions of an explicit abort.
    pub token: bool,
    /// True when the contention manager serialized this attempt (for
    /// the `serialized_commits` statistic).
    pub cm_serialized_attempt: bool,
    /// Application cycles in this attempt (Table VI "instructions").
    pub app_cycles: u64,
    /// Read barrier invocations in this attempt.
    pub read_barriers: u32,
    /// Write barrier invocations in this attempt.
    pub write_barriers: u32,
}

impl TxnState {
    fn reset(&mut self) {
        self.rv = 0;
        self.read_locks.clear();
        self.write_map.clear();
        self.undo.clear();
        self.held_locks.clear();
        self.lines.clear();
        self.n_read = 0;
        self.n_written = 0;
        self.set_counts.clear();
        self.cm_serialized_attempt = false;
        self.app_cycles = 0;
        self.read_barriers = 0;
        self.write_barriers = 0;
    }

    /// Set `bit` on `line` unless the line has a bit in `seen` (which
    /// holds `bit`), counting it into `n_read` or `n_written`. Returns
    /// the previous flags when it set the bit, so the caller does its
    /// first-read or first-write work once per line.
    fn mark(&mut self, line: u64, seen: u8, bit: u8) -> Option<u8> {
        let flags = self.lines.entry(line).or_insert(0);
        let old = *flags;
        if old & seen != 0 {
            return None;
        }
        *flags |= bit;
        self.n_read += u32::from(bit == READ);
        self.n_written += u32::from(bit == WRITTEN);
        Some(old)
    }

    /// Early release: clear `line`'s READ bit, and RESIDENT too unless
    /// the line is also written; an OVERFLOWED line keeps both. Returns
    /// the previous flags, if the attempt touched the line.
    fn release_read(&mut self, line: u64) -> Option<u8> {
        let flags = self.lines.get_mut(&line)?;
        let old = *flags;
        if old & (READ | OVERFLOWED) == READ {
            *flags &= !READ;
            if old & WRITTEN == 0 {
                *flags &= !RESIDENT; // a written line keeps its L1 slot
            }
            self.n_read -= 1;
        }
        Some(old)
    }
}

impl ThreadCtx {
    /// Execute `body` as an atomic transaction, retrying on conflicts
    /// until it commits, and return its result.
    ///
    /// The body may run multiple times; it must be idempotent apart from
    /// its transactional effects (allocations it performs are leaked on
    /// abort, as with the original STAMP `TM_MALLOC`). Once an armed
    /// starvation watchdog trips, the remaining attempts run in
    /// irrevocable mode ([`Txn::is_irrevocable`]).
    ///
    /// # Panics
    ///
    /// Panics if called inside another transaction (flat nesting only).
    pub fn atomic<R>(&mut self, mut body: impl FnMut(&mut Txn<'_>) -> TxResult<R>) -> R {
        assert!(
            !self.in_txn,
            "nested transactions are not supported (STAMP uses flat transactions)"
        );
        let start_clock = self.clock;
        let mut retries: u32 = 0;
        loop {
            self.begin_attempt();
            let committed = {
                let mut txn = Txn { ctx: &mut *self };
                match body(&mut txn) {
                    Ok(value) => {
                        if txn.try_commit().is_ok() {
                            Some(value)
                        } else {
                            None
                        }
                    }
                    Err(Abort(())) => {
                        txn.rollback();
                        None
                    }
                }
            };
            self.in_txn = false;
            // Fold the attempt's staged cycles into their outcome
            // buckets before any post-attempt charges (abort fixed
            // cost, backoff) land in theirs.
            self.prof_end_attempt(committed.is_some());
            match committed {
                Some(value) => {
                    self.finish_commit(start_clock, retries);
                    return value;
                }
                None => {
                    retries = retries.saturating_add(1);
                    self.stats.aborts += 1;
                    self.after_abort(retries, start_clock);
                }
            }
        }
    }

    /// Open an attempt. An irrevocable attempt takes the gate, quiesces
    /// and takes the commit token (once per transaction: a re-execution
    /// after an explicit abort still holds them), and skips what only a
    /// speculative attempt needs: the priority wait, the active flag,
    /// the system's admission, the TL2 read timestamp, the eager-HTM
    /// timestamp and the fault stream.
    fn begin_attempt(&mut self) {
        if self.irrevocable {
            if !self.txn.token {
                self.enter_irrevocable();
            }
            self.start_attempt();
        } else {
            htm::await_priority(self);
            self.start_attempt();
            self.global.active[self.tid].set(true);
            // Irrevocability gate: while a watchdog-escalated transaction
            // holds it, stand down (clearing `active` so the holder's
            // quiesce completes) and wait for it to commit. Nothing runs
            // between the last check and setting `active` again, so no
            // attempt ever runs concurrently with an irrevocable one.
            // When the gate is free — every run without fault injection
            // — this is a single uncharged load.
            if self.global.irrevocable.get() != NO_PRIORITY {
                self.global.active[self.tid].set(false);
                while self.global.irrevocable.get() != NO_PRIORITY {
                    self.spin_charge(20);
                }
                self.global.active[self.tid].set(true);
            }
            match self.global.config.system {
                SystemKind::Sequential => {}
                // Coarse-grain lock: serialize the whole transaction.
                SystemKind::GlobalLock => self.take_token(),
                SystemKind::LazyHtm
                | SystemKind::EagerHtm
                | SystemKind::LazyStm
                | SystemKind::EagerStm
                | SystemKind::LazyHybrid
                | SystemKind::EagerHybrid => self.cm_admission(),
            }
            self.txn.rv = self.global.clock.read();
            let ts = self.global.ts_counter.get();
            self.global.ts_counter.set(ts + 1);
            self.global.txn_ts[self.tid].set(ts);
            // Derive this attempt's fault stream last, so gate/queue
            // waits above don't count toward the interrupt hazard's
            // elapsed time.
            let (tid, attempt, clock) = (self.tid, self.stats.attempts, self.clock);
            if let Some(f) = &mut self.fault {
                f.begin_attempt(tid, attempt, clock);
            }
        }
        self.charge_txn_fixed();
    }

    /// Enter irrevocable mode, in a deadlock-safe order: (1) take the
    /// gate — one escalated transaction at a time, and new attempts now
    /// park at the top of `begin_attempt`; (2) quiesce on the `active`
    /// flags *without* holding the commit token, because an in-flight
    /// lazy committer needs the token to finish its attempt; (3) take
    /// the commit token, so that even a thread mid-attempt when the
    /// gate closed cannot slip a commit (or a read-only fence) under
    /// the in-place writes. `finish_commit` opens the gate again.
    fn enter_irrevocable(&mut self) {
        while self.global.irrevocable.get() != NO_PRIORITY {
            self.spin_charge(20);
        }
        self.global.irrevocable.set(self.tid);
        let n = self.global.config.threads;
        while (0..n).any(|t| t != self.tid && self.global.active[t].get()) {
            self.spin_charge(20);
        }
        self.take_token();
    }

    /// Spin (in simulated time, 10 cycles per probe) until this thread
    /// holds the commit token.
    fn take_token(&mut self) {
        while !self.global.commit_token.try_acquire() {
            self.spin_charge(10);
        }
        self.txn.token = true;
    }

    /// Release the commit token this thread holds.
    fn release_token(&mut self) {
        self.global.commit_token.release();
        self.txn.token = false;
    }

    /// Open an attempt, speculative or irrevocable: statistics, the
    /// sanitizer and profiler hooks, and a cleared doom flag.
    fn start_attempt(&mut self) {
        self.in_txn = true;
        self.stats.attempts += 1;
        self.txn.reset();
        self.verify_begin_attempt();
        self.prof_begin_attempt();
        self.global.doomed[self.tid].set(false);
    }

    /// Charge the system's fixed begin (or commit) overhead.
    fn charge_txn_fixed(&mut self) {
        self.charge_tm(self.global.config.system.props().txn_fixed);
    }

    /// Contention-manager admission control: if the policy serializes
    /// this attempt, take the commit token for the attempt's whole
    /// duration. Runs before the TL2 read-timestamp is taken so a long
    /// queue wait still yields a fresh snapshot.
    fn cm_admission(&mut self) {
        if self.cm.serializes(self.cm_ewma) {
            self.take_token();
            self.txn.cm_serialized_attempt = true;
        }
    }

    fn finish_commit(&mut self, start_clock: u64, retries: u32) {
        self.verify_commit_attempt();
        self.global.active[self.tid].set(false);
        htm::release_priority(self);
        match self.cm {
            CmPolicy::Karma { .. } => self.global.cm_shared.reset_karma(self.tid),
            CmPolicy::AdaptiveSerialize { .. } => self.cm_ewma = ewma_step(self.cm_ewma, false),
            CmPolicy::Immediate
            | CmPolicy::RandomizedLinear { .. }
            | CmPolicy::ExponentialRandom { .. } => {}
        }
        if self.txn.cm_serialized_attempt {
            self.stats.serialized_commits += 1;
        }
        if self.irrevocable {
            // `try_commit` released the token; the gate goes last.
            self.irrevocable = false;
            self.global.irrevocable.set(NO_PRIORITY);
            self.stats.irrevocable_commits += 1;
        }
        self.stats.commits += 1;
        self.stats.cycles_in_txn += self.clock - start_clock;
        let rec = TxnRecord {
            app_cycles: self.txn.app_cycles,
            read_lines: self.txn.n_read,
            write_lines: self.txn.n_written,
            read_barriers: self.txn.read_barriers,
            write_barriers: self.txn.write_barriers,
            retries,
        };
        self.stats.records.push(rec);
    }

    /// Bookkeeping after an aborted attempt of a transaction that began
    /// at `start_clock` and has now aborted `retries` times: the fixed
    /// abort cost, then, unless the attempt was irrevocable (an explicit
    /// abort, which simply re-executes), the spurious-abort count, the
    /// contention manager's backoff, the eager HTM's promotion and the
    /// starvation watchdog.
    fn after_abort(&mut self, retries: u32, start_clock: u64) {
        // The fixed abort cost belongs to the attempt that just died,
        // not to (committed-attempt) overhead.
        let fixed = self.global.config.cost.abort_fixed;
        self.charge_bucket(fixed, ProfBucket::Wasted);
        if self.irrevocable {
            return;
        }
        // An injected fault recorded itself at the barrier that
        // delivered it; the flag routes the abort to the spurious
        // accounting and tells the contention manager not to learn
        // contention from it.
        let spurious = self.fault.as_ref().is_some_and(|f| f.injected.is_some());
        if spurious {
            self.stats.spurious_aborts += 1;
        }
        let (cm, tid, shared) = (self.cm, self.tid, &self.global.cm_shared);
        let backoff = match cm {
            CmPolicy::Karma { .. } => {
                // The aborted attempt's work is invested, not lost: it
                // raises this transaction's priority for the next
                // conflict. The leader retries at once; the rest yield.
                shared.add_karma(tid, self.txn.app_cycles.max(1));
                if shared.is_karma_leader(tid) {
                    0
                } else {
                    cm.backoff(retries, &mut self.rng)
                }
            }
            CmPolicy::AdaptiveSerialize { .. } => {
                // Injected (spurious) aborts carry no contention signal:
                // counting them would serialize the whole run in
                // response to noise. A thread about to serialize need
                // not back off.
                if !spurious {
                    self.cm_ewma = ewma_step(self.cm_ewma, true);
                }
                if cm.serializes(self.cm_ewma) {
                    0
                } else {
                    cm.backoff(retries, &mut self.rng)
                }
            }
            CmPolicy::Immediate
            | CmPolicy::RandomizedLinear { .. }
            | CmPolicy::ExponentialRandom { .. } => cm.backoff(retries, &mut self.rng),
        };
        if backoff > 0 {
            // A zero-cycle charge never flushes (pending stays below the
            // flush threshold), so skipping it is interleaving-neutral
            // and keeps the default schedules bit-identical.
            self.stats.backoff_cycles += backoff;
            self.charge_bucket(backoff, ProfBucket::Backoff);
        }
        // The eager HTM's livelock guard, under every policy.
        if retries >= HTM_PRIORITY_AFTER && self.global.config.system.props().priority_token {
            htm::take_priority(self);
        }
        if let Some(wd) = self.watchdog {
            if wd.should_escalate(retries, self.clock - start_clock) {
                // Starvation watchdog: this transaction has crossed the
                // consecutive-abort or invested-cycle bound. Its next
                // attempt runs irrevocably, a hard forward-progress
                // guarantee.
                self.stats.watchdog_trips += 1;
                crate::trace!(
                    TraceLevel::Faults,
                    "watchdog tid={} retries={retries} invested={} -> irrevocable",
                    self.tid,
                    self.clock - start_clock
                );
                self.irrevocable = true;
            }
        }
    }

    /// Restore the heap from the undo log, newest first, and charge the
    /// rollback. With the sanitizer on this also rolls back the shadow
    /// heap and audits the zombie attempt's read set, so it runs even
    /// when the undo log is empty (lazy systems buffer writes, but their
    /// aborted reads still need the stability audit).
    fn undo_attempt(&mut self) {
        let undo_len = self.txn.undo.len();
        if undo_len > 0 || self.global.verify.is_some() {
            self.undo_restore();
            self.txn.undo.clear();
            // Charge exactly as the uninstrumented engine would: even a
            // zero-cycle charge can flush pending cycles at a different
            // point and perturb the simulated interleaving.
            if undo_len > 0 {
                let per = self.global.config.cost.abort_per_undo;
                self.charge_tm(per * undo_len as u64);
            }
        }
    }
}

/// Handle to the currently executing transaction attempt.
///
/// All transactional reads and writes go through this handle; propagate
/// the [`Abort`] error with `?` so the retry loop can restart the body.
pub struct Txn<'a> {
    pub(crate) ctx: &'a mut ThreadCtx,
}

impl Txn<'_> {
    /// This thread's id.
    pub fn tid(&self) -> usize {
        self.ctx.tid
    }

    /// The system being modeled.
    pub fn system(&self) -> SystemKind {
        self.ctx.global.config.system
    }

    /// Charge `cycles` of in-transaction application work.
    pub fn work(&mut self, cycles: u64) {
        self.ctx.charge_app(cycles);
    }

    /// A deterministic per-thread random number in `0..bound`.
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        self.ctx.rng.below(bound)
    }

    /// Allocate fresh words inside the transaction (leaked if the
    /// transaction aborts, like `TM_MALLOC`).
    pub fn alloc_words(&mut self, words: u64) -> WordAddr {
        self.ctx.charge_app(20 + words / 4);
        self.ctx.global.heap.alloc_words(words)
    }

    /// Allocate fresh words padded to whole cache lines.
    pub fn alloc_words_line_padded(&mut self, words: u64) -> WordAddr {
        self.ctx.charge_app(20 + words / 4);
        self.ctx.global.heap.alloc_words_line_padded(words)
    }

    /// Initialize a word of *freshly allocated, unpublished* memory
    /// without transactional instrumentation. Safe because the memory is
    /// unreachable by other threads until a transactional write publishes
    /// a pointer to it — the standard STAMP optimization for initializing
    /// `TM_MALLOC`ed nodes.
    pub fn init_word(&mut self, addr: WordAddr, value: u64) {
        self.ctx.charge_mem(addr.line());
        self.ctx.nontxn_store(addr, value);
    }

    /// Typed [`Txn::init_word`].
    pub fn init<T: TmValue>(&mut self, cell: &TCell<T>, value: T) {
        self.init_word(cell.addr(), value.to_bits());
    }

    /// Whether this transaction has been doomed by a committer (lazy
    /// systems) or a priority transaction (eager HTM).
    pub fn is_doomed(&self) -> bool {
        self.ctx.global.doomed[self.ctx.tid].get()
    }

    /// Costed but *unbarriered* read, for data the program guarantees is
    /// immutable or thread-private for the transaction's duration — the
    /// manual barrier-elision optimization the paper applies following
    /// Adl-Tabatabai et al. and Harris et al. (§III-D). On the HTMs this
    /// is equivalent to a normal read without occupying speculative
    /// cache state (the data can never conflict).
    ///
    /// Misuse (calling this on genuinely shared mutable data) breaks
    /// isolation, exactly as eliding a barrier in the C suite would.
    pub fn load_private(&mut self, addr: WordAddr) -> u64 {
        self.ctx.charge_mem(addr.line());
        self.ctx.global.heap.raw_load(addr)
    }

    /// Transactional read of a typed cell.
    pub fn read<T: TmValue>(&mut self, cell: &TCell<T>) -> TxResult<T> {
        self.read_word(cell.addr()).map(T::from_bits)
    }

    /// Transactional write of a typed cell.
    pub fn write<T: TmValue>(&mut self, cell: &TCell<T>, value: T) -> TxResult<()> {
        self.write_word(cell.addr(), value.to_bits())
    }

    /// Transactional read of array element `idx`.
    ///
    /// # Errors
    ///
    /// Aborts instead of panicking on an out-of-bounds index when the
    /// transaction is doomed (a zombie read produced the index).
    pub fn read_idx<T: TmValue>(&mut self, arr: &TArray<T>, idx: u64) -> TxResult<T> {
        if idx >= arr.len() {
            return self.zombie_or_panic(arr, idx);
        }
        self.read_word(arr.base().offset(idx)).map(T::from_bits)
    }

    /// Transactional write of array element `idx`.
    ///
    /// # Errors
    ///
    /// As [`Txn::read_idx`].
    pub fn write_idx<T: TmValue>(&mut self, arr: &TArray<T>, idx: u64, value: T) -> TxResult<()> {
        if idx >= arr.len() {
            return self.zombie_or_panic(arr, idx).map(|_| ());
        }
        self.write_word(arr.base().offset(idx), value.to_bits())
    }

    #[cold]
    fn zombie_or_panic<T: TmValue>(&mut self, arr: &TArray<T>, idx: u64) -> TxResult<T> {
        if self.is_doomed() {
            return Err(Abort(()));
        }
        panic!("index {idx} out of bounds (len {})", arr.len());
    }

    #[cold]
    fn unmapped_or_panic(&mut self, addr: WordAddr) -> TxResult<u64> {
        if self.is_doomed() {
            return Err(Abort(()));
        }
        panic!("transactional access to unmapped address {addr}");
    }

    /// Whether this transaction is executing in irrevocable mode (the
    /// starvation watchdog escalated it after sustained aborts): it is
    /// serialized, writes in place, and can no longer conflict-abort.
    pub fn is_irrevocable(&self) -> bool {
        self.ctx.irrevocable
    }

    /// Transactional read of a raw word address.
    pub fn read_word(&mut self, addr: WordAddr) -> TxResult<u64> {
        self.ctx.txn.read_barriers += 1;
        if !self.ctx.global.heap.is_mapped(addr) {
            return self.unmapped_or_panic(addr);
        }
        if self.ctx.irrevocable {
            return Ok(self.irrev_read(addr));
        }
        self.fault_probe()?;
        match self.ctx.global.config.system {
            SystemKind::Sequential | SystemKind::GlobalLock => Ok(self.seq_read(addr)),
            SystemKind::LazyStm => tl2::lazy_read(self, addr),
            SystemKind::EagerStm => tl2::eager_read(self, addr),
            SystemKind::LazyHtm => htm::lazy_read(self, addr),
            SystemKind::EagerHtm => htm::eager_read(self, addr),
            SystemKind::LazyHybrid => sigtm::lazy_read(self, addr),
            SystemKind::EagerHybrid => sigtm::eager_read(self, addr),
        }
    }

    /// Transactional write of a raw word address.
    pub fn write_word(&mut self, addr: WordAddr, value: u64) -> TxResult<()> {
        self.ctx.txn.write_barriers += 1;
        if !self.ctx.global.heap.is_mapped(addr) {
            return self.unmapped_or_panic(addr).map(|_| ());
        }
        if self.ctx.irrevocable {
            self.irrev_write(addr, value);
            return Ok(());
        }
        self.fault_probe()?;
        match self.ctx.global.config.system {
            SystemKind::Sequential | SystemKind::GlobalLock => {
                self.seq_write(addr, value);
                Ok(())
            }
            SystemKind::LazyStm => {
                tl2::lazy_write(self, addr, value);
                Ok(())
            }
            SystemKind::EagerStm => tl2::eager_write(self, addr, value),
            SystemKind::LazyHtm => htm::lazy_write(self, addr, value),
            SystemKind::EagerHtm => htm::eager_write(self, addr, value),
            SystemKind::LazyHybrid => sigtm::lazy_write(self, addr, value),
            SystemKind::EagerHybrid => sigtm::eager_write(self, addr, value),
        }
    }

    /// Early release (§III-B5): drop `addr` from the transactional read
    /// set so it no longer generates conflicts. The caller guarantees
    /// atomicity is preserved.
    ///
    /// On the eager HTM, addresses that overflowed into the Bloom filter
    /// cannot be released (the paper's labyrinth+ observation). On the
    /// hybrids this is a no-op (signatures cannot remove); the
    /// applications use unbarriered reads there instead.
    pub fn early_release(&mut self, addr: WordAddr) {
        match self.ctx.global.config.system {
            SystemKind::LazyHtm | SystemKind::EagerHtm => htm::early_release(self, addr),
            SystemKind::LazyStm | SystemKind::EagerStm => tl2::early_release(self, addr),
            SystemKind::Sequential
            | SystemKind::GlobalLock
            | SystemKind::LazyHybrid
            | SystemKind::EagerHybrid => {}
        }
    }

    // ----- fault injection & irrevocable barriers -----------------------

    /// Probe the fault-injection layer at a barrier boundary. Draws are
    /// taken from the attempt's seeded stream in a fixed order
    /// (interrupt hazard, capacity pressure, signature false positive),
    /// so a fault schedule is a pure function of
    /// `(fault_seed, tid, attempt)`. An injected fault records its kind
    /// for the spurious-abort accounting and aborts the attempt
    /// *without* a `prof_conflict` call — no innocent address is ever
    /// blamed in the conflict table for an injected event.
    fn fault_probe(&mut self) -> TxResult<()> {
        if self.ctx.fault.is_none() {
            return Ok(());
        }
        let clock = self.ctx.clock;
        let quantum = self.ctx.global.config.quantum;
        let signatures = self.ctx.global.config.system.props().signatures;
        let footprint = (self.ctx.txn.n_read + self.ctx.txn.n_written) as usize;
        let f = self.ctx.fault.as_mut().expect("checked above");
        let injected = 'probe: {
            if f.cfg.interrupt_permille != 0 && quantum > 0 {
                // One hazard roll per scheduling-quantum boundary the
                // attempt has crossed since it began.
                let elapsed = (clock - f.attempt_start) / quantum;
                while f.quanta_rolled < elapsed {
                    f.quanta_rolled += 1;
                    if f.stream.roll(f.cfg.interrupt_permille) {
                        break 'probe Some(FaultKind::Interrupt);
                    }
                }
            }
            if footprint >= f.cfg.capacity_lines && f.stream.roll(f.cfg.capacity_permille) {
                break 'probe Some(FaultKind::Capacity);
            }
            if signatures && f.stream.roll(f.cfg.sigfp_permille) {
                break 'probe Some(FaultKind::SigFalsePositive);
            }
            None
        };
        let Some(kind) = injected else {
            return Ok(());
        };
        f.injected = Some(kind);
        crate::trace!(
            TraceLevel::Faults,
            "inject kind={kind} tid={} attempt={} footprint={footprint}",
            self.ctx.tid,
            self.ctx.stats.attempts
        );
        Err(Abort(()))
    }

    /// Irrevocable read barrier: a direct load with the system's read
    /// barrier cost. No conflict detection — the gate and quiesce in
    /// `begin_attempt` guarantee exclusive execution.
    fn irrev_read(&mut self, addr: WordAddr) -> u64 {
        let barrier = self.ctx.global.config.system.props().read_barrier;
        self.ctx.charge_tm(barrier);
        self.seq_read(addr)
    }

    /// Irrevocable write barrier: eager in-place store (undo-logged so
    /// an explicit application abort can still roll back).
    fn irrev_write(&mut self, addr: WordAddr, value: u64) {
        let barrier = self.ctx.global.config.system.props().write_barrier;
        self.ctx.charge_tm(barrier);
        let line = addr.line();
        self.ctx.txn.mark(line.0, WRITTEN, WRITTEN);
        self.ctx.charge_mem(line);
        self.ctx.txn_store_eager(addr, value);
    }

    // ----- sequential and global lock -----------------------------------

    fn seq_read(&mut self, addr: WordAddr) -> u64 {
        let line = addr.line();
        self.ctx.txn.mark(line.0, READ, READ);
        self.ctx.charge_mem(line);
        self.ctx.txn_load(addr)
    }

    fn seq_write(&mut self, addr: WordAddr, value: u64) {
        let line = addr.line();
        self.ctx.txn.mark(line.0, WRITTEN, WRITTEN);
        self.ctx.charge_mem(line);
        self.ctx.txn_store_commit(addr, value);
    }

    // ----- helpers shared by the protocol modules -----------------------

    /// Record that `aborter` (when identifiable) aborts this transaction
    /// at heap line `line`, and abort.
    fn lose<T>(&self, line: u64, aborter: Option<usize>) -> TxResult<T> {
        self.ctx.prof_conflict(line, aborter, self.ctx.tid);
        Err(Abort(()))
    }

    /// Profiler helper: doom thread `v` and record the conflict edge on
    /// the first (false → true) doom transition, so each victim abort
    /// is attributed exactly once.
    #[inline]
    fn doom_and_record(&self, line: u64, v: usize) {
        if !self.ctx.global.doomed[v].replace(true) {
            self.ctx.prof_conflict(line, Some(self.ctx.tid), v);
        }
    }

    #[inline]
    fn check_doomed(&mut self) -> TxResult<()> {
        if self.is_doomed() {
            Err(Abort(()))
        } else {
            Ok(())
        }
    }

    /// Spin (in simulated time) for the global commit token, aborting if
    /// doomed while waiting.
    fn acquire_commit_token(&mut self) -> TxResult<()> {
        while !self.ctx.global.commit_token.try_acquire() {
            if self.is_doomed() {
                return Err(Abort(()));
            }
            self.ctx.spin_charge(10);
        }
        self.ctx.txn.token = true;
        Ok(())
    }

    /// Read-only commit fence for the lazy systems: wait for any
    /// in-flight commit to finish (its second doom scan included), then
    /// make the final doom check. A reader that observed a partial
    /// commit is necessarily doomed by the time the committer releases
    /// the token, so this is sufficient for consistency without
    /// serializing read-only transactions against each other.
    fn read_only_fence(&mut self) -> TxResult<()> {
        while self.ctx.global.commit_token.is_locked() {
            if self.is_doomed() {
                return Err(Abort(()));
            }
            self.ctx.spin_charge(5);
        }
        self.check_doomed()
    }

    /// The signature positions of `line`, for probing every thread's
    /// signatures (all are `config.signature_bits` wide).
    fn sig_probe(&self, line: LineAddr) -> SigProbe {
        SigProbe::new(line, self.ctx.global.config.signature_bits as u64)
    }

    /// Lazy software commit (lazy STM, lazy hybrid): write the redo log
    /// back to the heap, charging each word's memory access and copy.
    fn apply_redo_log(&mut self) {
        let per_write = self.ctx.global.config.cost.commit_per_write;
        // Taken out for the loop, which needs the context mutably;
        // nothing in it reads the redo log.
        let redo = std::mem::take(&mut self.ctx.txn.write_map);
        for (&a, &v) in &redo {
            let addr = WordAddr(a);
            self.ctx.txn_store_commit(addr, v);
            self.ctx.charge_mem(addr.line());
            self.ctx.charge_tm(per_write);
        }
        self.ctx.txn.write_map = redo;
    }

    // ----- commit / rollback ---------------------------------------------

    pub(crate) fn try_commit(&mut self) -> TxResult<()> {
        if self.ctx.irrevocable {
            // Nothing can conflict with an irrevocable attempt: its
            // writes are in place, and it pays the commit's fixed cost.
            self.ctx.charge_txn_fixed();
            self.ctx.txn.undo.clear();
        } else {
            let result = match self.ctx.global.config.system {
                SystemKind::Sequential | SystemKind::GlobalLock => Ok(()),
                SystemKind::LazyStm => tl2::lazy_commit(self),
                SystemKind::EagerStm => tl2::eager_commit(self),
                SystemKind::LazyHtm => htm::lazy_commit(self),
                SystemKind::EagerHtm => htm::eager_commit(self),
                SystemKind::LazyHybrid => sigtm::lazy_commit(self),
                SystemKind::EagerHybrid => sigtm::eager_commit(self),
            };
            if result.is_err() {
                self.rollback();
                return result;
            }
            // Injected delayed commit: extra cycles modeling commit
            // arbitration / coherence-burst stalls, charged as TM
            // overhead of the committing attempt.
            let stall = self.ctx.fault.as_mut().map_or(0, |f| {
                if f.stream.roll(f.cfg.stall_permille) {
                    f.cfg.stall_cycles
                } else {
                    0
                }
            });
            if stall > 0 {
                crate::trace!(
                    TraceLevel::Faults,
                    "inject kind={} tid={} cycles={stall}",
                    FaultKind::CommitStall,
                    self.ctx.tid
                );
                self.ctx.charge_tm(stall);
            }
        }
        if self.ctx.txn.token {
            // Held since begin: release it only now that the commit's
            // effects are visible. (The lazy commits release a token
            // they took themselves.)
            self.ctx.release_token();
        }
        Ok(())
    }

    /// Undo all side effects of the current attempt. Called on every
    /// abort path; also used by `try_commit` on failure. Idempotent.
    pub(crate) fn rollback(&mut self) {
        // 1. Restore memory (eager systems, and irrevocable attempts).
        self.ctx.undo_attempt();
        if self.ctx.irrevocable {
            // An explicit abort: the re-execution keeps the gate and
            // the token, and the attempt registered no conflict state.
            return;
        }
        // 2. Release the system's locks, coherence or signature state.
        match self.ctx.global.config.system {
            SystemKind::Sequential => {}
            // Writes were applied in place under the lock; there is no
            // log to roll back. Explicit aborts are a programming error
            // in lock-based execution.
            SystemKind::GlobalLock => {
                panic!("explicit transaction abort under GlobalLock leaves partial writes")
            }
            SystemKind::LazyStm | SystemKind::EagerStm => tl2::rollback(self),
            SystemKind::LazyHtm | SystemKind::EagerHtm => htm::rollback(self),
            SystemKind::LazyHybrid | SystemKind::EagerHybrid => sigtm::retire(self),
        }
        // 3. Release the commit token, if the attempt holds it. After
        // the cleanup above, so no successor observes this attempt's
        // stale conflict state.
        if self.ctx.txn.token {
            self.ctx.release_token();
        }
        self.ctx.global.active[self.ctx.tid].set(false);
    }
}

impl std::fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("tid", &self.ctx.tid)
            .field("system", &self.ctx.global.config.system)
            .field("read_barriers", &self.ctx.txn.read_barriers)
            .field("write_barriers", &self.ctx.txn.write_barriers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every system's row, field by field.
    #[test]
    #[rustfmt::skip]
    fn each_row_states_its_design() {
        use SystemKind::*;
        let (imm, lin) = (CmPolicy::Immediate, CmPolicy::DEFAULT_LINEAR);
        // (system, transactional, implicit barriers, signatures, opaque
        // aborts, priority token, default CM, read, write, fixed cost)
        let rows = [
            (Sequential,  false, false, false, false, false, imm, 0,  0,  0),
            (GlobalLock,  false, false, false, false, false, imm, 0,  0,  10),
            (LazyHtm,     true,  true,  false, false, false, imm, 0,  0,  3),
            (EagerHtm,    true,  true,  true,  false, true,  imm, 0,  0,  3),
            (LazyHybrid,  true,  false, true,  false, false, lin, 5,  7,  15),
            (EagerHybrid, true,  false, true,  false, false, lin, 5,  7,  15),
            (LazyStm,     true,  false, false, true,  false, lin, 22, 10, 30),
            (EagerStm,    true,  false, false, true,  false, lin, 12, 24, 30),
        ];
        for (system, transactional, implicit_barriers, signatures, aborts_must_be_opaque,
             priority_token, default_cm, read_barrier, write_barrier, txn_fixed) in rows
        {
            let row = SystemProps {
                transactional, implicit_barriers, signatures, aborts_must_be_opaque,
                priority_token, default_cm, read_barrier, write_barrier, txn_fixed,
            };
            assert_eq!(system.props(), row, "{system}");
        }
        // §V-B4: the lazy STM's read barrier (it searches the write
        // buffer) is dearer than the eager STM's, and signatures make
        // the hybrids' cheaper still.
        let read = |s: SystemKind| s.props().read_barrier;
        assert!(read(LazyStm) > read(EagerStm));
        assert!(read(EagerStm) > read(LazyHybrid));
    }

    /// The eager-HTM livelock guard: under every policy, an attempt
    /// runs holding the priority token only once its transaction has
    /// aborted 32 times, and only on a row with a priority token. Each
    /// transaction aborts itself 40 times, so every system reaches the
    /// abort count.
    #[test]
    fn promotion_needs_32_aborts_and_a_priority_token_row() {
        use crate::{TmConfig, TmRuntime};
        use std::cell::Cell;
        for system in SystemKind::ALL_TM {
            for policy in CmPolicy::ALL {
                let rt = TmRuntime::new(TmConfig::new(system, 2).cm(policy));
                let cell = rt.heap().alloc_cell(0u64);
                // The fewest aborts an attempt holding the token had
                // seen. Asserted after the run: a panic inside it would
                // leave the token held and the other thread waiting.
                let first = Cell::new(None::<u32>);
                rt.run(|ctx| {
                    for _ in 0..2 {
                        let mut attempt = 0u32;
                        ctx.atomic(|txn| {
                            if txn.ctx.global.priority.get() == txn.tid() {
                                first.set(Some(first.get().map_or(attempt, |f| f.min(attempt))));
                            }
                            attempt += 1;
                            let v = txn.read(&cell)?;
                            txn.write(&cell, v + 1)?;
                            if attempt <= 40 {
                                return abort();
                            }
                            Ok(())
                        });
                    }
                });
                let token = system.props().priority_token;
                match first.get() {
                    Some(at) => assert!(token && at >= 32, "{system}/{policy}: promoted at {at}"),
                    None => assert!(!token, "{system}/{policy}: never promoted"),
                }
            }
        }
    }
}
