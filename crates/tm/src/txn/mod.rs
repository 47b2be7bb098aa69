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
//! The dispatch rule: a system is named only in the dispatch matches,
//! one `match` on `config.system` per entry point (begin, read, write,
//! early release, commit, rollback), and in the calls those matches
//! make into the system's module. A new design is one module plus one
//! arm per match.
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
use crate::cm::{CmCtx, ContentionManager};
use crate::config::SystemKind;
use crate::fault::{FaultConfig, FaultKind};
use crate::heap::{TArray, TCell, TmValue};
use crate::prof::ProfBucket;
use crate::runtime::{LineSet, ThreadCtx, WordMap, NO_PRIORITY};
use crate::signature::SigProbe;
use crate::stats::TxnRecord;
use crate::trace::TraceLevel;

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

/// Per-attempt transaction state, owned by the thread context and reused
/// across attempts to avoid allocation churn.
#[derive(Debug, Default)]
pub(crate) struct TxnState {
    /// TL2 read timestamp.
    pub rv: u64,
    /// STM read set: lock-table indices to validate at commit.
    pub read_locks: Vec<u32>,
    /// Lazy redo buffer: word address -> value.
    pub write_map: WordMap,
    /// Eager undo log: (word address, previous value), in write order.
    pub undo: Vec<(u64, u64)>,
    /// Eager STM: locks held, with the version to restore on abort.
    pub held_locks: Vec<(u32, u64)>,
    /// Distinct lines read (stats for all systems; tracked read set for
    /// HTMs/hybrids).
    pub read_lines: LineSet,
    /// Distinct lines written.
    pub write_lines: LineSet,
    /// Lines registered in the directory (HTMs), to clear on completion.
    pub dir_lines: Vec<u64>,
    /// HTM: lines resident in the modeled L1 (speculative state).
    pub resident: LineSet,
    /// Eager HTM: lines that overflowed into the Bloom signature.
    pub overflowed: LineSet,
    /// HTM capacity model: lines per L1 set.
    pub set_counts: crate::fxhash::FxHashMap<u64, u8>,
    /// Lazy HTM: true once overflow forced this transaction to hold the
    /// commit token (serialized execution).
    pub serialized: bool,
    /// Software systems: true while this attempt holds the commit token
    /// because the contention manager serialized it (released centrally
    /// in `try_commit`/`rollback`; the lazy HTM reuses `serialized`
    /// instead so its existing token management applies).
    pub cm_token: bool,
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
        self.read_lines.clear();
        self.write_lines.clear();
        self.dir_lines.clear();
        self.resident.clear();
        self.overflowed.clear();
        self.set_counts.clear();
        self.serialized = false;
        self.cm_token = false;
        self.cm_serialized_attempt = false;
        self.app_cycles = 0;
        self.read_barriers = 0;
        self.write_barriers = 0;
    }
}

impl ThreadCtx {
    /// Execute `body` as an atomic transaction, retrying on conflicts
    /// until it commits, and return its result.
    ///
    /// The body may run multiple times; it must be idempotent apart from
    /// its transactional effects (allocations it performs are leaked on
    /// abort, as with the original STAMP `TM_MALLOC`).
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
            self.begin_attempt(retries);
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
                    // An injected fault recorded itself at the barrier
                    // that delivered it; the flag routes the abort to
                    // the spurious accounting and tells the contention
                    // manager not to learn contention from it.
                    let spurious = self.fault.as_ref().is_some_and(|f| f.injected.is_some());
                    if spurious {
                        self.stats.spurious_aborts += 1;
                    }
                    self.after_abort(retries, spurious);
                    if let Some(wd) = self.watchdog {
                        if wd.should_escalate(retries, self.clock - start_clock) {
                            // Starvation watchdog: this transaction has
                            // crossed the consecutive-abort or invested-
                            // cycle bound. Escalate to irrevocable mode
                            // for a hard forward-progress guarantee.
                            self.stats.watchdog_trips += 1;
                            return self.run_irrevocable(&mut body, start_clock, retries);
                        }
                    }
                }
            }
        }
    }

    fn begin_attempt(&mut self, retries: u32) {
        htm::await_priority(self);
        self.start_attempt();
        self.global.active[self.tid].set(true);
        // Irrevocability gate: while a watchdog-escalated transaction
        // holds it, stand down (clearing `active` so the holder's
        // quiesce completes) and wait for it to commit. Nothing runs
        // between the last check and setting `active` again, so no
        // attempt ever runs concurrently with an irrevocable one. When
        // the gate is free — every run without fault injection — this
        // is a single uncharged load.
        if self.global.irrevocable.get() != NO_PRIORITY {
            self.global.active[self.tid].set(false);
            while self.global.irrevocable.get() != NO_PRIORITY {
                self.spin_charge(20);
            }
            self.global.active[self.tid].set(true);
        }
        match self.global.config.system {
            SystemKind::Sequential => {}
            SystemKind::GlobalLock => {
                // Coarse-grain lock: serialize the whole transaction.
                while !self.global.commit_token.try_acquire() {
                    self.spin_charge(10);
                }
            }
            // A CM-serialized lazy-HTM attempt reuses the overflow-
            // serialization path: its commit and rollback already
            // release the token when `serialized` is set.
            SystemKind::LazyHtm => self.txn.serialized = self.cm_admission(retries),
            SystemKind::EagerHtm
            | SystemKind::LazyStm
            | SystemKind::EagerStm
            | SystemKind::LazyHybrid
            | SystemKind::EagerHybrid => self.txn.cm_token = self.cm_admission(retries),
        }
        self.txn.rv = self.global.clock.read();
        let ts = self.global.ts_counter.get();
        self.global.ts_counter.set(ts + 1);
        self.global.txn_ts[self.tid].set(ts);
        // Derive this attempt's fault stream last, so gate/queue waits
        // above don't count toward the interrupt hazard's elapsed time.
        let (tid, attempt, clock) = (self.tid, self.stats.attempts, self.clock);
        if let Some(f) = &mut self.fault {
            f.begin_attempt(tid, attempt, clock);
        }
        self.charge_txn_fixed();
    }

    /// Open an attempt, normal or irrevocable: statistics, the
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
        let config = &self.global.config;
        let fixed = config.cost.txn_fixed_for(config.system);
        self.charge_tm(fixed);
    }

    /// Call this thread's contention manager with its view of the
    /// current transaction.
    fn consult_cm<R>(
        &mut self,
        retries: u32,
        spurious: bool,
        call: impl FnOnce(&mut dyn ContentionManager, &mut CmCtx<'_>) -> R,
    ) -> R {
        let ThreadCtx {
            cm,
            rng,
            global,
            txn,
            tid,
            ..
        } = self;
        let mut cctx = CmCtx {
            tid: *tid,
            retries,
            attempt_work: txn.app_cycles,
            spurious,
            rng,
            shared: &global.cm_shared,
        };
        call(cm.as_mut(), &mut cctx)
    }

    /// Contention-manager admission control: ask the CM whether this
    /// attempt should be funneled through the global serialization
    /// queue, and if so take the commit token for the attempt's whole
    /// duration and return true. Runs before the TL2 read-timestamp is
    /// taken so a long queue wait still yields a fresh snapshot.
    fn cm_admission(&mut self, retries: u32) -> bool {
        if !self.consult_cm(retries, false, |cm, cctx| cm.on_begin(cctx)) {
            return false;
        }
        // The wait advances simulated time only (10 cycles per probe,
        // like the GlobalLock spin), never host wall-clock sleeps.
        let global = self.global.clone();
        global.commit_token.acquire_until(|| {
            self.spin_charge(10);
            true
        });
        self.txn.cm_serialized_attempt = true;
        true
    }

    fn finish_commit(&mut self, start_clock: u64, retries: u32) {
        self.verify_commit_attempt();
        self.global.active[self.tid].set(false);
        htm::release_priority(self);
        self.consult_cm(retries, false, |cm, cctx| cm.on_commit(cctx));
        if self.txn.cm_serialized_attempt {
            self.stats.serialized_commits += 1;
        }
        self.stats.commits += 1;
        self.stats.cycles_in_txn += self.clock - start_clock;
        let rec = TxnRecord {
            app_cycles: self.txn.app_cycles,
            read_lines: self.txn.read_lines.len() as u32,
            write_lines: self.txn.write_lines.len() as u32,
            read_barriers: self.txn.read_barriers,
            write_barriers: self.txn.write_barriers,
            retries,
        };
        self.stats.records.push(rec);
    }

    fn after_abort(&mut self, retries: u32, spurious: bool) {
        // The fixed abort cost belongs to the attempt that just died,
        // not to (committed-attempt) overhead.
        let fixed = self.global.config.cost.abort_fixed;
        self.charge_bucket(fixed, ProfBucket::Wasted);
        let action = self.consult_cm(retries, spurious, |cm, cctx| cm.on_abort(cctx));
        if action.backoff_cycles > 0 {
            // A zero-cycle charge never flushes (pending stays below the
            // flush threshold), so skipping it is interleaving-neutral
            // and keeps the default schedules bit-identical.
            self.stats.backoff_cycles += action.backoff_cycles;
            self.charge_bucket(action.backoff_cycles, ProfBucket::Backoff);
        }
        if action.request_priority {
            htm::take_priority(self);
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

    /// Watchdog escalation: execute `body` to completion in irrevocable
    /// mode — serialized behind the irrevocability gate and the global
    /// commit token, with in-place writes and no conflict-abort path.
    /// This is the engine's hard forward-progress guarantee: whatever
    /// the fault and conflict schedule, an escalated transaction
    /// commits (explicit application aborts re-execute serially, which
    /// converges because no other thread changes data underneath).
    ///
    /// Deadlock-safe ordering: (1) take the gate — new attempts now
    /// park at the top of `begin_attempt`; (2) quiesce on the `active`
    /// flags *without* holding the commit token, because an in-flight
    /// lazy committer needs the token to finish its attempt; (3) take
    /// the commit token. A drop guard releases token and gate even if
    /// the body panics, so the other threads' park loops always exit
    /// and the panic propagates as a run failure instead of a hang.
    fn run_irrevocable<R>(
        &mut self,
        body: &mut impl FnMut(&mut Txn<'_>) -> TxResult<R>,
        start_clock: u64,
        mut retries: u32,
    ) -> R {
        if crate::trace::enabled(TraceLevel::Faults) {
            crate::trace::emit(
                TraceLevel::Faults,
                format_args!(
                    "watchdog tid={} retries={retries} invested={} -> irrevocable",
                    self.tid,
                    self.clock - start_clock
                ),
            );
        }
        // 1. The irrevocability gate (one escalated transaction at a
        // time; losers wait their turn here).
        while self.global.irrevocable.get() != NO_PRIORITY {
            self.spin_charge(20);
        }
        self.global.irrevocable.set(self.tid);
        struct IrrevGuard {
            global: std::rc::Rc<crate::runtime::Global>,
            tid: usize,
            token_held: bool,
        }
        impl Drop for IrrevGuard {
            fn drop(&mut self) {
                // Token before gate: a thread released by the gate must
                // find the token in a consistent state.
                if self.token_held {
                    self.global.commit_token.release();
                }
                if self.global.irrevocable.get() == self.tid {
                    self.global.irrevocable.set(NO_PRIORITY);
                }
            }
        }
        let mut guard = IrrevGuard {
            global: self.global.clone(),
            tid: self.tid,
            token_held: false,
        };
        // 2. Quiesce: wait for every other thread's in-flight attempt
        // to resolve. New attempts park at the gate, so once `active`
        // drains, this thread is the only one touching shared data.
        let n = self.global.config.threads;
        while (0..n).any(|t| t != self.tid && self.global.active[t].get()) {
            self.spin_charge(20);
        }
        // 3. The commit token, for the whole irrevocable execution:
        // read-only fences and lazy commits spin on it, so even a
        // thread mid-attempt when the gate closed cannot slip a commit
        // under our in-place writes.
        while !self.global.commit_token.try_acquire() {
            self.spin_charge(10);
        }
        guard.token_held = true;
        loop {
            // An irrevocable attempt is a real attempt: it enters the
            // statistics, the profiler, and the sanitizer's
            // serialization graph exactly like a normal one.
            self.irrevocable = true;
            self.start_attempt();
            self.charge_txn_fixed();
            let result = {
                let mut txn = Txn { ctx: &mut *self };
                body(&mut txn)
            };
            match result {
                Ok(value) => {
                    self.charge_txn_fixed(); // commit tail, as in normal commits
                    self.txn.undo.clear();
                    self.in_txn = false;
                    self.prof_end_attempt(true);
                    self.irrevocable = false;
                    self.stats.irrevocable_commits += 1;
                    self.finish_commit(start_clock, retries);
                    drop(guard);
                    return value;
                }
                Err(Abort(())) => {
                    // Explicit application abort (labyrinth's
                    // TM_RESTART): roll back the in-place writes and
                    // re-execute, still irrevocable.
                    self.undo_attempt();
                    self.in_txn = false;
                    self.prof_end_attempt(false);
                    self.charge_bucket(self.global.config.cost.abort_fixed, ProfBucket::Wasted);
                    self.irrevocable = false;
                    retries = retries.saturating_add(1);
                    self.stats.aborts += 1;
                }
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
        let system = self.ctx.global.config.system;
        let footprint = self.ctx.txn.read_lines.len() + self.ctx.txn.write_lines.len();
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
            if FaultConfig::sigfp_applies(system) && f.stream.roll(f.cfg.sigfp_permille) {
                break 'probe Some(FaultKind::SigFalsePositive);
            }
            None
        };
        let Some(kind) = injected else {
            return Ok(());
        };
        f.injected = Some(kind);
        if crate::trace::enabled(TraceLevel::Faults) {
            crate::trace::emit(
                TraceLevel::Faults,
                format_args!(
                    "inject kind={kind} tid={} attempt={} footprint={footprint}",
                    self.ctx.tid, self.ctx.stats.attempts
                ),
            );
        }
        Err(Abort(()))
    }

    /// Irrevocable read barrier: a direct load with the system's read
    /// barrier cost. No conflict detection — the gate and quiesce in
    /// `run_irrevocable` guarantee exclusive execution.
    fn irrev_read(&mut self, addr: WordAddr) -> u64 {
        let config = &self.ctx.global.config;
        let barrier = config.cost.read_barrier(config.system);
        self.ctx.charge_tm(barrier);
        self.seq_read(addr)
    }

    /// Irrevocable write barrier: eager in-place store (undo-logged so
    /// an explicit application abort can still roll back).
    fn irrev_write(&mut self, addr: WordAddr, value: u64) {
        let config = &self.ctx.global.config;
        let barrier = config.cost.write_barrier(config.system);
        self.ctx.charge_tm(barrier);
        let line = addr.line();
        self.ctx.txn.write_lines.insert(line.0);
        self.ctx.charge_mem(line);
        self.ctx.txn_store_eager(addr, value);
    }

    // ----- sequential and global lock -----------------------------------

    fn seq_read(&mut self, addr: WordAddr) -> u64 {
        let line = addr.line();
        self.ctx.txn.read_lines.insert(line.0);
        self.ctx.charge_mem(line);
        self.ctx.txn_load(addr)
    }

    fn seq_write(&mut self, addr: WordAddr, value: u64) {
        let line = addr.line();
        self.ctx.txn.write_lines.insert(line.0);
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
        let result = match self.ctx.global.config.system {
            SystemKind::Sequential => Ok(()),
            SystemKind::GlobalLock => {
                self.ctx.global.commit_token.release();
                Ok(())
            }
            SystemKind::LazyStm => tl2::lazy_commit(self),
            SystemKind::EagerStm => tl2::eager_commit(self),
            SystemKind::LazyHtm => htm::lazy_commit(self),
            SystemKind::EagerHtm => htm::eager_commit(self),
            SystemKind::LazyHybrid => sigtm::lazy_commit(self),
            SystemKind::EagerHybrid => sigtm::eager_commit(self),
        };
        if result.is_ok() {
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
                if crate::trace::enabled(TraceLevel::Faults) {
                    crate::trace::emit(
                        TraceLevel::Faults,
                        format_args!(
                            "inject kind={} tid={} cycles={stall}",
                            FaultKind::CommitStall,
                            self.ctx.tid
                        ),
                    );
                }
                self.ctx.charge_tm(stall);
            }
        }
        if result.is_ok() && self.ctx.txn.cm_token {
            // CM-serialized attempt: the token was held since begin;
            // release it only now that the commit's effects are visible.
            self.ctx.global.commit_token.release();
            self.ctx.txn.cm_token = false;
        }
        if result.is_err() {
            self.rollback();
        }
        result
    }

    /// Undo all side effects of the current attempt. Called on every
    /// abort path; also used by `try_commit` on failure. Idempotent.
    pub(crate) fn rollback(&mut self) {
        // 1. Restore memory (eager systems).
        self.ctx.undo_attempt();
        // 2. Release the system's locks, coherence or signature state.
        match self.ctx.global.config.system {
            SystemKind::Sequential => {}
            SystemKind::GlobalLock => {
                // Writes were applied in place under the lock; there is
                // no log to roll back. Explicit aborts are a programming
                // error in lock-based execution.
                self.ctx.global.commit_token.release();
                panic!("explicit transaction abort under GlobalLock leaves partial writes");
            }
            SystemKind::LazyStm | SystemKind::EagerStm => tl2::rollback(self),
            SystemKind::LazyHtm | SystemKind::EagerHtm => htm::rollback(self),
            SystemKind::LazyHybrid | SystemKind::EagerHybrid => sigtm::retire(self),
        }
        // 3. Release the CM serialization token (held since begin when
        // the contention manager serialized this attempt). After the
        // cleanup above, so no successor observes this attempt's stale
        // conflict state.
        if self.ctx.txn.cm_token {
            self.ctx.global.commit_token.release();
            self.ctx.txn.cm_token = false;
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
