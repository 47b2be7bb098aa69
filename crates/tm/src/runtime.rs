//! The TM runtime: global system state, per-thread execution contexts,
//! and the fork-join entry point that runs an application phase on the
//! simulated machine.
//!
//! # Interleaving model
//!
//! A run's logical threads are fibers on the OS thread that calls
//! [`TmRuntime::run`], and only the scheduler's turn holder runs. Threads
//! of a run interleave only inside scheduler calls: the clock publishes
//! (`advance`, and the `flush` or `spin_charge` that exhausts the turn's
//! lease), [`ThreadCtx::barrier`], and the turn gate and exit
//! (`wait_turn`, `done`). Between two such calls, a thread's code runs
//! without interruption, so a read-modify-write of run state needs no
//! atomic, CAS loop or lock. Run state is therefore plain
//! `Cell`/`RefCell` behind an `Rc`: the compiler keeps it on the run's
//! OS thread, and the one rule it cannot check is that no `RefCell`
//! borrow is held across a scheduler call (the next thread to run would
//! panic with "already borrowed"). Every conflict, wait and
//! serialisation the simulated machine models is charged in simulated
//! cycles ([`crate::sim`]), never in host synchronisation.
//!
//! # Publishing the clock
//!
//! A thread charges cycles to its own clock and reaches a flush point
//! every `FLUSH_CYCLES` cycles and after each spin probe. When it
//! gets the turn, the scheduler hands it a lease: the clock up to which
//! it keeps the turn and, under PCT, the flushes left before the next
//! change point. A flush inside the lease only adds to an unpublished
//! total; the flush that leaves it publishes the total in one scheduler
//! call, as do `barrier` and the thread's exit. The scheduler counts
//! every batched flush as an advance, and since each would only have
//! kept the turn, the schedule is that of a publish at every flush.
//! A flush inside the lease is not a scheduler call, but any flush may
//! be the one that publishes, so no `RefCell` borrow may span one.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::addr::{LineAddr, WordAddr};
use crate::cache::CacheModel;
use crate::cm::{CmPolicy, CmShared};
use crate::config::MutationHook;
use crate::config::{SystemKind, TmConfig};
use crate::directory::Directory;
use crate::fault::{FaultState, WatchdogConfig};
use crate::fiber::Fiber;
use crate::heap::{TCell, TmHeap, TmValue};
use crate::locks::{GlobalClock, LockTable, LOCK_TABLE_BITS};
use crate::prof::{ProfBucket, ProfReport, ProfShared, ProfThread, ProfThreadReport};
use crate::sched::{Lease, SchedCounters, Scheduler};
use crate::signature::Signature;
use crate::sim::{SimBarrier, SimMutex, XorShift64, FLUSH_CYCLES};
use crate::stats::RunStats;
use crate::txn::TxnState;
use crate::verify::{self, VerifyReport, VerifyState, VerifyTxn};

/// Sentinel for "no thread holds the eager-HTM priority token".
pub(crate) const NO_PRIORITY: usize = usize::MAX;

/// Global TM system state shared by all logical threads of a run.
pub(crate) struct Global {
    pub config: TmConfig,
    pub heap: Rc<TmHeap>,
    pub clock: GlobalClock,
    pub locks: LockTable,
    pub directory: Directory,
    /// Per-thread doom flags (set by committers/priority holders).
    pub doomed: Vec<Cell<bool>>,
    /// Per-thread "inside a transaction" flags (observed by conflict
    /// scans).
    pub active: Vec<Cell<bool>>,
    /// Per-thread read signatures (hybrids).
    pub read_sigs: Vec<Signature>,
    /// Per-thread write signatures (hybrids).
    pub write_sigs: Vec<Signature>,
    /// Per-thread overflow Bloom filters (eager HTM).
    pub overflow_sigs: Vec<Signature>,
    /// Bit `t` is set while `overflow_sigs[t]` holds a line.
    pub overflowing: Cell<u32>,
    /// Global commit token: serializes lazy commits and lazy-HTM
    /// overflow mode.
    pub commit_token: SimMutex,
    /// Eager-HTM priority token holder.
    pub priority: Cell<usize>,
    /// Tid of the thread executing in irrevocable mode (the starvation
    /// watchdog's escalation path), or [`NO_PRIORITY`] when free. While
    /// held, other threads park at the top of `begin_attempt`, so the
    /// holder runs serialized with in-place writes and no conflict
    /// aborts.
    pub irrevocable: Cell<usize>,
    /// Monotonic transaction-timestamp source (eager-HTM stall policy's
    /// deadlock avoidance).
    pub ts_counter: Cell<u64>,
    /// Per-thread timestamp of the current transaction attempt.
    pub txn_ts: Vec<Cell<u64>>,
    pub scheduler: Scheduler,
    /// Cross-thread contention-manager state (Karma priorities).
    pub cm_shared: CmShared,
    /// The serializability sanitizer, when `config.verify` is set.
    pub verify: Option<VerifyState>,
    /// The profiler's cross-thread conflict table, when `config.prof`
    /// is set.
    pub prof: Option<ProfShared>,
}

impl Global {
    fn new(config: TmConfig, heap: Rc<TmHeap>) -> Self {
        let n = config.threads;
        let sig_bits = config.signature_bits;
        // Mutation hook: corrupted signatures mis-insert so the
        // hybrids' conflict scans miss — the sanitizer must notice.
        let corrupt_sigs = config.mutation == MutationHook::CorruptSignatureHash;
        let new_sig = |_| Signature::new_maybe_corrupted(sig_bits, corrupt_sigs);
        Global {
            clock: GlobalClock::new(),
            locks: LockTable::new(LOCK_TABLE_BITS, config.stm_granularity),
            directory: Directory::new(),
            doomed: (0..n).map(|_| Cell::new(false)).collect(),
            active: (0..n).map(|_| Cell::new(false)).collect(),
            read_sigs: (0..n).map(new_sig).collect(),
            write_sigs: (0..n).map(new_sig).collect(),
            overflow_sigs: (0..n).map(new_sig).collect(),
            overflowing: Cell::new(0),
            commit_token: SimMutex::new(),
            priority: Cell::new(NO_PRIORITY),
            irrevocable: Cell::new(NO_PRIORITY),
            ts_counter: Cell::new(1),
            txn_ts: (0..n).map(|_| Cell::new(u64::MAX)).collect(),
            scheduler: Scheduler::for_fibers(n, config.quantum, config.sched, config.sched_seed),
            cm_shared: CmShared::new(n),
            verify: config.verify.then(VerifyState::default),
            prof: config.prof.then(ProfShared::default),
            heap,
            config,
        }
    }
}

/// Result of a [`TmRuntime::run`] phase.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The system the phase ran on.
    pub system: SystemKind,
    /// Logical threads used.
    pub threads: usize,
    /// Simulated makespan: the maximum per-thread cycle count.
    pub sim_cycles: u64,
    /// Host wall-clock time of the phase.
    pub wall: Duration,
    /// Aggregated transactional statistics.
    pub stats: RunStats,
    /// Committed transactions per thread, indexed by tid. Liveness
    /// harnesses assert every thread makes progress (nonzero entries)
    /// under injected faults; the aggregate alone cannot distinguish a
    /// starved thread from an idle one.
    pub thread_commits: Vec<u64>,
    /// Scheduler advances, handoffs and wakeups. Host-side counts,
    /// so no pinned artifact records them.
    pub sched: SchedCounters,
    /// Sanitizer report, present when the run had `TmConfig::verify`
    /// enabled.
    pub verify: Option<VerifyReport>,
    /// Profiler report, present when the run had `TmConfig::prof`
    /// enabled.
    pub prof: Option<ProfReport>,
}

// A report carries no run state, so it can leave the run's OS thread
// (say, from a worker that ran the simulation).
const _: fn() = || {
    fn send<T: Send>() {}
    send::<RunReport>();
};

impl RunReport {
    /// Speedup of this run relative to a baseline's simulated cycles.
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        if self.sim_cycles == 0 {
            0.0
        } else {
            baseline.sim_cycles as f64 / self.sim_cycles as f64
        }
    }
}

/// The TM runtime for one application execution: owns the heap and the
/// global machinery for the configured system and thread count.
///
/// Typical use: allocate and initialize application state through
/// [`TmRuntime::heap`], then call [`TmRuntime::run`] with the per-thread
/// body, and read back results through the heap.
pub struct TmRuntime {
    config: TmConfig,
    heap: Rc<TmHeap>,
}

impl TmRuntime {
    /// Create a runtime with a fresh heap.
    pub fn new(config: TmConfig) -> Self {
        let heap = Rc::new(TmHeap::new());
        TmRuntime { config, heap }
    }

    /// The configuration this runtime models.
    pub fn config(&self) -> &TmConfig {
        &self.config
    }

    /// The transactional heap (for setup/verification phases).
    pub fn heap(&self) -> &TmHeap {
        &self.heap
    }

    /// A phase barrier sized for this runtime's thread count.
    pub fn new_barrier(&self) -> SimBarrier {
        SimBarrier::new(self.config.threads)
    }

    /// Run one parallel phase: `body(ctx)` executes once on each of the
    /// configured logical threads. Returns the simulated makespan and
    /// aggregated statistics.
    ///
    /// Each logical thread is a fiber on the calling OS thread, and a
    /// driver loop resumes whichever one holds the scheduler's turn
    /// until all have finished (see the [module docs](self) for where
    /// threads interleave). `body` therefore need not be `Sync`.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any body at once: the run ends
    /// there, and the other threads are unwound where they stand.
    /// Panics, naming each thread's status, if no thread can run while
    /// some have not finished (e.g. a body returned without reaching a
    /// barrier its peers wait at).
    pub fn run<F>(&self, body: F) -> RunReport
    where
        F: Fn(&mut ThreadCtx),
    {
        // A fresh global per phase keeps scheduler clocks and stats
        // independent across phases while reusing heap contents.
        let global = Rc::new(Global::new(self.config.clone(), self.heap.clone()));
        let n = self.config.threads;
        type Collected = (RunStats, Option<ProfThreadReport>);
        let collected: Vec<Cell<Option<Collected>>> = (0..n).map(|_| Cell::new(None)).collect();
        let start = Instant::now();
        // Declared after everything the fibers borrow, so an unwind out
        // of the driver unwinds and unmaps unfinished fibers before any
        // of it drops.
        let mut fibers: Vec<Fiber<_>> = (0..n)
            .map(|tid| {
                let global = global.clone();
                let (body, slot) = (&body, &collected[tid]);
                Fiber::new(move || {
                    let mut ctx = ThreadCtx::new(tid, global);
                    // Deterministic dispatch gate: only the turn holder
                    // may touch shared state, and that includes the
                    // body's very first accesses.
                    ctx.lease = ctx.global.scheduler.acquire(tid);
                    body(&mut ctx);
                    ctx.publish();
                    ctx.global.scheduler.done(tid);
                    ctx.stats.cycles_total = ctx.clock;
                    if let Some((accesses, misses)) = ctx.cache_stats() {
                        ctx.stats.mem_accesses = accesses;
                        ctx.stats.mem_misses = misses;
                    }
                    let prof = ctx.prof.take().map(|p| p.into_report(tid, ctx.clock));
                    slot.set(Some((ctx.stats, prof)));
                })
            })
            .collect();
        let mut finished = 0;
        // Fiber 0 makes the first pick; from then on the turn holder runs.
        let mut next = Some(0);
        while let Some(tid) = next {
            if let Some(outcome) = fibers[tid].resume() {
                finished += 1;
                if let Err(payload) = outcome {
                    // The body panicked on its fiber: the run ends here.
                    // Whatever the dead thread held (a token, locks,
                    // directory entries, signatures) could stall its
                    // peers, so they are unwound rather than resumed.
                    drop(fibers);
                    std::panic::resume_unwind(payload);
                }
            }
            next = global.scheduler.turn_holder();
        }
        assert!(
            finished == n,
            "TmRuntime::run: no logical thread can run, but not all have finished ({})",
            global.scheduler.describe_threads()
        );
        drop(fibers);
        let wall = start.elapsed();
        // Sanitizer finalize runs after the phase wall-clock is taken:
        // its cost is reported separately and never pollutes `wall` or
        // `sim_cycles`.
        let verify = global
            .verify
            .as_ref()
            .map(|vs| verify::finalize(vs, self.config.system));
        let mut stats = RunStats::default();
        let mut sim_cycles = 0;
        let mut prof_threads = Vec::new();
        let mut thread_commits = Vec::with_capacity(n);
        for slot in collected {
            let (t, p) = slot.into_inner().expect("every fiber finished");
            stats.absorb(&t);
            sim_cycles = sim_cycles.max(t.cycles_total);
            thread_commits.push(t.commits);
            prof_threads.extend(p);
        }
        // Like the sanitizer, profiler finalize runs outside the timed
        // phase: draining the conflict table costs host time only.
        let prof = global.prof.as_ref().map(|ps| ProfReport {
            threads: prof_threads,
            hot_lines: ps.drain_hot_lines(),
        });
        RunReport {
            system: self.config.system,
            threads: n,
            sim_cycles,
            wall,
            stats,
            thread_commits,
            sched: global.scheduler.counters(),
            verify,
            prof,
        }
    }
}

impl std::fmt::Debug for TmRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TmRuntime")
            .field("system", &self.config.system)
            .field("threads", &self.config.threads)
            .finish()
    }
}

/// Per-logical-thread execution context, handed to the body of
/// [`TmRuntime::run`].
///
/// Provides transactional execution ([`ThreadCtx::atomic`]), costed
/// non-transactional memory access, application-work accounting
/// ([`ThreadCtx::work`]), and phase barriers.
pub struct ThreadCtx {
    pub(crate) tid: usize,
    pub(crate) global: Rc<Global>,
    /// Total simulated cycles of this thread (published + unpublished
    /// + pending).
    pub(crate) clock: u64,
    /// Cycles charged since the last flush point.
    pub(crate) pending: u64,
    /// Cycles flushed inside the lease but not yet published.
    unpublished: u64,
    /// Flushes since the last publish.
    flushes: u64,
    /// What this thread may do before it must call the scheduler.
    lease: Lease,
    pub(crate) rng: XorShift64,
    pub(crate) cache: Option<CacheModel>,
    pub(crate) stats: RunStats,
    pub(crate) txn: TxnState,
    pub(crate) in_txn: bool,
    /// This thread's contention-management policy (see [`crate::cm`]).
    pub(crate) cm: CmPolicy,
    /// The adaptive policy's abort EWMA in per-mille
    /// ([`crate::cm::ewma_step`]): the only per-thread state any policy
    /// keeps (Karma's lives in [`Global::cm_shared`]).
    pub(crate) cm_ewma: u64,
    /// Fault-injection state, when the run has an enabled
    /// [`crate::FaultConfig`] and the system is transactional (`None`
    /// otherwise; boxed to keep the hot context small).
    pub(crate) fault: Option<Box<FaultState>>,
    /// Starvation-watchdog bounds, when armed (see
    /// [`crate::TmConfig::effective_watchdog`]).
    pub(crate) watchdog: Option<WatchdogConfig>,
    /// True from a starvation-watchdog trip until the transaction
    /// commits: its attempts run in irrevocable mode, serialized behind
    /// the irrevocability gate and the commit token, with in-place
    /// writes and no conflict aborts (an explicit abort re-executes).
    pub(crate) irrevocable: bool,
    /// Per-attempt observation log for the `tm::verify` sanitizer
    /// (empty and untouched when verification is off).
    pub(crate) vtx: VerifyTxn,
    /// Per-thread cycle-bucket accumulator for the `tm::prof` profiler
    /// (`None` when profiling is off; boxed to keep the hot context
    /// small).
    pub(crate) prof: Option<Box<ProfThread>>,
}

impl ThreadCtx {
    fn new(tid: usize, global: Rc<Global>) -> Self {
        let cache = global
            .config
            .cache_sim
            .then(|| CacheModel::new(global.config.l1));
        let seed = global.config.seed ^ ((tid as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        let cm = global.config.effective_cm();
        let global_prof = global.config.prof;
        let transactional = global.config.system.props().transactional;
        let fault = transactional
            .then(|| {
                global
                    .config
                    .effective_fault()
                    .map(|c| Box::new(FaultState::new(c)))
            })
            .flatten();
        let watchdog = transactional
            .then(|| global.config.effective_watchdog())
            .flatten();
        ThreadCtx {
            tid,
            global,
            clock: 0,
            pending: 0,
            unpublished: 0,
            flushes: 0,
            lease: Lease::NONE,
            rng: XorShift64::new(seed),
            cache,
            stats: RunStats::default(),
            txn: TxnState::default(),
            in_txn: false,
            cm,
            cm_ewma: 0,
            fault,
            watchdog,
            irrevocable: false,
            vtx: VerifyTxn::default(),
            prof: global_prof.then(|| Box::new(ProfThread::default())),
        }
    }

    /// This thread's id in `0..threads`.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Number of logical threads in the run.
    pub fn threads(&self) -> usize {
        self.global.config.threads
    }

    /// The system being modeled.
    pub fn system(&self) -> SystemKind {
        self.global.config.system
    }

    /// The transactional heap.
    pub fn heap(&self) -> &TmHeap {
        &self.global.heap
    }

    /// Current simulated clock of this thread.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Charge `cycles` of application work (computation between memory
    /// accesses).
    pub fn work(&mut self, cycles: u64) {
        self.charge_app(cycles);
    }

    // Every simulated cycle enters the clock through exactly one of
    // the four charge paths below (plus the barrier clock jump, which
    // does its own attribution). With profiling on, each path assigns
    // the cycles to exactly one `ProfBucket` — either immediately, or
    // via the per-attempt staging counters (`txn.app_cycles`,
    // `prof.att_tm`) folded by outcome in `prof_end_attempt`. That is
    // what makes the sum-of-buckets == clock invariant hold by
    // construction.

    #[inline]
    pub(crate) fn charge_app(&mut self, cycles: u64) {
        if self.in_txn {
            // Staged: folded to Useful (commit) or Wasted (abort).
            self.txn.app_cycles += cycles;
        } else if let Some(p) = &mut self.prof {
            // Non-transactional execution is useful by definition.
            p.add(ProfBucket::Useful, cycles);
        }
        self.advance(cycles);
    }

    #[inline]
    pub(crate) fn charge_tm(&mut self, cycles: u64) {
        if let Some(p) = &mut self.prof {
            if self.in_txn {
                // Staged: folded to Overhead (commit) or Wasted (abort).
                p.att_tm += cycles;
            } else {
                // Out-of-txn TM bookkeeping (begin fixed cost, commit
                // tail after the attempt closes) is overhead of a
                // committed or about-to-run attempt.
                p.add(ProfBucket::Overhead, cycles);
            }
        }
        self.advance(cycles);
    }

    /// Charge `cycles` directly to a specific profiler bucket (abort
    /// fixed cost, CM backoff). Identical simulated cost to
    /// `charge_tm`; only the attribution differs.
    #[inline]
    pub(crate) fn charge_bucket(&mut self, cycles: u64, bucket: ProfBucket) {
        if let Some(p) = &mut self.prof {
            p.add(bucket, cycles);
        }
        self.advance(cycles);
    }

    /// Charge `cycles` for one failed probe of a spin loop and flush
    /// at once. Under strict turn-based dispatch the probed condition
    /// can only change once another thread runs, so batching probe
    /// cycles up to `FLUSH_CYCLES` (as `charge_tm` does) would only add
    /// probes before the inevitable handoff. Each probe thus ends in a
    /// flush point, as many per wait as ever; inside the lease that
    /// flush costs one comparison, and the probe that exceeds it hands
    /// the turn over.
    ///
    /// All spin probes are waits on another thread (commit token, CM
    /// serialization queue, GlobalLock, eager-HTM stalls), so the
    /// profiler books them as [`ProfBucket::Wait`] regardless of
    /// transaction state.
    #[inline]
    pub(crate) fn spin_charge(&mut self, cycles: u64) {
        if let Some(p) = &mut self.prof {
            p.add(ProfBucket::Wait, cycles);
        }
        self.advance(cycles);
        self.flush();
    }

    // ---- tm::prof instrumentation ---------------------------------

    /// Profiler hook: a new transaction attempt begins (clears the
    /// per-attempt staging counters).
    #[inline]
    pub(crate) fn prof_begin_attempt(&mut self) {
        if let Some(p) = &mut self.prof {
            p.begin_attempt();
        }
    }

    /// Profiler hook: the current attempt resolved. Folds the staged
    /// application and TM cycles into their outcome buckets. Must run
    /// after `in_txn` is cleared and before any post-attempt charges.
    #[inline]
    pub(crate) fn prof_end_attempt(&mut self, committed: bool) {
        if let Some(p) = &mut self.prof {
            p.end_attempt(committed, self.txn.app_cycles);
        }
    }

    /// Profiler hook: record a conflict event — `aborter` (when
    /// identifiable) aborted or doomed `victim` at heap line `line`.
    /// Takes `&self` so doom-scan paths holding only a shared borrow
    /// can record.
    #[inline]
    pub(crate) fn prof_conflict(&self, line: u64, aborter: Option<usize>, victim: usize) {
        if let Some(ps) = &self.global.prof {
            ps.record(line, aborter, victim);
        }
    }

    /// Profiler hook (STM): remember which heap line a lock-table index
    /// guards this attempt, so a validation failure can be attributed
    /// to a concrete line.
    #[inline]
    pub(crate) fn prof_note_lock_line(&mut self, idx: u32, line: u64) {
        if let Some(p) = &mut self.prof {
            p.lock_lines.entry(idx).or_insert(line);
        }
    }

    /// Profiler hook (STM): resolve a lock-table index recorded by
    /// [`ThreadCtx::prof_note_lock_line`] back to its heap line.
    #[inline]
    pub(crate) fn prof_lock_line(&self, idx: u32) -> Option<u64> {
        self.prof
            .as_ref()
            .and_then(|p| p.lock_lines.get(&idx).copied())
    }

    #[inline]
    pub(crate) fn advance(&mut self, cycles: u64) {
        self.clock += cycles;
        self.pending += cycles;
        if self.pending >= FLUSH_CYCLES {
            self.flush();
        }
    }

    /// A flush point: move the pending cycles into the unpublished
    /// total and, once the lease no longer covers it, publish that total
    /// to the scheduler (possibly yielding while this thread is ahead of
    /// the pack). Inside the lease nothing is published, and publishing
    /// would only have confirmed the turn, so the schedule is that of a
    /// publish at every flush. Must not be called while holding a
    /// `RefCell` borrow of run state: any flush may be the one that
    /// publishes.
    pub(crate) fn flush(&mut self) {
        if self.pending > 0 {
            self.unpublished += self.pending;
            self.pending = 0;
            self.flushes += 1;
            if !self.lease.covers(self.clock, self.flushes) {
                self.publish();
            }
        }
    }

    /// Publish every flushed cycle and take the turn's next lease. Runs
    /// when the lease runs out, and before this thread parks or
    /// finishes, so that the scheduler has counted every flush.
    pub(crate) fn publish(&mut self) {
        if self.flushes > 0 {
            let sched = &self.global.scheduler;
            self.lease = sched.publish(self.tid, self.unpublished, self.flushes);
            self.unpublished = 0;
            self.flushes = 0;
        }
    }

    /// Charge the memory latency of accessing `line` as application
    /// work, consulting the L1 model when enabled.
    #[inline]
    pub(crate) fn charge_mem(&mut self, line: LineAddr) {
        let cost = &self.global.config.cost;
        let cycles = match &mut self.cache {
            Some(cache) => {
                if cache.access(line.0) {
                    cost.l1_hit
                } else {
                    cost.l2_hit
                }
            }
            None => cost.l1_hit,
        };
        self.charge_app(cycles);
    }

    /// Costed non-transactional load (private or setup data during a
    /// run).
    pub fn load<T: TmValue>(&mut self, cell: &TCell<T>) -> T {
        let addr = cell.addr();
        self.charge_mem(addr.line());
        T::from_bits(self.global.heap.raw_load(addr))
    }

    /// Costed non-transactional store.
    pub fn store<T: TmValue>(&mut self, cell: &TCell<T>, value: T) {
        let addr = cell.addr();
        self.charge_mem(addr.line());
        self.nontxn_store(addr, value.to_bits());
    }

    /// Costed non-transactional load of a raw word address.
    pub fn load_word(&mut self, addr: WordAddr) -> u64 {
        self.charge_mem(addr.line());
        self.global.heap.raw_load(addr)
    }

    /// Costed non-transactional store to a raw word address.
    pub fn store_word(&mut self, addr: WordAddr, value: u64) {
        self.charge_mem(addr.line());
        self.nontxn_store(addr, value)
    }

    // ---- tm::verify instrumentation -------------------------------
    //
    // Every heap mutation and transactional read funnels through one
    // of the helpers below. With verification off they compile to the
    // plain raw heap access; with it on, the access is paired with a
    // shadow-heap update in the same uninterrupted step, so each
    // observation carries an exact (value, version). None of them
    // charge simulated cycles or touch the scheduler — the sanitizer
    // is a pure observer and `sim_cycles` stays bit-identical.

    /// Non-transactional store (setup data, `Txn::init_word`): keeps
    /// the shadow heap in sync without creating a graph node.
    #[inline]
    pub(crate) fn nontxn_store(&mut self, addr: WordAddr, value: u64) {
        match &self.global.verify {
            Some(vs) => verify::write_nontxn(vs, &self.global.heap, addr, value),
            None => self.global.heap.raw_store(addr, value),
        }
    }

    /// Transactional read, with the observation recorded at once (the
    /// raw load is the last step of every read barrier).
    #[inline]
    pub(crate) fn txn_load(&mut self, addr: WordAddr) -> u64 {
        let ThreadCtx { global, vtx, .. } = self;
        match &global.verify {
            Some(vs) => verify::read_record(vs, vtx, &global.heap, addr),
            None => global.heap.raw_load(addr),
        }
    }

    /// Eager in-place transactional write: pushes the previous value
    /// onto the engine undo log (and the displaced shadow entry onto
    /// the sanitizer's, keeping the two index-aligned).
    #[inline]
    pub(crate) fn txn_store_eager(&mut self, addr: WordAddr, value: u64) {
        let ThreadCtx {
            global, vtx, txn, ..
        } = self;
        let prev = match &global.verify {
            Some(vs) => verify::write_eager(vs, vtx, &global.heap, addr, value),
            None => {
                let prev = global.heap.raw_load(addr);
                global.heap.raw_store(addr, value);
                prev
            }
        };
        txn.undo.push((addr.0, prev));
    }

    /// Commit-time write-back (lazy systems), no undo.
    #[inline]
    pub(crate) fn txn_store_commit(&mut self, addr: WordAddr, value: u64) {
        let ThreadCtx { global, vtx, .. } = self;
        match &global.verify {
            Some(vs) => verify::write_commit(vs, vtx, &global.heap, addr, value),
            None => global.heap.raw_store(addr, value),
        }
    }

    /// Restore the heap from the engine undo log (abort path); with
    /// verification on, the shadow heap is restored in lock-step and
    /// the zombie's reads are audited.
    pub(crate) fn undo_restore(&mut self) {
        let ThreadCtx {
            global,
            vtx,
            txn,
            tid,
            ..
        } = self;
        match &global.verify {
            Some(vs) => verify::rollback_restore(
                vs,
                vtx,
                &global.heap,
                &txn.undo,
                *tid,
                global.config.system.props().aborts_must_be_opaque,
            ),
            None => {
                for &(a, v) in txn.undo.iter().rev() {
                    global.heap.raw_store(WordAddr(a), v);
                }
            }
        }
    }

    /// Sanitizer hook: a new transaction attempt begins.
    #[inline]
    pub(crate) fn verify_begin_attempt(&mut self) {
        let ThreadCtx { global, vtx, .. } = self;
        if let Some(vs) = &global.verify {
            verify::begin_attempt(vs, vtx);
        }
    }

    /// Sanitizer hook: the current attempt committed.
    #[inline]
    pub(crate) fn verify_commit_attempt(&mut self) {
        let ThreadCtx {
            global, vtx, tid, ..
        } = self;
        if let Some(vs) = &global.verify {
            verify::commit_attempt(vs, vtx, *tid);
        }
    }

    /// Sanitizer hook: the current attempt early-released `line`.
    #[inline]
    pub(crate) fn verify_release_line(&mut self, line: LineAddr) {
        if self.global.verify.is_some() {
            verify::release_line(&mut self.vtx, line);
        }
    }

    /// A deterministic per-thread random number in `0..bound`.
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        self.rng.below(bound)
    }

    /// Wait at a phase barrier; simulated clocks are synchronized to the
    /// latest arrival.
    ///
    /// The *releaser* (last arrival) re-admits every participant to the
    /// scheduler in one deterministic step before any of them can race
    /// back from the barrier, and each participant then waits for its
    /// turn — so the post-barrier execution order is a pure function of
    /// the synchronized clocks and the seeded tie-break.
    pub fn barrier(&mut self, barrier: &SimBarrier) {
        assert!(!self.in_txn, "barrier inside a transaction");
        self.flush();
        self.publish();
        let sched = &self.global.scheduler;
        sched.park(self.tid);
        if let Some(release) = barrier.arrive(self.clock) {
            sched.unpark_all(release);
        }
        self.lease = sched.acquire(self.tid);
        // `unpark_all` raised every parked clock to at least the release
        // clock, so this is never below `self.clock`.
        let release = sched.clock(self.tid);
        if let Some(p) = &mut self.prof {
            // The jump to the latest arrival is time spent blocked at
            // the barrier.
            p.add(ProfBucket::Barrier, release - self.clock);
        }
        self.clock = release;
        self.pending = 0;
    }

    /// Cache-model statistics, when `cache_sim` is enabled.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.cache.as_ref().map(|c| (c.accesses(), c.misses()))
    }
}

impl std::fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("tid", &self.tid)
            .field("clock", &self.clock)
            .field("in_txn", &self.in_txn)
            .finish()
    }
}
