//! Deterministic cooperative scheduling for the sim engine.
//!
//! The seed scheduler only *bounded* clock skew: any thread within one
//! quantum of the slowest runnable thread could run, so the actual
//! interleaving — and with it `sim_cycles`, abort counts, and every
//! contention-manager statistic — depended on host core count and load.
//! This module replaces that window with strict turn-based dispatch:
//! at any instant exactly one logical thread (the *turn holder*) is
//! between scheduler calls, and the holder is a pure function of the
//! published clocks, thread statuses, and a seeded tie-break. Identical
//! (app, variant, system, threads, seed) inputs therefore produce
//! bit-identical runs on any host.
//!
//! Two dispatch modes ([`SchedMode`]):
//!
//! * [`SchedMode::MinClock`] (default) — the turn goes to the runnable
//!   thread with the minimum published clock; ties break by a seeded
//!   permutation ([`crate::TmConfig::sched_seed`]). The holder
//!   retains the turn while within one quantum of the slowest runnable
//!   thread, so clock skew obeys exactly the bound the seed scheduler
//!   enforced and the Table V cost model is undisturbed.
//! * [`SchedMode::Pct`] — PCT-style schedule exploration (Burckhardt et
//!   al., *A Randomized Scheduler with Probabilistic Guarantees of
//!   Finding Bugs*): each thread gets a seeded priority, the
//!   highest-priority thread inside the quantum window runs, and at
//!   seeded change points the running thread's priority drops below
//!   everyone else's. Different seeds drive the run through different —
//!   deliberately adversarial — interleavings, every one of them
//!   reproducible and still quantum-bounded.
//!
//! A logical thread that loses the turn waits in one of two ways, fixed
//! by how the scheduler was built:
//!
//! * **Fibers** — [`crate::TmRuntime::run`] runs every logical thread as
//!   a fiber on the caller's OS thread. A thread that loses the turn
//!   drops the state lock and switches back to the run's driver loop,
//!   which resumes whichever thread the pick chose. A
//!   handoff is a user-space stack switch; the kernel is never involved.
//! * **Condvars** — a [`Scheduler::new`] scheduler serves callers that
//!   bring their own OS threads. Each logical thread sleeps on its own
//!   condvar, all paired with the one state mutex, and a handoff wakes
//!   only the thread it chose.
//!
//! Either way, whoever changes the dispatch state (the turn holder, or
//! the barrier releaser while every thread is parked) re-runs the pick
//! itself, and the dispatch decisions are identical. [`SchedCounters`]
//! records advances, handoffs and wakeups for the [`crate::RunReport`].
//!
//! # Cost per handoff
//!
//! Only the holder changes dispatch state while it holds the turn, and
//! only its own clock, so the other threads' clocks are fixed until it
//! hands the turn on. The pick that chooses a holder therefore also
//! fixes its retention limit (the least clock of the other runnable
//! threads plus the quantum), in the same pass under MinClock, and a
//! retention check is one comparison. The holder's `Lease` carries
//! that limit and, under PCT, the steps left before the next change
//! point, so a [`crate::TmRuntime::run`] thread calls the scheduler
//! only when the lease runs out or it parks or finishes
//! (`Scheduler::publish` counts each batched step). A fiber that the
//! driver resumes already holds the turn and does not pick again.
//! `park`, `unpark_all`, `done` and a PCT change point each pick anew.
//!
//! The `bench --bin schedfuzz` harness sweeps seeds in both modes with
//! the [`crate::verify`] sanitizer recording every transaction, turning
//! the sanitizer from a spot check into a fuzzing oracle.

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::fiber;
use crate::sim::XorShift64;

/// Default deterministic-scheduler seed ([`crate::TmConfig::sched_seed`]).
pub const DEFAULT_SCHED_SEED: u64 = 0x5eed_feed;

/// Default mean gap (in published scheduler steps) between PCT priority
/// change points.
pub const DEFAULT_PCT_GAP: u64 = 400;

/// Dispatch policy of the deterministic [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Strict min-clock-first dispatch with seeded tie-breaking — the
    /// canonical "fair" schedule used for golden cycle counts.
    #[default]
    MinClock,
    /// PCT-style randomized-priority dispatch: adversarial interleaving
    /// exploration, still deterministic per seed.
    Pct {
        /// Mean number of published scheduler steps between priority
        /// change points.
        avg_gap: u64,
    },
}

impl SchedMode {
    /// Parse a mode name, exactly `minclock` or `pct`.
    pub fn parse(s: &str) -> Option<SchedMode> {
        Some(match s {
            "minclock" => SchedMode::MinClock,
            "pct" => SchedMode::Pct {
                avg_gap: DEFAULT_PCT_GAP,
            },
            _ => return None,
        })
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SchedMode::MinClock => "minclock",
            SchedMode::Pct { .. } => "pct",
        }
    }
}

impl std::fmt::Display for SchedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadStatus {
    Running,
    /// Parked at a barrier (or otherwise descheduled); excluded from
    /// dispatch until unparked.
    Parked,
    Done,
}

/// Initial PCT priorities sit above this base; every demotion takes a
/// fresh value counting down from just below it, so priorities are
/// always pairwise distinct and demoted threads rank below everyone.
const PRIO_BASE: u64 = u64::MAX / 2;

/// Host-side scheduler event counts for one run
/// ([`crate::RunReport::sched`]). All three follow from the schedule on
/// a [`crate::TmRuntime::run`]; on a condvar scheduler `wakeups` also
/// counts spurious returns and so depends on the host. No pinned
/// artifact records them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Published progress steps: one per [`Scheduler::advance`] call,
    /// and on a run one per flush, those batched inside a turn's lease
    /// included.
    pub advances: u64,
    /// Turn-holder changes; each wakes at most one sleeping thread.
    pub handoffs: u64,
    /// Returns from a wait for the turn: fiber resumptions on a run,
    /// condvar returns (spurious ones included) otherwise.
    pub wakeups: u64,
}

/// What the turn holder may do without calling the scheduler: while
/// the clock it would publish stays within `limit` and it has made
/// fewer than `steps` unpublished flushes, publishing would only
/// confirm that it keeps the turn. [`crate::runtime::ThreadCtx::flush`]
/// batches such flushes locally and publishes them together (see
/// [`Scheduler::publish`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lease {
    /// The holder's retention limit: the minimum clock of the other
    /// runnable threads plus the quantum, or `u64::MAX` when it runs
    /// alone.
    pub(crate) limit: u64,
    /// Under PCT, the count of the flush whose publish reaches the next
    /// change point; `u64::MAX` under MinClock, which has none.
    pub(crate) steps: u64,
}

impl Lease {
    /// The lease of a thread that does not hold the turn: its first
    /// flush publishes.
    pub(crate) const NONE: Lease = Lease { limit: 0, steps: 0 };

    /// Whether a holder whose clock would publish as `clock`, after
    /// `steps` unpublished flushes, still keeps the turn without asking.
    #[inline]
    pub(crate) fn covers(self, clock: u64, steps: u64) -> bool {
        clock <= self.limit && steps < self.steps
    }
}

struct SchedState {
    clocks: Vec<u64>,
    status: Vec<ThreadStatus>,
    /// The unique thread currently allowed to run (turn holder).
    current: Option<usize>,
    /// The holder's retention limit: the highest published clock at
    /// which it keeps the turn (see [`Scheduler::pick`]).
    limit: u64,
    /// PCT priorities (untouched in MinClock mode).
    prio: Vec<u64>,
    /// Published-advance counter driving PCT change points.
    steps: u64,
    /// Step count at which the next PCT priority change fires.
    next_change: u64,
    /// Next demotion priority value (counts down from `PRIO_BASE - 1`).
    next_low: u64,
    /// Seeded stream for PCT change-point gaps.
    rng: XorShift64,
    counters: SchedCounters,
}

/// The deterministic turn-based scheduler: exactly one logical thread
/// runs at a time, chosen by [`SchedMode`] over published clocks with
/// seeded tie-breaking. See the module docs for the dispatch rules.
pub struct Scheduler {
    quantum: u64,
    mode: SchedMode,
    /// Seeded tie-break rank per thread (lower rank runs first on clock
    /// ties); a Fisher–Yates permutation of `0..threads`.
    rank: Vec<u64>,
    state: Mutex<SchedState>,
    wait: Wait,
}

/// How a thread that lost the turn waits for it (see the module docs).
enum Wait {
    /// Switch to the run's driver, which resumes the new holder.
    Fiber,
    /// One condvar per logical thread, all paired with `state`: thread
    /// `t` sleeps only on `cvs[t]`, so a handoff wakes only the new
    /// holder.
    Condvar(Vec<Condvar>),
}

impl Scheduler {
    /// Create a scheduler for `threads` logical processors dispatched by
    /// `mode` with deterministic tie-breaking derived from `seed`, for
    /// callers that run each logical thread on its own OS thread.
    ///
    /// # Panics
    ///
    /// If `strict` is false. Strict turn-based dispatch is the only
    /// execution mode; the flag is what remains of the removed
    /// free-running mode and must be `true`.
    pub fn new(threads: usize, quantum: u64, strict: bool, mode: SchedMode, seed: u64) -> Self {
        assert!(
            strict,
            "free-run mode was removed: Scheduler::new requires strict = true"
        );
        let cvs = (0..threads).map(|_| Condvar::new()).collect();
        Scheduler::with_wait(threads, quantum, mode, seed, Wait::Condvar(cvs))
    }

    /// A scheduler whose logical threads are the fibers of one
    /// [`crate::TmRuntime::run`]: a thread that loses the turn switches
    /// back to the run's driver loop, which resumes
    /// [`Scheduler::turn_holder`].
    pub(crate) fn for_fibers(threads: usize, quantum: u64, mode: SchedMode, seed: u64) -> Self {
        Scheduler::with_wait(threads, quantum, mode, seed, Wait::Fiber)
    }

    fn with_wait(threads: usize, quantum: u64, mode: SchedMode, seed: u64, wait: Wait) -> Self {
        let mut rng = XorShift64::new(seed);
        let mut order: Vec<usize> = (0..threads).collect();
        for i in (1..threads).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let mut rank = vec![0u64; threads];
        for (pos, &tid) in order.iter().enumerate() {
            rank[tid] = pos as u64;
        }
        let prio: Vec<u64> = rank
            .iter()
            .map(|r| PRIO_BASE + (threads as u64 - r))
            .collect();
        let next_change = match mode {
            SchedMode::Pct { avg_gap } => 1 + rng.below(2 * avg_gap.max(1)),
            SchedMode::MinClock => u64::MAX,
        };
        Scheduler {
            quantum,
            mode,
            rank,
            state: Mutex::new(SchedState {
                clocks: vec![0; threads],
                status: vec![ThreadStatus::Running; threads],
                current: None,
                limit: 0,
                prio,
                steps: 0,
                next_change,
                next_low: PRIO_BASE - 1,
                rng,
                counters: SchedCounters::default(),
            }),
            wait,
        }
    }

    /// The turn holder after a state change: the current holder while
    /// it is runnable and within its retention limit, else a fresh
    /// [`Scheduler::choose`]. Pure in the scheduler state: no
    /// host-timing input ever reaches this decision.
    ///
    /// Turn retention: the holder keeps running while its published
    /// clock is within one quantum of the slowest other runnable thread.
    /// This bounds skew by exactly the window the seed scheduler
    /// enforced (so the Table V cost model is undisturbed) and bounds
    /// the handoff rate. The limit is computed when the holder is
    /// chosen and stays exact while it holds the turn, because only the
    /// holder changes dispatch state in the meantime, and only its own
    /// clock; `retire` refreshes it when a non-holder leaves.
    fn pick(&self, s: &mut SchedState) -> Option<usize> {
        match s.current {
            Some(cur) if s.status[cur] == ThreadStatus::Running && s.clocks[cur] <= s.limit => {
                Some(cur)
            }
            _ => self.choose(s),
        }
    }

    /// Choose (and record) a new turn holder together with its
    /// retention limit, ignoring the current holder's claim. MinClock
    /// takes the runnable thread first by `(clock, rank)` and finds the
    /// runner-up's clock in the same pass; PCT takes the
    /// highest-priority runnable thread within one quantum of the
    /// slowest.
    fn choose(&self, s: &mut SchedState) -> Option<usize> {
        let running = |t: &usize| s.status[*t] == ThreadStatus::Running;
        // The runnable thread with the least `(clock, rank)`, and the
        // least clock among the others.
        let mut first: Option<usize> = None;
        let mut second = u64::MAX;
        for t in (0..s.clocks.len()).filter(running) {
            match first {
                Some(f) if (s.clocks[f], self.rank[f]) <= (s.clocks[t], self.rank[t]) => {
                    second = second.min(s.clocks[t]);
                }
                _ => {
                    if let Some(f) = first {
                        second = s.clocks[f];
                    }
                    first = Some(t);
                }
            }
        }
        let next = match (self.mode, first) {
            (_, None) => None,
            (SchedMode::MinClock, Some(f)) => Some(f),
            (SchedMode::Pct { .. }, Some(f)) => {
                let window = s.clocks[f].saturating_add(self.quantum);
                (0..s.clocks.len())
                    .filter(|t| running(t) && s.clocks[*t] <= window)
                    .max_by_key(|&t| s.prio[t])
            }
        };
        // The least clock among the threads other than `next`.
        let min_other = match (next, first) {
            (Some(n), Some(f)) if n != f => s.clocks[f],
            _ => second,
        };
        s.current = next;
        s.limit = min_other.saturating_add(self.quantum);
        next
    }

    /// What the turn holder may do before it must call the scheduler
    /// again (see [`Lease`]).
    fn lease(&self, s: &SchedState) -> Lease {
        Lease {
            limit: s.limit,
            steps: s.next_change - s.steps,
        }
    }

    /// Re-run [`Scheduler::pick`] after a state change and, on a condvar
    /// scheduler, wake the chosen thread — only it, and only if the
    /// holder changed from `prev`. `pick` is pure in the state, and only
    /// the holder (or the barrier releaser, while every thread is parked)
    /// changes that state, so this is exactly the holder any other thread
    /// would compute. The chosen thread need not be asleep yet (still
    /// starting, or between its barrier arrival and `wait_turn`): the
    /// notification is then lost, and harmlessly so, because it calls
    /// `pick` under the lock before it ever waits and retention hands it
    /// the turn. On fibers the run's driver reads the new holder itself.
    fn hand_off(&self, s: &mut SchedState, prev: Option<usize>) -> Option<usize> {
        let next = self.pick(s);
        if next != prev {
            if let Some(t) = next {
                s.counters.handoffs += 1;
                if let Wait::Condvar(cvs) = &self.wait {
                    cvs[t].notify_one();
                }
            }
        }
        next
    }

    /// Wait until `tid` holds the turn and return its lease; `prev` is
    /// the holder before the caller's state change. A thread waits only
    /// after `pick` chose someone else, so the holder never waits. On
    /// fibers the waiter drops the lock and switches to the driver,
    /// which resumes it only once it holds the turn again, so it need
    /// not pick again; on condvars it sleeps on its own condvar, each
    /// handoff wakes only the new holder, and a woken thread re-picks
    /// because the wakeup may be spurious.
    fn wait_turn_locked<'a>(
        &'a self,
        tid: usize,
        mut s: MutexGuard<'a, SchedState>,
        mut prev: Option<usize>,
    ) -> Lease {
        while self.hand_off(&mut s, prev) != Some(tid) {
            match &self.wait {
                Wait::Fiber => {
                    drop(s);
                    fiber::suspend();
                    s = self.state.lock();
                    s.counters.wakeups += 1;
                    debug_assert_eq!(s.current, Some(tid), "resumed a fiber without the turn");
                    return self.lease(&s);
                }
                Wait::Condvar(cvs) => cvs[tid].wait(&mut s),
            }
            s.counters.wakeups += 1;
            prev = s.current;
        }
        self.lease(&s)
    }

    /// Block until `tid` holds the turn: the gate a logical thread must
    /// pass before its first shared-state access, and again after every
    /// barrier release.
    pub fn wait_turn(&self, tid: usize) {
        self.acquire(tid);
    }

    /// [`Scheduler::wait_turn`], returning the turn's lease.
    pub(crate) fn acquire(&self, tid: usize) -> Lease {
        let s = self.state.lock();
        let prev = s.current;
        self.wait_turn_locked(tid, s, prev)
    }

    /// Publish `cycles` of progress for `tid`, then block until `tid`
    /// holds the turn again (it usually still does, by retention). A
    /// run's threads publish through the same path, batching the flushes
    /// their turn's lease covers; this is its single-step case.
    ///
    /// Must not be called while holding any other lock.
    pub fn advance(&self, tid: usize, cycles: u64) {
        self.publish(tid, cycles, 1);
    }

    /// Publish `cycles` of progress for the turn holder `tid`, made over
    /// `steps` flushes, then block until `tid` holds the turn again and
    /// return its lease. The scheduler counts every step, as if each
    /// had been published alone; a holder that batches only inside its
    /// lease therefore leaves every count and every handoff as they
    /// would be, because each step but the last would have kept the
    /// turn without reaching a PCT change point.
    pub(crate) fn publish(&self, tid: usize, cycles: u64, steps: u64) -> Lease {
        let mut s = self.state.lock();
        debug_assert_eq!(s.status[tid], ThreadStatus::Running);
        s.counters.advances += steps;
        let prev = s.current;
        s.clocks[tid] += cycles;
        if let SchedMode::Pct { avg_gap } = self.mode {
            s.steps += steps;
            if s.steps >= s.next_change {
                // PCT change point: demote the publishing thread below
                // every other priority so the schedule pivots here.
                s.next_low -= 1;
                s.prio[tid] = s.next_low;
                let gap = 1 + s.rng.below(2 * avg_gap.max(1));
                s.next_change = s.steps + gap;
                s.current = None;
            }
        }
        self.wait_turn_locked(tid, s, prev)
    }

    /// Mark `tid` as parked (e.g. at a phase barrier): it no longer
    /// participates in dispatch and the turn moves on.
    pub fn park(&self, tid: usize) {
        self.retire(tid, ThreadStatus::Parked);
    }

    /// Release every parked thread at the synchronized `clock` in one
    /// deterministic step. The barrier *releaser* calls this before the
    /// parked threads observe the release, so the post-barrier dispatch
    /// order depends only on clocks, seeded ranks, and priorities — not
    /// on the host order in which the woken threads happen to reach the
    /// scheduler again.
    pub fn unpark_all(&self, clock: u64) {
        let mut s = self.state.lock();
        for t in 0..s.status.len() {
            if s.status[t] == ThreadStatus::Parked {
                s.status[t] = ThreadStatus::Running;
                s.clocks[t] = s.clocks[t].max(clock);
            }
        }
        // A fresh pick, without retention: the released threads all
        // compete from the synchronized clock.
        let prev = s.current.take();
        self.hand_off(&mut s, prev);
    }

    /// Mark `tid` as finished.
    pub fn done(&self, tid: usize) {
        self.retire(tid, ThreadStatus::Done);
    }

    /// Take `tid` out of dispatch and hand the turn on if it held it.
    fn retire(&self, tid: usize, status: ThreadStatus) {
        let mut s = self.state.lock();
        s.status[tid] = status;
        let prev = s.current;
        match prev {
            // A non-holder left: the holder keeps the turn, and its limit
            // can only rise.
            Some(cur) if cur != tid && s.status[cur] == ThreadStatus::Running => {
                let min_other = (0..s.clocks.len())
                    .filter(|&t| t != cur && s.status[t] == ThreadStatus::Running)
                    .map(|t| s.clocks[t])
                    .min();
                s.limit = min_other.map_or(u64::MAX, |m| m.saturating_add(self.quantum));
            }
            _ => {
                self.hand_off(&mut s, prev);
            }
        }
    }

    /// Scheduler event counts so far.
    pub(crate) fn counters(&self) -> SchedCounters {
        self.state.lock().counters
    }

    /// The thread currently allowed to run, if any: the one a fiber
    /// run's driver resumes next.
    pub(crate) fn turn_holder(&self) -> Option<usize> {
        self.state.lock().current
    }

    /// Every thread's dispatch status, for a stuck run's panic message:
    /// `tid 0: done, tid 1: parked, ...`.
    pub(crate) fn describe_threads(&self) -> String {
        let s = self.state.lock();
        let status = |st| match st {
            ThreadStatus::Running => "runnable",
            ThreadStatus::Parked => "parked",
            ThreadStatus::Done => "done",
        };
        (0..s.status.len())
            .map(|t| format!("tid {t}: {}", status(s.status[t])))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The published clock of `tid`. For the turn holder of a
    /// [`crate::TmRuntime::run`] this lags its
    /// [`crate::ThreadCtx::now`] by the cycles it has charged since its
    /// last publish; every other thread has published
    /// all but its unflushed cycles.
    pub fn clock(&self, tid: usize) -> u64 {
        self.state.lock().clocks[tid]
    }

    /// Maximum published clock over all threads: the simulated makespan.
    pub fn max_clock(&self) -> u64 {
        self.state.lock().clocks.iter().copied().max().unwrap_or(0)
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("quantum", &self.quantum)
            .field("mode", &self.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimBarrier;
    use crate::{SystemKind, TmConfig, TmRuntime};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    fn sched(threads: usize, quantum: u64) -> Scheduler {
        Scheduler::new(threads, quantum, true, SchedMode::MinClock, 42)
    }

    /// A run of `threads` logical threads under `quantum` and `mode`.
    fn runtime(threads: usize, quantum: u64, mode: SchedMode, seed: u64) -> TmRuntime {
        TmRuntime::new(
            TmConfig::new(SystemKind::LazyStm, threads)
                .quantum(quantum)
                .sched(mode)
                .sched_seed(seed),
        )
    }

    #[test]
    fn scheduler_bounds_skew() {
        let rt = runtime(2, 100, SchedMode::MinClock, 42);
        let max_seen = AtomicU64::new(0);
        let report = rt.run(|ctx| {
            for _ in 0..1000 {
                ctx.work(10);
                ctx.flush();
                // The holder's own published clock lags inside its
                // lease; the clock it would publish is `now`.
                let other = ctx.global.scheduler.clock(1 - ctx.tid);
                max_seen.fetch_max(ctx.now().saturating_sub(other), Ordering::Relaxed);
            }
        });
        // Turn retention allows at most quantum + one flush of skew
        // while both threads are runnable.
        assert!(max_seen.load(Ordering::Relaxed) <= 100 + 10);
        assert_eq!(report.sim_cycles, 10_000);
    }

    #[test]
    fn strict_dispatch_serializes_threads() {
        // With one turn holder at a time, a data-race-prone read-modify-
        // write on a plain (non-atomic-RMW) cell is safe as long as every
        // access happens between scheduler calls — here on OS threads.
        let sched = Arc::new(sched(4, 50));
        let value = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for tid in 0..4 {
            let s = sched.clone();
            let v = value.clone();
            handles.push(std::thread::spawn(move || {
                s.wait_turn(tid);
                for _ in 0..500 {
                    let read = v.load(Ordering::Relaxed);
                    std::hint::spin_loop();
                    v.store(read + 1, Ordering::Relaxed);
                    s.advance(tid, 7);
                }
                s.done(tid);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(value.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn dispatch_order_is_seeded_and_deterministic() {
        // Same seed → same tie-break permutation; some other seed in a
        // small sweep must produce a different one (2 threads would make
        // this flaky, 8 give 40320 permutations).
        let order_of = |seed: u64| {
            let s = Scheduler::new(8, 100, true, SchedMode::MinClock, seed);
            s.rank.clone()
        };
        assert_eq!(order_of(7), order_of(7));
        assert!(
            (0..32u64).any(|seed| order_of(seed) != order_of(7)),
            "every seed produced the identical permutation"
        );
    }

    #[test]
    fn pct_mode_changes_interleaving_with_seed() {
        // Record the order in which threads win the turn under PCT; the
        // trace must be deterministic per seed and differ across seeds.
        let trace_of = |seed: u64| {
            let trace = parking_lot::Mutex::new(Vec::new());
            runtime(2, 100, SchedMode::Pct { avg_gap: 3 }, seed).run(|ctx| {
                for _ in 0..200 {
                    trace.lock().push(ctx.tid);
                    ctx.work(10);
                    ctx.flush();
                }
            });
            trace.into_inner()
        };
        assert_eq!(trace_of(1), trace_of(1));
        assert_eq!(trace_of(9), trace_of(9));
        assert_ne!(trace_of(1), trace_of(9));
    }

    #[test]
    #[should_panic(expected = "free-run mode was removed")]
    fn free_run_mode_is_rejected() {
        let _ = Scheduler::new(2, 100, false, SchedMode::MinClock, 0);
    }

    #[test]
    fn parked_thread_does_not_block_others() {
        let sched = Arc::new(sched(2, 50));
        sched.park(1);
        // Thread 0 can run arbitrarily far ahead of the parked thread 1.
        sched.advance(0, 10_000);
        assert_eq!(sched.clock(0), 10_000);
        sched.unpark_all(10_000);
        assert_eq!(sched.clock(1), 10_000);
        sched.done(0);
        sched.done(1);
    }

    /// How long a handoff test waits before calling a wakeup lost.
    const HANG: Duration = Duration::from_secs(10);

    /// Threads in tie-break order: on equal clocks the first one runs.
    fn by_rank(s: &Scheduler) -> Vec<usize> {
        let mut order: Vec<usize> = (0..s.rank.len()).collect();
        order.sort_by_key(|&t| s.rank[t]);
        order
    }

    #[test]
    fn park_hands_turn_to_thread_not_yet_waiting() {
        let sched = Arc::new(sched(2, 0));
        let (h, o) = (by_rank(&sched)[0], by_rank(&sched)[1]);
        sched.wait_turn(h);
        // `o` has not reached the scheduler yet, so the wakeup finds no
        // sleeper; `o` must still take the turn when it arrives.
        sched.park(h);
        assert_eq!(sched.state.lock().current, Some(o));
        let (tx, rx) = mpsc::channel();
        let s = sched.clone();
        let handle = std::thread::spawn(move || {
            s.wait_turn(o);
            s.advance(o, 10);
            s.done(o);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(HANG)
            .expect("the new turn holder never ran");
        handle.join().unwrap();
        let c = sched.counters();
        assert_eq!((c.advances, c.handoffs, c.wakeups), (1, 2, 0));
    }

    #[test]
    fn done_wakes_next_min_clock_thread() {
        let sched = Arc::new(sched(3, 0));
        let order = by_rank(&sched);
        let (h, a, b) = (order[0], order[1], order[2]);
        let (tx, rx) = mpsc::channel();
        // Each thread publishes once and sleeps until its next turn. The
        // turn goes h → a → b → h, so when `h` finishes, `a` (clock 20)
        // and `b` (clock 15) are both asleep on their own condvars. `a`
        // wins clock ties against `b`, so only min-clock order runs `b`
        // first.
        let mut handles = Vec::new();
        for (t, cycles) in [(h, 10), (a, 20), (b, 15)] {
            let (s, tx) = (sched.clone(), tx.clone());
            handles.push(std::thread::spawn(move || {
                s.wait_turn(t);
                s.advance(t, cycles);
                if t != h {
                    tx.send(t).unwrap();
                }
                s.done(t);
            }));
        }
        let ran: Vec<usize> = (0..2)
            .map(|_| rx.recv_timeout(HANG).expect("lost wakeup after done"))
            .collect();
        assert_eq!(ran, vec![b, a]);
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn unpark_all_picks_thread_still_in_barrier() {
        const ROUNDS: usize = 8;
        let sched = Arc::new(sched(2, 0));
        let first = by_rank(&sched)[0];
        // `SimBarrier` is `!Sync`: these OS threads share it through a
        // test-local mutex.
        let barrier = Arc::new(Mutex::new(SimBarrier::new(2)));
        // The non-releaser is held between its barrier arrival and
        // `wait_turn` until the releaser has re-picked, so a pick that
        // goes to it always finds it not yet waiting on its condvar.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Arc::new(Mutex::new(gate_rx));
        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::new();
        for tid in 0..2 {
            let (s, b, tx) = (sched.clone(), barrier.clone(), tx.clone());
            let (gate_tx, gate_rx) = (gate_tx.clone(), gate_rx.clone());
            handles.push(std::thread::spawn(move || {
                s.wait_turn(tid);
                for _ in 0..ROUNDS {
                    s.park(tid);
                    let arrival = b.lock().arrive(s.clock(tid));
                    if let Some(release) = arrival {
                        s.unpark_all(release);
                        assert_eq!(s.state.lock().current, Some(first));
                        gate_tx.send(()).unwrap();
                    } else {
                        gate_rx.lock().recv_timeout(HANG).unwrap();
                    }
                    s.wait_turn(tid);
                    tx.send(tid).unwrap();
                }
                s.done(tid);
            }));
        }
        let ran: Vec<usize> = (0..2 * ROUNDS)
            .map(|_| rx.recv_timeout(HANG).expect("lost wakeup after barrier"))
            .collect();
        // Equal clocks after each release: rank order, every round.
        let other = 1 - first;
        assert_eq!(ran, [first, other].repeat(ROUNDS));
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(SchedMode::parse("minclock"), Some(SchedMode::MinClock));
        assert_eq!(
            SchedMode::parse("pct"),
            Some(SchedMode::Pct {
                avg_gap: DEFAULT_PCT_GAP
            })
        );
        for alias in ["bogus", "min-clock", "det", "deterministic", "PCT"] {
            assert_eq!(SchedMode::parse(alias), None, "{alias}");
        }
    }
}
