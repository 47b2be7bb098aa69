//! Layer probes that drive one layer's public API directly, with no app
//! around it: `tm::Scheduler` turn retention and forced handoffs, and
//! an empty-body `TmRuntime::run`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use tm::{SchedMode, Scheduler, SystemKind, TmConfig, TmRuntime, DEFAULT_SCHED_SEED};

/// Host ns per `Scheduler::advance` while a lone thread keeps the turn:
/// the turn-retention path every single-threaded run takes.
pub fn sched_advance_ns_t1(steps: u64) -> f64 {
    let sched = Scheduler::new(1, 500, true, SchedMode::MinClock, DEFAULT_SCHED_SEED);
    sched.wait_turn(0);
    let start = Instant::now();
    for _ in 0..steps {
        sched.advance(0, std::hint::black_box(1));
    }
    let elapsed = start.elapsed();
    sched.done(0);
    elapsed.as_nanos() as f64 / steps as f64
}

/// Host ns per turn handoff among `threads` OS threads that each
/// publish `steps` advances with a zero quantum, so the turn changes
/// hands at (nearly) every step. Handoffs are counted from outside: a
/// turn holder that finds another tid in `last` has just received the
/// turn.
pub fn sched_handoff_ns(threads: usize, steps: u64) -> f64 {
    let sched = Scheduler::new(threads, 0, true, SchedMode::MinClock, DEFAULT_SCHED_SEED);
    let last = AtomicUsize::new(usize::MAX);
    // Statistics only: each update happens under the scheduler's turn,
    // which already orders them, so Relaxed suffices.
    let handoffs = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let (sched, last, handoffs) = (&sched, &last, &handoffs);
            scope.spawn(move || {
                sched.wait_turn(tid);
                for _ in 0..steps {
                    if last.swap(tid, Ordering::Relaxed) != tid {
                        handoffs.fetch_add(1, Ordering::Relaxed);
                    }
                    sched.advance(tid, 1);
                }
                sched.done(tid);
            });
        }
    });
    let elapsed = start.elapsed();
    elapsed.as_nanos() as f64 / handoffs.load(Ordering::Relaxed).max(1) as f64
}

/// Host µs of one `TmRuntime::run` with an empty body at `threads`
/// logical threads: spawn, the dispatch gate, join and stats merge.
pub fn spawn_join_us(threads: usize) -> f64 {
    let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, threads));
    let start = Instant::now();
    let report = rt.run(|_| {});
    let elapsed = start.elapsed();
    assert_eq!(
        report.stats.attempts, 0,
        "an empty body runs no transaction"
    );
    elapsed.as_nanos() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_costs() {
        assert!(sched_advance_ns_t1(1000) > 0.0);
        assert!(sched_handoff_ns(2, 200) > 0.0);
        assert!(sched_handoff_ns(4, 50) > 0.0);
        assert!(spawn_join_us(4) > 0.0);
    }
}
