//! `TmRuntime::run` phase semantics: barrier clock synchronization, and
//! what the caller sees when a body panics or the phase cannot finish.
//! A run that hangs instead must fail its test, so the failure cases run
//! on a helper thread behind a timeout.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use tm::{CmPolicy, SystemKind, TmConfig, TmRuntime};

/// How long a phase may take before the test calls it hung.
const HANG: Duration = Duration::from_secs(5);

/// Run `phase` on a helper thread and return its panic message, or
/// `None` if it returned normally. Fails the test if it hangs.
fn panic_message_of(phase: impl FnOnce() + Send + 'static) -> Option<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let message = catch_unwind(AssertUnwindSafe(phase)).err().map(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string payload>".into())
        });
        tx.send(message).unwrap();
    });
    rx.recv_timeout(HANG).expect("the phase hung")
}

#[test]
fn barrier_synchronizes_clocks_every_generation() {
    let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, 3));
    let barrier = rt.new_barrier();
    let report = rt.run(|ctx| {
        for _ in 0..3 {
            let before = ctx.now();
            ctx.work([100, 500, 300][ctx.tid()]);
            ctx.barrier(&barrier);
            // max(100, 500, 300) + barrier cost 100.
            assert_eq!(ctx.now(), before + 600);
        }
    });
    assert_eq!(report.sim_cycles, 3 * 600);
}

/// A body panic ends the run at once and reaches the caller; nothing
/// the run held outlives it, so a fresh run on a new runtime works.
#[test]
fn body_panic_ends_the_run_and_a_fresh_run_works() {
    let message = panic_message_of(|| {
        let rt = TmRuntime::new(TmConfig::new(SystemKind::EagerStm, 4));
        let counter = rt.heap().alloc_cell(0u64);
        rt.run(|ctx| {
            for _ in 0..50 {
                ctx.atomic(|txn| {
                    let v = txn.read(&counter)?;
                    txn.write(&counter, v + 1)
                });
            }
            if ctx.tid() == 1 {
                panic!("tid 1 gives up");
            }
        });
    });
    assert_eq!(message.as_deref(), Some("tid 1 gives up"));
    let rt = TmRuntime::new(TmConfig::new(SystemKind::EagerStm, 4));
    let counter = rt.heap().alloc_cell(0u64);
    let report = rt.run(|ctx| {
        for _ in 0..50 {
            ctx.atomic(|txn| {
                let v = txn.read(&counter)?;
                txn.write(&counter, v + 1)
            });
        }
    });
    assert_eq!(report.stats.commits, 200);
    assert_eq!(rt.heap().load_cell(&counter), 200);
}

/// A body that panics while its transaction holds the eager HTM's
/// priority token: its peers wait for that token before each attempt,
/// so the run must end with the panic rather than resume them.
#[test]
fn body_panic_while_holding_the_priority_token_reaches_the_caller() {
    let message = panic_message_of(|| {
        let config = TmConfig::new(SystemKind::EagerHtm, 4)
            .quantum(100)
            .cm(CmPolicy::Immediate);
        let rt = TmRuntime::new(config);
        let hot = rt.heap().alloc_cell(0u64);
        rt.run(|ctx| {
            for _ in 0..4 {
                let mut calls = 0;
                ctx.atomic(|txn| {
                    calls += 1;
                    // Only a transaction promoted after 32 aborts runs
                    // its body this often.
                    if calls == 34 {
                        panic!("the promoted body fails");
                    }
                    let v = txn.read(&hot)?;
                    txn.work(2000);
                    txn.write(&hot, v + 1)
                });
            }
        });
    });
    assert_eq!(message.as_deref(), Some("the promoted body fails"));
}

#[test]
fn body_panic_while_a_peer_waits_at_a_barrier_reaches_the_caller() {
    let message = panic_message_of(|| {
        let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, 2));
        let barrier = rt.new_barrier();
        rt.run(|ctx| {
            ctx.work(10);
            if ctx.tid() == 0 {
                panic!("tid 0 fails before the barrier");
            }
            ctx.barrier(&barrier);
        });
    });
    assert_eq!(message.as_deref(), Some("tid 0 fails before the barrier"));
}

#[test]
fn stuck_phase_without_a_panic_names_each_thread_status() {
    let message = panic_message_of(|| {
        let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, 3));
        let barrier = rt.new_barrier();
        rt.run(|ctx| {
            // tid 0 skips the barrier its peers wait at.
            if ctx.tid() != 0 {
                ctx.barrier(&barrier);
            }
        });
    })
    .expect("a phase that cannot finish must panic");
    assert!(message.contains("no logical thread can run"), "{message}");
    for status in ["tid 0: done", "tid 1: parked", "tid 2: parked"] {
        assert!(message.contains(status), "{status:?} missing: {message}");
    }
}
