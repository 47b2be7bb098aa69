//! Integration tests of the fault-injection layer (`tm::fault`) and
//! the starvation watchdog's irrevocable-mode escalation.

use tm::{FaultConfig, SchedMode, SystemKind, TmConfig, TmRuntime, WatchdogConfig};

/// A fault profile with every kind enabled at a noticeable rate.
fn noisy(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        capacity_permille: 60,
        capacity_lines: 1,
        interrupt_permille: 10,
        sigfp_permille: 10,
        stall_permille: 50,
        stall_cycles: 400,
    }
}

fn counter_run(cfg: TmConfig, iters: u64) -> (tm::RunReport, u64) {
    let threads = cfg.threads as u64;
    let rt = TmRuntime::new(cfg);
    let cell = rt.heap().alloc_cell(0u64);
    let rep = rt.run(|ctx| {
        for _ in 0..iters {
            ctx.atomic(|txn| {
                let v = txn.read(&cell)?;
                txn.work(5);
                txn.write(&cell, v + 1)
            });
        }
    });
    let expect = threads * iters;
    assert_eq!(rt.heap().load_cell(&cell), expect, "lost updates");
    (rep, expect)
}

/// Under injected faults every system still commits exactly the right
/// transactions, the attempt ledger balances, spurious aborts are
/// accounted, and every thread makes progress.
#[test]
fn faulted_runs_stay_exact_and_live() {
    for sys in SystemKind::ALL_TM {
        let cfg = TmConfig::new(sys, 4)
            .sched(SchedMode::MinClock)
            .sched_seed(7)
            .fault(noisy(3));
        let (rep, expect) = counter_run(cfg, 30);
        let s = &rep.stats;
        assert_eq!(s.commits, expect, "{sys}: wrong commit count");
        assert_eq!(
            s.commits + s.aborts,
            s.attempts,
            "{sys}: attempt ledger does not balance"
        );
        assert!(
            s.spurious_aborts > 0,
            "{sys}: noisy profile injected nothing"
        );
        assert!(
            s.spurious_aborts <= s.aborts,
            "{sys}: spurious aborts exceed total aborts"
        );
        for (tid, &c) in rep.thread_commits.iter().enumerate() {
            assert!(c > 0, "{sys}: thread {tid} starved (0 commits)");
        }
    }
}

/// Same (system, threads, seed, sched_seed, fault_seed) ⇒ bit-identical
/// statistics, including the new fault counters.
#[test]
fn fault_runs_replay_bit_identically() {
    for sys in [
        SystemKind::EagerHtm,
        SystemKind::LazyStm,
        SystemKind::LazyHybrid,
    ] {
        let run = || {
            let cfg = TmConfig::new(sys, 3)
                .seed(11)
                .sched(SchedMode::MinClock)
                .sched_seed(5)
                .fault(noisy(9));
            let (rep, _) = counter_run(cfg, 25);
            let s = rep.stats;
            (
                rep.sim_cycles,
                rep.thread_commits.clone(),
                s.commits,
                s.aborts,
                s.attempts,
                s.spurious_aborts,
                s.irrevocable_commits,
                s.watchdog_trips,
                s.backoff_cycles,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "{sys}: fault run did not replay");
    }
}

/// A disabled fault layer (seed 0, or all rates zero) is byte-identical
/// to no fault config at all — the zero-cost-when-off guarantee at the
/// stats level (the golden cycle regressions in results/golden/ pin the
/// same property against the shipped baselines).
#[test]
fn disabled_faults_are_byte_identical_to_none() {
    let run = |fault: Option<FaultConfig>| {
        let mut cfg = TmConfig::new(SystemKind::EagerStm, 4)
            .sched(SchedMode::MinClock)
            .sched_seed(3);
        if let Some(f) = fault {
            cfg = cfg.fault(f);
        }
        let (rep, _) = counter_run(cfg, 40);
        (
            rep.sim_cycles,
            rep.stats.commits,
            rep.stats.aborts,
            rep.stats.attempts,
        )
    };
    let plain = run(None);
    assert_eq!(plain, run(Some(noisy(0))), "seed=0 must disable");
    assert_eq!(
        plain,
        run(Some(FaultConfig::default())),
        "all-zero rates must disable"
    );
}

/// The watchdog escalates exactly once per starved transaction: with
/// every normal attempt aborted by injection (cap=1000 above a zero
/// threshold) and an abort bound of N, each transaction runs N failed
/// attempts, trips the watchdog, and commits irrevocably on attempt
/// N+1 — and the irrevocable attempt itself is immune to injection.
#[test]
fn watchdog_escalates_exactly_once_at_bound() {
    const N: u32 = 4;
    const ITERS: u64 = 3;
    let fault = FaultConfig {
        seed: 1,
        capacity_permille: 1000,
        capacity_lines: 0,
        ..FaultConfig::default()
    };
    let wd = WatchdogConfig {
        max_consecutive_aborts: N,
        max_invested_cycles: 0, // cycle dimension off: abort count exact
    };
    for sys in SystemKind::ALL_TM {
        let cfg = TmConfig::new(sys, 1)
            .sched(SchedMode::MinClock)
            .fault(fault)
            .watchdog(wd);
        let (rep, _) = counter_run(cfg, ITERS);
        let s = &rep.stats;
        assert_eq!(s.commits, ITERS, "{sys}");
        assert_eq!(s.watchdog_trips, ITERS, "{sys}: one trip per transaction");
        assert_eq!(
            s.irrevocable_commits, ITERS,
            "{sys}: every commit escalated"
        );
        assert_eq!(s.aborts, ITERS * N as u64, "{sys}: N aborts per txn");
        assert_eq!(s.spurious_aborts, s.aborts, "{sys}: all aborts injected");
        assert_eq!(s.attempts, ITERS * (N as u64 + 1), "{sys}");
    }
}

/// Irrevocable commits are ordinary nodes in the sanitizer's
/// serialization graph: a faulted multi-threaded run with escalations
/// verifies serializable.
#[test]
fn irrevocable_commits_verify_serializable() {
    let fault = FaultConfig {
        seed: 5,
        capacity_permille: 400,
        capacity_lines: 1,
        ..FaultConfig::default()
    };
    let wd = WatchdogConfig {
        max_consecutive_aborts: 3,
        max_invested_cycles: 0,
    };
    for sys in SystemKind::ALL_TM {
        let cfg = TmConfig::new(sys, 3)
            .verify(true)
            .sched(SchedMode::MinClock)
            .sched_seed(13)
            .fault(fault)
            .watchdog(wd);
        let (rep, _) = counter_run(cfg, 20);
        assert!(
            rep.stats.irrevocable_commits > 0,
            "{sys}: profile produced no escalations"
        );
        let verify = rep.verify.as_ref().expect("verify enabled");
        assert!(verify.is_clean(), "{sys}: not serializable:\n{verify}");
    }
}

/// Injected aborts never blame an address: a single-threaded run (no
/// real conflicts possible) under heavy injection leaves the profiler's
/// conflict table empty.
#[test]
fn spurious_aborts_leave_conflict_table_empty() {
    let fault = FaultConfig {
        seed: 2,
        capacity_permille: 500,
        capacity_lines: 1,
        ..FaultConfig::default()
    };
    let cfg = TmConfig::new(SystemKind::EagerStm, 1)
        .prof(true)
        .sched(SchedMode::MinClock)
        .fault(fault);
    let (rep, _) = counter_run(cfg, 40);
    assert!(rep.stats.spurious_aborts > 0, "nothing injected");
    let prof = rep.prof.as_ref().expect("prof enabled");
    assert!(
        prof.hot_lines.is_empty(),
        "injected aborts were blamed on addresses: {:?}",
        prof.hot_lines
    );
    prof.check().expect("bucket invariant");
}

/// Poison path: a body that panics while irrevocable, holding the
/// irrevocability gate and the commit token, ends the run with its
/// panic instead of a deadlock, and leaves nothing held behind.
#[test]
fn panic_in_irrevocable_mode_ends_the_run() {
    let fault = FaultConfig {
        seed: 1,
        capacity_permille: 1000,
        capacity_lines: 0,
        ..FaultConfig::default()
    };
    let wd = WatchdogConfig {
        max_consecutive_aborts: 2,
        max_invested_cycles: 0,
    };
    let cfg = TmConfig::new(SystemKind::LazyStm, 2)
        .sched(SchedMode::MinClock)
        .fault(fault)
        .watchdog(wd);
    let rt = TmRuntime::new(cfg);
    let cell = rt.heap().alloc_cell(0u64);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run(|ctx| {
            let tid = ctx.tid();
            for _ in 0..10 {
                ctx.atomic(|txn| {
                    if txn.is_irrevocable() && tid == 0 {
                        panic!("poisoned irrevocable body");
                    }
                    let v = txn.read(&cell)?;
                    txn.write(&cell, v + 1)
                });
            }
        })
    }));
    assert!(outcome.is_err(), "the body panic must propagate");
    // The runtime is reusable afterwards: nothing is left poisoned.
    let rt2 = TmRuntime::new(
        TmConfig::new(SystemKind::LazyStm, 2)
            .sched(SchedMode::MinClock)
            .fault(fault)
            .watchdog(wd),
    );
    let c2 = rt2.heap().alloc_cell(0u64);
    let rep = rt2.run(|ctx| {
        for _ in 0..5 {
            ctx.atomic(|txn| {
                let v = txn.read(&c2)?;
                txn.write(&c2, v + 1)
            });
        }
    });
    assert_eq!(rep.stats.commits, 10);
}
