//! Engine integration tests: every TM system must preserve atomicity and
//! isolation under contention, and the simulation machinery must produce
//! sensible cycle counts.

use tm::{CmPolicy, Granularity, SystemKind, TmConfig, TmRuntime};

fn all_systems() -> [SystemKind; 6] {
    SystemKind::ALL_TM
}

/// N threads each increment a shared counter M times; final value must be
/// exactly N*M under every system.
#[test]
fn counter_increments_are_atomic() {
    for sys in all_systems() {
        let rt = TmRuntime::new(TmConfig::new(sys, 4).quantum(100));
        let counter = rt.heap().alloc_cell(0u64);
        let report = rt.run(|ctx| {
            for _ in 0..250 {
                ctx.atomic(|txn| {
                    let v = txn.read(&counter)?;
                    txn.work(5);
                    txn.write(&counter, v + 1)
                });
            }
        });
        assert_eq!(
            rt.heap().load_cell(&counter),
            1000,
            "lost updates under {sys}"
        );
        assert_eq!(report.stats.commits, 1000, "commit count under {sys}");
        assert!(report.sim_cycles > 0, "no simulated time under {sys}");
    }
}

/// Transfers between two accounts must conserve the total (isolation):
/// a concurrent observer transaction must never see a partial transfer.
#[test]
fn transfers_conserve_total() {
    for sys in all_systems() {
        let rt = TmRuntime::new(TmConfig::new(sys, 4).quantum(50));
        let a = rt.heap().alloc_cell(1_000i64);
        let b = rt.heap().alloc_cell(1_000i64);
        rt.run(|ctx| {
            if ctx.tid() == 0 {
                // Observer: totals must always be 2000.
                for _ in 0..200 {
                    let total = ctx.atomic(|txn| {
                        let x = txn.read(&a)?;
                        let y = txn.read(&b)?;
                        Ok(x + y)
                    });
                    assert_eq!(total, 2000, "partial transfer visible under {sys}");
                }
            } else {
                for i in 0..200 {
                    let amount = (i % 7) as i64 + 1;
                    ctx.atomic(|txn| {
                        let x = txn.read(&a)?;
                        let y = txn.read(&b)?;
                        txn.write(&a, x - amount)?;
                        txn.write(&b, y + amount)
                    });
                }
            }
        });
        assert_eq!(
            rt.heap().load_cell(&a) + rt.heap().load_cell(&b),
            2000,
            "total not conserved under {sys}"
        );
    }
}

/// Word-granularity STM should not conflict on different words of the
/// same line; the line-granularity systems will (false sharing), but must
/// still be correct.
#[test]
fn adjacent_word_updates_are_correct_everywhere() {
    for sys in all_systems() {
        let rt = TmRuntime::new(TmConfig::new(sys, 4));
        let arr = rt.heap().alloc_array::<u64>(4, 0); // one cache line
        rt.run(|ctx| {
            let tid = ctx.tid() as u64;
            for _ in 0..100 {
                ctx.atomic(|txn| {
                    let v = txn.read_idx(&arr, tid)?;
                    txn.write_idx(&arr, tid, v + 1)
                });
            }
        });
        for i in 0..4 {
            assert_eq!(rt.heap().load_elem(&arr, i), 100, "slot {i} under {sys}");
        }
    }
}

/// A transaction aborted by the body (Err) must leave no trace, even for
/// eager (in-place) systems — exercised via a body that writes then
/// aborts on its first attempts.
#[test]
fn failed_attempts_roll_back() {
    for sys in all_systems() {
        let rt = TmRuntime::new(TmConfig::new(sys, 2));
        let cell = rt.heap().alloc_cell(7u64);
        let probe = rt.heap().alloc_cell(0u64);
        rt.run(|ctx| {
            if ctx.tid() == 0 {
                let mut attempts = 0;
                ctx.atomic(|txn| {
                    txn.write(&cell, 99)?;
                    attempts += 1;
                    if attempts < 3 {
                        // Simulate a conflict-driven abort.
                        return tm::txn::abort();
                    }
                    txn.write(&probe, attempts as u64)
                });
            }
        });
        assert_eq!(
            rt.heap().load_cell(&cell),
            99,
            "final write lost under {sys}"
        );
        assert_eq!(
            rt.heap().load_cell(&probe),
            3,
            "wrong retry count under {sys}"
        );
    }
}

/// Read-only transactions commit without locking anything.
#[test]
fn read_only_transactions_commit() {
    for sys in all_systems() {
        let rt = TmRuntime::new(TmConfig::new(sys, 4));
        let cell = rt.heap().alloc_cell(5u64);
        let report = rt.run(|ctx| {
            for _ in 0..50 {
                let v = ctx.atomic(|txn| txn.read(&cell));
                assert_eq!(v, 5);
            }
        });
        assert_eq!(report.stats.commits, 200);
    }
}

/// Large transactions overflow the modeled L1 on the HTMs: the lazy HTM
/// must serialize (still correct), and the eager HTM must spill to its
/// Bloom filter (still correct, extra aborts allowed).
#[test]
fn htm_capacity_overflow_remains_correct() {
    for sys in [SystemKind::LazyHtm, SystemKind::EagerHtm] {
        let mut cfg = TmConfig::new(sys, 2).quantum(1000);
        // Shrink the modeled L1 so overflow happens quickly.
        cfg.l1 = tm::CacheGeometry {
            size_bytes: 1024, // 32 lines
            assoc: 2,
            line_bytes: 32,
        };
        let rt = TmRuntime::new(cfg);
        let arr = rt.heap().alloc_array::<u64>(1024, 0); // 256 lines >> L1
        let rt_ref = &rt;
        let report = rt.run(move |ctx| {
            let tid = ctx.tid() as u64;
            let _ = rt_ref;
            for round in 0..5 {
                ctx.atomic(|txn| {
                    // Touch many lines: guaranteed overflow.
                    let mut sum = 0u64;
                    for i in 0..256 {
                        sum += txn.read_idx(&arr, i * 4)?;
                    }
                    txn.write_idx(&arr, tid * 4, sum + round + 1)
                });
            }
        });
        assert!(report.stats.commits >= 10, "commits under {sys}");
        // Values written must reflect complete transactions.
        let v0 = rt.heap().load_elem(&arr, 0);
        let v1 = rt.heap().load_elem(&arr, 4);
        assert!(v0 > 0 && v1 > 0, "writes lost under {sys}");
    }
}

/// The eager HTM's overflow filter conflicts on lines the directory does
/// not hold: a reader spills 40 lines into a 64-bit filter, which then
/// matches almost any line, so a writer to lines the reader never
/// touched loses until the reader commits and clears its filter. With
/// a 2048-bit filter the same lines pass, and with an L1 large enough
/// the filter stays empty and nothing conflicts.
#[test]
fn eager_htm_overflow_filter_reports_false_conflicts() {
    let run = |l1_lines: u64, signature_bits: usize| {
        let mut cfg = TmConfig::new(SystemKind::EagerHtm, 2)
            .quantum(10_000)
            .signature_bits(signature_bits);
        cfg.l1 = tm::CacheGeometry {
            size_bytes: 32 * l1_lines,
            assoc: l1_lines,
            line_bytes: 32,
        };
        let rt = TmRuntime::new(cfg);
        let read = rt.heap().alloc_words_line_padded(4 * 40);
        let written = rt.heap().alloc_words_line_padded(4 * 8);
        let report = rt.run(|ctx| {
            if ctx.tid() == 0 {
                ctx.atomic(|txn| {
                    for i in 0..40 {
                        txn.read_word(read.offset(4 * i))?;
                    }
                    txn.work(20_000);
                    Ok(())
                });
            } else {
                // Write inside the reader's work window.
                ctx.work(5_000);
                ctx.atomic(|txn| {
                    for i in 0..8 {
                        txn.write_word(written.offset(4 * i), i + 1)?;
                    }
                    Ok(())
                });
            }
        });
        assert_eq!(rt.heap().raw_load(written.offset(4 * 7)), 8);
        report.stats.aborts
    };
    assert!(
        run(1, 64) > 0,
        "a saturated overflow filter never conflicted"
    );
    assert_eq!(run(1, 2048), 0, "a sparse overflow filter conflicted");
    assert_eq!(run(64, 64), 0, "lines that fit in the L1 conflicted");
}

/// High contention with many threads: the engine must make progress (no
/// livelock/deadlock) on every system, including the no-backoff HTMs.
#[test]
fn high_contention_progress() {
    for sys in all_systems() {
        let rt = TmRuntime::new(TmConfig::new(sys, 8).quantum(50));
        let hot = rt.heap().alloc_cell(0u64);
        rt.run(|ctx| {
            for _ in 0..50 {
                ctx.atomic(|txn| {
                    let v = txn.read(&hot)?;
                    txn.work(20);
                    txn.write(&hot, v + 1)
                });
            }
        });
        assert_eq!(rt.heap().load_cell(&hot), 400, "under {sys}");
    }
}

/// More threads must not increase the simulated makespan of an
/// embarrassingly parallel workload (sanity of the speedup metric).
#[test]
fn parallel_work_scales_in_simulated_time() {
    let mut cycles = Vec::new();
    for threads in [1usize, 2, 4] {
        let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, threads));
        let total_items = 4000u64;
        let arr = rt.heap().alloc_array::<u64>(total_items, 1);
        let report = rt.run(|ctx| {
            let n = ctx.threads() as u64;
            let tid = ctx.tid() as u64;
            let per = total_items / n;
            for i in tid * per..(tid + 1) * per {
                ctx.atomic(|txn| {
                    let v = txn.read_idx(&arr, i)?;
                    txn.work(50);
                    txn.write_idx(&arr, i, v * 2)
                });
            }
        });
        cycles.push(report.sim_cycles);
    }
    // Perfect scaling would halve each time; require at least 1.6x.
    assert!(
        (cycles[0] as f64) / (cycles[1] as f64) > 1.6,
        "1->2 threads: {cycles:?}"
    );
    assert!(
        (cycles[1] as f64) / (cycles[2] as f64) > 1.6,
        "2->4 threads: {cycles:?}"
    );
}

/// The STM backoff policy must engage: with contention and no backoff,
/// retries should be at least as high as with backoff.
#[test]
fn backoff_reduces_or_equals_retries() {
    let run = |policy: CmPolicy| {
        let rt = TmRuntime::new(
            TmConfig::new(SystemKind::EagerStm, 8)
                .quantum(50)
                .cm(policy)
                .seed(11),
        );
        let hot = rt.heap().alloc_cell(0u64);
        let report = rt.run(|ctx| {
            for _ in 0..100 {
                ctx.atomic(|txn| {
                    let v = txn.read(&hot)?;
                    txn.work(30);
                    txn.write(&hot, v + 1)
                });
            }
        });
        assert_eq!(rt.heap().load_cell(&hot), 800);
        report.stats.retries_per_txn()
    };
    let without = run(CmPolicy::Immediate);
    let with = run(CmPolicy::RandomizedLinear {
        after: 1,
        base: 500,
    });
    assert!(
        with <= without * 1.5 + 0.5,
        "backoff made contention much worse: {with} vs {without}"
    );
}

/// Line-granularity STM (the bayes ablation) must still be correct when
/// threads update different words of the same line.
#[test]
fn stm_line_granularity_correct() {
    let rt =
        TmRuntime::new(TmConfig::new(SystemKind::LazyStm, 4).stm_granularity(Granularity::Line));
    let arr = rt.heap().alloc_array::<u64>(4, 0);
    let report = rt.run(|ctx| {
        let tid = ctx.tid() as u64;
        for _ in 0..100 {
            ctx.atomic(|txn| {
                let v = txn.read_idx(&arr, tid)?;
                txn.write_idx(&arr, tid, v + 1)
            });
        }
    });
    for i in 0..4 {
        assert_eq!(rt.heap().load_elem(&arr, i), 100);
    }
    // False sharing should cause some retries (not required, but the
    // stats must at least be consistent).
    assert_eq!(report.stats.commits, 400);
}

/// Transaction statistics describe the workload faithfully.
#[test]
fn stats_reflect_workload() {
    let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, 2));
    let arr = rt.heap().alloc_array::<u64>(64, 0);
    let report = rt.run(|ctx| {
        for _ in 0..20 {
            ctx.atomic(|txn| {
                // 8 reads, 2 writes per transaction.
                let mut sum = 0;
                for i in 0..8u64 {
                    sum += txn.read_idx(&arr, i * 8)?;
                }
                txn.write_idx(&arr, 0, sum)?;
                txn.write_idx(&arr, 32, sum)
            });
        }
    });
    assert_eq!(report.stats.commits, 40);
    assert_eq!(report.stats.p90_read_barriers(), 8);
    assert_eq!(report.stats.p90_write_barriers(), 2);
    assert!(report.stats.p90_read_lines() >= 7);
    assert!(report.stats.time_in_txn() > 0.5);
}

/// The phase barrier keeps phases separate: writes from phase 1 are
/// visible to every thread in phase 2.
#[test]
fn barrier_separates_phases() {
    for sys in [
        SystemKind::LazyHtm,
        SystemKind::LazyStm,
        SystemKind::EagerHybrid,
    ] {
        let rt = TmRuntime::new(TmConfig::new(sys, 4));
        let arr = rt.heap().alloc_array::<u64>(4, 0);
        let sum = rt.heap().alloc_cell(0u64);
        let barrier = rt.new_barrier();
        rt.run(|ctx| {
            let tid = ctx.tid() as u64;
            ctx.atomic(|txn| txn.write_idx(&arr, tid, tid + 1));
            ctx.barrier(&barrier);
            // Phase 2: everyone sees all phase-1 writes.
            let total = ctx.atomic(|txn| {
                let mut s = 0;
                for i in 0..4 {
                    s += txn.read_idx(&arr, i)?;
                }
                Ok(s)
            });
            assert_eq!(total, 10, "phase-1 writes missing under {sys}");
            if tid == 0 {
                ctx.atomic(|txn| txn.write(&sum, total));
            }
        });
        assert_eq!(rt.heap().load_cell(&sum), 10);
    }
}

/// Sequential mode works and reports zero retries.
#[test]
fn sequential_baseline() {
    let rt = TmRuntime::new(TmConfig::sequential());
    let cell = rt.heap().alloc_cell(0u64);
    let report = rt.run(|ctx| {
        for _ in 0..10 {
            ctx.atomic(|txn| {
                let v = txn.read(&cell)?;
                txn.write(&cell, v + 1)
            });
        }
    });
    assert_eq!(rt.heap().load_cell(&cell), 10);
    assert_eq!(report.stats.aborts, 0);
    assert_eq!(report.stats.retries_per_txn(), 0.0);
}

/// One reader transaction scans 16 lines, optionally early-releases
/// them, works past a writer's blind writes to those lines, then writes
/// a private line and commits. Returns (aborts, sim_cycles).
fn early_release_run(sys: SystemKind, l1: Option<tm::CacheGeometry>, release: bool) -> (u64, u64) {
    let mut cfg = TmConfig::new(sys, 2).quantum(10_000);
    if let Some(l1) = l1 {
        cfg.l1 = l1;
    }
    let rt = TmRuntime::new(cfg);
    let grid = rt.heap().alloc_words_line_padded(64);
    let mine = rt.heap().alloc_words_line_padded(1);
    let report = rt.run(|ctx| {
        if ctx.tid() == 0 {
            ctx.atomic(|txn| {
                // The private line first: under a one-line L1 it is the
                // resident line, and every grid line overflows.
                let mut sum = txn.read_word(mine)?;
                for i in 0..64 {
                    sum += txn.read_word(grid.offset(i))?;
                }
                if release {
                    for i in 0..64 {
                        txn.early_release(grid.offset(i));
                    }
                }
                txn.work(20_000);
                // Not read-only, so the lazy STM validates at commit.
                txn.write_word(mine, sum + 1)
            });
        } else {
            // Land the writes inside the reader's work window.
            ctx.work(5_000);
            for i in 0..64 {
                ctx.atomic(|txn| txn.write_word(grid.offset(i), i + 1));
            }
        }
    });
    assert_eq!(rt.heap().raw_load(grid.offset(63)), 64, "under {sys}");
    (report.stats.aborts, report.sim_cycles)
}

/// Early release (§III-B5) drops lines from the read set: on both HTMs
/// and both STMs the reader's released lines no longer conflict with
/// the writer, while without the release they do. On the hybrids the
/// release is a no-op (signatures cannot remove a line), and on the
/// eager HTM a line that overflowed into the Bloom filter is not
/// released.
#[test]
fn early_release_avoids_conflicts() {
    for sys in [
        SystemKind::LazyHtm,
        SystemKind::EagerHtm,
        SystemKind::LazyStm,
        SystemKind::EagerStm,
    ] {
        let (held, _) = early_release_run(sys, None, false);
        assert!(held > 0, "no conflict to avoid under {sys}");
        let (released, _) = early_release_run(sys, None, true);
        assert_eq!(released, 0, "released lines still conflict under {sys}");
    }
    for sys in [SystemKind::LazyHybrid, SystemKind::EagerHybrid] {
        let held = early_release_run(sys, None, false);
        assert!(held.0 > 0, "no conflict under {sys}");
        assert_eq!(
            early_release_run(sys, None, true),
            held,
            "release acted under {sys}"
        );
    }
    // A one-line L1: every grid line overflows into the eager HTM's
    // Bloom filter, so releasing them changes nothing.
    let tiny = tm::CacheGeometry {
        size_bytes: 32,
        assoc: 1,
        line_bytes: 32,
    };
    let held = early_release_run(SystemKind::EagerHtm, Some(tiny), false);
    assert!(held.0 > 0, "no conflict on overflowed lines");
    assert_eq!(
        early_release_run(SystemKind::EagerHtm, Some(tiny), true),
        held,
        "an overflowed line was released"
    );
}

/// Simulated cycles are deterministic enough to be comparable: two runs
/// of the same single-threaded workload report identical makespans.
#[test]
fn single_thread_sim_is_deterministic() {
    let run = || {
        let rt = TmRuntime::new(TmConfig::new(SystemKind::EagerStm, 1).seed(3));
        let arr = rt.heap().alloc_array::<u64>(128, 0);
        rt.run(|ctx| {
            for i in 0..128u64 {
                ctx.atomic(|txn| {
                    let v = txn.read_idx(&arr, i)?;
                    txn.work(17);
                    txn.write_idx(&arr, i, v + i)
                });
            }
        })
        .sim_cycles
    };
    assert_eq!(run(), run());
}

/// Targeted handoff: a turn-holder change resumes only the new holder,
/// so wakeups track handoffs rather than handoffs × sleepers.
/// Quantum 0 makes nearly every published step a handoff, and the
/// barriers exercise park / unpark_all.
#[test]
fn scheduler_wakes_only_the_new_turn_holder() {
    let threads = 16;
    let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, threads).quantum(0));
    let counter = rt.heap().alloc_cell(0u64);
    let barrier = rt.new_barrier();
    let report = rt.run(|ctx| {
        for i in 0..40 {
            ctx.atomic(|txn| {
                let v = txn.read(&counter)?;
                txn.work(5);
                txn.write(&counter, v + 1)
            });
            if i % 10 == 9 {
                ctx.barrier(&barrier);
            }
        }
    });
    assert_eq!(rt.heap().load_cell(&counter), 40 * threads as u64);
    let c = report.sched;
    assert!(
        c.advances > 0 && c.handoffs > 100,
        "too few handoffs: {c:?}"
    );
    // Only a handoff resumes a waiting fiber, and only the new holder.
    assert!(
        c.wakeups <= c.handoffs,
        "{} wakeups for {} handoffs: sleepers woke for turns that were not theirs",
        c.wakeups,
        c.handoffs
    );
}
