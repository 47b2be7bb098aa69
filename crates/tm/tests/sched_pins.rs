//! Exact pins for the schedule itself.
//!
//! The goldens and perfbench's fingerprints pin min-clock runs by their
//! simulated results only. This test also pins the scheduler's own
//! event counts ([`tm::SchedCounters`]: published steps, turn handoffs
//! and fiber resumptions) and covers PCT dispatch, so a change to how
//! the scheduler is called that moves one handoff, one PCT change
//! point or one publish fails here even when every simulated cycle
//! still matches.
//!
//! On a mismatch the panic message prints the whole table as it now
//! runs, ready to paste over `PINS` once a change has been shown to
//! move the schedule on purpose.

use tm::{RunReport, SchedMode, SystemKind, TmConfig, TmRuntime};

/// A small workload shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Read-modify-write transactions over a few shared lines, with
    /// uneven non-transactional work between them.
    Contended,
    /// Three phases split by barriers; each phase mixes per-thread
    /// work of tid-dependent length with transactions on one shared
    /// counter and a private slot.
    Phased,
}

/// How the scheduler dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    MinClock,
    /// PCT with the given scheduler seed.
    Pct(u64),
}

const SHAPES: [Shape; 2] = [Shape::Contended, Shape::Phased];
const SYSTEMS: [SystemKind; 3] = [
    SystemKind::LazyStm,
    SystemKind::EagerHtm,
    SystemKind::LazyHybrid,
];
const THREADS: [usize; 2] = [2, 16];
const DISPATCH: [Dispatch; 3] = [Dispatch::MinClock, Dispatch::Pct(1), Dispatch::Pct(2)];

/// `[sim_cycles, commits, aborts, advances, handoffs, wakeups]`.
type Pin = [u64; 6];

fn config(system: SystemKind, threads: usize, dispatch: Dispatch) -> TmConfig {
    let cfg = TmConfig::new(system, threads);
    match dispatch {
        Dispatch::MinClock => cfg,
        // A short mean gap, so these small runs cross many change points.
        Dispatch::Pct(seed) => cfg.sched(SchedMode::Pct { avg_gap: 16 }).sched_seed(seed),
    }
}

fn run(shape: Shape, system: SystemKind, threads: usize, dispatch: Dispatch) -> Pin {
    let rt = TmRuntime::new(config(system, threads, dispatch));
    let r: RunReport = match shape {
        Shape::Contended => {
            let slots = rt.heap().alloc_array::<u64>(16, 0);
            rt.run(|ctx| {
                for _ in 0..12 {
                    ctx.atomic(|txn| {
                        let a = txn.rand_below(16);
                        let b = txn.rand_below(16);
                        let va = txn.read_idx(&slots, a)?;
                        let vb = txn.read_idx(&slots, b)?;
                        let work = 20 + txn.rand_below(60);
                        txn.work(work);
                        txn.write_idx(&slots, a, va + 1)?;
                        txn.write_idx(&slots, b, vb + 1)?;
                        Ok(())
                    });
                    let work = ctx.rand_below(200);
                    ctx.work(work);
                }
            })
        }
        Shape::Phased => {
            let counter = rt.heap().alloc_cell(0u64);
            let private = rt.heap().alloc_array::<u64>(threads as u64 * 8, 0);
            let barrier = rt.new_barrier();
            rt.run(|ctx| {
                let mine = ctx.tid() as u64 * 8;
                for phase in 0..3u64 {
                    ctx.work(150 * (ctx.tid() as u64 % 3 + 1) + 40 * phase);
                    for i in 0..4u64 {
                        ctx.atomic(|txn| {
                            let v = txn.read(&counter)?;
                            let p = txn.read_idx(&private, mine + i)?;
                            txn.work(30);
                            txn.write(&counter, v + 1)?;
                            txn.write_idx(&private, mine + i, p + v)?;
                            Ok(())
                        });
                    }
                    ctx.barrier(&barrier);
                }
            })
        }
    };
    [
        r.sim_cycles,
        r.stats.commits,
        r.stats.aborts,
        r.sched.advances,
        r.sched.handoffs,
        r.sched.wakeups,
    ]
}

#[rustfmt::skip]
const PINS: &[(Shape, SystemKind, usize, Dispatch, Pin)] = &[
    (Shape::Contended, SystemKind::LazyStm, 2, Dispatch::MinClock, [4000, 24, 3, 88, 9, 7]),
    (Shape::Contended, SystemKind::LazyStm, 2, Dispatch::Pct(1), [3778, 24, 4, 84, 11, 9]),
    (Shape::Contended, SystemKind::LazyStm, 2, Dispatch::Pct(2), [4332, 24, 2, 87, 8, 7]),
    (Shape::Contended, SystemKind::LazyStm, 16, Dispatch::MinClock, [6548, 192, 140, 877, 140, 125]),
    (Shape::Contended, SystemKind::LazyStm, 16, Dispatch::Pct(1), [10703, 192, 232, 1086, 373, 358]),
    (Shape::Contended, SystemKind::LazyStm, 16, Dispatch::Pct(2), [9772, 192, 248, 1118, 380, 365]),
    (Shape::Contended, SystemKind::EagerHtm, 2, Dispatch::MinClock, [2088, 24, 0, 33, 5, 3]),
    (Shape::Contended, SystemKind::EagerHtm, 2, Dispatch::Pct(1), [2088, 24, 0, 33, 6, 4]),
    (Shape::Contended, SystemKind::EagerHtm, 2, Dispatch::Pct(2), [2088, 24, 0, 33, 6, 5]),
    (Shape::Contended, SystemKind::EagerHtm, 16, Dispatch::MinClock, [14316, 192, 956, 5718, 379, 364]),
    (Shape::Contended, SystemKind::EagerHtm, 16, Dispatch::Pct(1), [17639, 192, 1717, 5234, 1166, 1151]),
    (Shape::Contended, SystemKind::EagerHtm, 16, Dispatch::Pct(2), [15647, 192, 1455, 4466, 1000, 985]),
    (Shape::Contended, SystemKind::LazyHybrid, 2, Dispatch::MinClock, [2908, 24, 1, 49, 7, 5]),
    (Shape::Contended, SystemKind::LazyHybrid, 2, Dispatch::Pct(1), [3284, 24, 3, 54, 8, 6]),
    (Shape::Contended, SystemKind::LazyHybrid, 2, Dispatch::Pct(2), [2975, 24, 2, 51, 8, 7]),
    (Shape::Contended, SystemKind::LazyHybrid, 16, Dispatch::MinClock, [7096, 192, 85, 3468, 158, 143]),
    (Shape::Contended, SystemKind::LazyHybrid, 16, Dispatch::Pct(1), [6006, 192, 149, 1193, 281, 266]),
    (Shape::Contended, SystemKind::LazyHybrid, 16, Dispatch::Pct(2), [5585, 192, 140, 956, 293, 278]),
    (Shape::Phased, SystemKind::LazyStm, 2, Dispatch::MinClock, [5786, 24, 12, 86, 14, 12]),
    (Shape::Phased, SystemKind::LazyStm, 2, Dispatch::Pct(1), [5393, 24, 11, 84, 14, 12]),
    (Shape::Phased, SystemKind::LazyStm, 2, Dispatch::Pct(2), [3906, 24, 4, 73, 13, 11]),
    (Shape::Phased, SystemKind::LazyStm, 16, Dispatch::MinClock, [8115, 192, 201, 884, 188, 173]),
    (Shape::Phased, SystemKind::LazyStm, 16, Dispatch::Pct(1), [16947, 192, 425, 1292, 445, 430]),
    (Shape::Phased, SystemKind::LazyStm, 16, Dispatch::Pct(2), [24626, 192, 387, 1270, 463, 448]),
    (Shape::Phased, SystemKind::EagerHtm, 2, Dispatch::MinClock, [1800, 24, 0, 24, 8, 6]),
    (Shape::Phased, SystemKind::EagerHtm, 2, Dispatch::Pct(1), [1800, 24, 0, 24, 8, 6]),
    (Shape::Phased, SystemKind::EagerHtm, 2, Dispatch::Pct(2), [2175, 24, 7, 31, 10, 9]),
    (Shape::Phased, SystemKind::EagerHtm, 16, Dispatch::MinClock, [3975, 192, 249, 441, 126, 111]),
    (Shape::Phased, SystemKind::EagerHtm, 16, Dispatch::Pct(1), [6225, 192, 354, 546, 192, 177]),
    (Shape::Phased, SystemKind::EagerHtm, 16, Dispatch::Pct(2), [7055, 192, 535, 807, 249, 234]),
    (Shape::Phased, SystemKind::LazyHybrid, 2, Dispatch::MinClock, [2568, 24, 2, 46, 11, 6]),
    (Shape::Phased, SystemKind::LazyHybrid, 2, Dispatch::Pct(1), [2665, 24, 2, 46, 11, 7]),
    (Shape::Phased, SystemKind::LazyHybrid, 2, Dispatch::Pct(2), [2665, 24, 2, 46, 12, 10]),
    (Shape::Phased, SystemKind::LazyHybrid, 16, Dispatch::MinClock, [3226, 192, 26, 388, 109, 94]),
    (Shape::Phased, SystemKind::LazyHybrid, 16, Dispatch::Pct(1), [4022, 192, 60, 443, 160, 145]),
    (Shape::Phased, SystemKind::LazyHybrid, 16, Dispatch::Pct(2), [3547, 192, 38, 406, 151, 136]),
];

#[test]
fn schedules_match_their_pins() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    let mut cases = 0;
    for shape in SHAPES {
        for system in SYSTEMS {
            for threads in THREADS {
                for dispatch in DISPATCH {
                    cases += 1;
                    let got = run(shape, system, threads, dispatch);
                    table.push_str(&format!(
                        "    (Shape::{shape:?}, SystemKind::{system:?}, {threads}, Dispatch::{dispatch:?}, {got:?}),\n"
                    ));
                    let want = PINS
                        .iter()
                        .find(|&&(s, y, t, d, _)| {
                            (s, y, t, d) == (shape, system, threads, dispatch)
                        })
                        .map(|&(.., pin)| pin);
                    if want != Some(got) {
                        mismatches.push(format!(
                            "{shape:?}/{system:?}/{threads}t/{dispatch:?}: want {want:?}, got {got:?}"
                        ));
                    }
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {cases} pins moved:\n{}\nthe table as it now runs:\n{table}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// The pins only guard the scheduler if the runs exercise it: every
/// multi-thread case must hand the turn over, and the PCT seeds must
/// drive some case to a schedule other than min-clock's.
#[test]
fn pinned_runs_exercise_the_scheduler() {
    for &(shape, system, threads, dispatch, pin) in PINS {
        assert!(
            pin[4] > threads as u64,
            "{shape:?}/{system:?}/{threads}t/{dispatch:?} barely handed off"
        );
    }
    let differs = PINS.iter().any(|&(s, y, t, d, pin)| {
        d != Dispatch::MinClock
            && PINS.iter().any(|&(s2, y2, t2, d2, p2)| {
                (s2, y2, t2, d2) == (s, y, t, Dispatch::MinClock) && p2 != pin
            })
    });
    assert!(differs, "PCT never changed a schedule");
}
