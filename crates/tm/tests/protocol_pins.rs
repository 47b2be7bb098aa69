//! Exact pins for engine paths the goldens do not reach.
//!
//! The goldens (`results/golden/`) run the default contention manager
//! with faults off, word granularity, the requester-loses eager HTM and
//! no cache model. This test runs one small contended workload on every
//! system under each of the other paths (every contention manager among
//! them) and pins the run's simulated cycles and outcome counts, so a
//! change to a barrier, commit, rollback or retry decision that moves a
//! cycle on one of these paths fails here even when every golden still
//! matches.
//!
//! On a mismatch the panic message prints the whole table as it now
//! runs, ready to paste over `PINS` once a change has been shown to
//! move the cycles on purpose.

use tm::{
    CacheGeometry, CmPolicy, FaultConfig, Granularity, HtmConflictPolicy, RunReport, SystemKind,
    TmConfig, TmRuntime, TxnRecord, WatchdogConfig,
};

/// One engine path the goldens leave out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Fault injection with a watchdog bound low enough that starved
    /// transactions escalate to the irrevocable barriers.
    Watchdog,
    /// Each contention manager of `CmPolicy::ALL`, on every system.
    Immediate,
    Linear,
    Exponential,
    Karma,
    Adaptive,
    /// The eager HTM's LogTM-style bounded stall.
    Stall,
    /// Line-granularity STM conflict detection.
    Line,
    /// The L1 tag-array cost model.
    CacheSim,
    /// A two-line L1 and the smallest signature: the eager HTM spills
    /// into its Bloom filter (whose false positives abort other
    /// transactions) and the lazy HTM serializes on overflow.
    SmallL1,
    /// Each read-modify-write transaction first writes a slot blind and
    /// reads it back, so barriers see a read of a line the attempt
    /// already wrote (which the eager HTM and eager hybrid must not
    /// mark read).
    ReadAfterWrite,
}

const PATHS: [Path; 11] = [
    Path::Watchdog,
    Path::Immediate,
    Path::Linear,
    Path::Exponential,
    Path::Karma,
    Path::Adaptive,
    Path::Stall,
    Path::Line,
    Path::CacheSim,
    Path::SmallL1,
    Path::ReadAfterWrite,
];

const SYSTEMS: [SystemKind; 8] = [
    SystemKind::Sequential,
    SystemKind::GlobalLock,
    SystemKind::EagerHtm,
    SystemKind::LazyHtm,
    SystemKind::EagerHybrid,
    SystemKind::LazyHybrid,
    SystemKind::EagerStm,
    SystemKind::LazyStm,
];

/// `[sim_cycles, commits, aborts, spurious_aborts, irrevocable_commits,
/// read_lines, write_lines, backoff_cycles, serialized_commits,
/// priority_wins, priority_losses]`. `read_lines` and `write_lines` are
/// summed over the committed transactions' records: a barrier that
/// marks a line read or written under the wrong condition can move them
/// while the cycles hold. The last four are the contention manager's
/// outputs.
type Pin = [u64; 11];

fn config(system: SystemKind, path: Path) -> TmConfig {
    let cfg = TmConfig::new(system, 4).quantum(100);
    match path {
        Path::Watchdog => cfg
            .fault(FaultConfig {
                seed: 11,
                capacity_permille: 150,
                capacity_lines: 3,
                interrupt_permille: 20,
                sigfp_permille: 20,
                stall_permille: 50,
                stall_cycles: 300,
            })
            .watchdog(WatchdogConfig {
                max_consecutive_aborts: 3,
                max_invested_cycles: 0,
            }),
        Path::Immediate => cfg.cm(CmPolicy::Immediate),
        Path::Linear => cfg.cm(CmPolicy::DEFAULT_LINEAR),
        Path::Exponential => cfg.cm(CmPolicy::DEFAULT_EXPONENTIAL),
        Path::Karma => cfg.cm(CmPolicy::DEFAULT_KARMA),
        Path::Adaptive => cfg.cm(CmPolicy::DEFAULT_ADAPTIVE),
        Path::Stall => cfg.htm_conflict(HtmConflictPolicy::RequesterStalls),
        Path::Line => cfg.stm_granularity(Granularity::Line),
        Path::CacheSim => cfg.cache_sim(true),
        Path::SmallL1 => TmConfig {
            l1: CacheGeometry {
                size_bytes: 64,
                assoc: 1,
                line_bytes: 32,
            },
            ..cfg
        }
        .signature_bits(64),
        Path::ReadAfterWrite => cfg,
    }
}

/// Four threads over 12 lines: read-only scans, read-modify-writes with
/// an early release, and occasional explicit restarts (on the systems
/// that can roll back). On [`Path::ReadAfterWrite`] each
/// read-modify-write opens with a blind write and a read of it.
fn run(system: SystemKind, path: Path) -> Pin {
    let rt = TmRuntime::new(config(system, path));
    let slots = rt.heap().alloc_array::<u64>(48, 0);
    let can_restart = !matches!(system, SystemKind::Sequential | SystemKind::GlobalLock);
    let read_after_write = path == Path::ReadAfterWrite;
    let r: RunReport = rt.run(|ctx| {
        for _ in 0..40 {
            let read_only = ctx.rand_below(4) == 0;
            ctx.atomic(|txn| {
                if read_only {
                    let mut sum = 0u64;
                    for _ in 0..6 {
                        let i = txn.rand_below(48);
                        sum = sum.wrapping_add(txn.read_idx(&slots, i)?);
                    }
                    txn.work(sum % 7);
                    return Ok(());
                }
                if read_after_write {
                    let c = txn.rand_below(48);
                    txn.write_idx(&slots, c, 1)?;
                    let vc = txn.read_idx(&slots, c)?;
                    txn.work(vc);
                }
                let a = txn.rand_below(48);
                let b = txn.rand_below(48);
                let scratch = txn.rand_below(48);
                let va = txn.read_idx(&slots, a)?;
                let vb = txn.read_idx(&slots, b)?;
                let _ = txn.read_idx(&slots, scratch)?;
                if scratch != a && scratch != b {
                    txn.early_release(slots.addr_of(scratch));
                }
                let work = 10 + txn.rand_below(40);
                txn.work(work);
                txn.write_idx(&slots, a, va + 1)?;
                txn.write_idx(&slots, b, vb + 2)?;
                if can_restart && txn.rand_below(16) == 0 {
                    return tm::txn::abort();
                }
                Ok(())
            });
        }
    });
    let lines = |f: fn(&TxnRecord) -> u32| {
        r.stats
            .records
            .records()
            .iter()
            .map(|t| u64::from(f(t)))
            .sum()
    };
    [
        r.sim_cycles,
        r.stats.commits,
        r.stats.aborts,
        r.stats.spurious_aborts,
        r.stats.irrevocable_commits,
        lines(|t| t.read_lines),
        lines(|t| t.write_lines),
        r.stats.backoff_cycles,
        r.stats.serialized_commits,
        r.stats.priority_wins,
        r.stats.priority_losses,
    ]
}

#[rustfmt::skip]
const PINS: &[(SystemKind, Path, Pin)] = &[
    (SystemKind::Sequential, Path::Watchdog, [1245, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::Sequential, Path::Immediate, [1245, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::Sequential, Path::Linear, [1245, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::Sequential, Path::Exponential, [1245, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::Sequential, Path::Karma, [1245, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::Sequential, Path::Adaptive, [1245, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::Sequential, Path::Stall, [1245, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::Sequential, Path::Line, [1245, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::Sequential, Path::CacheSim, [1371, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::Sequential, Path::SmallL1, [1245, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::Sequential, Path::ReadAfterWrite, [1291, 160, 0, 0, 0, 620, 331, 0, 0, 0, 0]),
    (SystemKind::GlobalLock, Path::Watchdog, [5897, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::GlobalLock, Path::Immediate, [5897, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::GlobalLock, Path::Linear, [5897, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::GlobalLock, Path::Exponential, [5897, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::GlobalLock, Path::Karma, [5897, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::GlobalLock, Path::Adaptive, [5897, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::GlobalLock, Path::Stall, [5897, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::GlobalLock, Path::Line, [5897, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::GlobalLock, Path::CacheSim, [6483, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::GlobalLock, Path::SmallL1, [5897, 160, 0, 0, 0, 548, 227, 0, 0, 0, 0]),
    (SystemKind::GlobalLock, Path::ReadAfterWrite, [6335, 160, 0, 0, 0, 620, 331, 0, 0, 0, 0]),
    (SystemKind::EagerHtm, Path::Watchdog, [6939, 160, 106, 72, 17, 378, 240, 0, 0, 0, 28]),
    (SystemKind::EagerHtm, Path::Immediate, [3753, 160, 90, 0, 0, 383, 245, 0, 0, 0, 82]),
    (SystemKind::EagerHtm, Path::Linear, [3630, 160, 73, 0, 0, 396, 225, 1514, 0, 0, 62]),
    (SystemKind::EagerHtm, Path::Exponential, [4414, 160, 87, 0, 0, 382, 240, 1988, 0, 0, 79]),
    (SystemKind::EagerHtm, Path::Karma, [5680, 160, 80, 0, 0, 423, 226, 7184, 0, 23, 47]),
    (SystemKind::EagerHtm, Path::Adaptive, [3835, 160, 74, 0, 0, 387, 239, 0, 27, 0, 63]),
    (SystemKind::EagerHtm, Path::Stall, [4561, 160, 128, 0, 0, 403, 236, 0, 0, 0, 0]),
    (SystemKind::EagerHtm, Path::Line, [3753, 160, 90, 0, 0, 383, 245, 0, 0, 0, 82]),
    (SystemKind::EagerHtm, Path::CacheSim, [4254, 160, 131, 0, 0, 383, 240, 0, 0, 0, 127]),
    (SystemKind::EagerHtm, Path::SmallL1, [3958, 160, 149, 0, 0, 497, 222, 0, 0, 0, 45]),
    (SystemKind::EagerHtm, Path::ReadAfterWrite, [5016, 160, 210, 0, 0, 400, 318, 0, 0, 0, 203]),
    (SystemKind::LazyHtm, Path::Watchdog, [5180, 160, 57, 35, 5, 419, 226, 0, 0, 0, 0]),
    (SystemKind::LazyHtm, Path::Immediate, [3188, 160, 46, 0, 0, 376, 251, 0, 0, 0, 0]),
    (SystemKind::LazyHtm, Path::Linear, [2873, 160, 38, 0, 0, 425, 222, 178, 0, 0, 0]),
    (SystemKind::LazyHtm, Path::Exponential, [3489, 160, 47, 0, 0, 400, 237, 218, 0, 0, 0]),
    (SystemKind::LazyHtm, Path::Karma, [2947, 160, 43, 0, 0, 407, 240, 483, 0, 0, 0]),
    (SystemKind::LazyHtm, Path::Adaptive, [3517, 160, 45, 0, 0, 386, 240, 0, 7, 0, 0]),
    (SystemKind::LazyHtm, Path::Stall, [3188, 160, 46, 0, 0, 376, 251, 0, 0, 0, 0]),
    (SystemKind::LazyHtm, Path::Line, [3188, 160, 46, 0, 0, 376, 251, 0, 0, 0, 0]),
    (SystemKind::LazyHtm, Path::CacheSim, [3607, 160, 49, 0, 0, 396, 248, 0, 0, 0, 0]),
    (SystemKind::LazyHtm, Path::SmallL1, [5675, 160, 46, 0, 0, 435, 210, 0, 0, 0, 0]),
    (SystemKind::LazyHtm, Path::ReadAfterWrite, [3941, 160, 63, 0, 0, 430, 319, 0, 0, 0, 0]),
    (SystemKind::EagerHybrid, Path::Watchdog, [12501, 160, 147, 86, 24, 521, 224, 2528, 0, 0, 0]),
    (SystemKind::EagerHybrid, Path::Immediate, [8060, 160, 144, 0, 0, 506, 238, 0, 0, 0, 0]),
    (SystemKind::EagerHybrid, Path::Linear, [9063, 160, 94, 0, 0, 546, 223, 6033, 0, 0, 0]),
    (SystemKind::EagerHybrid, Path::Exponential, [8543, 160, 99, 0, 0, 515, 244, 4160, 0, 0, 0]),
    (SystemKind::EagerHybrid, Path::Karma, [7473, 160, 80, 0, 0, 540, 219, 3565, 0, 0, 0]),
    (SystemKind::EagerHybrid, Path::Adaptive, [9435, 160, 109, 0, 0, 504, 241, 0, 50, 0, 0]),
    (SystemKind::EagerHybrid, Path::Stall, [9063, 160, 94, 0, 0, 546, 223, 6033, 0, 0, 0]),
    (SystemKind::EagerHybrid, Path::Line, [9063, 160, 94, 0, 0, 546, 223, 6033, 0, 0, 0]),
    (SystemKind::EagerHybrid, Path::CacheSim, [8894, 160, 81, 0, 0, 507, 247, 6050, 0, 0, 0]),
    (SystemKind::EagerHybrid, Path::SmallL1, [9063, 160, 94, 0, 0, 546, 223, 6033, 0, 0, 0]),
    (SystemKind::EagerHybrid, Path::ReadAfterWrite, [11016, 160, 150, 0, 0, 510, 321, 8959, 0, 0, 0]),
    (SystemKind::LazyHybrid, Path::Watchdog, [11470, 160, 137, 96, 16, 527, 232, 1687, 0, 0, 0]),
    (SystemKind::LazyHybrid, Path::Immediate, [6843, 160, 62, 0, 0, 548, 209, 0, 0, 0, 0]),
    (SystemKind::LazyHybrid, Path::Linear, [7436, 160, 62, 0, 0, 531, 223, 1800, 0, 0, 0]),
    (SystemKind::LazyHybrid, Path::Exponential, [7584, 160, 64, 0, 0, 539, 209, 709, 0, 0, 0]),
    (SystemKind::LazyHybrid, Path::Karma, [6968, 160, 68, 0, 0, 527, 224, 1771, 0, 0, 0]),
    (SystemKind::LazyHybrid, Path::Adaptive, [7706, 160, 69, 0, 0, 525, 232, 0, 21, 0, 0]),
    (SystemKind::LazyHybrid, Path::Stall, [7436, 160, 62, 0, 0, 531, 223, 1800, 0, 0, 0]),
    (SystemKind::LazyHybrid, Path::Line, [7436, 160, 62, 0, 0, 531, 223, 1800, 0, 0, 0]),
    (SystemKind::LazyHybrid, Path::CacheSim, [7354, 160, 61, 0, 0, 513, 232, 116, 0, 0, 0]),
    (SystemKind::LazyHybrid, Path::SmallL1, [7436, 160, 62, 0, 0, 531, 223, 1800, 0, 0, 0]),
    (SystemKind::LazyHybrid, Path::ReadAfterWrite, [10833, 160, 79, 0, 0, 544, 317, 3218, 0, 0, 0]),
    (SystemKind::EagerStm, Path::Watchdog, [13508, 160, 71, 24, 7, 397, 227, 452, 0, 0, 0]),
    (SystemKind::EagerStm, Path::Immediate, [9646, 160, 55, 0, 0, 397, 245, 0, 0, 0, 0]),
    (SystemKind::EagerStm, Path::Linear, [10716, 160, 45, 0, 0, 352, 263, 1208, 0, 0, 0]),
    (SystemKind::EagerStm, Path::Exponential, [9559, 160, 58, 0, 0, 399, 233, 554, 0, 0, 0]),
    (SystemKind::EagerStm, Path::Karma, [9936, 160, 51, 0, 0, 412, 231, 2257, 0, 0, 0]),
    (SystemKind::EagerStm, Path::Adaptive, [9646, 160, 55, 0, 0, 397, 245, 0, 16, 0, 0]),
    (SystemKind::EagerStm, Path::Stall, [10716, 160, 45, 0, 0, 352, 263, 1208, 0, 0, 0]),
    (SystemKind::EagerStm, Path::Line, [15966, 160, 135, 0, 0, 376, 254, 8522, 0, 0, 0]),
    (SystemKind::EagerStm, Path::CacheSim, [9996, 160, 56, 0, 0, 396, 235, 350, 0, 0, 0]),
    (SystemKind::EagerStm, Path::SmallL1, [10716, 160, 45, 0, 0, 352, 263, 1208, 0, 0, 0]),
    (SystemKind::EagerStm, Path::ReadAfterWrite, [16774, 160, 106, 0, 0, 499, 348, 5592, 0, 0, 0]),
    (SystemKind::LazyStm, Path::Watchdog, [14454, 160, 68, 26, 3, 397, 233, 294, 0, 0, 0]),
    (SystemKind::LazyStm, Path::Immediate, [10824, 160, 51, 0, 0, 415, 231, 0, 0, 0, 0]),
    (SystemKind::LazyStm, Path::Linear, [11401, 160, 46, 0, 0, 413, 229, 204, 0, 0, 0]),
    (SystemKind::LazyStm, Path::Exponential, [11198, 160, 45, 0, 0, 422, 226, 254, 0, 0, 0]),
    (SystemKind::LazyStm, Path::Karma, [11812, 160, 51, 0, 0, 398, 239, 1374, 0, 0, 0]),
    (SystemKind::LazyStm, Path::Adaptive, [11034, 160, 48, 0, 0, 419, 230, 0, 10, 0, 0]),
    (SystemKind::LazyStm, Path::Stall, [11401, 160, 46, 0, 0, 413, 229, 204, 0, 0, 0]),
    (SystemKind::LazyStm, Path::Line, [14442, 160, 96, 0, 0, 382, 243, 2901, 0, 0, 0]),
    (SystemKind::LazyStm, Path::CacheSim, [10608, 160, 30, 0, 0, 413, 227, 185, 0, 0, 0]),
    (SystemKind::LazyStm, Path::SmallL1, [11401, 160, 46, 0, 0, 413, 229, 204, 0, 0, 0]),
    (SystemKind::LazyStm, Path::ReadAfterWrite, [13893, 160, 67, 0, 0, 387, 345, 891, 0, 0, 0]),
];

#[test]
fn protocol_paths_match_their_pins() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for system in SYSTEMS {
        for path in PATHS {
            let got = run(system, path);
            table.push_str(&format!(
                "    (SystemKind::{system:?}, Path::{path:?}, {got:?}),\n"
            ));
            let want = PINS
                .iter()
                .find(|&&(s, p, _)| s == system && p == path)
                .map(|&(_, _, pin)| pin);
            if want != Some(got) {
                mismatches.push(format!("{system:?}/{path:?}: want {want:?}, got {got:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} pins moved:\n{}\nthe table as it now runs:\n{table}",
        mismatches.len(),
        SYSTEMS.len() * PATHS.len(),
        mismatches.join("\n")
    );
}

/// The watchdog path is only a pin of the irrevocable barriers if it
/// reaches them: every transactional system must escalate at least once.
#[test]
fn watchdog_path_reaches_irrevocable_mode() {
    for &(system, path, pin) in PINS {
        let transactional = !matches!(system, SystemKind::Sequential | SystemKind::GlobalLock);
        if path == Path::Watchdog && transactional {
            assert!(pin[4] > 0, "{system:?} never escalated");
            assert!(pin[3] > 0, "{system:?} saw no injected fault");
        }
    }
}

/// Four eager-HTM threads that each read one hot line, work long, and
/// write it back: a requester that keeps losing crosses the 32-abort
/// promotion, takes the priority token and dooms the holder. The pins
/// above never reach it. Pins `[sim_cycles, commits, aborts,
/// backoff_cycles, serialized_commits, priority_wins, priority_losses]`
/// per contention manager.
fn run_hot(policy: CmPolicy) -> [u64; 7] {
    let rt = TmRuntime::new(
        TmConfig::new(SystemKind::EagerHtm, 4)
            .quantum(100)
            .cm(policy),
    );
    let hot = rt.heap().alloc_cell(0u64);
    let r = rt.run(|ctx| {
        for _ in 0..4 {
            ctx.atomic(|txn| {
                let v = txn.read(&hot)?;
                txn.work(2000);
                txn.write(&hot, v + 1)
            });
        }
    });
    let s = &r.stats;
    [
        r.sim_cycles,
        s.commits,
        s.aborts,
        s.backoff_cycles,
        s.serialized_commits,
        s.priority_wins,
        s.priority_losses,
    ]
}

#[rustfmt::skip]
const HOT_PINS: &[(CmPolicy, [u64; 7])] = &[
    (CmPolicy::Immediate, [283212, 16, 517, 0, 0, 1, 516]),
    (CmPolicy::DEFAULT_LINEAR, [152005, 16, 155, 158283, 0, 0, 155]),
    (CmPolicy::DEFAULT_EXPONENTIAL, [92127, 16, 43, 99352, 0, 0, 43]),
    (CmPolicy::DEFAULT_KARMA, [4151579, 16, 2237, 204156, 0, 11, 226]),
    (CmPolicy::DEFAULT_ADAPTIVE, [38916, 16, 24, 0, 16, 0, 24]),
];

#[test]
fn eager_htm_promotion_matches_its_pins() {
    let got: Vec<_> = CmPolicy::ALL.map(|p| (p, run_hot(p))).to_vec();
    assert_eq!(got, HOT_PINS.to_vec(), "the hot-line runs now give {got:?}");
    let immediate = got[0].1;
    assert!(immediate[5] > 0, "no eager-HTM transaction was promoted");
}
