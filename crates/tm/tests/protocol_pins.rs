//! Exact pins for engine paths the goldens do not reach.
//!
//! The goldens (`results/golden/`) run the default contention manager
//! with faults off, word granularity, the requester-loses eager HTM and
//! no cache model. This test runs one small contended workload on every
//! system under each of the other paths and pins the run's simulated
//! cycles and outcome counts, so a change to a barrier, commit or
//! rollback that moves a cycle on one of these paths fails here even
//! when every golden still matches.
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
}

const PATHS: [Path; 7] = [
    Path::Watchdog,
    Path::Karma,
    Path::Adaptive,
    Path::Stall,
    Path::Line,
    Path::CacheSim,
    Path::SmallL1,
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
/// read_lines, write_lines]`, the last two summed over the committed
/// transactions' records: a barrier that marks a line read or written
/// under the wrong condition can move them while the cycles hold.
type Pin = [u64; 7];

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
    }
}

/// Four threads over 12 lines: read-only scans, read-modify-writes with
/// an early release, and occasional explicit restarts (on the systems
/// that can roll back).
fn run(system: SystemKind, path: Path) -> Pin {
    let rt = TmRuntime::new(config(system, path));
    let slots = rt.heap().alloc_array::<u64>(48, 0);
    let can_restart = !matches!(system, SystemKind::Sequential | SystemKind::GlobalLock);
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
    ]
}

#[rustfmt::skip]
const PINS: &[(SystemKind, Path, Pin)] = &[
    (SystemKind::Sequential, Path::Watchdog, [1245, 160, 0, 0, 0, 548, 227]),
    (SystemKind::Sequential, Path::Karma, [1245, 160, 0, 0, 0, 548, 227]),
    (SystemKind::Sequential, Path::Adaptive, [1245, 160, 0, 0, 0, 548, 227]),
    (SystemKind::Sequential, Path::Stall, [1245, 160, 0, 0, 0, 548, 227]),
    (SystemKind::Sequential, Path::Line, [1245, 160, 0, 0, 0, 548, 227]),
    (SystemKind::Sequential, Path::CacheSim, [1371, 160, 0, 0, 0, 548, 227]),
    (SystemKind::Sequential, Path::SmallL1, [1245, 160, 0, 0, 0, 548, 227]),
    (SystemKind::GlobalLock, Path::Watchdog, [5897, 160, 0, 0, 0, 548, 227]),
    (SystemKind::GlobalLock, Path::Karma, [5897, 160, 0, 0, 0, 548, 227]),
    (SystemKind::GlobalLock, Path::Adaptive, [5897, 160, 0, 0, 0, 548, 227]),
    (SystemKind::GlobalLock, Path::Stall, [5897, 160, 0, 0, 0, 548, 227]),
    (SystemKind::GlobalLock, Path::Line, [5897, 160, 0, 0, 0, 548, 227]),
    (SystemKind::GlobalLock, Path::CacheSim, [6483, 160, 0, 0, 0, 548, 227]),
    (SystemKind::GlobalLock, Path::SmallL1, [5897, 160, 0, 0, 0, 548, 227]),
    (SystemKind::EagerHtm, Path::Watchdog, [6939, 160, 106, 72, 17, 378, 240]),
    (SystemKind::EagerHtm, Path::Karma, [5680, 160, 80, 0, 0, 423, 226]),
    (SystemKind::EagerHtm, Path::Adaptive, [3835, 160, 74, 0, 0, 387, 239]),
    (SystemKind::EagerHtm, Path::Stall, [4561, 160, 128, 0, 0, 403, 236]),
    (SystemKind::EagerHtm, Path::Line, [3753, 160, 90, 0, 0, 383, 245]),
    (SystemKind::EagerHtm, Path::CacheSim, [4254, 160, 131, 0, 0, 383, 240]),
    (SystemKind::EagerHtm, Path::SmallL1, [3958, 160, 149, 0, 0, 497, 222]),
    (SystemKind::LazyHtm, Path::Watchdog, [5180, 160, 57, 35, 5, 419, 226]),
    (SystemKind::LazyHtm, Path::Karma, [2947, 160, 43, 0, 0, 407, 240]),
    (SystemKind::LazyHtm, Path::Adaptive, [3517, 160, 45, 0, 0, 386, 240]),
    (SystemKind::LazyHtm, Path::Stall, [3188, 160, 46, 0, 0, 376, 251]),
    (SystemKind::LazyHtm, Path::Line, [3188, 160, 46, 0, 0, 376, 251]),
    (SystemKind::LazyHtm, Path::CacheSim, [3607, 160, 49, 0, 0, 396, 248]),
    (SystemKind::LazyHtm, Path::SmallL1, [5675, 160, 46, 0, 0, 435, 210]),
    (SystemKind::EagerHybrid, Path::Watchdog, [12501, 160, 147, 86, 24, 521, 224]),
    (SystemKind::EagerHybrid, Path::Karma, [7473, 160, 80, 0, 0, 540, 219]),
    (SystemKind::EagerHybrid, Path::Adaptive, [9435, 160, 109, 0, 0, 504, 241]),
    (SystemKind::EagerHybrid, Path::Stall, [9063, 160, 94, 0, 0, 546, 223]),
    (SystemKind::EagerHybrid, Path::Line, [9063, 160, 94, 0, 0, 546, 223]),
    (SystemKind::EagerHybrid, Path::CacheSim, [8894, 160, 81, 0, 0, 507, 247]),
    (SystemKind::EagerHybrid, Path::SmallL1, [9063, 160, 94, 0, 0, 546, 223]),
    (SystemKind::LazyHybrid, Path::Watchdog, [11470, 160, 137, 96, 16, 527, 232]),
    (SystemKind::LazyHybrid, Path::Karma, [6968, 160, 68, 0, 0, 527, 224]),
    (SystemKind::LazyHybrid, Path::Adaptive, [7706, 160, 69, 0, 0, 525, 232]),
    (SystemKind::LazyHybrid, Path::Stall, [7436, 160, 62, 0, 0, 531, 223]),
    (SystemKind::LazyHybrid, Path::Line, [7436, 160, 62, 0, 0, 531, 223]),
    (SystemKind::LazyHybrid, Path::CacheSim, [7354, 160, 61, 0, 0, 513, 232]),
    (SystemKind::LazyHybrid, Path::SmallL1, [7436, 160, 62, 0, 0, 531, 223]),
    (SystemKind::EagerStm, Path::Watchdog, [13508, 160, 71, 24, 7, 397, 227]),
    (SystemKind::EagerStm, Path::Karma, [9936, 160, 51, 0, 0, 412, 231]),
    (SystemKind::EagerStm, Path::Adaptive, [9646, 160, 55, 0, 0, 397, 245]),
    (SystemKind::EagerStm, Path::Stall, [10716, 160, 45, 0, 0, 352, 263]),
    (SystemKind::EagerStm, Path::Line, [15966, 160, 135, 0, 0, 376, 254]),
    (SystemKind::EagerStm, Path::CacheSim, [9996, 160, 56, 0, 0, 396, 235]),
    (SystemKind::EagerStm, Path::SmallL1, [10716, 160, 45, 0, 0, 352, 263]),
    (SystemKind::LazyStm, Path::Watchdog, [14454, 160, 68, 26, 3, 397, 233]),
    (SystemKind::LazyStm, Path::Karma, [11812, 160, 51, 0, 0, 398, 239]),
    (SystemKind::LazyStm, Path::Adaptive, [11034, 160, 48, 0, 0, 419, 230]),
    (SystemKind::LazyStm, Path::Stall, [11401, 160, 46, 0, 0, 413, 229]),
    (SystemKind::LazyStm, Path::Line, [14442, 160, 96, 0, 0, 382, 243]),
    (SystemKind::LazyStm, Path::CacheSim, [10608, 160, 30, 0, 0, 413, 227]),
    (SystemKind::LazyStm, Path::SmallL1, [11401, 160, 46, 0, 0, 413, 229]),
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
