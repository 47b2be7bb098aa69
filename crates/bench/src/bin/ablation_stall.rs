//! Ablation: eager-HTM conflict resolution — the paper's design point
//! (requester aborts immediately, §IV) vs LogTM's actual behaviour
//! (requester stalls; timestamp order prevents deadlock).
//!
//! The paper repeatedly notes its eager HTM's pathologies "are not
//! intrinsic to HTM" and could be fixed with better conflict
//! management; this harness quantifies that remark on the
//! high-contention applications.

use bench::checked_run;
use stamp_util::driver::tm_config;
use tm::{HtmConflictPolicy, SystemKind};

fn main() {
    let f = bench::cli::parse("ablation_stall");
    let scale = f.val("scale");
    let threads = f.val("threads");
    let variants = bench::cli::variants(&f);
    println!(
        "ABLATION: eager-HTM requester-aborts (paper) vs requester-stalls (LogTM) — {threads} threads, scale 1/{scale}"
    );
    println!(
        "{:<15} {:>16} {:>10} | {:>16} {:>10}",
        "variant", "cycles(abort)", "retries", "cycles(stall)", "retries"
    );
    for v in &variants {
        let abort = checked_run(
            v,
            scale,
            tm_config(&f, SystemKind::EagerHtm, threads)
                .htm_conflict(HtmConflictPolicy::RequesterAborts),
        );
        let stall = checked_run(
            v,
            scale,
            tm_config(&f, SystemKind::EagerHtm, threads)
                .htm_conflict(HtmConflictPolicy::RequesterStalls),
        );
        println!(
            "{:<15} {:>16} {:>10.2} | {:>16} {:>10.2}",
            v.name,
            abort.run.sim_cycles,
            abort.run.stats.retries_per_txn(),
            stall.run.sim_cycles,
            stall.run.stats.retries_per_txn()
        );
    }
}
