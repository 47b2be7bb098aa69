//! Ablation: contention management (§V-B3).
//!
//! intruder is the paper's high-contention example: the STMs/hybrids win
//! partly because randomized linear backoff calms the retry storm, while
//! the paper's HTM design point restarts immediately. This harness runs
//! intruder (and optionally other variants) with backoff forced on and
//! off across the systems, reporting retries and simulated cycles.

use bench::checked_run;
use stamp_util::driver::tm_config;
use tm::{CmPolicy, SystemKind};

fn main() {
    let f = bench::cli::parse("ablation_backoff");
    let scale = f.val("scale");
    let threads = f.val("threads");
    let variants = bench::cli::variants(&f);
    println!("ABLATION: randomized-linear backoff vs immediate restart ({threads} threads, scale 1/{scale})");
    println!(
        "{:<15} {:<13} {:>14} {:>12} | {:>14} {:>12}",
        "variant", "system", "cycles(none)", "retries", "cycles(blin)", "retries"
    );
    for v in &variants {
        for sys in SystemKind::ALL_TM {
            let none = checked_run(
                v,
                scale,
                tm_config(&f, sys, threads).cm(CmPolicy::Immediate),
            );
            let blin = checked_run(
                v,
                scale,
                tm_config(&f, sys, threads).cm(CmPolicy::DEFAULT_LINEAR),
            );
            println!(
                "{:<15} {:<13} {:>14} {:>12.2} | {:>14} {:>12.2}",
                v.name,
                sys.label(),
                none.run.sim_cycles,
                none.run.stats.retries_per_txn(),
                blin.run.sim_cycles,
                blin.run.stats.retries_per_txn()
            );
        }
    }
}
