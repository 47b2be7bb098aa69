//! Ablation: contention management (§V-B3).
//!
//! intruder is the paper's high-contention example: the STMs/hybrids win
//! partly because randomized linear backoff calms the retry storm, while
//! the paper's HTM design point restarts immediately. This harness runs
//! intruder (and optionally other variants) with backoff forced on and
//! off across the systems, reporting retries and simulated cycles.

use bench::{harness_flags, run_variant, selected_variants};
use stamp_util::Args;
use tm::{CmPolicy, SystemKind, TmConfig};

fn main() {
    let args = Args::from_env();
    let (scale, filter, _) = harness_flags(&args);
    let threads = args.get_u64("threads", 8) as usize;
    let variants = selected_variants(&filter.or(Some(vec!["intruder".into()])));
    println!("ABLATION: randomized-linear backoff vs immediate restart ({threads} threads, scale 1/{scale})");
    println!(
        "{:<15} {:<13} {:>14} {:>12} | {:>14} {:>12}",
        "variant", "system", "cycles(none)", "retries", "cycles(blin)", "retries"
    );
    for v in &variants {
        for sys in SystemKind::ALL_TM {
            let none = run_variant(
                v,
                scale,
                TmConfig::new(sys, threads).cm(CmPolicy::Immediate),
            );
            let blin = run_variant(
                v,
                scale,
                TmConfig::new(sys, threads).cm(CmPolicy::DEFAULT_LINEAR),
            );
            assert!(none.verified && blin.verified, "{} under {sys}", v.name);
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
