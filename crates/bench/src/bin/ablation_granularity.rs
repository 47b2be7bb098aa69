//! Ablation: conflict-detection granularity (§V-B1).
//!
//! The paper's bayes result — STMs beating the HTMs — comes from the
//! STMs' word-granularity conflict detection avoiding the false
//! conflicts that line-granularity hardware detection suffers. This
//! harness runs the STMs at both granularities to isolate the effect.

use bench::checked_run;
use stamp_util::driver::tm_config;
use tm::{Granularity, SystemKind};

fn main() {
    let f = bench::cli::parse("ablation_granularity");
    let scale = f.val("scale");
    let threads = f.val("threads");
    let variants = bench::cli::variants(&f);
    println!(
        "ABLATION: STM conflict granularity word vs line ({threads} threads, scale 1/{scale})"
    );
    println!(
        "{:<15} {:<11} {:>14} {:>10} | {:>14} {:>10}",
        "variant", "system", "cycles(word)", "retries", "cycles(line)", "retries"
    );
    for v in &variants {
        for sys in [SystemKind::LazyStm, SystemKind::EagerStm] {
            let word = checked_run(
                v,
                scale,
                tm_config(&f, sys, threads).stm_granularity(Granularity::Word),
            );
            let line = checked_run(
                v,
                scale,
                tm_config(&f, sys, threads).stm_granularity(Granularity::Line),
            );
            println!(
                "{:<15} {:<11} {:>14} {:>10.2} | {:>14} {:>10.2}",
                v.name,
                sys.label(),
                word.run.sim_cycles,
                word.run.stats.retries_per_txn(),
                line.run.sim_cycles,
                line.run.stats.retries_per_txn()
            );
        }
    }
}
