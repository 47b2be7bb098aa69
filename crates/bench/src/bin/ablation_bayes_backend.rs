//! Ablation: bayes sufficient-statistics backend.
//!
//! The original benchmark scores candidate dependencies through an
//! ADtree (Moore & Lee) — sparse pointer-chasing reads. This repository
//! also ships a record-scan backend whose transactions read the whole
//! record array sequentially. The two produce identical counts but very
//! different transactional footprints, which is exactly the kind of
//! knob the paper argues a benchmark suite must expose: the ADtree
//! backend has short-ish transactions with scattered reads, the scan
//! backend the paper-scale 60k+-cycle transactions with dense read
//! sets.

use stamp_util::driver::tm_config;
use stamp_util::{variant, AppParams};
use tm::SystemKind;

fn main() {
    let f = bench::cli::parse("ablation_bayes_backend");
    let threads = f.val("threads");
    let scale = f.val("scale");
    let AppParams::Bayes(mut p) = variant("bayes").unwrap().scaled(scale) else {
        unreachable!()
    };
    println!("ABLATION: bayes ADtree vs record-scan scoring ({threads} threads, scale 1/{scale})");
    println!(
        "{:<10} {:<13} {:>12} {:>10} {:>8} {:>8} {:>8}",
        "backend", "system", "cycles", "TxLen", "RdSet", "retries", "verify"
    );
    for (adtree, name) in [(true, "adtree"), (false, "scan")] {
        p.adtree = adtree;
        for sys in [
            SystemKind::LazyHtm,
            SystemKind::EagerHtm,
            SystemKind::LazyStm,
        ] {
            let rep = bayes::run(&p, tm_config(&f, sys, threads));
            println!(
                "{:<10} {:<13} {:>12} {:>10.0} {:>8} {:>8.2} {:>8}",
                name,
                sys.label(),
                rep.run.sim_cycles,
                rep.run.stats.mean_txn_len(),
                rep.run.stats.p90_read_lines(),
                rep.run.stats.retries_per_txn(),
                rep.verified
            );
        }
    }
}
