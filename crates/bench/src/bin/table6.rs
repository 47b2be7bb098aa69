//! Regenerates Table VI: the transactional characterization of the
//! STAMP applications.
//!
//! Exactly as in the paper's methodology (§V-A):
//! * per-transaction length, read/write set sizes (in 32-byte lines)
//!   and time in transactions are measured on the **lazy HTM**;
//! * read/write barrier counts are measured on the **lazy STM**;
//! * retries per transaction are measured with **16 threads** on the
//!   lazy/eager HTM and lazy/eager STM;
//! * working sets (optional, `--working-sets`) come from sweeping the
//!   modeled cache size from 16 KB to 64 MB and looking for knees in
//!   the miss rate.
//!
//! `table6 --help` lists the flags. With `--verify` (or `TM_VERIFY=1`)
//! every measurement also runs the `tm::verify` sanitizer and reports
//! its verdict and wall-clock cost; simulated cycles are unaffected.

use std::path::PathBuf;

use bench::json::JsonSink;
use bench::{pct, run_variant};
use stamp_util::driver::tm_config;
use tm::{CacheGeometry, SystemKind, VerifyCost};

fn main() {
    let f = bench::cli::parse("table6");
    let scale = f.val("scale");
    let retry_threads = f.val("threads16");
    let do_ws = f.on("working-sets");
    let do_verify = f.on("verify");
    let json_path = f.opt::<PathBuf>("json");
    let mut sink = JsonSink::new();
    let variants = bench::cli::variants(&f);

    println!("TABLE VI: Basic characterization of the STAMP applications (scale 1/{scale})");
    println!(
        "{:<15} {:>10} {:>8} {:>8} {:>8} {:>8} {:>7} | {:>6} {:>6} {:>6} {:>6} | verify",
        "Application",
        "TxLen",
        "RdSet",
        "WrSet",
        "RdBarr",
        "WrBarr",
        "TxTime",
        "L-HTM",
        "E-HTM",
        "L-STM",
        "E-STM"
    );
    println!(
        "{:<15} {:>10} {:>8} {:>8} {:>8} {:>8} {:>7} | {:>27} |",
        "", "(cycles)", "(p90 ln)", "(p90 ln)", "(p90)", "(p90)", "", "retries/txn @16 threads"
    );
    println!("{:-<120}", "");

    for v in &variants {
        let cfg = |sys| tm_config(&f, sys, retry_threads);
        // Lazy HTM, 16 threads: sets, length, time in transactions.
        let htm = run_variant(v, scale, cfg(SystemKind::LazyHtm));
        // Lazy STM: barrier counts.
        let stm = run_variant(v, scale, cfg(SystemKind::LazyStm));
        // Remaining retry columns.
        let ehtm = run_variant(v, scale, cfg(SystemKind::EagerHtm));
        let estm = run_variant(v, scale, cfg(SystemKind::EagerStm));
        let ok = htm.verified && stm.verified && ehtm.verified && estm.verified;
        if json_path.is_some() {
            for rep in [&htm, &stm, &ehtm, &estm] {
                sink.push(
                    bench::json::report_row(v.name, rep)
                        .f64("mean_txn_len", rep.run.stats.mean_txn_len())
                        .u64("p90_read_lines", rep.run.stats.p90_read_lines() as u64)
                        .u64("p90_write_lines", rep.run.stats.p90_write_lines() as u64)
                        .f64("time_in_txn", rep.run.stats.time_in_txn()),
                );
            }
        }
        println!(
            "{:<15} {:>10.0} {:>8} {:>8} {:>8} {:>8} {:>7} | {:>6.2} {:>6.2} {:>6.2} {:>6.2} | {}",
            v.name,
            htm.run.stats.mean_txn_len(),
            htm.run.stats.p90_read_lines(),
            htm.run.stats.p90_write_lines(),
            stm.run.stats.p90_read_barriers(),
            stm.run.stats.p90_write_barriers(),
            pct(htm.run.stats.time_in_txn()),
            htm.run.stats.retries_per_txn(),
            ehtm.run.stats.retries_per_txn(),
            stm.run.stats.retries_per_txn(),
            estm.run.stats.retries_per_txn(),
            if ok { "OK" } else { "FAILED" },
        );
        if do_verify {
            let reports = [&htm, &stm, &ehtm, &estm];
            let mut cost = VerifyCost::default();
            let mut violations = 0usize;
            for rep in reports {
                let vr = rep.run.verify.as_ref().expect("--verify sets verify");
                cost.txns_checked += vr.cost.txns_checked;
                cost.edges += vr.cost.edges;
                cost.wall += vr.cost.wall;
                violations += vr.violations.len();
                for viol in &vr.violations {
                    println!("    [{}] {viol}", rep.run.system);
                }
            }
            println!(
                "    sanitizer: {} across 4 systems — {} txns checked, {} edges, {:.1?} wall",
                if violations == 0 {
                    "clean".to_string()
                } else {
                    format!("{violations} VIOLATION(S)")
                },
                cost.txns_checked,
                cost.edges,
                cost.wall,
            );
        }
    }

    if do_ws {
        println!();
        println!("Working sets (miss rate vs modeled cache size, sequential run):");
        let sizes_kb: Vec<u64> = (0..13).map(|i| 16u64 << i).collect(); // 16KB..64MB
        print!("{:<15}", "Application");
        for s in &sizes_kb {
            if *s < 1024 {
                print!("{:>7}K", s);
            } else {
                print!("{:>7}M", s / 1024);
            }
        }
        println!();
        for v in &variants {
            print!("{:<15}", v.name);
            let mut rates = Vec::new();
            for &kb in &sizes_kb {
                let mut cfg = tm_config(&f, SystemKind::Sequential, 1).cache_sim(true);
                cfg.l1 = CacheGeometry {
                    size_bytes: kb * 1024,
                    assoc: 4,
                    line_bytes: 32,
                };
                let rep = run_variant(v, scale, cfg);
                rates.push(rep.run.stats.miss_rate());
            }
            for r in &rates {
                print!("{:>7.2}%", r * 100.0);
            }
            // Knee detection: the sizes with the largest relative drop
            // below and above 1 MB (Table VI's small/large working sets).
            let knee = |lo: usize, hi: usize| -> Option<u64> {
                let mut best = (0.0f64, None);
                for i in lo..hi.min(rates.len() - 1) {
                    let drop = rates[i] - rates[i + 1];
                    if drop > best.0 && drop > 0.001 {
                        best = (drop, Some(sizes_kb[i + 1]));
                    }
                }
                best.1
            };
            let small = knee(0, 6); // 16KB..512KB
            let large = knee(6, rates.len());
            print!(
                "  small={}",
                small.map(|k| format!("{k}KB")).unwrap_or("-".into())
            );
            println!(
                " large={}",
                large
                    .map(|k| format!("{}MB", k / 1024))
                    .unwrap_or("-".into())
            );
        }
        println!("(knees in the miss-rate curve mark Table VI's working-set columns)");
    }
    if let Some(path) = json_path {
        sink.write(path);
    }
}
