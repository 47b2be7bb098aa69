//! Ablation: the five `tm::cm` contention-management policies on the
//! high-contention STAMP variants.
//!
//! Sweeps every [`CmPolicy`] over {genome, intruder, vacation-high,
//! kmeans-high} × the thread list, on each variant's most
//! contention-prone system (eager HTM restarts immediately by default,
//! so it is where policy choice matters most; genome runs on the eager
//! STM, whose write locks make its hash-table insert phase the
//! contended one). Reports simulated cycles, retries, backoff cycles,
//! and — for `karma`/`adaptive` — priority-arbitration wins/losses and
//! serialized commits.
//!
//! `ablation_cm --help` lists the flags: `--system` forces one system
//! (e.g. `--system "Lazy STM"`), `--smoke` is the CI-sized sweep
//! (scale ≥ 64, threads {2,8}), `--json results/BENCH_ablation_cm.json`
//! keeps one row per run.

use std::path::PathBuf;

use bench::checked_run;
use bench::json::JsonSink;
use stamp_util::driver::tm_config;
use tm::{CmPolicy, SystemKind};

/// The system on which contention management matters most for each
/// default variant (see module docs).
fn pathology_system(variant: &str) -> SystemKind {
    match variant {
        "genome" => SystemKind::EagerStm,
        _ => SystemKind::EagerHtm,
    }
}

fn main() {
    let f = bench::cli::parse("ablation_cm");
    let smoke = f.on("smoke");
    let scale: u32 = f.val("scale");
    let scale = if smoke { scale.max(64) } else { scale };
    let threads: Vec<usize> = if smoke {
        vec![2, 8]
    } else {
        f.val("threadlist")
    };
    let forced = f.opt::<SystemKind>("system").copied();
    let json_path = f.opt::<PathBuf>("json");
    let mut sink = JsonSink::new();
    let variants = bench::cli::variants(&f);

    println!("ABLATION: contention-management policies (scale 1/{scale})");
    println!(
        "{:<14} {:<12} {:<12} {:>3} {:>14} {:>9} {:>12} {:>8} {:>7} {:>7} | verify",
        "variant",
        "system",
        "policy",
        "p",
        "cycles",
        "ret/txn",
        "backoff",
        "serial",
        "wins",
        "losses"
    );
    for v in &variants {
        let sys = forced.unwrap_or_else(|| pathology_system(v.name));
        for policy in CmPolicy::ALL {
            for &t in &threads {
                let cfg = tm_config(&f, sys, t).cm(policy);
                let rep = checked_run(v, scale, cfg);
                let s = &rep.run.stats;
                println!(
                    "{:<14} {:<12} {:<12} {:>3} {:>14} {:>9.2} {:>12} {:>8} {:>7} {:>7} | OK",
                    v.name,
                    sys.label(),
                    policy.label(),
                    t,
                    rep.run.sim_cycles,
                    s.retries_per_txn(),
                    s.backoff_cycles,
                    s.serialized_commits,
                    s.priority_wins,
                    s.priority_losses,
                );
                if json_path.is_some() {
                    sink.push(
                        bench::json::report_row(v.name, &rep)
                            .str("cm", policy.label())
                            .u64("priority_wins", s.priority_wins)
                            .u64("priority_losses", s.priority_losses),
                    );
                }
            }
        }
        println!("{:-<132}", "");
    }
    if let Some(path) = json_path {
        sink.write(path);
    }
}
