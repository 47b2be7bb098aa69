//! Regenerates Figure 1: speedup over sequential execution for every
//! simulator-sized variant on all six TM systems as the number of
//! logical processors grows from 1 to 16.
//!
//! Speedup is `sequential simulated cycles / system simulated cycles`,
//! with the sequential baseline free of any annotation overhead —
//! exactly the paper's normalization. `figure1 --help` lists the
//! flags; `--json results/BENCH_figure1.json` keeps the rows.

use std::path::PathBuf;

use bench::json::JsonSink;
use bench::{checked_run, sequential_cycles};
use stamp_util::driver::tm_config;
use tm::SystemKind;

fn main() {
    let f = bench::cli::parse("figure1");
    let scale = f.val("scale");
    let threads: Vec<usize> = f.val("threadlist");
    let csv = f.on("csv");
    let json_path = f.opt::<PathBuf>("json");
    let mut sink = JsonSink::new();
    let plot = f.on("plot");
    let with_lock = f.on("with-lock");
    let variants = bench::cli::variants(&f);
    let systems: Vec<SystemKind> = SystemKind::ALL_TM
        .into_iter()
        .chain(with_lock.then_some(SystemKind::GlobalLock))
        .collect();
    if csv {
        println!("variant,system,threads,cycles,speedup,retries_per_txn,verified");
    } else {
        println!("FIGURE 1: Speedup over sequential (scale 1/{scale})");
    }
    for v in &variants {
        let baseline = sequential_cycles(v, scale, &f);
        if !csv {
            println!();
            println!("{} (sequential: {} cycles)", v.name, baseline);
            print!("{:<14}", "system");
            for t in &threads {
                print!("{:>9}", format!("{t}p"));
            }
            println!("   retries@max");
        }
        let mut chart_series: Vec<(SystemKind, Vec<f64>)> = Vec::new();
        for &sys in &systems {
            let mut retries_at_max = 0.0;
            let mut row = Vec::new();
            for &t in &threads {
                let rep = checked_run(v, scale, tm_config(&f, sys, t));
                let speedup = baseline as f64 / rep.run.sim_cycles.max(1) as f64;
                retries_at_max = rep.run.stats.retries_per_txn();
                if json_path.is_some() {
                    sink.push(
                        bench::json::report_row(v.name, &rep)
                            .u64("seq_cycles", baseline)
                            .f64("speedup", speedup),
                    );
                }
                if csv {
                    println!(
                        "{},{},{},{},{:.3},{:.3},{}",
                        v.name,
                        sys.label(),
                        t,
                        rep.run.sim_cycles,
                        speedup,
                        retries_at_max,
                        rep.verified
                    );
                }
                row.push(speedup);
            }
            if !csv {
                print!("{:<14}", sys.label());
                for s in &row {
                    print!("{:>9.2}", s);
                }
                println!("   {retries_at_max:.2}");
            }
            chart_series.push((sys, row));
        }
        if plot && !csv {
            println!();
            println!(
                "{}",
                bench::ascii_speedup_chart(
                    &format!("{} — speedup vs processors", v.name),
                    &threads,
                    &chart_series
                )
            );
        }
    }
    if let Some(path) = json_path {
        sink.write(path);
    }
}
