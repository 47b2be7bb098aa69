//! Regenerates Table III: the qualitative summary of each application's
//! runtime transactional characteristics — except that, unlike the
//! paper's hand-written table, this one *derives* the qualitative labels
//! from measurements (each application's base variant on the lazy HTM
//! with 16 threads, as in §V-A) and prints the paper's labels alongside
//! for comparison.
//!
//! `--scale` defaults to 4: the qualitative labels are stable under
//! scaling.

use bench::checked_run;
use stamp_util::driver::tm_config;
use stamp_util::variant;
use tm::SystemKind;

/// The paper's Table III rows: (app, tx length, r/w set, tx time,
/// contention).
const PAPER: [(&str, &str, &str, &str, &str); 8] = [
    ("bayes", "Long", "Large", "High", "High"),
    ("genome", "Medium", "Medium", "High", "Low"),
    ("intruder", "Short", "Medium", "Medium", "High"),
    ("kmeans-high", "Short", "Small", "Low", "Low"),
    ("labyrinth", "Long", "Large", "High", "High"),
    ("ssca2", "Short", "Small", "Low", "Low"),
    ("vacation-high", "Medium", "Medium", "High", "Low/Medium"),
    ("yada", "Long", "Large", "High", "Medium"),
];

fn bucket3(v: f64, lo: f64, hi: f64) -> &'static str {
    if v < lo {
        "Short/Small/Low"
    } else if v < hi {
        "Medium"
    } else {
        "Long/Large/High"
    }
}

fn main() {
    let f = bench::cli::parse("table3");
    let scale = f.val("scale");
    let threads = f.val("threads");
    println!("TABLE III: Qualitative transactional characteristics (measured at scale 1/{scale}, {threads} threads, lazy HTM)");
    println!(
        "{:<15} {:<22} {:<22} {:<18} {:<18}",
        "Application", "Tx Length", "R/W Set", "Tx Time", "Contention"
    );
    println!(
        "{:<15} {:<22} {:<22} {:<18} {:<18}",
        "", "(measured | paper)", "(measured | paper)", "(meas | paper)", "(meas | paper)"
    );
    println!("{:-<100}", "");
    for (name, p_len, p_set, p_time, p_cont) in PAPER {
        let v = variant(name).expect("known variant");
        let rep = checked_run(&v, scale, tm_config(&f, SystemKind::LazyHtm, threads));
        let s = &rep.run.stats;
        let len_label = bucket3(s.mean_txn_len(), 150.0, 3_000.0);
        let set_label = bucket3(
            s.p90_read_lines().max(s.p90_write_lines()) as f64,
            16.0,
            128.0,
        );
        let time_label = if s.time_in_txn() < 0.35 {
            "Low"
        } else if s.time_in_txn() < 0.75 {
            "Medium"
        } else {
            "High"
        };
        let cont_label = if s.retries_per_txn() < 0.10 {
            "Low"
        } else if s.retries_per_txn() < 0.60 {
            "Medium"
        } else {
            "High"
        };
        println!(
            "{:<15} {:<22} {:<22} {:<18} {:<18}",
            name,
            format!(
                "{} | {p_len}",
                len_label.split('/').next().unwrap_or(len_label)
            ),
            format!(
                "{} | {p_set}",
                set_label.split('/').nth(1).unwrap_or(set_label)
            ),
            format!("{time_label} | {p_time}"),
            format!("{cont_label} | {p_cont}"),
        );
    }
}
