//! Regenerates Table IV: the per-application transactional
//! characterization, extended with the `tm::prof` cycle breakdown.
//!
//! Default: the eight base applications × the six TM systems at 4
//! threads under the deterministic scheduler, printing the Table IV
//! columns (read/write-set sizes, transaction length, time in
//! transactions) plus the six-bucket cycle split and the hottest
//! conflict lines. Every run asserts the profiler's accounting
//! invariant (buckets sum exactly to each thread's clock).
//!
//! Flags (`table4 --help`): `--write` / `--check` (re)generate or
//! byte-verify the pinned `results/table4.json` artifact (scale 1/64,
//! 4 threads, golden scheduler seed — see [`bench::table4`]); `--smoke`
//! is the CI gate (all eight apps on eager HTM + lazy STM with the
//! invariant asserted, plus a byte-identical double render); `--list`
//! prints the 30 recommended configurations with the paper's literal
//! Table IV arguments and the app binary command that runs each one
//! (kmeans, labyrinth and yada generate the inputs the paper names).
//! Every run uses the pinned configuration, so no `TM_*` variable but
//! `TM_TRACE` reaches it.

use std::path::PathBuf;

use bench::json::JsonSink;
use bench::pct;
use bench::table4::{
    characterize, check_table4, table4_apps, table4_row, write_table4, TABLE4_SCALE,
};
use stamp_util::Variant;
use tm::{ProfBucket, SystemKind};

fn list() {
    println!("TABLE IV: Recommended configurations and data sets for STAMP");
    println!("{:-<140}", "");
    println!(
        "{:<16} {:<9} {:<44} Runnable command",
        "Application", "Sim-sized", "Paper's arguments"
    );
    println!("{:-<140}", "");
    for v in stamp_util::all_variants() {
        println!(
            "{:<16} {:<9} {:<44} {} {}",
            v.name,
            if v.sim_sized() { "yes" } else { "no (++)" },
            v.args,
            v.app(),
            v.params.args()
        );
    }
    println!();
    println!(
        "{} variants total, {} simulator-sized (used for Table VI / Figure 1)",
        stamp_util::all_variants().len(),
        stamp_util::sim_variants().len()
    );
}

fn header(scale: u32, threads: usize) {
    println!(
        "TABLE IV: transactional characterization + cycle breakdown \
         (scale 1/{scale}, {threads} threads, deterministic scheduler)"
    );
    println!(
        "{:<13} {:>13} {:>11} {:>11} {:>6} | {:>6} {:>6} {:>7} {:>6} {:>6} {:>6}",
        "system",
        "TxLen mn/mx",
        "Rd mn/mx",
        "Wr mn/mx",
        "TxTime",
        "useful",
        "wasted",
        "backoff",
        "ovhd",
        "wait",
        "barr"
    );
}

fn characterization(
    variants: &[Variant],
    scale: u32,
    threads: usize,
    systems: &[SystemKind],
    sink: &mut JsonSink,
) {
    header(scale, threads);
    for v in variants {
        println!("{:-<108}", format!("{} ", v.name));
        let mut stm_hot = None;
        for &sys in systems {
            let rep = characterize(v, scale, sys, threads);
            let s = &rep.run.stats;
            let prof = rep.run.prof.as_ref().expect("prof enabled");
            let f = |b| format!("{:.1}%", prof.fraction(b) * 100.0);
            println!(
                "{:<13} {:>6.0}/{:>6} {:>6.1}/{:>4} {:>6.1}/{:>4} {:>6} | {:>6} {:>6} {:>7} {:>6} {:>6} {:>6}",
                sys.label(),
                s.mean_txn_len(),
                s.max_txn_len(),
                s.mean_read_lines(),
                s.max_read_lines(),
                s.mean_write_lines(),
                s.max_write_lines(),
                pct(s.time_in_txn()),
                f(ProfBucket::Useful),
                f(ProfBucket::Wasted),
                f(ProfBucket::Backoff),
                f(ProfBucket::Overhead),
                f(ProfBucket::Wait),
                f(ProfBucket::Barrier),
            );
            if sys == SystemKind::LazyStm {
                stm_hot = Some((prof.conflict_events(), prof.hot_lines(3).to_vec()));
            }
            sink.push(table4_row(v, scale, &rep));
        }
        if let Some((events, hot)) = stm_hot {
            if hot.is_empty() {
                println!("  no conflicts recorded (lazy STM)");
            } else {
                let lines: Vec<String> = hot
                    .iter()
                    .map(|h| {
                        let pair = h
                            .pairs
                            .first()
                            .map(|p| {
                                format!(
                                    ", top {}→t{} ×{}",
                                    p.aborter
                                        .map(|a| format!("t{a}"))
                                        .unwrap_or_else(|| "?".into()),
                                    p.victim,
                                    p.events
                                )
                            })
                            .unwrap_or_default();
                        format!("{:#x} ({} ev{pair})", h.line, h.events)
                    })
                    .collect();
                println!(
                    "  hot lines (lazy STM, {events} conflict events): {}",
                    lines.join("; ")
                );
            }
        }
    }
}

/// The CI smoke gate: all eight base apps on two representative systems
/// with the accounting invariant asserted on every run, plus a proof
/// that same-seed renders are byte-identical.
fn smoke(sink: &mut JsonSink) {
    let systems = [SystemKind::EagerHtm, SystemKind::LazyStm];
    characterization(&table4_apps(), TABLE4_SCALE, 4, &systems, sink);
    let render_once = || {
        let mut s = JsonSink::new();
        for v in table4_apps().iter().take(2) {
            let rep = characterize(v, TABLE4_SCALE, SystemKind::LazyStm, 4);
            s.push(table4_row(v, TABLE4_SCALE, &rep));
        }
        s.render()
    };
    assert_eq!(
        render_once(),
        render_once(),
        "same-seed table4 renders are not byte-identical"
    );
    println!("smoke: invariant held on every run, renders byte-identical");
}

fn main() {
    let f = bench::cli::parse("table4");
    if f.on("list") {
        list();
        return;
    }
    if f.on("check") {
        match check_table4() {
            Ok(()) => println!("results/table4.json matches a byte-identical re-run"),
            Err(e) => panic!("{e}"),
        }
        return;
    }
    if f.on("write") {
        let path = write_table4();
        println!("wrote {}", path.display());
        return;
    }

    let mut sink = JsonSink::new();
    if f.on("smoke") {
        smoke(&mut sink);
    } else {
        let variants = bench::cli::variants(&f);
        characterization(
            &variants,
            f.val("scale"),
            f.val("threads"),
            &SystemKind::ALL_TM,
            &mut sink,
        );
    }
    if let Some(path) = f.opt::<PathBuf>("json") {
        sink.write(path);
    }
}
