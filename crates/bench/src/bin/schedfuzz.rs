//! Deterministic-schedule explorer: turns the `tm::verify` sanitizer
//! into a fuzzing oracle by sweeping scheduler seeds.
//!
//! Every run is fully deterministic per (`--sched-seed`, app, system,
//! threads), so any seed that produces a violation or a failed app
//! verdict is an exact repro command, not a flake.
//!
//! Modes:
//!
//! * `--sweep N` — N seeds under strict min-clock dispatch
//!   ([`SchedMode::MinClock`]): each run must be sanitizer-clean and
//!   app-verified; seed 0 is run twice and must replay bit-identically.
//! * `--pct N` — same, under PCT-style adversarial priority dispatch
//!   ([`SchedMode::Pct`]); `--sched-gap G` sets the mean change-point
//!   gap.
//! * `--smoke` — the CI gate: 30 seeds × {genome, vacation-high} ×
//!   {eager HTM, lazy STM} × both modes at 4 threads, then 20 seeds of
//!   the same matrix under min-clock at 16 threads, sanitizer on, plus a
//!   byte-identical double-run of the JSON report.
//! * `--golden [--check]` — (re)generate or verify the
//!   `results/golden/*.json` cycle-count regression files (see
//!   [`bench::golden`]).
//!
//! `schedfuzz --help` lists the flags. The fuzzing modes build each
//! run over the shared TM rows (`--cm`, `--fault`, `--watchdog`,
//! `--prof` and their `TM_*` variables); the golden files are pinned
//! and take none of them.
//!
//! `--fault <spec>` (or `TM_FAULT`, grammar in `tm::fault`) composes
//! fault injection with schedule fuzzing: each run derives its fault
//! seed from the spec's seed and the scheduler seed, so one sweep
//! explores (schedule × fault) space while staying an exact repro.
//! Every run goes through [`bench::checked_run`], so faulted runs
//! additionally assert the liveness invariants (commits + aborts ==
//! attempts, every thread commits).

use std::path::PathBuf;

use bench::json::{report_row, JsonSink};
use bench::{artifact, checked_run, golden, Fingerprint};
use stamp_util::driver::tm_config;
use stamp_util::{AppReport, Flags, Variant};
use tm::{FaultConfig, SchedMode, SystemKind, TmConfig};

/// The fault profile a run at scheduler seed `sched_seed` uses: the
/// spec's own seed mixed with the scheduler seed, so a seed sweep
/// explores the (schedule × fault) product while every run remains an
/// exact repro. Never derives 0 (which would disable injection).
fn fault_at(spec: &FaultConfig, sched_seed: u64) -> FaultConfig {
    spec.with_seed(
        tm::SplitMix64::new(spec.seed ^ sched_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .next_u64()
            .max(1),
    )
}

/// The `--fault` spec the runs derive their fault profiles from.
fn fault_spec(f: &Flags) -> Option<FaultConfig> {
    f.opt::<FaultConfig>("fault")
        .copied()
        .filter(FaultConfig::enabled)
}

/// One fuzz run's configuration: sanitizer recording every
/// transaction, one scheduler seed, and the `--fault` profile derived
/// from that seed.
fn fuzz_config(
    f: &Flags,
    sys: SystemKind,
    threads: usize,
    mode: SchedMode,
    sched_seed: u64,
) -> TmConfig {
    let cfg = tm_config(f, sys, threads)
        .verify(true)
        .sched(mode)
        .sched_seed(sched_seed);
    match fault_spec(f) {
        Some(spec) => cfg.fault(fault_at(&spec, sched_seed)),
        None => cfg,
    }
}

#[allow(clippy::too_many_arguments)]
fn sweep(
    f: &Flags,
    variants: &[Variant],
    systems: &[SystemKind],
    threads: usize,
    scale: u32,
    mode: SchedMode,
    seed0: u64,
    seeds: u64,
    sink: &mut JsonSink,
) {
    let faults = fault_spec(f);
    println!(
        "SWEEP mode={} seeds={seed0}..{} threads={threads} scale=1/{scale}{}",
        mode.label(),
        seed0 + seeds,
        faults.map_or(String::new(), |f| format!(" faults[{}]", f.spec())),
    );
    println!(
        "{:<14} {:<12} {:>10} {:>14} {:>9} {:>8} | verdict",
        "variant", "system", "sched_seed", "cycles", "ret/txn", "aborts"
    );
    for v in variants {
        for &sys in systems {
            let mut first: Option<AppReport> = None;
            for i in 0..seeds {
                let seed = seed0 + i;
                let rep = checked_run(v, scale, fuzz_config(f, sys, threads, mode, seed));
                println!(
                    "{:<14} {:<12} {:>10} {:>14} {:>9.2} {:>8} | clean",
                    v.name,
                    sys.label(),
                    seed,
                    rep.run.sim_cycles,
                    rep.run.stats.retries_per_txn(),
                    rep.run.stats.aborts,
                );
                let mut row = report_row(v.name, &rep)
                    .str("sched", mode.label())
                    .u64("sched_seed", seed)
                    .u64("scale", scale as u64);
                if let Some(spec) = &faults {
                    // Only faulted rows carry the fault columns, so the
                    // fault-free output (incl. goldens) stays
                    // byte-identical to the pre-fault harness.
                    let s = &rep.run.stats;
                    row = row
                        .str("faults", &fault_at(spec, seed).spec())
                        .u64("spurious_aborts", s.spurious_aborts)
                        .u64("irrevocable_commits", s.irrevocable_commits)
                        .u64("watchdog_trips", s.watchdog_trips);
                }
                sink.push(row);
                if i == 0 {
                    first = Some(rep);
                }
            }
            // Replay determinism: the first seed, run again, must
            // reproduce every statistic bit for bit.
            let replay = checked_run(v, scale, fuzz_config(f, sys, threads, mode, seed0));
            let first = first.expect("at least one seed");
            assert_eq!(
                Fingerprint::of(&first),
                Fingerprint::of(&replay),
                "{} under {} mode={} seed={seed0} did not replay identically",
                v.name,
                sys.label(),
                mode.label(),
            );
        }
    }
}

/// The CI smoke gate (see module docs). Everything is asserted; output
/// is only progress reporting.
fn smoke(f: &Flags, scale: u32, sink: &mut JsonSink) {
    let variants = ["genome", "vacation-high"].map(|n| stamp_util::variant(n).expect("registered"));
    let systems = [SystemKind::EagerHtm, SystemKind::LazyStm];
    for mode in [
        SchedMode::MinClock,
        SchedMode::Pct {
            avg_gap: tm::DEFAULT_PCT_GAP,
        },
    ] {
        sweep(f, &variants, &systems, 4, scale, mode, 0, 30, sink);
    }
    // The paper's headline thread count.
    sweep(
        f,
        &variants,
        &systems,
        16,
        scale,
        SchedMode::MinClock,
        0,
        20,
        sink,
    );
    // Byte-identical JSON proof: render the same mini-report twice.
    let render_once = || {
        let mut s = JsonSink::new();
        for v in &variants {
            for &sys in &systems {
                let rep = checked_run(v, scale, fuzz_config(f, sys, 4, SchedMode::MinClock, 1));
                s.push(report_row(v.name, &rep).u64("sched_seed", 1));
            }
        }
        s.render()
    };
    assert_eq!(
        render_once(),
        render_once(),
        "same-seed JSON reports are not byte-identical"
    );
    println!("smoke: all runs sanitizer-clean, replays byte-identical");
}

fn main() {
    let f = bench::cli::parse("schedfuzz");
    let scale: u32 = f.val("scale");
    let threads = f.val("threads");
    let seed0 = f.val("seed0");
    let mut sink = JsonSink::new();

    if f.on("golden") {
        let variants = stamp_util::sim_variants();
        if f.on("check") {
            let mut failed = 0;
            for v in &variants {
                let got = golden::golden_render(v);
                match artifact::check(&golden::golden_name(v), &got, golden::GOLDEN_REGENERATE) {
                    Ok(()) => println!("golden {:<16} OK", v.name),
                    Err(e) => {
                        failed += 1;
                        eprintln!("golden {:<16} MISMATCH\n{e}", v.name);
                    }
                }
            }
            assert!(failed == 0, "{failed} golden file(s) diverged");
            println!("golden: all {} variants match", variants.len());
        } else {
            for v in &variants {
                let path = artifact::write(&golden::golden_name(v), &golden::golden_render(v));
                println!("wrote {}", path.display());
            }
        }
        return;
    }

    if f.on("smoke") {
        smoke(&f, scale.max(64), &mut sink);
    } else {
        let variants = bench::cli::variants(&f);
        let systems: Vec<SystemKind> = f.val("systems");
        let pct_seeds = f.val("pct");
        let sweep_seeds = f.val("sweep");
        if pct_seeds == 0 && sweep_seeds == 0 {
            eprintln!("usage: schedfuzz --smoke | --sweep N | --pct N | --golden [--check]");
            std::process::exit(2);
        }
        if sweep_seeds > 0 {
            let mode = SchedMode::MinClock;
            sweep(
                &f,
                &variants,
                &systems,
                threads,
                scale,
                mode,
                seed0,
                sweep_seeds,
                &mut sink,
            );
        }
        if pct_seeds > 0 {
            let mode = SchedMode::Pct {
                avg_gap: f.val("sched-gap"),
            };
            sweep(
                &f, &variants, &systems, threads, scale, mode, seed0, pct_seeds, &mut sink,
            );
        }
    }

    if let Some(path) = f.opt::<PathBuf>("json") {
        sink.write(path);
    }
}
