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
//!   ([`SchedMode::Pct`]); `--gap G` sets the mean change-point gap.
//! * `--smoke` — the CI gate: 30 seeds × {genome, vacation-high} ×
//!   {eager HTM, lazy STM} × both modes at 4 threads, then 20 seeds of
//!   the same matrix under min-clock at 16 threads, sanitizer on, plus a
//!   byte-identical double-run of the JSON report.
//! * `--golden [--check]` — (re)generate or verify the
//!   `results/golden/*.json` cycle-count regression files (see
//!   [`bench::golden`]).
//!
//! Common flags: `--variants a,b,...`, `--systems eager-htm,...`,
//! `--threads N`, `--scale N`, `--seed0 S` (first seed of a sweep),
//! `--json <path>`.
//!
//! `--faults <spec>` composes fault injection (the `TM_FAULT` grammar,
//! see `tm::fault`) with schedule fuzzing: each run derives its fault
//! seed from the spec's seed and the scheduler seed, so one sweep
//! explores (schedule × fault) space while staying an exact repro.
//! Faulted runs additionally assert the liveness invariants
//! (commits + aborts == attempts, every thread commits).

use bench::json::{report_row, JsonSink};
use bench::{golden, run_variant, selected_variants};
use stamp_util::{AppReport, Args, Variant};
use tm::{FaultConfig, SchedMode, SystemKind, TmConfig};

fn parse_systems(args: &Args) -> Vec<SystemKind> {
    match args.get("systems") {
        None => vec![SystemKind::EagerHtm, SystemKind::LazyStm],
        Some(list) => list
            .split(',')
            .map(|s| {
                SystemKind::parse(s.trim())
                    .unwrap_or_else(|| panic!("unknown system {s:?} in --systems"))
            })
            .collect(),
    }
}

/// Statistics that must be bit-identical between two runs of the same
/// configuration (everything the engine reports except wall time).
#[allow(clippy::type_complexity)]
fn stats_key(rep: &AppReport) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, bool) {
    let s = &rep.run.stats;
    (
        rep.run.sim_cycles,
        s.commits,
        s.aborts,
        s.attempts,
        s.backoff_cycles,
        s.serialized_commits,
        s.priority_wins,
        s.priority_losses,
        s.spurious_aborts,
        s.irrevocable_commits,
        s.watchdog_trips,
        rep.verified,
    )
}

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

/// One fuzz run: sanitizer recording every transaction, one scheduler
/// seed. Panics (with a repro line) on any violation.
#[allow(clippy::too_many_arguments)]
fn fuzz_one(
    v: &Variant,
    sys: SystemKind,
    threads: usize,
    scale: u32,
    mode: SchedMode,
    sched_seed: u64,
    faults: Option<&FaultConfig>,
) -> AppReport {
    let mut cfg = TmConfig::new(sys, threads)
        .verify(true)
        .sched(mode)
        .sched_seed(sched_seed);
    let mut fault_note = String::new();
    if let Some(spec) = faults {
        let fc = fault_at(spec, sched_seed);
        fault_note = format!(" TM_FAULT={}", fc.spec());
        cfg = cfg.fault(fc);
    }
    let rep = run_variant(v, scale, cfg);
    let repro = format!(
        "repro: {} under {} mode={} threads={threads} scale={scale} \
         TM_SCHED_SEED={sched_seed}{fault_note}",
        v.name,
        sys.label(),
        mode.label(),
    );
    let verify = rep.run.verify.as_ref().expect("verify enabled");
    assert!(
        verify.is_clean(),
        "serializability violation!\n{verify}\n{repro}"
    );
    assert!(rep.verified, "app verification failed\n{repro}");
    if faults.is_some() {
        let s = &rep.run.stats;
        assert_eq!(
            s.commits + s.aborts,
            s.attempts,
            "attempt ledger does not balance\n{repro}"
        );
        for (tid, &c) in rep.run.thread_commits.iter().enumerate() {
            assert!(c > 0, "thread {tid} starved (0 commits)\n{repro}");
        }
    }
    rep
}

#[allow(clippy::too_many_arguments)]
fn sweep(
    variants: &[Variant],
    systems: &[SystemKind],
    threads: usize,
    scale: u32,
    mode: SchedMode,
    seed0: u64,
    seeds: u64,
    faults: Option<&FaultConfig>,
    sink: &mut JsonSink,
) {
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
                let rep = fuzz_one(v, sys, threads, scale, mode, seed, faults);
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
                if let Some(spec) = faults {
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
            let replay = fuzz_one(v, sys, threads, scale, mode, seed0, faults);
            let first = first.expect("at least one seed");
            assert_eq!(
                stats_key(&first),
                stats_key(&replay),
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
fn smoke(scale: u32, sink: &mut JsonSink) {
    let variants = selected_variants(&Some(vec!["genome".into(), "vacation-high".into()]));
    let systems = [SystemKind::EagerHtm, SystemKind::LazyStm];
    for mode in [
        SchedMode::MinClock,
        SchedMode::Pct {
            avg_gap: tm::DEFAULT_PCT_GAP,
        },
    ] {
        sweep(&variants, &systems, 4, scale, mode, 0, 30, None, sink);
    }
    // The paper's headline thread count.
    sweep(
        &variants,
        &systems,
        16,
        scale,
        SchedMode::MinClock,
        0,
        20,
        None,
        sink,
    );
    // Byte-identical JSON proof: render the same mini-report twice.
    let render_once = || {
        let mut s = JsonSink::new();
        for v in &variants {
            for &sys in &systems {
                let rep = fuzz_one(v, sys, 4, scale, SchedMode::MinClock, 1, None);
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
    let args = Args::from_env();
    let scale = args.get_u32("scale", 64).max(1);
    let threads = args.get_u64("threads", 4) as usize;
    let seed0 = args.get_u64("seed0", 0);
    let json_path = args.get("json").map(std::path::PathBuf::from);
    let mut sink = JsonSink::new();

    if args.get_bool("golden") {
        let dir = golden::golden_dir();
        let variants = stamp_util::sim_variants();
        if args.get_bool("check") {
            let mut failed = 0;
            for v in &variants {
                match golden::check_variant(&dir, v) {
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
                let path = golden::write_variant(&dir, v);
                println!("wrote {}", path.display());
            }
        }
        return;
    }

    if args.get_bool("smoke") {
        smoke(scale.max(64), &mut sink);
    } else {
        let variants = selected_variants(&args.get("variants").map(|v| {
            v.split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect()
        }));
        let systems = parse_systems(&args);
        let faults = args.get("faults").map(|spec| {
            let fc = FaultConfig::parse(spec).unwrap_or_else(|e| panic!("--faults: {e}"));
            assert!(fc.enabled(), "--faults spec is a no-op: {spec:?}");
            fc
        });
        let pct_seeds = args.get_u64("pct", 0);
        let sweep_seeds = args.get_u64("sweep", 0);
        if pct_seeds == 0 && sweep_seeds == 0 {
            eprintln!("usage: schedfuzz --smoke | --sweep N | --pct N | --golden [--check]");
            std::process::exit(2);
        }
        if sweep_seeds > 0 {
            sweep(
                &variants,
                &systems,
                threads,
                scale,
                SchedMode::MinClock,
                seed0,
                sweep_seeds,
                faults.as_ref(),
                &mut sink,
            );
        }
        if pct_seeds > 0 {
            let gap = args.get_u64("gap", tm::DEFAULT_PCT_GAP).max(1);
            sweep(
                &variants,
                &systems,
                threads,
                scale,
                SchedMode::Pct { avg_gap: gap },
                seed0,
                pct_seeds,
                faults.as_ref(),
                &mut sink,
            );
        }
    }

    if let Some(path) = json_path {
        sink.write(&path);
        eprintln!("wrote {} rows to {}", sink.len(), path.display());
    }
}
