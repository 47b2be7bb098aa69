//! `chaos` — fault-injection robustness sweep (the liveness proof for
//! `tm::fault`).
//!
//! Sweeps fault-rate presets × (scheduler seed, fault seed) pairs ×
//! all six TM systems × {2, 4, 8} threads on one application variant,
//! with the serializability sanitizer recording every transaction.
//! Every run is pass/fail on the robustness invariants:
//!
//! * sanitizer-clean and app-verified (faults never corrupt data);
//! * the attempt ledger balances (`commits + aborts == attempts` — no
//!   transaction is lost or double-counted on any escalation path);
//! * every thread commits at least once (no starvation: the watchdog's
//!   irrevocable-mode escalation is a hard forward-progress guarantee);
//! * the first configuration of every rate preset replays its full
//!   statistics (including the fault counters) bit for bit.
//!
//! The output is a *degradation curve*: per (rate, system, threads),
//! mean simulated cycles against the fault-free baseline, written to
//! `results/chaos.txt` (plus `results/BENCH_chaos.json` rows with
//! `--json`). At the highest rate the sweep additionally asserts that
//! the watchdog tripped somewhere — i.e. the escalation path is
//! actually exercised, not just present.
//!
//! Modes: full sweep (default; 3 rates × 8 seed pairs × 6 systems ×
//! {2,4,8} threads), `--smoke` (2 rates × 30 pairs × 2 systems at 4
//! threads — the CI gate), or `--check`: the full sweep, compared byte
//! for byte with the committed `results/chaos.txt` and
//! `results/BENCH_chaos.json` (written by `--json`), writing nothing
//! and exiting 1 at the first differing row; 80 of its 432 runs commit
//! irrevocably, on every system. `--variants <one>` picks the
//! application (default genome), `--scale N` the workload divisor. The
//! sweep sets every run's scheduler, faults, watchdog and sanitizer
//! itself; only `--cm`, `--prof` and `--trace` (or their `TM_*`
//! variables) reach it.

use std::path::PathBuf;

use bench::json::{report_row, JsonSink};
use bench::{artifact, checked_run, Fingerprint};
use stamp_util::driver::tm_config;
use stamp_util::{AppReport, Flags, Variant};
use tm::{FaultConfig, SchedMode, SystemKind, WatchdogConfig};

/// One point on the fault-rate axis. Rates are per-mille per probe
/// (capacity above 4 lines, interrupt per quantum, signature false
/// positives where signatures exist, commit stalls of 400 cycles).
struct Rate {
    label: &'static str,
    cfg: FaultConfig,
}

fn rates() -> [Rate; 3] {
    let preset = |cap, intr, sigfp, stall| FaultConfig {
        seed: 1, // replaced per run
        capacity_permille: cap,
        capacity_lines: 4,
        interrupt_permille: intr,
        sigfp_permille: sigfp,
        stall_permille: stall,
        stall_cycles: 400,
    };
    [
        Rate {
            label: "low",
            cfg: preset(2, 1, 1, 5),
        },
        Rate {
            label: "med",
            cfg: preset(10, 5, 5, 20),
        },
        Rate {
            label: "high",
            cfg: preset(40, 25, 20, 60),
        },
    ]
}

/// The watchdog the whole sweep runs under: tight enough that the
/// high-rate preset exercises irrevocable mode on real workloads.
const WATCHDOG: WatchdogConfig = WatchdogConfig {
    max_consecutive_aborts: 8,
    max_invested_cycles: 2_000_000,
};

/// Deterministic (sched_seed, fault_seed) pairs; fault seeds nonzero.
fn seed_pairs(n: u64) -> Vec<(u64, u64)> {
    (0..n)
        .map(|i| (i, 0xC4A05u64.wrapping_add(i.wrapping_mul(0x9E37_79B9))))
        .collect()
}

/// Aggregates for one (rate, system, threads) cell of the curve.
#[derive(Default)]
struct Cell {
    runs: u64,
    cycles: u64,
    spurious: u64,
    irrevocable: u64,
    trips: u64,
}

#[allow(clippy::too_many_arguments)]
fn sweep(
    f: &Flags,
    v: &Variant,
    systems: &[SystemKind],
    threads: &[usize],
    scale: u32,
    rate_sel: &[Rate],
    pairs: &[(u64, u64)],
    sink: &mut JsonSink,
    out: &mut String,
) -> u64 {
    let mut high_trips = 0;
    out.push_str(&format!(
        "CHAOS degradation curve — variant={} scale=1/{scale} pairs={} \
         watchdog aborts={},cycles={}\n",
        v.name,
        pairs.len(),
        WATCHDOG.max_consecutive_aborts,
        WATCHDOG.max_invested_cycles,
    ));
    let header = format!(
        "{:<5} {:<12} {:>7} {:>13} {:>13} {:>9} {:>9} {:>6} {:>6}",
        "rate",
        "system",
        "threads",
        "base_cycles",
        "mean_cycles",
        "overhead",
        "spur/run",
        "irrev",
        "trips"
    );
    println!("{header}");
    out.push_str(&header);
    out.push('\n');
    for rate in rate_sel {
        for &sys in systems {
            for &t in threads {
                // Fault-free baseline at the first scheduler seed: the
                // zero-cost-when-off anchor of the curve.
                let pinned = |ss| {
                    tm_config(f, sys, t)
                        .sched(SchedMode::MinClock)
                        .sched_seed(ss)
                };
                let base = checked_run(v, scale, pinned(pairs[0].0));
                // One faulted run: sanitizer on, the sweep's watchdog.
                let faulted = |fs, ss| {
                    let cfg = pinned(ss).verify(true).watchdog(WATCHDOG);
                    checked_run(v, scale, cfg.fault(rate.cfg.with_seed(fs)))
                };
                let mut cell = Cell::default();
                let mut first: Option<AppReport> = None;
                for &(ss, fs) in pairs {
                    let rep = faulted(fs, ss);
                    let s = &rep.run.stats;
                    cell.runs += 1;
                    cell.cycles += rep.run.sim_cycles;
                    cell.spurious += s.spurious_aborts;
                    cell.irrevocable += s.irrevocable_commits;
                    cell.trips += s.watchdog_trips;
                    sink.push(
                        report_row(v.name, &rep)
                            .str("rate", rate.label)
                            .str("faults", &rate.cfg.with_seed(fs).spec())
                            .u64("sched_seed", ss)
                            .u64("fault_seed", fs)
                            .u64("scale", scale as u64)
                            .u64("spurious_aborts", s.spurious_aborts)
                            .u64("irrevocable_commits", s.irrevocable_commits)
                            .u64("watchdog_trips", s.watchdog_trips),
                    );
                    if first.is_none() {
                        first = Some(rep);
                    }
                }
                // Replay determinism: the first pair again, bit for bit.
                let (ss0, fs0) = pairs[0];
                let replay = faulted(fs0, ss0);
                assert_eq!(
                    Fingerprint::of(first.as_ref().expect("at least one pair")),
                    Fingerprint::of(&replay),
                    "{} rate={} threads={t} did not replay identically",
                    sys.label(),
                    rate.label,
                );
                let mean = cell.cycles / cell.runs;
                let overhead = mean as f64 / base.run.sim_cycles as f64 - 1.0;
                let line = format!(
                    "{:<5} {:<12} {:>7} {:>13} {:>13} {:>8.1}% {:>9.1} {:>6} {:>6}",
                    rate.label,
                    sys.label(),
                    t,
                    base.run.sim_cycles,
                    mean,
                    overhead * 100.0,
                    cell.spurious as f64 / cell.runs as f64,
                    cell.irrevocable,
                    cell.trips,
                );
                println!("{line}");
                out.push_str(&line);
                out.push('\n');
                if rate.label == "high" {
                    high_trips += cell.trips;
                }
            }
        }
    }
    high_trips
}

fn main() {
    let f = bench::cli::parse("chaos");
    let check = f.on("check");
    let smoke = f.on("smoke") && !check;
    let scale = f.val("scale");
    let v = &f.val::<Variant>("variants");
    let all_rates = rates();
    let mut sink = JsonSink::new();
    let mut out = String::new();

    if smoke {
        // CI gate: low + high rates, 30 seed pairs, two representative
        // systems (one HTM-family for the sigfp path, one STM) at 4
        // threads. Everything is asserted; trips are reported but not
        // required at this sample size.
        let rate_sel = all_rates
            .into_iter()
            .filter(|r| r.label != "med")
            .collect::<Vec<_>>();
        sweep(
            &f,
            v,
            &[SystemKind::EagerHtm, SystemKind::LazyStm],
            &[4],
            scale,
            &rate_sel,
            &seed_pairs(30),
            &mut sink,
            &mut out,
        );
        println!("chaos --smoke: all runs sanitizer-clean, exact, and live");
    } else {
        let high_trips = sweep(
            &f,
            v,
            &SystemKind::ALL_TM,
            &[2, 4, 8],
            scale,
            &all_rates,
            &seed_pairs(8),
            &mut sink,
            &mut out,
        );
        assert!(
            high_trips > 0,
            "the high fault rate never tripped the watchdog: escalation untested"
        );
        out.push_str(&format!(
            "summary: all runs sanitizer-clean, exact, and live; \
             watchdog trips at high rate: {high_trips}\n"
        ));
        if check {
            let hint =
                "cargo run --release -p bench --bin chaos -- --json results/BENCH_chaos.json";
            let mut failed = false;
            for (name, got) in [("chaos.txt", &out), ("BENCH_chaos.json", &sink.render())] {
                if let Err(e) = artifact::check(name, got, hint) {
                    eprintln!("chaos --check: {e}");
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
            println!(
                "chaos --check: results/chaos.txt and results/BENCH_chaos.json match a re-run"
            );
            return;
        }
        let txt = artifact::write("chaos.txt", &out);
        println!("wrote {}", txt.display());
    }

    if let Some(path) = f.opt::<PathBuf>("json") {
        sink.write(path);
    }
}
