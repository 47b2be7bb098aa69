//! # bench — the STAMP-rs experiment harness
//!
//! Every harness binary and test reaches an application through this
//! crate:
//!
//! * [`run_params`] is the one dispatch from a Table IV configuration
//!   to its application crate ([`run_variant`] scales a variant first
//!   and checks nothing);
//! * [`checked_run`] runs a variant and asserts exactly the oracles its
//!   [`TmConfig`] turns on, panicking with a [`repro`] line;
//! * [`Fingerprint`] is the one key a replay must reproduce;
//! * [`artifact`] compares a re-run with, or writes, a checked-in file
//!   under `results/`.
//!
//! The binaries in `src/bin/` use them to regenerate every table and
//! figure of the paper's evaluation:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table I (benchmark-suite survey) |
//! | `table2` | Table II (application inventory) |
//! | `table3` | Table III (qualitative characteristics, derived from measurement) |
//! | `table4` | Table IV (per-app characterization + `tm::prof` cycle breakdown; `--list` prints the 30 recommended configurations; `--check` byte-verifies `results/table4.json`) |
//! | `table6` | Table VI (transactional characterization; `--working-sets` adds the cache sweep) |
//! | `figure1` | Figure 1 (speedups, 20 variants × 6 systems × 1–16 cores; `--plot` for ASCII charts, `--with-lock` for the lock baseline) |
//! | `ablation_backoff` | §V-B3 (contention management) |
//! | `ablation_granularity` | §V-B1 (word vs line conflict detection) |
//! | `ablation_earlyrelease` | §III-B5/§V-B5 (labyrinth early release) |
//! | `ablation_sigsize` | Table V signatures (hybrid false conflicts) |
//! | `ablation_stall` | eager-HTM requester-aborts vs LogTM-style stalls |
//! | `ablation_bayes_backend` | bayes ADtree vs record-scan sufficient statistics |
//! | `ablation_cm` | §V-A contention management: the five `tm::cm` policies on the high-contention variants |
//! | `schedfuzz` | deterministic-schedule explorer: seed sweeps + PCT adversarial interleavings under the sanitizer, and the `results/golden/` cycle-count regression files; `--fault <spec>` (or `TM_FAULT`) composes fault injection with the seed sweep |
//! | `chaos` | `tm::fault` robustness sweep: fault rates × (sched, fault) seed pairs × all 6 systems, sanitizer + liveness invariants as pass/fail, degradation curve in `results/chaos.txt`; `--check` byte-verifies it and `results/BENCH_chaos.json` |
//!
//! `scripts/reproduce.sh` runs all of them and refreshes `results/`.
//!
//! Each binary's flags are one table in [`cli`] (`--help` lists them);
//! most take `--scale N` to divide the workload for quick runs and
//! `--variants a,b,c` to filter, and print one row per measurement so
//! output can be diffed against EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod artifact;
pub mod cli;
pub mod golden;
pub mod json;
pub mod lint;
pub mod table4;

use stamp_util::{AppParams, AppReport, Variant};
use tm::{CmPolicy, SchedMode, SystemKind, TmConfig, DEFAULT_PCT_GAP};

/// Run one application configuration on one TM configuration.
pub fn run_params(params: &AppParams, cfg: TmConfig) -> AppReport {
    match params {
        AppParams::Bayes(p) => bayes::run(p, cfg),
        AppParams::Genome(p) => genome::run(p, cfg),
        AppParams::Intruder(p) => intruder::run(p, cfg),
        AppParams::Kmeans(p) => kmeans::run(p, cfg),
        AppParams::Labyrinth(p) => labyrinth::run(p, cfg),
        AppParams::Ssca2(p) => ssca2::run(p, cfg),
        AppParams::Vacation(p) => vacation::run(p, cfg),
        AppParams::Yada(p) => yada::run(p, cfg),
    }
}

/// Run a (possibly scaled) variant, asserting nothing about the result.
pub fn run_variant(variant: &Variant, scale: u32, cfg: TmConfig) -> AppReport {
    run_params(&variant.scaled(scale), cfg)
}

/// Run a (possibly scaled) variant and assert exactly the oracles `cfg`
/// turns on:
///
/// * the app's own verification, always;
/// * a clean sanitizer report when `cfg.verify` is set;
/// * [`tm::ProfReport::check`], and profiler clocks equal to
///   `stats.cycles_total`, when `cfg.prof` is set;
/// * a balanced attempt ledger (`commits + aborts == attempts`) and at
///   least one commit on every thread when fault injection is enabled
///   ([`TmConfig::effective_fault`]).
///
/// # Panics
///
/// On any violation, naming every oracle that failed, with the
/// [`repro`] line last.
pub fn checked_run(variant: &Variant, scale: u32, cfg: TmConfig) -> AppReport {
    let rep = run_variant(variant, scale, cfg.clone());
    let mut failures = Vec::new();
    if !rep.verified {
        failures.push(format!("app verification failed ({})", rep.config));
    }
    if cfg.verify {
        let verify = rep.run.verify.as_ref().expect("verify enabled");
        if !verify.is_clean() {
            failures.push(format!("serializability violation\n{verify}"));
        }
    }
    if cfg.prof {
        let prof = rep.run.prof.as_ref().expect("prof enabled");
        failures.extend(prof.check().err());
        if prof.total_cycles() != rep.run.stats.cycles_total {
            failures.push(format!(
                "profiler clocks ({}) disagree with the stats pipeline ({})",
                prof.total_cycles(),
                rep.run.stats.cycles_total
            ));
        }
    }
    if cfg.effective_fault().is_some() {
        let s = &rep.run.stats;
        if s.commits + s.aborts != s.attempts {
            failures.push(format!(
                "attempt ledger does not balance: {} commits + {} aborts != {} attempts",
                s.commits, s.aborts, s.attempts
            ));
        }
        if let Some(tid) = rep.run.thread_commits.iter().position(|&c| c == 0) {
            failures.push(format!("thread {tid} starved (0 commits)"));
        }
    }
    if !failures.is_empty() {
        panic!(
            "{} under {}: {}\n{}",
            variant.name,
            cfg.system,
            failures.join("\n"),
            repro(variant, scale, &cfg)
        );
    }
    rep
}

/// One line that reproduces a run: the variant and scale, then the app
/// binary's command with every setting in which `cfg` differs from
/// [`TmConfig::new`] written as its `TM_*` variable, or as its flag when
/// it has no variable. Settings that only the library can make (say, a
/// mutation hook) follow in brackets.
pub fn repro(variant: &Variant, scale: u32, c: &TmConfig) -> String {
    let d = TmConfig::new(c.system, c.threads);
    let gap = match c.sched {
        SchedMode::Pct { avg_gap } => Some(avg_gap),
        SchedMode::MinClock => None,
    };
    let cm = match c.cm {
        Some(p) if CmPolicy::parse(p.label()) == Some(p) => format!("TM_CM={p}"),
        p => format!("cm={p:?}"),
    };
    let w = c.watchdog.unwrap_or_default();
    let w = format!(
        "aborts={},cycles={}",
        w.max_consecutive_aborts, w.max_invested_cycles
    );
    let settings = [
        (c.quantum != d.quantum, format!("--quantum {}", c.quantum)),
        (c.seed != d.seed, format!("--tm-seed {:#x}", c.seed)),
        (
            c.stm_granularity != d.stm_granularity,
            "--granularity line".into(),
        ),
        (c.cache_sim, "--cache-sim".into()),
        (gap.is_some(), "TM_SCHED=pct".into()),
        (
            gap.is_some_and(|g| g != DEFAULT_PCT_GAP),
            format!("TM_SCHED_GAP={}", gap.unwrap_or(0)),
        ),
        (
            c.sched_seed != d.sched_seed,
            format!("TM_SCHED_SEED={:#x}", c.sched_seed),
        ),
        (c.cm.is_some(), cm),
        (
            c.fault.is_some(),
            format!("TM_FAULT={}", c.fault.unwrap_or_default()),
        ),
        (c.watchdog.is_some(), format!("TM_WATCHDOG={w}")),
        (c.verify, "TM_VERIFY=1".into()),
        (c.prof, "TM_PROF=1".into()),
        (c.l1 != d.l1, format!("l1={:?}", c.l1)),
        (
            c.signature_bits != d.signature_bits,
            format!("signature_bits={}", c.signature_bits),
        ),
        (
            c.htm_conflict != d.htm_conflict,
            format!("htm_conflict={:?}", c.htm_conflict),
        ),
        (
            c.mutation != d.mutation,
            format!("mutation={:?}", c.mutation),
        ),
    ];
    let set = settings.into_iter().filter_map(|(on, s)| on.then_some(s));
    let (env, rest): (Vec<String>, Vec<String>) = set.partition(|s| s.starts_with("TM_"));
    let (flags, library): (Vec<String>, Vec<String>) =
        rest.into_iter().partition(|s| s.starts_with("--"));
    let p = variant.scaled(scale);
    let sys = c.system.label().to_ascii_lowercase().replace(' ', "-");
    let cmd = format!("cargo run --release -p {} -- {}", p.app().name(), p.args());
    let cmd = format!("{cmd} --system {sys} --threads {}", c.threads);
    let words: Vec<String> = env.into_iter().chain([cmd]).chain(flags).collect();
    let mut line = format!("repro: {} scale={scale}: {}", variant.name, words.join(" "));
    if !library.is_empty() {
        line += &format!(" [library only: {}]", library.join(" "));
    }
    line
}

/// Everything a replay of one configuration must reproduce bit for bit:
/// simulated cycles, every [`tm::RunStats`] counter, the per-thread
/// commit counts, the app's result summary and its verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Simulated makespan.
    pub sim_cycles: u64,
    /// Each `RunStats` counter, by name.
    pub counters: [(&'static str, u64); 14],
    /// Committed transactions per thread.
    pub thread_commits: Vec<u64>,
    /// The app's result summary ([`AppReport::config`]).
    pub config: String,
    /// The app's verification verdict.
    pub verified: bool,
}

impl Fingerprint {
    /// The fingerprint of one run.
    pub fn of(rep: &AppReport) -> Fingerprint {
        let s = &rep.run.stats;
        Fingerprint {
            sim_cycles: rep.run.sim_cycles,
            counters: [
                ("attempts", s.attempts),
                ("commits", s.commits),
                ("aborts", s.aborts),
                ("backoff_cycles", s.backoff_cycles),
                ("priority_wins", s.priority_wins),
                ("priority_losses", s.priority_losses),
                ("serialized_commits", s.serialized_commits),
                ("spurious_aborts", s.spurious_aborts),
                ("irrevocable_commits", s.irrevocable_commits),
                ("watchdog_trips", s.watchdog_trips),
                ("cycles_in_txn", s.cycles_in_txn),
                ("cycles_total", s.cycles_total),
                ("mem_accesses", s.mem_accesses),
                ("mem_misses", s.mem_misses),
            ],
            thread_commits: rep.run.thread_commits.clone(),
            config: rep.config.clone(),
            verified: rep.verified,
        }
    }
}

/// Pretty fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Speedup table helper: checked sequential baseline cycles for a
/// variant, under the binary's shared TM flags.
pub fn sequential_cycles(variant: &Variant, scale: u32, f: &stamp_util::Flags) -> u64 {
    let cfg = stamp_util::driver::tm_config(f, SystemKind::Sequential, 1);
    checked_run(variant, scale, cfg).run.sim_cycles
}

/// Render speedup curves as ASCII art (one chart per variant, like the
/// paper's Figure 1 panels): x = processors, y = speedup.
pub fn ascii_speedup_chart(
    title: &str,
    threads: &[usize],
    series: &[(SystemKind, Vec<f64>)],
) -> String {
    const HEIGHT: usize = 12;
    let max = series
        .iter()
        .flat_map(|(_, ys)| ys.iter().copied())
        .fold(1.0f64, f64::max);
    let glyphs = ['E', 'L', 'e', 'l', 's', 'S', 'G'];
    let mut out = format!("{title}\n");
    let cols = threads.len();
    let col_w = 6;
    let mut grid = vec![vec![' '; cols * col_w + 8]; HEIGHT + 1];
    for (si, (_, ys)) in series.iter().enumerate() {
        for (ci, &y) in ys.iter().enumerate() {
            let row = HEIGHT - ((y / max) * HEIGHT as f64).round().min(HEIGHT as f64) as usize;
            let col = 8 + ci * col_w;
            // Offset overlapping points so every series stays visible.
            let mut c = col;
            while grid[row][c] != ' ' && c < col + col_w - 1 {
                c += 1;
            }
            grid[row][c] = glyphs[si % glyphs.len()];
        }
    }
    for (r, line) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{max:>6.1} |")
        } else if r == HEIGHT {
            format!("{:>6.1} |", 0.0)
        } else {
            "       |".to_string()
        };
        let body: String = line.iter().collect();
        out.push_str(&format!("{label}{}\n", body[8..].to_string().trim_end()));
    }
    out.push_str("        ");
    for t in threads {
        out.push_str(&format!("{:-<6}", format!("{t}p")));
    }
    out.push('\n');
    out.push_str("        ");
    for (si, (sys, _)) in series.iter().enumerate() {
        out.push_str(&format!("{}={} ", glyphs[si % glyphs.len()], sys.label()));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_util::driver::{app_rows, tm_config};
    use stamp_util::flags::Table;
    use stamp_util::params::AppArgs;
    use tm::{FaultConfig, MutationHook, WatchdogConfig};

    /// A run whose TL2 validation is skipped (a configuration
    /// `tests/verify_matrix.rs` shows the sanitizer catches) fails inside
    /// `checked_run`, with the sanitizer's report and the scheduler seed
    /// that reproduces it.
    #[test]
    fn checked_run_panics_with_the_sanitizer_report() {
        let v = stamp_util::variant("vacation-high").expect("registered");
        let cfg = TmConfig::new(SystemKind::LazyStm, 8)
            .verify(true)
            .mutation_hook(MutationHook::SkipTl2Validation)
            .sched_seed(1);
        let report = run_variant(&v, 16, cfg.clone())
            .run
            .verify
            .expect("verify on");
        assert!(!report.is_clean());
        let panic = std::panic::catch_unwind(|| checked_run(&v, 16, cfg)).expect_err("no panic");
        let msg = panic.downcast::<String>().expect("formatted message");
        // The report's header carries the finalize's wall time, which
        // no two runs share; every violation line must appear.
        assert!(msg.contains("serializability violation"), "{msg}");
        for violation in &report.violations {
            assert!(msg.contains(&format!("  {violation}\n")), "{msg}");
        }
        assert!(msg.contains("TM_SCHED_SEED="), "{msg}");
        assert!(msg.contains("mutation=SkipTl2Validation"), "{msg}");
    }

    /// The repro line names each setting as the flag or variable that
    /// reproduces it: parsed back through the app binary's flag table,
    /// its `TM_*` variables and flags give the same configuration.
    #[test]
    fn repro_line_reproduces_the_config() {
        let v = stamp_util::variant("genome").expect("registered");
        let cfg = TmConfig::new(SystemKind::EagerHtm, 8)
            .sched(SchedMode::Pct { avg_gap: 25 })
            .sched_seed(99)
            .fault(FaultConfig::parse("seed=3,intr=5").expect("spec"))
            .watchdog(WatchdogConfig::parse("aborts=8").expect("spec"))
            .cm(CmPolicy::DEFAULT_KARMA)
            .quantum(100)
            .verify(true);
        let line = repro(&v, 64, &cfg);
        for needle in [
            "TM_SCHED=pct",
            "TM_SCHED_GAP=25",
            "TM_SCHED_SEED=0x63",
            "TM_FAULT=seed=3,",
            "TM_WATCHDOG=aborts=8,",
            "TM_CM=karma",
            "TM_VERIFY=1",
            "--quantum 100",
        ] {
            assert!(line.contains(needle), "{needle} missing: {line}");
        }
        let (env, args): (Vec<&str>, Vec<&str>) = line
            .split_once("scale=64: ")
            .expect("header")
            .1
            .split_whitespace()
            .filter(|w| !["cargo", "run", "--release", "-p", "genome", "--"].contains(w))
            .partition(|w| w.starts_with("TM_"));
        let env: Vec<(&str, &str)> = env.iter().filter_map(|e| e.split_once('=')).collect();
        let table = Table::new("genome", app_rows(v.app()));
        let f = table
            .parse(args.into_iter().map(String::from), |k| {
                env.iter()
                    .find(|(n, _)| *n == k)
                    .map(|(_, v)| v.to_string())
            })
            .unwrap_or_else(|e| panic!("{line} does not parse: {e:?}"));
        let parsed = tm_config(&f, f.val("system"), f.val("threads"));
        assert_eq!(format!("{parsed:?}"), format!("{cfg:?}"), "{line}");
        let params = AppParams::Genome(stamp_util::GenomeParams::from_flags(&f));
        assert_eq!(params, v.scaled(64));

        let plain = repro(&v, 64, &TmConfig::new(SystemKind::LazyStm, 4));
        assert!(!plain.contains("TM_") && !plain.contains('['), "{plain}");
    }

    #[test]
    fn dispatch_covers_every_app() {
        // One tiny run per app through the dispatcher (heavily scaled).
        for v in stamp_util::sim_variants() {
            if v.name.ends_with('+') || v.name.contains("low") || v.name.contains("high+") {
                continue; // one variant per app is enough here
            }
            checked_run(&v, 64, TmConfig::new(SystemKind::LazyStm, 2));
        }
    }

    #[test]
    fn ascii_chart_renders_all_series() {
        let threads = [1usize, 2, 4];
        let series = vec![
            (SystemKind::LazyHtm, vec![1.0, 2.0, 4.0]),
            (SystemKind::LazyStm, vec![0.5, 1.0, 2.0]),
        ];
        let chart = ascii_speedup_chart("demo", &threads, &series);
        assert!(chart.contains("demo"));
        assert!(chart.contains("1p"));
        assert!(chart.contains("4p"));
        assert!(chart.contains("Lazy HTM"));
        assert!(chart.contains("Lazy STM"));
        // The top row carries the maximum value label.
        assert!(chart.contains("4.0"));
        // Glyphs are positional: series 0 plots as 'E', series 1 as
        // 'L'; both must appear once per thread count in the body.
        assert!(chart.matches('E').count() >= 3);
        assert!(chart.matches('L').count() >= 3);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.071), "7%");
        assert_eq!(pct(1.0), "100%");
        assert_eq!(pct(0.0), "0%");
    }
}
