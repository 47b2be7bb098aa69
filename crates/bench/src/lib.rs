//! # bench — the STAMP-rs experiment harness
//!
//! One function, [`run_params`], dispatches any Table IV configuration
//! to its application crate; the binaries in `src/bin/` use it to
//! regenerate every table and figure of the paper's evaluation:
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

pub mod cli;
pub mod golden;
pub mod json;
pub mod lint;
pub mod table4;

use stamp_util::{AppParams, AppReport, Variant};
use tm::{SystemKind, TmConfig};

/// Where a re-run's rendering `got` first departs from the checked-in
/// artifact `want`: the first differing line of each, numbered from 1,
/// or a note that one ends before the other.
pub fn first_difference(want: &str, got: &str) -> String {
    want.lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
        .map(|(i, (w, g))| format!("line {}:\n  artifact: {w}\n  now:      {g}", i + 1))
        .unwrap_or_else(|| "files differ in length".to_string())
}

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

/// Run a (possibly scaled) variant.
pub fn run_variant(variant: &Variant, scale: u32, cfg: TmConfig) -> AppReport {
    run_params(&variant.scaled(scale), cfg)
}

/// Pretty fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Speedup table helper: sequential baseline cycles for a variant,
/// under the binary's shared TM flags.
pub fn sequential_cycles(variant: &Variant, scale: u32, f: &stamp_util::Flags) -> u64 {
    let cfg = stamp_util::driver::tm_config(f, SystemKind::Sequential, 1);
    let rep = run_variant(variant, scale, cfg);
    assert!(
        rep.verified,
        "sequential {} failed verification",
        variant.name
    );
    rep.run.sim_cycles
}

/// The six TM systems in Figure 1's legend order.
pub fn figure1_systems() -> [SystemKind; 6] {
    SystemKind::ALL_TM
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

    #[test]
    fn dispatch_covers_every_app() {
        // One tiny run per app through the dispatcher (heavily scaled).
        for v in stamp_util::sim_variants() {
            if v.name.ends_with('+') || v.name.contains("low") || v.name.contains("high+") {
                continue; // one variant per app is enough here
            }
            let rep = run_variant(&v, 64, TmConfig::new(SystemKind::LazyStm, 2));
            assert!(rep.verified, "{} failed", v.name);
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
