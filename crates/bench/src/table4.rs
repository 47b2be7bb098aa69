//! Table IV: per-application transactional characterization plus the
//! `tm::prof` cycle breakdown, as a deterministic artifact.
//!
//! The paper's Table IV characterizes each application's transactions
//! (read/write-set sizes, transaction length, time spent in
//! transactions). This module reproduces those columns — and, because
//! the profiler splits every simulated cycle into six exclusive buckets
//! (see [`tm::prof`]), extends each row with *where the cycles went*:
//! useful work, wasted (aborted) work, backoff, TM overhead,
//! serialized-token waits, and barrier waits.
//!
//! Rows cover the eight base applications ([`TABLE4_APPS`]) × the six
//! TM systems at [`TABLE4_THREADS`] threads, measured under the
//! deterministic scheduler with every seed pinned — so the checked-in
//! `results/table4.json` replays byte for byte, exactly like the
//! `results/golden/` files:
//!
//! * `cargo run --release -p bench --bin table4 -- --write` —
//!   (re)generate the artifact after an intentional engine change;
//! * `cargo run --release -p bench --bin table4 -- --check` —
//!   regenerate in memory and byte-compare against the checked-in file.
//!
//! Every run asserts the profiler's hard accounting invariant
//! ([`tm::ProfReport::check`]): per thread, the six buckets sum exactly
//! to the thread's simulated clock.

use std::path::{Path, PathBuf};

use stamp_util::{AppReport, Variant};
use tm::{ProfBucket, SchedMode, SystemKind, TmConfig};

use crate::golden::{GOLDEN_SCALE, GOLDEN_SCHED_SEED};
use crate::json::{report_row, JsonSink, Row};
use crate::run_variant;

/// Workload divisor for the checked-in artifact (matches the golden
/// files, so both regenerate in comparable time).
pub const TABLE4_SCALE: u32 = GOLDEN_SCALE;

/// Thread count for the characterization rows.
pub const TABLE4_THREADS: usize = 4;

/// The eight base applications, in the paper's Table IV order.
pub const TABLE4_APPS: [&str; 8] = [
    "bayes",
    "genome",
    "intruder",
    "kmeans-high",
    "labyrinth",
    "ssca2",
    "vacation-high",
    "yada",
];

/// The base-app variants, looked up from the Table IV registry.
pub fn table4_apps() -> Vec<Variant> {
    TABLE4_APPS
        .iter()
        .map(|n| stamp_util::variant(n).expect("base app registered"))
        .collect()
}

/// The pinned measurement configuration: profiler on, strict min-clock
/// dispatch, the golden scheduler seed.
pub fn table4_config(system: SystemKind, threads: usize) -> TmConfig {
    TmConfig::new(system, threads)
        .sched(SchedMode::MinClock)
        .sched_seed(GOLDEN_SCHED_SEED)
        .prof(true)
}

/// Run one (variant, system) characterization and enforce the
/// profiler's contract: the accounting invariant holds on every thread,
/// the profiler saw the same clocks the stats pipeline aggregated, and
/// the application's own verification passed.
///
/// # Panics
///
/// Panics with a repro description on any violation — a failure here is
/// an engine accounting bug, not a measurement artifact.
pub fn characterize(v: &Variant, scale: u32, system: SystemKind, threads: usize) -> AppReport {
    let rep = run_variant(v, scale, table4_config(system, threads));
    let repro = format!(
        "{} under {} threads={threads} scale={scale} TM_SCHED_SEED={GOLDEN_SCHED_SEED}",
        v.name,
        system.label()
    );
    let prof = rep.run.prof.as_ref().expect("prof enabled");
    prof.check().unwrap_or_else(|e| panic!("{repro}: {e}"));
    assert_eq!(
        prof.total_cycles(),
        rep.run.stats.cycles_total,
        "{repro}: profiler clocks disagree with the stats pipeline"
    );
    assert!(rep.verified, "{repro}: app verification failed");
    rep
}

/// One JSON row: the shared report fields, the Table IV
/// characterization columns, and the six-bucket cycle breakdown.
pub fn table4_row(v: &Variant, scale: u32, rep: &AppReport) -> Row {
    let stats = &rep.run.stats;
    let prof = rep.run.prof.as_ref().expect("prof enabled");
    let mut row = report_row(v.name, rep)
        .u64("scale", scale as u64)
        .u64("sched_seed", GOLDEN_SCHED_SEED)
        .f64("mean_read_lines", stats.mean_read_lines())
        .u64("max_read_lines", stats.max_read_lines() as u64)
        .f64("mean_write_lines", stats.mean_write_lines())
        .u64("max_write_lines", stats.max_write_lines() as u64)
        .f64("mean_txn_len", stats.mean_txn_len())
        .u64("max_txn_len", stats.max_txn_len())
        .f64("time_in_txn", stats.time_in_txn());
    for b in ProfBucket::ALL {
        row = row.u64(&format!("cycles_{}", b.key()), prof.bucket(b));
    }
    let top = prof.hot_lines.first();
    row.u64("thread_cycles", prof.total_cycles())
        .u64("conflict_events", prof.conflict_events())
        .str(
            "hot_line",
            &top.map(|h| format!("{:#x}", h.line))
                .unwrap_or_else(|| "-".into()),
        )
        .u64("hot_line_events", top.map(|h| h.events).unwrap_or(0))
}

/// Render the JSON artifact: one row per variant × system, in
/// `variants` × [`SystemKind::ALL_TM`] order.
pub fn table4_render(variants: &[Variant], scale: u32, threads: usize) -> String {
    let mut sink = JsonSink::new();
    for v in variants {
        for sys in SystemKind::ALL_TM {
            let rep = characterize(v, scale, sys, threads);
            sink.push(table4_row(v, scale, &rep));
        }
    }
    sink.render()
}

/// The checked-in artifact (`results/table4.json` at the repo root,
/// resolved relative to this crate so tests work from any CWD).
pub fn table4_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/table4.json")
}

fn pinned_render() -> String {
    table4_render(&table4_apps(), TABLE4_SCALE, TABLE4_THREADS)
}

/// Re-run the pinned configuration and byte-compare against the
/// checked-in `results/table4.json`. `Ok(())` on an exact match; `Err`
/// describes the divergence (first differing line) or a missing file.
///
/// # Errors
///
/// Returns the first divergent line, or the read error for a missing
/// artifact.
pub fn check_table4() -> Result<(), String> {
    let path = table4_path();
    let want = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (regenerate with table4 --write)", path.display()))?;
    let got = pinned_render();
    if got == want {
        return Ok(());
    }
    let diff = crate::first_difference(&want, &got);
    Err(format!(
        "results/table4.json diverged from a re-run ({diff})\n\
         If the engine change is intentional, regenerate with:\n\
         cargo run --release -p bench --bin table4 -- --write"
    ))
}

/// Generate (overwrite) `results/table4.json`; returns the path
/// written.
pub fn write_table4() -> PathBuf {
    let path = table4_path();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| panic!("creating {}: {e}", parent.display()));
    }
    std::fs::write(&path, pinned_render())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    path
}
