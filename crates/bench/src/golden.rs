//! Golden cycle-count regression files (`results/golden/*.json`).
//!
//! With the deterministic scheduler (`tm::sched`), every (variant,
//! system, threads, seed) configuration produces bit-identical
//! `sim_cycles` and statistics on any host — so the numbers themselves
//! become regression-testable artifacts. One JSON file per figure-1
//! variant holds the rows for all six TM systems at 1/2/4/8 threads,
//! written with [`crate::json`] so a re-run can be compared byte for
//! byte.
//!
//! Workflow:
//!
//! * `cargo run --release -p bench --bin schedfuzz -- --golden` —
//!   (re)generate every golden file after an intentional engine change;
//! * `cargo run --release -p bench --bin schedfuzz -- --golden --check`
//!   — regenerate in memory and diff against the checked-in files;
//! * `cargo test --release --test golden -- --ignored` — the tier-2
//!   test target running the same check;
//! * `tests/golden.rs` also byte-checks one representative variant in
//!   the default (tier-1) test run.

use std::path::{Path, PathBuf};

use stamp_util::Variant;
use tm::{SchedMode, SystemKind, TmConfig};

use crate::json::{report_row, JsonSink};
use crate::run_variant;

/// Workload divisor used for the golden runs (matches the smoke scale
/// used across the test suite).
pub const GOLDEN_SCALE: u32 = 64;

/// Thread counts covered by each golden file.
pub const GOLDEN_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Scheduler seed pinned into every golden run.
pub const GOLDEN_SCHED_SEED: u64 = tm::DEFAULT_SCHED_SEED;

/// The checked-in golden directory (`results/golden/` at the repo
/// root, resolved relative to this crate so tests work from any CWD).
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden")
}

/// The golden file for a variant.
pub fn golden_path(dir: &Path, variant: &Variant) -> PathBuf {
    dir.join(format!("{}.json", variant.name))
}

/// The exact configuration a golden row is measured under: every seed
/// explicit, strict min-clock dispatch, no sanitizer (it cannot change
/// `sim_cycles`, but keeping it off makes regeneration fast).
pub fn golden_config(system: SystemKind, threads: usize) -> TmConfig {
    TmConfig::new(system, threads)
        .sched(SchedMode::MinClock)
        .sched_seed(GOLDEN_SCHED_SEED)
        .verify(false)
}

/// Render the golden JSON for one variant: one row per (system,
/// threads), in `SystemKind::ALL_TM` × [`GOLDEN_THREADS`] order.
pub fn golden_render(variant: &Variant) -> String {
    let mut sink = JsonSink::new();
    for sys in SystemKind::ALL_TM {
        for &t in &GOLDEN_THREADS {
            let rep = run_variant(variant, GOLDEN_SCALE, golden_config(sys, t));
            sink.push(
                report_row(variant.name, &rep)
                    .u64("scale", GOLDEN_SCALE as u64)
                    .u64("sched_seed", GOLDEN_SCHED_SEED),
            );
        }
    }
    sink.render()
}

/// Re-run one variant's golden matrix and byte-compare against the
/// checked-in file. `Ok(())` on an exact match; `Err` describes the
/// divergence (first differing line) or a missing file.
pub fn check_variant(dir: &Path, variant: &Variant) -> Result<(), String> {
    let path = golden_path(dir, variant);
    let want = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{}: {e} (regenerate with schedfuzz --golden)",
            path.display()
        )
    })?;
    let got = golden_render(variant);
    if got == want {
        return Ok(());
    }
    let diff = crate::first_difference(&want, &got);
    Err(format!(
        "{} diverged from the checked-in golden run ({diff})\n\
         If the engine change is intentional, regenerate with:\n\
         cargo run --release -p bench --bin schedfuzz -- --golden",
        variant.name
    ))
}

/// Generate (overwrite) the golden file for one variant; returns the
/// path written.
pub fn write_variant(dir: &Path, variant: &Variant) -> PathBuf {
    let path = golden_path(dir, variant);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    std::fs::write(&path, golden_render(variant))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    path
}
