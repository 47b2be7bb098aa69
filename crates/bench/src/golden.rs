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
//! Workflow ([`golden_render`] renders a file's text, and
//! [`crate::artifact`] compares or writes it under [`golden_name`]):
//!
//! * `cargo run --release -p bench --bin schedfuzz -- --golden` —
//!   (re)generate every golden file after an intentional engine change;
//! * `cargo run --release -p bench --bin schedfuzz -- --golden --check`
//!   — regenerate in memory and diff against the checked-in files;
//! * `cargo test --release --test golden -- --ignored` — the tier-2
//!   test target running the same check;
//! * `tests/golden.rs` also byte-checks one representative variant in
//!   the default (tier-1) test run.

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

/// The command that regenerates every golden file.
pub const GOLDEN_REGENERATE: &str = "cargo run --release -p bench --bin schedfuzz -- --golden";

/// A variant's golden file, relative to `results/`.
pub fn golden_name(variant: &Variant) -> String {
    format!("golden/{}.json", variant.name)
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
