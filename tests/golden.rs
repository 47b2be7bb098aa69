//! Golden cycle-count regression tests (tier 2, plus a tier-1 smoke).
//!
//! The deterministic scheduler (`tm::sched`) makes `sim_cycles` and all
//! engine statistics a pure function of (app, variant, system, threads,
//! seed, sched_seed) — so the checked-in `results/golden/*.json` files
//! are byte-for-byte reproducible on any host. These tests re-run the
//! measurements and diff against the files.
//!
//! * `golden_genome_matches` runs in the default `cargo test` pass —
//!   one representative variant keeps tier 1 fast while still catching
//!   accidental cost-model or scheduler drift.
//! * `golden_all_variants_match` is the full tier-2 sweep over all 20
//!   figure-1 variants; run it with
//!   `cargo test --release --test golden -- --ignored`.
//!
//! After an *intentional* engine change, regenerate the files with
//! `cargo run --release -p bench --bin schedfuzz -- --golden` and
//! commit the diff alongside the change.

use bench::artifact;
use bench::golden::{golden_name, golden_render, GOLDEN_REGENERATE};

fn check(v: &stamp_util::Variant) -> Result<(), String> {
    artifact::check(&golden_name(v), &golden_render(v), GOLDEN_REGENERATE)
}

#[test]
fn golden_genome_matches() {
    check(&stamp_util::variant("genome").expect("known variant")).unwrap();
}

#[test]
#[ignore = "tier-2: full 20-variant golden sweep; run with --ignored in release"]
fn golden_all_variants_match() {
    let mut failures = Vec::new();
    for v in stamp_util::sim_variants() {
        match check(&v) {
            Ok(()) => println!("golden {:<16} OK", v.name),
            Err(e) => {
                println!("golden {:<16} MISMATCH", v.name);
                failures.push(e);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden file(s) diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
