//! Byte-stability tests for the `results/table4.json` characterization
//! artifact (see `bench::table4`).
//!
//! Like the golden cycle-count files, every Table IV row is measured
//! under the deterministic scheduler with all seeds pinned, so the
//! checked-in artifact is byte-for-byte reproducible on any host — and
//! every re-measurement re-asserts the profiler's accounting invariant
//! (the six cycle buckets sum exactly to each thread's clock).
//!
//! * `table4_genome_rows_match_artifact` runs in the default
//!   `cargo test` pass — one representative application keeps tier 1
//!   fast while still catching accidental drift in the cost model, the
//!   scheduler, or the profiler's attribution.
//! * `table4_artifact_matches_full_rerun` is the full tier-2 check over
//!   all eight base applications × six systems; run it with
//!   `cargo test --release --test table4 -- --ignored`.
//!
//! After an *intentional* engine change, regenerate the artifact with
//! `cargo run --release -p bench --bin table4 -- --write` and commit
//! the diff alongside the change.

use bench::table4::{
    table4_config, table4_pinned_render, table4_row, TABLE4_ARTIFACT, TABLE4_REGENERATE,
    TABLE4_SCALE, TABLE4_THREADS,
};
use bench::{artifact, checked_run};
use tm::SystemKind;

#[test]
fn table4_genome_rows_match_artifact() {
    let path = artifact::path(TABLE4_ARTIFACT);
    let artifact = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (regenerate with table4 --write)", path.display()));
    let v = stamp_util::variant("genome").expect("known variant");
    for sys in SystemKind::ALL_TM {
        let rep = checked_run(&v, TABLE4_SCALE, table4_config(sys, TABLE4_THREADS));
        let row = table4_row(&v, TABLE4_SCALE, &rep).render();
        assert!(
            artifact.contains(&row),
            "genome row under {} diverged from results/table4.json\n  now: {row}\n\
             If the engine change is intentional, regenerate with:\n{TABLE4_REGENERATE}",
            sys.label()
        );
    }
}

#[test]
#[ignore = "tier-2: full re-measurement of results/table4.json (all 8 apps x 6 systems)"]
fn table4_artifact_matches_full_rerun() {
    artifact::check(TABLE4_ARTIFACT, &table4_pinned_render(), TABLE4_REGENERATE)
        .unwrap_or_else(|e| panic!("{e}"));
}
