//! Cross-crate integration: every Table IV variant (scaled down) runs
//! and verifies on a sequential baseline and on representative TM
//! systems, through the public APIs re-exported by the `stamp` crate.

use bench::{checked_run, Fingerprint};
use stamp::tm::{SystemKind, TmConfig};
use stamp::util::sim_variants;

/// All 20 simulator-sized variants, heavily scaled, on the sequential
/// system: inputs generate, algorithms run, outputs verify.
#[test]
fn all_variants_verify_sequentially() {
    for v in sim_variants() {
        let rep = checked_run(&v, 32, TmConfig::sequential());
        assert!(rep.run.stats.commits > 0, "{} ran no transactions", v.name);
    }
}

/// Every variant on the two headline systems with 4 threads.
#[test]
fn all_variants_verify_on_lazy_systems() {
    for v in sim_variants() {
        for sys in [SystemKind::LazyHtm, SystemKind::LazyStm] {
            checked_run(&v, 32, TmConfig::new(sys, 4));
        }
    }
}

/// One variant per application on every system at 8 threads — the full
/// cross-product the harness exercises, in miniature.
#[test]
fn app_cross_system_matrix() {
    let picks = [
        "bayes",
        "genome",
        "intruder",
        "kmeans-low",
        "labyrinth",
        "ssca2",
        "vacation-high",
        "yada",
    ];
    for name in picks {
        let v = stamp::util::variant(name).expect("known variant");
        for sys in SystemKind::ALL_TM {
            checked_run(&v, 32, TmConfig::new(sys, 8));
        }
    }
}

/// Determinism: the same variant + seed produces an identical
/// sequential run (the harness depends on a stable baseline).
#[test]
fn sequential_baseline_is_deterministic() {
    for name in ["kmeans-high", "ssca2", "genome"] {
        let v = stamp::util::variant(name).unwrap();
        let a = Fingerprint::of(&checked_run(&v, 16, TmConfig::sequential()));
        let b = Fingerprint::of(&checked_run(&v, 16, TmConfig::sequential()));
        assert_eq!(a, b, "{name} baseline not deterministic");
    }
}
