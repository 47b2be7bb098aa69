//! Acceptance tests for the `tm::verify` sanitizer across the full
//! STAMP matrix: every Table IV variant on every TM system must come
//! back with a clean serializability report at smoke scale, and the
//! seeded engine mutations must be detected on real applications.

use bench::{checked_run, run_variant};
use stamp::tm::verify::reference;
use stamp::tm::{MutationHook, SystemKind, TmConfig, Violation, DEFAULT_SCHED_SEED};
use stamp::util::{sim_variants, AppReport, Variant};

/// All 20 simulator-sized variants (scaled down) on all six TM systems
/// at 4 and 16 threads (the paper's largest machine), with the
/// sanitizer recording every committed transaction: the
/// direct-serialization graph must be acyclic and every runtime check
/// (dirty reads, unstable reads, bypassed writes, early release) clean,
/// and every app's own verification must pass.
#[test]
fn all_variants_all_systems_are_serializable() {
    for threads in [4, 16] {
        for v in sim_variants() {
            for sys in SystemKind::ALL_TM {
                let cfg = TmConfig::new(sys, threads).verify(true);
                let rep = checked_run(&v, 64, cfg);
                let verify = rep.run.verify.as_ref().expect("verify enabled");
                assert!(
                    verify.cost.txns_checked > 0,
                    "{} under {sys} at {threads} threads: sanitizer saw no transactions",
                    v.name
                );
            }
        }
    }
}

/// `run` `v` at `scale` under `cfg`, with every sanitizer finalize of
/// the run checked against the reference algorithm on the same
/// committed logs: same report text (violations, their order, the cycle
/// witness), same edge and transaction counts. Returns the app's report.
fn run_against_reference(
    run: fn(&Variant, u32, TmConfig) -> AppReport,
    v: &Variant,
    scale: u32,
    cfg: TmConfig,
) -> AppReport {
    let label = format!("{} threads={}", cfg.system, cfg.threads);
    let (rep, pairs) = reference::compare(|| run(v, scale, cfg));
    assert!(!pairs.is_empty(), "{label}: no finalize ran");
    for (new, old) in &pairs {
        assert_eq!(new.to_string(), old.to_string(), "{label}");
        assert_eq!(new.cost.edges, old.cost.edges, "{label}");
        assert_eq!(new.cost.txns_checked, old.cost.txns_checked, "{label}");
    }
    rep
}

/// `finalize` agrees with the previous algorithm on clean runs of four
/// apps on every TM system at 4 and 16 threads, and on the mutation
/// runs whose reports carry serialization cycles. Neither mutation
/// produces a dirty read on these runs; the unit test
/// `verify::tests::finalize_matches_reference_on_random_histories`
/// compares dirty-read reports.
#[test]
fn finalize_matches_reference_on_app_runs() {
    for name in ["genome", "vacation-high", "labyrinth", "intruder"] {
        let v = stamp::util::variant(name).expect("known variant");
        for threads in [4, 16] {
            for sys in SystemKind::ALL_TM {
                let cfg = TmConfig::new(sys, threads).verify(true);
                run_against_reference(checked_run, &v, 64, cfg);
            }
        }
    }
    let v = stamp::util::variant("vacation-high").expect("known variant");
    let mut cycles = 0;
    for (sys, hook) in [
        (SystemKind::LazyStm, MutationHook::SkipTl2Validation),
        (SystemKind::LazyHybrid, MutationHook::CorruptSignatureHash),
        (SystemKind::EagerHybrid, MutationHook::CorruptSignatureHash),
    ] {
        for sched_seed in [DEFAULT_SCHED_SEED, 1, 2] {
            let cfg = TmConfig::new(sys, 8)
                .verify(true)
                .mutation_hook(hook)
                .sched_seed(sched_seed);
            let rep = run_against_reference(run_variant, &v, 16, cfg);
            let verify = rep.run.verify.as_ref().expect("verify enabled");
            cycles += verify
                .violations
                .iter()
                .filter(|x| matches!(x, Violation::SerializationCycle { .. }))
                .count();
        }
    }
    assert!(cycles > 0, "no mutation run produced a cycle");
}

/// The non-default contention managers must preserve serializability
/// under real contention: a high-contention workload (vacation-high,
/// lightly scaled so transactions actually collide at 8 threads) runs
/// on the conflict-arbitrating `karma` and the queue-serializing
/// `adaptive` policies across the systems that exercise their distinct
/// code paths (eager HTM encounter-time arbitration, lazy STM
/// commit-time validation, lazy hybrid's commit-token interplay), with
/// the sanitizer recording every transaction.
#[test]
fn high_contention_cm_policies_are_serializable() {
    use stamp::tm::CmPolicy;
    let v = stamp::util::variant("vacation-high").expect("known variant");
    for policy in [CmPolicy::DEFAULT_KARMA, CmPolicy::DEFAULT_ADAPTIVE] {
        for sys in [
            SystemKind::EagerHtm,
            SystemKind::LazyStm,
            SystemKind::LazyHybrid,
        ] {
            checked_run(&v, 16, TmConfig::new(sys, 8).verify(true).cm(policy));
        }
    }
}

/// Disabling TL2 commit-time validation must produce a serialization
/// cycle on a small vacation workload — the sanitizer's teeth, on a
/// real application rather than a synthetic counter.
#[test]
fn skipped_validation_is_caught_on_vacation() {
    let v = stamp::util::variant("vacation-high").expect("known variant");
    let mut caught = false;
    // The race needs contending sessions; explore a few scales and
    // scheduler seeds in case one fixed schedule serializes by
    // accident. Each (scale, seed) pair is an exact repro.
    'search: for scale in [16, 8, 4] {
        for sched_seed in [DEFAULT_SCHED_SEED, 1, 2] {
            let cfg = TmConfig::new(SystemKind::LazyStm, 8)
                .verify(true)
                .mutation_hook(MutationHook::SkipTl2Validation)
                .sched_seed(sched_seed);
            let rep = run_variant(&v, scale, cfg);
            let verify = rep.run.verify.as_ref().expect("verify enabled");
            if verify
                .violations
                .iter()
                .any(|x| matches!(x, Violation::SerializationCycle { .. }))
            {
                caught = true;
                break 'search;
            }
        }
    }
    assert!(caught, "sanitizer missed skipped validation on vacation");
}

/// Corrupting a signature hash must be detected on a small application
/// workload under the hybrids, whose conflict detection rests entirely
/// on the signatures. Genome's transactions touch mostly disjoint hash
/// segments, so vacation's contending reservation tables are the
/// workload with actual conflicts to lose.
#[test]
fn corrupted_signature_is_caught_on_vacation() {
    let v = stamp::util::variant("vacation-high").expect("known variant");
    for sys in [SystemKind::LazyHybrid, SystemKind::EagerHybrid] {
        let mut caught = false;
        'search: for scale in [16, 8, 4] {
            for sched_seed in [DEFAULT_SCHED_SEED, 1, 2] {
                let cfg = TmConfig::new(sys, 8)
                    .verify(true)
                    .mutation_hook(MutationHook::CorruptSignatureHash)
                    .sched_seed(sched_seed);
                let rep = run_variant(&v, scale, cfg);
                let verify = rep.run.verify.as_ref().expect("verify enabled");
                if !verify.is_clean() {
                    caught = true;
                    break 'search;
                }
            }
        }
        assert!(caught, "sanitizer missed corrupted signatures under {sys}");
    }
}
