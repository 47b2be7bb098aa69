//! Shape checks: the robust qualitative claims of the paper's
//! evaluation (§V), asserted on scaled-down workloads. These are the
//! "who wins / which way does the effect point" facts that a correct
//! reproduction must reproduce; EXPERIMENTS.md records the quantitative
//! versions at full scale.

use stamp::tm::{Granularity, SystemKind, TmConfig};
use stamp::util::variant;

/// Table VI / Table III: the time-in-transactions split. kmeans and
/// ssca2 use transactions sporadically; bayes, labyrinth, and yada live
/// inside them. (Measured on the lazy HTM, as in the paper.)
#[test]
fn time_in_transactions_split() {
    let low = ["kmeans-high", "ssca2"];
    let high = ["labyrinth", "yada", "bayes"];
    for name in low {
        let v = variant(name).unwrap();
        let rep = run(&v, 8, SystemKind::LazyHtm, 4);
        assert!(
            rep.run.stats.time_in_txn() < 0.45,
            "{name}: expected sporadic transactions, got {:.0}%",
            rep.run.stats.time_in_txn() * 100.0
        );
    }
    for name in high {
        let v = variant(name).unwrap();
        let rep = run(&v, 8, SystemKind::LazyHtm, 4);
        assert!(
            rep.run.stats.time_in_txn() > 0.60,
            "{name}: expected mostly-transactional execution, got {:.0}%",
            rep.run.stats.time_in_txn() * 100.0
        );
    }
}

/// §V-B4: on kmeans the HTMs beat the STMs clearly (the STM pays
/// per-access barriers; the hybrids land in between).
#[test]
fn kmeans_htm_beats_stm() {
    let v = variant("kmeans-high").unwrap();
    let htm = run(&v, 4, SystemKind::LazyHtm, 8);
    let stm = run(&v, 4, SystemKind::LazyStm, 8);
    let hybrid = run(&v, 4, SystemKind::LazyHybrid, 8);
    assert!(
        (htm.run.sim_cycles as f64) * 1.2 < stm.run.sim_cycles as f64,
        "HTM {} !<< STM {}",
        htm.run.sim_cycles,
        stm.run.sim_cycles
    );
    assert!(
        htm.run.sim_cycles <= hybrid.run.sim_cycles && hybrid.run.sim_cycles <= stm.run.sim_cycles,
        "hybrid not between HTM and STM: {} / {} / {}",
        htm.run.sim_cycles,
        hybrid.run.sim_cycles,
        stm.run.sim_cycles
    );
}

/// §V-B3: intruder's contention hurts the no-backoff eager HTM — it
/// retries far more than the lazy HTM and loses to it.
#[test]
fn intruder_eager_htm_suffers() {
    let v = variant("intruder").unwrap();
    let lazy = run(&v, 4, SystemKind::LazyHtm, 8);
    let eager = run(&v, 4, SystemKind::EagerHtm, 8);
    assert!(
        eager.run.stats.retries_per_txn() > lazy.run.stats.retries_per_txn(),
        "eager {} !> lazy {}",
        eager.run.stats.retries_per_txn(),
        lazy.run.stats.retries_per_txn()
    );
    assert!(
        eager.run.sim_cycles > lazy.run.sim_cycles,
        "eager HTM should lose to lazy HTM under high contention"
    );
}

/// Table VI: vacation's transactions are read-dominated (tree
/// searches): many more read barriers than write barriers.
#[test]
fn vacation_reads_dominate() {
    let v = variant("vacation-low").unwrap();
    let rep = run(&v, 8, SystemKind::LazyStm, 4);
    assert!(
        rep.run.stats.p90_read_barriers() >= 3 * rep.run.stats.p90_write_barriers().max(1),
        "reads {} vs writes {}",
        rep.run.stats.p90_read_barriers(),
        rep.run.stats.p90_write_barriers()
    );
}

/// Table VI: the read/write-set spread spans orders of magnitude —
/// ssca2's sets are tiny, bayes' and labyrinth's large.
#[test]
fn read_set_spread() {
    let small = run(&variant("ssca2").unwrap(), 4, SystemKind::LazyHtm, 4);
    let large = run(&variant("bayes").unwrap(), 4, SystemKind::LazyHtm, 4);
    assert!(small.run.stats.p90_read_lines() <= 12);
    assert!(
        large.run.stats.p90_read_lines() >= 8 * small.run.stats.p90_read_lines().max(1),
        "bayes {} vs ssca2 {}",
        large.run.stats.p90_read_lines(),
        small.run.stats.p90_read_lines()
    );
}

/// §III-B5 / §V-B5: early release is what keeps labyrinth viable on the
/// HTMs — disabling it forces whole-grid read sets (overflow).
#[test]
fn labyrinth_early_release_matters() {
    let params = stamp::util::LabyrinthParams {
        x: 24,
        y: 24,
        z: 2,
        paths: 12,
        seed: 5,
    };
    let input = stamp::labyrinth::generate(&params);
    let (r_on, rep_on) =
        stamp::labyrinth::route_tm_with(&input, TmConfig::new(SystemKind::LazyHtm, 4), true);
    let (r_off, rep_off) =
        stamp::labyrinth::route_tm_with(&input, TmConfig::new(SystemKind::LazyHtm, 4), false);
    assert!(stamp::labyrinth::verify(&input, &r_on));
    assert!(stamp::labyrinth::verify(&input, &r_off));
    // 24*24*2 = 1152 line-padded cells: without release the read set
    // overflows the 512-set x 4-way L1 and execution serializes.
    assert!(
        rep_off.sim_cycles > rep_on.sim_cycles,
        "disabling early release should cost cycles: on={} off={}",
        rep_on.sim_cycles,
        rep_off.sim_cycles
    );
}

/// §V-B1 (ablation): line-granularity conflict detection causes false
/// conflicts that word granularity avoids — the mechanism behind the
/// paper's bayes anomaly. Isolated on a deterministic false-sharing
/// workload: four threads increment four *different* words of one
/// cache line.
#[test]
fn line_granularity_false_conflicts() {
    use stamp::tm::{TmConfig, TmRuntime};
    let run = |g: Granularity| {
        let rt = TmRuntime::new(
            TmConfig::new(SystemKind::LazyStm, 4)
                .stm_granularity(g)
                .quantum(50)
                .seed(21),
        );
        let arr = rt.heap().alloc_array::<u64>(4, 0); // one 32-byte line
        let report = rt.run(|ctx| {
            let slot = ctx.tid() as u64;
            for _ in 0..200 {
                ctx.atomic(|txn| {
                    let v = txn.read_idx(&arr, slot)?;
                    txn.work(30);
                    txn.write_idx(&arr, slot, v + 1)
                });
            }
        });
        for i in 0..4 {
            assert_eq!(rt.heap().load_elem(&arr, i), 200);
        }
        report.stats.retries_per_txn()
    };
    let word = run(Granularity::Word);
    let line = run(Granularity::Line);
    assert!(
        word < 0.05,
        "disjoint words must not conflict at word granularity: {word}"
    );
    assert!(
        line > word + 0.1,
        "false sharing must appear at line granularity: line={line} word={word}"
    );
}

/// Speedup sanity (Figure 1's axes): low-contention apps scale with
/// thread count in simulated time on the lazy HTM.
#[test]
fn speedup_grows_with_threads() {
    let v = variant("ssca2").unwrap();
    let c1 = run(&v, 4, SystemKind::LazyHtm, 1).run.sim_cycles;
    let c4 = run(&v, 4, SystemKind::LazyHtm, 4).run.sim_cycles;
    assert!(
        (c1 as f64) / (c4 as f64) > 2.0,
        "1->4 threads speedup too low: {c1} -> {c4}"
    );
}

fn run(
    v: &stamp::util::Variant,
    scale: u32,
    sys: SystemKind,
    threads: usize,
) -> stamp::util::AppReport {
    bench::checked_run(v, scale, TmConfig::new(sys, threads))
}
