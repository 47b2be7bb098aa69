//! Property-based tests of the engine's building blocks.

use proptest::prelude::*;
use tm::addr::{LineAddr, WordAddr};
use tm::cm::CmPolicy;
use tm::config::Granularity;
use tm::locks::{GlobalClock, LockTable, LockWord};
use tm::signature::{table_v_hashes, SigProbe, Signature};
use tm::verify::find_cycle;
use tm::{SystemKind, TmConfig, XorShift64};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The signature never produces a false negative, for any insert
    /// set and any probe drawn from it.
    #[test]
    fn signature_no_false_negatives(
        lines in prop::collection::vec(0u64..1_000_000, 1..300),
        probe_idx in 0usize..300,
    ) {
        let sig = Signature::new(2048);
        for &l in &lines {
            sig.insert(LineAddr(l));
        }
        let probe = lines[probe_idx % lines.len()];
        prop_assert!(sig.maybe_contains(LineAddr(probe)));
    }

    /// Clearing a signature removes every member.
    #[test]
    fn signature_clear_is_total(lines in prop::collection::vec(0u64..100_000, 1..200)) {
        let sig = Signature::new(1024);
        for &l in &lines {
            sig.insert(LineAddr(l));
        }
        sig.clear();
        prop_assert!(sig.is_empty());
        prop_assert_eq!(sig.popcount(), 0);
    }

    /// Lock-table round trip: lock, observe owner, unlock with a new
    /// version, observe the version — under any address and owner.
    #[test]
    fn lock_table_roundtrip(addr in 4u64..1_000_000, owner in 0usize..32, version in 0u64..1_000_000) {
        let table = LockTable::new(12, Granularity::Word);
        let idx = table.index_of(WordAddr(addr));
        prop_assert_eq!(table.try_lock(idx, owner), Ok(0));
        prop_assert_eq!(table.load(idx), LockWord::Locked { owner });
        // A second lock attempt by anyone fails.
        prop_assert!(table.try_lock(idx, (owner + 1) % 32).is_err());
        table.unlock(idx, version);
        prop_assert_eq!(table.load(idx), LockWord::Unlocked { version });
    }

    /// The sparse lock table behaves exactly like a dense array of lock
    /// words: random lock, unlock and load sequences over the smallest
    /// table give the same results as a `Vec` reference, entry by entry.
    /// The addresses are drawn from the ~1000 that alias into 16
    /// entries, so operations keep meeting each other's entries.
    #[test]
    fn lock_table_matches_dense_reference(
        ops in prop::collection::vec(((0u8..3, 0usize..1 << 16), 0usize..32, 0u64..6), 1..400),
    ) {
        let table = LockTable::new(10, Granularity::Word);
        let pool: Vec<u64> = (0..1 << 16)
            .filter(|&a| table.index_of(WordAddr(a)) < 16)
            .collect();
        let mut dense = vec![LockWord::Unlocked { version: 0 }; table.len()];
        for ((op, pick), owner, version) in ops {
            let idx = table.index_of(WordAddr(pool[pick % pool.len()]));
            let slot = &mut dense[idx as usize];
            match op {
                0 => {
                    let expect = match *slot {
                        LockWord::Unlocked { version } => {
                            *slot = LockWord::Locked { owner };
                            Ok(version)
                        }
                        locked => Err(locked),
                    };
                    prop_assert_eq!(table.try_lock(idx, owner), expect);
                }
                // Only a holder unlocks; version 0 is drawn often.
                1 if matches!(slot, LockWord::Locked { .. }) => {
                    table.unlock(idx, version);
                    *slot = LockWord::Unlocked { version };
                }
                _ => prop_assert_eq!(table.load(idx), *slot),
            }
        }
        for (idx, &word) in dense.iter().enumerate() {
            prop_assert_eq!(table.load(idx as u32), word);
        }
    }

    /// Line granularity maps all four words of a line to one entry;
    /// word granularity almost always separates them.
    #[test]
    fn granularity_mapping(line in 1u64..1_000_000) {
        let line_table = LockTable::new(16, Granularity::Line);
        let base = WordAddr(line * 4);
        let idx = line_table.index_of(base);
        for off in 1..4 {
            prop_assert_eq!(line_table.index_of(base.offset(off)), idx);
        }
        prop_assert_ne!(line_table.index_of(base.offset(4)), idx);
    }

    /// The global clock is strictly monotonic over arbitrary increment
    /// counts.
    #[test]
    fn clock_monotonic(increments in 1usize..2000) {
        let clock = GlobalClock::new();
        let mut last = clock.read();
        for _ in 0..increments {
            let next = clock.increment();
            prop_assert!(next > last);
            last = next;
        }
    }

    /// The sanitizer's cycle detector reports `None` on any DAG: edges
    /// drawn with `from < to` can never close a cycle.
    #[test]
    fn find_cycle_none_on_random_dags(
        n in 2u32..60,
        raw in prop::collection::vec((0u32..60, 0u32..60), 0..200),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .iter()
            .map(|&(a, b)| (a % n, b % n))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        prop_assert!(find_cycle(n as usize, &edges).is_none());
    }

    /// Planting a directed cycle among random DAG edges is always
    /// found, and the returned node sequence traverses real edges.
    #[test]
    fn find_cycle_finds_planted_cycle(
        n in 3u32..60,
        raw in prop::collection::vec((0u32..60, 0u32..60), 0..150),
        cycle_len in 2u32..10,
        start in 0u32..60,
    ) {
        let mut edges: Vec<(u32, u32)> = raw
            .iter()
            .map(|&(a, b)| (a % n, b % n))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        // Plant a cycle over `cycle_len` distinct nodes starting at a
        // random offset (wrapping modulo n keeps the nodes in range).
        let len = cycle_len.min(n);
        let members: Vec<u32> = (0..len).map(|i| (start + i) % n).collect();
        for w in 0..len as usize {
            edges.push((members[w], members[(w + 1) % len as usize]));
        }
        let found = find_cycle(n as usize, &edges).expect("planted cycle missed");
        prop_assert!(found.len() >= 2);
        // Every consecutive pair (wrapping) must be a real edge.
        for i in 0..found.len() {
            let a = found[i];
            let b = found[(i + 1) % found.len()];
            prop_assert!(
                edges.contains(&(a, b)),
                "reported cycle uses non-edge {}->{}", a, b
            );
        }
    }

    /// The four Table V hashes are deterministic and in range for any
    /// line address and any power-of-two signature size.
    #[test]
    fn table_v_hashes_deterministic_and_in_range(
        line in 0u64..u64::MAX / 2,
        bits_log2 in 6u32..14,
    ) {
        let bits = 1u64 << bits_log2;
        let h1 = table_v_hashes(LineAddr(line), bits);
        let h2 = table_v_hashes(LineAddr(line), bits);
        prop_assert_eq!(h1, h2);
        for h in h1 {
            prop_assert!(h < bits);
        }
    }

    /// Masking reduces the Table V hashes exactly as `% bits` does, at
    /// every power-of-two signature size from 64 to 2^16, and a probe
    /// built once tests membership as `maybe_contains` does.
    #[test]
    fn table_v_hashes_mask_equals_modulo(
        line in any::<u64>(),
        members in prop::collection::vec(0u64..1_000_000, 0..64),
    ) {
        let l = line;
        let permuted = (l as u32).wrapping_mul(0x9E37_79B1).rotate_left(13) as u64;
        let permuted16 = (l as u16).wrapping_mul(0x9E37).rotate_left(7) as u64;
        for bits_log2 in 6..=16 {
            let bits = 1u64 << bits_log2;
            let modulo = [l % bits, permuted % bits, (permuted >> 10) % bits, permuted16 % bits];
            prop_assert_eq!(table_v_hashes(LineAddr(line), bits), modulo);
            let sig = Signature::new(bits as usize);
            for &m in &members {
                sig.insert(LineAddr(m));
            }
            let probe = SigProbe::new(LineAddr(line), bits);
            prop_assert_eq!(sig.hits(&probe), sig.maybe_contains(LineAddr(line)));
        }
    }

    /// Membership soundness of the signature against its hash family:
    /// after inserting a set of lines, every member still probes
    /// positive (no false negatives), for any signature size.
    #[test]
    fn table_v_membership_sound(
        lines in prop::collection::vec(0u64..10_000_000, 1..200),
        bits_log2 in 6u32..12,
    ) {
        let sig = Signature::new(1usize << bits_log2);
        for &l in &lines {
            sig.insert(LineAddr(l));
        }
        for &l in &lines {
            prop_assert!(sig.maybe_contains(LineAddr(l)));
        }
    }

    /// Every contention-management policy's backoff window is bounded
    /// (never exceeds its value at the cap) and monotone nondecreasing
    /// in the abort count — no policy can stall a transaction forever
    /// or shrink its window as contention persists.
    #[test]
    fn cm_backoff_window_bounded_and_monotone(
        r1 in 0u32..100_000,
        r2 in 0u32..100_000,
    ) {
        let (lo, hi) = (r1.min(r2), r1.max(r2));
        for policy in CmPolicy::ALL {
            let bound = policy.backoff_window(u32::MAX);
            prop_assert!(
                policy.backoff_window(lo) <= policy.backoff_window(hi),
                "{policy} window not monotone at {lo}..{hi}"
            );
            prop_assert!(
                policy.backoff_window(hi) <= bound,
                "{policy} window exceeds its cap"
            );
        }
    }

    /// Overflow audit of the backoff arithmetic: at extreme retry
    /// counts (far past the 64-step caps) and adversarially large base
    /// delays, every windowed policy saturates at `u64::MAX` instead of
    /// wrapping to zero. Before the saturating `+ 1` fix, a product
    /// landing on `u64::MAX` wrapped the window to 0 — no backoff at
    /// the moment of worst contention.
    #[test]
    fn cm_backoff_window_saturates_past_64_retries(
        retries in 65u32..u32::MAX,
        base in (u64::MAX / 63)..u64::MAX,
    ) {
        let policies = [
            CmPolicy::RandomizedLinear { after: 0, base },
            CmPolicy::ExponentialRandom { after: 0, base, max_exp: u32::MAX },
            CmPolicy::Karma { base },
        ];
        for policy in policies {
            let w = policy.backoff_window(retries);
            // retries >= 65 pushes linear past 65 steps, karma to its
            // 64-step cap, and the exponent to its 40-bit clamp; with
            // base > u64::MAX/64 every product overflows.
            prop_assert!(
                w == u64::MAX,
                "{} window wrapped at retries={} base={}: got {}",
                policy.label(), retries, base, w
            );
            prop_assert!(
                policy.backoff_window(1) <= w,
                "{} window not monotone under saturation", policy.label()
            );
        }
    }

    /// `Immediate` replays the pre-refactor no-backoff schedule on any
    /// abort trace: zero backoff everywhere and no RNG draws (the
    /// stream that seeds every downstream randomized decision stays
    /// bit-identical).
    #[test]
    fn cm_immediate_replays_pre_refactor_none(
        seed in 1u64..u64::MAX,
        trace in prop::collection::vec(1u32..5_000, 1..200),
    ) {
        let mut rng = XorShift64::new(seed);
        for &retries in &trace {
            prop_assert_eq!(CmPolicy::Immediate.backoff(retries, &mut rng), 0);
        }
        let mut fresh = XorShift64::new(seed);
        prop_assert_eq!(rng.next_u64(), fresh.next_u64());
    }

    /// `RandomizedLinear` replays the pre-refactor schedule exactly on
    /// any recorded abort trace: same windows, same RNG draws in the
    /// same order, hence the same delays and the same final RNG state.
    #[test]
    fn cm_linear_replays_pre_refactor_schedule(
        seed in 1u64..u64::MAX,
        after in 0u32..8,
        base in 1u64..2_000,
        trace in prop::collection::vec(1u32..5_000, 1..200),
    ) {
        // The pre-refactor engine, verbatim (txn.rs before tm::cm).
        let mut old_rng = XorShift64::new(seed);
        let old: Vec<u64> = trace
            .iter()
            .map(|&retries| {
                if retries >= after {
                    let window = base * (retries - after + 1) as u64 + 1;
                    old_rng.below(window)
                } else {
                    0
                }
            })
            .collect();
        let cfg = TmConfig::new(SystemKind::LazyStm, 2).cm(CmPolicy::RandomizedLinear { after, base });
        let cm = cfg.effective_cm();
        let mut new_rng = XorShift64::new(seed);
        let new: Vec<u64> = trace
            .iter()
            .map(|&retries| cm.backoff(retries, &mut new_rng))
            .collect();
        prop_assert_eq!(&old, &new);
        prop_assert_eq!(old_rng.next_u64(), new_rng.next_u64());
    }

    /// Same replay equivalence for `ExponentialRandom`, the other
    /// pre-refactor backoff curve.
    #[test]
    fn cm_exponential_replays_pre_refactor_schedule(
        seed in 1u64..u64::MAX,
        after in 0u32..8,
        base in 1u64..2_000,
        max_exp in 0u32..16,
        trace in prop::collection::vec(1u32..5_000, 1..200),
    ) {
        let mut old_rng = XorShift64::new(seed);
        let old: Vec<u64> = trace
            .iter()
            .map(|&retries| {
                if retries >= after {
                    let exp = (retries - after).min(max_exp);
                    let window = base.saturating_mul(1u64 << exp.min(40)) + 1;
                    old_rng.below(window)
                } else {
                    0
                }
            })
            .collect();
        let cfg = TmConfig::new(SystemKind::LazyStm, 2).cm(
            CmPolicy::ExponentialRandom { after, base, max_exp },
        );
        let cm = cfg.effective_cm();
        let mut new_rng = XorShift64::new(seed);
        let new: Vec<u64> = trace
            .iter()
            .map(|&retries| cm.backoff(retries, &mut new_rng))
            .collect();
        prop_assert_eq!(&old, &new);
        prop_assert_eq!(old_rng.next_u64(), new_rng.next_u64());
    }

    /// Word/line address arithmetic: offset distributes over lines.
    #[test]
    fn addr_arithmetic(word in 4u64..1_000_000, off in 0u64..1000) {
        let a = WordAddr(word);
        prop_assert_eq!(a.offset(off).0, word + off);
        prop_assert_eq!(a.line().0, word * 8 / 32);
        let same_line = a.offset(off).line() == a.line();
        prop_assert_eq!(same_line, (word + off) / 4 == word / 4);
    }
}

proptest! {
    // Each case spawns real threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Deterministic replay as a property: for any workload shape,
    /// system, data seed and scheduler seed, two runs of the same
    /// configuration agree on every statistic bit for bit.
    #[test]
    fn equal_sched_seeds_give_equal_stats(
        sys_idx in 0usize..6,
        threads in 2usize..5,
        iters in 10u64..80,
        seed in 1u64..u64::MAX,
        sched_seed in 0u64..u64::MAX,
    ) {
        use tm::{SchedMode, TmRuntime};
        let sys = SystemKind::ALL_TM[sys_idx];
        let run_once = || {
            let cfg = TmConfig::new(sys, threads)
                .seed(seed)
                .sched(SchedMode::MinClock)
                .sched_seed(sched_seed);
            let rt = TmRuntime::new(cfg);
            let cell = rt.heap().alloc_cell(0u64);
            let rep = rt.run(|ctx| {
                for _ in 0..iters {
                    ctx.atomic(|txn| {
                        let v = txn.read(&cell)?;
                        txn.write(&cell, v + 1)
                    });
                }
            });
            let s = &rep.stats;
            (
                rep.sim_cycles,
                s.commits,
                s.aborts,
                s.attempts,
                s.backoff_cycles,
                s.serialized_commits,
                s.priority_wins,
                s.priority_losses,
                rt.heap().load_cell(&cell),
            )
        };
        let a = run_once();
        let b = run_once();
        prop_assert!(a == b, "same-seed replay diverged on {}: {:?} vs {:?}", sys, a, b);
    }

    /// The profiler's accounting invariant as a property: for any
    /// workload shape, system, data seed and scheduler seed, every
    /// simulated cycle lands in exactly one bucket (the six buckets sum
    /// to each thread's clock), profiling charges zero simulated
    /// cycles, and equal seeds replay the entire report — buckets and
    /// conflict table — bit for bit.
    #[test]
    fn prof_buckets_additive_and_replay_deterministic(
        sys_idx in 0usize..6,
        threads in 2usize..5,
        iters in 10u64..80,
        seed in 1u64..u64::MAX,
        sched_seed in 0u64..u64::MAX,
    ) {
        use tm::{ProfBucket, SchedMode, TmRuntime};
        let sys = SystemKind::ALL_TM[sys_idx];
        let run_once = |prof: bool| {
            let cfg = TmConfig::new(sys, threads)
                .seed(seed)
                .sched(SchedMode::MinClock)
                .sched_seed(sched_seed)
                .prof(prof);
            let rt = TmRuntime::new(cfg);
            let cell = rt.heap().alloc_cell(0u64);
            rt.run(|ctx| {
                for _ in 0..iters {
                    ctx.atomic(|txn| {
                        let v = txn.read(&cell)?;
                        txn.work(3);
                        txn.write(&cell, v + 1)
                    });
                    ctx.work(5);
                }
            })
        };
        let plain = run_once(false);
        let a = run_once(true);
        let b = run_once(true);
        let prof = a.prof.as_ref().expect("prof enabled");
        if let Err(e) = prof.check() {
            prop_assert!(false, "{} threads={}: {}", sys, threads, e);
        }
        prop_assert_eq!(prof.total_cycles(), a.stats.cycles_total);
        prop_assert_eq!(prof.bucket(ProfBucket::Backoff), a.stats.backoff_cycles);
        prop_assert!(
            plain.sim_cycles == a.sim_cycles,
            "profiling changed sim_cycles on {}", sys
        );
        prop_assert_eq!(plain.stats.aborts, a.stats.aborts);
        prop_assert!(a.prof == b.prof, "prof report did not replay on {}", sys);
    }

    /// Different scheduler seeds explore different interleavings but
    /// every schedule stays correct: the counter is exact and the
    /// sanitizer finds each run serializable.
    #[test]
    fn different_sched_seeds_stay_sanitizer_clean(
        sys_idx in 0usize..6,
        threads in 2usize..5,
        iters in 10u64..60,
        sched_seed in 0u64..u64::MAX,
    ) {
        use tm::{SchedMode, TmRuntime};
        let sys = SystemKind::ALL_TM[sys_idx];
        let cfg = TmConfig::new(sys, threads)
            .verify(true)
            .sched(SchedMode::MinClock)
            .sched_seed(sched_seed);
        let rt = TmRuntime::new(cfg);
        let cell = rt.heap().alloc_cell(0u64);
        let rep = rt.run(|ctx| {
            for _ in 0..iters {
                ctx.atomic(|txn| {
                    let v = txn.read(&cell)?;
                    txn.write(&cell, v + 1)
                });
            }
        });
        prop_assert_eq!(rt.heap().load_cell(&cell), threads as u64 * iters);
        let verify = rep.verify.as_ref().expect("verify enabled");
        prop_assert!(
            verify.is_clean(),
            "sched_seed={} on {} is not serializable:\n{}",
            sched_seed, sys, verify
        );
    }
}

/// Transactional increments with random per-case thread/iteration
/// shapes: the counter is always exact (atomicity under arbitrary
/// schedules).
#[test]
fn random_shapes_counter() {
    use tm::{SystemKind, TmConfig, TmRuntime};
    let mut seed = 0x5eedu64;
    for _ in 0..6 {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let threads = 1 + (seed >> 20) as usize % 8;
        let iters = 20 + (seed >> 40) % 200;
        let sys = SystemKind::ALL_TM[(seed >> 10) as usize % 6];
        let rt = TmRuntime::new(TmConfig::new(sys, threads).seed(seed));
        let cell = rt.heap().alloc_cell(0u64);
        rt.run(|ctx| {
            for _ in 0..iters {
                ctx.atomic(|txn| {
                    let v = txn.read(&cell)?;
                    txn.write(&cell, v + 1)
                });
            }
        });
        assert_eq!(
            rt.heap().load_cell(&cell),
            threads as u64 * iters,
            "lost update: sys={sys} threads={threads} iters={iters}"
        );
    }
}
