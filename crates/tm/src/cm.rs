//! Contention management: a run's retry policy, as a value.
//!
//! §V-A of the paper explicitly invites using STAMP to evaluate
//! contention managers, and its headline pathologies — the genome
//! eager-STM livelock, the vacation-high eager-HTM collapse at 16
//! threads, intruder's HTM non-scaling — are artifacts of the fixed
//! immediate-restart / randomized-linear policies the six systems bake
//! in. A [`CmPolicy`] is a plain value held by each thread; the engine
//! makes each retry decision with one `match` on it — whether an
//! attempt begins serialized, how long to back off after an abort, what
//! a commit resets, and Karma's eager-HTM conflict arbitration — so a
//! policy is swapped per run without touching the versioning or
//! conflict-detection machinery.
//!
//! Five policies ship (the binaries take the names below from `--cm` /
//! `TM_CM`):
//!
//! | Name | Policy | Origin |
//! |---|---|---|
//! | `immediate` | [`CmPolicy::Immediate`] | the paper's HTM design point: restart at once |
//! | `linear` | [`CmPolicy::RandomizedLinear`] | the paper's STM/hybrid policy (backoff after 3 aborts) |
//! | `exponential` | [`CmPolicy::ExponentialRandom`] | classic randomized exponential backoff |
//! | `karma` | [`CmPolicy::Karma`] | Scherer & Scott: priority = cumulative work invested |
//! | `adaptive` | [`CmPolicy::AdaptiveSerialize`] | ATS-style: serialize transactions when the abort EWMA spikes |
//!
//! With no policy configured, [`crate::TmConfig::effective_cm`] derives
//! the paper's default for the configured system. The eager HTM's
//! livelock guard — promotion to the priority token after
//! [`HTM_PRIORITY_AFTER`] aborts — is not a policy: the engine decides
//! it in one place after every abort, from the system's row, under
//! whichever policy runs.
//!
//! All waiting a policy induces is charged in *simulated* cycles
//! (backoff via `charge_bucket` so [`crate::prof`] books it to its
//! Backoff bucket, serialization by a costed spin on the commit token)
//! — never host wall-clock sleeps — so `sim_cycles` remain meaningful
//! and deterministic.

use std::cell::Cell;

use crate::sim::XorShift64;

/// Cap multiplier for the linearly growing backoff windows: the window
/// stops growing once `retries - after + 1` reaches this value. Real
/// abort traces never get close (the worst livelocks measured are a
/// few thousand consecutive aborts), so the pre-refactor schedule is
/// reproduced exactly on any realistic trace while every policy's
/// window stays provably bounded.
pub const LINEAR_WINDOW_CAP: u32 = 1 << 16;

/// Karma's non-leader backoff stops growing after this many aborts.
const KARMA_WINDOW_CAP_STEPS: u32 = 64;

/// Number of aborts after which an eager-HTM transaction takes the
/// priority token: the paper's livelock guard. It applies under every
/// policy, on a system whose row has a priority token
/// ([`crate::txn::SystemProps::priority_token`]).
pub const HTM_PRIORITY_AFTER: u32 = 32;

/// Which contention-management policy a run uses.
///
/// Select with [`crate::TmConfig::cm`] ([`CmPolicy::parse`] lists the
/// accepted names). `None` falls back to the paper's per-system default, see
/// [`crate::TmConfig::effective_cm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmPolicy {
    /// Restart immediately on abort — the paper's HTM design point.
    /// The eager HTM's promotion to the priority token after
    /// [`HTM_PRIORITY_AFTER`] aborts is the engine's, not this
    /// policy's: it applies under every policy.
    Immediate,
    /// Randomized linear backoff once a transaction has aborted at
    /// least `after` times — the paper's STM/hybrid policy with
    /// `after == 3`, `base == 200`.
    RandomizedLinear {
        /// Aborts before backoff engages.
        after: u32,
        /// Base delay in cycles; delay is uniform in
        /// `0..base * (retries - after + 1) + 1`.
        base: u64,
    },
    /// Randomized exponential backoff: delay uniform in
    /// `0..base * 2^min(retries - after, max_exp) + 1`.
    ExponentialRandom {
        /// Aborts before backoff engages.
        after: u32,
        /// Base delay in cycles.
        base: u64,
        /// Cap on the exponent.
        max_exp: u32,
    },
    /// Karma (Scherer & Scott, PODC '05 adaptation): a transaction's
    /// priority is the cumulative application work it has invested
    /// across aborted attempts. On the eager HTM the higher-karma
    /// requester wins encounter-time conflicts (dooms the losers);
    /// on every system the current karma leader retries without
    /// backoff while lower-karma transactions back off linearly.
    /// Karma resets to zero on commit.
    Karma {
        /// Base backoff delay in cycles for non-leaders.
        base: u64,
    },
    /// Adaptive transaction scheduling (Yoo & Lee, SPAA '08 style):
    /// each thread tracks its contention intensity as an EWMA of
    /// abort outcomes ([`ewma_step`]); when the EWMA crosses
    /// `threshold_permille`/1000, subsequent attempts are funneled
    /// through the global serialization queue so the hot region
    /// executes without wasted aborts. Non-serialized retries use the
    /// paper's randomized linear backoff.
    AdaptiveSerialize {
        /// EWMA threshold (per-mille) above which attempts serialize.
        threshold_permille: u32,
    },
}

impl CmPolicy {
    /// The paper's STM/hybrid randomized-linear default.
    pub const DEFAULT_LINEAR: CmPolicy = CmPolicy::RandomizedLinear {
        after: 3,
        base: 200,
    };

    /// The default exponential policy used by the ablation sweep.
    pub const DEFAULT_EXPONENTIAL: CmPolicy = CmPolicy::ExponentialRandom {
        after: 3,
        base: 100,
        max_exp: 12,
    };

    /// The default Karma policy.
    pub const DEFAULT_KARMA: CmPolicy = CmPolicy::Karma { base: 200 };

    /// The default adaptive-serialization policy (serialize once more
    /// than half of the recent attempts aborted).
    pub const DEFAULT_ADAPTIVE: CmPolicy = CmPolicy::AdaptiveSerialize {
        threshold_permille: 500,
    };

    /// The five shipped policies with default parameters, in ablation
    /// order.
    pub const ALL: [CmPolicy; 5] = [
        CmPolicy::Immediate,
        CmPolicy::DEFAULT_LINEAR,
        CmPolicy::DEFAULT_EXPONENTIAL,
        CmPolicy::DEFAULT_KARMA,
        CmPolicy::DEFAULT_ADAPTIVE,
    ];

    /// Short label used in reports and accepted by [`CmPolicy::parse`].
    pub fn label(self) -> &'static str {
        match self {
            CmPolicy::Immediate => "immediate",
            CmPolicy::RandomizedLinear { .. } => "linear",
            CmPolicy::ExponentialRandom { .. } => "exponential",
            CmPolicy::Karma { .. } => "karma",
            CmPolicy::AdaptiveSerialize { .. } => "adaptive",
        }
    }

    /// The policy of [`CmPolicy::ALL`] labelled exactly `s`:
    /// `immediate`, `linear`, `exponential`, `karma` or `adaptive`.
    pub fn parse(s: &str) -> Option<CmPolicy> {
        CmPolicy::ALL.into_iter().find(|p| p.label() == s)
    }

    /// The exclusive upper bound of the randomized backoff delay after
    /// `retries` aborts (0 = no backoff, no RNG draw). The adaptive
    /// policy backs off like [`CmPolicy::DEFAULT_LINEAR`] while it does
    /// not serialize; the Karma leader skips its window.
    pub fn backoff_window(self, retries: u32) -> u64 {
        match self {
            CmPolicy::Immediate => 0,
            CmPolicy::RandomizedLinear { after, base } => {
                if retries < after {
                    return 0;
                }
                let steps = (retries - after + 1).min(LINEAR_WINDOW_CAP);
                // Saturating throughout: with an extreme `base` the
                // capped product can reach u64::MAX, where a bare `+ 1`
                // would wrap the window to zero (no backoff at the
                // moment of worst contention).
                base.saturating_mul(steps as u64).saturating_add(1)
            }
            CmPolicy::ExponentialRandom {
                after,
                base,
                max_exp,
            } => {
                if retries < after {
                    return 0;
                }
                let exp = (retries - after).min(max_exp);
                base.saturating_mul(1u64 << exp.min(40)).saturating_add(1)
            }
            CmPolicy::Karma { base } => base
                .saturating_mul(retries.min(KARMA_WINDOW_CAP_STEPS) as u64)
                .saturating_add(1),
            CmPolicy::AdaptiveSerialize { .. } => CmPolicy::DEFAULT_LINEAR.backoff_window(retries),
        }
    }

    /// A delay drawn uniformly below [`CmPolicy::backoff_window`], or 0
    /// without touching `rng` when the window is closed: the stream that
    /// seeds every later randomized decision moves only when a policy
    /// backs off.
    pub fn backoff(self, retries: u32, rng: &mut XorShift64) -> u64 {
        match self.backoff_window(retries) {
            0 => 0,
            window => rng.below(window),
        }
    }

    /// Whether an attempt goes through the global serialization queue,
    /// given its thread's abort EWMA: only the adaptive policy past its
    /// threshold serializes.
    pub fn serializes(self, ewma_permille: u64) -> bool {
        match self {
            CmPolicy::AdaptiveSerialize { threshold_permille } => {
                ewma_permille > u64::from(threshold_permille)
            }
            _ => false,
        }
    }
}

impl std::fmt::Display for CmPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The adaptive policy's contention estimate after one more outcome:
/// `ewma += α (signal - ewma)` with α = 1/4 and signal 1000 for an
/// abort, 0 for a commit, in integer per-mille (integer arithmetic
/// keeps the policy bit-deterministic across hosts).
pub fn ewma_step(ewma_permille: u64, aborted: bool) -> u64 {
    let signal = if aborted { 1000 } else { 0 };
    ewma_permille + signal / 4 - ewma_permille / 4
}

/// Cross-thread contention-manager state, owned by the runtime global.
///
/// Karma priorities must be visible to conflicting threads (the eager
/// HTM arbitrates encounter-time conflicts by comparing them), so they
/// live here rather than with each thread's policy.
#[derive(Debug)]
pub struct CmShared {
    karma: Vec<Cell<u64>>,
}

impl CmShared {
    /// Shared state for `threads` logical processors.
    pub fn new(threads: usize) -> Self {
        CmShared {
            karma: (0..threads).map(|_| Cell::new(0)).collect(),
        }
    }

    /// Thread `tid`'s current karma (cumulative work invested in its
    /// in-flight transaction across aborted attempts).
    pub fn karma(&self, tid: usize) -> u64 {
        self.karma[tid].get()
    }

    /// Credit `work` cycles of invested (and lost) work to `tid`.
    /// Saturating: a transaction that has been retrying long enough to
    /// approach `u64::MAX` invested cycles must pin at maximum
    /// priority, not wrap to zero and lose every future conflict.
    pub fn add_karma(&self, tid: usize, work: u64) {
        let cell = &self.karma[tid];
        cell.set(cell.get().saturating_add(work));
    }

    /// Reset `tid`'s karma (its transaction committed).
    pub fn reset_karma(&self, tid: usize) {
        self.karma[tid].set(0);
    }

    /// Whether `tid` currently holds the maximum karma of all threads
    /// (ties go to the lower tid, so exactly one leader exists).
    pub fn is_karma_leader(&self, tid: usize) -> bool {
        let mine = self.karma(tid);
        if mine == 0 {
            return false;
        }
        self.karma.iter().enumerate().all(|(t, k)| {
            let theirs = k.get();
            theirs < mine || (theirs == mine && t >= tid)
        })
    }

    /// Karma's eager-HTM arbitration: whether `tid` holds strictly more
    /// karma than every thread in the `victims` bitmask (a thread with
    /// no karma outranks nobody).
    pub fn outranks(&self, tid: usize, victims: u32) -> bool {
        let mine = self.karma(tid);
        if mine == 0 {
            return false;
        }
        let mut mask = victims;
        while mask != 0 {
            let v = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.karma(v) >= mine {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn karma_accumulation_saturates_at_max() {
        let shared = CmShared::new(2);
        shared.add_karma(0, u64::MAX - 1);
        shared.add_karma(0, u64::MAX);
        assert_eq!(shared.karma(0), u64::MAX, "karma must pin, not wrap");
        shared.add_karma(0, 1);
        assert_eq!(shared.karma(0), u64::MAX);
        assert_eq!(shared.karma(1), 0, "other threads unaffected");
    }

    #[test]
    fn parse_labels_roundtrip() {
        for p in CmPolicy::ALL {
            assert_eq!(CmPolicy::parse(p.label()), Some(p), "{p}");
        }
        for alias in [
            "ATS",
            "ats",
            "none",
            "blin",
            "exp",
            "serialize",
            "Linear",
            "ran-dom",
        ] {
            assert_eq!(CmPolicy::parse(alias), None, "{alias}");
        }
    }

    #[test]
    fn immediate_never_draws_or_backs_off() {
        let mut rng = XorShift64::new(42);
        let before = rng.clone().next_u64();
        for retries in 1..100 {
            assert_eq!(CmPolicy::Immediate.backoff(retries, &mut rng), 0);
        }
        assert_eq!(rng.next_u64(), before, "Immediate must not draw");
    }

    #[test]
    fn linear_window_matches_pre_refactor_formula() {
        let cm = CmPolicy::DEFAULT_LINEAR;
        assert_eq!(cm.backoff_window(2), 0);
        assert_eq!(cm.backoff_window(3), 200 + 1);
        assert_eq!(cm.backoff_window(7), 200 * 5 + 1);
    }

    #[test]
    fn karma_leader_and_arbitration() {
        let shared = CmShared::new(3);
        shared.add_karma(0, 100);
        shared.add_karma(1, 400);
        shared.add_karma(2, 400);
        assert!(!shared.is_karma_leader(0));
        assert!(shared.is_karma_leader(1), "lowest tid wins the tie");
        assert!(!shared.is_karma_leader(2));
        assert!(shared.outranks(1, 0b001), "400 beats 100");
        assert!(!shared.outranks(1, 0b100), "ties lose");
        assert!(!shared.outranks(0, 0b010));
    }

    #[test]
    fn adaptive_serializes_under_sustained_aborts_and_recovers() {
        let cm = CmPolicy::DEFAULT_ADAPTIVE;
        let mut ewma = 0;
        assert!(!cm.serializes(ewma), "calm start runs concurrently");
        for _ in 0..6 {
            ewma = ewma_step(ewma, true);
        }
        assert!(cm.serializes(ewma), "abort storm triggers serialization");
        for p in CmPolicy::ALL {
            assert_eq!(p.serializes(ewma), p == cm, "{p} serialized");
        }
        for _ in 0..12 {
            ewma = ewma_step(ewma, false);
        }
        assert!(!cm.serializes(ewma), "commits decay the EWMA back down");
    }

    #[test]
    fn every_policy_window_is_bounded() {
        for p in CmPolicy::ALL {
            let cap = p.backoff_window(u32::MAX);
            for r in [0u32, 1, 3, 10, 1000, 1 << 20, u32::MAX] {
                assert!(p.backoff_window(r) <= cap.max(1), "{p} window unbounded");
            }
        }
    }
}
