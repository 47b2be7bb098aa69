//! Pluggable contention management and adaptive transaction scheduling.
//!
//! §V-A of the paper explicitly invites using STAMP to evaluate
//! contention managers, and its headline pathologies — the genome
//! eager-STM livelock, the vacation-high eager-HTM collapse at 16
//! threads, intruder's HTM non-scaling — are artifacts of the fixed
//! immediate-restart / randomized-linear policies the six systems bake
//! in. This module factors every retry/backoff/priority/stall decision
//! out of the commit protocols behind the [`ContentionManager`] trait,
//! so a policy can be swapped per run without touching the versioning
//! or conflict-detection machinery.
//!
//! Five policies ship, selected by [`CmPolicy`] (the binaries take
//! the names below from `--cm` / `TM_CM`):
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
//! the paper's default for the configured system, reproducing the
//! pre-refactor retry schedules bit-for-bit: same RNG draws, same
//! cycle charges, same eager-HTM priority promotion after
//! `HTM_PRIORITY_AFTER` (32) aborts.
//!
//! All waiting a contention manager induces is charged in *simulated*
//! cycles (backoff via `charge_bucket` so [`crate::prof`] books it to
//! its Backoff bucket, serialization via
//! [`crate::sim::SimMutex::acquire_until`] with a costed spin tick) —
//! never host wall-clock sleeps — so `sim_cycles` remain meaningful
//! and deterministic.

use std::cell::Cell;

use crate::config::TmConfig;
use crate::sim::XorShift64;

/// Cap multiplier for the linearly growing backoff windows: the window
/// stops growing once `retries - after + 1` reaches this value. Real
/// abort traces never get close (the worst livelocks measured are a
/// few thousand consecutive aborts), so the pre-refactor schedule is
/// reproduced exactly on any realistic trace while every policy's
/// window stays provably bounded.
pub const LINEAR_WINDOW_CAP: u32 = 1 << 16;

/// Which contention-management policy a run uses.
///
/// Select with [`crate::TmConfig::cm`] ([`CmPolicy::parse`] lists the
/// accepted names). `None` falls back to the paper's per-system default, see
/// [`crate::TmConfig::effective_cm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmPolicy {
    /// Restart immediately on abort — the paper's HTM design point.
    /// On the eager HTM this includes the 32-abort priority promotion
    /// livelock guard (as do all other policies).
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
    /// abort outcomes (1 for abort, 0 for commit, α = 1/4); when the
    /// EWMA crosses `threshold_permille`/1000, subsequent attempts
    /// are funneled through the global serialization queue so the
    /// hot region executes without wasted aborts. Non-serialized
    /// retries use the paper's randomized linear backoff.
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

    /// Parse a policy name, with default
    /// parameters: `immediate`, `linear`, `exponential`, `karma`,
    /// `adaptive` (aliases: `none`, `randomized-linear`, `exp`,
    /// `ats`, `serialize`).
    pub fn parse(s: &str) -> Option<CmPolicy> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        Some(match norm.as_str() {
            "immediate" | "none" => CmPolicy::Immediate,
            "linear" | "randomizedlinear" | "blin" => CmPolicy::DEFAULT_LINEAR,
            "exponential" | "exp" | "exponentialrandom" => CmPolicy::DEFAULT_EXPONENTIAL,
            "karma" => CmPolicy::DEFAULT_KARMA,
            "adaptive" | "ats" | "serialize" | "adaptiveserialize" => CmPolicy::DEFAULT_ADAPTIVE,
            _ => return None,
        })
    }
}

impl std::fmt::Display for CmPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cross-thread contention-manager state, owned by the runtime global.
///
/// Karma priorities must be visible to conflicting threads (the eager
/// HTM arbitrates encounter-time conflicts by comparing them), so they
/// live here rather than in the per-thread manager instances.
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
}

/// Per-callback view handed to a [`ContentionManager`]: identity of the
/// transaction, its abort count, the work the just-finished attempt
/// performed, the thread's deterministic RNG, and the shared
/// cross-thread state.
#[derive(Debug)]
pub struct CmCtx<'a> {
    /// The executing thread.
    pub tid: usize,
    /// Aborted attempts of the current transaction so far.
    pub retries: u32,
    /// Application cycles the just-finished attempt performed (0 in
    /// [`ContentionManager::on_begin`]).
    pub attempt_work: u64,
    /// Whether the abort being reported was caused by an *injected*
    /// spurious event ([`crate::fault`]) rather than a real data
    /// conflict (always false in `on_begin`/`on_commit`). Policies
    /// that learn contention from abort outcomes must not treat
    /// injected noise as contention.
    pub spurious: bool,
    /// The thread's deterministic backoff RNG. Draw from it only when
    /// a nonzero backoff window is open, or the RNG stream (and thus
    /// every downstream simulated interleaving) diverges from the
    /// fixed-policy engine.
    pub rng: &'a mut XorShift64,
    /// Cross-thread contention-manager state.
    pub shared: &'a CmShared,
}

/// What to do after an aborted attempt, decided by
/// [`ContentionManager::on_abort`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbortAction {
    /// Simulated cycles to back off before retrying.
    pub backoff_cycles: u64,
    /// Request the eager-HTM priority token (no-op on other systems).
    pub request_priority: bool,
}

/// A contention manager: owns every retry/backoff/priority/serialize
/// decision of one thread's transactions.
///
/// One instance exists per logical thread; cross-thread coordination
/// goes through [`CmShared`]. Implementations must be deterministic
/// given the [`CmCtx`] contents (use `ctx.rng` for randomness) — the
/// simulated-cycle results of a run must not depend on host timing.
pub trait ContentionManager {
    /// Label for reports.
    fn name(&self) -> &'static str;

    /// Called as each transaction attempt begins. Return `true` to
    /// funnel this attempt through the global serialization queue
    /// (held for the attempt's whole duration). Must not charge
    /// cycles or draw randomness.
    fn on_begin(&mut self, ctx: &mut CmCtx<'_>) -> bool {
        let _ = ctx;
        false
    }

    /// Called when the attempt commits (`ctx.attempt_work` holds the
    /// committed attempt's application cycles).
    fn on_commit(&mut self, ctx: &mut CmCtx<'_>) {
        let _ = ctx;
    }

    /// Called after an aborted attempt (`ctx.retries >= 1` counts the
    /// abort that just happened). Returns the backoff to apply and
    /// whether to request priority promotion.
    fn on_abort(&mut self, ctx: &mut CmCtx<'_>) -> AbortAction;

    /// The exclusive upper bound of the randomized backoff delay at a
    /// given abort count, as [`ContentionManager::on_abort`] would
    /// compute it in its current state (0 = no backoff, no RNG draw).
    /// Exposed so property tests can check every policy's window is
    /// bounded and monotone-capped in the abort count.
    fn backoff_window(&self, retries: u32) -> u64;

    /// Encounter-time conflict arbitration (eager HTM): whether this
    /// thread should win against every victim in the `victims` bitmask
    /// and doom them, despite not holding the priority token. The
    /// default (all fixed policies) is the paper's requester-loses.
    fn wins_conflict(&self, tid: usize, victims: u32, shared: &CmShared) -> bool {
        let _ = (tid, victims, shared);
        false
    }
}

/// The linearly growing randomized window shared by several policies:
/// `base * (retries - after + 1) + 1`, frozen at [`LINEAR_WINDOW_CAP`]
/// steps. Identical to the pre-refactor schedule for any realistic
/// abort count.
fn linear_window(retries: u32, after: u32, base: u64) -> u64 {
    if retries < after {
        return 0;
    }
    let steps = (retries - after + 1).min(LINEAR_WINDOW_CAP);
    // Saturating throughout: with an extreme `base` the capped product
    // can reach u64::MAX, where a bare `+ 1` would wrap the window to
    // zero (no backoff at the moment of worst contention).
    base.saturating_mul(steps as u64).saturating_add(1)
}

/// Draw a delay from `window` if it is open; zero otherwise (without
/// touching the RNG, to keep default streams bit-identical).
fn draw(window: u64, rng: &mut XorShift64) -> u64 {
    if window == 0 {
        0
    } else {
        rng.below(window)
    }
}

/// Immediate restart (the paper's HTM design point), with the eager-HTM
/// priority promotion guard.
struct Immediate {
    priority_after: u32,
}

impl ContentionManager for Immediate {
    fn name(&self) -> &'static str {
        "immediate"
    }

    fn on_abort(&mut self, ctx: &mut CmCtx<'_>) -> AbortAction {
        AbortAction {
            backoff_cycles: 0,
            request_priority: ctx.retries >= self.priority_after,
        }
    }

    fn backoff_window(&self, _retries: u32) -> u64 {
        0
    }
}

/// Randomized linear backoff (the paper's STM/hybrid policy).
struct RandomizedLinear {
    after: u32,
    base: u64,
    priority_after: u32,
}

impl ContentionManager for RandomizedLinear {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn on_abort(&mut self, ctx: &mut CmCtx<'_>) -> AbortAction {
        AbortAction {
            backoff_cycles: draw(self.backoff_window(ctx.retries), ctx.rng),
            request_priority: ctx.retries >= self.priority_after,
        }
    }

    fn backoff_window(&self, retries: u32) -> u64 {
        linear_window(retries, self.after, self.base)
    }
}

/// Randomized exponential backoff.
struct ExponentialRandom {
    after: u32,
    base: u64,
    max_exp: u32,
    priority_after: u32,
}

impl ContentionManager for ExponentialRandom {
    fn name(&self) -> &'static str {
        "exponential"
    }

    fn on_abort(&mut self, ctx: &mut CmCtx<'_>) -> AbortAction {
        AbortAction {
            backoff_cycles: draw(self.backoff_window(ctx.retries), ctx.rng),
            request_priority: ctx.retries >= self.priority_after,
        }
    }

    fn backoff_window(&self, retries: u32) -> u64 {
        if retries < self.after {
            return 0;
        }
        let exp = (retries - self.after).min(self.max_exp);
        self.base
            .saturating_mul(1u64 << exp.min(40))
            .saturating_add(1)
    }
}

/// Karma: priority is the work invested across aborted attempts.
struct Karma {
    base: u64,
    priority_after: u32,
}

/// Karma's non-leader backoff stops growing after this many aborts.
const KARMA_WINDOW_CAP_STEPS: u32 = 64;

impl ContentionManager for Karma {
    fn name(&self) -> &'static str {
        "karma"
    }

    fn on_abort(&mut self, ctx: &mut CmCtx<'_>) -> AbortAction {
        // The aborted attempt's work is invested, not lost: it raises
        // this transaction's priority for the next conflict.
        ctx.shared.add_karma(ctx.tid, ctx.attempt_work.max(1));
        let backoff_cycles = if ctx.shared.is_karma_leader(ctx.tid) {
            0 // the leader retries immediately; everyone else yields
        } else {
            draw(self.backoff_window(ctx.retries), ctx.rng)
        };
        AbortAction {
            backoff_cycles,
            request_priority: ctx.retries >= self.priority_after,
        }
    }

    fn on_commit(&mut self, ctx: &mut CmCtx<'_>) {
        ctx.shared.reset_karma(ctx.tid);
    }

    fn backoff_window(&self, retries: u32) -> u64 {
        self.base
            .saturating_mul(retries.min(KARMA_WINDOW_CAP_STEPS) as u64)
            .saturating_add(1)
    }

    fn wins_conflict(&self, tid: usize, victims: u32, shared: &CmShared) -> bool {
        let mine = shared.karma(tid);
        if mine == 0 {
            return false;
        }
        let mut mask = victims;
        while mask != 0 {
            let v = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if shared.karma(v) >= mine {
                return false;
            }
        }
        true
    }
}

/// ATS-style adaptive serialization: an EWMA of abort outcomes decides
/// when a thread's transactions go through the serialization queue.
struct AdaptiveSerialize {
    /// Contention-intensity EWMA in per-mille fixed point (integer
    /// arithmetic keeps the policy bit-deterministic across hosts).
    ewma_permille: u64,
    threshold_permille: u64,
    after: u32,
    base: u64,
    priority_after: u32,
}

/// EWMA weight α = `ALPHA_NUM / ALPHA_DEN` = 1/4.
const ALPHA_NUM: u64 = 1;
/// See [`ALPHA_NUM`].
const ALPHA_DEN: u64 = 4;

impl AdaptiveSerialize {
    fn update(&mut self, aborted: bool) {
        let signal = if aborted { 1000 } else { 0 };
        // ewma += α (signal - ewma), in integer per-mille.
        self.ewma_permille = self.ewma_permille + (ALPHA_NUM * signal) / ALPHA_DEN
            - (ALPHA_NUM * self.ewma_permille) / ALPHA_DEN;
    }
}

impl ContentionManager for AdaptiveSerialize {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn on_begin(&mut self, _ctx: &mut CmCtx<'_>) -> bool {
        self.ewma_permille > self.threshold_permille
    }

    fn on_commit(&mut self, _ctx: &mut CmCtx<'_>) {
        self.update(false);
    }

    fn on_abort(&mut self, ctx: &mut CmCtx<'_>) -> AbortAction {
        // Injected (spurious) aborts carry no contention signal: bumping
        // the EWMA on them would serialize the whole run in response to
        // noise. Real conflicts alone move the estimate.
        if !ctx.spurious {
            self.update(true);
        }
        let backoff_cycles = if self.ewma_permille > self.threshold_permille {
            0 // the next attempt serializes; backoff would only idle
        } else {
            draw(self.backoff_window(ctx.retries), ctx.rng)
        };
        AbortAction {
            backoff_cycles,
            request_priority: ctx.retries >= self.priority_after,
        }
    }

    fn backoff_window(&self, retries: u32) -> u64 {
        linear_window(retries, self.after, self.base)
    }
}

/// Number of aborts after which an eager-HTM transaction is promoted
/// to high priority: the paper's livelock guard.
const HTM_PRIORITY_AFTER: u32 = 32;

/// Instantiate the per-thread contention manager for a configuration.
///
/// The priority-promotion guard (`HTM_PRIORITY_AFTER`, the paper's
/// 32-abort livelock valve) applies under every policy on a system whose
/// row has a priority token (the eager HTM); elsewhere promotion never
/// triggers.
pub fn make_cm(policy: CmPolicy, config: &TmConfig) -> Box<dyn ContentionManager> {
    let priority_after = if config.system.props().priority_token {
        HTM_PRIORITY_AFTER
    } else {
        u32::MAX
    };
    match policy {
        CmPolicy::Immediate => Box::new(Immediate { priority_after }),
        CmPolicy::RandomizedLinear { after, base } => Box::new(RandomizedLinear {
            after,
            base,
            priority_after,
        }),
        CmPolicy::ExponentialRandom {
            after,
            base,
            max_exp,
        } => Box::new(ExponentialRandom {
            after,
            base,
            max_exp,
            priority_after,
        }),
        CmPolicy::Karma { base } => Box::new(Karma {
            base,
            priority_after,
        }),
        CmPolicy::AdaptiveSerialize { threshold_permille } => Box::new(AdaptiveSerialize {
            ewma_permille: 0,
            threshold_permille: threshold_permille as u64,
            after: 3,
            base: 200,
            priority_after,
        }),
    }
}

impl std::fmt::Debug for dyn ContentionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContentionManager({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;

    fn ctx_parts() -> (XorShift64, CmShared) {
        (XorShift64::new(42), CmShared::new(4))
    }

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
        assert_eq!(CmPolicy::parse("ATS"), Some(CmPolicy::DEFAULT_ADAPTIVE));
        assert_eq!(CmPolicy::parse("none"), Some(CmPolicy::Immediate));
        assert_eq!(CmPolicy::parse("bogus"), None);
    }

    #[test]
    fn immediate_never_draws_or_backs_off() {
        let cfg = TmConfig::new(SystemKind::EagerHtm, 2);
        let mut cm = make_cm(CmPolicy::Immediate, &cfg);
        let (mut rng, shared) = ctx_parts();
        let before = rng.clone().next_u64();
        for retries in 1..100 {
            let act = cm.on_abort(&mut CmCtx {
                tid: 0,
                retries,
                attempt_work: 10,
                spurious: false,
                rng: &mut rng,
                shared: &shared,
            });
            assert_eq!(act.backoff_cycles, 0);
            assert_eq!(act.request_priority, retries >= 32);
        }
        assert_eq!(rng.next_u64(), before, "Immediate must not draw");
    }

    #[test]
    fn linear_window_matches_pre_refactor_formula() {
        let cfg = TmConfig::new(SystemKind::LazyStm, 2);
        let cm = make_cm(CmPolicy::DEFAULT_LINEAR, &cfg);
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
        let cfg = TmConfig::new(SystemKind::EagerHtm, 3);
        let cm = make_cm(CmPolicy::DEFAULT_KARMA, &cfg);
        assert!(cm.wins_conflict(1, 0b001, &shared), "400 beats 100");
        assert!(!cm.wins_conflict(1, 0b100, &shared), "ties lose");
        assert!(!cm.wins_conflict(0, 0b010, &shared));
    }

    #[test]
    fn adaptive_serializes_under_sustained_aborts_and_recovers() {
        let cfg = TmConfig::new(SystemKind::EagerHtm, 2);
        let mut cm = make_cm(CmPolicy::DEFAULT_ADAPTIVE, &cfg);
        let (mut rng, shared) = ctx_parts();
        let mut ctx = CmCtx {
            tid: 0,
            retries: 1,
            attempt_work: 10,
            spurious: false,
            rng: &mut rng,
            shared: &shared,
        };
        assert!(!cm.on_begin(&mut ctx), "calm start runs concurrently");
        for _ in 0..6 {
            cm.on_abort(&mut ctx);
        }
        assert!(cm.on_begin(&mut ctx), "abort storm triggers serialization");
        for _ in 0..12 {
            cm.on_commit(&mut ctx);
        }
        assert!(!cm.on_begin(&mut ctx), "commits decay the EWMA back down");
    }

    #[test]
    fn every_policy_window_is_bounded() {
        let cfg = TmConfig::new(SystemKind::LazyStm, 2);
        for p in CmPolicy::ALL {
            let cm = make_cm(p, &cfg);
            let cap = cm.backoff_window(u32::MAX);
            for r in [0u32, 1, 3, 10, 1000, 1 << 20, u32::MAX] {
                assert!(cm.backoff_window(r) <= cap.max(1), "{p} window unbounded");
            }
        }
    }
}
