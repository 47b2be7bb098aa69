//! Runtime configuration: which TM system to model, how many logical
//! processors, and the machine cost model of Table V.

use crate::cm::CmPolicy;
use crate::fault::{FaultConfig, WatchdogConfig};
use crate::sched::{SchedMode, DEFAULT_SCHED_SEED};

/// The six TM system designs evaluated in the STAMP paper (§IV), plus a
/// sequential baseline used for speedup normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Uninstrumented single-thread execution; the baseline of Figure 1.
    Sequential,
    /// TCC-style HTM: lazy versioning in cache, commit-time conflict
    /// detection at line granularity via coherence, overflow serializes
    /// transaction execution, immediate restart with no backoff.
    LazyHtm,
    /// LogTM-style HTM: eager versioning (undo log), encounter-time
    /// conflict detection at line granularity, requester loses, no
    /// backoff, priority promotion after 32 aborts, overflowed addresses
    /// tracked in a 2048-bit Bloom filter (false positives possible).
    EagerHtm,
    /// TL2: lazy versioning in a software write buffer, commit-time
    /// locking, word-granularity conflict detection, randomized linear
    /// backoff after 3 aborts, weak isolation.
    LazyStm,
    /// Eager TL2 variant: undo log, encounter-time write locking,
    /// otherwise as [`SystemKind::LazyStm`].
    EagerStm,
    /// SigTM-style hybrid: software lazy versioning, hardware signature
    /// conflict detection at line granularity, strong isolation,
    /// randomized linear backoff.
    LazyHybrid,
    /// Eager hybrid: software undo log with signature conflict detection
    /// at line granularity, strong isolation, randomized linear backoff.
    EagerHybrid,
    /// Extension (not one of the paper's six): coarse-grain global-lock
    /// execution — every "transaction" holds one global lock. The
    /// lock-based strawman the paper's introduction argues TM should
    /// beat.
    GlobalLock,
}

impl SystemKind {
    /// All six TM systems, in the paper's presentation order.
    pub const ALL_TM: [SystemKind; 6] = [
        SystemKind::EagerHtm,
        SystemKind::LazyHtm,
        SystemKind::EagerHybrid,
        SystemKind::LazyHybrid,
        SystemKind::EagerStm,
        SystemKind::LazyStm,
    ];

    /// Short label used in reports (matches Figure 1's legend).
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Sequential => "Sequential",
            SystemKind::LazyHtm => "Lazy HTM",
            SystemKind::EagerHtm => "Eager HTM",
            SystemKind::LazyStm => "Lazy STM",
            SystemKind::EagerStm => "Eager STM",
            SystemKind::LazyHybrid => "Lazy Hybrid",
            SystemKind::EagerHybrid => "Eager Hybrid",
            SystemKind::GlobalLock => "Global Lock",
        }
    }

    /// Parse a label such as `lazy-stm` or `EagerHtm`.
    pub fn parse(s: &str) -> Option<SystemKind> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        Some(match norm.as_str() {
            "seq" | "sequential" => SystemKind::Sequential,
            "lazyhtm" => SystemKind::LazyHtm,
            "eagerhtm" => SystemKind::EagerHtm,
            "lazystm" => SystemKind::LazyStm,
            "eagerstm" => SystemKind::EagerStm,
            "lazyhybrid" => SystemKind::LazyHybrid,
            "eagerhybrid" => SystemKind::EagerHybrid,
            "lock" | "globallock" | "coarselock" => SystemKind::GlobalLock,
            _ => return None,
        })
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Conflict-detection granularity for the STM systems (the HTMs and
/// hybrids are always line-granularity, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// 8-byte word granularity — the paper's STM configuration.
    #[default]
    Word,
    /// 32-byte line granularity — the ablation showing why the STMs beat
    /// the HTMs on bayes.
    Line,
}

/// How the eager HTM resolves an encounter-time conflict when the
/// requester does not hold the priority token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HtmConflictPolicy {
    /// The requester loses, aborts, and restarts immediately — the
    /// paper's design point (§IV).
    #[default]
    RequesterAborts,
    /// The requester stalls (bounded) waiting for the conflict to
    /// clear, aborting only on timeout — LogTM's actual behaviour,
    /// simplified with a bounded wait instead of cycle detection. The
    /// `ablation_stall` harness compares the two.
    RequesterStalls,
}

/// Geometry of the modeled private L1 cache (Table V: 64 KB, 4-way, 32 B
/// lines). This bounds HTM speculative-state capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// The L1 of Table V.
    pub const fn table_v_l1() -> Self {
        CacheGeometry {
            size_bytes: 64 * 1024,
            assoc: 4,
            line_bytes: 32,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.assoc * self.line_bytes)
    }

    /// Total lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }

    /// Set index for a line address.
    ///
    /// Uses a hashed index rather than the raw low bits: the simulated
    /// bump allocator lays objects out at perfectly regular line
    /// strides, which would alias whole data structures into a handful
    /// of sets — an artifact a real `malloc`ed address space does not
    /// have. Hashing restores a realistic set distribution for the HTM
    /// capacity model.
    pub fn set_of(&self, line: u64) -> u64 {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % self.sets()
    }
}

impl Default for CacheGeometry {
    fn default() -> Self {
        Self::table_v_l1()
    }
}

/// Cycle costs of the modeled machine (Table V) and of the commit and
/// abort work every TM system shares. Each system's barrier and fixed
/// begin/commit costs are part of what the design is, so they live in
/// its [`crate::txn::SystemProps`] row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// L1 hit latency (cycles).
    pub l1_hit: u64,
    /// Shared L2 hit latency (cycles).
    pub l2_hit: u64,
    /// Per-write-set-entry commit cost for lazy *software* systems
    /// (lock + copy back).
    pub commit_per_write: u64,
    /// Per-line commit cost for the lazy HTM (hardware burst commit
    /// through the coherence protocol).
    pub htm_commit_per_line: u64,
    /// Per-read-set-entry validation cost at commit (STMs).
    pub commit_per_read: u64,
    /// Per-undo-entry rollback cost on abort for eager systems (the
    /// paper stresses that aborts are expensive with eager versioning).
    pub abort_per_undo: u64,
    /// Fixed abort overhead.
    pub abort_fixed: u64,
}

impl CostModel {
    /// The configuration used throughout the paper's evaluation, and
    /// the only one the engine charges.
    pub const TABLE_V: CostModel = CostModel {
        l1_hit: 1,
        l2_hit: 12,
        commit_per_write: 8,
        htm_commit_per_line: 2,
        commit_per_read: 3,
        abort_per_undo: 10,
        abort_fixed: 40,
    };
}

/// Complete configuration for a [`crate::runtime::TmRuntime`].
///
/// Build one with [`TmConfig::new`] and the chainable setters:
///
/// ```
/// use tm::{TmConfig, SystemKind};
///
/// let cfg = TmConfig::new(SystemKind::LazyStm, 4).quantum(200).seed(7);
/// assert_eq!(cfg.threads, 4);
/// ```
#[derive(Debug, Clone)]
pub struct TmConfig {
    /// Which TM design to model.
    pub system: SystemKind,
    /// Number of logical processors (threads).
    pub threads: usize,
    /// Scheduler quantum in cycles: a thread may run at most this far
    /// ahead of the slowest runnable thread.
    pub quantum: u64,
    /// STM conflict-detection granularity.
    pub stm_granularity: Granularity,
    /// Modeled private L1 (capacity bound for HTM speculative state).
    pub l1: CacheGeometry,
    /// Model L1 hits/misses with a real tag array (slower, used by the
    /// characterization harness); otherwise every access costs `l1_hit`.
    pub cache_sim: bool,
    /// Signature size in bits for the hybrids and the eager HTM's
    /// overflow filter (Table V: 2048).
    pub signature_bits: usize,
    /// Contention-manager override; `None` derives the paper's default
    /// policy for the configured system (see [`TmConfig::effective_cm`]).
    pub cm: Option<CmPolicy>,
    /// Eager-HTM conflict resolution (abort vs bounded stall).
    pub htm_conflict: HtmConflictPolicy,
    /// Seed for the per-thread backoff RNGs.
    pub seed: u64,
    /// Deterministic-scheduler dispatch mode (see [`crate::sched`]).
    pub sched: SchedMode,
    /// Seed for the deterministic scheduler's dispatch tie-breaking and
    /// PCT change points. Together with [`TmConfig::seed`] this
    /// pins the entire multi-thread run: identical configurations
    /// replay bit-identically on any host.
    pub sched_seed: u64,
    /// Run under the [`crate::verify`] serializability sanitizer. The sanitizer
    /// charges zero simulated cycles, so `sim_cycles` outputs are
    /// bit-identical either way; only wall-clock time changes.
    pub verify: bool,
    /// Run under the [`crate::prof`] cycle-accounting profiler. Like the sanitizer,
    /// the profiler charges zero simulated cycles — `sim_cycles` and
    /// all engine statistics are bit-identical either way.
    pub prof: bool,
    /// Deterministic spurious-event injection ([`crate::fault`]):
    /// capacity-pressure aborts, interrupt hazards, signature false
    /// positives, and delayed commits, drawn from per-attempt SplitMix
    /// streams ([`FaultConfig::parse`] gives the spec grammar). `None`, or a config
    /// whose seed is 0 or whose rates are all zero, disables the
    /// layer at zero simulated and host cost.
    pub fault: Option<FaultConfig>,
    /// Starvation-watchdog bounds for the irrevocable-mode escalation
    /// ([`crate::fault::WatchdogConfig`]). When `None`, the watchdog
    /// arms with default bounds whenever fault injection is enabled
    /// and stays off otherwise — see [`TmConfig::effective_watchdog`].
    pub watchdog: Option<WatchdogConfig>,
    /// Deliberate fault injection for mutation-testing the sanitizer.
    /// Leave at [`MutationHook::None`] for correct execution.
    pub mutation: MutationHook,
}

/// Deliberate engine faults used to prove the [`crate::verify`]
/// sanitizer has teeth: with a hook enabled on a contended workload the
/// sanitizer must report violations, and with [`MutationHook::None`]
/// it must stay clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MutationHook {
    /// Correct execution (the default).
    #[default]
    None,
    /// Skip the TL2 commit-time read-set validation in the STMs: stale
    /// reads commit, producing lost updates the sanitizer must flag as
    /// a serialization cycle.
    SkipTl2Validation,
    /// Corrupt the signature insert path (wrong bits set) so the
    /// hybrids' commit-time signature scans miss real conflicts.
    CorruptSignatureHash,
}

impl TmConfig {
    /// A configuration for `system` with `threads` logical processors and
    /// the paper's defaults for everything else. It reads no process
    /// state: the binaries apply their flags and `TM_*` variables over
    /// it in `stamp_util::driver`.
    pub fn new(system: SystemKind, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread required");
        assert!(
            threads <= 32,
            "the line directory supports up to 32 threads"
        );
        TmConfig {
            system,
            threads,
            quantum: 500,
            stm_granularity: Granularity::Word,
            l1: CacheGeometry::table_v_l1(),
            cache_sim: false,
            signature_bits: 2048,
            cm: None,
            htm_conflict: HtmConflictPolicy::default(),
            seed: 0x5eed_cafe,
            sched: SchedMode::MinClock,
            sched_seed: DEFAULT_SCHED_SEED,
            verify: false,
            prof: false,
            fault: None,
            watchdog: None,
            mutation: MutationHook::None,
        }
    }

    /// A sequential-baseline configuration.
    pub fn sequential() -> Self {
        TmConfig::new(SystemKind::Sequential, 1)
    }

    /// Set the scheduler quantum.
    pub fn quantum(mut self, q: u64) -> Self {
        self.quantum = q;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the deterministic-scheduler seed (dispatch tie-breaking and
    /// PCT change points).
    pub fn sched_seed(mut self, seed: u64) -> Self {
        self.sched_seed = seed;
        self
    }

    /// Set the deterministic-scheduler dispatch mode.
    pub fn sched(mut self, mode: SchedMode) -> Self {
        self.sched = mode;
        self
    }

    /// Enable the L1 tag-array model.
    pub fn cache_sim(mut self, on: bool) -> Self {
        self.cache_sim = on;
        self
    }

    /// Override the STM conflict-detection granularity.
    pub fn stm_granularity(mut self, g: Granularity) -> Self {
        self.stm_granularity = g;
        self
    }

    /// Override the contention-manager policy.
    pub fn cm(mut self, policy: CmPolicy) -> Self {
        self.cm = Some(policy);
        self
    }

    /// Set the eager-HTM conflict-resolution policy.
    pub fn htm_conflict(mut self, policy: HtmConflictPolicy) -> Self {
        self.htm_conflict = policy;
        self
    }

    /// Override the signature size (bits); must be a power of two ≥ 64.
    pub fn signature_bits(mut self, bits: usize) -> Self {
        assert!(bits.is_power_of_two() && bits >= 64);
        self.signature_bits = bits;
        self
    }

    /// Enable or disable the [`crate::verify`] serializability
    /// sanitizer for this run.
    pub fn verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Enable or disable the [`crate::prof`] cycle-accounting profiler
    /// for this run.
    pub fn prof(mut self, on: bool) -> Self {
        self.prof = on;
        self
    }

    /// Enable deterministic spurious-event injection.
    pub fn fault(mut self, cfg: FaultConfig) -> Self {
        self.fault = Some(cfg);
        self
    }

    /// Set explicit starvation-watchdog bounds (taking precedence over
    /// the fault-layer default).
    pub fn watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    /// Inject a deliberate engine fault (mutation testing of the
    /// sanitizer — never use for real measurements).
    pub fn mutation_hook(mut self, hook: MutationHook) -> Self {
        self.mutation = hook;
        self
    }

    /// The active fault-injection configuration, if the layer is
    /// enabled (nonzero seed and at least one nonzero rate).
    pub fn effective_fault(&self) -> Option<FaultConfig> {
        self.fault.filter(FaultConfig::enabled)
    }

    /// The active starvation-watchdog bounds: the explicit override if
    /// set, otherwise the defaults — but only when fault injection is
    /// enabled. With both unset the watchdog is off, so default runs
    /// cannot deviate (by even one atomic load's outcome) from the
    /// pre-watchdog engine.
    pub fn effective_watchdog(&self) -> Option<WatchdogConfig> {
        self.watchdog
            .or_else(|| self.effective_fault().map(|_| WatchdogConfig::default()))
    }

    /// The effective contention-manager policy: the [`TmConfig::cm`]
    /// override if set, otherwise the paper's policy for the configured
    /// system (its row's [`crate::txn::SystemProps::default_cm`]).
    pub fn effective_cm(&self) -> CmPolicy {
        self.cm.unwrap_or(self.system.props().default_cm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_labels() {
        assert_eq!(SystemKind::parse("lazy-stm"), Some(SystemKind::LazyStm));
        assert_eq!(SystemKind::parse("EagerHTM"), Some(SystemKind::EagerHtm));
        assert_eq!(
            SystemKind::parse("lazy hybrid"),
            Some(SystemKind::LazyHybrid)
        );
        assert_eq!(SystemKind::parse("seq"), Some(SystemKind::Sequential));
        assert_eq!(SystemKind::parse("bogus"), None);
    }

    #[test]
    fn table_v_l1_geometry() {
        let l1 = CacheGeometry::table_v_l1();
        assert_eq!(l1.sets(), 512);
        assert_eq!(l1.lines(), 2048);
        // Hashed index: in range, deterministic, and spreading
        // regular strides across many sets.
        let sets: std::collections::HashSet<u64> = (0..512u64).map(|i| l1.set_of(i * 8)).collect();
        assert!(sets.len() > 300, "stride-8 lines alias: {}", sets.len());
        assert!((0..2048).all(|l| l1.set_of(l) < 512));
        assert_eq!(l1.set_of(77), l1.set_of(77));
    }

    #[test]
    fn effective_cm_is_the_papers_policy_unless_overridden() {
        use SystemKind::*;
        for system in [Sequential, GlobalLock]
            .into_iter()
            .chain(SystemKind::ALL_TM)
        {
            let cfg = TmConfig::new(system, 2);
            assert_eq!(cfg.effective_cm(), system.props().default_cm, "{system}");
            // An explicit CM choice wins on every system.
            let cfg = cfg.cm(CmPolicy::DEFAULT_KARMA);
            assert_eq!(cfg.effective_cm(), CmPolicy::DEFAULT_KARMA, "{system}");
        }
    }

    #[test]
    fn watchdog_arms_only_with_faults() {
        let cfg = TmConfig::new(SystemKind::LazyStm, 2);
        assert_eq!(cfg.effective_fault(), None);
        assert_eq!(cfg.effective_watchdog(), None);
        // An enabled fault layer arms the default watchdog.
        let fault = FaultConfig::parse("seed=3,intr=5").unwrap();
        let cfg = cfg.fault(fault);
        assert_eq!(cfg.effective_fault(), Some(fault));
        assert_eq!(cfg.effective_watchdog(), Some(WatchdogConfig::default()));
        // All-zero rates (or seed 0) keep both off.
        let cfg = TmConfig::new(SystemKind::LazyStm, 2).fault(FaultConfig::default());
        assert_eq!(cfg.effective_fault(), None);
        assert_eq!(cfg.effective_watchdog(), None);
        let cfg = TmConfig::new(SystemKind::LazyStm, 2).fault(fault.with_seed(0));
        assert_eq!(cfg.effective_watchdog(), None);
        // An explicit watchdog works without faults and overrides the
        // default bounds.
        let wd = WatchdogConfig {
            max_consecutive_aborts: 8,
            max_invested_cycles: 0,
        };
        let cfg = TmConfig::new(SystemKind::LazyStm, 2).watchdog(wd);
        assert_eq!(cfg.effective_watchdog(), Some(wd));
        let cfg = cfg.fault(fault);
        assert_eq!(cfg.effective_watchdog(), Some(wd));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = TmConfig::new(SystemKind::LazyStm, 0);
    }
}
