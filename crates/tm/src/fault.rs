//! Deterministic, seeded fault injection for the TM engine, plus the
//! starvation-watchdog configuration that guarantees forward progress
//! under it.
//!
//! The paper's HTM results assume idealized hardware, but real HTMs
//! abort transactions for reasons unrelated to data conflicts:
//! capacity evictions, interrupts and context switches, and signature
//! false positives (LogTM, SigTM, and every commercial HTM document
//! these as the dominant spurious-abort sources). This module injects
//! those events *deterministically*: every decision is drawn from a
//! [`SplitMix64`] stream keyed on `(fault_seed, tid, attempt)`, so a
//! run under the [`crate::sched`] deterministic scheduler is a pure
//! function of its seeds and replays bit-identically — a chaos run
//! that fails is a chaos run that can be re-run.
//!
//! Four fault kinds are modeled (see [`FaultKind`]):
//!
//! * **capacity** — probabilistic abort on each barrier once the
//!   transaction's footprint exceeds a soft line threshold, modeling
//!   eviction of speculative state;
//! * **interrupt** — a per-scheduling-quantum hazard, modeling context
//!   switches destroying transactional state;
//! * **sigfp** — signature false-positive conflicts on the
//!   signature-based systems (eager HTM, both hybrids), modeling
//!   Bloom-filter aliasing beyond what the real 2048-bit filters
//!   already produce;
//! * **stall** — delayed commits: extra simulated cycles charged to a
//!   committing transaction, modeling commit-token arbitration and
//!   coherence burst delays.
//!
//! Spurious aborts are accounted separately from real conflicts
//! (`spurious_aborts` in [`crate::stats`]), never enter the profiler's
//! conflict table (no innocent address gets blamed), and are reported
//! to the contention manager with a `spurious` flag so adaptive
//! policies don't mistake injected noise for data contention.
//!
//! Enable with [`crate::TmConfig::fault`]; the spec grammar is documented on [`FaultConfig::parse`]. With the
//! layer disabled (the default) no stream is ever seeded and no
//! decision is ever drawn: runs are byte-identical to an engine built
//! without this module.

/// SplitMix64 (Steele et al., "Fast splittable pseudorandom number
/// generators"): the per-attempt fault stream.
///
/// Deliberately a different generator family from the engine's
/// [`crate::sim::XorShift64`]: fault decisions must not perturb the
/// backoff RNG streams, and using a distinct algorithm makes an
/// accidental share-by-copy bug show up as a test failure rather than
/// a silent correlation.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

/// The SplitMix64 output function (also used as a mixing finalizer
/// when deriving per-attempt seeds).
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// A stream starting at `seed` (seed 0 is fine for SplitMix; no
    /// remapping needed, unlike xorshift).
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Bernoulli draw: true with probability `permille`/1000. Zero
    /// probability never touches the stream, so configurations that
    /// disable a fault kind leave the remaining kinds' draw sequences
    /// unchanged — rates are independently tunable.
    pub fn roll(&mut self, permille: u32) -> bool {
        if permille == 0 {
            return false;
        }
        self.next_u64() % 1000 < permille as u64
    }
}

/// Derive the per-attempt fault stream for `(fault_seed, tid, attempt)`.
///
/// Each attempt gets an independent stream: a fault decision early in
/// a long run never shifts the draws of a later attempt, which keeps
/// fault schedules stable under unrelated workload edits and makes
/// single-attempt repros exact.
pub fn attempt_stream(fault_seed: u64, tid: usize, attempt: u64) -> SplitMix64 {
    let a = mix64(fault_seed ^ (tid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SplitMix64::new(mix64(a ^ attempt.wrapping_mul(0xD1B5_4A32_D192_ED03)))
}

/// The kind of an injected spurious event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Capacity-pressure abort (speculative state evicted).
    Capacity,
    /// Interrupt / context-switch abort.
    Interrupt,
    /// Signature false-positive conflict.
    SigFalsePositive,
    /// Delayed commit (extra cycles, not an abort).
    CommitStall,
}

impl FaultKind {
    /// Short label used in the `faults` trace stream.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Capacity => "capacity",
            FaultKind::Interrupt => "interrupt",
            FaultKind::SigFalsePositive => "sigfp",
            FaultKind::CommitStall => "stall",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of the fault-injection layer.
///
/// Rates are integer per-mille probabilities (deterministic integer
/// arithmetic; no floating point anywhere near the engine). Build one
/// with [`FaultConfig::parse`] or field syntax; pass it via
/// [`crate::TmConfig::fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Base seed of every per-attempt stream. `0` disables the layer
    /// entirely (no stream is seeded, no draw is made — byte-identical
    /// to a build without fault injection).
    pub seed: u64,
    /// Per-barrier capacity-abort probability (per-mille), applied
    /// once the transaction's distinct-line footprint reaches
    /// [`FaultConfig::capacity_lines`].
    pub capacity_permille: u32,
    /// Soft footprint threshold (distinct read+write lines) above
    /// which capacity pressure starts.
    pub capacity_lines: usize,
    /// Per-scheduling-quantum interrupt/context-switch probability
    /// (per-mille), rolled once for each quantum boundary the attempt
    /// crosses.
    pub interrupt_permille: u32,
    /// Per-barrier signature false-positive probability (per-mille);
    /// only the signature-based systems (eager HTM, both hybrids) are
    /// susceptible.
    pub sigfp_permille: u32,
    /// Per-commit delayed-commit probability (per-mille).
    pub stall_permille: u32,
    /// Extra simulated cycles a delayed commit costs.
    pub stall_cycles: u64,
}

impl Default for FaultConfig {
    /// Seeded but with every rate zero: a valid base to set rates on.
    fn default() -> Self {
        FaultConfig {
            seed: 1,
            capacity_permille: 0,
            capacity_lines: 16,
            interrupt_permille: 0,
            sigfp_permille: 0,
            stall_permille: 0,
            stall_cycles: 400,
        }
    }
}

impl FaultConfig {
    /// Parse a fault spec: comma-separated `key=value` pairs.
    ///
    /// | key | meaning | default |
    /// |---|---|---|
    /// | `seed` | stream seed (decimal or `0x` hex); `0` disables | 1 |
    /// | `cap` | capacity-abort rate, per-mille per barrier | 0 |
    /// | `capth` | capacity soft threshold, distinct lines | 16 |
    /// | `intr` | interrupt rate, per-mille per quantum | 0 |
    /// | `sigfp` | signature false-positive rate, per-mille per barrier | 0 |
    /// | `stall` | delayed-commit rate, per-mille per commit | 0 |
    /// | `stallc` | delayed-commit cost, cycles | 400 |
    ///
    /// Example: `seed=7,cap=10,capth=16,intr=5,sigfp=5,stall=20`.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending pair on unknown keys,
    /// malformed numbers, or rates above 1000.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item {part:?} is not key=value"))?;
            let num = |v: &str| -> Result<u64, String> {
                let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => v.parse().ok(),
                };
                parsed.ok_or_else(|| format!("fault spec {key}={v:?} is not an unsigned integer"))
            };
            let rate = |v: &str| -> Result<u32, String> {
                let n = num(v)?;
                if n > 1000 {
                    return Err(format!("fault rate {key}={n} exceeds 1000 per-mille"));
                }
                Ok(n as u32)
            };
            match key {
                "seed" => cfg.seed = num(value)?,
                "cap" => cfg.capacity_permille = rate(value)?,
                "capth" => cfg.capacity_lines = num(value)? as usize,
                "intr" => cfg.interrupt_permille = rate(value)?,
                "sigfp" => cfg.sigfp_permille = rate(value)?,
                "stall" => cfg.stall_permille = rate(value)?,
                "stallc" => cfg.stall_cycles = num(value)?,
                _ => {
                    return Err(format!(
                        "unknown fault spec key {key:?} \
                         (expected seed, cap, capth, intr, sigfp, stall, stallc)"
                    ))
                }
            }
        }
        Ok(cfg)
    }

    /// Whether the layer is active: a nonzero seed and at least one
    /// nonzero rate. Inactive configurations cost nothing at runtime.
    pub fn enabled(&self) -> bool {
        self.seed != 0
            && (self.capacity_permille != 0
                || self.interrupt_permille != 0
                || self.sigfp_permille != 0
                || self.stall_permille != 0)
    }

    /// Replace the stream seed (sweeps vary the seed over a fixed
    /// rate profile).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Render back to the spec grammar accepted by
    /// [`FaultConfig::parse`] (used by harnesses to label runs).
    pub fn spec(&self) -> String {
        format!(
            "seed={},cap={},capth={},intr={},sigfp={},stall={},stallc={}",
            self.seed,
            self.capacity_permille,
            self.capacity_lines,
            self.interrupt_permille,
            self.sigfp_permille,
            self.stall_permille,
            self.stall_cycles,
        )
    }
}

impl std::fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec())
    }
}

/// Starvation-watchdog bounds: when a single transaction's consecutive
/// aborts or invested cycles cross either bound, the runtime escalates
/// it to irrevocable mode (serialized execution behind the global
/// commit token, in-place writes, no abort path) — a hard
/// forward-progress guarantee.
///
/// Configure via [`crate::TmConfig::watchdog`]. When unset, the watchdog arms
/// automatically (with these defaults) whenever fault injection is
/// enabled, and stays off otherwise — so default runs are byte-
/// identical to the pre-watchdog engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Consecutive aborted attempts of one transaction before
    /// escalation.
    pub max_consecutive_aborts: u32,
    /// Simulated cycles invested in one transaction (across all its
    /// attempts, including backoff) before escalation.
    pub max_invested_cycles: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            max_consecutive_aborts: 64,
            max_invested_cycles: 20_000_000,
        }
    }
}

impl WatchdogConfig {
    /// Parse a watchdog spec: `aborts=N`, `cycles=C`, comma
    /// separated, either optional (defaults per [`Default`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the offending pair on unknown keys or
    /// malformed numbers; both bounds being zero is rejected (the
    /// first attempt would escalate before running).
    pub fn parse(spec: &str) -> Result<WatchdogConfig, String> {
        let mut cfg = WatchdogConfig::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("watchdog spec item {part:?} is not key=value"))?;
            let num: u64 = value
                .parse()
                .map_err(|_| format!("watchdog spec {key}={value:?} is not an unsigned integer"))?;
            match key {
                "aborts" => cfg.max_consecutive_aborts = num.min(u32::MAX as u64) as u32,
                "cycles" => cfg.max_invested_cycles = num,
                _ => {
                    return Err(format!(
                        "unknown watchdog spec key {key:?} (expected aborts, cycles)"
                    ))
                }
            }
        }
        if cfg.max_consecutive_aborts == 0 && cfg.max_invested_cycles == 0 {
            return Err("watchdog bounds cannot both be zero".to_string());
        }
        Ok(cfg)
    }

    /// Whether a transaction at `retries` consecutive aborts with
    /// `invested` cycles spent should escalate. A zero bound means
    /// "bound disabled" for that dimension.
    pub fn should_escalate(&self, retries: u32, invested: u64) -> bool {
        (self.max_consecutive_aborts != 0 && retries >= self.max_consecutive_aborts)
            || (self.max_invested_cycles != 0 && invested >= self.max_invested_cycles)
    }
}

/// Per-thread fault-injection state, owned by the thread context.
/// Reseeded at every attempt boundary from `(seed, tid, attempt)`.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// The active configuration.
    pub cfg: FaultConfig,
    /// This attempt's decision stream.
    pub stream: SplitMix64,
    /// Thread clock when the attempt began (interrupt hazard
    /// reference point).
    pub attempt_start: u64,
    /// Quantum boundaries already rolled for this attempt.
    pub quanta_rolled: u64,
    /// The spurious event injected into the current attempt, if any
    /// (cleared at attempt begin; read by the abort accounting).
    pub injected: Option<FaultKind>,
}

impl FaultState {
    pub fn new(cfg: FaultConfig) -> Self {
        FaultState {
            cfg,
            stream: SplitMix64::new(cfg.seed),
            attempt_start: 0,
            quanta_rolled: 0,
            injected: None,
        }
    }

    /// Rewind state for a new attempt: derive the per-attempt stream
    /// and clear the injection record.
    pub fn begin_attempt(&mut self, tid: usize, attempt: u64, clock: u64) {
        self.stream = attempt_stream(self.cfg.seed, tid, attempt);
        self.attempt_start = clock;
        self.quanta_rolled = 0;
        self.injected = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_distinct_per_key() {
        let mut a = attempt_stream(42, 0, 0);
        let mut b = attempt_stream(42, 0, 0);
        assert_eq!(a.next_u64(), b.next_u64());
        let keys = [(42u64, 0usize, 0u64), (42, 1, 0), (42, 0, 1), (43, 0, 0)];
        let firsts: Vec<u64> = keys
            .iter()
            .map(|&(s, t, a)| attempt_stream(s, t, a).next_u64())
            .collect();
        for i in 0..firsts.len() {
            for j in i + 1..firsts.len() {
                assert_ne!(firsts[i], firsts[j], "streams {i} and {j} collide");
            }
        }
    }

    #[test]
    fn roll_edges() {
        let mut s = SplitMix64::new(7);
        let before = s.clone().next_u64();
        assert!(!s.roll(0), "zero rate never fires");
        assert_eq!(s.next_u64(), before, "zero rate must not draw");
        let mut s = SplitMix64::new(7);
        for _ in 0..100 {
            assert!(s.roll(1000), "certain rate always fires");
        }
        // A middling rate fires at roughly its probability.
        let mut s = SplitMix64::new(9);
        let hits = (0..10_000).filter(|_| s.roll(250)).count();
        assert!(
            (2000..3000).contains(&hits),
            "250 permille hit {hits}/10000"
        );
    }

    #[test]
    fn parse_roundtrip_and_defaults() {
        let cfg = FaultConfig::parse("seed=7,cap=10,capth=32,intr=5,sigfp=3,stall=20,stallc=250")
            .unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.capacity_permille, 10);
        assert_eq!(cfg.capacity_lines, 32);
        assert_eq!(cfg.interrupt_permille, 5);
        assert_eq!(cfg.sigfp_permille, 3);
        assert_eq!(cfg.stall_permille, 20);
        assert_eq!(cfg.stall_cycles, 250);
        assert_eq!(FaultConfig::parse(&cfg.spec()).unwrap(), cfg);
        // Omitted keys take defaults; hex seeds parse.
        let cfg = FaultConfig::parse("seed=0x10,intr=2").unwrap();
        assert_eq!(cfg.seed, 16);
        assert_eq!(cfg.capacity_permille, 0);
        assert_eq!(cfg.capacity_lines, 16);
        assert!(cfg.enabled());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultConfig::parse("bogus=1").is_err());
        assert!(FaultConfig::parse("cap").is_err());
        assert!(FaultConfig::parse("cap=abc").is_err());
        assert!(FaultConfig::parse("cap=1001").is_err(), "rate above 1000");
        assert!(WatchdogConfig::parse("aborts=0,cycles=0").is_err());
        assert!(WatchdogConfig::parse("retries=3").is_err());
    }

    #[test]
    fn enabled_requires_seed_and_a_rate() {
        assert!(!FaultConfig::default().enabled(), "all rates zero");
        let cfg = FaultConfig {
            interrupt_permille: 5,
            ..FaultConfig::default()
        };
        assert!(cfg.enabled());
        assert!(!cfg.with_seed(0).enabled(), "seed 0 disables");
    }

    #[test]
    fn watchdog_escalation_bounds() {
        let wd = WatchdogConfig::parse("aborts=8,cycles=1000").unwrap();
        assert!(!wd.should_escalate(7, 999));
        assert!(wd.should_escalate(8, 0));
        assert!(wd.should_escalate(0, 1000));
        // A zero bound disables that dimension.
        let wd = WatchdogConfig::parse("aborts=0,cycles=1000").unwrap();
        assert!(!wd.should_escalate(u32::MAX, 999));
        assert!(wd.should_escalate(0, 1000));
    }
}
