//! The three named workloads, one simulation run ("cell") at a time,
//! and the per-run correctness check against pinned fingerprints.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bench::table4::TABLE4_APPS;
use stamp_util::{AppReport, Variant};
use tm::{SchedMode, SystemKind, TmConfig};

/// The contended subset: the variants whose 16-thread runs abort most.
pub const CONTENDED_VARIANTS: [&str; 4] = ["intruder", "vacation-high", "kmeans-high", "genome"];

/// One design from each family (STM, HTM, hybrid), each abort-heavy at
/// 16 threads.
pub const CONTENDED_SYSTEMS: [SystemKind; 3] = [
    SystemKind::LazyStm,
    SystemKind::EagerHtm,
    SystemKind::LazyHybrid,
];

/// A named, fixed set of simulation runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Variant names, in run order.
    pub variants: &'static [&'static str],
    /// TM systems, in run order (inner loop).
    pub systems: &'static [SystemKind],
    /// Logical threads of every run.
    pub threads: usize,
    /// Workload divisor (`Variant::scaled`).
    pub scale: u32,
    /// Whether the `tm::verify` and `tm::prof` observers are on.
    pub observers: bool,
}

/// 8 variants x 6 systems, one logical thread, full size: no handoffs
/// and no aborts, so host time is barrier/commit work, app work and
/// setup.
pub const SOLO_1T: Workload = Workload {
    name: "solo-1t",
    variants: &TABLE4_APPS,
    systems: &SystemKind::ALL_TM,
    threads: 1,
    scale: 1,
    observers: false,
};

/// 4 abort-heavy variants x 3 systems at 16 logical threads: the
/// scheduler's handoffs and the rollback/restart paths dominate.
pub const CONTENDED_16T: Workload = Workload {
    name: "contended-16t",
    variants: &CONTENDED_VARIANTS,
    systems: &CONTENDED_SYSTEMS,
    threads: 16,
    scale: 8,
    observers: false,
};

/// 8 variants x 6 systems at 2 logical threads with both observers on,
/// the way the CI oracles drive the engine.
pub const OBSERVED_2T: Workload = Workload {
    name: "observed-2t",
    variants: &TABLE4_APPS,
    systems: &SystemKind::ALL_TM,
    threads: 2,
    scale: 4,
    observers: true,
};

/// Every workload, in the order the benchmark documents them.
pub const WORKLOADS: [Workload; 3] = [SOLO_1T, CONTENDED_16T, OBSERVED_2T];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same runs on other systems (the `seq` baseline of the
    /// barrier probe).
    pub fn on_systems(self, systems: &'static [SystemKind]) -> Workload {
        Workload { systems, ..self }
    }

    /// The same runs with the observers switched on or off.
    pub fn with_observers(self, observers: bool) -> Workload {
        Workload { observers, ..self }
    }

    /// The runs of one pass, in order.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for name in self.variants {
            let variant = stamp_util::variant(name).expect("workload variant is registered");
            for &system in self.systems {
                cells.push(Cell {
                    variant,
                    system,
                    // The sequential baseline is single-threaded by
                    // definition.
                    threads: if system == SystemKind::Sequential {
                        1
                    } else {
                        self.threads
                    },
                    scale: self.scale,
                    observers: self.observers,
                });
            }
        }
        cells
    }
}

/// Stable lower-case name of a system, as used in metric names and the
/// fingerprint file (`lazy-stm`, `sequential`, ...).
pub fn system_key(system: SystemKind) -> String {
    system.label().to_ascii_lowercase().replace(' ', "-")
}

/// One simulation run: a variant on a system at a thread count.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// The Table IV variant.
    pub variant: Variant,
    /// The TM system.
    pub system: SystemKind,
    /// Logical threads.
    pub threads: usize,
    /// Workload divisor.
    pub scale: u32,
    /// Whether `tm::verify` and `tm::prof` are on.
    pub observers: bool,
}

impl Cell {
    /// The engine configuration of this run under scheduler seed `seed`:
    /// strict min-clock dispatch, default cost model, cache model and
    /// fault injection off.
    pub fn config(&self, seed: u64) -> TmConfig {
        TmConfig::new(self.system, self.threads)
            .sched(SchedMode::MinClock)
            .sched_seed(seed)
            .verify(self.observers)
            .prof(self.observers)
    }

    /// The fingerprint-file key of this run. With one logical thread the
    /// scheduler has no tie to break, so the key carries no seed.
    pub fn key(&self, seed: u64) -> FpKey {
        FpKey {
            variant: self.variant.name.to_string(),
            system: system_key(self.system),
            threads: self.threads,
            scale: self.scale,
            seed: (self.threads > 1).then_some(seed),
        }
    }
}

/// Identifies a pinned fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FpKey {
    /// Variant name.
    pub variant: String,
    /// [`system_key`] of the system.
    pub system: String,
    /// Logical threads.
    pub threads: usize,
    /// Workload divisor.
    pub scale: u32,
    /// Scheduler seed; `None` for single-threaded runs.
    pub seed: Option<u64>,
}

/// The simulated statistics that pin a run: any engine change that
/// keeps the model fixed leaves all five unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Simulated makespan.
    pub sim_cycles: u64,
    /// Transaction attempts.
    pub attempts: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Simulated cycles spent in contention-manager backoff.
    pub backoff_cycles: u64,
}

impl Fingerprint {
    fn of(rep: &AppReport) -> Fingerprint {
        let s = &rep.run.stats;
        Fingerprint {
            sim_cycles: rep.run.sim_cycles,
            attempts: s.attempts,
            commits: s.commits,
            aborts: s.aborts,
            backoff_cycles: s.backoff_cycles,
        }
    }
}

/// Pinned fingerprints, read from the benchmark's expected-data file.
#[derive(Debug, Clone, Default)]
pub struct Expected(pub HashMap<FpKey, Fingerprint>);

/// Column header of the expected-data file.
pub const FP_HEADER: &str =
    "variant\tsystem\tthreads\tscale\tsched_seed\tsim_cycles\tattempts\tcommits\taborts\tbackoff_cycles";

impl Expected {
    /// The fingerprints compiled into the benchmark.
    pub fn pinned() -> Expected {
        Expected::parse(include_str!("../expected/fingerprints.tsv"))
            .expect("expected/fingerprints.tsv is well-formed")
    }

    /// Parse the tab-separated file written by `--pin`.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line == FP_HEADER {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 10 {
                return Err(format!("line {}: want 10 fields, got {}", i + 1, f.len()));
            }
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|e| format!("line {}: {s:?}: {e}", i + 1))
            };
            let key = FpKey {
                variant: f[0].to_string(),
                system: f[1].to_string(),
                threads: num(f[2])? as usize,
                scale: num(f[3])? as u32,
                seed: if f[4] == "*" { None } else { Some(num(f[4])?) },
            };
            let fp = Fingerprint {
                sim_cycles: num(f[5])?,
                attempts: num(f[6])?,
                commits: num(f[7])?,
                aborts: num(f[8])?,
                backoff_cycles: num(f[9])?,
            };
            map.insert(key, fp);
        }
        Ok(Expected(map))
    }
}

/// One line of the expected-data file.
pub fn fp_line(key: &FpKey, fp: &Fingerprint) -> String {
    let seed = key.seed.map_or_else(|| "*".to_string(), |s| s.to_string());
    format!(
        "{}\t{}\t{}\t{}\t{seed}\t{}\t{}\t{}\t{}\t{}",
        key.variant,
        key.system,
        key.threads,
        key.scale,
        fp.sim_cycles,
        fp.attempts,
        fp.commits,
        fp.aborts,
        fp.backoff_cycles
    )
}

/// What one run call cost and produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host time of the whole call (input building, phase, app check).
    pub call: Duration,
    /// `RunReport::wall`: the simulated phase.
    pub phase: Duration,
    /// `tm::verify` finalize time (outside the phase).
    pub finalize: Duration,
    /// Serialization-graph edges the sanitizer examined.
    pub edges: u64,
    /// Σ per-thread simulated cycles (`RunStats::cycles_total`).
    pub cycles_total: u64,
    /// The run's fingerprint (`None` after a panic).
    pub fingerprint: Option<Fingerprint>,
    /// Why the run counts as failed, if it does.
    pub failure: Option<String>,
}

impl Outcome {
    /// Host time outside the simulated phase and the sanitizer finalize.
    pub fn setup(&self) -> Duration {
        self.call.saturating_sub(self.phase + self.finalize)
    }
}

/// Checks every run against pinned fingerprints, or, for a seed without
/// pins, against the first repetition of the same run in this process.
#[derive(Debug, Default)]
pub struct Checker {
    expected: Expected,
    seen: HashMap<FpKey, Fingerprint>,
}

impl Checker {
    /// A checker over `expected`.
    pub fn new(expected: Expected) -> Checker {
        Checker {
            expected,
            seen: HashMap::new(),
        }
    }

    /// Execute `cell` under scheduler seed `seed` and check its output.
    pub fn run(&mut self, cell: &Cell, seed: u64) -> Outcome {
        let config = cell.config(seed);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            bench::run_variant(&cell.variant, cell.scale, config)
        }));
        let call = start.elapsed();
        let rep = match result {
            Ok(rep) => rep,
            Err(_) => {
                return Outcome {
                    call,
                    failure: Some("panicked".into()),
                    ..Outcome::default()
                }
            }
        };
        let fp = Fingerprint::of(&rep);
        let key = cell.key(seed);
        let failure = self
            .check_outputs(cell, &rep)
            .or_else(|| self.check_fingerprint(key, fp));
        let verify = rep.run.verify.as_ref();
        Outcome {
            call,
            phase: rep.run.wall,
            finalize: verify.map_or(Duration::ZERO, |v| v.cost.wall),
            edges: verify.map_or(0, |v| v.cost.edges),
            cycles_total: rep.run.stats.cycles_total,
            fingerprint: Some(fp),
            failure,
        }
    }

    fn check_outputs(&self, cell: &Cell, rep: &AppReport) -> Option<String> {
        if !rep.verified {
            return Some("app verification failed".into());
        }
        if !cell.observers {
            return None;
        }
        match (&rep.run.verify, &rep.run.prof) {
            (Some(v), Some(p)) => {
                if !v.is_clean() {
                    Some(format!("sanitizer: {} violation(s)", v.violations.len()))
                } else if let Err(e) = p.check() {
                    Some(format!("profiler invariant: {e}"))
                } else if p.total_cycles() != rep.run.stats.cycles_total {
                    Some("profiler clocks disagree with the stats".into())
                } else {
                    None
                }
            }
            _ => Some("observer report missing".into()),
        }
    }

    fn check_fingerprint(&mut self, key: FpKey, fp: Fingerprint) -> Option<String> {
        let want = match self.expected.0.get(&key) {
            Some(pinned) => *pinned,
            None => *self.seen.entry(key).or_insert(fp),
        };
        (fp != want).then(|| format!("fingerprint {fp:?}, expected {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Workload = Workload {
        name: "tiny",
        variants: &["genome", "kmeans-high"],
        systems: &[SystemKind::LazyStm, SystemKind::EagerHtm],
        threads: 2,
        scale: 64,
        observers: true,
    };

    #[test]
    fn perturbed_pin_counts_as_failed() {
        let seed = tm::DEFAULT_SCHED_SEED;
        let cell = TINY.cells()[0];
        let mut first = Checker::default();
        let out = first.run(&cell, seed);
        assert_eq!(out.failure, None);
        let fp = out.fingerprint.expect("no panic");

        let mut pins = Expected::default();
        pins.0.insert(cell.key(seed), fp);
        assert_eq!(Checker::new(pins.clone()).run(&cell, seed).failure, None);

        let key = cell.key(seed);
        pins.0.get_mut(&key).expect("pinned").commits += 1;
        let failure = Checker::new(pins).run(&cell, seed).failure;
        assert!(failure.is_some_and(|f| f.starts_with("fingerprint")));
    }

    #[test]
    fn unpinned_repetition_must_agree() {
        let cell = TINY.cells()[1];
        let mut checker = Checker::default();
        let out = checker.run(&cell, 7);
        assert_eq!(out.failure, None);
        // A different recorded first repetition makes the next one fail.
        let key = cell.key(7);
        checker.seen.get_mut(&key).expect("recorded").sim_cycles += 1;
        assert!(checker.run(&cell, 7).failure.is_some());
    }

    #[test]
    fn single_thread_runs_ignore_the_sched_seed() {
        let cell = Workload {
            threads: 1,
            observers: false,
            ..TINY
        }
        .cells()[0];
        assert_eq!(cell.key(1), cell.key(2));
        let mut checker = Checker::default();
        assert_eq!(checker.run(&cell, 1).failure, None);
        assert_eq!(checker.run(&cell, 2).failure, None);
    }

    #[test]
    fn fingerprint_file_round_trips() {
        let key = TINY.cells()[0].key(9);
        let fp = Fingerprint {
            sim_cycles: 1,
            attempts: 2,
            commits: 3,
            aborts: 4,
            backoff_cycles: 5,
        };
        let text = format!("{FP_HEADER}\n{}\n", fp_line(&key, &fp));
        let parsed = Expected::parse(&text).expect("parses");
        assert_eq!(parsed.0.get(&key), Some(&fp));
        assert!(Expected::parse("a\tb\n").is_err());
        Expected::pinned();
    }
}
