//! Helpers shared by the application binaries: building a [`TmConfig`]
//! from command-line flags.

use tm::{Granularity, SchedMode, SystemKind, TmConfig};

use crate::cli::Args;

/// Build a [`TmConfig`] from the common driver flags:
///
/// * `--system <name>` — one of `seq`, `lazy-htm`, `eager-htm`,
///   `lazy-stm`, `eager-stm`, `lazy-hybrid`, `eager-hybrid`
///   (default `lazy-stm`);
/// * `--threads <n>` / `-t <n>` is *not* used (apps use `-t` for their
///   own flags); thread count comes from `--threads` only;
/// * `--quantum <cycles>`, `--seed <s>`, `--cache-sim`,
///   `--granularity word|line`;
/// * `--sched minclock|pct` and `--sched-seed <s>` — deterministic
///   scheduler dispatch mode and replay seed (see `tm::sched`);
/// * `--verify` — run under the `tm::verify` sanitizer;
/// * `--prof` — run under the `tm::prof` cycle-accounting profiler
///   (both are zero-simulated-cost observers); the CLI summary then
///   appends the cycle breakdown and hottest conflict lines.
///
/// An unknown `--system`, `--sched` or `--granularity` value, or a
/// `--threads` (1..=32), `--quantum`, `--seed` or `--sched-seed` value
/// that is not an integer in range, is an error naming the flag and its
/// accepted values.
pub fn tm_config_from_args(args: &Args) -> Result<TmConfig, String> {
    let system = match args.get("system") {
        Some(s) => SystemKind::parse(s).ok_or_else(|| {
            format!(
                "unknown --system {s:?} \
                 (seq|lazy-htm|eager-htm|lazy-stm|eager-stm|lazy-hybrid|eager-hybrid|lock)"
            )
        })?,
        None => SystemKind::LazyStm,
    };
    let threads = args.get_u64_in("threads", 4, 1..=32)? as usize;
    let mut cfg = if system == SystemKind::Sequential {
        TmConfig::sequential()
    } else {
        TmConfig::new(system, threads)
    };
    let quantum = args.get_u64_in("quantum", cfg.quantum, 0..=u64::MAX)?;
    let seed = args.get_u64_in("seed", cfg.seed, 0..=u64::MAX)?;
    let sched_seed = args.get_u64_in("sched-seed", cfg.sched_seed, 0..=u64::MAX)?;
    cfg = cfg.quantum(quantum).seed(seed).sched_seed(sched_seed);
    if let Some(mode) = args.get("sched") {
        cfg = cfg.sched(
            SchedMode::parse(mode)
                .ok_or_else(|| format!("unknown --sched {mode:?} (minclock|pct)"))?,
        );
    }
    if args.get_bool("cache-sim") {
        cfg = cfg.cache_sim(true);
    }
    if args.get_bool("verify") {
        cfg = cfg.verify(true);
    }
    if args.get_bool("prof") {
        cfg = cfg.prof(true);
    }
    match args.get("granularity") {
        Some("line") => cfg = cfg.stm_granularity(Granularity::Line),
        Some("word") | None => {}
        Some(other) => return Err(format!("unknown --granularity {other:?} (word|line)")),
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults() {
        let cfg = tm_config_from_args(&parse("")).unwrap();
        assert_eq!(cfg.system, SystemKind::LazyStm);
        assert_eq!(cfg.threads, 4);
    }

    #[test]
    fn full_flags() {
        let cfg = tm_config_from_args(&parse(
            "--system eager-htm --threads 8 --quantum 100 --cache-sim --granularity line \
             --sched pct --sched-seed 99",
        ))
        .unwrap();
        assert_eq!(cfg.system, SystemKind::EagerHtm);
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.quantum, 100);
        assert!(cfg.cache_sim);
        assert_eq!(cfg.stm_granularity, Granularity::Line);
        assert_eq!(cfg.sched_seed, 99);
        assert!(matches!(cfg.sched, SchedMode::Pct { .. }));
    }

    #[test]
    fn observer_flags() {
        let cfg = tm_config_from_args(&parse("--verify --prof")).unwrap();
        assert!(cfg.verify);
        assert!(cfg.prof);
        let cfg = tm_config_from_args(&parse("")).unwrap();
        assert!(!cfg.prof);
    }

    #[test]
    fn sequential_forces_one_thread() {
        let cfg = tm_config_from_args(&parse("--system seq --threads 8")).unwrap();
        assert_eq!(cfg.threads, 1);
    }

    #[test]
    fn bad_system_is_an_error() {
        let err = tm_config_from_args(&parse("--system lazy-tsm")).unwrap_err();
        assert!(err.contains("--system \"lazy-tsm\""), "{err}");
        assert!(err.contains("lazy-stm"), "{err}");
    }

    #[test]
    fn bad_sched_is_an_error() {
        let err = tm_config_from_args(&parse("--sched fifo")).unwrap_err();
        assert!(err.contains("--sched \"fifo\""), "{err}");
        assert!(err.contains("minclock|pct"), "{err}");
    }

    #[test]
    fn bad_threads_is_an_error() {
        for bad in ["0", "33", "x"] {
            let err = tm_config_from_args(&parse(&format!("--threads {bad}"))).unwrap_err();
            assert_eq!(
                err,
                format!("flag --threads expects an integer in 1..=32, got \"{bad}\"")
            );
        }
        assert_eq!(
            tm_config_from_args(&parse("--threads 32")).unwrap().threads,
            32
        );
    }

    #[test]
    fn bad_quantum_is_an_error() {
        let err = tm_config_from_args(&parse("--quantum 1e3")).unwrap_err();
        assert!(
            err.starts_with("flag --quantum expects an integer"),
            "{err}"
        );
    }

    #[test]
    fn bad_seed_is_an_error() {
        let err = tm_config_from_args(&parse("--seed -1")).unwrap_err();
        assert!(err.starts_with("flag --seed expects an integer"), "{err}");
    }

    #[test]
    fn bad_sched_seed_is_an_error() {
        let err = tm_config_from_args(&parse("--sched-seed 18446744073709551616")).unwrap_err();
        assert!(
            err.starts_with("flag --sched-seed expects an integer"),
            "{err}"
        );
    }

    #[test]
    fn bad_granularity_is_an_error() {
        let err = tm_config_from_args(&parse("--granularity byte")).unwrap_err();
        assert!(err.contains("--granularity \"byte\""), "{err}");
        assert!(err.contains("word|line"), "{err}");
    }
}
