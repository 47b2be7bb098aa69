//! The one place that reads configuration: the shared TM flag rows,
//! the process arguments and the `TM_*` environment variables.
//!
//! Every binary declares one [`Table`]: its own rows plus the shared
//! TM rows it takes (all of them for an app, the [`run_rows`] it does
//! not set itself for a harness). [`parse_or_exit`] checks the whole
//! table before anything runs and [`tm_config`] applies the TM rows
//! over the pure [`TmConfig::new`]. Nothing else in the workspace
//! reads `TM_*`, so a library caller of `TmConfig::new` always gets the
//! paper's defaults.

use tm::{
    CmPolicy, FaultConfig, Granularity, SchedMode, SystemKind, TmConfig, TraceLevel,
    WatchdogConfig, DEFAULT_PCT_GAP,
};

use crate::flags::{Flag, Flags, Stop, Table};
use crate::params::{AppArgs, AppKind};
use crate::report::AppReport;

const SYSTEMS: &str = "seq|lazy-htm|eager-htm|lazy-stm|eager-stm|lazy-hybrid|eager-hybrid|lock";
const POLICIES: &str = "immediate|linear|exponential|karma|adaptive";

/// A seed in decimal or `0x`-prefixed hex.
fn parse_seed(v: &str) -> Result<u64, String> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
    .ok_or_else(|| "expected a u64, decimal or 0x-hex".to_string())
}

/// Every shared TM row, in `--help` order. Each sets one [`TmConfig`]
/// field, or (`trace`) the process's trace levels.
#[rustfmt::skip]
fn all_rows() -> Vec<Flag> {
    let d = TmConfig::new(SystemKind::LazyStm, 1);
    let seed = |name, default: u64, help| {
        Flag::value(name, "<u64>", Some(&format!("{default:#x}")), help, parse_seed)
    };
    let granularity = |s: &str| match s {
        "word" => Some(Granularity::Word),
        "line" => Some(Granularity::Line),
        _ => None,
    };
    vec![
        Flag::choice("system", SYSTEMS, Some("lazy-stm"), "TM system", SystemKind::parse),
        Flag::range("threads", 4usize, 1..=32, "logical processors (seq runs 1)"),
        Flag::num("quantum", d.quantum, "scheduler quantum, in cycles"),
        seed("tm-seed", d.seed, "seed of the backoff RNGs"),
        Flag::choice("granularity", "word|line", Some("word"), "STM conflict unit", granularity),
        Flag::switch("cache-sim", "model L1 hits and misses with a tag array"),
        Flag::choice("sched", "minclock|pct", Some("minclock"), "dispatch mode", SchedMode::parse)
            .env("TM_SCHED"),
        Flag::range("sched-gap", DEFAULT_PCT_GAP, 1.., "mean steps between PCT change points")
            .env("TM_SCHED_GAP"),
        seed("sched-seed", d.sched_seed, "scheduler replay seed").env("TM_SCHED_SEED"),
        Flag::choice("cm", POLICIES, None, "contention manager (default: the system's)", CmPolicy::parse)
            .env("TM_CM"),
        Flag::value("fault", "<spec>", None, "fault injection: seed=S,cap=P,intr=P,.. (tm::fault)", FaultConfig::parse)
            .env("TM_FAULT"),
        Flag::value("watchdog", "<spec>", None, "starvation watchdog: aborts=N,cycles=C", WatchdogConfig::parse)
            .env("TM_WATCHDOG"),
        Flag::switch("verify", "run under the tm::verify sanitizer").env("TM_VERIFY"),
        Flag::switch("prof", "run under the tm::prof cycle profiler").env("TM_PROF"),
        Flag::value("trace", "<levels>", None, "stderr events: conflicts,overflows,sighits,verify,faults|all", TraceLevel::parse_list)
            .env("TM_TRACE"),
    ]
}

/// The shared TM rows named in `names`.
pub fn tm_rows(names: &[&str]) -> Vec<Flag> {
    let rows: Vec<Flag> = all_rows()
        .into_iter()
        .filter(|r| names.contains(&r.name()))
        .collect();
    assert_eq!(rows.len(), names.len(), "no shared TM row in {names:?}");
    rows
}

/// The shared rows that say how a run is scheduled, managed and
/// observed, not what it runs: the rows an unpinned harness takes.
#[rustfmt::skip]
const RUN_ROWS: [&str; 9] = [
    "sched", "sched-gap", "sched-seed", "cm", "fault", "watchdog", "verify", "prof", "trace",
];

/// The `RUN_ROWS` but `except`.
pub fn run_rows(except: &[&str]) -> Vec<Flag> {
    let keep = |r: &Flag| RUN_ROWS.contains(&r.name()) && !except.contains(&r.name());
    all_rows().into_iter().filter(keep).collect()
}

/// [`TmConfig::new`]`(system, threads)` (or the sequential baseline)
/// with every shared TM row the table holds applied over it.
pub fn tm_config(f: &Flags, system: SystemKind, threads: usize) -> TmConfig {
    let mut cfg = if system == SystemKind::Sequential {
        TmConfig::sequential()
    } else {
        TmConfig::new(system, threads)
    };
    cfg.quantum = f.opt("quantum").copied().unwrap_or(cfg.quantum);
    cfg.seed = f.opt("tm-seed").copied().unwrap_or(cfg.seed);
    cfg.stm_granularity = f.opt("granularity").copied().unwrap_or(cfg.stm_granularity);
    cfg.sched = match f.opt("sched").copied().unwrap_or(cfg.sched) {
        SchedMode::Pct { .. } => SchedMode::Pct {
            avg_gap: f.opt("sched-gap").copied().unwrap_or(DEFAULT_PCT_GAP),
        },
        m => m,
    };
    cfg.sched_seed = f.opt("sched-seed").copied().unwrap_or(cfg.sched_seed);
    cfg.cache_sim = f.on("cache-sim");
    cfg.cm = f.opt("cm").copied();
    cfg.fault = f.opt("fault").copied();
    cfg.watchdog = f.opt("watchdog").copied();
    cfg.verify = f.on("verify");
    cfg.prof = f.on("prof");
    cfg
}

/// Parse this process's arguments (and, for rows that name one, its
/// environment) against `bin`'s table. `--help` prints the generated
/// help and exits 0; bad input prints one line naming the flag or
/// variable and exits 2. A `trace` row sets the trace levels.
pub fn parse_or_exit(bin: &'static str, rows: Vec<Flag>) -> Flags {
    match Table::new(bin, rows).parse(std::env::args().skip(1), |k| std::env::var(k).ok()) {
        Ok(f) => {
            tm::trace::enable(f.opt::<Vec<TraceLevel>>("trace").map_or(&[], Vec::as_slice));
            f
        }
        Err(Stop::Help(help)) => {
            print!("{help}");
            std::process::exit(0)
        }
        Err(Stop::Bad(e)) => {
            eprintln!("{bin}: {e}");
            std::process::exit(2)
        }
    }
}

/// Application `app`'s table rows: its own, then every shared TM row.
pub fn app_rows(app: AppKind) -> Vec<Flag> {
    let mut rows = app.rows();
    rows.extend(all_rows());
    rows
}

/// The whole `main` of an application binary: parse its table, run,
/// print the summary line; exit 1 if the output verifier failed.
pub fn app_main<P: AppArgs>(run: fn(&P, TmConfig) -> AppReport) {
    let f = parse_or_exit(P::APP.name(), app_rows(P::APP));
    let cfg = tm_config(&f, f.val("system"), f.val("threads"));
    let report = run(&P::from_flags(&f), cfg);
    println!("{report}");
    if !report.verified {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::VacationParams;

    fn config(args: &str, env: &[(&str, &str)]) -> Result<TmConfig, Stop> {
        let env: Vec<(String, String)> = env
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let table = Table::new("genome", app_rows(AppKind::Genome));
        let f = table.parse(args.split_whitespace().map(String::from), |k| {
            env.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone())
        })?;
        Ok(tm_config(&f, f.val("system"), f.val("threads")))
    }

    fn bad(args: &str, env: &[(&str, &str)]) -> String {
        match config(args, env) {
            Err(Stop::Bad(e)) => e,
            other => panic!("{args:?} {env:?} parsed: {other:?}"),
        }
    }

    #[test]
    fn defaults_are_the_pure_tm_config() {
        let cfg = config("", &[]).unwrap();
        let pure = TmConfig::new(SystemKind::LazyStm, 4);
        assert_eq!(format!("{cfg:?}"), format!("{pure:?}"));
    }

    #[test]
    fn every_row_sets_its_field() {
        let cfg = config(
            "--system eager-htm --threads 8 --quantum 100 --tm-seed 0x10 --granularity line \
             --cache-sim --sched pct --sched-gap 25 --sched-seed 99 --cm karma \
             --fault seed=3,intr=5 --watchdog aborts=8 --verify --prof",
            &[],
        )
        .unwrap();
        assert_eq!(cfg.system, SystemKind::EagerHtm);
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.quantum, 100);
        assert_eq!(cfg.seed, 16);
        assert_eq!(cfg.stm_granularity, Granularity::Line);
        assert!(cfg.cache_sim);
        assert_eq!(cfg.sched, SchedMode::Pct { avg_gap: 25 });
        assert_eq!(cfg.sched_seed, 99);
        assert_eq!(cfg.cm, Some(CmPolicy::DEFAULT_KARMA));
        assert_eq!(cfg.fault, FaultConfig::parse("seed=3,intr=5").ok());
        assert_eq!(cfg.watchdog, WatchdogConfig::parse("aborts=8").ok());
        assert!(cfg.verify && cfg.prof);
    }

    #[test]
    fn env_sets_a_row_and_the_flag_beats_it() {
        let env = [
            ("TM_CM", "karma"),
            ("TM_SCHED", "pct"),
            ("TM_SCHED_GAP", "7"),
            ("TM_SCHED_SEED", "0x2a"),
            ("TM_VERIFY", "1"),
        ];
        let cfg = config("", &env).unwrap();
        assert_eq!(cfg.cm, Some(CmPolicy::DEFAULT_KARMA));
        assert_eq!(cfg.sched, SchedMode::Pct { avg_gap: 7 });
        assert_eq!(cfg.sched_seed, 42);
        assert!(cfg.verify);
        let cfg = config("--cm linear --sched minclock --sched-seed 1", &env).unwrap();
        assert_eq!(cfg.cm, Some(CmPolicy::DEFAULT_LINEAR));
        assert_eq!(cfg.sched, SchedMode::MinClock);
        assert_eq!(cfg.sched_seed, 1);
    }

    #[test]
    fn every_run_row_is_a_shared_row() {
        assert_eq!(run_rows(&[]).len(), RUN_ROWS.len());
        assert_eq!(run_rows(&["cm", "trace"]).len(), RUN_ROWS.len() - 2);
    }

    #[test]
    fn sequential_forces_one_thread() {
        let cfg = config("--system seq --threads 8", &[]).unwrap();
        assert_eq!(cfg.system, SystemKind::Sequential);
        assert_eq!(cfg.threads, 1);
    }

    #[test]
    fn bad_values_name_the_flag_or_variable() {
        assert!(
            bad("--system lazy-tsm", &[]).starts_with("invalid value \"lazy-tsm\" for --system")
        );
        assert!(bad("--threads 0", &[]).ends_with("expected a usize in 1..=32"));
        assert!(bad("--quantum 1e3", &[]).contains("--quantum"));
        assert!(bad("--sched-seed -1", &[]).contains("--sched-seed"));
        assert!(bad("--granularity byte", &[]).ends_with("expected word|line"));
        assert!(bad("", &[("TM_CM", "bogus")]).starts_with("invalid value \"bogus\" for TM_CM"));
        assert!(bad("", &[("TM_SCHED", "fifo")]).ends_with("expected minclock|pct"));
        for gap in ["abc", "0", "-3"] {
            assert!(bad("", &[("TM_SCHED_GAP", gap)]).contains("TM_SCHED_GAP"));
        }
        assert!(bad("", &[("TM_FAULT", "cap=2000")]).contains("TM_FAULT"));
        assert!(bad("", &[("TM_WATCHDOG", "x")]).contains("TM_WATCHDOG"));
        assert!(bad("", &[("TM_TRACE", "bogus")]).contains("TM_TRACE"));
        assert!(bad("", &[("TM_PROF", "yes")]).contains("TM_PROF"));
    }

    fn defaults<P: AppArgs>() -> P {
        let table = Table::new(P::APP.name(), app_rows(P::APP));
        P::from_flags(&table.parse(Vec::new(), |_| None).unwrap())
    }

    #[test]
    fn app_defaults_fill_every_param() {
        use crate::params::*;
        let bayes = BayesParams {
            vars: 32,
            records: 1024,
            num_parent: 2,
            percent_parent: 20,
            insert_penalty: 2,
            max_num_edge_learned: 2,
            seed: 1,
            adtree: true,
        };
        assert_eq!(defaults::<BayesParams>(), bayes);
        let genome = GenomeParams {
            gene_length: 256,
            segment_length: 16,
            num_segments: 16384,
            seed: 0,
        };
        assert_eq!(defaults::<GenomeParams>(), genome);
        let intruder = IntruderParams {
            attack_percent: 10,
            max_packets_per_flow: 4,
            num_flows: 2048,
            seed: 1,
        };
        assert_eq!(defaults::<IntruderParams>(), intruder);
        let kmeans = KmeansParams {
            min_clusters: 15,
            max_clusters: 15,
            threshold: 0.05,
            points: 2048,
            dims: 16,
            centers: 16,
            seed: 7,
        };
        assert_eq!(defaults::<KmeansParams>(), kmeans);
        let labyrinth = LabyrinthParams {
            x: 32,
            y: 32,
            z: 3,
            paths: 96,
            seed: 5,
        };
        assert_eq!(defaults::<LabyrinthParams>(), labyrinth);
        let ssca2 = Ssca2Params {
            scale: 13,
            prob_interclique: 1.0,
            prob_unidirectional: 1.0,
            max_path_length: 3,
            max_parallel_edges: 3,
            seed: 3,
        };
        assert_eq!(defaults::<Ssca2Params>(), ssca2);
        let vacation = VacationParams {
            items_per_session: 4,
            query_percent: 60,
            user_percent: 90,
            records: 16384,
            sessions: 4096,
            seed: 1,
        };
        assert_eq!(defaults::<VacationParams>(), vacation);
        let yada = YadaParams {
            min_angle: 20.0,
            init_points: 640,
            seed: 9,
        };
        assert_eq!(defaults::<YadaParams>(), yada);
    }

    #[test]
    fn app_seed_and_tm_seed_are_separate_rows() {
        let table = Table::new("vacation", app_rows(AppKind::Vacation));
        let args = "--seed 7".split_whitespace().map(String::from);
        let f = table.parse(args, |_| None).unwrap();
        assert_eq!(VacationParams::from_flags(&f).seed, 7);
        let pure = TmConfig::new(SystemKind::LazyStm, 4);
        assert_eq!(tm_config(&f, SystemKind::LazyStm, 4).seed, pure.seed);
    }

    #[test]
    fn seeds_parse_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Ok(42));
        assert_eq!(parse_seed("0x2A"), Ok(42));
        assert!(parse_seed("0xg").is_err());
    }
}
