//! The harness binaries' flag tables ([`HARNESSES`]): each binary's own
//! rows plus the shared TM rows it does not sweep or pin itself.
//!
//! An unpinned harness builds every run's configuration with
//! [`stamp_util::driver::tm_config`], so `TM_CM=karma figure1` runs
//! Figure 1 under karma. The pinned artifacts (`schedfuzz --golden`,
//! `table4`) start from the pure `TmConfig::new` and take no TM row but
//! `trace`.

use std::path::PathBuf;

use stamp_util::driver::{parse_or_exit, run_rows, tm_rows};
use stamp_util::{Flag, Flags, Variant};
use tm::SystemKind;

use crate::table4::{TABLE4_APPS, TABLE4_SCALE, TABLE4_THREADS};

fn scale(default: u32) -> Flag {
    Flag::range("scale", default, 1.., "divide every workload by N")
}

fn threads(default: usize) -> Flag {
    Flag::range("threads", default, 1..=32, "logical processors")
}

fn json() -> Flag {
    let help = "write the JSON rows to <path> (- for stdout)";
    Flag::value("json", "<path>", None, help, |s| Ok(PathBuf::from(s)))
}

/// `--variants a,b,..`, kept in Table IV order; unset, [`variants`]
/// picks the 20 simulator-sized.
fn variants_row(default: Option<&str>) -> Flag {
    Flag::value(
        "variants",
        "<a,b,..>",
        default,
        "Table IV variants to run",
        |s| {
            let names: Vec<&str> = s.split(',').map(str::trim).collect();
            if let Some(n) = names.iter().find(|n| stamp_util::variant(n).is_none()) {
                return Err(format!("unknown variant {n:?} (see table4 --list)"));
            }
            let all = stamp_util::all_variants().into_iter();
            Ok(all
                .filter(|v| names.contains(&v.name))
                .collect::<Vec<Variant>>())
        },
    )
}

fn threadlist() -> Flag {
    let help = "thread counts to sweep";
    Flag::value("threadlist", "<t,t,..>", Some("1,2,4,8,16"), help, |s| {
        s.split(',')
            .map(|t| t.trim().parse().ok().filter(|t| (1..=32).contains(t)))
            .collect::<Option<Vec<usize>>>()
            .ok_or_else(|| "expected comma-separated thread counts in 1..=32".to_string())
    })
}

/// One of the six TM systems, by name or label (`lazy-stm`, `Lazy STM`).
fn tm_system(s: &str) -> Result<SystemKind, String> {
    SystemKind::parse(s.trim())
        .filter(|s| SystemKind::ALL_TM.contains(s))
        .ok_or_else(|| "expected TM systems, e.g. eager-htm,lazy-stm".to_string())
}

fn with(own: Vec<Flag>, tm: Vec<Flag>) -> Vec<Flag> {
    own.into_iter().chain(tm).collect()
}

/// Every harness binary with its table rows.
#[rustfmt::skip]
#[allow(clippy::type_complexity)]
pub const HARNESSES: [(&str, fn() -> Vec<Flag>); 15] = [
    ("table1", Vec::new),
    ("table2", Vec::new),
    ("table3", || with(vec![scale(4), threads(16)], run_rows(&[]))),
    ("table4", || with(vec![
        Flag::switch("list", "print the 30 recommended configurations"),
        Flag::switch("check", "byte-verify results/table4.json"),
        Flag::switch("write", "regenerate results/table4.json"),
        Flag::switch("smoke", "CI gate: 8 apps x 2 systems, invariant asserted"),
        scale(TABLE4_SCALE),
        threads(TABLE4_THREADS),
        variants_row(Some(&TABLE4_APPS.join(","))),
        json(),
    ], tm_rows(&["trace"]))),
    ("table6", || with(vec![
        scale(1),
        variants_row(None),
        Flag::range("threads16", 16usize, 1..=32, "threads of the retry columns"),
        Flag::switch("working-sets", "add the cache-size sweep"),
        json(),
    ], run_rows(&[]))),
    ("figure1", || with(vec![
        scale(1),
        variants_row(None),
        threadlist(),
        Flag::switch("csv", "machine-readable rows only"),
        Flag::switch("plot", "ASCII speedup charts"),
        Flag::switch("with-lock", "add the global-lock baseline"),
        json(),
    ], run_rows(&[]))),
    ("ablation_backoff", || {
        with(vec![scale(1), variants_row(Some("intruder")), threads(8)], run_rows(&["cm"]))
    }),
    ("ablation_bayes_backend", || with(vec![scale(1), threads(16)], run_rows(&[]))),
    ("ablation_cm", || with(vec![
        scale(1),
        variants_row(Some("genome,intruder,vacation-high,kmeans-high")),
        threadlist(),
        Flag::value("system", "<name>", None, "force one TM system", tm_system),
        Flag::switch("smoke", "CI-sized: scale >= 64, threads {2,8}"),
        json(),
    ], run_rows(&["cm"]))),
    ("ablation_earlyrelease", || with(vec![
        threads(4),
        Flag::num("x", 32u32, "maze width"),
        Flag::num("y", 32u32, "maze height"),
        Flag::num("z", 3u32, "maze depth"),
        Flag::num("n", 48u32, "number of paths to route"),
        Flag::num("seed", 5u32, "input seed"),
    ], run_rows(&[]))),
    ("ablation_granularity", || {
        with(vec![scale(1), variants_row(Some("bayes,vacation-high")), threads(8)], run_rows(&[]))
    }),
    ("ablation_sigsize", || {
        with(vec![scale(1), variants_row(Some("vacation-high")), threads(8)], run_rows(&[]))
    }),
    ("ablation_stall", || with(vec![
        scale(1),
        variants_row(Some("intruder,vacation-high,yada")),
        threads(16),
    ], run_rows(&[]))),
    ("schedfuzz", || with(vec![
        Flag::switch("smoke", "CI gate (see the module docs)"),
        Flag::switch("golden", "regenerate results/golden/*.json"),
        Flag::switch("check", "with --golden: byte-verify instead"),
        Flag::num("sweep", 0u64, "seeds under min-clock dispatch"),
        Flag::num("pct", 0u64, "seeds under PCT dispatch"),
        Flag::num("seed0", 0u64, "first scheduler seed of a sweep"),
        scale(64),
        threads(4),
        variants_row(None),
        Flag::value("systems", "<s,s,..>", Some("eager-htm,lazy-stm"), "TM systems", |s| {
            s.split(',').map(tm_system).collect::<Result<Vec<_>, _>>()
        }),
        json(),
    ], run_rows(&["sched", "sched-seed", "verify"]))),
    ("chaos", || with(vec![
        Flag::switch("smoke", "CI gate: 2 rates x 30 seed pairs x 2 systems"),
        Flag::switch("check", "byte-verify results/chaos.txt and results/BENCH_chaos.json; write nothing"),
        scale(64),
        Flag::value("variants", "<name>", Some("genome"), "the one variant to sweep", |s| {
            stamp_util::variant(s).ok_or_else(|| "expected one variant".to_string())
        }),
        json(),
    ], tm_rows(&["cm", "prof", "trace"]))),
];

/// Parse this process's flags against harness `bin`'s table, exiting
/// 0 after `--help` and 2 on bad input.
///
/// # Panics
///
/// If `bin` is not in [`HARNESSES`].
pub fn parse(bin: &'static str) -> Flags {
    let (_, rows) = HARNESSES
        .iter()
        .find(|(name, _)| *name == bin)
        .unwrap_or_else(|| panic!("no flag table for {bin}"));
    parse_or_exit(bin, rows())
}

/// The `--variants` selection, or the 20 simulator-sized variants.
pub fn variants(f: &Flags) -> Vec<Variant> {
    f.opt::<Vec<Variant>>("variants")
        .cloned()
        .unwrap_or_else(stamp_util::sim_variants)
}
