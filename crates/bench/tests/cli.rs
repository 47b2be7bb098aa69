//! Every binary's flag table, driven in process: `--help` lists every
//! row, an unknown flag is an error naming it, each value row rejects a
//! bad value (from the command line and from its environment variable),
//! the defaults parse, and every harness row reads back good values
//! with the type its binary reads. Then `figure1` as a process: exit
//! codes 0 and 2, one line on stderr, no panic.

use std::process::{Command, Output};

/// Arguments and `TM_*` variables of one run.
type Case<'a> = (&'a [&'a str], &'a [(&'a str, &'a str)]);

use std::path::PathBuf;

use stamp_util::driver::{app_rows, tm_config};
use stamp_util::flags::{Flags, Stop, Table};
use stamp_util::{AppKind, Variant};
use tm::{FaultConfig, SystemKind, TraceLevel};

fn tables() -> Vec<Table> {
    let apps = AppKind::ALL.map(|a| Table::new(a.name(), app_rows(a)));
    let harnesses = bench::cli::HARNESSES.map(|(bin, rows)| Table::new(bin, rows()));
    apps.into_iter().chain(harnesses).collect()
}

fn parse(table: &Table, args: &[&str], env: Option<(&str, &str)>) -> Result<(), Stop> {
    let args = args.iter().map(|a| a.to_string());
    let env = |k: &str| env.filter(|(var, _)| *var == k).map(|(_, v)| v.to_string());
    table.parse(args, env).map(|_| ())
}

fn bad(table: &Table, args: &[&str], env: Option<(&str, &str)>) -> String {
    match parse(table, args, env) {
        Err(Stop::Bad(e)) => {
            assert!(!e.contains('\n'), "{e}");
            e
        }
        other => panic!("{args:?} {env:?} did not fail: {other:?}"),
    }
}

#[test]
fn every_table_has_help_strict_names_and_typed_values() {
    let tables = tables();
    assert_eq!(tables.len(), 8 + 15);
    for t in &tables {
        parse(t, &[], None).unwrap_or_else(|e| panic!("defaults of {t:?}: {e:?}"));
        let Err(Stop::Help(help)) = parse(t, &["--help"], None) else {
            panic!("{t:?}: --help did not stop the parse");
        };
        for row in t.rows() {
            assert!(help.contains(&format!("  {} ", row.flag())), "{help}");
        }
        let e = bad(t, &["--no-such-flag", "1"], None);
        assert!(e.contains("--no-such-flag"), "{e}");
        for row in t.rows() {
            let flag = row.flag();
            if !row.takes_value() {
                assert!(bad(t, &[&format!("{flag}=1")], None).contains(&flag));
            } else if row.name() != "json" {
                let e = bad(t, &[&flag, "bogus"], None);
                assert!(
                    e.starts_with(&format!("invalid value \"bogus\" for {flag}:")),
                    "{e}"
                );
            }
            if let Some(var) = row.var() {
                assert!(help.contains(&format!("[env {var}]")), "{help}");
                let e = bad(t, &[], Some((var, "bogus")));
                assert!(
                    e.starts_with(&format!("invalid value \"bogus\" for {var}:")),
                    "{e}"
                );
            }
        }
    }
}

#[test]
fn thread_rows_are_range_checked() {
    for t in tables() {
        for row in t.rows() {
            let flag = row.flag();
            match row.name() {
                "threads" | "threads16" => {
                    parse(&t, &[&flag, "32"], None).unwrap();
                    bad(&t, &[&flag, "33"], None);
                    bad(&t, &[&flag, "0"], None);
                }
                "threadlist" => {
                    parse(&t, &[&flag, "1,32"], None).unwrap();
                    bad(&t, &[&flag, "1,64"], None);
                }
                _ => {}
            }
        }
    }
}

fn harness(bin: &str) -> Table {
    let (bin, rows) = bench::cli::HARNESSES
        .into_iter()
        .find(|(name, _)| *name == bin)
        .unwrap();
    Table::new(bin, rows())
}

#[test]
fn figure1_flags_parse() {
    let t = harness("figure1");
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let names = |f: &Flags| {
        bench::cli::variants(f)
            .iter()
            .map(|v| v.name)
            .collect::<Vec<_>>()
    };
    let f = t
        .parse(
            args("--scale 4 --variants kmeans-high,yada --threadlist 1,2"),
            |_| None,
        )
        .unwrap();
    assert_eq!(f.val::<u32>("scale"), 4);
    assert_eq!(names(&f), ["kmeans-high", "yada"]);
    assert_eq!(f.val::<Vec<usize>>("threadlist"), [1, 2]);
    let f = t.parse(args("--variants yada,genome+"), |_| None).unwrap();
    assert_eq!(names(&f), ["genome+", "yada"], "Table IV order");
    let f = t.parse(Vec::new(), |_| None).unwrap();
    assert_eq!(f.val::<u32>("scale"), 1);
    assert_eq!(bench::cli::variants(&f), stamp_util::sim_variants());
    assert_eq!(f.val::<Vec<usize>>("threadlist"), [1, 2, 4, 8, 16]);
}

/// A good value for value row `name` of harness `bin`, and the typed
/// read its binary makes of it (of a shared TM row: `tm_config`'s).
fn good_value(bin: &str, name: &str) -> (&'static str, fn(&Flags, &str)) {
    fn val<T: Clone + 'static>(f: &Flags, name: &str) {
        f.val::<T>(name);
    }
    fn tm(f: &Flags, _: &str) {
        tm_config(f, SystemKind::LazyStm, 4);
    }
    match (bin, name) {
        ("chaos", "variants") => ("yada", val::<Variant>),
        (_, "variants") => ("yada,kmeans-high", val::<Vec<Variant>>),
        (_, "scale") => ("4", val::<u32>),
        (_, "threads" | "threads16") => ("2", val::<usize>),
        (_, "threadlist") => ("1,2", val::<Vec<usize>>),
        (_, "json") => ("-", val::<PathBuf>),
        (_, "system") => ("eager-htm", val::<SystemKind>),
        (_, "systems") => ("eager-htm,lazy-stm", val::<Vec<SystemKind>>),
        ("schedfuzz", "sweep" | "pct" | "seed0") => ("3", val::<u64>),
        ("ablation_earlyrelease", "x" | "y" | "z" | "n" | "seed") => ("8", val::<u32>),
        (_, "sched-gap") => ("5", val::<u64>),
        (_, "fault") => ("seed=3,intr=5", val::<FaultConfig>),
        (_, "trace") => ("conflicts", val::<Vec<TraceLevel>>),
        (_, "sched") => ("pct", tm),
        (_, "sched-seed") => ("0x2a", tm),
        (_, "cm") => ("karma", tm),
        (_, "watchdog") => ("aborts=8", tm),
        _ => panic!("{bin}: no read listed for --{name}"),
    }
}

#[test]
fn every_harness_row_reads_back_as_its_binary_reads_it() {
    for (bin, rows) in bench::cli::HARNESSES {
        let t = Table::new(bin, rows());
        let mut args = Vec::new();
        for row in t.rows() {
            args.push(row.flag());
            if row.takes_value() {
                args.push(good_value(bin, row.name()).0.to_string());
            }
        }
        let f = t
            .parse(args, |_| None)
            .unwrap_or_else(|e| panic!("{bin}: {e:?}"));
        for row in t.rows() {
            if row.takes_value() {
                good_value(bin, row.name()).1(&f, row.name());
            } else {
                assert!(f.on(row.name()), "{bin} {}", row.flag());
            }
        }
        tm_config(&f, SystemKind::LazyStm, 4);
    }
}

fn figure1(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figure1"));
    for (var, _) in std::env::vars().filter(|(k, _)| k.starts_with("TM_")) {
        cmd.env_remove(var);
    }
    cmd.args(args).envs(env.iter().copied()).output().unwrap()
}

#[test]
fn figure1_exits_0_on_help_and_2_on_bad_input() {
    let out = figure1(&["--help"], &[("TM_CM", "bogus")]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: figure1"));
    let cases: [Case; 4] = [
        (&["--threadlist", "64"], &[]),
        (&["--threadlist", "x"], &[]),
        (&["--bogus"], &[]),
        (
            &["--scale", "64", "--variants", "genome"],
            &[("TM_CM", "bogus")],
        ),
    ];
    for (args, env) in cases {
        let out = figure1(args, env);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {env:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.starts_with("figure1: "), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(out.stdout.is_empty(), "ran before failing");
    }
}
