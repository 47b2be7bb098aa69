//! The `genome` binary as a process: `--help` exits 0 without running,
//! a small run exits 0, and every bad flag, value or `TM_*` variable
//! exits 2 with one line on stderr and no panic.

use std::process::{Command, Output};

/// Arguments and `TM_*` variables of one run.
type Case<'a> = (&'a [&'a str], &'a [(&'a str, &'a str)]);

fn genome(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_genome"));
    for (var, _) in std::env::vars().filter(|(k, _)| k.starts_with("TM_")) {
        cmd.env_remove(var);
    }
    cmd.args(args).envs(env.iter().copied()).output().unwrap()
}

#[test]
fn help_and_a_small_run_exit_0() {
    let out = genome(&["--help"], &[]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(help.starts_with("usage: genome"), "{help}");
    assert!(
        help.contains("--tm-seed") && help.contains("[env TM_CM]"),
        "{help}"
    );
    assert!(!help.contains("commits="), "--help ran the workload");

    let out = genome(
        &["-g64", "-n", "256", "--threads", "2"],
        &[("TM_CM", "karma")],
    );
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout)
        .trim_end()
        .ends_with("OK"));
}

#[test]
fn bad_input_exits_2_with_one_line() {
    let cases: [Case; 9] = [
        (&["-t16"], &[]),
        (&["--bogus", "3"], &[]),
        (&["-g", "abc"], &[]),
        (&["--threads", "33"], &[]),
        (&["--system"], &[]),
        (&[], &[("TM_CM", "bogus")]),
        (&[], &[("TM_SCHED", "fifo")]),
        (&[], &[("TM_TRACE", "bogus")]),
        (&[], &[("TM_FAULT", "cap=5000")]),
    ];
    for (args, env) in cases {
        let out = genome(args, env);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {env:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.starts_with("genome: "), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(out.stdout.is_empty(), "ran before failing");
    }
}
