#!/usr/bin/env python3
"""Build and run the host-cost benchmark of the STAMP simulator.

Usage, from the repository root:

    python3 perfbench/run.py --workload solo-1t --seed 1 --seconds 35 --trace 0

Builds the `perfbench` package (its own cargo workspace, depending on the
repository's crates by path) in release mode, offline, into
$CARGO_TARGET_DIR (default: .bench_build in the current directory), then
runs it with the given arguments. The benchmark's stdout passes through
unchanged; its last line is the JSON result. With --trace 1 the spans are
written to <target dir>/perfbench-spans/<workload>-seed<seed>.jsonl.

Exits non-zero, without a result line, when the repository's crates are
missing, the build fails, or the benchmark fails or runs too long.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def arg_value(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "crates", "bench", "Cargo.toml")):
        print("perfbench: the repository's crates are not next to perfbench/", file=sys.stderr)
        return 2

    # The engine reads TM_* variables; the benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TM_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(target, "release", "perfbench")] + args
    if arg_value(args, "--trace", "0") == "1" and "--spans" not in args:
        name = "%s-seed%s.jsonl" % (arg_value(args, "--workload", "none"),
                                   arg_value(args, "--seed", "default"))
        cmd += ["--spans", os.path.join(target, "perfbench-spans", name)]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
