#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests, and the access-discipline
# lint over the application crates. Mirrors .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> perfbench's own tests (a separate workspace)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> stamp_lint"
cargo run -q -p bench --bin stamp_lint

echo "==> ablation_cm --smoke"
cargo run -q --release -p bench --bin ablation_cm -- --smoke

echo "==> schedfuzz --smoke"
cargo run -q --release -p bench --bin schedfuzz -- --smoke

echo "==> schedfuzz --golden --check (all 20 goldens byte-identical)"
cargo run -q --release -p bench --bin schedfuzz -- --golden --check

echo "==> goldens under ambient TM_CM/TM_FAULT (the pinned configs must ignore them)"
TM_CM=karma TM_FAULT=seed=3,intr=5 cargo run -q --release -p bench --bin schedfuzz -- --golden --check

echo "==> chaos --smoke"
cargo run -q --release -p bench --bin chaos -- --smoke

echo "==> chaos --check (full sweep byte-identical to results/chaos.txt and results/BENCH_chaos.json)"
cargo run -q --release -p bench --bin chaos -- --check

echo "==> table4 --smoke"
cargo run -q --release -p bench --bin table4 -- --smoke

echo "==> table4 --check"
cargo run -q --release -p bench --bin table4 -- --check

echo "==> table4 --check under ambient TM_CM/TM_FAULT"
TM_CM=karma TM_FAULT=seed=3,intr=5 cargo run -q --release -p bench --bin table4 -- --check

echo "==> perfbench observed-2t correctness pass (sanitizer + pinned fingerprints)"
python3 perfbench/run.py --workload observed-2t --seconds 1 --trace 0 | tail -n 1 | tee /dev/stderr \
  | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] is True and r["failed"] == 0))'

echo "==> perfbench solo-1t correctness pass (1 thread, pinned fingerprints)"
python3 perfbench/run.py --workload solo-1t --seconds 1 --trace 0 | tail -n 1 | tee /dev/stderr \
  | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] is True and r["failed"] == 0))'

echo "==> perfbench contended-16t correctness pass (16 threads, pinned fingerprints)"
python3 perfbench/run.py --workload contended-16t --seconds 1 --trace 0 | tail -n 1 | tee /dev/stderr \
  | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] is True and r["failed"] == 0))'

echo "check.sh: all gates passed"
