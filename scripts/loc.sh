#!/usr/bin/env bash
# Print the non-test lines of each crate under crates/: for every .rs
# file under the crate's src/, the lines before the file's first
# `#[cfg(test)]` (the whole file when it has none). Informational, not
# a gate: run it before and after a change to state its size.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    n=$(find "$src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }')
    printf '%6d  %s\n' "$n" "$src"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
