#!/usr/bin/env bash
# Non-test lines of the workspace sources: every `.rs` file under
# `crates/*/src` and `src`, counted up to its first `#[cfg(test)]` line.
# Prints one row per crate (`src` is the root package) and the total.
#
# Usage: scripts/loc.sh [BASE]
#   BASE   a commit to compare with: each row then also prints BASE's
#          count and the delta. BASE's files are read with `git show`;
#          the worktree is not touched.
set -euo pipefail

cd "$(dirname "$0")/.."

# Prints "crate lines" for each source file of a tree: the worktree when
# $1 is empty, else commit $1. awk reads each file to its end, so the
# writer never meets a closed pipe (which `pipefail` would turn into an
# exit).
tally() {
    local rev="$1" f
    if [ -z "$rev" ]; then
        find crates/*/src src -name '*.rs' | sort
    else
        git ls-tree -r --name-only "$rev" -- crates src
    fi | grep -E '^(crates/[^/]+/)?src/.*\.rs$' | while read -r f; do
        local crate=src
        [[ "$f" == crates/* ]] && crate="${f#crates/}" && crate="${crate%%/*}"
        if [ -z "$rev" ]; then cat "$f"; else git show "$rev:$f"; fi \
            | awk -v c="$crate" '/#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print c, n + 0 }'
    done
}

BASE="${1:-}"
if [ -n "$BASE" ]; then
    git rev-parse --verify -q "$BASE^{commit}" >/dev/null \
        || { echo "loc: unknown commit '$BASE'" >&2; exit 2; }
fi
{
    tally "" | sed 's/^/now /'
    [ -z "$BASE" ] || tally "$BASE" | sed 's/^/base /'
} | awk '{ n[$2 " " $1] += $3; c[$2] = 1 } END { for (k in c) print k, n[k " base"] + 0, n[k " now"] + 0 }' \
    | sort | awk -v base="$BASE" '
        BEGIN {
            if (base == "") printf "%-12s %8s\n", "crate", "lines"
            else printf "%-12s %8s %8s %8s\n", "crate", "base", "now", "delta"
        }
        {
            b += $2; c += $3
            if (base == "") printf "%-12s %8d\n", $1, $3
            else printf "%-12s %8d %8d %+8d\n", $1, $2, $3, $3 - $2
        }
        END {
            if (base == "") printf "%-12s %8d\n", "total", c
            else printf "%-12s %8d %8d %+8d\n", "total", b, c, c - b
        }'
