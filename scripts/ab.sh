#!/usr/bin/env bash
# A/B benchmark of the working tree against a base commit.
#
# Exports BASE and copies the working tree (tracked and untracked files
# that git does not ignore) into two directories whose paths have equal
# length, since path strings embedded in a binary move code placement and
# so the simulator's speed. Builds ddbench in each, then runs N
# alternating pairs of `ddbench --trace 0` (odd pairs run the base first,
# even pairs the change first). For each workload and end-to-end metric it
# prints the base median with its q1-q3, the change's median, the delta
# and the change's wins out of N pairs. Quartiles are Python's
# `statistics.quantiles(n=4)`, as ddbench computes its own. It writes
# nothing tracked: the copies, builds and raw outputs live in a temporary
# directory that is removed on exit.
#
# With `--per-layer` each run is plain `ddbench`, without `--trace 0`, and
# the table adds the per-layer metrics of the untraced passes
# (`testbed.expand_s`, `testbed.build_s`, `simkit.cap_grew_cells`, ...)
# below the end-to-end ones, so a move in `setup_s` can be split into
# expand and build. The metrics of ddbench's traced passes (those its
# catalogue marks `Traced`) are left out. Whether higher is better comes
# from `BENCHMARK.json`.
#
# With `--micro FILTER` it does the same for the micro-benchmarks instead:
# each run is `cargo bench -p bench --bench micro -- FILTER`, and each
# benchmark's median ns per iteration is the metric (lower is better).
#
# Usage: scripts/ab.sh BASE [--workload W | --micro FILTER] [--pairs N] [--aligned] [--per-layer]
#   BASE            a commit (e.g. HEAD~1)
#   --workload W    one ddbench workload (default: all of them)
#   --micro FILTER  compare the micro-benchmarks whose names contain FILTER
#   --pairs N       alternating pairs to run (default: 10)
#   --aligned       build both sides with every function aligned to 64
#                   bytes, so code placement moves less between them
#   --per-layer     also compare ddbench's untraced per-layer metrics
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh BASE [--workload W | --micro FILTER] [--pairs N] [--aligned] [--per-layer]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
BASE=$1
shift
WORKLOAD=()
MICRO=""
PAIRS=10
ALIGNED=0
PER_LAYER=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) [ $# -ge 2 ] || usage; WORKLOAD=(--workload "$2"); shift 2 ;;
        --micro) [ $# -ge 2 ] && [ -n "$2" ] || usage; MICRO=$2; shift 2 ;;
        --pairs) [ $# -ge 2 ] || usage; PAIRS=$2; shift 2 ;;
        --aligned) ALIGNED=1; shift ;;
        --per-layer) PER_LAYER=1; shift ;;
        *) usage ;;
    esac
done
case "$PAIRS" in '' | *[!0-9]*) usage ;; esac
[ -z "$MICRO" ] || { [ ${#WORKLOAD[@]} = 0 ] && [ "$PER_LAYER" = 0 ]; } || usage
[ "$PAIRS" -ge 2 ] || { echo "ab.sh: --pairs needs at least 2 for quartiles" >&2; exit 2; }

cd "$(dirname "$0")/.."
# Per-layer runs keep ddbench's default of both metric sets.
TRACE=(--trace 0)
[ "$PER_LAYER" = 0 ] || TRACE=()
# The metrics where higher is better, as BENCHMARK.json declares them, and
# those of ddbench's traced passes, as its catalogue names them.
HIGHER=$(sed -n 's/.*"name": "\([^"]*\)".*"better": "higher".*/\1/p' BENCHMARK.json | tr '\n' ' ')
TRACED=$(sed -n 's/.*def("\([^"]*\)", "[^"]*", Traced.*/\1/p' ddbench/src/main.rs | tr '\n' ' ')
export CARGO_NET_OFFLINE=true
# Each side builds into its own tree.
unset CARGO_TARGET_DIR
git rev-parse --verify --quiet "$BASE^{commit}" >/dev/null || {
    echo "ab.sh: unknown commit $BASE" >&2
    exit 2
}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
# "base" and "work" have the same length, so both trees do too.
mkdir "$TMP/base" "$TMP/work"
git archive "$BASE" | tar -x -C "$TMP/base"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
    tar -c --null -T - | tar -x -C "$TMP/work"

if [ "$ALIGNED" = 1 ]; then
    export RUSTFLAGS="-C llvm-args=-align-all-functions=6"
fi
for side in base work; do
    if [ -n "$MICRO" ]; then
        echo "== ab: building the micro-benchmarks ($side) ==" >&2
        cargo bench --quiet --manifest-path "$TMP/$side/Cargo.toml" -p bench --bench micro --no-run
    else
        echo "== ab: building ddbench ($side) ==" >&2
        cargo build --release --quiet --manifest-path "$TMP/$side/ddbench/Cargo.toml"
    fi
done

# One run: `side pair workload metric median` lines into results. A micro
# run's lines are `side pair micro BENCH median_ns`.
run() {
    local side=$1 pair=$2 out="$TMP/$1.$2.out"
    if [ -n "$MICRO" ]; then
        cargo bench --quiet --manifest-path "$TMP/$side/Cargo.toml" -p bench --bench micro \
            -- "$MICRO" >"$out"
        # `NAME median V UNIT p95 ...`, with UNIT one of ns, µs, ms.
        awk -v side="$side" -v pair="$pair" '$2 == "median" && NF >= 4 {
            scale = $4 == "ns" ? 1 : $4 == "ms" ? 1e6 : 1e3
            print side, pair, "micro", $1, $3 * scale
        }' "$out" >>"$TMP/results"
        return
    fi
    "$TMP/$side/ddbench/target/release/ddbench" "${WORKLOAD[@]}" "${TRACE[@]}" >"$out"
    grep -q '"correct": true' "$out" || {
        echo "ab.sh: $side run $pair did not read correct: true" >&2
        exit 1
    }
    awk -v side="$side" -v pair="$pair" 'NF == 7 && $7 ~ /^[0-9]+$/ {
        print side, pair, $1, $2, $3
    }' "$out" >>"$TMP/results"
}

for pair in $(seq 1 "$PAIRS"); do
    echo "== ab: pair $pair of $PAIRS ==" >&2
    if [ $((pair % 2)) = 1 ]; then
        run base "$pair"
        run work "$pair"
    else
        run work "$pair"
        run base "$pair"
    fi
done

[ -s "$TMP/results" ] || { echo "ab.sh: no results (does --micro match a benchmark?)" >&2; exit 1; }
echo "ab: base $(git rev-parse --short "$BASE"), $PAIRS pairs, aligned=$ALIGNED, per_layer=$PER_LAYER${MICRO:+, micro $MICRO}"
echo "workload metric base_median base_q1 base_q3 change_median delta_pct wins"
awk -v pairs="$PAIRS" -v micro="${MICRO:+1}" -v per_layer="$PER_LAYER" \
    -v higher_names="$HIGHER" -v traced_names="$TRACED" '
    # Python statistics.quantiles(data, n=4), exclusive method: q(1..3).
    function quartile(v, n, i,    m, j, delta) {
        m = n + 1
        j = int(i * m / 4)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        delta = i * m - j * 4
        return (v[j] * (4 - delta) + v[j + 1] * delta) / 4
    }
    function sorted(src, key, n, dst,    i, j, t) {
        for (i = 1; i <= n; i++) dst[i] = src[key, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
            }
    }
    {
        key = $3 SUBSEP $4
        if (!(key in seen)) { seen[key] = 1; order[++nkeys] = key }
        val[$1, key, $2] = $5
    }
    END {
        split(higher_names, hn, " ")
        for (i in hn) higher_set[hn[i]] = 1
        split(traced_names, tn, " ")
        for (i in tn) traced_set[tn[i]] = 1
        for (k = 1; k <= nkeys; k++) {
            key = order[k]
            split(key, wm, SUBSEP)
            if (!micro && !per_layer && wm[2] !~ /^(wall_s|setup_s|ios_per_host_s|peak_heap_mib)$/) continue
            if (per_layer && (wm[2] == "failed_frac" || wm[2] in traced_set)) continue
            higher = !micro && wm[2] in higher_set
            wins = 0
            for (p = 1; p <= pairs; p++) {
                b[key, p] = val["base", key, p]
                w[key, p] = val["work", key, p]
                if (higher ? w[key, p] > b[key, p] : w[key, p] < b[key, p]) wins++
            }
            delete bs; delete ws
            sorted(b, key, pairs, bs)
            sorted(w, key, pairs, ws)
            bm = quartile(bs, pairs, 2)
            wmed = quartile(ws, pairs, 2)
            printf "%s %s %.6g %.6g %.6g %.6g %+.2f %d/%d\n", wm[1], wm[2], bm,
                quartile(bs, pairs, 1), quartile(bs, pairs, 3), wmed,
                bm == 0 ? 0 : 100 * (wmed - bm) / bm, wins, pairs
        }
    }' "$TMP/results"
