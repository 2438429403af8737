#!/usr/bin/env bash
# Hermetic verification gate for the Daredevil reproduction.
#
# Runs tier-1 (release build + full test suite), the smoke-scale micro
# benches, the figure goldens and the hot-path gate, all with network
# access forbidden: the workspace has zero external dependencies (see
# dd-check, DESIGN.md §6), so an empty cargo registry cache must suffice.
# Any attempt to hit the network is a regression and fails the run. A run
# writes no tracked file.
#
# Usage: scripts/verify.sh [--full]
#   --full   run the micro benches at full sample counts (slower; default
#            is the smoke subset).
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

FULL=0
for a in "$@"; do
    case "$a" in
        --full) FULL=1 ;;
        *) echo "usage: scripts/verify.sh [--full]" >&2; exit 2 ;;
    esac
done

echo "== verify: tier-1 (offline release build + tests) =="
cargo build --release
cargo test -q

echo "== verify: the workspace is rustfmt-clean =="
# Formatting drifts when nothing checks it. ddbench is a workspace of its
# own and is not reached by `--all`.
cargo fmt --all --check
echo "  cargo fmt --all --check: clean"

echo "== verify: the workspace is clippy-clean =="
# Lints drift like formatting does. Every target of every workspace crate,
# tests and benches included; ddbench is outside the workspace.
cargo clippy -q --workspace --all-targets --release -- -D warnings
echo "  cargo clippy --workspace --all-targets: clean under -D warnings"

echo "== verify: workspace test suite (all crates, incl. dd-check self-tests) =="
cargo test -q --workspace

echo "== verify: the benchmark package builds and its tests pass =="
# ddbench is a package of its own, outside the workspace: without this
# gate an API change in testbed, simkit or blkstack could break it unseen.
cargo test -q --manifest-path ddbench/Cargo.toml

echo "== verify: rustdoc builds warning-free (docs are a gated layer) =="
# The policy layer ships as documentation (the `Policy` type's docs, the
# "Adding a policy" steps, paper-mapping tables): broken intra-doc links
# or malformed doc markup are build failures, not noise.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
echo "  cargo doc --no-deps: clean under -D warnings"

if [ "$FULL" = "1" ]; then
    echo "== verify: micro benches (full sample counts) =="
    cargo bench -p bench
else
    echo "== verify: micro benches (smoke) =="
    cargo bench -p bench -- --smoke
fi

echo "== verify: figure goldens (jobs=1 vs jobs=N, then vs the committed capture) =="
# Mechanism changes keep every gated figure byte-identical: each row runs
# at --jobs 1 and --jobs N, the two stdouts must match each other and the
# golden under tests/golden/, and a traced row's span CSVs must match too
# (events are dumped in original cell order, never completion order).
# Row format: golden file | figure name (empty: the default sweep) | args.
GATES=(
    "all_figures_quick.csv||--csv"
    "ext_breakdown_quick.txt|ext_breakdown|--trace submit,device_fetch,flash_done,complete"
    "ext_hostile_quick.txt|ext_hostile|"
    "ext_policy_quick.txt|ext_policy|"
    "ext_fleet_quick.txt|ext_fleet|"
    "fig6_gc_quick.txt|fig6_gc|"
)
JOBS_N="${DD_JOBS:-$(nproc 2>/dev/null || echo 4)}"
[ "$JOBS_N" -lt 2 ] && JOBS_N=4
cargo build --release -q -p bench --bin figures
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
for row in "${GATES[@]}"; do
    IFS='|' read -r golden fig args <<<"$row"
    name="${fig:-sweep}"
    for jobs in 1 "$JOBS_N"; do
        # shellcheck disable=SC2086 # $fig and $args are word lists
        if ! ./target/release/figures $fig --quick $args \
            --trace-out "$OUT/$name.$jobs.csv" --jobs "$jobs" \
            >"$OUT/$name.$jobs.txt" 2>"$OUT/$name.$jobs.err"; then
            echo "verify: FAILED — figures $name --jobs $jobs exited non-zero:" >&2
            cat "$OUT/$name.$jobs.err" >&2
            exit 1
        fi
    done
    for ext in txt csv; do
        [ -f "$OUT/$name.1.$ext" ] || continue
        if ! diff -q "$OUT/$name.1.$ext" "$OUT/$name.$JOBS_N.$ext" >/dev/null; then
            echo "verify: FAILED — $name $ext output diverges between --jobs 1 and --jobs $JOBS_N:" >&2
            diff "$OUT/$name.1.$ext" "$OUT/$name.$JOBS_N.$ext" | head -40 >&2
            exit 1
        fi
    done
    if ! diff -q "tests/golden/$golden" "$OUT/$name.1.txt" >/dev/null; then
        echo "verify: FAILED — $name diverges from tests/golden/$golden:" >&2
        diff "tests/golden/$golden" "$OUT/$name.1.txt" | head -40 >&2
        echo "(if the divergence is an intended semantic change, regenerate with:" >&2
        echo " ./target/release/figures $fig --quick $args --trace-out /dev/null --jobs 1 > tests/golden/$golden)" >&2
        exit 1
    fi
    traced=""
    [ -f "$OUT/$name.1.csv" ] && traced=", $(( $(wc -l < "$OUT/$name.1.csv") - 1 )) span events"
    echo "  $name: byte-identical across jobs=1/$JOBS_N$traced and vs tests/golden/$golden"
done

echo "== verify: fleet determinism and 10k-tenant capacity stability =="
# Fleet digest properties (crates/testbed/tests/fleet_props.rs): Zipfian
# rank frequencies track θ, digests survive re-runs / host reorders / warm
# arenas, and no per-I/O slab or event-queue backbone grows mid-run at
# 10k tenants. Reduced case count for the gate; full corpus in cargo test.
DD_CHECK_CASES=8 cargo test -q --release -p testbed --test fleet_props
echo "  fleet determinism + capacity-stability properties: ok"

echo "== verify: no request lost under an aggressive fault schedule =="
# Request-conservation property (crates/testbed/tests/fault_props.rs):
# random stacks x random fault classes, zero warmup, aggressive schedule —
# every issued I/O is completed or within the tenant's queue depth, no
# double completions, progress to the end of the window. A reduced case
# count keeps the gate fast; the full corpus runs in `cargo test`.
DD_CHECK_CASES=8 cargo test -q --release -p testbed --test fault_props
echo "  fault conservation properties: ok"

echo "== verify: hot path (untraced ns/event over a reference kernel, one process) =="
# The disabled trace sink must cost one predictable branch and the hot path
# must not grow real work (crates/bench/tests/perf_gate.rs). The test times
# a fixed head-of-line cell untraced between slices of a fixed std-only
# kernel and divides host speed out, so the ceiling holds on a loaded host.
cargo test -q --release -p bench --test perf_gate -- --nocapture
echo "  hot-path gate: ok"

echo "== verify: hot-path maps stay slab/dense (no std hash maps) =="
# The request-lifecycle hot path must not regress to allocating hash maps.
# A file may opt out with an explicit `dd-alloc-allowlist:` comment
# justifying the exception.
HOT_FILES="crates/blkstack/src/reqmap.rs crates/blkstack/src/dispatch.rs crates/blkstack/src/blkmq.rs crates/core/src/troute.rs crates/core/src/policy.rs crates/core/src/stack_impl.rs crates/core/src/nqreg.rs crates/core/src/nproxy.rs crates/blkswitch/src/lib.rs crates/overprov/src/lib.rs crates/virtio/src/lib.rs"
for f in $HOT_FILES; do
    if grep -qE 'use std::collections::.*(HashMap|BTreeMap)' "$f" \
        && ! grep -q 'dd-alloc-allowlist:' "$f"; then
        echo "verify: FAILED — $f imports HashMap/BTreeMap on the hot path" >&2
        echo "(use simkit::{Slab, DenseMap}, or add a 'dd-alloc-allowlist: <reason>' comment)" >&2
        exit 1
    fi
done
echo "  ${HOT_FILES// /, }: clean"

echo "== verify: dispatch/push paths stay allocation-free =="
# The machine's event loop, the event queue's push paths, the CPU model's
# per-item dispatch (enqueue/take_next/begin/finish), the stacks' shared
# dispatch core (stage/push/reap, requeue, redrive), the blk-mq elevators
# (insert/dispatch/complete), blk-switch's steering tick, the device, its
# queues and the virtio layer must not regrow per-event or per-I/O
# allocations (that is what the RunArena + batch port removed), nor
# preallocate per-queue storage (a `VecDeque::with_capacity(depth)` per NSQ
# once held 3.5 MiB of rings on SV-M). Construction-time allocations are fine —
# mark the line (or the line above it) with `dd-alloc-allowlist: <reason>`.
# Test modules (`#[cfg(test)]` onward) are exempt. The machine's glob
# expands to every file of the module.
ALLOC_FILES="crates/testbed/src/machine/*.rs crates/simkit/src/event.rs crates/simkit/src/fault.rs crates/cpu/src/core_model.rs crates/blkstack/src/dispatch.rs crates/blkstack/src/blkmq.rs crates/blkstack/src/iosched.rs crates/blkswitch/src/lib.rs crates/nvme/src/controller.rs crates/nvme/src/arbiter.rs crates/nvme/src/device.rs crates/nvme/src/flash.rs crates/nvme/src/queue.rs crates/virtio/src/lib.rs"
ALLOC_FAIL=0
for f in $ALLOC_FILES; do
    HITS="$(awk '
        /#\[cfg\(test\)\]/ { exit }
        /Vec::new\(\)|Vec::with_capacity\(|VecDeque::with_capacity\(|Slab::with_capacity\(|vec!\[|Box::new\(|HashMap::new\(/ && $0 !~ /dd-alloc-allowlist:/ && prev !~ /dd-alloc-allowlist:/ {
            print FILENAME ":" FNR ": " $0
        }
        { prev = $0 }
    ' "$f")"
    if [ -n "$HITS" ]; then
        echo "verify: FAILED — unallowlisted allocation constructor in $f:" >&2
        echo "$HITS" >&2
        ALLOC_FAIL=1
    fi
done
if [ "$ALLOC_FAIL" = "1" ]; then
    echo "(recycle through the RunArena or scratch buffers, or add a" >&2
    echo " 'dd-alloc-allowlist: <reason>' comment on or above the line)" >&2
    exit 1
fi
echo "  ${ALLOC_FILES// /, }: no unallowlisted allocation constructors"

echo "== verify: no external crates in either lockfile =="
# Path crates carry no `source = ` line in Cargo.lock; a registry or git
# crate always does, whatever its name.
if grep -n '^source = ' Cargo.lock ddbench/Cargo.lock; then
    echo "verify: FAILED — external dependency found above" >&2
    exit 1
fi
echo "  Cargo.lock, ddbench/Cargo.lock: path crates only"

echo "verify: OK"
