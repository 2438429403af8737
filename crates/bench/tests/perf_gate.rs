//! Hot-path cost gate: an untraced run's cost per simulator event,
//! corrected for how fast a fixed reference kernel runs on the same host,
//! must stay under a committed ceiling, and its disabled trace sink must
//! come back empty.
//!
//! The claim it guards is the trace layer's: a disabled sink costs one
//! branch, and the per-event hot path has not grown real work. Raw
//! ns/event cannot carry that claim on a shared host, where other tenants'
//! load moves it by 2–3×. So the gate alternates samples of ddbench's
//! calibration kernel with short runs of a fixed head-of-line cell
//! (Daredevil, 4 L + 16 T on 4 SV-M cores, tracing off), all in one
//! process. Interference only ever adds time, so the fastest of many
//! equally short samples is each side's speed undisturbed. The fastest
//! run's ns/event is then divided by `slowdown^1.3`, where `slowdown` is
//! the fastest kernel slice over its nominal time: ddbench's host
//! correction, with the sensitivity it measured for this cell shape
//! (`ddbench/src/calib.rs`). What is left is ns/event at nominal speed.
//!
//! On a 2 vCPU 2.1 GHz x86-64 host that read 70–80 ns, idle and beside
//! two busy-looping processes alike, while the fastest slice ranged over
//! 1.2–1.9× nominal. A hot path 45 % slower read 99–114 ns. The ceiling
//! sits between, so the gate resolves slowdowns of about 40 %, not
//! less. On another CPU model the reading may sit elsewhere; the test
//! prints it.
//!
//! Release only: a debug build times the unoptimised code.
//! `scripts/verify.sh` runs it as
//! `cargo test --release -p bench --test perf_gate -- --nocapture`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use simkit::SimDuration;
use testbed::scenario::{MachinePreset, Scenario, StackSpec};
use testbed::RunArena;

/// Timed runs per gate run, each followed by a kernel sample.
const RUNS: usize = 61;

/// Kernel slices per timed kernel sample: four make a sample about as
/// long as one run of [`cell`], so a loaded host interrupts both alike.
const SLICES: u32 = 4;

/// Milliseconds one kernel slice takes at nominal host speed (ddbench's
/// `NOMINAL_SLICE_S`).
const NOMINAL_SLICE_MS: f64 = 7.0;

/// How much more than the kernel this cell's host time stretches on a
/// loaded host, as an exponent (ddbench's sensitivity for `hol`).
const SENSITIVITY: f64 = 1.3;

/// Highest ns/event at nominal host speed the gate accepts.
const CEILING_NS: f64 = 90.0;

/// The timed cell: the §7.1 head-of-line shape, untraced, short enough
/// (~30 ms) that some runs go undisturbed on a loaded host.
fn cell() -> Scenario {
    let mut s = Scenario::multi_tenant_fio(StackSpec::daredevil(), 4, 16, 4, MachinePreset::SvM);
    s.knobs.warmup = SimDuration::from_millis(100);
    s.knobs.measure = SimDuration::from_millis(500);
    assert!(
        s.knobs.trace.is_none(),
        "the gate times the tracing-off path"
    );
    s
}

/// Milliseconds one slice of [`kernel`] takes, averaged over a sample of
/// [`SLICES`] back-to-back slices.
fn kernel_ms() -> f64 {
    let t = Instant::now();
    for _ in 0..SLICES {
        black_box(kernel(black_box(30_000)));
    }
    t.elapsed().as_secs_f64() * 1e3 / SLICES as f64
}

/// The reference work: ordered and hashed map updates, string formatting
/// and sorting, all standard library, so it does not change with the
/// simulator. Deterministic: a fixed xorshift stream and a fixed-key
/// hasher. The same kernel as ddbench's host calibration
/// (`ddbench/src/calib.rs`), which found it tracks the simulator's
/// slowdown under load better than the other kernels it tried.
fn kernel(iters: u64) -> u64 {
    let mut x = 0x5151_u64;
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    let mut hashed: HashMap<u64, String, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut batch: Vec<u64> = Vec::new();
    let mut acc = 0u64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 50_000;
        *ordered.entry(k).or_default() += i;
        if i % 4 == 0 {
            hashed.insert(k, format!("{k}-{i}"));
        } else if let Some(s) = hashed.get(&(k ^ 1)) {
            acc = acc.wrapping_add(s.len() as u64);
        }
        batch.push(k);
        if batch.len() == 512 {
            batch.sort_unstable();
            acc = acc.wrapping_add(batch[256]);
            batch.clear();
        }
        if let Some((&a, _)) = ordered.range(k..).next() {
            acc ^= a;
        }
    }
    acc
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times optimised code; run with --release")]
fn untraced_ns_per_event_stays_under_the_ceiling() {
    let mut arena = RunArena::new();
    // One untimed run warms the arena, the caches and the allocator. Its
    // disabled sink must have recorded nothing.
    let warm = testbed::run_in(cell(), &mut arena);
    assert!(
        warm.trace.is_empty() && warm.trace_dropped == 0,
        "an untraced run's sink recorded {} events ({} dropped)",
        warm.trace.len(),
        warm.trace_dropped
    );
    let mut best_kernel_ms = kernel_ms();
    let mut best_ns_per_event = f64::INFINITY;
    for _ in 0..RUNS {
        let t = Instant::now();
        let events = testbed::run_in(cell(), &mut arena).summary.events_processed;
        best_ns_per_event = best_ns_per_event.min(t.elapsed().as_secs_f64() * 1e9 / events as f64);
        best_kernel_ms = best_kernel_ms.min(kernel_ms());
    }
    let slowdown = best_kernel_ms / NOMINAL_SLICE_MS;
    let nominal_ns = best_ns_per_event / slowdown.powf(SENSITIVITY);
    println!(
        "perf_gate: {best_ns_per_event:.1} ns/event, kernel slice {best_kernel_ms:.2} ms \
         (slowdown {slowdown:.2}) = {nominal_ns:.1} ns/event at nominal speed \
         (ceiling {CEILING_NS})"
    );
    assert!(
        nominal_ns <= CEILING_NS,
        "untraced run costs {nominal_ns:.1} ns/event at nominal host speed, above the \
         ceiling {CEILING_NS}: the hot path grew work"
    );
}
