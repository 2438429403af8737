//! Host speed calibration. On the shared hosts this benchmark runs on,
//! other tenants' load slows the simulator by up to 2.5x, for seconds or
//! for minutes at a time. A thread's CPU time grows with its wall time
//! then, so the slowdown is not time spent descheduled, and measuring CPU
//! time instead would not remove it. So a pass times a fixed reference
//! kernel before and after every cell, and divides each of the cell's host
//! times by a power of how much slower than nominal the kernel ran around
//! it.
//!
//! The kernel is standard-library code that does not change with the
//! simulator: ordered and hashed map updates, string formatting and
//! sorting. Of the kernels tried it tracked the simulator best; a
//! latency-bound and an ILP-bound integer loop, random reads over 1 MiB
//! and 32 MiB, a branchy table walk and a binary-heap event loop all
//! slowed less. Still, a workload whose hot state fits in the caches slows
//! more than the kernel does, so its times are divided by
//! `slowdown^sensitivity`, with the sensitivity each workload states
//! (`workloads::sensitivity`).
//!
//! The sensitivities come from 96 runs of 20 s (24 seeds per workload,
//! 1 060 passes) on a 2 vCPU 2.1 GHz x86-64 host while its kernel slowdown
//! ranged over 1.2–1.9 (tenth to ninetieth percentile). Regressing each
//! cell's log host time on the log slowdown gave slopes of 1.25–1.32 for
//! `hol`, `apps` and `hostile` and 0.75 for `fleet10k`, whose 138 MiB of
//! per-tenant state makes it wait on memory as the kernel does. Taking
//! each run's median pass, the spread across runs (quartile distance over
//! median) of the pass's host time was 0.14–0.34 per workload unscaled,
//! 0.03–0.11 divided by the slowdown, and 0.02–0.05 with exponent 1.3
//! (`fleet10k`: 1.0).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of one reference slice.
const SLICE_ITERS: u64 = 30_000;

/// Seconds one slice takes at nominal speed: about the fastest tenth of
/// 6 324 slices logged over 25 minutes on a 2 vCPU 2.1 GHz x86-64 host.
/// Scaled host times read as seconds at that speed.
const NOMINAL_SLICE_S: f64 = 0.0070;

/// Times one slice of the reference kernel, in seconds. Its allocations
/// are all freed before it returns and do not count towards the heap peak.
pub fn slice() -> f64 {
    crate::heap::untracked(|| {
        let t = Instant::now();
        black_box(kernel(black_box(SLICE_ITERS)));
        t.elapsed().as_secs_f64()
    })
}

/// How much slower than nominal the kernel ran over a span bracketed by
/// slices of `before` and `after` seconds.
pub fn slowdown(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / NOMINAL_SLICE_S
}

/// How much a workload's host times stretch under a kernel `slowdown`,
/// given the workload's `sensitivity` (see the module docs): divide them
/// by this.
pub fn time_scale(slowdown: f64, sensitivity: f64) -> f64 {
    slowdown.powf(sensitivity)
}

/// The reference work. Deterministic: a fixed xorshift stream and a
/// fixed-key hasher, so every slice does the same operations.
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
