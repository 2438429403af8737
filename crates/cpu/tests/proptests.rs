//! Property-based tests of the CPU model (dd-check harness).

use dd_check::{check, prop_assert, prop_assert_eq, CheckResult};
use dd_cpu::{CpuSystem, WorkClass};
use simkit::{SimDuration, SimTime};

/// Random op stream: (class, duration_us) pairs, executed through the full
/// dispatch protocol on one core.
fn drive(ops: &[(u8, u64)]) -> (Vec<(WorkClass, usize)>, SimDuration, SimTime) {
    let mut sys: CpuSystem<usize> = CpuSystem::new(1);
    let mut now = SimTime::ZERO;
    let mut executed = Vec::new();
    let mut durations = Vec::new();
    // Enqueue everything up front (worst-case backlog).
    for (i, &(class, us)) in ops.iter().enumerate() {
        let class = WorkClass::ALL[class as usize % 2];
        durations.push(SimDuration::from_micros(us));
        sys.enqueue(0, class, i);
    }
    // Drain: `finish` asks for another dispatch while payloads remain.
    while let Some((class, payload)) = sys.take_next(0) {
        executed.push((class, payload));
        now = sys.begin(0, now, durations[payload]);
        if !sys.finish(0, now) {
            break;
        }
    }
    (executed, sys.busy_until(0, now), now)
}

/// Every enqueued item executes exactly once; total busy time equals the
/// sum of durations; execution respects class priority with FIFO within
/// class.
#[test]
fn cpu_executes_all_exactly_once() {
    check("cpu_executes_all_exactly_once", |c| {
        let ops = c.vec_of(1, 60, |c| (c.u8_in(0, 2), c.u64_in(1, 100)));
        let (executed, busy, end) = drive(&ops);
        prop_assert_eq!(executed.len(), ops.len());
        // Exactly once.
        let mut seen: Vec<usize> = executed.iter().map(|&(_, p)| p).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..ops.len()).collect::<Vec<_>>());
        // Busy time conservation.
        let total: u64 = ops.iter().map(|&(_, us)| us).sum();
        prop_assert_eq!(busy, SimDuration::from_micros(total));
        prop_assert_eq!(end, SimTime::ZERO + SimDuration::from_micros(total));
        // With everything enqueued up front, the whole run is sorted by
        // class, FIFO within class.
        let mut last_class = WorkClass::HardIrq;
        let mut last_payload_per_class = [None::<usize>; 2];
        for &(class, payload) in &executed {
            prop_assert!(class >= last_class, "priority inversion");
            last_class = class;
            let idx = class.index();
            if let Some(prev) = last_payload_per_class[idx] {
                prop_assert!(payload > prev, "FIFO violated within class");
            }
            last_payload_per_class[idx] = Some(payload);
        }
        Ok(())
    });
}

/// Runs `ops` (class, duration_us) round-robin over two cores, then checks
/// that every busy fraction of a window from `window_start_us` (clamped to
/// the end of the run) lies in [0, 1], with the baseline snapshot taken at
/// the window start (the testbed's protocol).
fn busy_fractions_in_range(ops: &[(u8, u64)], window_start_us: u64) -> CheckResult {
    let mut sys: CpuSystem<usize> = CpuSystem::new(2);
    let mut now = SimTime::ZERO;
    for (i, &(class, us)) in ops.iter().enumerate() {
        let class = WorkClass::ALL[class as usize % 2];
        let core = (i % 2) as u16;
        if sys.enqueue(core, class, i) {
            sys.take_next(core);
            let fin = sys.begin(core, now, SimDuration::from_micros(us));
            sys.finish(core, fin);
            now = now.max(fin);
        }
    }
    let start = SimTime::from_micros(window_start_us).min(now);
    let baseline = sys.busy_snapshot(start);
    let end = now + SimDuration::from_micros(1);
    for f in sys.busy_fractions(start, &baseline, end) {
        prop_assert!((0.0..=1.0 + 1e-9).contains(&f), "fraction {f} out of range");
    }
    Ok(())
}

/// Busy fractions are within [0, 1] for any window whose baseline was
/// snapshot at the window start. The first input is a case proptest once
/// shrank a failure to: ten hard-IRQ items, window start 297 µs.
#[test]
fn busy_fractions_bounded() {
    let shrunk = [
        (0, 69),
        (0, 48),
        (0, 28),
        (0, 92),
        (0, 88),
        (0, 53),
        (0, 40),
        (0, 27),
        (0, 77),
        (0, 75),
    ];
    if let Err(f) = busy_fractions_in_range(&shrunk, 297) {
        panic!("busy_fractions_bounded, shrunk case: {f}");
    }
    check("busy_fractions_bounded", |c| {
        let ops = c.vec_of(1, 40, |c| (c.u8_in(0, 2), c.u64_in(1, 100)));
        let window_start_us = c.u64_in(0, 1000);
        busy_fractions_in_range(&ops, window_start_us)
    });
}
