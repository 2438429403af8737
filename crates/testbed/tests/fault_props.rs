//! Property-based tests of fault injection and recovery against live runs
//! (dd-check harness).
//!
//! The fault subsystem's whole-stack contract (ISSUE 6 / DESIGN "Fault
//! model and recovery"): under *any* deterministic fault schedule — die
//! latency spikes, lost IRQ raises, stalled NSQ fetch — every stack keeps
//! making progress and **no request is ever lost or double-completed**.
//! These properties are checked against real simulations across all four
//! stacks and every fault-class combination, not synthetic schedules, so
//! a recovery path that drops a command, replays a completion, or wedges
//! a queue fails the suite.

use dd_check::{check, prop_assert};
use simkit::{FaultClasses, FaultSpec, SimDuration};
use testbed::scenario::{MachinePreset, Scenario, StackSpec, TenantKind};
use testbed::RunOutput;

/// Builds a random multi-tenant scenario with at least one fault class
/// enabled and **zero warmup**, so the measurement window covers the whole
/// run: `ios_issued` counts every materialised bio and `ios_completed`
/// every delivered completion, making exact conservation checkable.
fn random_fault_scenario(c: &mut dd_check::Case) -> Scenario {
    let stack = match c.u8_in(0, 4) {
        0 => StackSpec::vanilla(),
        1 => StackSpec::blk_switch(),
        2 => StackSpec::overprov(),
        _ => StackSpec::daredevil(),
    };
    let nr_l = c.u16_in(1, 3);
    let nr_t = c.u16_in(0, 3);
    let cores = c.u16_in(1, 4);
    let seed = c.any_u64();
    // Under aggressive ×16 spikes an L read can wait ~10 ms behind T
    // pages on a spiked die, so the window's last quarter (progress is
    // judged there) must be longer than that gap.
    let measure_ms = c.u64_in(60, 120);
    let classes = FaultClasses {
        die_spikes: c.u8_in(0, 2) == 1,
        irq_loss: c.u8_in(0, 2) == 1,
        nsq_stalls: c.u8_in(0, 2) == 1,
    };
    // At least one class on, else the run is a plain clean run.
    let classes = if classes.any() {
        classes
    } else {
        FaultClasses::ALL
    };
    let spec = FaultSpec::aggressive(classes, c.any_u64());
    let mut s = Scenario::multi_tenant_fio(stack, nr_l, nr_t, cores, MachinePreset::Small);
    s.knobs.seed = seed;
    s.knobs.warmup = SimDuration::ZERO;
    s.knobs.measure = SimDuration::from_millis(measure_ms);
    s.knobs.faults = Some(spec);
    s.sample_width = SimDuration::from_millis(measure_ms) / 8;
    s
}

/// Per-tenant conservation check: with zero warmup, everything issued is
/// either completed or still in flight, and a closed-loop FIO tenant can
/// never have more than `iodepth` bios in flight. A lost request shows up
/// as `issued - completed > iodepth` (the tenant's loop wedges one slot
/// short forever); a double-completion shows up as `completed > issued`.
fn assert_conservation(s: &Scenario, out: &RunOutput) -> Result<(), dd_check::Failure> {
    for t in &out.summary.tenants {
        let spec = &s.tenants[(t.tenant_id - 1) as usize];
        let TenantKind::Fio(job) = &spec.kind else {
            continue;
        };
        prop_assert!(
            t.ios_completed <= t.ios_issued,
            "tenant {}: completed {} > issued {} (double completion)",
            t.tenant_id,
            t.ios_completed,
            t.ios_issued
        );
        let in_flight = t.ios_issued - t.ios_completed;
        prop_assert!(
            in_flight <= job.iodepth as u64,
            "tenant {}: issued {} - completed {} = {} in flight > iodepth {} (lost request)",
            t.tenant_id,
            t.ios_issued,
            t.ios_completed,
            in_flight,
            job.iodepth
        );
    }
    Ok(())
}

/// No request is ever lost or double-completed under any fault schedule,
/// for any stack: per-tenant conservation holds exactly, the stack-level
/// counters agree, and the run keeps completing I/O all the way to the
/// end of the window (no silent hang ridden out by the simulator).
#[test]
fn no_request_lost_under_faults() {
    check("no_request_lost_under_faults", |c| {
        let s = random_fault_scenario(c);
        let out = testbed::run(s.clone());
        assert_conservation(&s, &out)?;
        prop_assert!(
            out.stack_stats.completed_rqs <= out.stack_stats.submitted_rqs,
            "stack completed {} rqs but only submitted {}",
            out.stack_stats.completed_rqs,
            out.stack_stats.submitted_rqs
        );
        // Progress to the end: the L class (always populated) must still
        // be completing I/O in the last quarter of the window. A lost IRQ
        // or a wedged NSQ without recovery hangs QD1 L-tenants permanently.
        // Buckets exist only up to the last sample, so the quarter is
        // counted in the window's buckets, not in the series' own.
        let l = out.series.get("L").expect("L series exists");
        let window = (s.knobs.measure.as_nanos() / s.sample_width.as_nanos()) as usize;
        let last = l.bytes.buckets().iter().rposition(|b| b.count > 0);
        prop_assert!(
            last.is_some_and(|i| i >= window - window / 4),
            "no L-class completion in the last quarter of the window (hang): \
             last in bucket {last:?} of {window}"
        );
        // Something must have completed at all.
        let total: u64 = out.summary.tenants.iter().map(|t| t.ios_completed).sum();
        prop_assert!(total > 0, "faulted run completed nothing");
        Ok(())
    });
}

/// Fault schedules and recovery are fully deterministic: the same scenario
/// (same workload seed, same fault seed) replays bit-for-bit — identical
/// event count, identical per-tenant I/O tallies, identical injection and
/// recovery counters.
#[test]
fn fault_runs_are_deterministic() {
    check("fault_runs_are_deterministic", |c| {
        let s = random_fault_scenario(c);
        let a = testbed::run(s.clone());
        let b = testbed::run(s);
        prop_assert!(
            a.events_processed == b.events_processed,
            "event counts diverge: {} vs {}",
            a.events_processed,
            b.events_processed
        );
        prop_assert!(
            a.fault == b.fault,
            "fault/recovery counters diverge: {:?} vs {:?}",
            a.fault,
            b.fault
        );
        for (ta, tb) in a.summary.tenants.iter().zip(b.summary.tenants.iter()) {
            prop_assert!(
                ta.ios_issued == tb.ios_issued && ta.ios_completed == tb.ios_completed,
                "tenant {} tallies diverge: {}/{} vs {}/{}",
                ta.tenant_id,
                ta.ios_issued,
                ta.ios_completed,
                tb.ios_issued,
                tb.ios_completed
            );
        }
        Ok(())
    });
}

/// An armed-but-empty fault plan is invisible: running with
/// `FaultClasses::NONE` (watchdog armed, zero scheduled events) produces
/// the same workload results as not arming faults at all. The watchdog
/// must never fire a spurious poll on a healthy machine, and the
/// per-hook `enabled()` guards must not perturb device behaviour.
#[test]
fn empty_fault_plan_is_invisible() {
    check("empty_fault_plan_is_invisible", |c| {
        let stack = match c.u8_in(0, 4) {
            0 => StackSpec::vanilla(),
            1 => StackSpec::blk_switch(),
            2 => StackSpec::overprov(),
            _ => StackSpec::daredevil(),
        };
        let nr_l = c.u16_in(1, 3);
        let nr_t = c.u16_in(0, 3);
        let cores = c.u16_in(1, 4);
        let seed = c.any_u64();
        let measure = SimDuration::from_millis(c.u64_in(3, 8));
        let mut base = Scenario::multi_tenant_fio(stack, nr_l, nr_t, cores, MachinePreset::Small);
        base.knobs.seed = seed;
        base.knobs.warmup = SimDuration::from_millis(1);
        base.knobs.measure = measure;
        let clean = testbed::run(base.clone());
        base.knobs.faults = Some(FaultSpec::new(FaultClasses::NONE, c.any_u64()));
        let armed = testbed::run(base);
        prop_assert!(
            armed.fault.total_injected() == 0,
            "NONE plan injected faults: {:?}",
            armed.fault
        );
        prop_assert!(
            armed.fault.polls_fired == 0,
            "watchdog fired {} spurious polls on a healthy run",
            armed.fault.polls_fired
        );
        prop_assert!(
            armed.fault.watchdog_redrives == 0,
            "watchdog redrove {} doorbells on a healthy run",
            armed.fault.watchdog_redrives
        );
        for (tc, ta) in clean
            .summary
            .tenants
            .iter()
            .zip(armed.summary.tenants.iter())
        {
            prop_assert!(
                tc.ios_issued == ta.ios_issued
                    && tc.ios_completed == ta.ios_completed
                    && tc.bytes_completed == ta.bytes_completed,
                "tenant {} differs with an empty fault plan armed: {}/{} vs {}/{}",
                tc.tenant_id,
                tc.ios_issued,
                tc.ios_completed,
                ta.ios_issued,
                ta.ios_completed
            );
        }
        prop_assert!(
            (clean.l_p999_ms() - armed.l_p999_ms()).abs() < 1e-12,
            "L p99.9 differs with an empty fault plan armed: {} vs {}",
            clean.l_p999_ms(),
            armed.l_p999_ms()
        );
        Ok(())
    });
}

/// Targeted IRQ-loss recovery: a single QD1 L-tenant whose completion
/// interrupt is silently dropped has *no* other way forward — only the
/// ISR watchdog's polling fallback can rescue it. The run must lose
/// vectors, fire polls, and still complete I/O to the end.
#[test]
fn irq_loss_rescued_by_polling_watchdog() {
    let classes = FaultClasses {
        die_spikes: false,
        irq_loss: true,
        nsq_stalls: false,
    };
    let mut s = Scenario::multi_tenant_fio(StackSpec::vanilla(), 1, 0, 1, MachinePreset::Small);
    s.knobs.seed = 7;
    s.knobs.warmup = SimDuration::ZERO;
    s.knobs.measure = SimDuration::from_millis(20);
    s.knobs.faults = Some(FaultSpec::aggressive(classes, 0xDEAD));
    let out = testbed::run(s.clone());
    assert!(
        out.fault.vectors_lost > 0,
        "schedule should lose at least one raise: {:?}",
        out.fault
    );
    assert!(
        out.fault.polls_fired > 0,
        "watchdog never polled despite lost raises: {:?}",
        out.fault
    );
    assert_conservation(&s, &out).unwrap();
    let t = &out.summary.tenants[0];
    assert!(
        t.ios_completed > 100,
        "QD1 tenant starved: only {} completions in 20 ms",
        t.ios_completed
    );
}

/// All three fault classes engage on a busy machine and the matching
/// recovery counters move: spikes get applied to real dispatches, raises
/// get lost and rescued by polling, stalls engage and the stall watchdog
/// redrives doorbells.
#[test]
fn all_fault_classes_engage() {
    let mut s = Scenario::multi_tenant_fio(StackSpec::daredevil(), 2, 2, 4, MachinePreset::Small);
    s.knobs.seed = 11;
    s.knobs.warmup = SimDuration::ZERO;
    s.knobs.measure = SimDuration::from_millis(20);
    s.knobs.faults = Some(FaultSpec::aggressive(FaultClasses::ALL, 0xBEEF));
    let out = testbed::run(s.clone());
    assert!(
        out.fault.spikes_applied > 0,
        "no die spike applied: {:?}",
        out.fault
    );
    assert!(out.fault.vectors_lost > 0, "no raise lost: {:?}", out.fault);
    assert!(
        out.fault.stalls_engaged > 0,
        "no stall engaged: {:?}",
        out.fault
    );
    assert!(
        out.fault.polls_fired > 0,
        "no polling fallback fired: {:?}",
        out.fault
    );
    assert!(
        out.fault.irq_raised_total > 0,
        "vector raise counter dead: {:?}",
        out.fault
    );
    assert_conservation(&s, &out).unwrap();
}
