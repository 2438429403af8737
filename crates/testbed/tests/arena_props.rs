//! Property tests of the `RunArena` recycling contract (dd-check harness).
//!
//! The arena's whole-stack contract (ISSUE 8 / DESIGN "Request-lifecycle
//! memory model"): running a scenario through a *warm* arena — one that
//! already holds the parked event-queue lanes, CPU work queues, request
//! maps, device-output buffers, and scratch vectors of a **different**
//! previous run — is observationally identical to running it on a fresh
//! machine. Not just the headline numbers: every tally, every latency
//! percentile, every span-trace event, every fault/recovery counter must
//! match byte-for-byte, because the figure goldens are diffed at that
//! granularity. These properties exercise the adoption path across all
//! four stacks and random scenario pairs, so recycled state that leaks a
//! generation counter, a stale queue entry, or a trace sequence number
//! fails the suite.

use dd_check::{check, prop_assert, prop_assert_eq};
use simkit::{FaultClasses, FaultSpec, SimDuration, TraceSpec};
use testbed::scenario::{MachinePreset, Scenario, StackSpec};
use testbed::{RunArena, RunOutput};

/// Builds a random multi-tenant scenario: any stack, random tenant mix,
/// random core count, zero warmup (so tallies cover the whole run), and —
/// half the time each — span tracing (small ring, so eviction paths run
/// too) and an aggressive fault schedule. The variety matters: sweep
/// workers hand one arena scenarios of *different* stacks and geometries
/// back to back, so adoption must be invisible across all of them.
fn random_scenario(c: &mut dd_check::Case) -> Scenario {
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
    let measure_ms = c.u64_in(3, 8);
    let mut s = Scenario::multi_tenant_fio(stack, nr_l, nr_t, cores, MachinePreset::Small);
    s.knobs.seed = seed;
    s.knobs.warmup = SimDuration::ZERO;
    s.knobs.measure = SimDuration::from_millis(measure_ms);
    s.sample_width = SimDuration::from_millis(measure_ms) / 8;
    if c.u8_in(0, 2) == 1 {
        // Small cap half the time so the ring wraps and the recycled
        // sink's drop counter / sequence numbering is covered too.
        let cap = if c.u8_in(0, 2) == 1 { 256 } else { 65536 };
        s.knobs.trace = Some(TraceSpec::all(cap));
    }
    if c.u8_in(0, 2) == 1 {
        s.knobs.faults = Some(FaultSpec::aggressive(FaultClasses::ALL, c.any_u64()));
    }
    s
}

/// Flattens *every* observable field of a [`RunOutput`] into one string:
/// tallies, histograms, time series (sorted by class key), span-trace
/// events, stack/fault/route counters. Two runs are "byte-identical" for
/// the purposes of these properties iff their digests are equal — this is
/// deliberately stricter than the figure renderers, which round.
fn digest(out: &RunOutput) -> String {
    use std::fmt::Write;
    let mut d = String::new();
    writeln!(
        d,
        "events={} trace_dropped={} reassign={} flash_qd={:?}",
        out.events_processed, out.trace_dropped, out.troute_reassignments, out.flash_queue_delay
    )
    .unwrap();
    writeln!(d, "stack={:?}", out.stack_stats).unwrap();
    writeln!(d, "fault={:?}", out.fault).unwrap();
    writeln!(d, "route={:?}", out.route_stats).unwrap();
    writeln!(d, "window={:?}", out.summary.window_secs()).unwrap();
    for t in &out.summary.tenants {
        writeln!(
            d,
            "tenant {} class={} issued={} completed={} bytes={} lat=({:?},{:?},{:?},{:?},{:?},{})",
            t.tenant_id,
            t.class,
            t.ios_issued,
            t.ios_completed,
            t.bytes_completed,
            t.latency.mean(),
            t.latency.p50(),
            t.latency.p99(),
            t.latency.p999(),
            t.latency.max(),
            t.latency.count(),
        )
        .unwrap();
    }
    let mut classes: Vec<&str> = out.series.keys().copied().collect();
    classes.sort();
    for k in classes {
        let s = &out.series[k];
        writeln!(d, "series {k} lat={:?} bytes={:?}", s.latency, s.bytes).unwrap();
    }
    let mut ops: Vec<String> = out
        .op_latencies
        .iter()
        .map(|(k, h)| format!("op {:?} n={} mean={:?}", k, h.count(), h.mean()))
        .collect();
    ops.sort();
    for o in ops {
        writeln!(d, "{o}").unwrap();
    }
    for ev in &out.trace {
        writeln!(d, "span {:?}", ev).unwrap();
    }
    d
}

/// A machine built from a warm arena — pre-loaded by a run of a *different*
/// random scenario (different stack, geometry, seed, trace/fault config) —
/// produces byte-identical output to a fresh machine: identical tallies,
/// latency percentiles, span traces, fault counters, and series. This is
/// the end-to-end gate on every `ArenaReset` impl and every `Dispatch::adopt`
/// path at once: any state that survives recycling and leaks into the
/// output diverges the digest.
#[test]
fn recycled_machine_is_byte_identical_to_fresh() {
    check("recycled_machine_is_byte_identical_to_fresh", |c| {
        let warm = random_scenario(c);
        let probe = random_scenario(c);
        let fresh = digest(&testbed::run(probe.clone()));
        let mut arena = RunArena::new();
        let _ = testbed::run_in(warm, &mut arena);
        prop_assert!(
            arena.stats().hits == 0,
            "first run on an empty arena cannot hit parked state"
        );
        let recycled = digest(&testbed::run_in(probe, &mut arena));
        prop_assert!(
            arena.stats().hits > 0,
            "second run adopted nothing — parking is broken, the property is vacuous"
        );
        prop_assert_eq!(&recycled, &fresh, "recycled run diverged from fresh run");
        Ok(())
    });
}

/// Recycling is stable under repetition: the same arena threaded through a
/// whole chain of runs (the sweep-worker lifetime pattern) reproduces each
/// scenario's fresh output at *every* position in the chain, not just the
/// second. Guards against slow state accumulation — e.g. a counter that
/// `arena_reset` decays rather than zeroes would pass one cycle and fail
/// here.
#[test]
fn recycling_chain_matches_fresh_at_every_cell() {
    check("recycling_chain_matches_fresh_at_every_cell", |c| {
        let chain: Vec<Scenario> = (0..4).map(|_| random_scenario(c)).collect();
        let mut arena = RunArena::new();
        for (i, s) in chain.into_iter().enumerate() {
            let fresh = digest(&testbed::run(s.clone()));
            let recycled = digest(&testbed::run_in(s, &mut arena));
            prop_assert_eq!(
                &recycled,
                &fresh,
                "chain position {} diverged from fresh",
                i
            );
        }
        Ok(())
    });
}

/// The adoption fast path actually engages across stack flavours: after a
/// run of any stack parks its buffers, a following run of any *other*
/// stack adopts every one of them (all stacks park through the shared
/// dispatch core). A buffer only some flavours park would silently turn
/// recycling into allocation — outputs stay right but the reuse win
/// evaporates — so the hit counter is gated directly.
#[test]
fn adoption_crosses_stack_flavours() {
    let stacks = [
        StackSpec::vanilla(),
        StackSpec::blk_switch(),
        StackSpec::overprov(),
        StackSpec::daredevil(),
    ];
    let scenario = |stack: StackSpec| {
        let mut s = Scenario::multi_tenant_fio(stack, 2, 2, 2, MachinePreset::Small);
        s.knobs.seed = 42;
        s.knobs.warmup = SimDuration::ZERO;
        s.knobs.measure = SimDuration::from_millis(3);
        s
    };
    // Adoption hits of a `probe` run on an arena warmed by a `warm` run.
    let hits = |warm: &StackSpec, probe: &StackSpec| {
        let mut arena = RunArena::new();
        let _ = testbed::run_in(scenario(warm.clone()), &mut arena);
        let before = arena.stats();
        let fresh = digest(&testbed::run(scenario(probe.clone())));
        let recycled = digest(&testbed::run_in(scenario(probe.clone()), &mut arena));
        assert_eq!(recycled, fresh, "{warm:?} -> {probe:?} recycling diverged");
        arena.stats().hits - before.hits
    };
    for probe in &stacks {
        // A same-flavour predecessor parks exactly what the probe takes, so
        // its hit count is the full set: machine-owned structures plus the
        // stack's dispatch buffers. Any other flavour must hit just as
        // often — a buffer one flavour parks and another cannot adopt shows
        // up as a shortfall here (the machine's own takes alone would pass
        // a lower bound).
        let own = hits(probe, probe);
        for warm in &stacks {
            assert_eq!(
                hits(warm, probe),
                own,
                "{warm:?} -> {probe:?}: adoption hits differ from a same-flavour warm-up"
            );
        }
    }
}
