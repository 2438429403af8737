//! Property-based tests of the span-trace pipeline against live runs
//! (dd-check harness).
//!
//! The structured trace API's whole-stack contract (ISSUE 5 / DESIGN
//! "Trace/span model"): for *any* workload with tracing on, stitching the
//! harvested events with `SpanTable` is **total and ordered** — every
//! completed request yields a span whose phase timestamps are monotone in
//! lifecycle order, with no orphan events, and whose consecutive segment
//! durations telescope to the end-to-end latency. These properties are
//! checked here against real simulations across five stacks (virtio over
//! Daredevil included) and under ionice storms, not synthetic event
//! streams, so any instrumentation point that records out of order, drops
//! a phase, or mislabels a request fails the suite.

use dd_check::{check, prop_assert, prop_assert_eq};
use simkit::{Phase, SimDuration, SimTime, TraceSpec, MASK_ALL};
use testbed::scenario::{MachinePreset, Scenario, StackSpec};
use testbed::RunOutput;

use dd_metrics::SpanTable;

/// Lifecycle phases every completed request must traverse, in order.
const LIFECYCLE: [Phase; 9] = [
    Phase::Submit,
    Phase::Routed { outlier: false },
    Phase::NsqEnqueue,
    Phase::DoorbellRing,
    Phase::DeviceFetch,
    Phase::FlashDone,
    Phase::CqePosted,
    Phase::IrqFire,
    Phase::Complete,
];

/// A short traced fio run on a random stack. With `storms`, half the runs
/// also flip every tenant's ionice every 1–3 ms, so bios carry changing
/// classes; a storm relabels spans away from their tenant's class.
fn random_run(c: &mut dd_check::Case, storms: bool) -> RunOutput {
    let stack = match c.u8_in(0, 5) {
        0 => StackSpec::vanilla(),
        1 => StackSpec::blk_switch(),
        2 => StackSpec::overprov(),
        3 => StackSpec::virtio(StackSpec::daredevil(), true),
        _ => StackSpec::daredevil(),
    };
    let nr_l = c.u16_in(1, 3);
    let nr_t = c.u16_in(0, 4);
    let cores = c.u16_in(1, 4);
    let seed = c.any_u64();
    let measure_ms = c.u64_in(3, 8);
    let mut s = Scenario::multi_tenant_fio(stack, nr_l, nr_t, cores, MachinePreset::Small);
    s.knobs.seed = seed;
    s.knobs.warmup = SimDuration::from_millis(1);
    s.knobs.measure = SimDuration::from_millis(measure_ms);
    s.knobs.trace = Some(TraceSpec {
        cap: 1 << 18,
        mask: MASK_ALL,
    });
    if storms && c.bool_with(0.5) {
        s.ionice_storm = Some(SimDuration::from_millis(c.u64_in(1, 4)));
    }
    testbed::run(s)
}

/// Span stitching is total and ordered for live workloads: completed
/// spans carry every lifecycle phase, timestamps are monotone in
/// lifecycle order, no span is an orphan, the per-span segments
/// telescope exactly to the end-to-end duration, and the span count
/// agrees with the stack's own completion counter.
#[test]
fn spans_are_total_and_ordered_on_live_runs() {
    check("spans_are_total_and_ordered_on_live_runs", |c| {
        let out = random_run(c, true);
        prop_assert_eq!(out.trace_dropped, 0, "ring sized to never wrap here");
        prop_assert!(!out.trace.is_empty(), "tracing was on; events expected");
        let table = SpanTable::build(&out.trace);
        prop_assert_eq!(table.orphans(), 0, "every event belongs to a submitted rq");
        prop_assert_eq!(table.skipped(), 0, "no queue-scoped events emitted");
        let mut completed = 0u64;
        for span in table.spans() {
            if !span.is_complete() {
                // In-flight at simulation stop: must still have a Submit
                // (no orphans) — checked above via table.orphans().
                continue;
            }
            completed += 1;
            // Total and ordered: all nine phases, monotone timestamps.
            let mut last = SimTime::ZERO;
            for phase in LIFECYCLE {
                let Some(t) = span.at(phase) else {
                    return Err(dd_check::Failure::new(format!(
                        "rq {} completed without phase {}",
                        span.rq,
                        phase.name()
                    )));
                };
                prop_assert!(
                    t >= last,
                    "rq {}: phase {} at {:?} precedes previous phase at {:?}",
                    span.rq,
                    phase.name(),
                    t,
                    last
                );
                last = t;
            }
            // Segments telescope exactly to the end-to-end duration.
            let total = span.total().expect("complete span has a total");
            let mut sum = SimDuration::ZERO;
            for pair in LIFECYCLE.windows(2) {
                sum += span
                    .segment(pair[0], pair[1])
                    .expect("adjacent phases traced");
            }
            prop_assert_eq!(
                sum,
                total,
                "rq {}: segment durations must sum to end-to-end",
                span.rq
            );
        }
        prop_assert!(completed > 0, "workload must complete requests");
        prop_assert_eq!(
            completed,
            out.stack_stats.completed_rqs,
            "one complete span per completed request"
        );
        Ok(())
    });
}

/// The span view agrees with the measurement layer: the mean of in-window
/// span totals matches the per-class latency histogram's mean within the
/// histogram's bucketing error. (The workloads here use single-extent
/// requests, so spans and bios are 1:1, and no storm relabels a class.)
#[test]
fn span_totals_match_summary_latency() {
    check("span_totals_match_summary_latency", |c| {
        let out = random_run(c, false);
        let table = SpanTable::build(&out.trace);
        let window_start = SimTime::from_millis(1);
        for (class, sla) in [("L", simkit::Sla::L), ("T", simkit::Sla::T)] {
            let hist = &out.summary.class(class).latency;
            if hist.is_empty() {
                continue;
            }
            let stats = table.segment_stats(Phase::Submit, Phase::Complete, |s| {
                s.sla == sla && s.completed_at().is_some_and(|t| t >= window_start)
            });
            // The summary only sees completions *delivered* before the run
            // stopped; spans also cover those signalled at the very end.
            prop_assert!(
                stats.count >= hist.count(),
                "{class}: spans ({}) must cover every summary completion ({})",
                stats.count,
                hist.count()
            );
            let span_mean_ms = stats.avg_ms();
            let hist_mean_ms = hist.mean().as_millis_f64();
            let rel = (span_mean_ms - hist_mean_ms).abs() / hist_mean_ms.max(1e-9);
            // Log-bucketed histogram error is ≤ 0.8 %; the end-of-run
            // coverage difference adds a little more on tiny windows.
            prop_assert!(
                rel < 0.05,
                "{class}: span mean {span_mean_ms} ms vs histogram mean {hist_mean_ms} ms"
            );
        }
        Ok(())
    });
}
