//! Span stitching: turn a flat stream of [`TraceEvent`]s into per-request
//! phase spans.
//!
//! The simulator's trace sink (`simkit::TraceSink`) records a flat,
//! time-ordered ring of structured events; this module is the
//! post-processor the tentpole trace API promises: [`SpanTable::build`]
//! groups events by request id into [`Span`]s (first-seen order, so output
//! is deterministic), each holding the *earliest* timestamp observed for
//! every lifecycle phase. From a table you can ask for exact segment
//! means ([`SpanTable::segment_stats`], used by the `ext_breakdown`
//! figure), bounded-error percentile histograms
//! ([`SpanTable::segment_hist`] via [`LatencyHistogram`]), or walk the
//! spans yourself.
//!
//! Phase timestamps telescope: for a request that ran to completion,
//! `Submit ≤ Routed ≤ NsqEnqueue ≤ DoorbellRing ≤ DeviceFetch ≤ FlashDone
//! ≤ CqePosted ≤ IrqFire ≤ Complete`, and consecutive segment durations
//! sum to the end-to-end latency (`dd-check` property-tests this against
//! live runs). Events with `rq == RQ_NONE` are not request-scoped and are
//! skipped (counted in [`SpanTable::skipped`]).

use std::collections::HashMap;

use simkit::{Phase, SimDuration, SimTime, Sla, TraceEvent, PHASE_COUNT, RQ_NONE};

use crate::hist::LatencyHistogram;

/// The stitched lifecycle of one request: earliest observed timestamp per
/// phase, plus the identity fields shared by the request's events.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Request id the span was stitched for.
    pub rq: u64,
    /// Owning tenant (raw pid).
    pub tenant: u64,
    /// SLA class of the owning tenant.
    pub sla: Sla,
    /// True when the router classified the request as an outlier
    /// (meaningful only if the `routed` phase was traced).
    pub outlier: bool,
    first: [Option<SimTime>; PHASE_COUNT],
}

impl Span {
    fn new(ev: &TraceEvent) -> Self {
        Span {
            rq: ev.rq,
            tenant: ev.tenant,
            sla: ev.sla,
            outlier: false,
            first: [None; PHASE_COUNT],
        }
    }

    fn absorb(&mut self, ev: &TraceEvent) {
        if let Phase::Routed { outlier } = ev.phase {
            self.outlier |= outlier;
        }
        let slot = &mut self.first[ev.phase.index()];
        match slot {
            Some(t) if *t <= ev.t => {}
            _ => *slot = Some(ev.t),
        }
    }

    /// Earliest timestamp observed for `phase` (payload fields of the
    /// phase are ignored; `Phase::Routed { outlier: false }` addresses the
    /// routed slot regardless of the recorded flag).
    pub fn at(&self, phase: Phase) -> Option<SimTime> {
        self.first[phase.index()]
    }

    /// Duration from `from`'s timestamp to `to`'s, if both were traced.
    /// Saturates at zero if the phases were recorded out of order.
    pub fn segment(&self, from: Phase, to: Phase) -> Option<SimDuration> {
        Some(self.at(to)?.saturating_since(self.at(from)?))
    }

    /// End-to-end duration (`Submit` → `Complete`), if both were traced.
    pub fn total(&self) -> Option<SimDuration> {
        self.segment(Phase::Submit, Phase::Complete)
    }

    /// True when the span saw both ends of the lifecycle.
    pub fn is_complete(&self) -> bool {
        self.at(Phase::Submit).is_some() && self.at(Phase::Complete).is_some()
    }

    /// When the request completed, if `Complete` was traced.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.at(Phase::Complete)
    }
}

/// Exact (non-bucketed) aggregate over one segment of many spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct SegmentStats {
    /// Spans that had both endpoint phases.
    pub count: u64,
    /// Exact total duration across those spans, in nanoseconds.
    pub total_ns: u128,
}

impl SegmentStats {
    /// Mean duration in milliseconds (0.0 when empty).
    pub fn avg_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// All spans stitched from one trace, in first-seen (deterministic) order.
#[derive(Debug, Default)]
pub struct SpanTable {
    spans: Vec<Span>,
    by_rq: HashMap<u64, usize>,
    skipped: u64,
}

impl SpanTable {
    /// Stitches a flat event stream (oldest first, as harvested from
    /// `TraceSink::into_events`) into per-request spans.
    pub fn build(events: &[TraceEvent]) -> Self {
        let mut t = SpanTable::default();
        for ev in events {
            if ev.rq == RQ_NONE {
                t.skipped += 1;
                continue;
            }
            let idx = *t.by_rq.entry(ev.rq).or_insert_with(|| {
                t.spans.push(Span::new(ev));
                t.spans.len() - 1
            });
            t.spans[idx].absorb(ev);
        }
        t
    }

    /// Number of distinct requests seen.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no request-scoped events were stitched.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans in first-seen order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span for a specific request id.
    pub fn get(&self, rq: u64) -> Option<&Span> {
        self.by_rq.get(&rq).map(|&i| &self.spans[i])
    }

    /// Events skipped because they were not request-scoped (`RQ_NONE`).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Spans that never saw a `Submit`: their head events were evicted by
    /// ring wrap (or `submit` was masked out). With a large enough ring
    /// and `submit` traced, this is zero.
    pub fn orphans(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.at(Phase::Submit).is_none())
            .count() as u64
    }

    /// Exact mean of the `from` → `to` segment over spans passing
    /// `filter`. This is what `ext_breakdown` prints: arithmetic means
    /// with no histogram bucketing error.
    pub fn segment_stats<F: Fn(&Span) -> bool>(
        &self,
        from: Phase,
        to: Phase,
        filter: F,
    ) -> SegmentStats {
        let mut stats = SegmentStats::default();
        for s in &self.spans {
            if !filter(s) {
                continue;
            }
            if let Some(d) = s.segment(from, to) {
                stats.count += 1;
                stats.total_ns += d.as_nanos() as u128;
            }
        }
        stats
    }

    /// Bounded-relative-error histogram of the `from` → `to` segment over
    /// spans passing `filter`, for percentile queries.
    pub fn segment_hist<F: Fn(&Span) -> bool>(
        &self,
        from: Phase,
        to: Phase,
        filter: F,
    ) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for s in &self.spans {
            if !filter(s) {
                continue;
            }
            if let Some(d) = s.segment(from, to) {
                h.record(d);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rq: u64, phase: Phase, t_ns: u64) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_nanos(t_ns),
            rq,
            tenant: 7,
            sla: Sla::L,
            phase,
            core: 0,
            nsq: Some(1),
        }
    }

    #[test]
    fn stitches_one_request() {
        let events = [
            ev(3, Phase::Submit, 100),
            ev(3, Phase::Routed { outlier: true }, 100),
            ev(3, Phase::DeviceFetch, 250),
            ev(3, Phase::FlashDone, 900),
            ev(3, Phase::Complete, 1000),
        ];
        let t = SpanTable::build(&events);
        assert_eq!(t.len(), 1);
        let s = t.get(3).unwrap();
        assert!(s.is_complete());
        assert!(s.outlier);
        assert_eq!(s.total().unwrap().as_nanos(), 900);
        assert_eq!(
            s.segment(Phase::Submit, Phase::DeviceFetch)
                .unwrap()
                .as_nanos(),
            150
        );
        assert_eq!(
            s.segment(Phase::DeviceFetch, Phase::FlashDone)
                .unwrap()
                .as_nanos(),
            650
        );
        assert_eq!(
            s.segment(Phase::FlashDone, Phase::Complete)
                .unwrap()
                .as_nanos(),
            100
        );
        assert_eq!(t.orphans(), 0);
    }

    #[test]
    fn first_seen_order_and_orphans() {
        let events = [
            ev(9, Phase::DeviceFetch, 50), // head lost to ring wrap
            ev(2, Phase::Submit, 60),
            ev(2, Phase::Complete, 80),
        ];
        let t = SpanTable::build(&events);
        assert_eq!(t.spans()[0].rq, 9);
        assert_eq!(t.spans()[1].rq, 2);
        assert_eq!(t.orphans(), 1);
        assert!(!t.spans()[0].is_complete());
    }

    #[test]
    fn rq_none_skipped() {
        let events = [ev(RQ_NONE, Phase::IrqFire, 10), ev(4, Phase::Submit, 30)];
        let t = SpanTable::build(&events);
        assert_eq!(t.skipped(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn segment_stats_exact_mean() {
        let events = [
            ev(1, Phase::Submit, 0),
            ev(1, Phase::Complete, 1_000_000),
            ev(2, Phase::Submit, 0),
            ev(2, Phase::Complete, 3_000_000),
            ev(3, Phase::Submit, 0), // incomplete: excluded
        ];
        let t = SpanTable::build(&events);
        let st = t.segment_stats(Phase::Submit, Phase::Complete, |_| true);
        assert_eq!(st.count, 2);
        assert!((st.avg_ms() - 2.0).abs() < 1e-12);
        let none = t.segment_stats(Phase::Submit, Phase::Complete, |s| s.rq == 99);
        assert_eq!(none.count, 0);
        assert_eq!(none.avg_ms(), 0.0);
    }

    #[test]
    fn earliest_timestamp_wins() {
        let events = [
            ev(5, Phase::Submit, 40),
            ev(5, Phase::Submit, 20), // retried enqueue: keep earliest
        ];
        let t = SpanTable::build(&events);
        assert_eq!(t.get(5).unwrap().at(Phase::Submit).unwrap().as_nanos(), 20);
    }
}
