//! Structured per-request span tracing.
//!
//! Every layer of the simulated storage stack — block layer, NSQ routing,
//! NVMe device, interrupt delivery — records [`TraceEvent`]s into a single
//! [`TraceSink`]: a fixed-capacity, allocation-free ring buffer that is
//! disabled by default, so tracing costs exactly one branch
//! (`sink.enabled()`) in the hot path. A post-processor (the `SpanTable` in
//! `dd-metrics`) stitches the events of each request into phase durations.
//!
//! # Event schema
//!
//! A [`TraceEvent`] carries the request id (`rq`, or [`RQ_NONE`] for
//! queue-scoped events such as vector-level interrupt raises), the owning
//! tenant and its SLA class, the lifecycle [`Phase`], the core the event
//! was observed on, the NVMe submission queue when one is involved, and the
//! virtual timestamp. `simkit` deliberately stores tenant/queue ids as raw
//! integers: the typed wrappers (`Pid`, `SqId`) live in higher crates that
//! depend on `simkit`, not the other way round.
//!
//! # Phases
//!
//! [`Phase`] covers the full request lifecycle in order: `Submit` (bio
//! enters the stack), `Routed` (troute/steering decision, with the outlier
//! flag), `NsqEnqueue` (command placed in an NVMe submission queue),
//! `DoorbellRing` (doorbell write covering the command), `DeviceFetch`
//! (controller fetched the command), `FlashDone` (flash service complete),
//! `CqePosted` (completion queue entry posted), `IrqFire` (the ISR picked
//! the CQE up), `Complete` (completion delivered to the submitting tenant).

use crate::time::SimTime;

/// Sentinel request id for events not tied to a specific request
/// (e.g. a vector-level interrupt raise).
pub const RQ_NONE: u64 = u64::MAX;

/// SLA class of the tenant that owns a traced request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Sla {
    /// Latency-sensitive (real-time ionice) tenant.
    L,
    /// Throughput-bound (best-effort / idle ionice) tenant.
    #[default]
    T,
}

impl Sla {
    /// Stable single-letter name used in trace CSV output.
    pub fn name(self) -> &'static str {
        match self {
            Sla::L => "L",
            Sla::T => "T",
        }
    }
}

/// Request lifecycle phase of a [`TraceEvent`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Phase {
    /// Bio entered the storage stack (`submit` called).
    Submit,
    /// Routing decision made (troute / switch steering); records whether
    /// the request was classified as an outlier.
    Routed {
        /// True when the router classified the request as an outlier.
        outlier: bool,
    },
    /// Command enqueued into an NVMe submission queue.
    NsqEnqueue,
    /// Doorbell write covering the command.
    DoorbellRing,
    /// Controller fetched the command from the SQ.
    DeviceFetch,
    /// Flash service for the command finished inside the device.
    FlashDone,
    /// Completion queue entry posted by the controller.
    CqePosted,
    /// ISR picked the CQE up on the completion core.
    IrqFire,
    /// Completion delivered back to the submitting tenant.
    Complete,
}

/// Number of distinct phase kinds (mask bits).
pub const PHASE_COUNT: usize = 9;

/// Names of all phase kinds, in lifecycle order (index == mask bit).
pub const PHASE_NAMES: [&str; PHASE_COUNT] = [
    "submit",
    "routed",
    "nsq_enqueue",
    "doorbell",
    "device_fetch",
    "flash_done",
    "cqe_posted",
    "irq_fire",
    "complete",
];

impl Phase {
    /// Index of this phase kind in [`PHASE_NAMES`] (also its mask bit).
    pub fn index(self) -> usize {
        match self {
            Phase::Submit => 0,
            Phase::Routed { .. } => 1,
            Phase::NsqEnqueue => 2,
            Phase::DoorbellRing => 3,
            Phase::DeviceFetch => 4,
            Phase::FlashDone => 5,
            Phase::CqePosted => 6,
            Phase::IrqFire => 7,
            Phase::Complete => 8,
        }
    }

    /// Mask bit for this phase kind.
    pub fn bit(self) -> u16 {
        1 << self.index()
    }

    /// Stable snake_case name used in trace CSV output and `--trace` specs.
    pub fn name(self) -> &'static str {
        PHASE_NAMES[self.index()]
    }

    /// Mask bit for a phase named in a `--trace` spec, if the name is known.
    pub fn bit_from_name(name: &str) -> Option<u16> {
        PHASE_NAMES
            .iter()
            .position(|n| *n == name)
            .map(|i| 1 << i as u16)
    }
}

/// Mask selecting every phase.
pub const MASK_ALL: u16 = (1 << PHASE_COUNT as u16) - 1;

/// One structured trace record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Virtual time the event was observed.
    pub t: SimTime,
    /// Request id (the NVMe host tag / rq slot), or [`RQ_NONE`].
    pub rq: u64,
    /// Owning tenant (raw `Pid`).
    pub tenant: u64,
    /// SLA class of the owning tenant.
    pub sla: Sla,
    /// Lifecycle phase.
    pub phase: Phase,
    /// Core the event was observed on.
    pub core: u16,
    /// NVMe submission queue involved, when one is.
    pub nsq: Option<u16>,
}

// A traced run copies every event into the ring and out again at harvest.
const _: () = assert!(std::mem::size_of::<TraceEvent>() == 32);

/// Configuration for a run's trace sink, carried by scenarios.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceSpec {
    /// Ring capacity in events.
    pub cap: usize,
    /// Phase mask ([`MASK_ALL`] for everything).
    pub mask: u16,
}

impl TraceSpec {
    /// Spec tracing all phases into a ring of `cap` events.
    pub fn all(cap: usize) -> Self {
        TraceSpec {
            cap,
            mask: MASK_ALL,
        }
    }
}

/// Fixed-capacity, allocation-free ring buffer of [`TraceEvent`]s.
///
/// Disabled by default; when disabled, [`TraceSink::enabled`] is `false`
/// and [`TraceSink::record`] is a no-op, so instrumented code pays one
/// predictable branch. When the ring is full the oldest event is
/// overwritten and [`TraceSink::dropped`] counts the eviction — the
/// accounting is exact: `recorded == len() + dropped()`.
#[derive(Debug, Default)]
pub struct TraceSink {
    on: bool,
    mask: u16,
    /// Logical ring bound. Kept separate from `buf.capacity()` so an
    /// arena-recycled sink with a larger leftover allocation wraps at
    /// exactly the same event count as a fresh one (byte-identical replay).
    cap: usize,
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl TraceSink {
    /// Creates a disabled sink (records nothing, owns no memory).
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// Creates an enabled sink recording all phases into a ring of
    /// `cap` events (pre-allocated; recording never allocates).
    pub fn enabled_all(cap: usize) -> Self {
        TraceSink::with_spec(TraceSpec::all(cap))
    }

    /// Creates an enabled sink from a [`TraceSpec`].
    pub fn with_spec(spec: TraceSpec) -> Self {
        let mut sink = TraceSink::default();
        sink.reconfigure(Some(spec));
        sink
    }

    /// Re-arms the sink for a new run, keeping the ring allocation: with a
    /// spec the sink records that spec's phases into a ring of exactly
    /// `spec.cap` events; with `None` it is disabled (the trace-off hot
    /// path stays one branch). Either way the previous run's events and
    /// drop count are gone.
    pub fn reconfigure(&mut self, spec: Option<TraceSpec>) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
        match spec {
            Some(spec) => {
                self.on = true;
                self.mask = spec.mask;
                self.cap = spec.cap.max(1);
                self.buf.reserve(self.cap);
            }
            None => {
                self.on = false;
                self.mask = 0;
                self.cap = 0;
            }
        }
    }

    /// True when recording; instrumentation guards on this single branch.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Phase mask in effect.
    pub fn mask(&self) -> u16 {
        self.mask
    }

    /// Ring capacity in events (the logical bound, not the allocation).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records an event if the sink is enabled and the phase selected.
    ///
    /// Never allocates: the ring was sized at construction, and a full
    /// ring overwrites its oldest event (counted in [`TraceSink::dropped`]).
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if !self.on || self.mask & ev.phase.bit() == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.buf.len() {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the sink, returning buffered events oldest-first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        let TraceSink { mut buf, head, .. } = self;
        buf.rotate_left(head);
        buf
    }
}

impl crate::arena::ArenaReset for TraceSink {
    /// Resets to the disabled state (what `TraceSink::default()` gives),
    /// keeping the ring allocation for the next `reconfigure`.
    fn arena_reset(&mut self) {
        self.reconfigure(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, rq: u64, phase: Phase) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_nanos(t),
            rq,
            tenant: 1,
            sla: Sla::L,
            phase,
            core: 0,
            nsq: Some(2),
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = TraceSink::disabled();
        s.record(ev(1, 1, Phase::Submit));
        assert!(!s.enabled());
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 0);
    }

    #[test]
    fn ring_wraps_oldest_dropped_exact() {
        let mut s = TraceSink::enabled_all(2);
        for i in 0..5 {
            s.record(ev(i, i, Phase::Submit));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let evs = s.into_events();
        assert_eq!(evs[0].t, SimTime::from_nanos(3));
        assert_eq!(evs[1].t, SimTime::from_nanos(4));
    }

    #[test]
    fn mask_filters_phases() {
        let mut s = TraceSink::with_spec(TraceSpec {
            cap: 8,
            mask: Phase::Submit.bit() | Phase::Complete.bit(),
        });
        s.record(ev(1, 1, Phase::Submit));
        s.record(ev(2, 1, Phase::DeviceFetch));
        s.record(ev(3, 1, Phase::Complete));
        let evs = s.into_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].phase, Phase::Submit);
        assert_eq!(evs[1].phase, Phase::Complete);
    }

    #[test]
    fn phase_names_round_trip() {
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            assert_eq!(Phase::bit_from_name(name), Some(1 << i));
        }
        assert_eq!(Phase::bit_from_name("bogus"), None);
        assert_eq!(Phase::Routed { outlier: true }.name(), "routed");
    }

    #[test]
    fn into_events_preserves_order_across_wrap() {
        let mut s = TraceSink::enabled_all(3);
        for i in 0..4 {
            s.record(ev(i, i, Phase::Submit));
        }
        let ts: Vec<u64> = s.into_events().iter().map(|e| e.t.as_nanos()).collect();
        assert_eq!(ts, vec![1, 2, 3]);
    }

    #[test]
    fn recycled_sink_wraps_at_logical_cap() {
        use crate::arena::ArenaReset;
        // First life: a big ring. Second life: a small ring over the same
        // (larger) allocation — it must wrap at the *logical* cap, exactly
        // like a fresh small sink would.
        let mut s = TraceSink::enabled_all(64);
        for i in 0..64 {
            s.record(ev(i, i, Phase::Submit));
        }
        s.arena_reset();
        assert!(!s.enabled());
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 0);
        s.reconfigure(Some(TraceSpec::all(2)));
        for i in 0..5 {
            s.record(ev(i, i, Phase::Submit));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let evs = s.into_events();
        assert_eq!(evs[0].t, SimTime::from_nanos(3));
        assert_eq!(evs[1].t, SimTime::from_nanos(4));
    }

    #[test]
    fn mask_all_covers_every_phase() {
        assert_eq!(MASK_ALL.count_ones() as usize, PHASE_COUNT);
        for name in PHASE_NAMES {
            assert_ne!(MASK_ALL & Phase::bit_from_name(name).unwrap(), 0);
        }
    }
}
