//! Per-core run queues and the multi-core system facade.
//!
//! A core executes one work item at a time. Pending payloads wait in
//! per-class FIFOs; the highest-priority non-empty class supplies the next.
//!
//! The execution protocol is *dispatch-style*, because the cost of an item
//! (e.g. a submission that hits NSQ lock contention) is only known when the
//! storage stack actually executes it:
//!
//! 1. [`CpuSystem::enqueue`] adds a payload. If it returns `true` the core
//!    was idle and the host must schedule a *dispatch* event for the core at
//!    the current time.
//! 2. On dispatch, [`CpuSystem::take_next`] pops the next payload; the host
//!    runs the corresponding action (which mutates stack/device state and
//!    returns a CPU cost) and calls [`CpuSystem::begin`] with that cost,
//!    scheduling a *core-done* event at the returned finish time.
//! 3. On core-done, [`CpuSystem::finish`] retires the item; if payloads
//!    remain the host schedules another dispatch immediately.
//!
//! Action effects apply at item *start* and the core then stays busy for the
//! returned duration. Preemption is at item granularity: an IRQ arriving
//! mid-item waits for the item, then runs before queued task work. Items are
//! µs-scale here, so both approximations sit far below the latency effects
//! under study (DESIGN.md §4).
//!
//! # Layout
//!
//! [`CpuSystem`] keeps one `Core` struct per core, holding everything a
//! dispatch step touches: the two class FIFOs, the bitmask of non-empty
//! classes, the pending count, the dispatch state and the busy-time
//! accounting. The next-class pick is one `trailing_zeros` on the bitmask
//! instead of a per-class queue scan. `bench/benches/micro.rs` times the
//! protocol on this type (`workqueue/dispatch`); DESIGN.md §4c gives the
//! measurements behind the layout.

use std::collections::VecDeque;

use simkit::{ArenaReset, SimDuration, SimTime};

use crate::work::WorkClass;

/// Execution state of one core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CoreState {
    /// Nothing running, no dispatch event pending.
    Idle,
    /// A dispatch event is scheduled but `take_next` has not run yet.
    DispatchPending,
    /// An item is running until the stored finish time.
    Running,
}

/// One core: its run queues, dispatch state and busy-time accounting.
#[derive(Debug)]
struct Core<P> {
    /// Per-class FIFO queues, indexed by `WorkClass::index()`.
    queues: [VecDeque<P>; 2],
    /// Bitmask of non-empty classes (bit = `WorkClass::index()`). Class
    /// indices are priority-ordered, so `trailing_zeros` picks the next
    /// class to run.
    class_mask: u8,
    /// Queued (not yet started) payloads.
    pending: u32,
    state: CoreState,
    /// Accumulated busy time up to the end of the last finished item.
    busy_accum: SimDuration,
    /// Start time of the current item, if running.
    running_since: Option<SimTime>,
}

impl<P> Core<P> {
    fn idle() -> Self {
        Core {
            queues: [VecDeque::new(), VecDeque::new()],
            class_mask: 0,
            pending: 0,
            state: CoreState::Idle,
            busy_accum: SimDuration::ZERO,
            running_since: None,
        }
    }

    /// Back to `Core::idle`, keeping the queue allocations.
    fn reset(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        self.class_mask = 0;
        self.pending = 0;
        self.state = CoreState::Idle;
        self.busy_accum = SimDuration::ZERO;
        self.running_since = None;
    }

    fn busy_until(&self, now: SimTime) -> SimDuration {
        match self.running_since {
            Some(start) => self.busy_accum + now.saturating_since(start),
            None => self.busy_accum,
        }
    }
}

/// The multi-core system: one `Core` per core (see the module docs).
#[derive(Debug)]
pub struct CpuSystem<P> {
    cores: Vec<Core<P>>,
}

impl<P> Default for CpuSystem<P> {
    /// Zero cores; [`CpuSystem::configure`] adds them.
    fn default() -> Self {
        CpuSystem {
            cores: Vec::new(), // dd-alloc-allowlist: construction
        }
    }
}

impl<P> CpuSystem<P> {
    /// Builds a system of `nr_cores` idle cores.
    pub fn new(nr_cores: u16) -> Self {
        let mut sys = Self::default();
        sys.configure(nr_cores);
        sys
    }

    /// (Re)configures the system for `nr_cores` cores, resetting all
    /// per-core state. An arena-recycled system configured this way is
    /// indistinguishable from a fresh [`CpuSystem::new`] — the queue
    /// allocations of matching cores are the only thing that survives.
    pub fn configure(&mut self, nr_cores: u16) {
        self.arena_reset();
        self.cores.resize_with(nr_cores as usize, Core::idle);
    }

    /// Number of cores.
    pub fn nr_cores(&self) -> u16 {
        self.cores.len() as u16
    }

    /// Number of queued (not yet started) payloads on `core`.
    pub fn pending(&self, core: u16) -> usize {
        self.cores[core as usize].pending as usize
    }

    /// Total busy time of `core` up to `now`.
    pub fn busy_until(&self, core: u16, now: SimTime) -> SimDuration {
        self.cores[core as usize].busy_until(now)
    }

    /// Queues a payload on `core`. Returns `true` when the caller must
    /// schedule a dispatch event for the core (it was idle).
    pub fn enqueue(&mut self, core: u16, class: WorkClass, payload: P) -> bool {
        let c = &mut self.cores[core as usize];
        c.queues[class.index()].push_back(payload);
        c.class_mask |= 1 << class.index();
        c.pending += 1;
        if c.state == CoreState::Idle {
            c.state = CoreState::DispatchPending;
            true
        } else {
            false
        }
    }

    /// Pops the next payload to execute (highest class first, FIFO within).
    ///
    /// Returns `None` if the queues drained between the dispatch event being
    /// scheduled and firing (cannot happen with the standard protocol, but
    /// is tolerated to keep the host loop simple).
    pub fn take_next(&mut self, core: u16) -> Option<(WorkClass, P)> {
        let c = &mut self.cores[core as usize];
        debug_assert_eq!(
            c.state,
            CoreState::DispatchPending,
            "take_next without a pending dispatch"
        );
        if c.class_mask == 0 {
            c.state = CoreState::Idle;
            return None;
        }
        let class = WorkClass::ALL[c.class_mask.trailing_zeros() as usize];
        let q = &mut c.queues[class.index()];
        let p = q.pop_front().expect("class bit set for empty queue");
        if q.is_empty() {
            c.class_mask &= !(1 << class.index());
        }
        c.pending -= 1;
        Some((class, p))
    }

    /// Marks the item taken by [`CpuSystem::take_next`] as running for
    /// `cost`; returns its finish time, for which the caller schedules a
    /// core-done event.
    pub fn begin(&mut self, core: u16, now: SimTime, cost: SimDuration) -> SimTime {
        let c = &mut self.cores[core as usize];
        debug_assert_eq!(
            c.state,
            CoreState::DispatchPending,
            "begin without take_next"
        );
        c.state = CoreState::Running;
        c.running_since = Some(now);
        now + cost
    }

    /// Retires the running item at its core-done event. Returns `true` when
    /// payloads remain and the caller must schedule another dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the core was not running (a stale or duplicate core-done
    /// event — a host event-loop bug).
    pub fn finish(&mut self, core: u16, now: SimTime) -> bool {
        let c = &mut self.cores[core as usize];
        assert_eq!(c.state, CoreState::Running, "core-done for an idle core");
        let start = c.running_since.take().expect("running without start time");
        c.busy_accum += now.saturating_since(start);
        if c.pending > 0 {
            c.state = CoreState::DispatchPending;
            true
        } else {
            c.state = CoreState::Idle;
            false
        }
    }

    /// Busy-time snapshot for all cores (baseline for window accounting).
    pub fn busy_snapshot(&self, now: SimTime) -> Vec<SimDuration> {
        self.cores.iter().map(|c| c.busy_until(now)).collect()
    }

    /// Per-core busy fractions over `[window_start, now]`, given snapshots
    /// taken at `window_start`; all zero over an empty window or without
    /// snapshots (a run that ended before its window opened).
    pub fn busy_fractions(
        &self,
        window_start: SimTime,
        baseline: &[SimDuration],
        now: SimTime,
    ) -> Vec<f64> {
        let window = now.saturating_since(window_start);
        if window.is_zero() || baseline.is_empty() {
            // dd-alloc-allowlist: post-loop; one fraction per core.
            return vec![0.0; self.cores.len()];
        }
        self.cores
            .iter()
            .zip(baseline)
            .map(|(c, &b)| {
                let busy = c.busy_until(now).saturating_sub(b);
                busy.as_nanos() as f64 / window.as_nanos() as f64
            })
            .collect()
    }
}

impl<P> ArenaReset for CpuSystem<P> {
    /// Returns every core to idle with empty queues and zeroed accounting,
    /// keeping the queue allocations; [`CpuSystem::configure`] then sets
    /// the core count.
    fn arena_reset(&mut self) {
        for c in &mut self.cores {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn t(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn sys(n: u16) -> CpuSystem<&'static str> {
        CpuSystem::new(n)
    }

    #[test]
    fn idle_core_requests_dispatch() {
        let mut s = sys(1);
        assert!(s.enqueue(0, WorkClass::Task, "a"));
        // Second enqueue while dispatch pending: no new dispatch.
        assert!(!s.enqueue(0, WorkClass::Task, "b"));
    }

    #[test]
    fn dispatch_run_finish_cycle() {
        let mut s = sys(1);
        assert!(s.enqueue(0, WorkClass::Task, "a"));
        let (class, p) = s.take_next(0).unwrap();
        assert_eq!(class, WorkClass::Task);
        assert_eq!(p, "a");
        let fin = s.begin(0, t(0), us(5));
        assert_eq!(fin, t(5));
        assert!(!s.finish(0, t(5)), "no more work");
        assert!(s.enqueue(0, WorkClass::Task, "b"), "the core went idle");
    }

    #[test]
    fn finish_requests_redispatch_when_backlogged() {
        let mut s = sys(1);
        assert!(s.enqueue(0, WorkClass::Task, "a"));
        s.take_next(0);
        s.begin(0, t(0), us(5));
        assert!(!s.enqueue(0, WorkClass::Task, "b"), "busy core queues");
        assert!(s.finish(0, t(5)), "backlog must request dispatch");
        let (_, p) = s.take_next(0).unwrap();
        assert_eq!(p, "b");
    }

    #[test]
    fn irq_jumps_ahead_of_tasks() {
        let mut s = sys(1);
        s.enqueue(0, WorkClass::Task, "running");
        s.take_next(0);
        s.begin(0, t(0), us(5));
        s.enqueue(0, WorkClass::Task, "task-q");
        s.enqueue(0, WorkClass::HardIrq, "irq");
        s.finish(0, t(5));
        let (class, p) = s.take_next(0).unwrap();
        assert_eq!(class, WorkClass::HardIrq);
        assert_eq!(p, "irq", "IRQ must run before queued task work");
        s.begin(0, t(5), us(1));
        s.finish(0, t(6));
        let (_, p) = s.take_next(0).unwrap();
        assert_eq!(p, "task-q");
    }

    #[test]
    fn cores_are_independent() {
        let mut s = sys(2);
        assert!(s.enqueue(0, WorkClass::Task, "a"));
        assert!(s.enqueue(1, WorkClass::Task, "b"));
        s.take_next(0);
        s.begin(0, t(0), us(5));
        assert_eq!(s.pending(1), 1);
        assert!(s.pending(0) == 0);
    }

    #[test]
    fn busy_accounting_and_windows() {
        let mut s = sys(2);
        s.enqueue(0, WorkClass::Task, "a");
        s.take_next(0);
        s.begin(0, t(0), us(4));
        s.finish(0, t(4));
        assert_eq!(s.busy_until(0, t(10)), us(4));
        let base = s.busy_snapshot(t(4));
        s.enqueue(0, WorkClass::Task, "b");
        s.take_next(0);
        s.begin(0, t(5), us(3));
        // Mid-item busy time counts.
        assert_eq!(s.busy_until(0, t(7)), us(6));
        s.finish(0, t(8));
        let fr = s.busy_fractions(t(4), &base, t(10));
        assert!((fr[0] - 0.5).abs() < 1e-9, "fr={fr:?}");
        assert_eq!(fr[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "idle core")]
    fn stale_core_done_panics() {
        let mut s = sys(1);
        let _ = s.finish(0, t(0));
    }

    #[test]
    fn recycled_system_matches_fresh() {
        // arena_reset + configure == new: same dispatch behaviour, zeroed
        // accounting, even when the core count changes.
        let mut s = sys(4);
        s.enqueue(2, WorkClass::HardIrq, "x");
        s.take_next(2);
        s.begin(2, t(0), us(3));
        s.finish(2, t(3));
        s.enqueue(1, WorkClass::Task, "left behind");
        s.arena_reset();
        s.configure(2);
        assert_eq!(s.nr_cores(), 2);
        for core in 0..2 {
            assert_eq!(s.pending(core), 0);
            assert_eq!(s.busy_until(core, t(100)), SimDuration::ZERO);
        }
        assert!(
            s.enqueue(1, WorkClass::Task, "idle"),
            "core 1 is idle again"
        );
        assert!(s.enqueue(0, WorkClass::Task, "fresh"));
        let (class, p) = s.take_next(0).unwrap();
        assert_eq!((class, p), (WorkClass::Task, "fresh"));
    }

    #[test]
    fn pending_count_tracks_mask() {
        let mut s = sys(1);
        s.enqueue(0, WorkClass::Task, "a");
        s.enqueue(0, WorkClass::Task, "b");
        s.enqueue(0, WorkClass::HardIrq, "h");
        assert_eq!(s.pending(0), 3);
        let mut seen = Vec::new();
        let mut now = t(0);
        loop {
            let (_, p) = s.take_next(0).unwrap();
            seen.push(p);
            let fin = s.begin(0, now, us(1));
            now = fin;
            if !s.finish(0, fin) {
                break;
            }
        }
        assert_eq!(seen, vec!["h", "a", "b"]);
        assert_eq!(s.pending(0), 0);
    }
}
