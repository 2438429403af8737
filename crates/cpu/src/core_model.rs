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
//! # Layout: struct of arrays
//!
//! [`CpuSystem`] stores per-core state column-wise — one array per field,
//! indexed by core — instead of an array of per-core structs. The dispatch
//! hot path (`enqueue` → `take_next` → `begin` → `finish`) touches exactly
//! the columns it needs (`class_mask`/`pending`/`state`) without dragging
//! the cold accounting column (`busy_accum`) through the cache, and the
//! next-class pick is one `trailing_zeros` on the core's non-empty-class
//! bitmask instead of a per-class queue scan. `bench/benches/micro.rs`
//! times it against the old array-of-structs layout
//! (`workqueue/scan_{aos,soa}`).

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

/// The multi-core system (struct-of-arrays per-core state; see the module
/// docs for the layout rationale).
#[derive(Debug)]
pub struct CpuSystem<P> {
    /// Per-class FIFO queues: `queues[class][core]`.
    queues: [Vec<VecDeque<P>>; 2],
    /// Bitmask of non-empty classes per core (bit = `WorkClass::index()`).
    /// Class indices are priority-ordered, so `trailing_zeros` picks the
    /// next class to run.
    class_mask: Vec<u8>,
    /// Total queued (not yet started) payloads per core.
    pending: Vec<u32>,
    state: Vec<CoreState>,
    /// Accumulated busy time up to the end of the last finished item.
    busy_accum: Vec<SimDuration>,
    /// Start time of the current item, if running.
    running_since: Vec<Option<SimTime>>,
}

impl<P> Default for CpuSystem<P> {
    /// Zero cores; [`CpuSystem::configure`] sizes the columns.
    fn default() -> Self {
        CpuSystem {
            queues: [Vec::new(), Vec::new()], // dd-alloc-allowlist: construction
            class_mask: Vec::new(),           // dd-alloc-allowlist: construction
            pending: Vec::new(),              // dd-alloc-allowlist: construction
            state: Vec::new(),                // dd-alloc-allowlist: construction
            busy_accum: Vec::new(),           // dd-alloc-allowlist: construction
            running_since: Vec::new(),        // dd-alloc-allowlist: construction
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
        let n = nr_cores as usize;
        for q in &mut self.queues {
            for d in q.iter_mut() {
                d.clear();
            }
            q.resize_with(n, VecDeque::new);
        }
        self.class_mask.clear();
        self.class_mask.resize(n, 0);
        self.pending.clear();
        self.pending.resize(n, 0);
        self.state.clear();
        self.state.resize(n, CoreState::Idle);
        self.busy_accum.clear();
        self.busy_accum.resize(n, SimDuration::ZERO);
        self.running_since.clear();
        self.running_since.resize(n, None);
    }

    /// Number of cores.
    pub fn nr_cores(&self) -> u16 {
        self.state.len() as u16
    }

    /// Number of queued (not yet started) payloads on `core`.
    pub fn pending(&self, core: u16) -> usize {
        self.pending[core as usize] as usize
    }

    /// Total busy time of `core` up to `now`.
    pub fn busy_until(&self, core: u16, now: SimTime) -> SimDuration {
        let i = core as usize;
        match self.running_since[i] {
            Some(start) => self.busy_accum[i] + now.saturating_since(start),
            None => self.busy_accum[i],
        }
    }

    /// Queues a payload on `core`. Returns `true` when the caller must
    /// schedule a dispatch event for the core (it was idle).
    pub fn enqueue(&mut self, core: u16, class: WorkClass, payload: P) -> bool {
        let i = core as usize;
        self.queues[class.index()][i].push_back(payload);
        self.class_mask[i] |= 1 << class.index();
        self.pending[i] += 1;
        if self.state[i] == CoreState::Idle {
            self.state[i] = CoreState::DispatchPending;
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
        let i = core as usize;
        debug_assert_eq!(
            self.state[i],
            CoreState::DispatchPending,
            "take_next without a pending dispatch"
        );
        let mask = self.class_mask[i];
        if mask == 0 {
            self.state[i] = CoreState::Idle;
            return None;
        }
        let class = WorkClass::ALL[mask.trailing_zeros() as usize];
        let q = &mut self.queues[class.index()][i];
        let p = q.pop_front().expect("class bit set for empty queue");
        if q.is_empty() {
            self.class_mask[i] &= !(1 << class.index());
        }
        self.pending[i] -= 1;
        Some((class, p))
    }

    /// Marks the item taken by [`CpuSystem::take_next`] as running for
    /// `cost`; returns its finish time, for which the caller schedules a
    /// core-done event.
    pub fn begin(&mut self, core: u16, now: SimTime, cost: SimDuration) -> SimTime {
        let i = core as usize;
        debug_assert_eq!(
            self.state[i],
            CoreState::DispatchPending,
            "begin without take_next"
        );
        self.state[i] = CoreState::Running;
        self.running_since[i] = Some(now);
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
        let i = core as usize;
        assert_eq!(self.state[i], CoreState::Running, "core-done for an idle core");
        let start = self.running_since[i].take().expect("running without start time");
        self.busy_accum[i] += now.saturating_since(start);
        if self.pending[i] > 0 {
            self.state[i] = CoreState::DispatchPending;
            true
        } else {
            self.state[i] = CoreState::Idle;
            false
        }
    }

    /// Busy-time snapshot for all cores (baseline for window accounting).
    pub fn busy_snapshot(&self, now: SimTime) -> Vec<SimDuration> {
        (0..self.state.len())
            .map(|i| self.busy_until(i as u16, now))
            .collect()
    }

    /// Per-core busy fractions over `[window_start, now]`, given snapshots
    /// taken at `window_start`.
    pub fn busy_fractions(
        &self,
        window_start: SimTime,
        baseline: &[SimDuration],
        now: SimTime,
    ) -> Vec<f64> {
        let window = now.saturating_since(window_start);
        if window.is_zero() {
            // dd-alloc-allowlist: post-loop; one fraction per core.
            return vec![0.0; self.state.len()];
        }
        (0..self.state.len())
            .zip(baseline)
            .map(|(i, &b)| {
                let busy = self.busy_until(i as u16, now).saturating_sub(b);
                busy.as_nanos() as f64 / window.as_nanos() as f64
            })
            .collect()
    }
}

impl<P> ArenaReset for CpuSystem<P> {
    /// Drops all per-core state but keeps the queue allocations; the next
    /// [`CpuSystem::configure`] call makes the system fresh again.
    fn arena_reset(&mut self) {
        for q in &mut self.queues {
            for d in q.iter_mut() {
                d.clear();
            }
        }
        self.class_mask.clear();
        self.pending.clear();
        self.state.clear();
        self.busy_accum.clear();
        self.running_since.clear();
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
