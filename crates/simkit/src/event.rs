//! Deterministic event queue.
//!
//! [`EventQueue`] is a min-priority queue of `(SimTime, E)` pairs. Events
//! that share a firing time are delivered in insertion order: every push is
//! stamped with a monotonically increasing sequence number that acts as the
//! tie-breaker. This makes simulation runs reproducible regardless of how
//! the underlying containers happen to break ties.
//!
//! # Two lanes
//!
//! Discrete-event simulations of queueing systems schedule the overwhelming
//! majority of their events a few hundred nanoseconds to a few hundred
//! microseconds ahead of the current virtual time (core dispatches at `now`,
//! work completions at `now + cost`, device fetch/completion latencies,
//! interrupt deliveries), and the device's page budget bounds how many are
//! pending at once: tens, not thousands. [`EventQueue`] therefore keeps two
//! lanes split at a **horizon** [`HORIZON`] past the last popped time:
//!
//! * a **near lane**: one array of every event before the horizon, kept in
//!   *descending* `(time, seq)` order so the minimum sits at the tail. A
//!   pop takes the tail; a push scans from the tail past the events
//!   earlier than it (a couple of steps on the simulator's traffic) and
//!   inserts there.
//! * a **far lane**: a binary heap of the events at or after the horizon
//!   (stop markers, warmup boundaries, arrival timers, storm intervals).
//!
//! Each pop moves the horizon to `HORIZON` past the popped time (it never
//! moves back) and migrates the far events it passed into the near lane;
//! they are later than every near event, so they go to its front. So the
//! far lane holds only events at or after the horizon, every push before
//! the horizon — including one behind the last popped time — lands in the
//! near lane, and the near tail is always the queue's minimum.
//!
//! The observable order is *identical* to a single binary heap on
//! `(time, seq)` — property-tested against one in
//! `simkit/tests/proptests.rs` under random push/pop interleavings, and
//! micro-benched against it in `bench/benches/micro.rs`.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A scheduled far-lane event: fires at `at`, ties broken by `seq`
/// (insertion order).
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the `BinaryHeap` max-heap acts as a min-heap on
        // (time, sequence).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// How far past the last popped time the near lane reaches (2^20 ns ≈
/// 1.05 ms): past the device's command completions, which land 262–524 µs
/// ahead, so only genuine timers pay heap work.
pub const HORIZON: SimDuration = SimDuration::from_nanos(1 << 20);

/// A deterministic min-queue of timed events (a sorted near lane plus a
/// binary-heap far lane; see the module docs).
///
/// # Examples
///
/// ```
/// use simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// q.push(SimTime::from_nanos(10), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Events before `horizon`, in descending `(time, seq)` order.
    near: Vec<(SimTime, u64, E)>,
    /// Events at or after `horizon`.
    far: BinaryHeap<Scheduled<E>>,
    /// The lanes' boundary: [`HORIZON`] past the latest popped time.
    horizon: SimTime,
    next_seq: u64,
    pushed_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            // dd-alloc-allowlist: const empty Vec — no heap allocation.
            near: Vec::new(),
            far: BinaryHeap::new(),
            horizon: SimTime::ZERO + HORIZON,
            next_seq: 0,
            pushed_total: 0,
        }
    }

    /// Creates an empty queue pre-sized for `cap` pending events, any of
    /// them past the horizon.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.reserve(cap, cap);
        q
    }

    /// Grows the lanes for `near` pending events in all and `far` of them
    /// past the horizon. Far events migrate into the near lane before
    /// they fire, so `near` bounds every pending event. Idempotent — an
    /// already-large (e.g. arena-recycled) queue is left alone, so a
    /// recycled queue behaves exactly like a fresh
    /// [`EventQueue::with_capacity`] one, capacity aside.
    pub fn reserve(&mut self, near: usize, far: usize) {
        self.near.reserve(near);
        self.far.reserve(far);
    }

    /// Routes one stamped event to its lane.
    fn place(&mut self, at: SimTime, seq: u64, event: E) {
        if at < self.horizon {
            // Scan from the tail past the earlier events; `seq` is the
            // newest, so an equal time counts as earlier.
            let i = self
                .near
                .iter()
                .rposition(|e| e.0 > at)
                .map_or(0, |p| p + 1);
            self.near.insert(i, (at, seq, event));
        } else {
            self.far.push(Scheduled { at, seq, event });
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed_total += 1;
        self.place(at, seq, event);
    }

    /// Schedules a batch of events, assigning sequence numbers in iterator
    /// order — byte-for-byte equivalent to calling [`EventQueue::push`] per
    /// item, with the sequence/counter bookkeeping hoisted out of the loop.
    pub fn push_batch<I: IntoIterator<Item = (SimTime, E)>>(&mut self, batch: I) {
        let mut seq = self.next_seq;
        for (at, event) in batch {
            self.place(at, seq, event);
            seq += 1;
        }
        self.pushed_total += seq - self.next_seq;
        self.next_seq = seq;
    }

    /// Moves the horizon to [`HORIZON`] past `now` (never back) and
    /// migrates the far events it passed to the front of the near lane.
    fn advance(&mut self, now: SimTime) {
        let horizon = SimTime::from_nanos(now.as_nanos().saturating_add(HORIZON.as_nanos()));
        if horizon <= self.horizon {
            return;
        }
        self.horizon = horizon;
        let len = self.near.len();
        while let Some(top) = self.far.peek_mut() {
            if top.at >= horizon {
                break;
            }
            let Scheduled { at, seq, event } = PeekMut::pop(top);
            self.near.push((at, seq, event));
        }
        // The migrants came out ascending and are later than every near
        // event: reverse them and rotate them to the front.
        let moved = self.near.len() - len;
        if moved > 0 {
            self.near[len..].reverse();
            self.near.rotate_right(moved);
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = match self.near.pop() {
            Some((at, _, event)) => (at, event),
            None => {
                let s = self.far.pop()?;
                (s.at, s.event)
            }
        };
        self.advance(at);
        Some((at, event))
    }

    /// The firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.near.last() {
            Some(&(at, _, _)) => Some(at),
            None => self.far.peek().map(|s| s.at),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.near.is_empty() && self.far.is_empty()
    }

    /// Total number of events ever pushed (for run statistics).
    pub fn pushed_total(&self) -> u64 {
        self.pushed_total
    }

    /// Total backing capacity in events across both lanes. Used by
    /// capacity-stability probes: once a run reaches steady state the
    /// queue must stop allocating.
    pub fn capacity(&self) -> usize {
        self.near.capacity() + self.far.capacity()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.near.clear();
        self.far.clear();
    }
}

impl<E> crate::arena::ArenaReset for EventQueue<E> {
    /// Full logical reset: horizon, sequence numbers, and push counter all
    /// restart (sequence numbers are the deterministic tie-break — a
    /// recycled queue must replay exactly like a fresh one), keeping both
    /// lanes' allocations.
    fn arena_reset(&mut self) {
        self.clear();
        self.horizon = SimTime::ZERO + HORIZON;
        self.next_seq = 0;
        self.pushed_total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        for t in [5u64, 3, 9, 1, 7] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn fifo_within_same_time() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn fifo_across_lanes() {
        // Same firing time reached through the near lane and (via a push
        // beyond the horizon) the far lane: seq order must still win.
        let mut q = EventQueue::new();
        let far = SimTime::ZERO + HORIZON + SimDuration::from_micros(10);
        q.push(far, "far-first"); // lands in the far heap
        q.push(SimTime::from_nanos(1), "near");
        q.push(far, "far-second"); // also far heap
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far-first");
        assert_eq!(q.pop().unwrap().1, "far-second");
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_at_the_horizon_goes_far() {
        // An event at exactly the horizon belongs to the far lane: were it
        // near, an earlier-pushed far event at the same time would migrate
        // in front of it and pop after it.
        let mut q = EventQueue::new();
        let at = SimTime::from_nanos(10) + HORIZON;
        q.push(at, "far-first");
        q.push(SimTime::from_nanos(10), "near");
        assert_eq!(q.pop().unwrap().1, "near"); // horizon = `at`
        q.push(at, "far-second");
        assert_eq!(q.far.len(), 2);
        q.push(SimTime::from_nanos(20), "next"); // its pop migrates both
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["next", "far-first", "far-second"]);
    }

    #[test]
    fn push_behind_last_pop_still_delivered() {
        // Pop something late, then push something earlier ("time travel"):
        // the queue is a plain priority queue, so the early event comes
        // right out.
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(50), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        q.push(SimTime::from_nanos(5), "early");
        assert_eq!(q.pop().unwrap().1, "early");
    }

    #[test]
    fn interleaved_push_pop_at_now() {
        // The machine's dominant pattern: pop at t, push follow-ups at t
        // and t + small deltas. Order must stay (time, seq).
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1000), 0u32);
        let (t, _) = q.pop().unwrap();
        q.push(t, 1);
        q.push(t + SimDuration::from_nanos(500), 3);
        q.push(t, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_sees_both_lanes() {
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(5);
        q.push(far, "far");
        assert_eq!(q.peek_time(), Some(far));
        q.push(SimTime::from_nanos(3), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
    }

    #[test]
    fn counts_pushes() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.pushed_total(), 2);
        q.clear();
        assert_eq!(q.pushed_total(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn push_batch_matches_looped_push() {
        // Mixed near/far batch interleaved with single pushes and pops:
        // the batched queue must replay identically to the looped one.
        let mut batched = EventQueue::new();
        let mut looped = EventQueue::new();
        let far = SimTime::ZERO + HORIZON + SimDuration::from_nanos(3);
        let items = [
            (SimTime::from_nanos(100), 0u32),
            (SimTime::from_nanos(100), 1),
            (far, 2),
            (SimTime::from_nanos(50), 3),
            (far, 4),
            (SimTime::from_nanos(2000), 5),
        ];
        batched.push(SimTime::from_nanos(10), 99);
        looped.push(SimTime::from_nanos(10), 99);
        batched.push_batch(items.iter().copied());
        for (at, e) in items {
            looped.push(at, e);
        }
        assert_eq!(batched.len(), looped.len());
        assert_eq!(batched.pushed_total(), looped.pushed_total());
        loop {
            let (a, b) = (batched.pop(), looped.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn push_batch_inserts_behind_the_tail() {
        // Batch-push into a draining near lane: an equal time goes after
        // the pending one, an earlier one lands at the tail, and order
        // stays (time, seq).
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 0u32);
        q.push(SimTime::from_nanos(30), 1);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push_batch([
            (SimTime::from_nanos(30), 2),
            (SimTime::from_nanos(20), 3),
            (SimTime::from_nanos(15), 4), // new minimum: at the tail
        ]);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![4, 3, 1, 2]);
    }

    #[test]
    fn arena_reset_replays_like_fresh() {
        use crate::arena::ArenaReset;
        let mut q = EventQueue::with_capacity(512);
        for t in [5u64, 1_000_000, 3] {
            q.push(SimTime::from_nanos(t), t);
        }
        q.pop();
        q.arena_reset();
        assert!(q.is_empty());
        assert_eq!(q.pushed_total(), 0);
        assert_eq!(
            q.horizon,
            SimTime::ZERO + HORIZON,
            "the lanes split like a fresh queue's"
        );
        // Replays exactly like a fresh queue (seq restarts at zero).
        let mut fresh = EventQueue::new();
        for t in [7u64, 7, 2] {
            q.push(SimTime::from_nanos(t), t);
            fresh.push(SimTime::from_nanos(t), t);
        }
        loop {
            let (a, b) = (q.pop(), fresh.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Replays a simulation-shaped script and checks the lane invariants
    /// after every step: the horizon sits [`HORIZON`] past `now`, the far
    /// lane holds only events at or after it, the near lane is sorted, and
    /// every push before the horizon lands in the near lane. Work events
    /// chain follow-ups a few µs to ~0.8 ms ahead and die out; 16 timers
    /// re-arm 0.3–40 ms out and start bursts of work, so the near lane
    /// keeps draining into quiet gaps longer than the horizon.
    #[test]
    fn lanes_keep_pace_with_the_clock() {
        #[derive(Clone, Copy)]
        enum Ev {
            Work,
            Timer,
        }
        fn push_checked(q: &mut EventQueue<Ev>, now: SimTime, at: SimTime, ev: Ev) {
            let near = q.near.len();
            q.push(at, ev);
            if at < now + HORIZON {
                assert_eq!(
                    q.near.len(),
                    near + 1,
                    "push at {at:?} (now {now:?}) missed the near lane"
                );
            }
        }
        let mut rng = crate::rng::SimRng::new(17);
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        let mut quiet_gaps = 0;
        for _ in 0..16 {
            let at = now + SimDuration::from_micros(300 + rng.gen_range(40_000));
            push_checked(&mut q, now, at, Ev::Timer);
        }
        for _ in 0..200_000 {
            let (t, ev) = q.pop().expect("timers re-arm forever");
            assert!(t >= now, "script pushes nothing behind the clock");
            quiet_gaps += usize::from(t >= now + HORIZON);
            now = t;
            assert_eq!(q.horizon, now + HORIZON, "horizon lost pace with the clock");
            if let Some(f) = q.far.peek() {
                assert!(
                    f.at >= q.horizon,
                    "far head {:?} sits before the horizon {:?}",
                    f.at,
                    q.horizon
                );
            }
            assert!(
                q.near
                    .windows(2)
                    .all(|w| (w[0].0, w[0].1) > (w[1].0, w[1].1)),
                "near lane out of order at {now:?}"
            );
            let (follow_ups, rearm) = match ev {
                Ev::Work => (u64::from(rng.gen_bool(0.8)), false),
                Ev::Timer => (1 + rng.gen_range(4), true),
            };
            for _ in 0..follow_ups {
                let at = now + SimDuration::from_nanos(rng.gen_range(800_000));
                push_checked(&mut q, now, at, Ev::Work);
            }
            if rearm {
                let at = now + SimDuration::from_micros(300 + rng.gen_range(40_000));
                push_checked(&mut q, now, at, Ev::Timer);
            }
        }
        assert!(
            quiet_gaps > 300,
            "only {quiet_gaps} quiet gaps: the script lost its shape"
        );
    }
}
