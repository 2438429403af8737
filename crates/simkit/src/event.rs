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
//! interrupt deliveries). A binary heap pays `O(log n)` sift work for every
//! one of those pushes and pops. [`EventQueue`] therefore keeps two lanes,
//! calendar-queue style:
//!
//! * a **near-future lane**: a ring of [`NEAR_BUCKETS`] buckets, each
//!   covering a granule of `1 << GRANULE_SHIFT` nanoseconds. Pushes whose
//!   firing granule lies within the ring's window (`cursor` to
//!   `cursor + NEAR_BUCKETS` granules) are appended to their bucket in
//!   O(1); a bucket is sorted once, when draining reaches it. An
//!   occupancy bitmap takes the drain straight to the next occupied
//!   bucket, however sparse the ring is.
//! * a **far lane**: the plain binary heap, for timers beyond the window
//!   (stop markers, warmup boundaries, think-time wakeups, arrival
//!   timers, storm intervals).
//!
//! The window keeps pace with the clock. Two invariants hold:
//!
//! * the cursor never passes the next event: it advances only to the
//!   granule of the near event being popped, and when the ring is empty
//!   it jumps to the far head's granule;
//! * the far lane holds only events at or beyond the window's end:
//!   whenever the end moves, far events whose granule entered the window
//!   migrate into their buckets.
//!
//! So a push at or after the last popped time lands in the ring whenever
//! it is within the window, and only genuine far timers pay heap work.
//! The API still allows a push behind the last popped time; it goes to
//! the far lane if its granule is behind the cursor.
//!
//! Every pop compares the near-lane head against the far-lane head on the
//! full `(time, seq)` key, so the observable order is *identical* to a
//! single binary heap on `(time, seq)` — property-tested against one in
//! `simkit/tests/proptests.rs` under random push/pop interleavings, and
//! micro-benched against it in `bench/benches/micro.rs`.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled event: fires at `at`, ties broken by `seq` (insertion order).
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

/// Width of one near-future bucket: events within the same
/// `2^GRANULE_SHIFT` ns granule share a bucket (1.024 µs).
pub const GRANULE_SHIFT: u32 = 10;

/// Number of buckets in the near-future ring (must stay a power of two).
/// Window covered: `NEAR_BUCKETS << GRANULE_SHIFT` ns ≈ 262 µs — the
/// dominant event horizon of the simulated storage stack.
pub const NEAR_BUCKETS: usize = 256;

const NEAR_MASK: u64 = NEAR_BUCKETS as u64 - 1;

/// Words in the occupancy bitmap, one bit per ring slot.
const OCC_WORDS: usize = NEAR_BUCKETS / 64;

/// One near-lane bucket. `sorted == true` means `items` is kept in
/// *descending* `(time, seq)` order so the minimum pops off the tail.
struct Bucket<E> {
    items: Vec<(SimTime, u64, E)>,
    sorted: bool,
}

impl<E> Bucket<E> {
    const fn new() -> Self {
        Bucket {
            // dd-alloc-allowlist: const empty Vec — no heap allocation.
            items: Vec::new(),
            sorted: false,
        }
    }

    /// Sorts (once) so the minimal `(time, seq)` sits at the tail.
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // Keys are unique (seq is unique), so unstable is exact.
            self.items
                .sort_unstable_by(|a, b| (b.0, b.1).cmp(&(a.0, a.1)));
            self.sorted = true;
        }
    }

    fn push(&mut self, at: SimTime, seq: u64, event: E) {
        if self.sorted {
            // Monotone-append fast path: descending order keeps the
            // minimum at the tail, so a new overall minimum appends in
            // O(1) — the common case when the drain pushes follow-ups
            // strictly earlier than the bucket's remaining events.
            match self.items.last() {
                Some((t, s, _)) if (at, seq) >= (*t, *s) => {
                    // Active (draining) bucket: keep descending order.
                    // Pushes at the current time carry the largest seq so
                    // far, i.e. they belong near the tail —
                    // `partition_point` finds the spot and the memmove is
                    // short.
                    let pos = self.items.partition_point(|(t, s, _)| (*t, *s) > (at, seq));
                    self.items.insert(pos, (at, seq, event));
                }
                _ => self.items.push((at, seq, event)),
            }
        } else {
            self.items.push((at, seq, event));
        }
    }
}

/// A deterministic min-queue of timed events (bucketed near-future lane
/// plus a binary-heap far lane; see the module docs).
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
    /// Near-future ring; slot `g & NEAR_MASK` holds granule `g` whenever
    /// `cursor <= g < cursor + NEAR_BUCKETS`.
    buckets: Vec<Bucket<E>>,
    /// Bit `s` set ⇔ slot `s` holds at least one event.
    occupied: [u64; OCC_WORDS],
    /// Events currently in the near lane.
    near_len: usize,
    /// Granule of the window's start; never past the next event (pushes
    /// behind the last popped time aside).
    cursor: u64,
    /// Events at or beyond `cursor + NEAR_BUCKETS` granules, plus pushes
    /// behind the cursor.
    far: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    pushed_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

const fn granule(at: SimTime) -> u64 {
    at.as_nanos() >> GRANULE_SHIFT
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        // dd-alloc-allowlist: construction; the ring's fixed bucket array.
        let mut buckets = Vec::with_capacity(NEAR_BUCKETS);
        buckets.resize_with(NEAR_BUCKETS, Bucket::new);
        EventQueue {
            buckets,
            occupied: [0; OCC_WORDS],
            near_len: 0,
            cursor: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
            pushed_total: 0,
        }
    }

    /// Creates an empty queue pre-sized for roughly `cap` concurrently
    /// pending events (spread over the near buckets and the far heap), so
    /// the steady state allocates nothing.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.reserve(cap);
        q
    }

    /// Grows the lanes for roughly `cap` concurrently pending events.
    /// Idempotent — an already-large (e.g. arena-recycled) queue is left
    /// alone, so a recycled queue behaves exactly like a fresh
    /// [`EventQueue::with_capacity`] one, capacity aside.
    pub fn reserve(&mut self, cap: usize) {
        // Most pending events cluster in a handful of active granules;
        // sizing every bucket for an even spread (with a floor) absorbs
        // that clustering without allocating cap × NEAR_BUCKETS slots.
        let per_bucket = (cap / NEAR_BUCKETS).clamp(4, 256);
        for b in &mut self.buckets {
            b.items.reserve(per_bucket);
        }
        self.far.reserve(cap / 4 + 16);
    }

    /// Appends to the bucket of granule `g`, which must lie in the window.
    fn near_push(&mut self, g: u64, at: SimTime, seq: u64, event: E) {
        let slot = (g & NEAR_MASK) as usize;
        self.buckets[slot].push(at, seq, event);
        self.occupied[slot >> 6] |= 1 << (slot & 63);
        self.near_len += 1;
    }

    /// Routes one stamped event to its lane.
    fn place(&mut self, at: SimTime, seq: u64, event: E) {
        let g = granule(at);
        // One compare: a granule behind the cursor wraps to a huge offset.
        if g.wrapping_sub(self.cursor) < NEAR_BUCKETS as u64 {
            self.near_push(g, at, seq, event);
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
    /// item, but with the sequence/counter bookkeeping hoisted out of the
    /// loop so the per-item work is one granule shift plus the bucket
    /// append (the monotone-append fast path of the near ring).
    pub fn push_batch<I: IntoIterator<Item = (SimTime, E)>>(&mut self, batch: I) {
        let mut seq = self.next_seq;
        for (at, event) in batch {
            self.place(at, seq, event);
            seq += 1;
        }
        self.pushed_total += seq - self.next_seq;
        self.next_seq = seq;
    }

    /// Moves far events whose granule has entered the window into their
    /// buckets. Stops at a behind-cursor far head: that event is the
    /// queue's minimum and pops next, and the cursor cannot advance
    /// before it does.
    fn refill(&mut self) {
        let end = self.cursor + NEAR_BUCKETS as u64;
        loop {
            let Some(top) = self.far.peek_mut() else {
                break;
            };
            let g = granule(top.at);
            if g >= end || g < self.cursor {
                break;
            }
            let Scheduled { at, seq, event } = PeekMut::pop(top);
            self.near_push(g, at, seq, event);
        }
    }

    /// Offset from the cursor of the first occupied slot, wrapping round
    /// the ring. Caller must guarantee `near_len > 0`.
    fn next_occupied(&self) -> u64 {
        debug_assert!(self.near_len > 0);
        let start = (self.cursor & NEAR_MASK) as usize;
        // On a busy host the cursor's own bucket is usually occupied, and
        // one length check beats the bitmap walk there.
        if !self.buckets[start].items.is_empty() {
            return 0;
        }
        let mut word = start >> 6;
        let mut bits = self.occupied[word] & (!0u64 << (start & 63));
        // The start word comes round again, unmasked, on the last step.
        for _ in 0..OCC_WORDS {
            if bits != 0 {
                break;
            }
            word = (word + 1) % OCC_WORDS;
            bits = self.occupied[word];
        }
        let slot = (word << 6) | bits.trailing_zeros() as usize;
        (slot.wrapping_sub(start) & NEAR_MASK as usize) as u64
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.near_len == 0 {
            // Jump: the ring is empty, so its window may start anywhere.
            self.cursor = granule(self.far.peek()?.at);
            self.refill();
        }
        let off = self.next_occupied();
        let slot = ((self.cursor + off) & NEAR_MASK) as usize;
        let b = &mut self.buckets[slot];
        b.ensure_sorted();
        let &(nat, nseq, _) = b.items.last().expect("occupied bucket");
        if matches!(self.far.peek(), Some(f) if (f.at, f.seq) < (nat, nseq)) {
            let s = self.far.pop().expect("far head exists");
            // Only a behind-cursor event beats the ring; it may have held
            // migrations back.
            self.refill();
            return Some((s.at, s.event));
        }
        let b = &mut self.buckets[slot];
        let (at, _, event) = b.items.pop().expect("occupied bucket");
        if b.items.is_empty() {
            b.sorted = false;
            self.occupied[slot >> 6] &= !(1 << (slot & 63));
        }
        self.near_len -= 1;
        if off > 0 {
            self.cursor += off;
            self.refill();
        }
        Some((at, event))
    }

    /// The firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let near = (self.near_len > 0).then(|| {
            let slot = ((self.cursor + self.next_occupied()) & NEAR_MASK) as usize;
            let b = &self.buckets[slot];
            let min = if b.sorted {
                b.items.last().map(|(t, _, _)| *t)
            } else {
                b.items.iter().map(|(t, _, _)| *t).min()
            };
            min.expect("occupied bucket")
        });
        match (near, self.far.peek().map(|s| s.at)) {
            (None, f) => f,
            (n, None) => n,
            (Some(n), Some(f)) => Some(n.min(f)),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.near_len == 0 && self.far.is_empty()
    }

    /// Total number of events ever pushed (for run statistics).
    pub fn pushed_total(&self) -> u64 {
        self.pushed_total
    }

    /// Total backing capacity in events across the near-lane buckets and
    /// the far heap. Used by capacity-stability probes: once a run reaches
    /// steady state the queue must stop allocating.
    pub fn capacity(&self) -> usize {
        self.buckets.iter().map(|b| b.items.capacity()).sum::<usize>() + self.far.capacity()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.items.clear();
            b.sorted = false;
        }
        self.occupied = [0; OCC_WORDS];
        self.near_len = 0;
        self.far.clear();
    }
}

impl<E> crate::arena::ArenaReset for EventQueue<E> {
    /// Full logical reset: cursor, sequence numbers, and push counter all
    /// restart at zero (sequence numbers are the deterministic tie-break —
    /// a recycled queue must replay exactly like a fresh one), keeping the
    /// bucket-ring and far-heap allocations.
    fn arena_reset(&mut self) {
        self.clear();
        self.cursor = 0;
        self.next_seq = 0;
        self.pushed_total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

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
        // far beyond the window) the far lane: seq order must still win.
        let mut q = EventQueue::new();
        let far = SimTime::from_nanos((NEAR_BUCKETS as u64 + 10) << GRANULE_SHIFT);
        q.push(far, "far-first"); // lands in the far heap
        q.push(SimTime::from_nanos(1), "near");
        q.push(far, "far-second"); // also far heap
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far-first");
        assert_eq!(q.pop().unwrap().1, "far-second");
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_behind_cursor_still_delivered() {
        // Pop something late, then push something earlier ("time travel"):
        // the queue is a plain priority queue, so the early event comes
        // right out even though the drain cursor moved past its granule.
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
        q.push(t + crate::SimDuration::from_nanos(500), 3);
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
        let far = SimTime::from_nanos((NEAR_BUCKETS as u64 + 3) << GRANULE_SHIFT);
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
    fn push_batch_into_active_sorted_bucket() {
        // Drain into a bucket (sorting it), then batch-push into the same
        // bucket: order must stay (time, seq) across the sorted insert and
        // the monotone-append fast path.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 0u32);
        q.push(SimTime::from_nanos(30), 1);
        assert_eq!(q.pop().unwrap().1, 0); // sorts the active bucket
        q.push_batch([
            (SimTime::from_nanos(30), 2),
            (SimTime::from_nanos(20), 3),
            (SimTime::from_nanos(15), 4), // new minimum: fast append
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
    /// after every step: the cursor never passes `now`, the far lane holds
    /// only events at or beyond the window's end, and every push inside
    /// `now`'s window (granules `granule(now)..granule(now) + NEAR_BUCKETS`)
    /// lands in the ring. Work events chain follow-ups a few µs to ~200 µs
    /// ahead and die out; 16 timers re-arm 0.3–40 ms out and start bursts
    /// of work, so the ring keeps draining into quiet gaps longer than the
    /// window.
    #[test]
    fn lanes_keep_pace_with_the_clock() {
        #[derive(Clone, Copy)]
        enum Ev {
            Work,
            Timer,
        }
        fn push_checked(q: &mut EventQueue<Ev>, now: SimTime, at: SimTime, ev: Ev) {
            let near = q.near_len;
            q.push(at, ev);
            let (gn, ga) = (granule(now), granule(at));
            if ga >= gn && ga - gn < NEAR_BUCKETS as u64 {
                assert_eq!(
                    q.near_len,
                    near + 1,
                    "push at {at:?} (now {now:?}) missed the ring"
                );
            }
        }
        let mut rng = crate::rng::SimRng::new(17);
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        let window = crate::SimDuration::from_nanos((NEAR_BUCKETS as u64) << GRANULE_SHIFT);
        let mut quiet_gaps = 0;
        for _ in 0..16 {
            let at = now + crate::SimDuration::from_micros(300 + rng.gen_range(40_000));
            push_checked(&mut q, now, at, Ev::Timer);
        }
        for _ in 0..200_000 {
            let (t, ev) = q.pop().expect("timers re-arm forever");
            assert!(t >= now, "script pushes nothing behind the clock");
            quiet_gaps += usize::from(t > now + window);
            now = t;
            assert!(
                q.cursor <= granule(now),
                "cursor {} ran past now {now:?}",
                q.cursor
            );
            if let Some(f) = q.far.peek() {
                assert!(
                    granule(f.at) >= q.cursor + NEAR_BUCKETS as u64,
                    "far head {:?} sits inside the window at cursor {}",
                    f.at,
                    q.cursor
                );
            }
            let (follow_ups, rearm) = match ev {
                Ev::Work => (u64::from(rng.gen_bool(0.8)), false),
                Ev::Timer => (1 + rng.gen_range(4), true),
            };
            for _ in 0..follow_ups {
                let at = now + crate::SimDuration::from_nanos(rng.gen_range(200_000));
                push_checked(&mut q, now, at, Ev::Work);
            }
            if rearm {
                let at = now + crate::SimDuration::from_micros(300 + rng.gen_range(40_000));
                push_checked(&mut q, now, at, Ev::Timer);
            }
        }
        assert!(
            quiet_gaps > 1_000,
            "only {quiet_gaps} quiet gaps: the script lost its shape"
        );
    }
}
