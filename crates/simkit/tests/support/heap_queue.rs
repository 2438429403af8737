//! The reference event queue: one binary heap on `(time, seq)`.
//!
//! Test support, not part of `simkit`'s API. It is the pre-bucketing
//! `EventQueue`, kept as the behavioural oracle of simkit's property tests
//! (order equivalence under random push/pop interleavings) and as the
//! baseline of the `event_queue/*_heap` micro benches. Both include this
//! file with `#[path]`. Its API is the subset of `EventQueue`'s they use.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use simkit::SimTime;

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
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
        // Reversed so the max-heap pops the minimal (time, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic min-queue of timed events on one binary heap; ties
/// fire in push order.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

#[allow(dead_code)] // Each including crate uses its own subset.
impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// The firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Total number of events ever pushed.
    pub fn pushed_total(&self) -> u64 {
        self.next_seq
    }
}
