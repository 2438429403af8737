//! The per-run memory arena.
//!
//! A simulation run grows a fixed family of structures to their steady-state
//! high-water mark — event-queue lanes, slab backing stores, dispatch
//! scratch, device-output buffers — and then throws all of it away when the
//! run ends, only for the next sweep cell to grow the very same shapes from
//! zero. [`RunArena`] breaks that cycle: at teardown a machine *parks* every
//! recyclable structure here (reset to its freshly-constructed logical
//! state, allocations intact), and the next machine built against the same
//! arena *takes* them back warm, so steady-state reuse across sweep cells
//! rebuilds zero structures.
//!
//! # The reset contract
//!
//! [`ArenaReset::arena_reset`] must restore the value to a state
//! **observationally identical to a freshly constructed one** while keeping
//! its backing allocations. "Observationally identical" is load-bearing:
//! generation counters, sequence numbers, cursors, and statistics all reset,
//! because they leak into run output (slab generations become request ids in
//! trace CSVs; event-queue sequence numbers break ties). A recycled machine
//! must replay **byte-identically** to a fresh one — property-tested in
//! `testbed/tests/arena_props.rs` across all stacks.
//!
//! Only *capacity* may differ after a reset. Every structure parked here
//! must therefore be capacity-oblivious: its observable behaviour (not just
//! its final state — its entire event-by-event behaviour) may not depend on
//! how much backing memory it happens to own. Structures whose behaviour
//! *does* depend on capacity — e.g. a bounded ring that wraps at capacity —
//! must carry an explicit logical bound (as [`crate::TraceSink`] does) and
//! may only rely on the allocation being *at least* the bound.
//!
//! # What may NOT live in the arena
//!
//! * Values whose construction depends on scenario parameters in ways a
//!   reset cannot undo (the [`crate::fault::FaultPlan`] schedule, namespace
//!   tables, flash geometry): rebuild these per run.
//! * Anything holding borrowed data — the arena requires `'static`.
//! * The `NvmeDevice` itself: it is pure per-run state configured from the
//!   scenario; recycling its queue vectors would save little and risk
//!   config-shaped state leaking across cells.

use std::any::{Any, TypeId};
use std::collections::HashMap;

/// Restores a value to its freshly-constructed logical state while keeping
/// its backing allocations (see the module docs for the exact contract).
pub trait ArenaReset {
    /// Resets logical state; keeps capacity.
    fn arena_reset(&mut self);
}

impl<T> ArenaReset for Vec<T> {
    fn arena_reset(&mut self) {
        self.clear();
    }
}

impl<T> ArenaReset for std::collections::VecDeque<T> {
    fn arena_reset(&mut self) {
        self.clear();
    }
}

impl<K: Eq + std::hash::Hash, V, S: std::hash::BuildHasher> ArenaReset for HashMap<K, V, S> {
    fn arena_reset(&mut self) {
        self.clear();
    }
}

/// Recycling counters of a [`RunArena`] (observability; the arena property
/// tests assert a second run hits every slot it parked).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// `take` calls served from a parked structure.
    pub hits: u64,
    /// `take` calls that fell back to `T::default()`.
    pub misses: u64,
    /// Structures currently parked.
    pub parked: usize,
}

/// A pool of parked per-run structures, keyed by `(type, tag)`.
///
/// One arena belongs to one worker: a sweep worker creates an arena, runs
/// its cells against it, and drops it at the end — nothing here is
/// thread-safe or needs to be. Within a worker the cycle is
/// `take → use for one run → put`, and because [`ArenaReset`] runs on
/// `put`, a parked structure is always ready to hand out.
///
/// The `tag` disambiguates same-typed structures (two `Vec<NvmeCommand>`
/// scratch buffers, say). Different types never collide regardless of tag.
#[derive(Default)]
pub struct RunArena {
    slots: HashMap<(TypeId, u32), Box<dyn Any>>,
    hits: u64,
    misses: u64,
}

impl RunArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the structure parked under `tag`, or a fresh `T::default()`
    /// when nothing (or a different type) is parked there.
    pub fn take<T: Any + Default>(&mut self, tag: u32) -> T {
        match self.slots.remove(&(TypeId::of::<T>(), tag)) {
            Some(b) => {
                self.hits += 1;
                *b.downcast::<T>().expect("slot keyed by TypeId")
            }
            None => {
                self.misses += 1;
                T::default()
            }
        }
    }

    /// Parks a structure under `tag` for the next run, resetting it to its
    /// freshly-constructed logical state first. Replaces any previous
    /// occupant of the slot.
    pub fn put<T: Any + ArenaReset>(&mut self, tag: u32, mut value: T) {
        value.arena_reset();
        self.slots.insert((TypeId::of::<T>(), tag), Box::new(value));
    }

    /// Recycling counters so far.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            hits: self.hits,
            misses: self.misses,
            parked: self.slots.len(),
        }
    }

    /// Drops every parked structure (the arena itself stays usable).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_miss_then_hit() {
        let mut a = RunArena::new();
        let mut v: Vec<u32> = a.take(0);
        assert!(v.is_empty());
        v.extend([1, 2, 3]);
        v.reserve(100);
        let cap = v.capacity();
        a.put(0, v);
        assert_eq!(a.stats().parked, 1);
        let v: Vec<u32> = a.take(0);
        assert!(v.is_empty(), "put resets logical state");
        assert_eq!(v.capacity(), cap, "take keeps capacity");
        assert_eq!(
            a.stats(),
            ArenaStats {
                hits: 1,
                misses: 1,
                parked: 0
            }
        );
    }

    #[test]
    fn tags_separate_same_type() {
        let mut a = RunArena::new();
        let v: Vec<u8> = Vec::with_capacity(64);
        a.put(7, v);
        let miss: Vec<u8> = a.take(3);
        assert_eq!(miss.capacity(), 0);
        let hit: Vec<u8> = a.take(7);
        assert!(hit.capacity() >= 64);
    }

    #[test]
    fn types_never_collide() {
        let mut a = RunArena::new();
        a.put(0, vec![1u64]);
        let other: Vec<String> = a.take(0);
        assert!(other.is_empty());
        let original: Vec<u64> = a.take(0);
        assert!(original.is_empty(), "reset on put");
        assert!(original.capacity() >= 1);
    }

    #[test]
    fn hashmap_and_deque_reset() {
        let mut a = RunArena::new();
        let mut m: HashMap<u32, u32> = HashMap::new();
        m.insert(1, 2);
        a.put(0, m);
        let m: HashMap<u32, u32> = a.take(0);
        assert!(m.is_empty());
        let mut d: std::collections::VecDeque<u8> = std::collections::VecDeque::new();
        d.push_back(9);
        a.put(0, d);
        let d: std::collections::VecDeque<u8> = a.take(0);
        assert!(d.is_empty());
    }
}
