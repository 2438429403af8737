//! Allocation-free steady-state containers for the per-request hot path.
//!
//! The kernel block layer never hashes to find a request: `struct request`
//! lives in a preallocated tag set and the tag *is* the index. This module
//! gives the simulated stacks the same memory model:
//!
//! * [`Slab<T>`] — a generational slab. `insert` hands out a [`SlotId`]
//!   (index + generation); freed slots are recycled through a free list, and
//!   the generation counter makes stale handles detectable (ABA
//!   protection): a handle to a recycled slot never aliases the new
//!   occupant. Steady-state insert/remove touches only the free list — no
//!   heap traffic once the slab reached its high-water mark.
//! * [`DenseMap<K, V>`] — a small map for identity-like keys ([`Key`]:
//!   `Pid`, queue ids, …). Values live densely in insertion order inside a
//!   `Vec`; an open-addressing index (linear probing, backward-shift
//!   deletion, fibonacci hashing) resolves keys without the SipHash cost and
//!   per-entry boxing of `std::collections::HashMap`. Lookups are one
//!   multiply plus a short probe over a flat array.
//!
//! Both structures are deterministic: iteration order depends only on the
//! operation sequence, never on a process-random hash seed — a property the
//! byte-identical figure replay relies on and `std`'s `HashMap` does not
//! give.
//!
//! Property tests (`tests/proptests.rs`) drive random alloc/free/realloc
//! sequences against `HashMap`-backed oracles; `bench/benches/micro.rs`
//! measures the churn cost against the `HashMap` baseline it replaced.

/// A handle to an occupied (or once-occupied) slab slot.
///
/// Packs a 32-bit slot index and a 32-bit generation. The raw `u64` form
/// ([`SlotId::to_raw`]) is what the stacks embed in an NVMe command's host
/// tag; [`SlotId::from_raw`] recovers the handle on the completion side.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SlotId {
    index: u32,
    generation: u32,
}

impl SlotId {
    /// The slot index (dense, reused across generations).
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The generation of the slot this handle refers to.
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// Packs the handle into a `u64` (`generation << 32 | index`).
    pub fn to_raw(self) -> u64 {
        ((self.generation as u64) << 32) | self.index as u64
    }

    /// Recovers a handle from its packed form. Any `u64` is accepted; a
    /// value that never came from [`SlotId::to_raw`] simply fails the
    /// liveness check on use.
    pub fn from_raw(raw: u64) -> Self {
        SlotId {
            index: raw as u32,
            generation: (raw >> 32) as u32,
        }
    }
}

impl std::fmt::Display for SlotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slot{}g{}", self.index, self.generation)
    }
}

#[derive(Debug)]
enum Slot<T> {
    /// Slot holds a live value of the recorded generation.
    Occupied { generation: u32, value: T },
    /// Slot is free; `generation` is what the *next* occupant will get.
    Vacant { generation: u32 },
}

/// A generational slab: O(1) insert/remove with free-list slot reuse and
/// stale-handle detection.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

// Manual impl: the derive would wrongly require `T: Default`.
impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty slab with room for `cap` values before any heap
    /// growth.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            len: 0,
        }
    }

    /// Grows the backing storage to hold at least `cap` values.
    pub fn reserve(&mut self, cap: usize) {
        if cap > self.slots.capacity() {
            self.slots.reserve(cap - self.slots.len());
            self.free.reserve(cap.saturating_sub(self.free.len()));
        }
    }

    /// Live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no value is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots ever allocated (the high-water mark of concurrent liveness).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Backing capacity in slots — values the slab can hold before its
    /// next heap allocation. Used by capacity-stability probes: a slab on
    /// the per-I/O path must stop growing once a run reaches steady state.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Inserts a value, reusing a freed slot when one exists.
    pub fn insert(&mut self, value: T) -> SlotId {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            let generation = match *slot {
                Slot::Vacant { generation } => generation,
                Slot::Occupied { .. } => unreachable!("free list entry occupied"),
            };
            *slot = Slot::Occupied { generation, value };
            return SlotId { index, generation };
        }
        let index = u32::try_from(self.slots.len()).expect("slab exceeds u32 slots");
        self.slots.push(Slot::Occupied {
            generation: 0,
            value,
        });
        SlotId {
            index,
            generation: 0,
        }
    }

    /// Removes and returns the value behind a handle, or `None` when the
    /// handle is stale (already freed, possibly recycled) or out of range.
    pub fn remove(&mut self, id: SlotId) -> Option<T> {
        let slot = self.slots.get_mut(id.index())?;
        match slot {
            Slot::Occupied { generation, .. } if *generation == id.generation => {
                // Bump the generation on free: any surviving handle to this
                // slot is now detectably stale.
                let next_gen = id.generation.wrapping_add(1);
                let old = std::mem::replace(
                    slot,
                    Slot::Vacant {
                        generation: next_gen,
                    },
                );
                self.free.push(id.index);
                self.len -= 1;
                match old {
                    Slot::Occupied { value, .. } => Some(value),
                    Slot::Vacant { .. } => unreachable!("checked occupied"),
                }
            }
            _ => None,
        }
    }

    /// The value behind a live handle.
    pub fn get(&self, id: SlotId) -> Option<&T> {
        match self.slots.get(id.index()) {
            Some(Slot::Occupied { generation, value }) if *generation == id.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Mutable access to the value behind a live handle.
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        match self.slots.get_mut(id.index()) {
            Some(Slot::Occupied { generation, value }) if *generation == id.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// True when the handle refers to a live value.
    pub fn contains(&self, id: SlotId) -> bool {
        self.get(id).is_some()
    }

    /// Drops every value and forgets every generation, keeping only the
    /// backing capacity: the next insert hands out `slot0g0`, exactly like
    /// a fresh slab. Generations leak into run output (they are the high
    /// half of the request ids the stacks embed in NVMe host tags), so a
    /// recycled slab **must** restart them — merely emptying the slots
    /// would break byte-identical replay.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.len = 0;
    }

    /// Iterates live `(handle, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &T)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Occupied { generation, value } => Some((
                SlotId {
                    index: i as u32,
                    generation: *generation,
                },
                value,
            )),
            Slot::Vacant { .. } => None,
        })
    }
}

/// An identity-like key a [`DenseMap`] can index: cheap to copy, compared by
/// value, hashed from a single `u64`.
pub trait Key: Copy + Eq {
    /// The key's numeric identity.
    fn as_u64(self) -> u64;
}

impl Key for u64 {
    fn as_u64(self) -> u64 {
        self
    }
}

impl Key for u32 {
    fn as_u64(self) -> u64 {
        self as u64
    }
}

impl Key for u16 {
    fn as_u64(self) -> u64 {
        self as u64
    }
}

/// Index slot sentinel: empty.
const EMPTY: u32 = u32::MAX;

/// Fibonacci hashing: spreads arbitrary `u64` identities over a
/// power-of-two table with one multiply.
#[inline]
fn spread(key: u64, mask: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

/// A dense-storage map over identity-like keys.
///
/// Values live contiguously in insertion order; a flat open-addressing
/// index (linear probing, backward-shift deletion) maps keys to their dense
/// position. Removal swap-removes from the dense storage, so value order
/// after a removal is *not* insertion order — callers that iterate treat
/// the map as a set, exactly like `HashMap` callers must.
#[derive(Debug)]
pub struct DenseMap<K: Key, V> {
    /// Open-addressing index: dense-entry position or `EMPTY`.
    index: Vec<u32>,
    /// Dense entries.
    entries: Vec<(K, V)>,
}

impl<K: Key, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V> DenseMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DenseMap {
            index: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Creates an empty map with room for `cap` entries before any heap
    /// growth.
    pub fn with_capacity(cap: usize) -> Self {
        let mut m = Self::new();
        m.reserve(cap);
        m
    }

    /// Grows the map to hold at least `cap` entries without reallocating.
    pub fn reserve(&mut self, cap: usize) {
        if cap > self.entries.capacity() {
            self.entries.reserve(cap - self.entries.len());
        }
        let needed = (cap.max(4) * 2).next_power_of_two();
        if needed > self.index.len() {
            self.rebuild_index(needed);
        }
    }

    fn rebuild_index(&mut self, size: usize) {
        debug_assert!(size.is_power_of_two());
        self.index.clear();
        self.index.resize(size, EMPTY);
        let mask = size - 1;
        for (pos, (k, _)) in self.entries.iter().enumerate() {
            let mut slot = spread(k.as_u64(), mask);
            while self.index[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = pos as u32;
        }
    }

    /// Entries stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries the map holds before its next allocation (dense storage or
    /// index, whichever fills first). It grows on every allocation, so
    /// capacity-stability probes can watch it.
    pub fn capacity(&self) -> usize {
        self.entries.capacity().min(self.index.len() / 2)
    }

    /// Index slot of `key` if present.
    fn find_slot(&self, key: K) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut slot = spread(key.as_u64(), mask);
        loop {
            let pos = self.index[slot];
            if pos == EMPTY {
                return None;
            }
            if self.entries[pos as usize].0 == key {
                return Some(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Inserts or replaces; returns the previous value for the key.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(slot) = self.find_slot(key) {
            let pos = self.index[slot] as usize;
            return Some(std::mem::replace(&mut self.entries[pos].1, value));
        }
        // Grow at 50 % load so probes stay short.
        if self.index.is_empty() || (self.entries.len() + 1) * 2 > self.index.len() {
            let size = ((self.entries.len() + 1).max(4) * 2).next_power_of_two();
            self.rebuild_index(size);
        }
        let mask = self.index.len() - 1;
        let mut slot = spread(key.as_u64(), mask);
        while self.index[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.index[slot] = self.entries.len() as u32;
        self.entries.push((key, value));
        None
    }

    /// The value for a key.
    pub fn get(&self, key: K) -> Option<&V> {
        self.find_slot(key)
            .map(|s| &self.entries[self.index[s] as usize].1)
    }

    /// Mutable access to the value for a key.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let slot = self.find_slot(key)?;
        let pos = self.index[slot] as usize;
        Some(&mut self.entries[pos].1)
    }

    /// True when the key is present.
    pub fn contains_key(&self, key: K) -> bool {
        self.find_slot(key).is_some()
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let slot = self.find_slot(key)?;
        let pos = self.index[slot] as usize;
        // Backward-shift deletion keeps probe chains intact without
        // tombstones, so long-running tenant churn (ionice storms) cannot
        // degrade the table.
        let mask = self.index.len() - 1;
        self.index[slot] = EMPTY;
        let mut hole = slot;
        let mut probe = (slot + 1) & mask;
        loop {
            let occupant = self.index[probe];
            if occupant == EMPTY {
                break;
            }
            let home = spread(self.entries[occupant as usize].0.as_u64(), mask);
            // Shift back iff the occupant's home position does not lie
            // strictly inside (hole, probe] — the standard linear-probe
            // deletion invariant.
            let in_gap = if hole <= probe {
                home > hole && home <= probe
            } else {
                home > hole || home <= probe
            };
            if !in_gap {
                self.index[hole] = occupant;
                self.index[probe] = EMPTY;
                hole = probe;
            }
            probe = (probe + 1) & mask;
        }
        // Swap-remove from dense storage; fix the moved entry's index slot.
        let (_, value) = self.entries.swap_remove(pos);
        if pos < self.entries.len() {
            let moved_key = self.entries[pos].0;
            let slot = self
                .find_slot_for_pos(moved_key, self.entries.len() as u32)
                .expect("moved entry must be indexed");
            self.index[slot] = pos as u32;
        }
        Some(value)
    }

    /// Index slot currently pointing at dense position `pos` for `key`.
    fn find_slot_for_pos(&self, key: K, pos: u32) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut slot = spread(key.as_u64(), mask);
        loop {
            let p = self.index[slot];
            if p == EMPTY {
                return None;
            }
            if p == pos {
                return Some(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Iterates `(key, value)` pairs in dense-storage order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Iterates values in dense-storage order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Iterates values mutably in dense-storage order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Drops every entry, keeping the dense storage and index allocations.
    /// Lookup/insert/removal results never depend on the index table's
    /// *size* (only probe lengths do), so a cleared map behaves exactly
    /// like a fresh one.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.fill(EMPTY);
    }
}

impl<T> crate::arena::ArenaReset for Slab<T> {
    fn arena_reset(&mut self) {
        self.clear();
    }
}

impl<K: Key + 'static, V> crate::arena::ArenaReset for DenseMap<K, V> {
    fn arena_reset(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_insert_get_remove() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None, "freed handle is dead");
        assert_eq!(s.remove(a), None, "double free detected");
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn slab_reuses_slots_with_new_generation() {
        let mut s = Slab::new();
        let a = s.insert(1u32);
        s.remove(a);
        let b = s.insert(2u32);
        assert_eq!(b.index(), a.index(), "slot recycled");
        assert_ne!(b.generation(), a.generation(), "generation bumped");
        assert_eq!(s.get(a), None, "stale handle must not alias");
        assert_eq!(s.get(b), Some(&2));
        assert_eq!(s.slot_count(), 1, "no second slot allocated");
    }

    #[test]
    fn slot_id_raw_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert(7u8);
        s.remove(a);
        let b = s.insert(9u8);
        let raw = b.to_raw();
        assert_eq!(SlotId::from_raw(raw), b);
        assert_ne!(a.to_raw(), raw, "stale and live handles differ as u64");
    }

    #[test]
    fn slab_iter_and_presize() {
        let mut s = Slab::with_capacity(8);
        let ids: Vec<_> = (0..4).map(|i| s.insert(i)).collect();
        s.remove(ids[1]);
        let live: Vec<i32> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, vec![0, 2, 3]);
    }

    #[test]
    fn dense_map_basics() {
        let mut m: DenseMap<u64, &str> = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(10, "x"), None);
        assert_eq!(m.insert(20, "y"), None);
        assert_eq!(m.insert(10, "z"), Some("x"), "replace returns old");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(10), Some(&"z"));
        assert!(m.contains_key(20));
        assert_eq!(m.remove(10), Some("z"));
        assert_eq!(m.remove(10), None);
        assert_eq!(m.get(20), Some(&"y"));
    }

    #[test]
    fn dense_map_survives_churn() {
        // Many insert/remove cycles with clustered keys: probes and
        // backward shifts must stay consistent.
        let mut m: DenseMap<u64, u64> = DenseMap::with_capacity(4);
        for round in 0..50u64 {
            for k in 0..16u64 {
                m.insert(k * 64, round + k); // Clustered identities.
            }
            for k in (0..16u64).step_by(2) {
                assert_eq!(m.remove(k * 64), Some(round + k));
            }
            for k in (1..16u64).step_by(2) {
                assert_eq!(m.get(k * 64), Some(&(round + k)));
            }
            for k in (1..16u64).step_by(2) {
                m.remove(k * 64);
            }
            assert!(m.is_empty());
        }
    }

    #[test]
    fn dense_map_capacity_moves_only_when_it_allocates() {
        let mut m: DenseMap<u64, u64> = DenseMap::new();
        assert_eq!(m.capacity(), 0);
        m.reserve(100);
        let cap = m.capacity();
        assert!(cap >= 100);
        for k in 0..cap as u64 {
            m.insert(k * 7, k);
        }
        assert_eq!(m.capacity(), cap, "filling to capacity allocates nothing");
        m.insert(u64::MAX, 0);
        assert!(m.capacity() > cap, "one more entry allocates and shows");
    }

    #[test]
    fn dense_map_values_iterate_all() {
        let mut m: DenseMap<u32, u32> = DenseMap::new();
        for k in 0..10 {
            m.insert(k, k * k);
        }
        m.remove(3);
        let mut vals: Vec<u32> = m.values().copied().collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![0, 1, 4, 16, 25, 36, 49, 64, 81]);
        for v in m.values_mut() {
            *v += 1;
        }
        assert_eq!(m.get(2), Some(&5));
    }
}
