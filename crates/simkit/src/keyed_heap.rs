//! Re-sortable keyed min-heap.
//!
//! Daredevil's `nqreg` keeps NQs in *merit heaps*: priority arrays sorted by
//! a floating-point merit, where the top element is handed out repeatedly and
//! the whole array is only recomputed and re-sorted when the MRU budget runs
//! out (Algorithm 2, `FetchTop`). [`KeyedMinHeap`] models exactly that usage:
//! cheap `top()` reads, wholesale [`KeyedMinHeap::resort_with`] updates.
//!
//! The collection is implemented as a sorted vector — heap populations in
//! this workspace are bounded by the number of NVMe queues (≤ 128), where a
//! sorted vector beats a pointer-chasing heap and gives deterministic
//! tie-breaking (by insertion order) for free.

/// A keyed min-heap over ids of type `I` with `f64` keys.
#[derive(Clone, Debug)]
pub struct KeyedMinHeap<I> {
    /// Entries sorted ascending by `(key, insert_seq)`.
    entries: Vec<Entry<I>>,
    next_seq: u64,
}

#[derive(Clone, Debug)]
struct Entry<I> {
    id: I,
    key: f64,
    seq: u64,
}

impl<I: Copy + PartialEq> Default for KeyedMinHeap<I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Copy + PartialEq> KeyedMinHeap<I> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        KeyedMinHeap {
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    /// Inserts an id with an initial key.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `id` is already present.
    pub fn insert(&mut self, id: I, key: f64) {
        debug_assert!(
            !self.contains(id),
            "duplicate id inserted into KeyedMinHeap"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { id, key, seq };
        let pos = self
            .entries
            .partition_point(|e| (e.key, e.seq) <= (key, seq));
        self.entries.insert(pos, entry);
    }

    /// The id with the minimum key, or `None` when empty.
    pub fn top(&self) -> Option<I> {
        self.entries.first().map(|e| e.id)
    }

    /// The minimum key itself.
    pub fn top_key(&self) -> Option<f64> {
        self.entries.first().map(|e| e.key)
    }

    /// True if `id` is in the heap.
    pub fn contains(&self, id: I) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// Removes `id`; returns whether it was present.
    pub fn remove(&mut self, id: I) -> bool {
        match self.entries.iter().position(|e| e.id == id) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Recomputes every key with `f` and re-sorts the heap.
    ///
    /// This is the `calc_each` + `re_sort` step of Algorithm 2. Ties keep
    /// insertion order, so recomputing with identical keys is a no-op for
    /// the iteration order.
    pub fn resort_with(&mut self, mut f: impl FnMut(I) -> f64) {
        for e in &mut self.entries {
            e.key = f(e.id);
        }
        self.entries
            .sort_by(|a, b| a.key.total_cmp(&b.key).then(a.seq.cmp(&b.seq)));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(id, key)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (I, f64)> + '_ {
        self.entries.iter().map(|e| (e.id, e.key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_is_min() {
        let mut h = KeyedMinHeap::new();
        h.insert(1u32, 5.0);
        h.insert(2, 3.0);
        h.insert(3, 9.0);
        assert_eq!(h.top(), Some(2));
        assert_eq!(h.top_key(), Some(3.0));
    }

    #[test]
    fn ties_keep_insertion_order() {
        let mut h = KeyedMinHeap::new();
        h.insert('b', 1.0);
        h.insert('a', 1.0);
        assert_eq!(h.top(), Some('b'));
    }

    #[test]
    fn resort_reorders() {
        let mut h = KeyedMinHeap::new();
        h.insert(0u8, 0.0);
        h.insert(1, 1.0);
        h.insert(2, 2.0);
        h.resort_with(|id| match id {
            2 => 0.5,
            0 => 7.0,
            _ => 3.0,
        });
        let order: Vec<u8> = h.iter().map(|(i, _)| i).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn remove_and_contains() {
        let mut h = KeyedMinHeap::new();
        h.insert(10u32, 1.0);
        h.insert(20, 2.0);
        assert!(h.contains(10));
        assert!(h.remove(10));
        assert!(!h.contains(10));
        assert!(!h.remove(10));
        assert_eq!(h.len(), 1);
        assert_eq!(h.top(), Some(20));
    }

    #[test]
    fn resort_replaces_keys() {
        let mut h = KeyedMinHeap::new();
        h.insert(0u8, 1.0);
        h.resort_with(|_| 42.0);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![(0, 42.0)]);
        assert!(!h.contains(9));
    }

    #[test]
    fn empty_behaviour() {
        let mut h: KeyedMinHeap<u8> = KeyedMinHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.top(), None);
        h.resort_with(|_| 0.0);
    }
}
