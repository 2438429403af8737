//! Outstanding request and bio tracking.
//!
//! Every stack turns a bio into one or more NVMe commands. [`RequestMap`]
//! owns the bookkeeping: it allocates request ids (embedded in the command's
//! [`dd_nvme::HostTag`]), remembers which bio each request belongs to, and
//! reports when the last request of a bio completes.
//!
//! # Memory model
//!
//! Both tables are generational slabs ([`simkit::Slab`]): steady-state
//! alloc/complete traffic recycles slots off a free list and never touches
//! the heap. Request ids are the raw encoding of the rq slab handle
//! ([`simkit::SlotId::to_raw`]), so `complete_rq` is an array index plus a
//! generation check rather than a hash lookup — and a stale or double
//! completion is caught by the generation mismatch, exactly like the old
//! `HashMap::remove` returning `None`. Bios are addressed by the opaque
//! [`BioHandle`] returned from [`RequestMap::insert_bio`], which removes the
//! `BioId`-keyed map (and its per-bio hashing) entirely.

use simkit::{Slab, SlotId};

use crate::bio::Bio;

/// Opaque handle to an outstanding bio inside a [`RequestMap`].
///
/// Returned by [`RequestMap::insert_bio`]; pass it to
/// [`RequestMap::alloc_rq_dir`] for each command carved out of the bio. The
/// handle is only valid until the bio's last request completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BioHandle(SlotId);

/// State of one in-flight bio.
#[derive(Clone, Debug)]
struct BioState {
    bio: Bio,
    /// Requests not yet completed.
    remaining: u32,
}

/// Per-request record.
#[derive(Clone, Copy, Debug)]
struct RqState {
    bio: SlotId,
    /// Whether the request is a read (scheduler token direction).
    read: bool,
}

/// Tracks outstanding bios and their per-command requests.
#[derive(Debug, Default)]
pub struct RequestMap {
    bios: Slab<BioState>,
    rqs: Slab<RqState>,
    /// Peak outstanding requests (observability).
    peak_outstanding: usize,
}

impl simkit::ArenaReset for RequestMap {
    /// Restarts both slabs (generations included — rq ids feed trace CSVs,
    /// so a recycled map must hand out the same id sequence as a fresh one)
    /// and zeroes the peak-outstanding statistic, which is reported per run.
    fn arena_reset(&mut self) {
        self.bios.clear();
        self.rqs.clear();
        self.peak_outstanding = 0;
    }
}

impl RequestMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes both slabs for `inflight` concurrently outstanding
    /// requests so the steady state never reallocates.
    pub fn reserve(&mut self, inflight: usize) {
        self.bios.reserve(inflight);
        self.rqs.reserve(inflight);
    }

    /// Registers a bio that will be served by `nr_requests` commands and
    /// returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `nr_requests == 0`.
    pub fn insert_bio(&mut self, bio: Bio, nr_requests: u32) -> BioHandle {
        assert!(nr_requests > 0, "bio must map to at least one request");
        BioHandle(self.bios.insert(BioState {
            bio,
            remaining: nr_requests,
        }))
    }

    /// Allocates a request id for one command of `bio`.
    pub fn alloc_rq(&mut self, bio: BioHandle) -> u64 {
        self.alloc_rq_dir(bio, true)
    }

    /// Combined backing capacity of the bio and request slabs, in slots.
    /// The capacity-stability probe asserts this stops growing once a run
    /// reaches steady state — the whole point of the generational slabs.
    pub fn capacity(&self) -> usize {
        self.bios.capacity() + self.rqs.capacity()
    }

    /// Allocates a request id recording its direction (for scheduler token
    /// accounting).
    pub fn alloc_rq_dir(&mut self, bio: BioHandle, read: bool) -> u64 {
        debug_assert!(self.bios.contains(bio.0), "rq for unknown bio");
        let id = self.rqs.insert(RqState { bio: bio.0, read });
        self.peak_outstanding = self.peak_outstanding.max(self.rqs.len());
        id.to_raw()
    }

    /// Completes a request. Returns the parent bio when this was its last
    /// outstanding request.
    ///
    /// # Panics
    ///
    /// Panics if the request id is unknown (double completion — the slab
    /// generation check catches reuse of a stale id).
    pub fn complete_rq(&mut self, rq_id: u64) -> Option<Bio> {
        let rq = self
            .rqs
            .remove(SlotId::from_raw(rq_id))
            .unwrap_or_else(|| panic!("completion for unknown rq {rq_id}"));
        let state = self.bios.get_mut(rq.bio).expect("rq outlived its bio");
        state.remaining -= 1;
        if state.remaining == 0 {
            let state = self.bios.remove(rq.bio).expect("bio vanished");
            Some(state.bio)
        } else {
            None
        }
    }

    /// Whether an outstanding request is a read.
    pub fn rq_is_read(&self, rq_id: u64) -> Option<bool> {
        self.rqs.get(SlotId::from_raw(rq_id)).map(|r| r.read)
    }

    /// Outstanding requests.
    pub fn outstanding_rqs(&self) -> usize {
        self.rqs.len()
    }

    /// Outstanding bios.
    pub fn outstanding_bios(&self) -> usize {
        self.bios.len()
    }

    /// Peak outstanding requests seen.
    pub fn peak_outstanding(&self) -> usize {
        self.peak_outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bio::{BioId, ReqFlags};
    use crate::tenant::Pid;
    use dd_nvme::{IoOpcode, NamespaceId};
    use simkit::SimTime;

    fn bio(id: u64) -> Bio {
        Bio {
            id: BioId(id),
            tenant: Pid(1),
            core: 0,
            nsid: NamespaceId(1),
            op: IoOpcode::Read,
            offset_blocks: 0,
            bytes: 8192,
            flags: ReqFlags::NONE,
            ioprio: crate::IoPriorityClass::BestEffort,
            issued_at: SimTime::ZERO,
        }
    }

    #[test]
    fn single_request_bio() {
        let mut m = RequestMap::new();
        let h = m.insert_bio(bio(1), 1);
        let rq = m.alloc_rq(h);
        let done = m.complete_rq(rq);
        assert_eq!(done.unwrap().id, BioId(1));
        assert_eq!(m.outstanding_bios(), 0);
        assert_eq!(m.outstanding_rqs(), 0);
    }

    #[test]
    fn multi_request_bio_completes_on_last() {
        let mut m = RequestMap::new();
        let h = m.insert_bio(bio(1), 3);
        let rqs: Vec<u64> = (0..3).map(|_| m.alloc_rq(h)).collect();
        assert!(m.complete_rq(rqs[0]).is_none());
        assert!(m.complete_rq(rqs[2]).is_none());
        assert_eq!(m.complete_rq(rqs[1]).unwrap().id, BioId(1));
    }

    #[test]
    fn independent_bios() {
        let mut m = RequestMap::new();
        let h1 = m.insert_bio(bio(1), 1);
        let h2 = m.insert_bio(bio(2), 1);
        let r1 = m.alloc_rq(h1);
        let r2 = m.alloc_rq(h2);
        assert_eq!(m.complete_rq(r2).unwrap().id, BioId(2));
        assert_eq!(m.outstanding_bios(), 1);
        assert_eq!(m.complete_rq(r1).unwrap().id, BioId(1));
    }

    #[test]
    fn peak_tracking() {
        let mut m = RequestMap::new();
        let h = m.insert_bio(bio(1), 2);
        let a = m.alloc_rq(h);
        let b = m.alloc_rq(h);
        assert_eq!(m.peak_outstanding(), 2);
        m.complete_rq(a);
        m.complete_rq(b);
        assert_eq!(m.peak_outstanding(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown rq")]
    fn double_completion_panics() {
        let mut m = RequestMap::new();
        let h = m.insert_bio(bio(1), 1);
        let rq = m.alloc_rq(h);
        m.complete_rq(rq);
        m.complete_rq(rq);
    }

    #[test]
    #[should_panic(expected = "unknown rq")]
    fn recycled_slot_rejects_stale_id() {
        // The slot index is reused after completion, but the generation
        // advances: a stale id must not alias the new occupant.
        let mut m = RequestMap::new();
        let h1 = m.insert_bio(bio(1), 1);
        let stale = m.alloc_rq(h1);
        m.complete_rq(stale);
        let h2 = m.insert_bio(bio(2), 1);
        let fresh = m.alloc_rq(h2);
        // Same slot index, different generation.
        assert_eq!(stale & 0xFFFF_FFFF, fresh & 0xFFFF_FFFF);
        assert_ne!(stale, fresh);
        m.complete_rq(stale);
    }

    #[test]
    fn rq_ids_recycle_without_unbounded_growth() {
        let mut m = RequestMap::new();
        for i in 0..1000 {
            let h = m.insert_bio(bio(i), 1);
            let rq = m.alloc_rq(h);
            assert!(m.complete_rq(rq).is_some());
        }
        // One slot each is enough for a serial workload.
        assert_eq!(m.peak_outstanding(), 1);
    }
}
