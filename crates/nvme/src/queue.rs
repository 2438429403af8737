//! Submission and completion queue models.
//!
//! A command keeps one slot of the device's command slab from the host's
//! push until the host ISR pops its completion. An NSQ and
//! an NCQ are both FIFOs threaded through that slab by each slot's `next`
//! link: the NSQ from push to fetch, the NCQ from completion to reap, and
//! no list while the command is in flash. A queue's depth is a limit, not
//! storage: a push into an NSQ holding `depth` commands fails with
//! [`QueueFull`] however much room the slab has, and the device's memory
//! is sized by its outstanding commands, not by its queue depths.
//!
//! An NSQ keeps two watermarks: entries *enqueued* by the host and entries
//! *visible* to the controller. Ringing the doorbell publishes everything
//! enqueued so far — this split is what lets the storage stacks implement
//! batched vs. immediate doorbells (vanilla plugging vs. `nqreg`'s
//! SLA-aware submission dispatch, §5.3).

use simkit::{Slab, SlotId};

use crate::command::{CqEntry, CqStatus, NvmeCommand};
use crate::spec::{CqId, SqId};

/// Error returned when pushing into a full submission queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueueFull;

/// One in-device command: what its SQ entry carried, where it came from,
/// how it completed, and its place in the FIFO that holds it.
pub(crate) struct CmdSlot {
    pub(crate) cmd: NvmeCommand,
    pub(crate) sq: SqId,
    /// Meaningful once the command has completed (set at `CmdDone`).
    pub(crate) status: CqStatus,
    next: Option<SlotId>,
}

impl CmdSlot {
    /// The completion entry the host ISR reaps for this command.
    pub(crate) fn cq_entry(&self) -> CqEntry {
        CqEntry {
            cid: self.cmd.cid,
            sq_id: self.sq,
            status: self.status,
            host: self.cmd.host,
            bytes: self.bytes(),
        }
    }

    /// Data bytes the command moved: its size on success, else 0.
    pub(crate) fn bytes(&self) -> u64 {
        if self.status == CqStatus::Success {
            self.cmd.bytes()
        } else {
            0
        }
    }
}

/// The device-wide slab every NSQ and NCQ links its commands through.
pub(crate) type CmdSlab = Slab<CmdSlot>;

/// An intrusive FIFO of command slots.
#[derive(Debug, Default)]
struct SlotList {
    head: Option<SlotId>,
    tail: Option<SlotId>,
    len: usize,
}

impl SlotList {
    /// Links `id` (a live slot with no successor) behind the tail.
    fn push_back(&mut self, slab: &mut CmdSlab, id: SlotId) {
        match self.tail {
            Some(t) => slab.get_mut(t).expect("list tail is live").next = Some(id),
            None => self.head = Some(id),
        }
        self.tail = Some(id);
        self.len += 1;
    }

    /// Unlinks the head slot; it stays live in the slab.
    fn pop_front(&mut self, slab: &mut CmdSlab) -> Option<SlotId> {
        let id = self.head?;
        self.head = slab.get_mut(id).expect("list head is live").next.take();
        if self.head.is_none() {
            self.tail = None;
        }
        self.len -= 1;
        Some(id)
    }
}

/// Host-visible statistics of one submission queue, consumed by Daredevil's
/// nproxy layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SqStats {
    /// Commands ever submitted (enqueued) to this SQ.
    pub submitted_total: u64,
    /// Commands currently enqueued and not yet fetched.
    pub occupancy: u16,
}

/// A submission queue (NSQ): a FIFO over the device's command slab.
#[derive(Debug)]
pub(crate) struct SubmissionQueue {
    id: SqId,
    cq: CqId,
    depth: u16,
    /// Entries the host has enqueued but the controller has not yet
    /// fetched. The front part (`visible`) is published by the doorbell.
    list: SlotList,
    /// Number of entries (from the front) visible to the controller.
    visible: usize,
    stats: SqStats,
}

impl SubmissionQueue {
    /// Creates an empty SQ bound to `cq`; it allocates nothing.
    pub(crate) fn new(id: SqId, cq: CqId, depth: u16) -> Self {
        SubmissionQueue {
            id,
            cq,
            depth,
            list: SlotList::default(),
            visible: 0,
            stats: SqStats::default(),
        }
    }

    /// The completion queue this SQ is bound to.
    pub(crate) fn cq(&self) -> CqId {
        self.cq
    }

    /// Enqueues a command into a slot of `slab` (not yet visible to the
    /// controller), or fails at `depth` entries.
    pub(crate) fn push(&mut self, slab: &mut CmdSlab, cmd: NvmeCommand) -> Result<(), QueueFull> {
        if self.list.len >= self.depth as usize {
            return Err(QueueFull);
        }
        let id = slab.insert(CmdSlot {
            cmd,
            sq: self.id,
            status: CqStatus::Success,
            next: None,
        });
        self.list.push_back(slab, id);
        self.stats.submitted_total += 1;
        self.stats.occupancy = self.list.len as u16;
        Ok(())
    }

    /// Publishes all enqueued entries to the controller (doorbell write).
    pub(crate) fn ring_doorbell(&mut self) {
        self.visible = self.list.len;
    }

    /// Number of entries the controller may fetch right now.
    pub(crate) fn visible_len(&self) -> usize {
        self.visible
    }

    /// Controller fetches the head visible entry, in order. The command
    /// keeps its slot; the caller holds it until it completes.
    pub(crate) fn fetch(&mut self, slab: &mut CmdSlab) -> Option<SlotId> {
        if self.visible == 0 {
            return None;
        }
        let id = self.list.pop_front(slab);
        debug_assert!(id.is_some());
        self.visible -= 1;
        self.stats.occupancy = self.list.len as u16;
        id
    }

    /// Host-visible statistics.
    pub(crate) fn stats(&self) -> SqStats {
        self.stats
    }
}

/// Host-visible statistics of one completion queue, consumed by Daredevil's
/// NCQ merit calculation (Algorithm 2): `in_flight_rqs`, `complete_rqs`,
/// `irqs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CqStats {
    /// Commands fetched from bound SQs and not yet completed.
    pub in_flight_rqs: u64,
    /// Completion entries ever posted.
    pub complete_rqs: u64,
    /// Interrupts ever raised for this CQ.
    pub irqs: u64,
}

/// A completion queue (NCQ): a FIFO over the device's command slab.
#[derive(Debug)]
pub(crate) struct CompletionQueue {
    depth: u16,
    /// Completed commands awaiting the host ISR.
    list: SlotList,
    stats: CqStats,
}

impl CompletionQueue {
    /// Creates an empty CQ; it allocates nothing.
    pub(crate) fn new(depth: u16) -> Self {
        CompletionQueue {
            depth,
            list: SlotList::default(),
            stats: CqStats::default(),
        }
    }

    /// Configured depth (used in merit ratios; the model never overflows a
    /// CQ because outstanding commands are bounded by SQ depths).
    pub(crate) fn depth(&self) -> u16 {
        self.depth
    }

    /// Controller posts the completed command in slot `id`.
    pub(crate) fn post(&mut self, slab: &mut CmdSlab, id: SlotId) {
        self.list.push_back(slab, id);
        self.stats.complete_rqs += 1;
        debug_assert!(self.stats.in_flight_rqs > 0);
        self.stats.in_flight_rqs = self.stats.in_flight_rqs.saturating_sub(1);
    }

    /// A command bound for this CQ was fetched (now in flight).
    pub(crate) fn note_fetched(&mut self) {
        self.stats.in_flight_rqs += 1;
    }

    /// An interrupt was raised for this CQ.
    pub(crate) fn note_irq(&mut self) {
        self.stats.irqs += 1;
    }

    /// Host ISR pops up to `max` entries into `buf`, which is cleared and
    /// refilled in place so its allocation is reused across ISRs. Each
    /// popped command's slot is freed. Returns the number of entries
    /// popped.
    pub(crate) fn pop_into(
        &mut self,
        slab: &mut CmdSlab,
        max: usize,
        buf: &mut Vec<CqEntry>,
    ) -> usize {
        buf.clear();
        while buf.len() < max {
            let Some(id) = self.list.pop_front(slab) else {
                break;
            };
            let slot = slab.remove(id).expect("posted commands are live");
            buf.push(slot.cq_entry());
        }
        buf.len()
    }

    /// Entries currently pending host processing.
    pub(crate) fn pending(&self) -> usize {
        self.list.len
    }

    /// Host-visible statistics.
    pub(crate) fn stats(&self) -> CqStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{HostTag, IoOpcode};
    use crate::spec::{CommandId, NamespaceId};

    fn cmd(cid: u64) -> NvmeCommand {
        NvmeCommand {
            cid: CommandId(cid),
            nsid: NamespaceId(1),
            opcode: IoOpcode::Read,
            slba: 0,
            nlb: 1,
            host: HostTag::default(),
        }
    }

    /// The cid of the command `sq` fetches next, if any.
    fn fetch_cid(sq: &mut SubmissionQueue, slab: &mut CmdSlab) -> Option<CommandId> {
        sq.fetch(slab).map(|id| slab.get(id).unwrap().cmd.cid)
    }

    #[test]
    fn doorbell_controls_visibility() {
        let mut slab = CmdSlab::new();
        let mut sq = SubmissionQueue::new(SqId(0), CqId(0), 4);
        sq.push(&mut slab, cmd(1)).unwrap();
        sq.push(&mut slab, cmd(2)).unwrap();
        assert_eq!(sq.visible_len(), 0);
        assert!(
            sq.fetch(&mut slab).is_none(),
            "unpublished entries must not fetch"
        );
        sq.ring_doorbell();
        assert_eq!(sq.visible_len(), 2);
        assert_eq!(fetch_cid(&mut sq, &mut slab), Some(CommandId(1)));
        assert_eq!(fetch_cid(&mut sq, &mut slab), Some(CommandId(2)));
        assert!(sq.fetch(&mut slab).is_none());
    }

    #[test]
    fn fifos_share_one_slab() {
        // Two NSQs interleave their pushes in one slab; each fetches in
        // its own push order, and fetched commands keep their slots.
        let mut slab = CmdSlab::new();
        let mut a = SubmissionQueue::new(SqId(0), CqId(0), 8);
        let mut b = SubmissionQueue::new(SqId(1), CqId(0), 8);
        for i in 0..5 {
            a.push(&mut slab, cmd(i)).unwrap();
            b.push(&mut slab, cmd(100 + i)).unwrap();
        }
        a.ring_doorbell();
        b.ring_doorbell();
        for i in 0..5 {
            assert_eq!(fetch_cid(&mut b, &mut slab), Some(CommandId(100 + i)));
            assert_eq!(fetch_cid(&mut a, &mut slab), Some(CommandId(i)));
        }
        assert_eq!(slab.len(), 10);
    }

    #[test]
    fn queue_full_at_depth() {
        let mut slab = CmdSlab::with_capacity(64);
        let mut sq = SubmissionQueue::new(SqId(0), CqId(0), 2);
        sq.push(&mut slab, cmd(1)).unwrap();
        sq.push(&mut slab, cmd(2)).unwrap();
        assert_eq!(sq.push(&mut slab, cmd(3)), Err(QueueFull));
        assert_eq!(slab.len(), 2, "a refused push takes no slot");
        sq.ring_doorbell();
        sq.fetch(&mut slab);
        assert!(sq.push(&mut slab, cmd(3)).is_ok());
    }

    #[test]
    fn partial_doorbell_publishes_prefix() {
        let mut slab = CmdSlab::new();
        let mut sq = SubmissionQueue::new(SqId(0), CqId(0), 8);
        sq.push(&mut slab, cmd(1)).unwrap();
        sq.ring_doorbell();
        sq.push(&mut slab, cmd(2)).unwrap();
        assert_eq!(sq.visible_len(), 1);
        assert_eq!(fetch_cid(&mut sq, &mut slab), Some(CommandId(1)));
        assert!(sq.fetch(&mut slab).is_none());
        sq.ring_doorbell();
        assert_eq!(fetch_cid(&mut sq, &mut slab), Some(CommandId(2)));
    }

    #[test]
    fn sq_stats_track() {
        let mut slab = CmdSlab::new();
        let mut sq = SubmissionQueue::new(SqId(0), CqId(0), 4);
        sq.push(&mut slab, cmd(1)).unwrap();
        sq.push(&mut slab, cmd(2)).unwrap();
        assert_eq!(sq.stats().submitted_total, 2);
        assert_eq!(sq.stats().occupancy, 2);
        sq.ring_doorbell();
        sq.fetch(&mut slab);
        assert_eq!(sq.stats().occupancy, 1);
        assert_eq!(sq.stats().submitted_total, 2);
    }

    #[test]
    fn cq_post_and_pop_frees_slots() {
        let mut slab = CmdSlab::new();
        let mut sq = SubmissionQueue::new(SqId(3), CqId(0), 8);
        let mut cq = CompletionQueue::new(16);
        for i in 1..=3 {
            sq.push(&mut slab, cmd(i)).unwrap();
        }
        sq.ring_doorbell();
        let ids: Vec<SlotId> = (0..3).map(|_| sq.fetch(&mut slab).unwrap()).collect();
        for _ in &ids {
            cq.note_fetched();
        }
        assert_eq!(cq.stats().in_flight_rqs, 3);
        slab.get_mut(ids[1]).unwrap().status = CqStatus::LbaOutOfRange;
        cq.post(&mut slab, ids[0]);
        cq.post(&mut slab, ids[1]);
        assert_eq!(cq.stats().in_flight_rqs, 1);
        assert_eq!(cq.stats().complete_rqs, 2);
        let mut popped = vec![slab.get(ids[2]).unwrap().cq_entry()];
        assert_eq!(cq.pop_into(&mut slab, 1, &mut popped), 1);
        assert_eq!(popped.len(), 1, "the buffer is cleared first");
        assert_eq!(popped[0].cid, CommandId(1));
        assert_eq!((popped[0].sq_id, popped[0].bytes), (SqId(3), 4096));
        assert_eq!(cq.pending(), 1);
        assert_eq!(cq.pop_into(&mut slab, usize::MAX, &mut popped), 1);
        assert_eq!(popped[0].cid, CommandId(2));
        assert_eq!(popped[0].status, CqStatus::LbaOutOfRange);
        assert_eq!(popped[0].bytes, 0, "a failed command moved no data");
        assert_eq!(cq.pending(), 0);
        assert_eq!(slab.len(), 1, "only the unposted command holds a slot");
    }

    #[test]
    fn cq_irq_counter() {
        let mut cq = CompletionQueue::new(16);
        cq.note_irq();
        cq.note_irq();
        assert_eq!(cq.stats().irqs, 2);
    }
}
