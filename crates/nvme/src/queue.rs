//! Submission and completion queue models.
//!
//! An NVMe submission queue is a bounded ring the host writes and the
//! controller reads. The model keeps two watermarks: entries *enqueued* by
//! the host and entries *visible* to the controller. Ringing the doorbell
//! publishes everything enqueued so far — this split is what lets the
//! storage stacks implement batched vs. immediate doorbells (vanilla
//! plugging vs. `nqreg`'s SLA-aware submission dispatch, §5.3).

use std::collections::VecDeque;

use crate::command::{CqEntry, NvmeCommand};
use crate::spec::{CqId, SqId};

/// Error returned when pushing into a full submission queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueueFull;

/// Host-visible statistics of one submission queue, consumed by Daredevil's
/// nproxy layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SqStats {
    /// Commands ever submitted (enqueued) to this SQ.
    pub submitted_total: u64,
    /// Commands currently enqueued and not yet fetched.
    pub occupancy: u16,
}

/// A submission queue (NSQ).
#[derive(Debug)]
pub struct SubmissionQueue {
    id: SqId,
    cq: CqId,
    depth: u16,
    /// Entries the host has enqueued but the controller has not yet fetched.
    /// The front part (`visible`) is published by the doorbell.
    entries: VecDeque<NvmeCommand>,
    /// Number of entries (from the front) visible to the controller.
    visible: usize,
    stats: SqStats,
}

impl SubmissionQueue {
    /// Creates an empty SQ bound to `cq`.
    pub fn new(id: SqId, cq: CqId, depth: u16) -> Self {
        SubmissionQueue {
            id,
            cq,
            depth,
            entries: VecDeque::with_capacity(depth as usize),
            visible: 0,
            stats: SqStats::default(),
        }
    }

    /// This queue's id.
    pub fn id(&self) -> SqId {
        self.id
    }

    /// The completion queue this SQ is bound to.
    pub fn cq(&self) -> CqId {
        self.cq
    }

    /// Configured depth.
    pub fn depth(&self) -> u16 {
        self.depth
    }

    /// Free entries remaining.
    pub fn free_slots(&self) -> u16 {
        self.depth - self.entries.len() as u16
    }

    /// True when at least one free entry exists.
    pub fn has_room(&self) -> bool {
        self.free_slots() > 0
    }

    /// Enqueues a command (not yet visible to the controller).
    pub fn push(&mut self, cmd: NvmeCommand) -> Result<(), QueueFull> {
        if self.entries.len() >= self.depth as usize {
            return Err(QueueFull);
        }
        self.entries.push_back(cmd);
        self.stats.submitted_total += 1;
        self.stats.occupancy = self.entries.len() as u16;
        Ok(())
    }

    /// Publishes all enqueued entries to the controller (doorbell write).
    /// Returns the number of newly visible entries.
    pub fn ring_doorbell(&mut self) -> usize {
        let newly = self.entries.len() - self.visible;
        self.visible = self.entries.len();
        newly
    }

    /// Number of entries the controller may fetch right now.
    pub fn visible_len(&self) -> usize {
        self.visible
    }

    /// Number of enqueued-but-unpublished entries.
    pub fn unpublished_len(&self) -> usize {
        self.entries.len() - self.visible
    }

    /// Controller fetches the head visible entry, in order.
    pub fn fetch(&mut self) -> Option<NvmeCommand> {
        if self.visible == 0 {
            return None;
        }
        let cmd = self.entries.pop_front();
        debug_assert!(cmd.is_some());
        self.visible -= 1;
        self.stats.occupancy = self.entries.len() as u16;
        cmd
    }

    /// Host-visible statistics.
    pub fn stats(&self) -> SqStats {
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

/// A completion queue (NCQ).
#[derive(Debug)]
pub struct CompletionQueue {
    id: CqId,
    depth: u16,
    entries: VecDeque<CqEntry>,
    stats: CqStats,
}

impl CompletionQueue {
    /// Creates an empty CQ.
    pub fn new(id: CqId, depth: u16) -> Self {
        CompletionQueue {
            id,
            depth,
            entries: VecDeque::new(),
            stats: CqStats::default(),
        }
    }

    /// This queue's id.
    pub fn id(&self) -> CqId {
        self.id
    }

    /// Configured depth (used in merit ratios; the model never overflows a
    /// CQ because outstanding commands are bounded by SQ depths).
    pub fn depth(&self) -> u16 {
        self.depth
    }

    /// Controller posts a completion entry.
    pub fn post(&mut self, entry: CqEntry) {
        self.entries.push_back(entry);
        self.stats.complete_rqs += 1;
        debug_assert!(self.stats.in_flight_rqs > 0);
        self.stats.in_flight_rqs = self.stats.in_flight_rqs.saturating_sub(1);
    }

    /// A command bound for this CQ was fetched (now in flight).
    pub fn note_fetched(&mut self) {
        self.stats.in_flight_rqs += 1;
    }

    /// An interrupt was raised for this CQ.
    pub fn note_irq(&mut self) {
        self.stats.irqs += 1;
    }

    /// Host ISR pops up to `max` entries into `buf`, which is cleared and
    /// refilled in place so its allocation is reused across ISRs. Returns
    /// the number of entries popped.
    pub fn pop_into(&mut self, max: usize, buf: &mut Vec<CqEntry>) -> usize {
        buf.clear();
        let n = max.min(self.entries.len());
        buf.extend(self.entries.drain(..n));
        n
    }

    /// Entries currently pending host processing.
    pub fn pending(&self) -> usize {
        self.entries.len()
    }

    /// Host-visible statistics.
    pub fn stats(&self) -> CqStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{CqStatus, HostTag, IoOpcode};
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

    #[test]
    fn doorbell_controls_visibility() {
        let mut sq = SubmissionQueue::new(SqId(0), CqId(0), 4);
        sq.push(cmd(1)).unwrap();
        sq.push(cmd(2)).unwrap();
        assert_eq!(sq.visible_len(), 0);
        assert!(sq.fetch().is_none(), "unpublished entries must not fetch");
        assert_eq!(sq.ring_doorbell(), 2);
        assert_eq!(sq.visible_len(), 2);
        assert_eq!(sq.fetch().unwrap().cid, CommandId(1));
        assert_eq!(sq.fetch().unwrap().cid, CommandId(2));
        assert!(sq.fetch().is_none());
    }

    #[test]
    fn fetch_is_fifo() {
        let mut sq = SubmissionQueue::new(SqId(0), CqId(0), 8);
        for i in 0..5 {
            sq.push(cmd(i)).unwrap();
        }
        sq.ring_doorbell();
        for i in 0..5 {
            assert_eq!(sq.fetch().unwrap().cid, CommandId(i));
        }
    }

    #[test]
    fn queue_full() {
        let mut sq = SubmissionQueue::new(SqId(0), CqId(0), 2);
        sq.push(cmd(1)).unwrap();
        sq.push(cmd(2)).unwrap();
        assert_eq!(sq.push(cmd(3)), Err(QueueFull));
        assert!(!sq.has_room());
        sq.ring_doorbell();
        sq.fetch();
        assert!(sq.has_room());
    }

    #[test]
    fn partial_doorbell_publishes_prefix() {
        let mut sq = SubmissionQueue::new(SqId(0), CqId(0), 8);
        sq.push(cmd(1)).unwrap();
        sq.ring_doorbell();
        sq.push(cmd(2)).unwrap();
        assert_eq!(sq.visible_len(), 1);
        assert_eq!(sq.unpublished_len(), 1);
        assert_eq!(sq.fetch().unwrap().cid, CommandId(1));
        assert!(sq.fetch().is_none());
        sq.ring_doorbell();
        assert_eq!(sq.fetch().unwrap().cid, CommandId(2));
    }

    #[test]
    fn sq_stats_track() {
        let mut sq = SubmissionQueue::new(SqId(0), CqId(0), 4);
        sq.push(cmd(1)).unwrap();
        sq.push(cmd(2)).unwrap();
        assert_eq!(sq.stats().submitted_total, 2);
        assert_eq!(sq.stats().occupancy, 2);
        sq.ring_doorbell();
        sq.fetch();
        assert_eq!(sq.stats().occupancy, 1);
        assert_eq!(sq.stats().submitted_total, 2);
    }

    fn cqe(cid: u64) -> CqEntry {
        CqEntry {
            cid: CommandId(cid),
            sq_id: SqId(0),
            status: CqStatus::Success,
            host: HostTag::default(),
            bytes: 4096,
        }
    }

    #[test]
    fn cq_post_and_pop() {
        let mut cq = CompletionQueue::new(CqId(0), 16);
        cq.note_fetched();
        cq.note_fetched();
        cq.note_fetched();
        assert_eq!(cq.stats().in_flight_rqs, 3);
        cq.post(cqe(1));
        cq.post(cqe(2));
        assert_eq!(cq.stats().in_flight_rqs, 1);
        assert_eq!(cq.stats().complete_rqs, 2);
        let mut popped = vec![cqe(9)];
        assert_eq!(cq.pop_into(1, &mut popped), 1);
        assert_eq!(popped.len(), 1, "the buffer is cleared first");
        assert_eq!(popped[0].cid, CommandId(1));
        assert_eq!(cq.pending(), 1);
        assert_eq!(cq.pop_into(usize::MAX, &mut popped), 1);
        assert_eq!(popped[0].cid, CommandId(2));
        assert_eq!(cq.pending(), 0);
    }

    #[test]
    fn cq_irq_counter() {
        let mut cq = CompletionQueue::new(CqId(0), 16);
        cq.note_irq();
        cq.note_irq();
        assert_eq!(cq.stats().irqs, 2);
    }
}
