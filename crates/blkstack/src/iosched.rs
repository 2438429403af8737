//! Block-layer I/O schedulers (elevator layer).
//!
//! The kernel interposes an I/O scheduler between request creation and
//! hardware dispatch; requests stage in the scheduler and are released into
//! the NSQ under a per-hardware-queue in-flight budget. The paper's related
//! work (§9) observes that these schedulers are built on blk-mq's static
//! bindings and are *SLA-blind* — they order by direction (read/write) and
//! deadline, not by tenant class — so they inherit blk-mq's multi-tenancy
//! limitations. The `ext_baselines` figure demonstrates exactly that.
//!
//! Two elevators are provided, and [`Elevator`] is the one type the stack
//! holds per hardware queue. The paper's baseline runs without one
//! ([`SchedKind::None`]: direct dispatch).
//!
//! * [`MqDeadlineSched`] — reads are always preferred; writes dispatch
//!   once they have been starved too long, and an expired write deadline
//!   hastens that (a simplified mq-deadline: FIFO within direction, no
//!   sector sorting, and no read deadline, since nothing outranks a read);
//! * [`KyberSched`] — per-direction in-flight caps that throttle bulk
//!   writes to protect read latency (a simplified kyber with static
//!   domain depths).

use std::collections::VecDeque;

use dd_nvme::{IoOpcode, NvmeCommand, SqId};
use simkit::{SimDuration, SimTime};

/// A request staged in a scheduler.
#[derive(Clone, Copy, Debug)]
pub struct StagedRequest {
    /// The command to dispatch.
    pub cmd: NvmeCommand,
    /// Target NSQ.
    pub sq: SqId,
    /// Whether the request is a read (scheduling direction).
    pub is_read: bool,
    /// Staging time (deadline base).
    pub staged_at: SimTime,
}

impl StagedRequest {
    /// Builds a staged request from a command.
    pub fn new(cmd: NvmeCommand, sq: SqId, staged_at: SimTime) -> Self {
        StagedRequest {
            is_read: cmd.opcode == IoOpcode::Read,
            cmd,
            sq,
            staged_at,
        }
    }
}

/// Simplified mq-deadline: reads first, bounded write starvation.
#[derive(Debug)]
pub struct MqDeadlineSched {
    reads: VecDeque<StagedRequest>,
    writes: VecDeque<StagedRequest>,
    /// Age after which a waiting write makes each read dispatch count
    /// double toward `writes_starved`.
    write_expire: SimDuration,
    /// Reads dispatched while writes waited; bounded by `writes_starved`.
    starved: u32,
    /// Maximum consecutive read batches before a write is forced.
    writes_starved: u32,
}

impl Default for MqDeadlineSched {
    fn default() -> Self {
        // The kernel's write_expire (5 s) is set at HDD scale; NVMe
        // deployments tune it down. We use an SSD-appropriate value.
        MqDeadlineSched {
            reads: VecDeque::new(),
            writes: VecDeque::new(),
            write_expire: SimDuration::from_millis(5),
            starved: 0,
            writes_starved: 2,
        }
    }
}

impl MqDeadlineSched {
    /// Creates the scheduler with default expiries.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages a request.
    pub fn insert(&mut self, rq: StagedRequest) {
        if rq.is_read {
            self.reads.push_back(rq);
        } else {
            self.writes.push_back(rq);
        }
    }

    /// Releases the next request: a read unless writes have starved.
    pub fn dispatch(&mut self, now: SimTime) -> Option<StagedRequest> {
        // Reads batch ahead of writes; writes are guaranteed service after
        // `writes_starved` read dispatches (starvation bound). Expiry makes
        // a waiting write count as starving immediately, but — as in the
        // kernel — it does not let a write backlog monopolise the queue:
        // read batches still run between forced writes.
        let write_waiting = !self.writes.is_empty();
        let write_expired = self
            .writes
            .front()
            .map(|w| now.saturating_since(w.staged_at) >= self.write_expire)
            .unwrap_or(false);
        let must_serve_write = write_waiting && self.starved >= self.writes_starved;
        if must_serve_write {
            self.starved = 0;
            return self.writes.pop_front();
        }
        if let Some(r) = self.reads.pop_front() {
            if write_waiting {
                // An expired write accrues starvation faster.
                self.starved += if write_expired { 2 } else { 1 };
            }
            return Some(r);
        }
        self.starved = 0;
        self.writes.pop_front()
    }

    /// Pre-sizes both direction FIFOs for `inflight` staged requests.
    pub fn reserve(&mut self, inflight: usize) {
        self.reads.reserve(inflight);
        self.writes.reserve(inflight);
    }

    /// Staged requests both FIFOs hold before they grow.
    fn capacity(&self) -> usize {
        self.reads.capacity() + self.writes.capacity()
    }
}

/// Simplified kyber: per-direction in-flight caps.
#[derive(Debug)]
pub struct KyberSched {
    reads: VecDeque<StagedRequest>,
    writes: VecDeque<StagedRequest>,
    /// In-flight reads / cap.
    read_inflight: u32,
    read_depth: u32,
    /// In-flight writes / cap (small: bulk writes must not monopolise).
    write_inflight: u32,
    write_depth: u32,
}

impl Default for KyberSched {
    fn default() -> Self {
        KyberSched {
            reads: VecDeque::new(),
            writes: VecDeque::new(),
            read_inflight: 0,
            read_depth: 128,
            write_inflight: 0,
            write_depth: 16,
        }
    }
}

impl KyberSched {
    /// Creates the scheduler with default domain depths.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages a request.
    pub fn insert(&mut self, rq: StagedRequest) {
        if rq.is_read {
            self.reads.push_back(rq);
        } else {
            self.writes.push_back(rq);
        }
    }

    /// Releases the next request whose direction has an in-flight token,
    /// reads first.
    pub fn dispatch(&mut self) -> Option<StagedRequest> {
        if self.read_inflight < self.read_depth {
            if let Some(r) = self.reads.pop_front() {
                self.read_inflight += 1;
                return Some(r);
            }
        }
        if self.write_inflight < self.write_depth {
            if let Some(w) = self.writes.pop_front() {
                self.write_inflight += 1;
                return Some(w);
            }
        }
        None
    }

    /// A dispatched request completed: its direction's token returns.
    pub fn complete(&mut self, was_read: bool) {
        if was_read {
            self.read_inflight = self.read_inflight.saturating_sub(1);
        } else {
            self.write_inflight = self.write_inflight.saturating_sub(1);
        }
    }

    /// Pre-sizes both direction FIFOs for `inflight` staged requests.
    pub fn reserve(&mut self, inflight: usize) {
        self.reads.reserve(inflight);
        self.writes.reserve(inflight);
    }

    /// Staged requests both FIFOs hold before they grow.
    fn capacity(&self) -> usize {
        self.reads.capacity() + self.writes.capacity()
    }
}

/// The elevator of one hardware queue: requests stage here and are
/// released into the NSQ under the stack's in-flight budget.
#[derive(Debug)]
pub enum Elevator {
    /// Simplified mq-deadline.
    MqDeadline(MqDeadlineSched),
    /// Simplified kyber.
    Kyber(KyberSched),
}

impl Elevator {
    /// Stages a request.
    pub fn insert(&mut self, rq: StagedRequest) {
        match self {
            Elevator::MqDeadline(s) => s.insert(rq),
            Elevator::Kyber(s) => s.insert(rq),
        }
    }

    /// Releases the next request to dispatch, or `None` when the elevator
    /// holds nothing eligible right now.
    pub fn dispatch(&mut self, now: SimTime) -> Option<StagedRequest> {
        match self {
            Elevator::MqDeadline(s) => s.dispatch(now),
            Elevator::Kyber(s) => s.dispatch(),
        }
    }

    /// A previously dispatched request completed (kyber's token release;
    /// mq-deadline keeps no in-flight state).
    pub fn complete(&mut self, was_read: bool) {
        if let Elevator::Kyber(s) = self {
            s.complete(was_read);
        }
    }

    /// Pre-sizes the FIFO ring buffers for `inflight` staged requests so
    /// the steady state never reallocates (the rings recycle their storage
    /// across insert/dispatch churn once grown).
    pub fn reserve(&mut self, inflight: usize) {
        match self {
            Elevator::MqDeadline(s) => s.reserve(inflight),
            Elevator::Kyber(s) => s.reserve(inflight),
        }
    }

    /// Staged requests the FIFOs hold before they grow (the capacity
    /// probe's share of the elevator).
    pub fn capacity(&self) -> usize {
        match self {
            Elevator::MqDeadline(s) => s.capacity(),
            Elevator::Kyber(s) => s.capacity(),
        }
    }
}

/// Scheduler selection (carried by `BlkMqConfig`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedKind {
    /// Direct dispatch, no staging (the evaluation default).
    #[default]
    None,
    /// Simplified mq-deadline.
    MqDeadline,
    /// Simplified kyber.
    Kyber,
}

impl SchedKind {
    /// Instantiates the elevator for one hardware queue, or `None` for
    /// direct dispatch.
    pub fn build(self) -> Option<Elevator> {
        match self {
            SchedKind::None => None,
            SchedKind::MqDeadline => Some(Elevator::MqDeadline(MqDeadlineSched::new())),
            SchedKind::Kyber => Some(Elevator::Kyber(KyberSched::new())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_nvme::command::HostTag;
    use dd_nvme::spec::{CommandId, NamespaceId};

    /// A kyber elevator with explicit domain depths.
    fn kyber(read_depth: u32, write_depth: u32) -> KyberSched {
        KyberSched {
            read_depth,
            write_depth,
            ..KyberSched::default()
        }
    }

    fn rq(id: u64, op: IoOpcode, at_us: u64) -> StagedRequest {
        StagedRequest::new(
            NvmeCommand {
                cid: CommandId(id),
                nsid: NamespaceId(1),
                opcode: op,
                slba: 0,
                nlb: 1,
                host: HostTag::default(),
            },
            SqId(0),
            SimTime::from_micros(at_us),
        )
    }

    #[test]
    fn deadline_prefers_reads() {
        let mut s = MqDeadlineSched::new();
        s.insert(rq(1, IoOpcode::Write, 0));
        s.insert(rq(2, IoOpcode::Read, 0));
        s.insert(rq(3, IoOpcode::Read, 0));
        let now = SimTime::from_micros(1);
        assert!(s.dispatch(now).unwrap().is_read);
        assert!(s.dispatch(now).unwrap().is_read);
    }

    #[test]
    fn deadline_bounds_write_starvation() {
        let mut s = MqDeadlineSched::new();
        s.insert(rq(1, IoOpcode::Write, 0));
        for i in 0..8 {
            s.insert(rq(10 + i, IoOpcode::Read, 0));
        }
        let now = SimTime::from_micros(1);
        let mut write_pos = None;
        for pos in 0..9 {
            let d = s.dispatch(now).unwrap();
            if !d.is_read {
                write_pos = Some(pos);
                break;
            }
        }
        assert_eq!(
            write_pos,
            Some(2),
            "the write must dispatch after writes_starved=2 reads"
        );
    }

    #[test]
    fn deadline_never_starves_reads_under_write_flood() {
        // Expired writes must not monopolise dispatch: reads keep flowing
        // between forced writes.
        let mut s = MqDeadlineSched::new();
        for i in 0..64 {
            s.insert(rq(i, IoOpcode::Write, 0));
        }
        for i in 100..108 {
            s.insert(rq(i, IoOpcode::Read, 0));
        }
        let late = SimTime::from_millis(10); // Every write is expired.
        let mut reads_served = 0;
        for _ in 0..24 {
            if s.dispatch(late).unwrap().is_read {
                reads_served += 1;
            }
        }
        assert!(
            reads_served >= 8,
            "all staged reads must dispatch within a few batches, got {reads_served}"
        );
    }

    #[test]
    fn kyber_caps_writes() {
        let mut s = kyber(128, 2);
        for i in 0..5 {
            s.insert(rq(i, IoOpcode::Write, 0));
        }
        assert!(s.dispatch().is_some());
        assert!(s.dispatch().is_some());
        assert!(s.dispatch().is_none(), "write domain exhausted at depth 2");
        // A completion releases a token.
        s.complete(false);
        assert!(s.dispatch().is_some());
        assert_eq!(s.writes.len(), 2);
    }

    #[test]
    fn kyber_reads_bypass_write_backlog() {
        let mut s = kyber(128, 1);
        s.insert(rq(1, IoOpcode::Write, 0));
        s.insert(rq(2, IoOpcode::Write, 0));
        s.insert(rq(3, IoOpcode::Read, 0));
        // The read goes first (read domain preferred), then one write; the
        // second write is blocked by the depth-1 write domain.
        assert!(s.dispatch().unwrap().is_read);
        assert!(!s.dispatch().unwrap().is_read);
        assert!(s.dispatch().is_none());
        // A fresh read still bypasses the blocked write backlog.
        s.insert(rq(4, IoOpcode::Read, 0));
        assert!(s.dispatch().unwrap().is_read);
    }

    #[test]
    fn reserve_presizes_without_changing_order() {
        for kind in [SchedKind::MqDeadline, SchedKind::Kyber] {
            let mut s = kind.build().unwrap();
            s.reserve(64);
            for i in 0..64 {
                s.insert(rq(i, IoOpcode::Read, 0));
            }
            for i in 0..64 {
                assert_eq!(s.dispatch(SimTime::ZERO).unwrap().cmd.cid, CommandId(i));
            }
            assert!(s.dispatch(SimTime::ZERO).is_none(), "{kind:?}");
        }
        let mut s = MqDeadlineSched::new();
        s.reserve(64);
        let caps = (s.reads.capacity(), s.writes.capacity());
        assert!(
            caps.0 >= 64 && caps.1 >= 64,
            "reserve must pre-size both rings"
        );
        for i in 0..32 {
            // Ring-buffer churn: steady-state insert/dispatch never grows.
            s.insert(rq(2 * i, IoOpcode::Write, 0));
            s.insert(rq(2 * i + 1, IoOpcode::Read, 0));
            s.dispatch(SimTime::ZERO);
            s.dispatch(SimTime::ZERO);
        }
        assert_eq!(
            (s.reads.capacity(), s.writes.capacity()),
            caps,
            "churn must reuse the rings"
        );
    }

    #[test]
    fn kind_builds() {
        assert!(SchedKind::None.build().is_none());
        assert!(matches!(
            SchedKind::MqDeadline.build(),
            Some(Elevator::MqDeadline(_))
        ));
        assert!(matches!(SchedKind::Kyber.build(), Some(Elevator::Kyber(_))));
    }
}
