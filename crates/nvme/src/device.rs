//! The NVMe device facade.
//!
//! [`NvmeDevice`] owns the queues, arbiter, flash backend, namespace table,
//! and IRQ vectors, and exposes the host-facing API a storage stack uses:
//!
//! * [`NvmeDevice::push_command`] — write an SQ entry (not yet visible);
//! * [`NvmeDevice::ring_doorbell`] — publish entries, possibly waking the
//!   controller's fetch engine;
//! * [`NvmeDevice::handle_event`] — advance internal state at an event the
//!   device previously scheduled;
//! * [`NvmeDevice::isr_pop_into`] / [`NvmeDevice::isr_done`] — the host
//!   interrupt service routine draining a CQ and acknowledging the vector.
//!
//! The device never calls into the host. Every externally visible effect is
//! returned through [`DeviceOutput`]: future device events for the host's
//! event loop, and interrupts to deliver to cores. This keeps the device a
//! pure state machine that the unit tests can single-step.
//!
//! A command keeps one slot of the device's command slab from
//! `push_command` until `isr_pop_into` reaps its completion; the NSQs and
//! NCQs are FIFOs over that slab (see [`crate::queue`]). The slab starts
//! empty and [`NvmeDevice::reserve`] sizes it from the run's in-flight
//! bound, so no memory is held in proportion to the queue depths.

use simkit::fault::{FaultGeometry, FaultPlan, FaultStats};
use simkit::{SimTime, SlotId, TraceSink};

use crate::arbiter::{Arbiter, SqPriorityClass};
use crate::command::{CqEntry, NvmeCommand};
use crate::config::NvmeConfig;
use crate::flash::FlashBackend;
use crate::irq::IrqVector;
use crate::namespace::NamespaceTable;
use crate::queue::{CmdSlab, CompletionQueue, CqStats, QueueFull, SqStats, SubmissionQueue};
use crate::spec::{CqId, SqId};

/// An internal device event, scheduled by the device into the host's event
/// loop and handed back via [`NvmeDevice::handle_event`].
///
/// Fetch and completion events name the command by the slot it has held in
/// the device's command slab since its push, not by value (see the size
/// guard below).
#[derive(Clone, Copy, Debug)]
pub enum NvmeEvent {
    /// The fetch engine finished fetching + decomposing a command.
    FetchDone {
        /// The fetched command (see [`NvmeDevice::event_command`]).
        slot: SlotId,
    },
    /// A command's flash (or flush) service completed.
    CmdDone {
        /// The completing command (see [`NvmeDevice::event_command`]).
        slot: SlotId,
    },
}

// A host queue entry is `16 + size_of::<E>()` bytes and is moved on every
// push, sort and pop: keep device events within the host's 16-byte budget.
const _: () = assert!(std::mem::size_of::<NvmeEvent>() <= 16);

/// An interrupt the host must deliver to a core.
#[derive(Clone, Copy, Debug)]
pub struct IrqRaise {
    /// The CQ whose vector fired.
    pub cq: CqId,
    /// Core the vector is bound to.
    pub core: u16,
    /// Delivery time (assertion + propagation delay).
    pub at: SimTime,
}

/// Collected externally visible effects of a device call.
#[derive(Debug, Default)]
pub struct DeviceOutput {
    /// Device events to schedule into the host event loop.
    pub events: Vec<(SimTime, NvmeEvent)>,
    /// Interrupts to deliver.
    pub irqs: Vec<IrqRaise>,
    /// Structured span-trace sink shared by the device and the host stack.
    ///
    /// Disabled by default; [`DeviceOutput::clear`] and
    /// [`DeviceOutput::is_empty`] deliberately ignore it — trace events
    /// accumulate across the whole run and are harvested once at the end,
    /// unlike `events`/`irqs` which are drained per interaction.
    pub trace: TraceSink,
}

impl DeviceOutput {
    /// Creates an empty output buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the buffer (callers reuse one allocation).
    ///
    /// Contract: hosts own exactly one `DeviceOutput`, drain it after every
    /// device interaction, and hand the *same* (now empty) value back on the
    /// next call. The device only ever appends, so honouring the contract
    /// means the backing vectors reach their high-water capacity once and
    /// are never reallocated again; [`DeviceOutput::capacity`] exposes that
    /// high-water mark so tests can assert it stays flat.
    pub fn clear(&mut self) {
        self.events.clear();
        self.irqs.clear();
    }

    /// True when no effects are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.irqs.is_empty()
    }

    /// Backing capacities `(events, irqs)` — observability for the
    /// one-allocation reuse contract (see [`DeviceOutput::clear`]); steady
    /// state must not grow these.
    pub fn capacity(&self) -> (usize, usize) {
        (self.events.capacity(), self.irqs.capacity())
    }
}

impl simkit::ArenaReset for DeviceOutput {
    /// Unlike [`DeviceOutput::clear`], a recycle between runs *does* reset
    /// the trace sink: the next run reconfigures it from its own scenario
    /// and must not inherit events (or the enabled flag) from the last one.
    fn arena_reset(&mut self) {
        self.events.clear();
        self.irqs.clear();
        self.trace.arena_reset();
    }
}

/// Device-wide counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceStats {
    /// Commands fetched by the controller.
    pub fetched: u64,
    /// Commands completed (CQE posted).
    pub completed: u64,
    /// Data bytes moved by completed commands.
    pub bytes: u64,
}

/// The emulated NVMe SSD.
pub struct NvmeDevice {
    pub(crate) config: NvmeConfig,
    pub(crate) sqs: Vec<SubmissionQueue>,
    pub(crate) cqs: Vec<CompletionQueue>,
    pub(crate) vectors: Vec<IrqVector>,
    pub(crate) arbiter: Arbiter,
    pub(crate) flash: FlashBackend,
    pub(crate) namespaces: NamespaceTable,
    /// Every in-device command, from `push_command` until the host ISR
    /// reaps its completion. NSQs and NCQs link their entries through it;
    /// the device events name commands by their slots.
    pub(crate) cmds: CmdSlab,
    /// The serial fetch engine is busy: one `FetchDone` is outstanding,
    /// and it restarts the engine.
    pub(crate) fetching: bool,
    /// Pages of fetched-but-unfinished commands (internal flow control).
    pub(crate) inflight_pages: u64,
    pub(crate) stats: DeviceStats,
    /// Fault-injection schedule (disabled unless installed; every hook is
    /// behind a single `enabled()` branch, mirroring the trace sink).
    pub(crate) faults: FaultPlan,
}

impl NvmeDevice {
    /// Builds a device from a validated configuration.
    ///
    /// IRQ vectors are bound round-robin over `host_cores`, matching the
    /// kernel's default spread of NVMe completion vectors.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NvmeConfig::validate`] or
    /// `host_cores == 0`.
    pub fn new(config: NvmeConfig, host_cores: u16) -> Self {
        config.validate().expect("invalid NVMe config");
        assert!(host_cores > 0, "need at least one host core");
        let sqs = (0..config.nr_sqs)
            .map(|i| SubmissionQueue::new(SqId(i), CqId(config.cq_of_sq(i)), config.sq_depth))
            .collect();
        // CQ depth: large enough for all bound SQs' outstanding commands.
        let fan_in = config.nr_sqs.div_ceil(config.nr_cqs);
        let cq_depth = config.sq_depth.saturating_mul(fan_in.max(1));
        let cqs = (0..config.nr_cqs)
            .map(|_| CompletionQueue::new(cq_depth))
            .collect();
        let vectors = (0..config.nr_cqs)
            .map(|i| IrqVector::new(CqId(i), i % host_cores))
            .collect();
        NvmeDevice {
            arbiter: Arbiter::new(config.nr_sqs),
            flash: FlashBackend::new(config.flash),
            namespaces: NamespaceTable::new(&config.namespace_blocks),
            cmds: CmdSlab::new(),
            sqs,
            cqs,
            vectors,
            fetching: false,
            inflight_pages: 0,
            stats: DeviceStats::default(),
            faults: FaultPlan::disabled(),
            config,
        }
    }

    /// Sizes the command slab for `cmds` commands in the device at once
    /// (queued, in flash, or awaiting reap), so a run whose in-flight
    /// count stays within that bound never grows it.
    pub fn reserve(&mut self, cmds: usize) {
        self.cmds.reserve(cmds);
    }

    /// Commands the command slab holds before its next heap allocation
    /// (capacity-stability probes).
    pub fn cmd_capacity(&self) -> usize {
        self.cmds.capacity()
    }

    /// Commands in the device: pushed and not yet reaped by the host ISR.
    /// Zero once every NSQ has drained and every CQ has been reaped.
    pub fn held_cmds(&self) -> usize {
        self.cmds.len()
    }

    /// The fault geometry of this device (targets a fault plan can hit).
    pub fn fault_geometry(&self) -> FaultGeometry {
        FaultGeometry {
            dies: self.config.flash.total_dies() as u32,
            sqs: self.config.nr_sqs,
            cqs: self.config.nr_cqs,
        }
    }

    /// Installs a fault-injection plan (typically generated against
    /// [`NvmeDevice::fault_geometry`]). Replaces any previous plan.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Counters of faults that took effect so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// The device configuration.
    pub fn config(&self) -> &NvmeConfig {
        &self.config
    }

    /// Number of submission queues.
    pub fn nr_sqs(&self) -> u16 {
        self.config.nr_sqs
    }

    /// Number of completion queues.
    pub fn nr_cqs(&self) -> u16 {
        self.config.nr_cqs
    }

    /// The CQ bound to an SQ.
    pub fn cq_of_sq(&self, sq: SqId) -> CqId {
        self.sqs[sq.index()].cq()
    }

    /// The core a CQ's vector is bound to.
    pub fn irq_core(&self, cq: CqId) -> u16 {
        self.vectors[cq.index()].core
    }

    /// Sets an SQ's WRR priority class (the admin `Create I/O SQ` QPRIO
    /// field). Every SQ starts in the medium class; while all share one
    /// class, arbitration is plain round-robin.
    pub fn set_sq_priority(&mut self, sq: SqId, class: SqPriorityClass) {
        self.arbiter.set_class(sq, class);
    }

    /// Host-visible SQ statistics (used by Daredevil's nproxies).
    pub fn sq_stats(&self, sq: SqId) -> SqStats {
        self.sqs[sq.index()].stats()
    }

    /// Host-visible CQ statistics (inputs to the NCQ merit, Algorithm 2).
    pub fn cq_stats(&self, cq: CqId) -> CqStats {
        self.cqs[cq.index()].stats()
    }

    /// CQ depth (denominator of the incoming-intensity ratio).
    pub fn cq_depth(&self, cq: CqId) -> u16 {
        self.cqs[cq.index()].depth()
    }

    /// Pending (posted, unpopped) CQEs on a CQ.
    pub fn cq_pending(&self, cq: CqId) -> usize {
        self.cqs[cq.index()].pending()
    }

    /// True when the fetch engine is sitting idle with page-budget room
    /// while published work waits in some NSQ. On a healthy device this
    /// state is resolved synchronously at every doorbell/fetch/budget
    /// transition, so it can only persist when the arbiter is skipping
    /// stalled queues (fault injection) — the stall watchdog's redrive
    /// trigger.
    pub fn fetch_starved(&self) -> bool {
        // The arbiter's ready mask is maintained at exactly the
        // doorbell/fetch transitions that change `visible_len`, so the
        // mask-empty check replaces the old all-SQ scan.
        debug_assert_eq!(
            self.arbiter.any_ready(),
            self.sqs.iter().any(|q| q.visible_len() > 0),
            "ready mask out of sync with SQ visibility"
        );
        !self.fetching
            && self.inflight_pages < self.config.max_inflight_pages as u64
            && self.arbiter.any_ready()
    }

    /// Cumulative CQ entries the host has reaped from one CQ (posts minus
    /// still-pending). Monotone; the ISR watchdog compares snapshots to
    /// detect a CQ whose drain has stopped dead while its vector is stuck.
    pub fn cq_reaped(&self, cq: CqId) -> u64 {
        let q = &self.cqs[cq.index()];
        q.stats().complete_rqs - q.pending() as u64
    }

    /// True while a CQ's vector is asserted (an ISR is owed or in flight).
    /// The ISR watchdog uses this to spot vectors whose raise was lost.
    pub fn irq_raised(&self, cq: CqId) -> bool {
        self.vectors[cq.index()].is_raised()
    }

    /// Total interrupts raised across all vectors.
    pub fn irq_raised_total(&self) -> u64 {
        self.vectors.iter().map(|v| v.raised_total()).sum()
    }

    /// Published-but-unfetched commands on an SQ (the stall watchdog's
    /// notion of backlog the controller should be draining).
    pub fn sq_backlog(&self, sq: SqId) -> usize {
        self.sqs[sq.index()].visible_len()
    }

    /// Device-wide counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// The flash backend (read-only, for congestion introspection in tests
    /// and benches).
    pub fn flash(&self) -> &FlashBackend {
        &self.flash
    }

    /// Writes an SQ entry into a slot of the command slab. The entry stays
    /// invisible to the controller until [`NvmeDevice::ring_doorbell`].
    /// Fails with [`QueueFull`] when the NSQ already holds `sq_depth`
    /// entries, however much room the slab has.
    pub fn push_command(&mut self, sq: SqId, cmd: NvmeCommand) -> Result<(), QueueFull> {
        self.sqs[sq.index()].push(&mut self.cmds, cmd)
    }

    /// Publishes all entries of `sq` and wakes the fetch engine if idle.
    pub fn ring_doorbell(&mut self, sq: SqId, now: SimTime, out: &mut DeviceOutput) {
        self.sqs[sq.index()].ring_doorbell();
        if self.sqs[sq.index()].visible_len() > 0 {
            self.arbiter.note_ready(sq);
        }
        self.maybe_start_fetch(now, out);
    }

    /// Advances the device at one of its own scheduled events.
    pub fn handle_event(&mut self, ev: NvmeEvent, now: SimTime, out: &mut DeviceOutput) {
        match ev {
            NvmeEvent::FetchDone { slot } => self.on_fetch_done(slot, now, out),
            NvmeEvent::CmdDone { slot } => self.on_cmd_done(slot, now, out),
        }
    }

    /// The command (and its SQ) a fetch or completion event names; `None`
    /// once the host ISR has reaped the command's completion.
    pub fn event_command(&self, ev: &NvmeEvent) -> Option<(NvmeCommand, SqId)> {
        match *ev {
            NvmeEvent::FetchDone { slot } | NvmeEvent::CmdDone { slot } => {
                self.cmds.get(slot).map(|s| (s.cmd, s.sq))
            }
        }
    }

    /// Commands fetched but not yet completed (zero once the device's
    /// event stream has drained).
    pub fn in_flight_cmds(&self) -> usize {
        (self.stats.fetched - self.stats.completed) as usize
    }

    /// Host ISR pops up to `max` completion entries from a CQ into `buf`
    /// (cleared first), so the caller's allocation is reused across ISRs —
    /// the stacks' hot completion path never touches the heap in steady
    /// state. Each entry is built as its command leaves the CQ, and the
    /// command's slot is freed. Returns the number of entries popped.
    pub fn isr_pop_into(&mut self, cq: CqId, max: usize, buf: &mut Vec<CqEntry>) -> usize {
        self.cqs[cq.index()].pop_into(&mut self.cmds, max, buf)
    }

    /// Host ISR finished for `cq`. Re-raises the vector if CQEs arrived
    /// during the ISR.
    pub fn isr_done(&mut self, cq: CqId, now: SimTime, out: &mut DeviceOutput) {
        self.vectors[cq.index()].complete(false);
        if self.cqs[cq.index()].pending() > 0 {
            self.raise(cq, now, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::HostTag;
    use crate::spec::{CommandId, NamespaceId};
    use crate::IoOpcode;
    use simkit::EventQueue;

    fn small_device() -> NvmeDevice {
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 2;
        cfg.nr_cqs = 1;
        cfg.sq_depth = 64;
        NvmeDevice::new(cfg, 1)
    }

    fn cmd(cid: u64) -> NvmeCommand {
        NvmeCommand {
            cid: CommandId(cid),
            nsid: NamespaceId(1),
            opcode: IoOpcode::Read,
            slba: cid * 8,
            nlb: 8,
            host: HostTag {
                rq_id: cid,
                submit_core: 0,
                ..HostTag::default()
            },
        }
    }

    /// The "callers reuse one allocation" contract of [`DeviceOutput::clear`]
    /// and [`NvmeDevice::isr_pop_into`]: after a warm-up round, churning the
    /// device with the *same* output buffer and the *same* ISR scratch must
    /// never grow either allocation again.
    #[test]
    fn output_and_isr_buffers_recycle_without_growth() {
        let mut dev = small_device();
        let mut out = DeviceOutput::new();
        let mut isr_buf: Vec<CqEntry> = Vec::new();
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        let mut warm_out = (0, 0);
        let mut warm_isr = 0;
        for round in 0..8u64 {
            for i in 0..16u64 {
                dev.push_command(SqId(0), cmd(round * 16 + i)).unwrap();
            }
            dev.ring_doorbell(SqId(0), now, &mut out);
            // Drive the device to quiescence, draining effects after every
            // step exactly the way the machine does.
            loop {
                for (at, ev) in out.events.drain(..) {
                    q.push(at, ev);
                }
                out.irqs.clear(); // delivery modelled elsewhere
                let Some((at, ev)) = q.pop() else { break };
                now = at;
                dev.handle_event(ev, now, &mut out);
            }
            // ISR drains the CQ through the recycled scratch buffer.
            while dev.isr_pop_into(CqId(0), 4, &mut isr_buf) > 0 {}
            dev.isr_done(CqId(0), now, &mut out);
            assert!(out.is_empty(), "quiescent device left effects behind");
            if round == 0 {
                warm_out = out.capacity();
                warm_isr = isr_buf.capacity();
            } else {
                assert_eq!(out.capacity(), warm_out, "DeviceOutput regrew");
                assert_eq!(isr_buf.capacity(), warm_isr, "ISR scratch regrew");
            }
        }
        assert_eq!(dev.stats().completed, 128);
    }

    /// A WS-M-shaped device (128 NSQs × 1 024 entries) holds no command
    /// storage until the run reserves it. After `reserve(n)`, n commands
    /// in the device at once cycle through submit → fetch → complete →
    /// reap, round after round, without moving its capacity.
    #[test]
    fn reserved_slab_cycles_commands_without_growth() {
        const N: usize = 600;
        let mut dev = NvmeDevice::new(NvmeConfig::ws_m(), 8);
        let (nr_sqs, nr_cqs) = (dev.nr_sqs(), dev.nr_cqs());
        assert_eq!(dev.cmd_capacity(), 0, "a new device holds no commands");
        dev.reserve(N);
        let cap = dev.cmd_capacity();
        assert!(cap >= N);
        let mut out = DeviceOutput::new();
        let mut isr_buf: Vec<CqEntry> = Vec::new();
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        for round in 0..3u64 {
            for i in 0..N as u64 {
                let sq = SqId((i % nr_sqs as u64) as u16);
                dev.push_command(sq, cmd(round * N as u64 + i)).unwrap();
            }
            for sq in 0..nr_sqs {
                dev.ring_doorbell(SqId(sq), now, &mut out);
            }
            loop {
                for (at, ev) in out.events.drain(..) {
                    q.push(at, ev);
                }
                out.irqs.clear();
                let Some((at, ev)) = q.pop() else { break };
                now = at;
                dev.handle_event(ev, now, &mut out);
            }
            assert_eq!(dev.in_flight_cmds(), 0);
            assert_eq!(
                dev.held_cmds(),
                N,
                "completions hold their slots until reaped"
            );
            let mut reaped = 0;
            for cq in 0..nr_cqs {
                reaped += dev.isr_pop_into(CqId(cq), usize::MAX, &mut isr_buf);
                dev.isr_done(CqId(cq), now, &mut out);
            }
            assert_eq!(reaped, N);
            assert_eq!(dev.held_cmds(), 0, "reaping frees every slot");
            assert_eq!(dev.cmd_capacity(), cap, "round {round} grew the slab");
        }
        assert_eq!(dev.stats().completed, 3 * N as u64);
    }
}
