//! The `StorageStack` interface and shared stack machinery.
//!
//! A storage stack sits between tenants (above) and the NVMe device
//! (below). The testbed drives it through [`StorageStack`]:
//!
//! * [`StorageStack::submit`] runs on the issuing tenant's core at the start
//!   of a submission work item and returns the CPU cost of the submission
//!   path (syscall + block layer + NSQ locking);
//! * [`StorageStack::on_irq`] runs on the interrupted core and returns the
//!   ISR cost; completed bios are appended to [`StackEnv::completions`].
//!
//! Device effects (doorbells waking the fetch engine, interrupts) flow
//! through [`StackEnv::dev_out`], which the testbed drains after every call.
//!
//! The module also hosts the building blocks of the shared dispatch core
//! ([`crate::dispatch::Dispatch`]): the completion processing helper
//! ([`process_cqes`]) implementing the batched vs. per-request completion
//! paths, [`ParkedCommands`] for queue-full requeueing (blk-mq's
//! `BLK_STS_RESOURCE` behaviour), and [`RedriveGuard`] for stalled NSQs.

use std::collections::VecDeque;

use dd_cpu::HostCosts;
use dd_nvme::command::HostTag;
use dd_nvme::{CqEntry, CqId, DeviceOutput, NvmeCommand, NvmeDevice, SqId};
use simkit::{Phase, SimDuration, SimRng, SimTime, TraceEvent, TraceSink};

use crate::bio::{Bio, BioCompletion};
use crate::capabilities::Capabilities;
use crate::ioprio::IoPriorityClass;
use crate::reqmap::RequestMap;
use crate::tenant::{Pid, TaskStruct};

/// Mutable environment handed to every stack call.
pub struct StackEnv<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// The NVMe device.
    pub device: &'a mut NvmeDevice,
    /// Device effects produced during this call (testbed drains them).
    pub dev_out: &'a mut DeviceOutput,
    /// Bio completions produced during this call (testbed delivers them).
    pub completions: &'a mut Vec<BioCompletion>,
    /// Tenant core migrations requested by the stack (blk-switch
    /// application steering); the testbed applies them.
    pub migrations: &'a mut Vec<(Pid, u16)>,
    /// Deterministic randomness.
    pub rng: &'a mut SimRng,
    /// Host cost constants (identical for every stack).
    pub costs: &'a HostCosts,
}

/// Aggregate statistics a stack exposes for the overhead analyses (Fig. 13).
#[derive(Clone, Copy, Debug, Default)]
pub struct StackStats {
    /// NVMe commands pushed to the device.
    pub submitted_rqs: u64,
    /// Completion entries processed.
    pub completed_rqs: u64,
    /// Completions delivered on the submitting core.
    pub local_completions: u64,
    /// Completions delivered on a different core (cross-core overhead).
    pub remote_completions: u64,
    /// Total spin time on NSQ tail locks (submission-side overhead).
    pub lock_wait_total: SimDuration,
    /// Lock acquisitions that had to spin.
    pub lock_contended: u64,
    /// Commands parked because the target NSQ was full.
    pub requeues: u64,
    /// Doorbell writes.
    pub doorbells: u64,
    /// Cross-core scheduling actions (blk-switch steering; 0 elsewhere).
    pub steering_actions: u64,
    /// Doorbell redrives issued by the stall watchdog (fault recovery;
    /// 0 on runs without faults).
    pub watchdog_redrives: u64,
    /// Per-request routing-path counters (Daredevil's troute; 0 elsewhere).
    /// A virtio stack reports its host stack's.
    pub route: RouteStats,
}

/// Routing-path counters of a per-request router (Daredevil's troute,
/// Algorithm 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RouteStats {
    /// Requests routed via the default NSQ.
    pub default_routes: u64,
    /// Outlier requests routed via a tagged tenant's outlier NSQ.
    pub outlier_routes: u64,
    /// Outlier requests that paid a per-request nqreg query.
    pub per_request_queries: u64,
    /// Tag transitions (off→on and on→off).
    pub tag_changes: u64,
    /// Default-NSQ re-assignments due to ionice updates.
    pub reassignments: u64,
    /// Requests routed via an explicit policy query (Daredevil's
    /// `RouteDecision::Query`) — always 0 under the default policy, which
    /// only uses the Algorithm 1 paths above.
    pub policy_queries: u64,
}

/// A kernel storage stack under test.
pub trait StorageStack {
    /// Human-readable name used in tables (`"vanilla"`, `"blk-switch"`,
    /// `"daredevil"`).
    fn name(&self) -> &'static str;

    /// The stack's Table 1 row.
    fn capabilities(&self) -> Capabilities;

    /// A tenant appeared (fork/exec). Stacks allocate per-tenant state here.
    fn register_tenant(&mut self, task: &TaskStruct, env: &mut StackEnv<'_>);

    /// A tenant exited.
    fn deregister_tenant(&mut self, _pid: Pid, _env: &mut StackEnv<'_>) {}

    /// The tenant's ionice class changed at runtime (Fig. 14 storms).
    fn update_ionice(&mut self, _pid: Pid, _class: IoPriorityClass, _env: &mut StackEnv<'_>) {}

    /// The testbed moved a tenant to another core (Fig. 13 interleaving).
    fn migrate_tenant(&mut self, _pid: Pid, _core: u16, _env: &mut StackEnv<'_>) {}

    /// Pre-sizes internal tables (request maps, dispatch scratch) for
    /// roughly `hint` concurrently outstanding requests, so the steady
    /// state never reallocates. Called once by the testbed before traffic
    /// starts; the default does nothing.
    fn reserve(&mut self, _hint: usize) {}

    /// Submits a batch of bios issued by one tenant in one syscall, on the
    /// tenant's current core. Returns the CPU cost of the submission path.
    fn submit(&mut self, bios: &[Bio], env: &mut StackEnv<'_>) -> SimDuration;

    /// Hardware interrupt for `cq` delivered on `core`: run the ISR.
    /// Returns the ISR's CPU cost.
    fn on_irq(&mut self, cq: CqId, core: u16, env: &mut StackEnv<'_>) -> SimDuration;

    /// Periodic housekeeping (e.g. blk-switch steering). Returning
    /// `Some(delay)` asks the testbed to tick again after `delay`.
    fn on_tick(&mut self, _env: &mut StackEnv<'_>) -> Option<SimDuration> {
        None
    }

    /// Fault-recovery watchdog tick (only called on runs with fault
    /// injection enabled). Stacks flush parked commands and redrive NSQs
    /// whose published backlog stopped being fetched ([`RedriveGuard`]);
    /// the default does nothing, so well-behaved-device runs are
    /// untouched.
    fn on_watchdog(&mut self, _env: &mut StackEnv<'_>) {}

    /// Parks the stack's growable buffers (request map, dispatch scratch)
    /// into `arena` at run teardown so the next run on this worker can
    /// [`adopt`](StorageStack::adopt_buffers) the warm allocations. Buffers
    /// are reset on the way in ([`simkit::ArenaReset`]); every stack parks
    /// the same set through [`crate::dispatch::Dispatch::park`], so buffers
    /// parked by one stack flavour are adoptable by any other. The default
    /// parks nothing.
    fn park_buffers(&mut self, _arena: &mut simkit::RunArena) {}

    /// Adopts warm buffers parked by a previous run (the inverse of
    /// [`StorageStack::park_buffers`]), swapping them in place of the empty
    /// shells the constructor built. Called by the testbed right after
    /// construction, before [`StorageStack::reserve`]. Behaviour must be
    /// identical to a fresh stack — only capacity may differ. The default
    /// adopts nothing.
    fn adopt_buffers(&mut self, _arena: &mut simkit::RunArena) {}

    /// Statistics snapshot.
    fn stats(&self) -> StackStats;

    /// Backing capacity, in slots, of the stack's per-I/O tables (request
    /// maps and the like). The testbed's capacity-stability probe snapshots
    /// this at end-of-warmup and at run end and asserts they are equal at
    /// 10k tenants — the proof that the slab/DenseMap hot path really
    /// stopped allocating. Stacks without such tables report 0.
    fn io_capacity(&self) -> usize {
        0
    }
}

/// Records `Submit` + `Routed` span events for one request at its routing
/// decision (troute / switch steering / home-queue pick). `Submit` carries no
/// queue; `Routed` names the chosen NSQ and the outlier classification.
///
/// One `trace.enabled()` branch when tracing is off.
#[inline]
pub fn trace_routed(trace: &mut TraceSink, now: SimTime, host: HostTag, sq: SqId, outlier: bool) {
    if trace.enabled() {
        trace.record(host.trace_event(Phase::Submit, now, None));
        trace.record(host.trace_event(Phase::Routed { outlier }, now, Some(sq.0)));
    }
}

/// Records `NsqEnqueue` + `DoorbellRing` span events when a command lands in
/// its NSQ and the covering doorbell write is issued. Called at direct push
/// time, at elevator dispatch, and at queue-full unpark — whichever finally
/// got the command into the device.
#[inline]
pub fn trace_enqueued(trace: &mut TraceSink, now: SimTime, host: HostTag, sq: SqId) {
    if trace.enabled() {
        trace.record(host.trace_event(Phase::NsqEnqueue, now, Some(sq.0)));
        trace.record(host.trace_event(Phase::DoorbellRing, now, Some(sq.0)));
    }
}

/// When a submission path rings the NSQ doorbell.
///
/// The submission-side half of the I/O service dispatching vocabulary
/// (completion side: [`CompletionMode`]). The vanilla stacks in this
/// workspace — blk-mq, blk-switch, overprov — pass [`Batched`] (one MMIO
/// write per enqueued batch, the kernel default) to every
/// [`Dispatch::push`](crate::dispatch::Dispatch::push) and reap every NCQ
/// with [`CompletionMode::Batched`]: they separate traffic, if at all, by
/// routing, not by the service routines. The Daredevil stack makes both
/// choices per batch/NCQ in `daredevil::policy::Policy::{doorbell, reap}`.
///
/// [`Batched`]: DoorbellMode::Batched
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DoorbellMode {
    /// One doorbell write per enqueued batch — amortised MMIO, but a
    /// latency-sensitive command waits for the whole batch to stage.
    Batched,
    /// One doorbell write per command — the device sees each request the
    /// instant it is enqueued, at one MMIO write of CPU cost each.
    Immediate,
}

/// How an ISR turns CQEs into bio completions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompletionMode {
    /// Drain the CQ and signal every request at the end of the batch — the
    /// kernel's default. A small request batched behind bulky ones is
    /// signalled only after their heavy per-page processing (completion-side
    /// HOL).
    Batched,
    /// Signal each request as soon as its entry is processed — the fast
    /// path Daredevil dispatches on high-priority NCQs.
    PerRequest,
}

/// Processes a drained batch of CQEs: charges ISR cost, resolves requests
/// to bios, applies the remote-completion penalty, and emits completions
/// with mode-accurate delivery timestamps.
///
/// With tracing on, records `IrqFire` (ISR picked the entry up, at the ISR's
/// start) and `Complete` (request signalled — incremental under
/// [`CompletionMode::PerRequest`], at batch end under
/// [`CompletionMode::Batched`]) for every entry, on the interrupted core.
///
/// Returns the total ISR CPU cost.
// The argument list mirrors the ISR's real inputs; bundling them into a
// one-shot struct would only rename the problem.
#[allow(clippy::too_many_arguments)]
pub fn process_cqes(
    entries: &[CqEntry],
    mode: CompletionMode,
    core: u16,
    now: SimTime,
    costs: &HostCosts,
    reqmap: &mut RequestMap,
    stats: &mut StackStats,
    completions: &mut Vec<BioCompletion>,
    trace: &mut TraceSink,
) -> SimDuration {
    let mut elapsed = costs.isr_base;
    // Completions are pushed directly into the output vector (no per-call
    // staging allocation); batched mode patches the timestamps afterwards.
    let first = completions.len();
    for entry in entries {
        let pages = entry.bytes / dd_nvme::BLOCK_BYTES;
        elapsed += costs.isr_per_cqe + costs.isr_per_page * pages;
        if entry.host.submit_core != core {
            elapsed += costs.remote_completion;
            stats.remote_completions += 1;
        } else {
            stats.local_completions += 1;
        }
        stats.completed_rqs += 1;
        if trace.enabled() {
            trace.record(TraceEvent {
                t: now,
                rq: entry.host.rq_id,
                tenant: entry.host.tenant,
                sla: entry.host.sla,
                phase: Phase::IrqFire,
                core,
                nsq: Some(entry.sq_id.0),
            });
            if mode == CompletionMode::PerRequest {
                trace.record(TraceEvent {
                    t: now + elapsed,
                    rq: entry.host.rq_id,
                    tenant: entry.host.tenant,
                    sla: entry.host.sla,
                    phase: Phase::Complete,
                    core,
                    nsq: Some(entry.sq_id.0),
                });
            }
        }
        if let Some(bio) = reqmap.complete_rq(entry.host.rq_id) {
            completions.push(BioCompletion {
                bio,
                completed_at: now + elapsed,
                completion_core: core,
            });
        }
    }
    let total = elapsed;
    if mode == CompletionMode::Batched {
        // Kernel default: everything in the batch is signalled at its end.
        for c in &mut completions[first..] {
            c.completed_at = now + total;
        }
        if trace.enabled() {
            for entry in entries {
                trace.record(TraceEvent {
                    t: now + total,
                    rq: entry.host.rq_id,
                    tenant: entry.host.tenant,
                    sla: entry.host.sla,
                    phase: Phase::Complete,
                    core,
                    nsq: Some(entry.sq_id.0),
                });
            }
        }
    }
    total
}

/// Commands parked because their target NSQ was full; retried after
/// completions free entries (blk-mq requeue semantics).
#[derive(Debug, Default)]
pub struct ParkedCommands {
    parked: VecDeque<(SqId, NvmeCommand)>,
    /// Flush scratch, reused across calls: SQs that accepted a command.
    rung: Vec<SqId>,
    /// Flush scratch, reused across calls: commands whose SQ is still full.
    still_full: VecDeque<(SqId, NvmeCommand)>,
}

impl ParkedCommands {
    /// Creates an empty parking lot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks a command destined for `sq`.
    pub fn park(&mut self, sq: SqId, cmd: NvmeCommand) {
        self.parked.push_back((sq, cmd));
    }

    /// Number of parked commands.
    pub fn len(&self) -> usize {
        self.parked.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// Retries parked commands in order; pushes as many as fit and rings
    /// the doorbell of every SQ that accepted at least one. Returns how many
    /// commands were unparked.
    pub fn flush(
        &mut self,
        device: &mut NvmeDevice,
        now: SimTime,
        dev_out: &mut DeviceOutput,
        stats: &mut StackStats,
    ) -> usize {
        let mut unparked = 0;
        debug_assert!(self.rung.is_empty() && self.still_full.is_empty());
        while let Some((sq, cmd)) = self.parked.pop_front() {
            if device.push_command(sq, cmd).is_err() {
                self.still_full.push_back((sq, cmd));
                continue;
            }
            // Late NsqEnqueue/DoorbellRing: the span shows the queue-full
            // stall as Routed → NsqEnqueue time.
            trace_enqueued(&mut dev_out.trace, now, cmd.host, sq);
            stats.submitted_rqs += 1;
            unparked += 1;
            if !self.rung.contains(&sq) {
                self.rung.push(sq);
            }
        }
        // `parked` drained to empty above; swap the leftovers back in and
        // keep both allocations for the next flush.
        std::mem::swap(&mut self.parked, &mut self.still_full);
        for sq in self.rung.drain(..) {
            device.ring_doorbell(sq, now, dev_out);
            stats.doorbells += 1;
        }
        unparked
    }
}

/// NSQ stall detection with bounded retry/backoff (fault recovery).
///
/// A faulted controller can stop fetching from an NSQ for a while
/// (`simkit::fault` NSQ stalls). If every tenant routed to that NSQ is
/// blocked waiting for completions, nothing will ever ring its doorbell
/// again and the stack hangs. The guard watches each SQ's *fetch progress*
/// between watchdog ticks: a queue with published backlog and no progress
/// gets its doorbell re-rung — eagerly for the first few ticks, then at a
/// backed-off cadence so a long-dead queue is not hammered forever. Any
/// progress resets the queue to the eager lane.
#[derive(Debug, Default)]
pub struct RedriveGuard {
    /// Last observed per-SQ fetched count (`submitted_total - occupancy`).
    fetched: Vec<u64>,
    /// Consecutive no-progress ticks with backlog, per SQ.
    stalled_ticks: Vec<u32>,
}

/// No-progress ticks redriven eagerly before backing off.
const REDRIVE_EAGER_TICKS: u32 = 4;
/// Backed-off redrive cadence (every Nth tick) after the eager window.
const REDRIVE_BACKOFF_TICKS: u32 = 8;

impl RedriveGuard {
    /// Creates an idle guard (allocates lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// One watchdog tick: re-rings the doorbell of every SQ with published
    /// backlog and no fetch progress since the previous tick, subject to
    /// the retry bound. Returns how many SQs were redriven.
    ///
    /// Gated on [`NvmeDevice::fetch_starved`]: a busy fetch engine (or an
    /// exhausted page budget) explains any amount of per-SQ waiting on a
    /// healthy device, and the arbiter will revisit the queue on its own —
    /// only an idle engine ignoring published work needs the poke. This
    /// keeps the guard a strict no-op on fault-free runs.
    pub fn redrive(
        &mut self,
        device: &mut NvmeDevice,
        now: SimTime,
        dev_out: &mut DeviceOutput,
        stats: &mut StackStats,
    ) -> usize {
        let nr = device.nr_sqs() as usize;
        if self.fetched.len() < nr {
            self.fetched.resize(nr, 0);
            self.stalled_ticks.resize(nr, 0);
        }
        if !device.fetch_starved() {
            for i in 0..nr {
                let st = device.sq_stats(SqId(i as u16));
                self.fetched[i] = st.submitted_total - st.occupancy as u64;
                self.stalled_ticks[i] = 0;
            }
            return 0;
        }
        let mut redriven = 0;
        for i in 0..nr {
            let sq = SqId(i as u16);
            let st = device.sq_stats(sq);
            let fetched = st.submitted_total - st.occupancy as u64;
            if fetched != self.fetched[i] || device.sq_backlog(sq) == 0 {
                self.fetched[i] = fetched;
                self.stalled_ticks[i] = 0;
                continue;
            }
            self.stalled_ticks[i] += 1;
            let t = self.stalled_ticks[i];
            if t > REDRIVE_EAGER_TICKS && !t.is_multiple_of(REDRIVE_BACKOFF_TICKS) {
                continue;
            }
            device.ring_doorbell(sq, now, dev_out);
            stats.doorbells += 1;
            stats.watchdog_redrives += 1;
            redriven += 1;
        }
        redriven
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bio::{BioId, ReqFlags};
    use dd_nvme::command::{CqStatus, HostTag, IoOpcode};
    use dd_nvme::spec::{CommandId, NamespaceId};

    fn bio(id: u64, core: u16) -> Bio {
        Bio {
            id: BioId(id),
            tenant: Pid(1),
            core,
            nsid: NamespaceId(1),
            op: IoOpcode::Read,
            offset_blocks: 0,
            bytes: 4096,
            flags: ReqFlags::NONE,
            issued_at: SimTime::ZERO,
        }
    }

    fn cqe(rq_id: u64, submit_core: u16, bytes: u64) -> CqEntry {
        CqEntry {
            cid: CommandId(rq_id),
            sq_id: SqId(0),
            status: CqStatus::Success,
            host: HostTag {
                rq_id,
                submit_core,
                ..HostTag::default()
            },
            bytes,
        }
    }

    #[test]
    fn batched_mode_signals_at_batch_end() {
        let costs = HostCosts::default();
        let mut reqmap = RequestMap::new();
        let mut stats = StackStats::default();
        let mut completions = Vec::new();
        // Small L request first, bulky T request second: in batched mode
        // both are signalled at the end.
        let h1 = reqmap.insert_bio(bio(1, 0), 1);
        let r1 = reqmap.alloc_rq(h1, 1);
        let h2 = reqmap.insert_bio(bio(2, 0), 1);
        let r2 = reqmap.alloc_rq(h2, 32);
        let entries = vec![cqe(r1, 0, 4096), cqe(r2, 0, 131072)];
        let cost = process_cqes(
            &entries,
            CompletionMode::Batched,
            0,
            SimTime::ZERO,
            &costs,
            &mut reqmap,
            &mut stats,
            &mut completions,
            &mut TraceSink::disabled(),
        );
        assert_eq!(completions.len(), 2);
        assert_eq!(completions[0].completed_at, SimTime::ZERO + cost);
        assert_eq!(completions[1].completed_at, SimTime::ZERO + cost);
    }

    #[test]
    fn per_request_mode_signals_incrementally() {
        let costs = HostCosts::default();
        let mut reqmap = RequestMap::new();
        let mut stats = StackStats::default();
        let mut completions = Vec::new();
        let h1 = reqmap.insert_bio(bio(1, 0), 1);
        let r1 = reqmap.alloc_rq(h1, 1);
        let h2 = reqmap.insert_bio(bio(2, 0), 1);
        let r2 = reqmap.alloc_rq(h2, 32);
        let entries = vec![cqe(r1, 0, 4096), cqe(r2, 0, 131072)];
        let cost = process_cqes(
            &entries,
            CompletionMode::PerRequest,
            0,
            SimTime::ZERO,
            &costs,
            &mut reqmap,
            &mut stats,
            &mut completions,
            &mut TraceSink::disabled(),
        );
        assert!(completions[0].completed_at < completions[1].completed_at);
        assert_eq!(completions[1].completed_at, SimTime::ZERO + cost);
    }

    #[test]
    fn remote_completion_penalty_counted() {
        let costs = HostCosts::default();
        let mut reqmap = RequestMap::new();
        let mut stats = StackStats::default();
        let mut completions = Vec::new();
        let h1 = reqmap.insert_bio(bio(1, 5), 1);
        let r1 = reqmap.alloc_rq(h1, 1);
        // Submitted on core 5, completed on core 0: remote.
        let entries = vec![cqe(r1, 5, 4096)];
        let remote_cost = process_cqes(
            &entries,
            CompletionMode::Batched,
            0,
            SimTime::ZERO,
            &costs,
            &mut reqmap,
            &mut stats,
            &mut completions,
            &mut TraceSink::disabled(),
        );
        assert_eq!(stats.remote_completions, 1);
        assert_eq!(stats.local_completions, 0);
        // Same on the submitting core: cheaper.
        let mut reqmap2 = RequestMap::new();
        let h = reqmap2.insert_bio(bio(1, 0), 1);
        let r = reqmap2.alloc_rq(h, 1);
        let local_cost = process_cqes(
            &[cqe(r, 0, 4096)],
            CompletionMode::Batched,
            0,
            SimTime::ZERO,
            &costs,
            &mut reqmap2,
            &mut stats,
            &mut completions,
            &mut TraceSink::disabled(),
        );
        assert_eq!(remote_cost - local_cost, costs.remote_completion);
    }

    #[test]
    fn multi_request_bio_completes_once() {
        let costs = HostCosts::default();
        let mut reqmap = RequestMap::new();
        let mut stats = StackStats::default();
        let mut completions = Vec::new();
        let h = reqmap.insert_bio(bio(1, 0), 2);
        let r1 = reqmap.alloc_rq(h, 32);
        let r2 = reqmap.alloc_rq(h, 32);
        process_cqes(
            &[cqe(r1, 0, 131072)],
            CompletionMode::Batched,
            0,
            SimTime::ZERO,
            &costs,
            &mut reqmap,
            &mut stats,
            &mut completions,
            &mut TraceSink::disabled(),
        );
        assert!(completions.is_empty(), "bio not finished yet");
        process_cqes(
            &[cqe(r2, 0, 131072)],
            CompletionMode::Batched,
            0,
            SimTime::ZERO,
            &costs,
            &mut reqmap,
            &mut stats,
            &mut completions,
            &mut TraceSink::disabled(),
        );
        assert_eq!(completions.len(), 1);
    }

    #[test]
    fn redrive_guard_backs_off_and_resets_on_progress() {
        use dd_nvme::NvmeConfig;
        use simkit::fault::{FaultEvent, FaultGeometry, FaultKind, FaultPlan};
        use simkit::SimDuration;
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 1;
        cfg.nr_cqs = 1;
        cfg.sq_depth = 8;
        let mut dev = NvmeDevice::new(cfg, 1);
        // Stall the only NSQ for 1 ms from t=0: the arbiter skips it, the
        // fetch engine idles over published work — the exact lost-wakeup
        // state `fetch_starved` reports and the guard exists to break.
        dev.install_faults(FaultPlan::from_events(
            vec![FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::NsqStall {
                    sq: 0,
                    dur: SimDuration::from_millis(1),
                },
            }],
            FaultGeometry {
                dies: 1,
                sqs: 1,
                cqs: 1,
            },
        ));
        let mk = |cid: u64| NvmeCommand {
            cid: CommandId(cid),
            nsid: NamespaceId(1),
            opcode: IoOpcode::Read,
            slba: 0,
            nlb: 1,
            host: HostTag::default(),
        };
        let mut out = DeviceOutput::new();
        for i in 0..4 {
            dev.push_command(SqId(0), mk(i)).unwrap();
        }
        dev.ring_doorbell(SqId(0), SimTime::ZERO, &mut out);
        // The stall swallowed the doorbell: nothing fetched, engine idle.
        assert_eq!(dev.sq_backlog(SqId(0)), 4);
        assert!(dev.fetch_starved());
        let mut guard = RedriveGuard::new();
        let mut stats = StackStats::default();
        let mut redrives = 0;
        for tick in 0..REDRIVE_EAGER_TICKS + 2 * REDRIVE_BACKOFF_TICKS {
            let t = SimTime::from_micros(u64::from(tick) * 50);
            redrives += guard.redrive(&mut dev, t, &mut out, &mut stats);
        }
        // 20 no-progress ticks inside the stall window: the eager lane
        // fires on the first 4, the backoff lane twice in the remaining 16.
        assert_eq!(redrives, REDRIVE_EAGER_TICKS as usize + 2);
        assert_eq!(stats.watchdog_redrives, redrives as u64);
        assert_eq!(stats.doorbells, redrives as u64);
        assert_eq!(dev.sq_backlog(SqId(0)), 4, "stalled SQ must not fetch");
        // Past the stall window the next backed-off redrive (tick count 24,
        // a multiple of the backoff cadence) revives the queue…
        let mut late = 0;
        for tick in 20u32..24 {
            let t = SimTime::from_micros(u64::from(tick) * 50);
            late += guard.redrive(&mut dev, t, &mut out, &mut stats);
        }
        assert_eq!(late, 1, "exactly the backed-off retry fires");
        assert_eq!(dev.sq_backlog(SqId(0)), 3, "revived SQ fetched a command");
        // …and the observed progress resets the guard to quiescent.
        assert_eq!(
            guard.redrive(
                &mut dev,
                SimTime::from_micros(24 * 50),
                &mut out,
                &mut stats
            ),
            0
        );
    }

    #[test]
    fn parked_commands_flush_when_room() {
        use dd_nvme::NvmeConfig;
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 1;
        cfg.nr_cqs = 1;
        cfg.sq_depth = 2;
        let mut dev = NvmeDevice::new(cfg, 1);
        let mk = |cid: u64| NvmeCommand {
            cid: CommandId(cid),
            nsid: NamespaceId(1),
            opcode: IoOpcode::Read,
            slba: 0,
            nlb: 1,
            host: HostTag::default(),
        };
        // Fill the queue (depth 2) without ringing.
        dev.push_command(SqId(0), mk(1)).unwrap();
        dev.push_command(SqId(0), mk(2)).unwrap();
        let mut parked = ParkedCommands::new();
        parked.park(SqId(0), mk(3));
        let mut out = DeviceOutput::new();
        let mut stats = StackStats::default();
        assert_eq!(
            parked.flush(&mut dev, SimTime::ZERO, &mut out, &mut stats),
            0
        );
        assert_eq!(parked.len(), 1);
        // Free a slot by letting the device fetch one command.
        dev.ring_doorbell(SqId(0), SimTime::ZERO, &mut out);
        let evs: Vec<_> = out.events.drain(..).collect();
        for (at, ev) in evs {
            dev.handle_event(ev, at, &mut out);
            break; // One fetch frees one slot.
        }
        let n = parked.flush(&mut dev, SimTime::from_micros(50), &mut out, &mut stats);
        assert_eq!(n, 1);
        assert!(parked.is_empty());
        assert_eq!(stats.requeues, 0, "flush does not double-count parks");
        assert_eq!(stats.doorbells, 1);
        assert_eq!(stats.submitted_rqs, 1);
    }
}
