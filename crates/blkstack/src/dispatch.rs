//! The dispatch core every storage stack shares.
//!
//! Bio splitting, NSQ tail locks, queue-full requeue and the ISR are blk-mq
//! machinery, identical under every stack in the comparison (the scsi-mq
//! shape: one multi-queue block layer, drivers that differ only in their
//! decisions). [`Dispatch`] owns that machinery once. A stack keeps only
//! its decisions — which NSQ a request goes to, which [`DoorbellMode`] and
//! [`CompletionMode`] apply, and what a contended tail costs — and the
//! testbed drives the core's lifecycle. A stack calls three jobs:
//!
//! * [`Dispatch::stage`] — split a bio, register its requests, tag and trace
//!   them, and stage the commands per NSQ (first-touch order is kept);
//! * [`Dispatch::push`] — move one NSQ's staged commands into the device
//!   under its tail lock, parking what does not fit and ringing doorbells
//!   per the [`DoorbellMode`];
//! * [`Dispatch::reap`] — drain an NCQ and turn its entries into bio
//!   completions under the [`CompletionMode`] the caller picks after the
//!   pop, then retry parked commands in the entries it freed.
//!
//! The testbed reaches the core through
//! [`StorageStack::dispatch`](crate::stack::StorageStack::dispatch) for the
//! rest: [`Dispatch::watchdog`] (retry parked commands, then redrive
//! stalled NSQs; fault recovery), [`Dispatch::reserve`], [`Dispatch::stats`]
//! and [`Dispatch::io_capacity`]. All growable buffers (request map,
//! staging, CQE scratch) recycle across runs through [`Dispatch::park`] /
//! [`Dispatch::adopt`]; every stack parks the same set, so a worker that
//! runs one stack flavour after another adopts all of them.

use std::collections::VecDeque;

use dd_cpu::HostCosts;
use dd_nvme::command::HostTag;
use dd_nvme::spec::CommandId;
use dd_nvme::{CqEntry, CqId, DeviceOutput, IoOpcode, NvmeCommand, NvmeDevice, SqId};
use simkit::{Phase, SimDuration, SimTime, Sla, TraceEvent, TraceSink};

use crate::bio::{Bio, BioCompletion};
use crate::nsqlock::NsqLockTable;
use crate::reqmap::RequestMap;
use crate::split::split_extents;
use crate::stack::{CompletionMode, DoorbellMode, StackEnv, StackStats};

/// The shared dispatch state of one stack instance.
#[derive(Debug)]
pub struct Dispatch {
    locks: NsqLockTable,
    reqmap: RequestMap,
    parked: ParkedCommands,
    redrive: RedriveGuard,
    stats: StackStats,
    staging: Staging,
    /// ISR scratch for drained CQEs.
    cqes: Vec<CqEntry>,
}

/// Per-NSQ command staging. `touched` lists exactly the NSQs with staged
/// commands, in first-touch order; every submit call pushes them all, so
/// the buffers are empty between calls and keep their capacity.
#[derive(Debug, Default)]
struct Staging {
    bufs: Vec<Vec<NvmeCommand>>,
    touched: Vec<SqId>,
}

impl simkit::ArenaReset for Staging {
    /// Empties each buffer but keeps the outer spine and the inner
    /// allocations (the blanket `Vec` reset would drop the inner ones).
    fn arena_reset(&mut self) {
        for b in &mut self.bufs {
            b.clear();
        }
        self.touched.clear();
    }
}

/// What one [`Dispatch::push`] did, for the caller's cost arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pushed {
    /// Commands taken from staging (pushed or parked).
    pub commands: u64,
    /// Commands that reached the NSQ; the rest parked.
    pub pushed: u64,
    /// Spin wait on the NSQ tail lock.
    pub wait: SimDuration,
    /// Lock hold: `nsq_insert` per command.
    pub hold: SimDuration,
    /// Doorbell writes issued.
    pub rings: u64,
}

impl Pushed {
    /// Cost under one-doorbell-per-batch accounting: lock spin, lock hold
    /// and one doorbell write, charged even when every command parked; zero
    /// for an empty batch.
    pub fn batch_cost(&self, costs: &HostCosts) -> SimDuration {
        if self.commands == 0 {
            return SimDuration::ZERO;
        }
        self.wait + self.hold + costs.doorbell
    }

    /// `remote_submission` per command when the tail lock was contended
    /// (the cache line bounced between cores).
    pub fn remote_cost(&self, costs: &HostCosts) -> SimDuration {
        if self.wait.is_zero() {
            return SimDuration::ZERO;
        }
        costs.remote_submission * self.commands
    }
}

impl Dispatch {
    /// Creates the core for a stack that routes to NSQs `0..nr_sqs`: one
    /// tail lock and one staging buffer each.
    pub fn new(nr_sqs: u16) -> Self {
        Dispatch {
            locks: NsqLockTable::new(nr_sqs),
            reqmap: RequestMap::new(),
            parked: ParkedCommands::new(),
            redrive: RedriveGuard::new(),
            stats: StackStats::default(),
            staging: Staging {
                // dd-alloc-allowlist: construction sizes the staging spine.
                bufs: (0..nr_sqs).map(|_| Vec::new()).collect(),
                touched: Vec::new(), // dd-alloc-allowlist: construction
            },
            cqes: Vec::new(), // dd-alloc-allowlist: construction
        }
    }

    /// The NSQ tail locks (Daredevil's merit reads their `in_lock` time).
    pub fn locks(&self) -> &NsqLockTable {
        &self.locks
    }

    /// Splits `bio` into commands for `sq`, registers them in the request
    /// map, tags them with `sla`, records their `Routed` span events, and
    /// stages them. Returns the number of commands.
    pub fn stage(&mut self, bio: &Bio, sq: SqId, sla: Sla, env: &mut StackEnv<'_>) -> u32 {
        let extents = split_extents(bio.offset_blocks, bio.bytes);
        let n = extents.len() as u32;
        let h = self.reqmap.insert_bio(*bio, n);
        for e in extents {
            let rq_id = self.reqmap.alloc_rq_dir(h, bio.op == IoOpcode::Read);
            let host = HostTag {
                rq_id,
                submit_core: bio.core,
                tenant: bio.tenant.0,
                sla,
            };
            trace_routed(
                &mut env.dev_out.trace,
                env.now,
                host,
                sq,
                bio.flags.is_outlier(),
            );
            self.stage_command(
                sq,
                NvmeCommand {
                    cid: CommandId(rq_id),
                    nsid: bio.nsid,
                    opcode: bio.op,
                    slba: e.slba,
                    nlb: e.nlb,
                    host,
                },
            );
        }
        n
    }

    /// Stages an already-built command (an elevator dispatch) for `sq`.
    pub(crate) fn stage_command(&mut self, sq: SqId, cmd: NvmeCommand) {
        let buf = &mut self.staging.bufs[sq.index()];
        if buf.is_empty() {
            self.staging.touched.push(sq);
        }
        buf.push(cmd);
    }

    /// Commands currently staged for `sq`.
    pub fn staged(&self, sq: SqId) -> usize {
        self.staging.bufs[sq.index()].len()
    }

    /// Bytes the commands staged for `sq` carry.
    pub fn staged_bytes(&self, sq: SqId) -> u64 {
        self.staging.bufs[sq.index()]
            .iter()
            .map(|c| c.bytes())
            .sum()
    }

    /// The first NSQ, in first-touch order, that still has staged commands.
    pub fn next_staged(&self) -> Option<SqId> {
        self.staging.touched.first().copied()
    }

    /// Takes `sq`'s staged commands back out without pushing them (the
    /// elevator moves them into its scheduler instead).
    pub(crate) fn unstage(&mut self, sq: SqId) -> std::vec::Drain<'_, NvmeCommand> {
        self.staging.touched.retain(|&s| s != sq);
        self.staging.bufs[sq.index()].drain(..)
    }

    /// Pushes `sq`'s staged commands under one hold of its tail lock
    /// (`nsq_insert` per command). A command that finds the NSQ full parks
    /// for a later retry. [`DoorbellMode::Immediate`] rings after every
    /// pushed command; [`DoorbellMode::Batched`] rings once if any command
    /// got in. Nothing staged: no lock, no ring, a zero [`Pushed`].
    pub fn push(&mut self, sq: SqId, mode: DoorbellMode, env: &mut StackEnv<'_>) -> Pushed {
        let cmds = &mut self.staging.bufs[sq.index()];
        if cmds.is_empty() {
            return Pushed::default();
        }
        self.staging.touched.retain(|&s| s != sq);
        let commands = cmds.len() as u64;
        let hold = env.costs.nsq_insert * commands;
        let wait = self.locks.acquire(sq, env.now, hold).wait;
        let mut p = Pushed {
            commands,
            wait,
            hold,
            ..Pushed::default()
        };
        for cmd in cmds.drain(..) {
            if env.device.push_command(sq, cmd).is_err() {
                self.parked.park(sq, cmd);
                self.stats.requeues += 1;
                continue;
            }
            trace_enqueued(&mut env.dev_out.trace, env.now, cmd.host, sq);
            p.pushed += 1;
            self.stats.submitted_rqs += 1;
            if mode == DoorbellMode::Immediate {
                env.device.ring_doorbell(sq, env.now, env.dev_out);
                self.stats.doorbells += 1;
                p.rings += 1;
            }
        }
        if mode == DoorbellMode::Batched && p.pushed > 0 {
            env.device.ring_doorbell(sq, env.now, env.dev_out);
            self.stats.doorbells += 1;
            p.rings += 1;
        }
        p
    }

    /// The ISR for `cq` on `core`: drains the NCQ, lets `mode` inspect the
    /// entries (the request map still holds their requests) and pick the
    /// completion mode, processes them, and re-arms the vector. Then, the
    /// completions having freed NSQ entries, retries parked commands
    /// (kblockd requeue). Returns the ISR cost.
    pub fn reap(
        &mut self,
        cq: CqId,
        core: u16,
        env: &mut StackEnv<'_>,
        mode: impl FnOnce(&[CqEntry], &RequestMap) -> CompletionMode,
    ) -> SimDuration {
        env.device.isr_pop_into(cq, usize::MAX, &mut self.cqes);
        let mode = mode(&self.cqes, &self.reqmap);
        let cost = process_cqes(
            &self.cqes,
            mode,
            core,
            env.now,
            env.costs,
            &mut self.reqmap,
            &mut self.stats,
            env.completions,
            &mut env.dev_out.trace,
        );
        env.device.isr_done(cq, env.now, env.dev_out);
        self.flush_parked(env);
        cost
    }

    /// Retries parked commands.
    fn flush_parked(&mut self, env: &mut StackEnv<'_>) {
        if !self.parked.is_empty() {
            self.parked
                .flush(env.device, env.now, env.dev_out, &mut self.stats);
        }
    }

    /// Fault-recovery watchdog tick: completion-starved parked commands
    /// first, then stalled-NSQ doorbell redrive with bounded retry.
    pub fn watchdog(&mut self, env: &mut StackEnv<'_>) {
        self.flush_parked(env);
        // Only the NSQs this core routes to can hold its backlog.
        let nr_sqs = self.staging.bufs.len();
        self.redrive
            .redrive(nr_sqs, env.device, env.now, env.dev_out, &mut self.stats);
    }

    /// Pre-sizes the request map and CQE scratch for `inflight` requests
    /// in flight at once. Staging is not pre-sized: it would cost one
    /// such buffer per NSQ, while a plug batch only ever fills a few
    /// entries.
    pub fn reserve(&mut self, inflight: usize) {
        self.reqmap.reserve(inflight);
        self.cqes.reserve(inflight);
    }

    /// Parks the recyclable buffers into `arena` at run teardown.
    pub fn park(&mut self, arena: &mut simkit::RunArena) {
        arena.put(0, std::mem::take(&mut self.reqmap));
        arena.put(0, std::mem::take(&mut self.staging));
        arena.put(0, std::mem::take(&mut self.cqes));
    }

    /// Adopts buffers a previous run parked, in place of the constructor's
    /// empty ones. Staging parked under another NSQ count is resized to
    /// this device's.
    pub fn adopt(&mut self, arena: &mut simkit::RunArena) {
        let nr_sqs = self.staging.bufs.len();
        self.reqmap = arena.take(0);
        self.staging = arena.take(0);
        // dd-alloc-allowlist: adoption runs at construction.
        self.staging.bufs.resize_with(nr_sqs, Vec::new);
        self.cqes = arena.take(0);
    }

    /// Counts one cross-core steering action (blk-switch's request and
    /// application steering) into the core's statistics.
    pub fn count_steering(&mut self) {
        self.stats.steering_actions += 1;
    }

    /// Statistics snapshot, lock contention included.
    pub fn stats(&self) -> StackStats {
        StackStats {
            lock_wait_total: self.locks.in_lock_grand_total(),
            lock_contended: self.locks.contended_grand_total(),
            ..self.stats
        }
    }

    /// Backing capacity of the request map, in slots.
    pub fn io_capacity(&self) -> usize {
        self.reqmap.capacity()
    }
}

/// Records `Submit` + `Routed` span events for one request at its routing
/// decision (troute / switch steering / home-queue pick). `Submit` carries no
/// queue; `Routed` names the chosen NSQ and the outlier classification.
///
/// One `trace.enabled()` branch when tracing is off.
#[inline]
fn trace_routed(trace: &mut TraceSink, now: SimTime, host: HostTag, sq: SqId, outlier: bool) {
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
fn trace_enqueued(trace: &mut TraceSink, now: SimTime, host: HostTag, sq: SqId) {
    if trace.enabled() {
        trace.record(host.trace_event(Phase::NsqEnqueue, now, Some(sq.0)));
        trace.record(host.trace_event(Phase::DoorbellRing, now, Some(sq.0)));
    }
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
fn process_cqes(
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
struct ParkedCommands {
    parked: VecDeque<(SqId, NvmeCommand)>,
    /// Flush scratch, reused across calls: SQs that accepted a command.
    rung: Vec<SqId>,
    /// Flush scratch, reused across calls: commands whose SQ is still full.
    still_full: VecDeque<(SqId, NvmeCommand)>,
}

impl ParkedCommands {
    /// Creates an empty parking lot.
    fn new() -> Self {
        Self::default()
    }

    /// Parks a command destined for `sq`.
    fn park(&mut self, sq: SqId, cmd: NvmeCommand) {
        self.parked.push_back((sq, cmd));
    }

    /// True when nothing is parked.
    fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// Retries parked commands in order; pushes as many as fit and rings
    /// the doorbell of every SQ that accepted at least one. Returns how many
    /// commands were unparked.
    fn flush(
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
struct RedriveGuard {
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
    fn new() -> Self {
        Self::default()
    }

    /// One watchdog tick over SQs `0..nr`: re-rings the doorbell of every
    /// one with published backlog and no fetch progress since the previous
    /// tick, subject to the retry bound. Returns how many SQs were
    /// redriven.
    ///
    /// Gated on [`NvmeDevice::fetch_starved`]: a busy fetch engine (or an
    /// exhausted page budget) explains any amount of per-SQ waiting on a
    /// healthy device, and the arbiter will revisit the queue on its own —
    /// only an idle engine ignoring published work needs the poke. This
    /// keeps the guard a strict no-op on fault-free runs.
    fn redrive(
        &mut self,
        nr: usize,
        device: &mut NvmeDevice,
        now: SimTime,
        dev_out: &mut DeviceOutput,
        stats: &mut StackStats,
    ) -> usize {
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
    use crate::tenant::Pid;
    use dd_nvme::command::CqStatus;
    use dd_nvme::spec::NamespaceId;

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
            ioprio: crate::IoPriorityClass::BestEffort,
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
        let r1 = reqmap.alloc_rq(h1);
        let h2 = reqmap.insert_bio(bio(2, 0), 1);
        let r2 = reqmap.alloc_rq(h2);
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
        let r1 = reqmap.alloc_rq(h1);
        let h2 = reqmap.insert_bio(bio(2, 0), 1);
        let r2 = reqmap.alloc_rq(h2);
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
        let r1 = reqmap.alloc_rq(h1);
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
        let r = reqmap2.alloc_rq(h);
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
    fn isr_charges_each_page() {
        let costs = HostCosts::default();
        let mut stats = StackStats::default();
        let mut completions = Vec::new();
        let mut cost_of = |bytes: u64| {
            let mut reqmap = RequestMap::new();
            let h = reqmap.insert_bio(bio(1, 0), 1);
            let r = reqmap.alloc_rq(h);
            process_cqes(
                &[cqe(r, 0, bytes)],
                CompletionMode::Batched,
                0,
                SimTime::ZERO,
                &costs,
                &mut reqmap,
                &mut stats,
                &mut completions,
                &mut TraceSink::disabled(),
            )
        };
        let small = cost_of(4096);
        let bulk = cost_of(131072);
        assert_eq!(bulk - small, costs.isr_per_page * 31);
    }

    #[test]
    fn multi_request_bio_completes_once() {
        let costs = HostCosts::default();
        let mut reqmap = RequestMap::new();
        let mut stats = StackStats::default();
        let mut completions = Vec::new();
        let h = reqmap.insert_bio(bio(1, 0), 2);
        let r1 = reqmap.alloc_rq(h);
        let r2 = reqmap.alloc_rq(h);
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
        dev.install_faults(
            FaultPlan::from_events(
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
            )
            .expect("the stall targets the only SQ"),
        );
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
            redrives += guard.redrive(1, &mut dev, t, &mut out, &mut stats);
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
            late += guard.redrive(1, &mut dev, t, &mut out, &mut stats);
        }
        assert_eq!(late, 1, "exactly the backed-off retry fires");
        assert_eq!(dev.sq_backlog(SqId(0)), 3, "revived SQ fetched a command");
        // …and the observed progress resets the guard to quiescent.
        assert_eq!(
            guard.redrive(
                1,
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
        assert!(!parked.is_empty());
        // Free a slot by letting the device fetch one command.
        dev.ring_doorbell(SqId(0), SimTime::ZERO, &mut out);
        let evs: Vec<_> = out.events.drain(..).collect();
        let (at, ev) = evs[0]; // One fetch frees one slot.
        dev.handle_event(ev, at, &mut out);
        let n = parked.flush(&mut dev, SimTime::from_micros(50), &mut out, &mut stats);
        assert_eq!(n, 1);
        assert!(parked.is_empty());
        assert_eq!(stats.requeues, 0, "flush does not double-count parks");
        assert_eq!(stats.doorbells, 1);
        assert_eq!(stats.submitted_rqs, 1);
    }
}
