//! The dispatch core every storage stack shares.
//!
//! Bio splitting, NSQ tail locks, queue-full requeue and the ISR are blk-mq
//! machinery, identical under every stack in the comparison (the scsi-mq
//! shape: one multi-queue block layer, drivers that differ only in their
//! decisions). [`Dispatch`] owns that machinery once. A stack keeps only
//! its decisions — which NSQ a request goes to, which [`DoorbellMode`] and
//! [`CompletionMode`] apply, and what a contended tail costs — and drives
//! the core through four jobs:
//!
//! * [`Dispatch::stage`] — split a bio, register its requests, tag and trace
//!   them, and stage the commands per NSQ (first-touch order is kept);
//! * [`Dispatch::push`] — move one NSQ's staged commands into the device
//!   under its tail lock, parking what does not fit and ringing doorbells
//!   per the [`DoorbellMode`];
//! * [`Dispatch::reap`] — drain an NCQ and turn its entries into bio
//!   completions under the [`CompletionMode`] the caller picks after the
//!   pop;
//! * [`Dispatch::watchdog`] — retry parked commands, then redrive stalled
//!   NSQs (fault recovery).
//!
//! All growable buffers (request map, staging, CQE scratch) recycle across
//! runs through [`Dispatch::park`] / [`Dispatch::adopt`]; every stack parks
//! the same set, so a worker that runs one stack flavour after another
//! adopts all of them.

use dd_cpu::HostCosts;
use dd_nvme::command::HostTag;
use dd_nvme::spec::CommandId;
use dd_nvme::{CqEntry, CqId, IoOpcode, NvmeCommand, SqId};
use simkit::{SimDuration, Sla};

use crate::bio::Bio;
use crate::nsqlock::NsqLockTable;
use crate::reqmap::RequestMap;
use crate::split::{split_extents, SplitConfig};
use crate::stack::{
    process_cqes, trace_enqueued, trace_routed, CompletionMode, DoorbellMode, ParkedCommands,
    RedriveGuard, StackEnv, StackStats,
};

/// The shared dispatch state of one stack instance.
#[derive(Debug)]
pub struct Dispatch {
    locks: NsqLockTable,
    reqmap: RequestMap,
    parked: ParkedCommands,
    redrive: RedriveGuard,
    split: SplitConfig,
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
    /// Creates the core for a device with `nr_sqs` NSQs.
    pub fn new(nr_sqs: u16) -> Self {
        Dispatch {
            locks: NsqLockTable::new(nr_sqs),
            reqmap: RequestMap::new(),
            parked: ParkedCommands::new(),
            redrive: RedriveGuard::new(),
            split: SplitConfig::default(),
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
        let extents = split_extents(&self.split, bio.offset_blocks, bio.bytes);
        let n = extents.len() as u32;
        let h = self.reqmap.insert_bio(*bio, n);
        for e in extents {
            let rq_id = self.reqmap.alloc_rq_dir(h, e.nlb, bio.op == IoOpcode::Read);
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
    /// completion mode, processes them, and re-arms the vector. Returns the
    /// ISR cost. Parked commands are not retried here; see
    /// [`Dispatch::flush_parked`].
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
        cost
    }

    /// Retries parked commands (kblockd requeue after completions free NSQ
    /// entries).
    pub fn flush_parked(&mut self, env: &mut StackEnv<'_>) {
        if !self.parked.is_empty() {
            self.parked
                .flush(env.device, env.now, env.dev_out, &mut self.stats);
        }
    }

    /// Fault-recovery watchdog tick: completion-starved parked commands
    /// first, then stalled-NSQ doorbell redrive with bounded retry.
    pub fn watchdog(&mut self, env: &mut StackEnv<'_>) {
        self.flush_parked(env);
        self.redrive
            .redrive(env.device, env.now, env.dev_out, &mut self.stats);
    }

    /// Pre-sizes the request map and CQE scratch for `hint` outstanding
    /// requests. Staging is not pre-sized: it would cost one `hint`-sized
    /// buffer per NSQ, while a plug batch only ever fills a few entries.
    pub fn reserve(&mut self, hint: usize) {
        self.reqmap.reserve(hint);
        self.cqes.reserve(hint);
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
