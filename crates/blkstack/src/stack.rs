//! The `StorageStack` interface and shared stack machinery.
//!
//! A storage stack sits between tenants (above) and the NVMe device
//! (below). A stack keeps only its decisions; the testbed drives the
//! core's lifecycle. Every stack owns one [`Dispatch`] (the blk-mq core:
//! splitting, tail locks, requeue, ISR reap, redrive, buffer recycling)
//! and hands it out through [`StorageStack::dispatch`]; the testbed adopts
//! and parks its buffers, pre-sizes it, ticks its watchdog and reads its
//! statistics there. Through the trait itself the testbed asks a stack
//! only what differs between stacks:
//!
//! * [`StorageStack::submit`] runs on the issuing tenant's core at the start
//!   of a submission work item, picks each request's NSQ and doorbell mode,
//!   and returns the CPU cost of the submission path (syscall + block layer
//!   + NSQ locking);
//! * [`StorageStack::on_irq`] runs on the interrupted core, picks the
//!   completion mode, and returns the ISR cost; completed bios are appended
//!   to [`StackEnv::completions`].
//!
//! Device effects (doorbells waking the fetch engine, interrupts) flow
//! through [`StackEnv::dev_out`], which the testbed drains after every call.
//!
//! The module also holds the trait's vocabulary: the environment, the
//! statistics, and the doorbell and completion modes a stack picks for the
//! dispatch core.

use dd_cpu::HostCosts;
use dd_nvme::{CqId, DeviceOutput, NvmeDevice};
use simkit::{SimDuration, SimRng, SimTime};

use crate::bio::{Bio, BioCompletion};
use crate::capabilities::Capabilities;
use crate::dispatch::Dispatch;
use crate::ioprio::IoPriorityClass;
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
    /// Tenant core migrations requested by [`StorageStack::on_tick`]
    /// (blk-switch application steering); the testbed lands them.
    pub migrations: &'a mut Vec<(Pid, u16)>,
    /// Deterministic randomness.
    pub rng: &'a mut SimRng,
    /// Host cost constants (identical for every stack).
    pub costs: &'a HostCosts,
}

/// What a run's per-I/O tables must hold at once, from which the testbed
/// reserves them ([`StorageStack::reserve`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoBounds {
    /// Requests (device commands) in flight at once.
    pub inflight: usize,
    /// Bios in one submission call.
    pub batch: usize,
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
    /// Cross-core scheduling actions (blk-switch steering, counted through
    /// [`Dispatch::count_steering`]; 0 elsewhere).
    pub steering_actions: u64,
    /// Doorbell redrives issued by the stall watchdog (fault recovery;
    /// 0 on runs without faults).
    pub watchdog_redrives: u64,
    /// Per-request routing-path counters: the core leaves them 0, and the
    /// testbed fills them from [`StorageStack::route_stats`].
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

/// A kernel storage stack under test: its routing, doorbell and
/// completion decisions over one [`Dispatch`] core.
pub trait StorageStack {
    /// Human-readable name used in tables (`"vanilla"`, `"blk-switch"`,
    /// `"daredevil"`).
    fn name(&self) -> &'static str;

    /// The stack's Table 1 row.
    fn capabilities(&self) -> Capabilities;

    /// The dispatch core the stack submits and reaps through. The testbed
    /// drives its lifecycle here: buffer adoption and parking, pre-sizing,
    /// the fault watchdog, statistics and request-map capacity.
    fn dispatch(&mut self) -> &mut Dispatch;

    /// A tenant appeared (fork/exec). Stacks that decide per tenant
    /// allocate its state here; the default keeps none.
    fn register_tenant(&mut self, _task: &TaskStruct, _env: &mut StackEnv<'_>) {}

    /// The tenant's ionice class changed at runtime (Fig. 14 storms).
    /// Later bios carry the new class in [`Bio::ioprio`]; only stacks with
    /// per-tenant state derived from it need this.
    fn update_ionice(&mut self, _pid: Pid, _class: IoPriorityClass, _env: &mut StackEnv<'_>) {}

    /// The testbed moved a tenant to another core (Fig. 13 interleaving).
    fn migrate_tenant(&mut self, _pid: Pid, _core: u16, _env: &mut StackEnv<'_>) {}

    /// Pre-sizes per-I/O tables the stack owns beside its dispatch core
    /// (elevators, in-flight maps, batch scratch) for the run's `bounds`.
    /// Called once by the testbed before traffic starts, after the core's
    /// own [`Dispatch::reserve`]; the default does nothing.
    fn reserve(&mut self, _bounds: IoBounds) {}

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

    /// Routing-path counters of a per-request router (Daredevil's troute);
    /// zero for stacks without one.
    fn route_stats(&self) -> RouteStats {
        RouteStats::default()
    }

    /// Backing capacity, in slots, of the per-I/O tables the stack owns
    /// beside its dispatch core ([`Dispatch::io_capacity`] counts the
    /// core's). The testbed's capacity-stability probe snapshots the sum at
    /// end-of-warmup and at run end and asserts they are equal at 10k
    /// tenants. The default reports 0.
    fn io_capacity(&self) -> usize {
        0
    }
}

/// When a submission path rings the NSQ doorbell.
///
/// The submission-side half of the I/O service dispatching vocabulary
/// (completion side: [`CompletionMode`]). The vanilla stacks in this
/// workspace — blk-mq, blk-switch, overprov — pass [`Batched`] (one MMIO
/// write per enqueued batch, the kernel default) to every
/// [`Dispatch::push`] and reap every NCQ
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
