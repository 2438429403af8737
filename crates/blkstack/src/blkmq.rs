//! Vanilla blk-mq: the Linux Multi-Queue Block IO Queueing Mechanism.
//!
//! blk-mq binds each CPU core statically to one hardware queue: core `c`
//! submits through NSQ `c % nr_queues`, for every namespace. That static
//! binding is the inflexibility the paper attacks — L- and T-tenants sharing
//! a core (or hashing to the same NQ) get intertwined inside that NQ and the
//! L-requests suffer head-of-line blocking (§2.2, §2.3).
//!
//! The module also provides the *partitioned* variant the paper builds for
//! its Fig. 2 motivation experiment: L-tenants map to the first half of the
//! active NQs and T-tenants to the second half, eliminating NQ-level
//! interference while keeping the same number of queues.

use dd_nvme::{CqId, SqId};
use simkit::{DenseMap, SimDuration};

use crate::bio::Bio;
use crate::capabilities::Capabilities;
use crate::dispatch::Dispatch;
use crate::ioprio::IoPriorityClass;
use crate::iosched::{IoScheduler, SchedKind, StagedRequest};
use crate::stack::{CompletionMode, DoorbellMode, StackEnv, StackStats, StorageStack};
use crate::tenant::{Pid, TaskStruct};

/// How cores map to NSQs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueuePolicy {
    /// The kernel default: core `c` → NSQ `c % nr_queues`, SLA-blind.
    Static,
    /// Fig. 2's "w/o interference" modification: L-tenants use the first
    /// half of the active NSQs, T-tenants the second half.
    Partitioned,
}

/// Configuration of the vanilla stack.
#[derive(Clone, Copy, Debug)]
pub struct BlkMqConfig {
    /// Cap on the number of NSQs used (the kernel caps by core count; the
    /// paper's Fig. 2 constrains 4). `None` = min(cores, device queues).
    pub nr_queues: Option<u16>,
    /// Mapping policy.
    pub policy: QueuePolicy,
    /// Elevator: requests stage in the scheduler and dispatch to the NSQ
    /// under a per-queue in-flight budget. `SchedKind::None` (the
    /// evaluation default, matching the paper's noop setting) dispatches
    /// directly.
    pub scheduler: SchedKind,
    /// Per-hardware-queue in-flight budget when a scheduler is active (the
    /// kernel's `nr_requests`).
    pub hw_budget: u32,
}

impl Default for BlkMqConfig {
    fn default() -> Self {
        BlkMqConfig {
            nr_queues: None,
            policy: QueuePolicy::Static,
            scheduler: SchedKind::None,
            hw_budget: 64,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct TenantState {
    ionice: IoPriorityClass,
}

/// The vanilla blk-mq storage stack.
///
/// Its I/O service dispatching is fixed and SLA-blind: every NSQ doorbell
/// covers a batch and every CQ is reaped batched — the two decisions the
/// Daredevil stack makes pluggable through `daredevil::policy::Policy`.
pub struct VanillaBlkMq {
    nr_queues: u16,
    policy: QueuePolicy,
    tenants: DenseMap<Pid, TenantState>,
    dispatch: Dispatch,
    /// Per-NSQ elevator instance (None = direct dispatch).
    scheds: Vec<Option<Box<dyn IoScheduler>>>,
    /// Dispatched-but-uncompleted commands per NSQ (budget accounting).
    inflight: Vec<u32>,
    hw_budget: u32,
    /// Elevator NSQs to refill after an ISR, in first-completion order
    /// (deduplicated, so never longer than the NSQ count it is sized to).
    refill: Vec<SqId>,
}

impl VanillaBlkMq {
    /// Creates the stack for a host with `nr_cores` cores over a device
    /// exposing `device_sqs` NSQs.
    pub fn new(cfg: BlkMqConfig, nr_cores: u16, device_sqs: u16) -> Self {
        let default_queues = nr_cores.min(device_sqs);
        let nr_queues = cfg
            .nr_queues
            .unwrap_or(default_queues)
            .min(device_sqs)
            .max(1);
        VanillaBlkMq {
            nr_queues,
            policy: cfg.policy,
            tenants: DenseMap::new(),
            dispatch: Dispatch::new(device_sqs),
            scheds: (0..device_sqs).map(|_| cfg.scheduler.build()).collect(),
            inflight: vec![0; device_sqs as usize],
            hw_budget: cfg.hw_budget.max(1),
            refill: Vec::with_capacity(device_sqs as usize),
        }
    }

    /// The active elevator's name (`"none"` for direct dispatch).
    pub fn scheduler_name(&self) -> &'static str {
        self.scheds
            .first()
            .and_then(|s| s.as_ref())
            .map(|s| s.name())
            .unwrap_or("none")
    }

    /// Releases staged requests of `sq` up to the in-flight budget; returns
    /// the CPU cost of the dispatch work.
    fn run_queue(&mut self, sq: SqId, env: &mut StackEnv<'_>) -> SimDuration {
        let Some(sched) = self.scheds[sq.index()].as_mut() else {
            return SimDuration::ZERO;
        };
        while self.inflight[sq.index()] + (self.dispatch.staged(sq) as u32) < self.hw_budget {
            match sched.dispatch(env.now) {
                Some(staged) => self.dispatch.stage_command(sq, staged.cmd),
                None => break,
            }
        }
        let p = self.dispatch.push(sq, DoorbellMode::Batched, env);
        self.inflight[sq.index()] += p.pushed as u32;
        p.batch_cost(env.costs)
    }

    /// Number of NSQs this stack actively uses.
    pub fn nr_queues(&self) -> u16 {
        self.nr_queues
    }

    /// The static core→NSQ binding (per policy).
    fn sq_for(&self, core: u16, ionice: IoPriorityClass) -> SqId {
        match self.policy {
            QueuePolicy::Static => SqId(core % self.nr_queues),
            QueuePolicy::Partitioned => {
                let half = (self.nr_queues / 2).max(1);
                if ionice.is_latency_sensitive() {
                    SqId(core % half)
                } else {
                    let t_queues = self.nr_queues - half;
                    SqId(half + core % t_queues.max(1))
                }
            }
        }
    }
}

impl StorageStack for VanillaBlkMq {
    fn name(&self) -> &'static str {
        match self.policy {
            QueuePolicy::Static => "vanilla",
            QueuePolicy::Partitioned => "vanilla-partitioned",
        }
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::blk_mq()
    }

    fn register_tenant(&mut self, task: &TaskStruct, _env: &mut StackEnv<'_>) {
        self.tenants.insert(
            task.pid,
            TenantState {
                ionice: task.ionice,
            },
        );
    }

    fn deregister_tenant(&mut self, pid: Pid, _env: &mut StackEnv<'_>) {
        self.tenants.remove(pid);
    }

    fn update_ionice(&mut self, pid: Pid, class: IoPriorityClass, _env: &mut StackEnv<'_>) {
        if let Some(t) = self.tenants.get_mut(pid) {
            t.ionice = class;
        }
    }

    fn reserve(&mut self, hint: usize) {
        self.dispatch.reserve(hint);
        for sched in self.scheds.iter_mut().flatten() {
            sched.reserve(hint);
        }
    }

    fn park_buffers(&mut self, arena: &mut simkit::RunArena) {
        self.dispatch.park(arena);
    }

    fn adopt_buffers(&mut self, arena: &mut simkit::RunArena) {
        self.dispatch.adopt(arena);
    }

    fn submit(&mut self, bios: &[Bio], env: &mut StackEnv<'_>) -> SimDuration {
        debug_assert!(!bios.is_empty());
        let ionice = self
            .tenants
            .get(bios[0].tenant)
            .map(|t| t.ionice)
            .unwrap_or_default();
        let sq = self.sq_for(bios[0].core, ionice);
        let mut n = 0;
        for bio in bios {
            n += self.dispatch.stage(bio, sq, ionice.sla(), env);
        }
        // With an elevator, requests stage and dispatch under the budget.
        if let Some(sched) = self.scheds[sq.index()].as_mut() {
            for cmd in self.dispatch.unstage(sq) {
                sched.insert(StagedRequest::new(cmd, sq, env.now));
            }
            return env.costs.submit_cost(n) + self.run_queue(sq, env);
        }
        // One lock hold and (plugging) one doorbell cover the whole batch.
        let pushed = self.dispatch.push(sq, DoorbellMode::Batched, env);
        env.costs.submit_cost(n) + pushed.batch_cost(env.costs)
    }

    fn on_irq(&mut self, cq: CqId, core: u16, env: &mut StackEnv<'_>) -> SimDuration {
        // Release elevator tokens while the request map still knows each
        // request's direction, noting which queues to refill.
        let mut cost = self.dispatch.reap(cq, core, env, |entries, reqmap| {
            for e in entries {
                let sq = e.sq_id;
                if let Some(sched) = self.scheds[sq.index()].as_mut() {
                    sched.complete(reqmap.rq_is_read(e.host.rq_id).unwrap_or(true));
                    self.inflight[sq.index()] = self.inflight[sq.index()].saturating_sub(1);
                    if !self.refill.contains(&sq) {
                        self.refill.push(sq);
                    }
                }
            }
            CompletionMode::Batched
        });
        for i in 0..self.refill.len() {
            cost += self.run_queue(self.refill[i], env);
        }
        self.refill.clear();
        // Freed SQ entries: retry parked commands (kblockd requeue).
        self.dispatch.flush_parked(env);
        cost
    }

    fn on_watchdog(&mut self, env: &mut StackEnv<'_>) {
        self.dispatch.watchdog(env);
    }

    fn stats(&self) -> StackStats {
        self.dispatch.stats()
    }

    fn io_capacity(&self) -> usize {
        self.dispatch.io_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bio::{BioId, ReqFlags};
    use dd_nvme::{DeviceOutput, IoOpcode, NamespaceId, NvmeConfig, NvmeDevice};
    use simkit::{EventQueue, SimRng, SimTime};

    #[allow(clippy::type_complexity)] // Test-only scratch bundle.
    fn env_parts() -> (
        NvmeDevice,
        DeviceOutput,
        Vec<crate::bio::BioCompletion>,
        Vec<(Pid, u16)>,
        SimRng,
        dd_cpu::HostCosts,
    ) {
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 8;
        cfg.nr_cqs = 8;
        (
            NvmeDevice::new(cfg, 4),
            DeviceOutput::new(),
            Vec::new(),
            Vec::new(),
            SimRng::new(1),
            dd_cpu::HostCosts::default(),
        )
    }

    fn bio(id: u64, tenant: u64, core: u16, bytes: u64) -> Bio {
        Bio {
            id: BioId(id),
            tenant: Pid(tenant),
            core,
            nsid: NamespaceId(1),
            op: IoOpcode::Read,
            offset_blocks: id * 64,
            bytes,
            flags: ReqFlags::NONE,
            issued_at: SimTime::ZERO,
        }
    }

    fn task(pid: u64, core: u16, ionice: IoPriorityClass) -> TaskStruct {
        TaskStruct::new(Pid(pid), core, ionice, NamespaceId(1), "x")
    }

    #[test]
    fn static_mapping_is_per_core() {
        let s = VanillaBlkMq::new(BlkMqConfig::default(), 4, 8);
        assert_eq!(s.nr_queues(), 4);
        assert_eq!(s.sq_for(0, IoPriorityClass::BestEffort), SqId(0));
        assert_eq!(s.sq_for(3, IoPriorityClass::RealTime), SqId(3));
        assert_eq!(s.sq_for(5, IoPriorityClass::BestEffort), SqId(1));
    }

    #[test]
    fn partitioned_mapping_splits_by_sla() {
        let s = VanillaBlkMq::new(
            BlkMqConfig {
                nr_queues: Some(4),
                policy: QueuePolicy::Partitioned,
                ..BlkMqConfig::default()
            },
            4,
            8,
        );
        for core in 0..4 {
            let l = s.sq_for(core, IoPriorityClass::RealTime);
            let t = s.sq_for(core, IoPriorityClass::BestEffort);
            assert!(l.0 < 2, "L-tenants in first half, got {l}");
            assert!(t.0 >= 2 && t.0 < 4, "T-tenants in second half, got {t}");
        }
    }

    #[test]
    fn submit_pushes_and_rings() {
        let (mut dev, mut out, mut comps, mut migs, mut rng, costs) = env_parts();
        let mut s = VanillaBlkMq::new(BlkMqConfig::default(), 4, 8);
        let mut env = StackEnv {
            now: SimTime::ZERO,
            device: &mut dev,
            dev_out: &mut out,
            completions: &mut comps,
            migrations: &mut migs,
            rng: &mut rng,
            costs: &costs,
        };
        s.register_tenant(&task(1, 2, IoPriorityClass::BestEffort), &mut env);
        let d = s.submit(&[bio(1, 1, 2, 4096)], &mut env);
        assert!(d > SimDuration::ZERO);
        assert_eq!(s.stats().submitted_rqs, 1);
        assert_eq!(s.stats().doorbells, 1);
        // The command went to SQ 2 (core 2) and the doorbell woke the fetch
        // engine.
        assert!(!env.dev_out.events.is_empty());
    }

    #[test]
    fn large_bio_splits_into_multiple_commands() {
        let (mut dev, mut out, mut comps, mut migs, mut rng, costs) = env_parts();
        let mut s = VanillaBlkMq::new(BlkMqConfig::default(), 4, 8);
        let mut env = StackEnv {
            now: SimTime::ZERO,
            device: &mut dev,
            dev_out: &mut out,
            completions: &mut comps,
            migrations: &mut migs,
            rng: &mut rng,
            costs: &costs,
        };
        s.register_tenant(&task(1, 0, IoPriorityClass::BestEffort), &mut env);
        // 512 KiB = 4 × 128 KiB commands.
        s.submit(&[bio(1, 1, 0, 512 * 1024)], &mut env);
        assert_eq!(s.stats().submitted_rqs, 4);
        assert_eq!(s.stats().doorbells, 1, "plugging rings once per batch");
    }

    #[test]
    fn end_to_end_completion_returns_bio() {
        let (mut dev, mut out, mut comps, mut migs, mut rng, costs) = env_parts();
        let mut s = VanillaBlkMq::new(BlkMqConfig::default(), 4, 8);
        {
            let mut env = StackEnv {
                now: SimTime::ZERO,
                device: &mut dev,
                dev_out: &mut out,
                completions: &mut comps,
                migrations: &mut migs,
                rng: &mut rng,
                costs: &costs,
            };
            s.register_tenant(&task(1, 0, IoPriorityClass::RealTime), &mut env);
            s.submit(&[bio(7, 1, 0, 4096)], &mut env);
        }
        // Drive the device until the interrupt fires.
        let mut q = EventQueue::new();
        let mut irq = None;
        loop {
            for (at, ev) in out.events.drain(..) {
                q.push(at, ev);
            }
            if let Some(r) = out.irqs.pop() {
                irq = Some(r);
                break;
            }
            let Some((at, ev)) = q.pop() else { break };
            dev.handle_event(ev, at, &mut out);
        }
        let irq = irq.expect("completion must raise an interrupt");
        let mut env = StackEnv {
            now: irq.at,
            device: &mut dev,
            dev_out: &mut out,
            completions: &mut comps,
            migrations: &mut migs,
            rng: &mut rng,
            costs: &costs,
        };
        let cost = s.on_irq(irq.cq, irq.core, &mut env);
        assert!(cost > SimDuration::ZERO);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].bio.id, BioId(7));
        assert!(comps[0].completed_at > comps[0].bio.issued_at);
        assert_eq!(s.stats().completed_rqs, 1);
    }

    #[test]
    fn queue_full_parks_and_requeues_later() {
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 1;
        cfg.nr_cqs = 1;
        cfg.sq_depth = 2;
        let mut dev = NvmeDevice::new(cfg, 1);
        let mut out = DeviceOutput::new();
        let mut comps = Vec::new();
        let mut migs = Vec::new();
        let mut rng = SimRng::new(1);
        let costs = dd_cpu::HostCosts::default();
        let mut s = VanillaBlkMq::new(BlkMqConfig::default(), 1, 1);
        let mut env = StackEnv {
            now: SimTime::ZERO,
            device: &mut dev,
            dev_out: &mut out,
            completions: &mut comps,
            migrations: &mut migs,
            rng: &mut rng,
            costs: &costs,
        };
        s.register_tenant(&task(1, 0, IoPriorityClass::BestEffort), &mut env);
        // Three 1-block bios into a depth-2 queue: one parks.
        let bios: Vec<Bio> = (0..3).map(|i| bio(i, 1, 0, 4096)).collect();
        s.submit(&bios, &mut env);
        assert_eq!(s.stats().requeues, 1);
        assert_eq!(s.stats().submitted_rqs, 2);
    }

    #[test]
    fn elevator_stages_and_respects_budget() {
        use crate::iosched::SchedKind;
        let (mut dev, mut out, mut comps, mut migs, mut rng, costs) = env_parts();
        let mut s = VanillaBlkMq::new(
            BlkMqConfig {
                scheduler: SchedKind::Kyber,
                hw_budget: 4,
                ..BlkMqConfig::default()
            },
            4,
            8,
        );
        assert_eq!(s.scheduler_name(), "kyber");
        let mut env = StackEnv {
            now: SimTime::ZERO,
            device: &mut dev,
            dev_out: &mut out,
            completions: &mut comps,
            migrations: &mut migs,
            rng: &mut rng,
            costs: &costs,
        };
        s.register_tenant(&task(1, 0, IoPriorityClass::BestEffort), &mut env);
        // 10 bios into a budget-4 queue: only 4 reach the device.
        let bios: Vec<Bio> = (0..10).map(|i| bio(i, 1, 0, 4096)).collect();
        s.submit(&bios, &mut env);
        assert_eq!(env.device.sq_stats(SqId(0)).submitted_total, 4);
        assert_eq!(s.stats().submitted_rqs, 4);
    }

    #[test]
    fn elevator_refills_on_completion() {
        use crate::iosched::SchedKind;
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 1;
        cfg.nr_cqs = 1;
        let mut dev = NvmeDevice::new(cfg, 1);
        let mut out = DeviceOutput::new();
        let mut comps = Vec::new();
        let mut migs = Vec::new();
        let mut rng = SimRng::new(1);
        let costs = dd_cpu::HostCosts::default();
        let mut s = VanillaBlkMq::new(
            BlkMqConfig {
                scheduler: SchedKind::MqDeadline,
                hw_budget: 2,
                ..BlkMqConfig::default()
            },
            1,
            1,
        );
        {
            let mut env = StackEnv {
                now: SimTime::ZERO,
                device: &mut dev,
                dev_out: &mut out,
                completions: &mut comps,
                migrations: &mut migs,
                rng: &mut rng,
                costs: &costs,
            };
            s.register_tenant(&task(1, 0, IoPriorityClass::BestEffort), &mut env);
            let bios: Vec<Bio> = (0..5).map(|i| bio(i, 1, 0, 4096)).collect();
            s.submit(&bios, &mut env);
            assert_eq!(env.device.sq_stats(SqId(0)).submitted_total, 2);
        }
        // Drive to the interrupt and complete: the elevator must refill.
        let mut q = EventQueue::new();
        let irq = loop {
            for (at, ev) in out.events.drain(..) {
                q.push(at, ev);
            }
            if let Some(r) = out.irqs.pop() {
                break r;
            }
            let (at, ev) = q.pop().expect("device stalled");
            dev.handle_event(ev, at, &mut out);
        };
        let mut env = StackEnv {
            now: irq.at,
            device: &mut dev,
            dev_out: &mut out,
            completions: &mut comps,
            migrations: &mut migs,
            rng: &mut rng,
            costs: &costs,
        };
        s.on_irq(irq.cq, irq.core, &mut env);
        assert!(
            env.device.sq_stats(SqId(0)).submitted_total > 2,
            "completions must refill the dispatch window"
        );
    }

    #[test]
    fn contention_on_shared_nsq() {
        let (mut dev, mut out, mut comps, mut migs, mut rng, costs) = env_parts();
        // Two cores sharing one NSQ (nr_queues = 1).
        let mut s = VanillaBlkMq::new(
            BlkMqConfig {
                nr_queues: Some(1),
                policy: QueuePolicy::Static,
                ..BlkMqConfig::default()
            },
            4,
            8,
        );
        let mut env = StackEnv {
            now: SimTime::ZERO,
            device: &mut dev,
            dev_out: &mut out,
            completions: &mut comps,
            migrations: &mut migs,
            rng: &mut rng,
            costs: &costs,
        };
        s.register_tenant(&task(1, 0, IoPriorityClass::BestEffort), &mut env);
        s.register_tenant(&task(2, 1, IoPriorityClass::BestEffort), &mut env);
        // Tenant 1 submits a 32-command batch at t=0 (long lock hold)...
        let batch: Vec<Bio> = (0..32).map(|i| bio(i, 1, 0, 131072)).collect();
        s.submit(&batch, &mut env);
        // ...tenant 2 submits at the same instant and must spin.
        s.submit(&[bio(100, 2, 1, 4096)], &mut env);
        let st = s.stats();
        assert!(st.lock_contended >= 1, "stats: {st:?}");
        assert!(st.lock_wait_total > SimDuration::ZERO);
    }
}
