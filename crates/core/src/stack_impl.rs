//! The Daredevil storage stack: blex + troute + nqreg wired together.
//!
//! The submission path replaces blk-mq's static SQ→HQ→NQ walk with a routing
//! decision (`troute.route`, Algorithm 1) per request: any core can submit
//! to any NSQ, which is full connectivity between cores and NQs. The
//! completion path dispatches per NCQ priority: high-priority NCQs get the
//! per-request fast path, low-priority NCQs the kernel-default batched path
//! (§5.3's SLA-aware I/O service dispatching).
//!
//! One modelling note: entries pushed within a single submission call all
//! become device-visible at the call's instant, so the immediate-vs-batched
//! *doorbell* half of the dispatching shows up as CPU cost (one MMIO write
//! per L-request) rather than visibility timing; the completion half carries
//! the latency effect, matching where the paper's gains come from.

use dd_nvme::{CqId, NvmeDevice};
use simkit::SimDuration;

use blkstack::dispatch::Dispatch;
use blkstack::stack::{RouteStats, StackEnv, StorageStack};
use blkstack::{Bio, Capabilities, IoPriorityClass, Pid, TaskStruct};

use crate::config::{DaredevilConfig, Variant};
use crate::nproxy::Priority;
use crate::nqreg::NqReg;
use crate::troute::Troute;

/// The Daredevil kernel storage stack.
pub struct DaredevilStack {
    cfg: DaredevilConfig,
    nqreg: NqReg,
    troute: Troute,
    dispatch: Dispatch,
}

impl DaredevilStack {
    /// Builds the stack over `device`: nqreg's NQ table pairs each NSQ
    /// with the device's NCQ for it, and `cfg` names the ablation variant
    /// and the built-in policy.
    pub fn new(cfg: DaredevilConfig, device: &NvmeDevice) -> Self {
        DaredevilStack {
            nqreg: NqReg::new(&cfg, device),
            troute: Troute::new(),
            dispatch: Dispatch::new(device.nr_sqs()),
            cfg,
        }
    }

    /// The router (read-only introspection).
    pub fn troute(&self) -> &Troute {
        &self.troute
    }
}

impl StorageStack for DaredevilStack {
    fn name(&self) -> &'static str {
        self.cfg.stack_name()
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::daredevil()
    }

    fn dispatch(&mut self) -> &mut Dispatch {
        &mut self.dispatch
    }

    fn register_tenant(&mut self, task: &TaskStruct, env: &mut StackEnv<'_>) {
        self.troute
            .register(task, &mut self.nqreg, env.device, self.dispatch.locks());
    }

    fn update_ionice(&mut self, pid: Pid, class: IoPriorityClass, env: &mut StackEnv<'_>) {
        self.troute.update_ionice(
            pid,
            class,
            &mut self.nqreg,
            env.device,
            self.dispatch.locks(),
        );
    }

    fn migrate_tenant(&mut self, pid: Pid, core: u16, _env: &mut StackEnv<'_>) {
        self.troute.migrate(pid, core, &mut self.nqreg);
    }

    fn submit(&mut self, bios: &[Bio], env: &mut StackEnv<'_>) -> SimDuration {
        debug_assert!(!bios.is_empty());
        // Route and stage every bio, then push each touched NSQ once, in
        // first-touch order, so its lock is taken once per batch.
        let mut n = 0;
        for bio in bios {
            let locks = self.dispatch.locks();
            let (base, sq) = if self.cfg.variant == Variant::Base {
                // dare-base: the decoupled layer only — requests round-robin
                // across the NQs of their SLA group per request, with no
                // tenant defaults and no merit scheduling (§7.3).
                let base = self
                    .troute
                    .route_of(bio.tenant)
                    .map_or(Priority::Low, |r| r.base_prio);
                let prio = if base == Priority::Low && bio.flags.is_outlier() {
                    Priority::High
                } else {
                    base
                };
                (base, self.nqreg.schedule(prio, 1, env.device, locks))
            } else {
                self.troute
                    .route(bio, env.now, &mut self.nqreg, env.device, locks)
            };
            // Tenant base priority doubles as the trace SLA class (High
            // base priority == latency-sensitive ionice == L-tenant).
            let sla = if base == Priority::High {
                simkit::Sla::L
            } else {
                simkit::Sla::T
            };
            n += self.dispatch.stage(bio, sq, sla, env);
        }

        let mut cost = env.costs.submit_cost(n);
        while let Some(sq) = self.dispatch.next_staged() {
            // Submission half of the I/O service dispatching: the policy
            // picks the doorbell discipline per NSQ batch (the default
            // policy rings per request for high-priority NSQs under the
            // full variant, §5.3).
            let mode = self.nqreg.doorbell(sq, self.dispatch.staged(sq) as u64);
            let p = self.dispatch.push(sq, mode, env);
            cost += p.wait + p.hold + p.remote_cost(env.costs) + env.costs.doorbell * p.rings;
        }
        cost
    }

    fn on_irq(&mut self, cq: CqId, core: u16, env: &mut StackEnv<'_>) -> SimDuration {
        // Completion half of the I/O service dispatching: per-request vs
        // batched reap is the policy's call (default: per-request for
        // high-priority NCQs under the full variant, §5.3).
        self.dispatch.reap(cq, core, env, |entries, _| {
            self.nqreg.reap(cq, entries.len() as u64)
        })
    }

    fn route_stats(&self) -> RouteStats {
        self.troute.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blkstack::bio::{BioId, ReqFlags};
    use dd_nvme::{DeviceOutput, IoOpcode, NamespaceId, NvmeConfig, NvmeDevice, SqId};
    use simkit::{EventQueue, SimRng, SimTime};

    /// 8 NSQs of depth 4, so the stack's MRU budget is 4 and the merit
    /// heaps re-sort within these short tests.
    fn device() -> NvmeDevice {
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 8;
        cfg.nr_cqs = 8;
        cfg.sq_depth = 4;
        NvmeDevice::new(cfg, 4)
    }

    fn bio(id: u64, tenant: u64, core: u16, bytes: u64, flags: ReqFlags) -> Bio {
        Bio {
            id: BioId(id),
            tenant: Pid(tenant),
            core,
            nsid: NamespaceId(1),
            op: IoOpcode::Read,
            offset_blocks: id * 64,
            bytes,
            flags,
            ioprio: IoPriorityClass::BestEffort,
            issued_at: SimTime::ZERO,
        }
    }

    fn task(pid: u64, core: u16, ionice: IoPriorityClass) -> TaskStruct {
        TaskStruct::new(Pid(pid), core, ionice, NamespaceId(1), "x")
    }

    struct Harness {
        dev: NvmeDevice,
        out: DeviceOutput,
        comps: Vec<blkstack::BioCompletion>,
        migs: Vec<(Pid, u16)>,
        rng: SimRng,
        costs: dd_cpu::HostCosts,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                dev: device(),
                out: DeviceOutput::new(),
                comps: Vec::new(),
                migs: Vec::new(),
                rng: SimRng::new(1),
                costs: dd_cpu::HostCosts::default(),
            }
        }

        fn env(&mut self, now: SimTime) -> StackEnv<'_> {
            StackEnv {
                now,
                device: &mut self.dev,
                dev_out: &mut self.out,
                completions: &mut self.comps,
                migrations: &mut self.migs,
                rng: &mut self.rng,
                costs: &self.costs,
            }
        }
    }

    fn stack(variant: Variant, dev: &NvmeDevice) -> DaredevilStack {
        let cfg = DaredevilConfig {
            variant,
            ..DaredevilConfig::default()
        };
        DaredevilStack::new(cfg, dev)
    }

    #[test]
    fn nq_level_separation_holds() {
        let mut h = Harness::new();
        let mut s = stack(Variant::Full, &h.dev);
        let mut env = h.env(SimTime::ZERO);
        s.register_tenant(&task(1, 0, IoPriorityClass::RealTime), &mut env);
        s.register_tenant(&task(2, 0, IoPriorityClass::BestEffort), &mut env);
        // L and T submit from the SAME core — the vanilla stack would
        // intertwine them in NSQ 0; Daredevil must not.
        s.submit(&[bio(1, 1, 0, 4096, ReqFlags::NONE)], &mut env);
        s.submit(&[bio(2, 2, 0, 131072, ReqFlags::NONE)], &mut env);
        let mut l_sqs = Vec::new();
        let mut t_sqs = Vec::new();
        for i in 0..8u16 {
            let st = env.device.sq_stats(SqId(i));
            if st.submitted_total > 0 {
                if i < 4 {
                    l_sqs.push(i);
                } else {
                    t_sqs.push(i);
                }
            }
        }
        assert_eq!(l_sqs.len(), 1, "one high-group NSQ used for L");
        assert_eq!(t_sqs.len(), 1, "one low-group NSQ used for T");
    }

    #[test]
    fn end_to_end_completion() {
        let mut h = Harness::new();
        let mut s = stack(Variant::Full, &h.dev);
        {
            let mut env = h.env(SimTime::ZERO);
            s.register_tenant(&task(1, 0, IoPriorityClass::RealTime), &mut env);
            s.submit(&[bio(9, 1, 0, 4096, ReqFlags::NONE)], &mut env);
        }
        // Drive device to the interrupt.
        let mut q = EventQueue::new();
        let irq = loop {
            for (at, ev) in h.out.events.drain(..) {
                q.push(at, ev);
            }
            if let Some(r) = h.out.irqs.pop() {
                break r;
            }
            let (at, ev) = q.pop().expect("device stalled");
            h.dev.handle_event(ev, at, &mut h.out);
        };
        let mut env = StackEnv {
            now: irq.at,
            device: &mut h.dev,
            dev_out: &mut h.out,
            completions: &mut h.comps,
            migrations: &mut h.migs,
            rng: &mut h.rng,
            costs: &h.costs,
        };
        s.on_irq(irq.cq, irq.core, &mut env);
        assert_eq!(h.comps.len(), 1);
        assert_eq!(h.comps[0].bio.id, BioId(9));
        assert_eq!(s.dispatch().stats().completed_rqs, 1);
    }

    #[test]
    fn full_variant_rings_per_l_request() {
        let mut h = Harness::new();
        let mut s = stack(Variant::Full, &h.dev);
        let mut env = h.env(SimTime::ZERO);
        s.register_tenant(&task(1, 0, IoPriorityClass::RealTime), &mut env);
        let bios: Vec<Bio> = (0..4).map(|i| bio(i, 1, 0, 4096, ReqFlags::NONE)).collect();
        s.submit(&bios, &mut env);
        assert_eq!(
            s.dispatch().stats().doorbells,
            4,
            "immediate per-request doorbells"
        );
        // T batch gets one doorbell.
        s.register_tenant(&task(2, 1, IoPriorityClass::BestEffort), &mut env);
        let bios: Vec<Bio> = (10..14)
            .map(|i| bio(i, 2, 1, 131072, ReqFlags::NONE))
            .collect();
        s.submit(&bios, &mut env);
        assert_eq!(s.dispatch().stats().doorbells, 5, "batched T doorbell");
    }

    #[test]
    fn base_variant_round_robins_and_batches() {
        let mut h = Harness::new();
        let mut s = stack(Variant::Base, &h.dev);
        let mut env = h.env(SimTime::ZERO);
        s.register_tenant(&task(1, 0, IoPriorityClass::RealTime), &mut env);
        // 8 L bios round-robin across the 4 high-group NSQs: two commands
        // per NSQ, one batched doorbell per NSQ (not per request).
        let bios: Vec<Bio> = (0..8).map(|i| bio(i, 1, 0, 4096, ReqFlags::NONE)).collect();
        s.submit(&bios, &mut env);
        for q in 0..4u16 {
            assert_eq!(
                env.device.sq_stats(SqId(q)).submitted_total,
                2,
                "per-request round-robin must spread evenly"
            );
        }
        assert_eq!(
            s.dispatch().stats().doorbells,
            4,
            "one batched doorbell per NSQ"
        );
        assert_eq!(s.name(), "dare-base");
    }

    #[test]
    fn base_variant_still_separates_priorities() {
        // dare-base routes by SLA group (round-robin inside): L and T must
        // still never share an NSQ.
        let mut h = Harness::new();
        let mut s = stack(Variant::Base, &h.dev);
        let mut env = h.env(SimTime::ZERO);
        for p in 0..4u64 {
            let ionice = if p % 2 == 0 {
                IoPriorityClass::RealTime
            } else {
                IoPriorityClass::BestEffort
            };
            s.register_tenant(&task(p, p as u16 % 4, ionice), &mut env);
        }
        for p in 0..4u64 {
            s.submit(&[bio(p, p, p as u16 % 4, 4096, ReqFlags::NONE)], &mut env);
        }
        // Tenants 0,2 are L (high group: SQs 0-3); 1,3 are T (SQs 4-7).
        let high_used: u64 = (0..4u16)
            .map(|i| env.device.sq_stats(SqId(i)).submitted_total)
            .sum();
        let low_used: u64 = (4..8u16)
            .map(|i| env.device.sq_stats(SqId(i)).submitted_total)
            .sum();
        assert_eq!(high_used, 2, "two L bios in high group");
        assert_eq!(low_used, 2, "two T bios in low group");
    }

    #[test]
    fn outlier_sync_requests_escape_low_group() {
        let mut h = Harness::new();
        let mut s = stack(Variant::Full, &h.dev);
        let mut env = h.env(SimTime::ZERO);
        s.register_tenant(&task(2, 0, IoPriorityClass::BestEffort), &mut env);
        // A T-tenant's fsync-like request must land in the high group.
        s.submit(&[bio(1, 2, 0, 4096, ReqFlags::SYNC)], &mut env);
        let high_used: u64 = (0..4u16)
            .map(|i| env.device.sq_stats(SqId(i)).submitted_total)
            .sum();
        assert_eq!(high_used, 1);
    }

    #[test]
    fn multi_namespace_routing_is_uniform() {
        // Two tenants with identical SLAs on different namespaces must be
        // treated identically: same priority group, device-level proxies.
        let mut cfg = NvmeConfig::sv_m().with_namespaces(4);
        cfg.nr_sqs = 8;
        cfg.nr_cqs = 8;
        cfg.sq_depth = 4;
        let dev = NvmeDevice::new(cfg, 4);
        let mut h = Harness::new();
        h.dev = dev;
        let mut s = stack(Variant::Full, &h.dev);
        let mut env = h.env(SimTime::ZERO);
        let mut t1 = task(1, 0, IoPriorityClass::RealTime);
        t1.nsid = NamespaceId(1);
        let mut t2 = task(2, 1, IoPriorityClass::RealTime);
        t2.nsid = NamespaceId(3);
        s.register_tenant(&t1, &mut env);
        s.register_tenant(&t2, &mut env);
        let mut b1 = bio(1, 1, 0, 4096, ReqFlags::NONE);
        b1.nsid = NamespaceId(1);
        let mut b2 = bio(2, 2, 1, 4096, ReqFlags::NONE);
        b2.nsid = NamespaceId(3);
        s.submit(&[b1], &mut env);
        s.submit(&[b2], &mut env);
        let high_used: u64 = (0..4u16)
            .map(|i| env.device.sq_stats(SqId(i)).submitted_total)
            .sum();
        assert_eq!(high_used, 2, "both L tenants in the high group");
    }

    #[test]
    fn capabilities_are_all_four() {
        let h = Harness::new();
        let s = stack(Variant::Full, &h.dev);
        let c = s.capabilities();
        assert!(c.hardware_independent && c.nq_exploitation);
        assert!(c.cross_core_autonomy && c.multi_namespace);
    }
}
