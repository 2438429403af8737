//! Virtio-blk guest I/O layer — the paper's §8.1 future-work sketch.
//!
//! Applications inside guest VMs are invisible to the host kernel: their
//! I/O reaches the host through virtqueues (VQs), and the vhost worker
//! submits on behalf of the *VM process*, whose single ionice value says
//! nothing about the guest tenants' SLAs. That is why the paper's Daredevil
//! "currently does not support VMs" — and why its §8.1 sketches the fix:
//! give the guest virtio stack the same decoupled structure, with each VQ
//! serving one SLA, and let the hypervisor/host keep the VQ→NQ mappings
//! SLA-consistent.
//!
//! [`VirtioBlk`] implements both sides of that comparison as a layer
//! wrapping any host [`StorageStack`]:
//!
//! * [`VqMode::Naive`] — one best-effort VQ per VM: every guest request is
//!   re-attributed to the VM's vhost identity, so the host stack (even
//!   Daredevil) sees a single T-tenant per VM and guest L-requests drown in
//!   guest T-traffic;
//! * [`VqMode::SlaAware`] — per-SLA VQs whose vhost identities carry
//!   real-time/best-effort ionice, so an SLA-aware host stack routes guest
//!   L- and T-requests to different NQs end to end.
//!
//! VM identity is derived from the namespace a bio targets (one namespace
//! = one VM disk), which lets the multi-namespace scenarios of the testbed
//! double as multi-VM scenarios. The guest tenant's SLA is the ionice class
//! its bio carries ([`Bio::ioprio`]), so the layer keeps no guest table:
//! guest ionice changes and vCPU migrations never reach the host.

#![warn(missing_docs)]

use blkstack::dispatch::Dispatch;
use blkstack::stack::{IoBounds, RouteStats, StackEnv, StorageStack};
use blkstack::{Bio, Capabilities, IoPriorityClass, Pid, ReqFlags, TaskStruct};
use dd_nvme::{CqId, NamespaceId};
use simkit::{DenseMap, SimDuration};

/// How guest requests map onto virtqueues.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VqMode {
    /// One best-effort VQ per VM: guest SLAs are invisible to the host.
    Naive,
    /// Per-SLA VQs with SLA-consistent vhost identities (§8.1's design).
    SlaAware,
}

/// Per-request virtio/vhost overhead (VQ kick, descriptor translation,
/// vhost handoff).
pub const VIRTIO_PER_RQ: SimDuration = SimDuration::from_micros(2);

/// Offset for synthesized vhost proxy pids, far above tenant pids.
const PROXY_PID_BASE: u64 = 1 << 32;

/// The virtio-blk layer over a host storage stack.
pub struct VirtioBlk {
    inner: Box<dyn StorageStack>,
    mode: VqMode,
    /// vhost proxy identities already registered with the host stack,
    /// keyed by `vm * 2 + is_latency_class`, which is also the pid offset.
    proxies: DenseMap<u64, Pid>,
    /// What the rewrite replaced in each in-flight request (its guest
    /// tenant, flags and ionice class), keyed by bio id.
    in_flight: DenseMap<u64, (Pid, ReqFlags, IoPriorityClass)>,
    /// The batch being forwarded, rewritten to its vhost identity; reused
    /// across submits.
    rewritten: Vec<Bio>,
    /// Requests forwarded through the layer.
    forwarded: u64,
}

impl VirtioBlk {
    /// Wraps a host stack.
    pub fn new(inner: Box<dyn StorageStack>, mode: VqMode) -> Self {
        VirtioBlk {
            inner,
            mode,
            proxies: DenseMap::new(),
            in_flight: DenseMap::new(),
            // dd-alloc-allowlist: empty Vec, sized once by `reserve`.
            rewritten: Vec::new(),
            forwarded: 0,
        }
    }

    /// The wrapping mode.
    pub fn mode(&self) -> VqMode {
        self.mode
    }

    /// Requests forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// The ionice class of the vhost identity serving a guest class.
    fn vhost_class(&self, guest: IoPriorityClass) -> IoPriorityClass {
        match self.mode {
            VqMode::SlaAware if guest.is_latency_sensitive() => IoPriorityClass::RealTime,
            // The VM process is best-effort; guest SLAs do not escape.
            _ => IoPriorityClass::BestEffort,
        }
    }

    /// The vhost proxy identity of `vm`'s `class` queue, creating and
    /// registering it with the host stack on first use.
    fn proxy_for(
        &mut self,
        vm: NamespaceId,
        class: IoPriorityClass,
        core: u16,
        env: &mut StackEnv<'_>,
    ) -> Pid {
        let key = u64::from(vm.0) * 2 + u64::from(class.is_latency_sensitive());
        if let Some(&pid) = self.proxies.get(key) {
            return pid;
        }
        let pid = Pid(PROXY_PID_BASE + key);
        let task = TaskStruct::new(pid, core, class, vm, "vhost");
        self.inner.register_tenant(&task, env);
        self.proxies.insert(key, pid);
        pid
    }

    /// Restores the guest tenant, flags and class on completions the inner
    /// stack appended during the last call. The rewrite changes nothing
    /// else, and host stacks hand each bio back as they got it.
    fn restore_completions(&mut self, env: &mut StackEnv<'_>, from: usize) {
        for c in env.completions[from..].iter_mut() {
            if let Some((tenant, flags, ioprio)) = self.in_flight.remove(c.bio.id.0) {
                // Keep the inner timestamps; restore identity and metadata.
                c.bio.tenant = tenant;
                c.bio.flags = flags;
                c.bio.ioprio = ioprio;
            }
        }
    }
}

impl StorageStack for VirtioBlk {
    fn name(&self) -> &'static str {
        match self.mode {
            VqMode::Naive => "virtio-naive",
            VqMode::SlaAware => "virtio-sla",
        }
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn dispatch(&mut self) -> &mut Dispatch {
        // The host stack owns the dispatch core; the vq crossing adds no
        // recovery state or recyclable buffers of its own.
        self.inner.dispatch()
    }

    fn submit(&mut self, bios: &[Bio], env: &mut StackEnv<'_>) -> SimDuration {
        debug_assert!(!bios.is_empty());
        let class = self.vhost_class(bios[0].ioprio);
        let proxy = self.proxy_for(bios[0].nsid, class, bios[0].core, env);
        // Rewrite the batch to the vhost identity; remember what changes.
        self.rewritten.clear();
        for bio in bios {
            self.in_flight
                .insert(bio.id.0, (bio.tenant, bio.flags, bio.ioprio));
            self.forwarded += 1;
            let mut b = *bio;
            b.tenant = proxy;
            b.ioprio = class;
            // In naive mode the guest's REQ_SYNC/REQ_META hints are also
            // lost at the virtio boundary (virtio-blk has no priority
            // plumbing); the SLA-aware design forwards them.
            if self.mode == VqMode::Naive {
                b.flags = ReqFlags::NONE;
            }
            self.rewritten.push(b);
        }
        let before = env.completions.len();
        let inner_cost = self.inner.submit(&self.rewritten, env);
        self.restore_completions(env, before);
        inner_cost + VIRTIO_PER_RQ * bios.len() as u64
    }

    fn on_irq(&mut self, cq: CqId, core: u16, env: &mut StackEnv<'_>) -> SimDuration {
        let before = env.completions.len();
        let cost = self.inner.on_irq(cq, core, env);
        self.restore_completions(env, before);
        // The completion also crosses the virtio boundary (irqfd → guest).
        let crossed = (env.completions.len() - before) as u64;
        cost + VIRTIO_PER_RQ * crossed
    }

    fn on_tick(&mut self, env: &mut StackEnv<'_>) -> Option<SimDuration> {
        self.inner.on_tick(env)
    }

    fn reserve(&mut self, bounds: IoBounds) {
        self.inner.reserve(bounds);
        // A guest bio keeps its map entry while in flight; the scratch
        // holds one submission.
        self.in_flight.reserve(bounds.inflight);
        self.rewritten.reserve(bounds.batch);
    }

    fn route_stats(&self) -> RouteStats {
        self.inner.route_stats()
    }

    fn io_capacity(&self) -> usize {
        self.inner.io_capacity() + self.in_flight.capacity() + self.rewritten.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blkstack::bio::BioId;
    use daredevil::{DaredevilConfig, DaredevilStack};
    use dd_nvme::{DeviceOutput, IoOpcode, NvmeConfig, NvmeDevice, SqId};
    use simkit::SimRng;
    use simkit::SimTime;

    /// 8 NSQs of depth 4: the inner Daredevil stack's MRU budget is 4.
    fn device() -> NvmeDevice {
        let mut cfg = NvmeConfig::sv_m().with_namespaces(2);
        cfg.nr_sqs = 8;
        cfg.nr_cqs = 8;
        cfg.sq_depth = 4;
        NvmeDevice::new(cfg, 4)
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

    fn virtio(mode: VqMode, dev: &NvmeDevice) -> VirtioBlk {
        let inner = DaredevilStack::new(DaredevilConfig::default(), dev);
        VirtioBlk::new(Box::new(inner), mode)
    }

    /// A guest bio of tenant `tenant` in VM `vm`, issued under `ioprio`.
    fn bio(id: u64, tenant: u64, vm: u32, bytes: u64, ioprio: IoPriorityClass) -> Bio {
        Bio {
            id: BioId(id),
            tenant: Pid(tenant),
            core: 0,
            nsid: NamespaceId(vm),
            op: IoOpcode::Read,
            offset_blocks: id * 64,
            bytes,
            flags: ReqFlags::NONE,
            ioprio,
            issued_at: SimTime::ZERO,
        }
    }

    fn high_group_usage(dev: &NvmeDevice) -> u64 {
        (0..4u16)
            .map(|i| dev.sq_stats(SqId(i)).submitted_total)
            .sum()
    }

    #[test]
    fn naive_mode_hides_guest_slas() {
        let mut h = Harness::new();
        let mut s = virtio(VqMode::Naive, &h.dev);
        let mut env = h.env(SimTime::ZERO);
        // Guest L and guest T both funnel through the best-effort vhost
        // identity: the host's high-priority group stays unused.
        s.submit(&[bio(1, 1, 1, 4096, IoPriorityClass::RealTime)], &mut env);
        s.submit(
            &[bio(2, 2, 1, 131072, IoPriorityClass::BestEffort)],
            &mut env,
        );
        assert_eq!(
            high_group_usage(env.device),
            0,
            "guest L drowned in T class"
        );
    }

    #[test]
    fn sla_aware_mode_separates_guest_classes() {
        let mut h = Harness::new();
        let mut s = virtio(VqMode::SlaAware, &h.dev);
        let mut env = h.env(SimTime::ZERO);
        s.submit(&[bio(1, 1, 1, 4096, IoPriorityClass::RealTime)], &mut env);
        s.submit(
            &[bio(2, 2, 1, 131072, IoPriorityClass::BestEffort)],
            &mut env,
        );
        assert_eq!(
            high_group_usage(env.device),
            1,
            "guest L must reach the host high-priority group"
        );
    }

    #[test]
    fn completions_restore_guest_identity() {
        let mut h = Harness::new();
        let mut s = virtio(VqMode::SlaAware, &h.dev);
        {
            let mut env = h.env(SimTime::ZERO);
            s.submit(&[bio(7, 1, 1, 4096, IoPriorityClass::RealTime)], &mut env);
        }
        // Drive to the interrupt.
        let mut q = simkit::EventQueue::new();
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
        assert_eq!(
            h.comps[0].bio.tenant,
            Pid(1),
            "completion must carry the guest tenant, not the vhost proxy"
        );
        assert_eq!(s.forwarded(), 1);
    }

    #[test]
    fn drive_to_completion_empties_in_flight() {
        let mut h = Harness::new();
        let mut s = virtio(VqMode::SlaAware, &h.dev);
        s.reserve(IoBounds {
            inflight: 256,
            batch: 16,
        });
        let cap = s.io_capacity();
        assert!(
            cap >= s.inner.io_capacity() + 256 + 16,
            "io_capacity must count the in-flight map and the rewrite scratch"
        );
        {
            let mut env = h.env(SimTime::ZERO);
            s.submit(&[bio(1, 1, 1, 4096, IoPriorityClass::RealTime)], &mut env);
            let batch: Vec<Bio> = (2..10)
                .map(|id| bio(id, 2, 2, 131072, IoPriorityClass::BestEffort))
                .collect();
            s.submit(&batch, &mut env);
        }
        assert_eq!(s.in_flight.len(), 9);
        // Drive device events and interrupts until nothing is pending.
        let mut q = simkit::EventQueue::new();
        loop {
            for (at, ev) in h.out.events.drain(..) {
                q.push(at, ev);
            }
            if let Some(irq) = h.out.irqs.pop() {
                let mut env = h.env(irq.at);
                s.on_irq(irq.cq, irq.core, &mut env);
                continue;
            }
            let Some((at, ev)) = q.pop() else { break };
            h.dev.handle_event(ev, at, &mut h.out);
        }
        assert_eq!(h.comps.len(), 9, "every forwarded bio completes");
        assert!(h.comps.iter().all(|c| c.bio.tenant.0 < PROXY_PID_BASE));
        assert!(s.in_flight.is_empty(), "no guest identity is left behind");
        assert_eq!(s.io_capacity(), cap, "the run stayed within its reserve");
    }

    #[test]
    fn vms_get_distinct_proxies() {
        let mut h = Harness::new();
        let mut s = virtio(VqMode::SlaAware, &h.dev);
        let mut env = h.env(SimTime::ZERO);
        s.submit(&[bio(1, 1, 1, 4096, IoPriorityClass::RealTime)], &mut env);
        s.submit(&[bio(2, 2, 2, 4096, IoPriorityClass::RealTime)], &mut env);
        assert_eq!(s.proxies.len(), 2, "one L proxy per VM");
    }

    #[test]
    fn naive_mode_strips_outlier_flags() {
        let mut h = Harness::new();
        let mut s = virtio(VqMode::Naive, &h.dev);
        let mut env = h.env(SimTime::ZERO);
        // A guest fsync: in naive mode it cannot escape to the high group.
        let fsync = Bio {
            flags: ReqFlags::SYNC,
            ..bio(1, 2, 1, 4096, IoPriorityClass::BestEffort)
        };
        s.submit(&[fsync], &mut env);
        assert_eq!(high_group_usage(env.device), 0);
        // In SLA-aware mode the same request escapes.
        let mut h2 = Harness::new();
        let mut s2 = virtio(VqMode::SlaAware, &h2.dev);
        let mut env2 = h2.env(SimTime::ZERO);
        s2.submit(&[fsync], &mut env2);
        assert_eq!(high_group_usage(env2.device), 1);
    }

    #[test]
    fn virtio_overhead_charged() {
        let mut h = Harness::new();
        let mut s = virtio(VqMode::SlaAware, &h.dev);
        let mut env = h.env(SimTime::ZERO);
        let cost = s.submit(&[bio(1, 1, 1, 4096, IoPriorityClass::RealTime)], &mut env);
        assert!(cost >= VIRTIO_PER_RQ, "virtio handoff must cost CPU");
    }
}
