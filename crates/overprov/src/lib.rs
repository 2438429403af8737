//! The static NQ-overprovision baseline (FlashShare [OSDI '18] /
//! D2FQ [FAST '21] style).
//!
//! These systems achieve NQ-level separation by *statically* giving every
//! core more than one NQ — one per SLA class — and relying on device-side
//! support (WRR arbitration, firmware hints) to treat the classes
//! differently. Concretely here: core `c` owns an L-queue (`2c`, WRR
//! high class) and a T-queue (`2c+1`, WRR low class); requests route by the
//! issuing tenant's ionice within the core's own pair, outliers
//! (sync/metadata requests of T-tenants) take the L-queue.
//!
//! The design's two structural limits, which the reproduction target's
//! Table 1 and §3.2 call out, follow directly:
//!
//! * **hardware dependence** — it refuses devices without WRR arbitration
//!   (construction checks the device config);
//! * **no flexible NQ exploitation** — an I/O-heavy core can overload its
//!   own pair while neighbours' queues idle; nothing can move traffic
//!   across the static core→pair bindings.

#![warn(missing_docs)]

use dd_nvme::{Arbitration, CqId, NvmeDevice, SqId, SqPriorityClass};
use simkit::{DenseMap, SimDuration};

use blkstack::dispatch::Dispatch;
use blkstack::stack::{CompletionMode, DoorbellMode, StackEnv, StackStats, StorageStack};
use blkstack::{Bio, Capabilities, IoPriorityClass, Pid, TaskStruct};

#[derive(Clone, Copy, Debug)]
struct TenantState {
    ionice: IoPriorityClass,
}

/// The static-overprovision storage stack.
///
/// Its isolation comes from device-side WRR arbitration between the static
/// queue classes, so the host service routines stay kernel-default:
/// batched doorbells and batched reaps everywhere.
pub struct OverprovStack {
    /// Number of core pairs (= cores served).
    nr_pairs: u16,
    tenants: DenseMap<Pid, TenantState>,
    dispatch: Dispatch,
    /// Whether the device's queues have been WRR-classified yet.
    classified: bool,
}

impl OverprovStack {
    /// Creates the stack for `nr_cores` cores over `device_sqs` NSQs.
    ///
    /// Each core needs a queue pair, so at most `device_sqs / 2` cores get
    /// their own; extra cores share pairs modulo.
    pub fn new(nr_cores: u16, device_sqs: u16) -> Self {
        assert!(
            device_sqs >= 2,
            "overprovision needs at least one queue pair"
        );
        let nr_pairs = (device_sqs / 2).min(nr_cores).max(1);
        OverprovStack {
            nr_pairs,
            tenants: DenseMap::new(),
            dispatch: Dispatch::new(device_sqs),
            classified: false,
        }
    }

    /// Number of core pairs in use.
    pub fn nr_pairs(&self) -> u16 {
        self.nr_pairs
    }

    /// The (L-queue, T-queue) pair of a core.
    pub fn pair_of(&self, core: u16) -> (SqId, SqId) {
        let pair = core % self.nr_pairs;
        (SqId(pair * 2), SqId(pair * 2 + 1))
    }

    /// Classifies the device queues on first use; panics without WRR — the
    /// hardware dependence in Table 1.
    fn ensure_classified(&mut self, device: &mut NvmeDevice) {
        if self.classified {
            return;
        }
        assert!(
            matches!(device.config().arbitration, Arbitration::Wrr(_)),
            "the overprovision baseline requires device WRR arbitration \
             (hardware-dependent by design; see Table 1)"
        );
        for pair in 0..self.nr_pairs {
            device.set_sq_priority(SqId(pair * 2), SqPriorityClass::High);
            device.set_sq_priority(SqId(pair * 2 + 1), SqPriorityClass::Low);
        }
        self.classified = true;
    }
}

impl StorageStack for OverprovStack {
    fn name(&self) -> &'static str {
        "overprov"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::static_overprovision()
    }

    fn register_tenant(&mut self, task: &TaskStruct, env: &mut StackEnv<'_>) {
        self.ensure_classified(env.device);
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

    fn submit(&mut self, bios: &[Bio], env: &mut StackEnv<'_>) -> SimDuration {
        debug_assert!(!bios.is_empty());
        self.ensure_classified(env.device);
        let core = bios[0].core;
        let is_l_tenant = self
            .tenants
            .get(bios[0].tenant)
            .map(|t| t.ionice.is_latency_sensitive())
            .unwrap_or(false);
        let (l_sq, t_sq) = self.pair_of(core);
        let sla = if is_l_tenant {
            simkit::Sla::L
        } else {
            simkit::Sla::T
        };
        // Outliers (sync/metadata requests) of T-tenants take the L-queue
        // of the same pair.
        let mut n = 0;
        for bio in bios {
            let sq = if is_l_tenant || bio.flags.is_outlier() {
                l_sq
            } else {
                t_sq
            };
            n += self.dispatch.stage(bio, sq, sla, env);
        }
        // L-queue first, T-queue second; an untouched queue costs nothing.
        let mut cost = env.costs.submit_cost(n);
        for sq in [l_sq, t_sq] {
            cost += self
                .dispatch
                .push(sq, DoorbellMode::Batched, env)
                .batch_cost(env.costs);
        }
        cost
    }

    fn reserve(&mut self, hint: usize) {
        self.dispatch.reserve(hint);
    }

    fn park_buffers(&mut self, arena: &mut simkit::RunArena) {
        self.dispatch.park(arena);
    }

    fn adopt_buffers(&mut self, arena: &mut simkit::RunArena) {
        self.dispatch.adopt(arena);
    }

    fn on_irq(&mut self, cq: CqId, core: u16, env: &mut StackEnv<'_>) -> SimDuration {
        let cost = self
            .dispatch
            .reap(cq, core, env, |_, _| CompletionMode::Batched);
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
    use blkstack::bio::{BioId, ReqFlags};
    use dd_nvme::{DeviceOutput, IoOpcode, NamespaceId, NvmeConfig, WrrWeights};
    use simkit::{SimRng, SimTime};

    fn wrr_device(sqs: u16) -> NvmeDevice {
        let mut cfg = NvmeConfig::sv_m().with_wrr(WrrWeights::default());
        cfg.nr_sqs = sqs;
        cfg.nr_cqs = sqs;
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
        fn new(sqs: u16) -> Self {
            Harness {
                dev: wrr_device(sqs),
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
            issued_at: SimTime::ZERO,
        }
    }

    fn task(pid: u64, core: u16, ionice: IoPriorityClass) -> TaskStruct {
        TaskStruct::new(Pid(pid), core, ionice, NamespaceId(1), "x")
    }

    #[test]
    fn pair_layout() {
        let s = OverprovStack::new(4, 8);
        assert_eq!(s.nr_pairs(), 4);
        assert_eq!(s.pair_of(0), (SqId(0), SqId(1)));
        assert_eq!(s.pair_of(3), (SqId(6), SqId(7)));
        assert_eq!(s.pair_of(5), (SqId(2), SqId(3)), "extra cores share pairs");
    }

    #[test]
    fn routes_by_class_within_own_pair() {
        let mut h = Harness::new(8);
        let mut s = OverprovStack::new(4, 8);
        let mut env = h.env(SimTime::ZERO);
        s.register_tenant(&task(1, 1, IoPriorityClass::RealTime), &mut env);
        s.register_tenant(&task(2, 1, IoPriorityClass::BestEffort), &mut env);
        s.submit(&[bio(1, 1, 1, 4096, ReqFlags::NONE)], &mut env);
        s.submit(&[bio(2, 2, 1, 131072, ReqFlags::NONE)], &mut env);
        // Core 1 owns pair (2, 3): L → 2, T → 3.
        assert_eq!(env.device.sq_stats(SqId(2)).submitted_total, 1);
        assert_eq!(env.device.sq_stats(SqId(3)).submitted_total, 1);
    }

    #[test]
    fn outliers_take_the_l_queue() {
        let mut h = Harness::new(8);
        let mut s = OverprovStack::new(4, 8);
        let mut env = h.env(SimTime::ZERO);
        s.register_tenant(&task(2, 0, IoPriorityClass::BestEffort), &mut env);
        s.submit(&[bio(1, 2, 0, 4096, ReqFlags::SYNC)], &mut env);
        assert_eq!(env.device.sq_stats(SqId(0)).submitted_total, 1);
        assert_eq!(env.device.sq_stats(SqId(1)).submitted_total, 0);
    }

    #[test]
    #[should_panic(expected = "WRR")]
    fn refuses_round_robin_devices() {
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 8;
        cfg.nr_cqs = 8;
        let mut dev = NvmeDevice::new(cfg, 4);
        let mut out = DeviceOutput::new();
        let mut comps = Vec::new();
        let mut migs = Vec::new();
        let mut rng = SimRng::new(1);
        let costs = dd_cpu::HostCosts::default();
        let mut env = StackEnv {
            now: SimTime::ZERO,
            device: &mut dev,
            dev_out: &mut out,
            completions: &mut comps,
            migrations: &mut migs,
            rng: &mut rng,
            costs: &costs,
        };
        let mut s = OverprovStack::new(4, 8);
        s.register_tenant(&task(1, 0, IoPriorityClass::RealTime), &mut env);
    }

    #[test]
    fn no_cross_core_queue_usage() {
        // The structural limit: a core's traffic never leaves its own pair,
        // however overloaded it is.
        let mut h = Harness::new(8);
        let mut s = OverprovStack::new(4, 8);
        let mut env = h.env(SimTime::ZERO);
        s.register_tenant(&task(2, 0, IoPriorityClass::BestEffort), &mut env);
        for i in 0..64 {
            s.submit(&[bio(i, 2, 0, 131072, ReqFlags::NONE)], &mut env);
        }
        // Everything sits in SQ 1; queues of other pairs stay empty.
        assert_eq!(env.device.sq_stats(SqId(1)).submitted_total, 64);
        for q in [2u16, 3, 4, 5, 6, 7] {
            assert_eq!(env.device.sq_stats(SqId(q)).submitted_total, 0);
        }
    }

    #[test]
    fn capabilities_row_matches_table1() {
        let s = OverprovStack::new(4, 8);
        let c = s.capabilities();
        assert!(!c.hardware_independent, "needs WRR hardware");
        assert!(!c.nq_exploitation, "static pairs cannot borrow idle NQs");
        assert!(c.cross_core_autonomy);
        assert!(!c.multi_namespace);
    }
}
