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
//! * **hardware dependence** — its isolation is the device's WRR
//!   arbitration between the classes it assigns at construction, as a
//!   driver sets QPRIO when it creates its I/O SQs;
//! * **no flexible NQ exploitation** — an I/O-heavy core can overload its
//!   own pair while neighbours' queues idle; nothing can move traffic
//!   across the static core→pair bindings.

#![warn(missing_docs)]

use dd_nvme::{CqId, NvmeDevice, SqId, SqPriorityClass};
use simkit::SimDuration;

use blkstack::dispatch::Dispatch;
use blkstack::stack::{CompletionMode, DoorbellMode, StackEnv, StorageStack};
use blkstack::{Bio, Capabilities};

/// The static-overprovision storage stack.
///
/// Its isolation comes from device-side WRR arbitration between the static
/// queue classes, so the host service routines stay kernel-default:
/// batched doorbells and batched reaps everywhere.
pub struct OverprovStack {
    /// Number of core pairs (= cores served).
    nr_pairs: u16,
    dispatch: Dispatch,
}

impl OverprovStack {
    /// Creates the stack for `nr_cores` cores over `device`, setting each
    /// pair's L-queue to the high WRR class and its T-queue to the low one.
    ///
    /// Each core needs a queue pair, so at most `nr_sqs / 2` cores get
    /// their own; extra cores share pairs modulo.
    ///
    /// # Panics
    ///
    /// Panics if the device has fewer than two NSQs.
    pub fn new(nr_cores: u16, device: &mut NvmeDevice) -> Self {
        let device_sqs = device.nr_sqs();
        assert!(
            device_sqs >= 2,
            "overprovision needs at least one queue pair"
        );
        let nr_pairs = (device_sqs / 2).min(nr_cores).max(1);
        for pair in 0..nr_pairs {
            device.set_sq_priority(SqId(pair * 2), SqPriorityClass::High);
            device.set_sq_priority(SqId(pair * 2 + 1), SqPriorityClass::Low);
        }
        OverprovStack {
            nr_pairs,
            // `pair_of` only returns the pairs' own NSQs.
            dispatch: Dispatch::new(nr_pairs * 2),
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
}

impl StorageStack for OverprovStack {
    fn name(&self) -> &'static str {
        "overprov"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::static_overprovision()
    }

    fn dispatch(&mut self) -> &mut Dispatch {
        &mut self.dispatch
    }

    fn submit(&mut self, bios: &[Bio], env: &mut StackEnv<'_>) -> SimDuration {
        debug_assert!(!bios.is_empty());
        let core = bios[0].core;
        let is_l_tenant = bios[0].ioprio.is_latency_sensitive();
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

    fn on_irq(&mut self, cq: CqId, core: u16, env: &mut StackEnv<'_>) -> SimDuration {
        self.dispatch
            .reap(cq, core, env, |_, _| CompletionMode::Batched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blkstack::bio::{BioId, ReqFlags};
    use blkstack::{IoPriorityClass, Pid, TaskStruct};
    use dd_nvme::{DeviceOutput, IoOpcode, NamespaceId, NvmeConfig};
    use simkit::{SimRng, SimTime};

    fn device(sqs: u16) -> NvmeDevice {
        let mut cfg = NvmeConfig::sv_m();
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
                dev: device(sqs),
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
            ioprio: IoPriorityClass::BestEffort,
            issued_at: SimTime::ZERO,
        }
    }

    fn task(pid: u64, core: u16, ionice: IoPriorityClass) -> TaskStruct {
        TaskStruct::new(Pid(pid), core, ionice, NamespaceId(1), "x")
    }

    #[test]
    fn pair_layout() {
        let s = OverprovStack::new(4, &mut device(8));
        assert_eq!(s.nr_pairs(), 4);
        assert_eq!(s.pair_of(0), (SqId(0), SqId(1)));
        assert_eq!(s.pair_of(3), (SqId(6), SqId(7)));
        assert_eq!(s.pair_of(5), (SqId(2), SqId(3)), "extra cores share pairs");
    }

    #[test]
    fn routes_by_class_within_own_pair() {
        let mut h = Harness::new(8);
        let mut s = OverprovStack::new(4, &mut h.dev);
        let mut env = h.env(SimTime::ZERO);
        s.register_tenant(&task(1, 1, IoPriorityClass::RealTime), &mut env);
        s.register_tenant(&task(2, 1, IoPriorityClass::BestEffort), &mut env);
        let l_bio = Bio {
            ioprio: IoPriorityClass::RealTime,
            ..bio(1, 1, 1, 4096, ReqFlags::NONE)
        };
        s.submit(&[l_bio], &mut env);
        s.submit(&[bio(2, 2, 1, 131072, ReqFlags::NONE)], &mut env);
        // Core 1 owns pair (2, 3): L → 2, T → 3.
        assert_eq!(env.device.sq_stats(SqId(2)).submitted_total, 1);
        assert_eq!(env.device.sq_stats(SqId(3)).submitted_total, 1);
    }

    #[test]
    fn outliers_take_the_l_queue() {
        let mut h = Harness::new(8);
        let mut s = OverprovStack::new(4, &mut h.dev);
        let mut env = h.env(SimTime::ZERO);
        s.register_tenant(&task(2, 0, IoPriorityClass::BestEffort), &mut env);
        s.submit(&[bio(1, 2, 0, 4096, ReqFlags::SYNC)], &mut env);
        assert_eq!(env.device.sq_stats(SqId(0)).submitted_total, 1);
        assert_eq!(env.device.sq_stats(SqId(1)).submitted_total, 0);
    }

    #[test]
    fn no_cross_core_queue_usage() {
        // The structural limit: a core's traffic never leaves its own pair,
        // however overloaded it is.
        let mut h = Harness::new(8);
        let mut s = OverprovStack::new(4, &mut h.dev);
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
        let s = OverprovStack::new(4, &mut device(8));
        let c = s.capabilities();
        assert!(!c.hardware_independent, "needs WRR hardware");
        assert!(!c.nq_exploitation, "static pairs cannot borrow idle NQs");
        assert!(c.cross_core_autonomy);
        assert!(!c.multi_namespace);
    }
}
