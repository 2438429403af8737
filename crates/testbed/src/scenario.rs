//! Scenario descriptions: everything an experiment needs, declaratively.

use blkstack::blkmq::{BlkMqConfig, QueuePolicy};
use blkstack::IoPriorityClass;
use blkswitch::BlkSwitchConfig;
use daredevil::DaredevilConfig;
use dd_cpu::CpuTopology;
use dd_nvme::{NamespaceId, NvmeConfig};
use dd_workload::checkpoint::CheckpointConfig;
use dd_workload::kvsim::KvConfig;
use dd_workload::mailserver::MailConfig;
use dd_workload::{FioJob, YcsbMix};
use simkit::SimDuration;

/// Which storage stack a run uses.
#[derive(Clone, Debug)]
pub enum StackSpec {
    /// Vanilla blk-mq.
    Vanilla(BlkMqConfig),
    /// blk-switch.
    BlkSwitch(BlkSwitchConfig),
    /// FlashShare/D2FQ-style static overprovision (the machine auto-enables
    /// device WRR arbitration, which this stack requires).
    Overprov,
    /// Daredevil (any ablation variant via the config).
    Daredevil(DaredevilConfig),
    /// Guest VMs over virtio-blk: tenants are guest processes (VM id =
    /// their namespace), the host runs `inner` and sees only the vhost
    /// identities. `sla_aware` selects the §8.1 per-SLA VQ design.
    Virtio {
        /// The host storage stack under the virtio layer.
        inner: Box<StackSpec>,
        /// Per-SLA VQs (true) vs one best-effort VQ per VM (false).
        sla_aware: bool,
    },
}

impl StackSpec {
    /// Vanilla blk-mq with defaults.
    pub fn vanilla() -> Self {
        StackSpec::Vanilla(BlkMqConfig::default())
    }

    /// The Fig. 2 "w/o interference" partitioned blk-mq.
    pub fn vanilla_partitioned(nr_queues: u16) -> Self {
        StackSpec::Vanilla(BlkMqConfig {
            nr_queues: Some(nr_queues),
            policy: QueuePolicy::Partitioned,
            ..BlkMqConfig::default()
        })
    }

    /// Vanilla constrained to `nr_queues` NQs (Fig. 2's matched budget).
    pub fn vanilla_queues(nr_queues: u16) -> Self {
        StackSpec::Vanilla(BlkMqConfig {
            nr_queues: Some(nr_queues),
            policy: QueuePolicy::Static,
            ..BlkMqConfig::default()
        })
    }

    /// blk-switch with its suggested thresholds.
    pub fn blk_switch() -> Self {
        StackSpec::BlkSwitch(BlkSwitchConfig::default())
    }

    /// The static-overprovision baseline.
    pub fn overprov() -> Self {
        StackSpec::Overprov
    }

    /// Vanilla blk-mq with a block-layer I/O scheduler (elevator).
    pub fn vanilla_sched(kind: blkstack::iosched::SchedKind) -> Self {
        StackSpec::Vanilla(BlkMqConfig {
            scheduler: kind,
            ..BlkMqConfig::default()
        })
    }

    /// Guest VMs over virtio-blk on a host stack.
    pub fn virtio(inner: StackSpec, sla_aware: bool) -> Self {
        StackSpec::Virtio {
            inner: Box::new(inner),
            sla_aware,
        }
    }

    /// Daredevil, full variant.
    pub fn daredevil() -> Self {
        StackSpec::Daredevil(DaredevilConfig::default())
    }

    /// Daredevil ablation variants.
    pub fn dare_base() -> Self {
        StackSpec::Daredevil(DaredevilConfig::base())
    }

    /// `dare-sched`.
    pub fn dare_sched() -> Self {
        StackSpec::Daredevil(DaredevilConfig::sched())
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            StackSpec::Vanilla(c) if c.policy == QueuePolicy::Partitioned => "vanilla-partitioned",
            StackSpec::Vanilla(_) => "vanilla",
            StackSpec::BlkSwitch(_) => "blk-switch",
            StackSpec::Overprov => "overprov",
            StackSpec::Virtio { sla_aware, .. } => {
                if *sla_aware {
                    "virtio-sla"
                } else {
                    "virtio-naive"
                }
            }
            StackSpec::Daredevil(c) => match (c.policy, c.variant) {
                (daredevil::PolicySpec::Default, daredevil::Variant::Base) => "dare-base",
                (daredevil::PolicySpec::Default, daredevil::Variant::Sched) => "dare-sched",
                (daredevil::PolicySpec::Default, daredevil::Variant::Full) => "daredevil",
                (daredevil::PolicySpec::Deadline, _) => "dare-deadline",
                (daredevil::PolicySpec::SizeClass, _) => "dare-sizeclass",
                (daredevil::PolicySpec::FairShare, _) => "dare-fairshare",
            },
        }
    }

    /// Applies a built-in Daredevil scheduling policy. No-op for stacks
    /// without a policy layer; a virtio spec forwards to its host stack.
    pub fn with_policy(mut self, policy: daredevil::PolicySpec) -> Self {
        match &mut self {
            StackSpec::Daredevil(c) => c.policy = policy,
            StackSpec::Virtio { inner, .. } => {
                let host = std::mem::replace(inner.as_mut(), StackSpec::Overprov);
                *inner.as_mut() = host.with_policy(policy);
            }
            _ => {}
        }
        self
    }
}

/// Application workload selection (kept as data so scenarios stay
/// cloneable/serialisable).
#[derive(Clone, Debug)]
pub enum AppKind {
    /// YCSB over kvsim.
    Ycsb {
        /// Workload mix.
        mix: YcsbMix,
        /// Store sizing.
        config: KvConfig,
        /// Operations to run.
        ops: u64,
    },
    /// Filebench-style mailserver.
    Mailserver {
        /// Mail directory sizing.
        config: MailConfig,
        /// Operations to run.
        ops: u64,
    },
    /// Checkpointing trainer (the intro's motivating T-tenant).
    Checkpoint {
        /// Trainer parameters.
        config: CheckpointConfig,
        /// Checkpoints to complete.
        checkpoints: u64,
    },
}

/// What a tenant runs.
#[derive(Clone, Debug)]
pub enum TenantKind {
    /// FIO-style closed-loop job.
    Fio(FioJob),
    /// Application workload.
    App(AppKind),
}

/// One tenant of a scenario.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Metrics class label (`"L"`, `"T"`, `"TL"`, `"app"` …).
    pub class_label: &'static str,
    /// ionice class (the SLA signal the stacks read).
    pub ionice: IoPriorityClass,
    /// Core the tenant is pinned to initially.
    pub core: u16,
    /// Target namespace.
    pub nsid: NamespaceId,
    /// The workload.
    pub kind: TenantKind,
    /// Per-tenant latency SLO: an in-window completion slower than this
    /// counts one violation in the tenant's summary (QWin-style per-class
    /// targets). `None` (default) keeps SLO accounting off.
    pub slo: Option<SimDuration>,
}

/// Machine presets from the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MachinePreset {
    /// SV-M: 64 cores, 64 NSQ / 64 NCQ enterprise SSD.
    SvM,
    /// WS-M: 8 P-cores, 128 NSQ / 24 NCQ consumer SSD.
    WsM,
    /// A scaled-down machine for fast tests: 4 cores, 8 NSQ / 8 NCQ.
    Small,
}

impl MachinePreset {
    /// The CPU topology.
    pub fn topology(self) -> CpuTopology {
        match self {
            MachinePreset::SvM => CpuTopology::sv_m(),
            MachinePreset::WsM => CpuTopology::ws_m(),
            MachinePreset::Small => CpuTopology::uniform(4),
        }
    }

    /// The device configuration.
    pub fn nvme(self) -> NvmeConfig {
        match self {
            MachinePreset::SvM => NvmeConfig::sv_m(),
            MachinePreset::WsM => NvmeConfig::ws_m(),
            MachinePreset::Small => {
                let mut c = NvmeConfig::sv_m();
                c.nr_sqs = 8;
                c.nr_cqs = 8;
                c
            }
        }
    }
}

/// Every cross-cutting run knob in one typed struct.
///
/// A scenario owns one `knobs` value and callers mutate its fields
/// directly. [`crate::fleet::FleetSpec`] reuses the struct verbatim, so a
/// fleet cell inherits every knob without re-plumbing each one.
#[derive(Clone, Debug)]
pub struct RunKnobs {
    /// Warm-up period (measurements discarded).
    pub warmup: SimDuration,
    /// Measurement window length.
    pub measure: SimDuration,
    /// PRNG seed.
    pub seed: u64,
    /// Structured span tracing: `Some(spec)` installs an enabled
    /// [`simkit::TraceSink`] into the machine for the run; `None` (default)
    /// keeps tracing off (one dead branch per instrumentation point).
    pub trace: Option<simkit::TraceSpec>,
    /// Deterministic fault injection: `Some(spec)` generates a
    /// [`simkit::FaultPlan`] over the device geometry for the run's
    /// horizon, installs it into the device, and arms the host-side
    /// recovery watchdog; `None` (default) keeps faults off (one dead
    /// branch per injection point).
    pub faults: Option<simkit::FaultSpec>,
    /// Daredevil scheduling-policy override, applied to the stack spec at
    /// machine build time (`--policy NAME` on the figures). No-op
    /// for stacks without a policy layer.
    pub policy: Option<daredevil::PolicySpec>,
    /// Flash garbage collection (an aged drive; Fig. 6 GC variant),
    /// applied to the device config at machine build time.
    pub gc: Option<dd_nvme::flash::GcConfig>,
}

impl Default for RunKnobs {
    /// The historical scenario defaults: 100 ms warmup, 1 s measured,
    /// seed 42, every optional subsystem off.
    fn default() -> Self {
        RunKnobs {
            warmup: SimDuration::from_millis(100),
            measure: SimDuration::from_secs(1),
            seed: 42,
            trace: None,
            faults: None,
            policy: None,
            gc: None,
        }
    }
}

/// A complete experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Run label for tables.
    pub name: String,
    /// Host CPU topology.
    pub topology: CpuTopology,
    /// Device configuration.
    pub nvme: NvmeConfig,
    /// Stack under test.
    pub stack: StackSpec,
    /// Tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Cross-cutting run knobs (durations, seed, tracing, faults, policy,
    /// GC) — one typed struct shared verbatim with fleet specs.
    pub knobs: RunKnobs,
    /// Fig. 14: flip every tenant's ionice at this interval.
    pub ionice_storm: Option<SimDuration>,
    /// Fig. 13: move a random tenant to a random core at this interval.
    pub migrate_storm: Option<SimDuration>,
    /// Cores tenants may run on (the experiment's cpuset size). Storm
    /// migrations stay within `[0, core_pool)`. Defaults to the full
    /// topology.
    pub core_pool: u16,
    /// Time-series bucket width (Fig. 8).
    pub sample_width: SimDuration,
    /// Stop as soon as all application tenants finish their ops.
    pub stop_when_apps_done: bool,
}

impl Scenario {
    /// A bare scenario with defaults (100 ms warmup, 1 s measured).
    pub fn new(name: impl Into<String>, preset: MachinePreset, stack: StackSpec) -> Self {
        Scenario {
            name: name.into(),
            topology: preset.topology(),
            nvme: preset.nvme(),
            stack,
            tenants: Vec::new(),
            knobs: RunKnobs::default(),
            ionice_storm: None,
            migrate_storm: None,
            core_pool: preset.topology().nr_cores(),
            sample_width: SimDuration::from_millis(100),
            stop_when_apps_done: false,
        }
    }

    /// The paper's §7.1 population: `nr_l` L-tenants (4 KiB QD1 randread,
    /// real-time ionice) and `nr_t` T-tenants (128 KiB QD32, best-effort),
    /// spread evenly across a shared pool of `cores` cores, one namespace.
    pub fn multi_tenant_fio(
        stack: StackSpec,
        nr_l: u16,
        nr_t: u16,
        cores: u16,
        preset: MachinePreset,
    ) -> Self {
        let mut s = Scenario::new(
            format!("{}-L{}T{}", stack.name(), nr_l, nr_t),
            preset,
            stack,
        );
        s.core_pool = cores;
        for i in 0..nr_l {
            s.tenants.push(TenantSpec {
                class_label: "L",
                ionice: IoPriorityClass::RealTime,
                core: i % cores,
                nsid: NamespaceId(1),
                kind: TenantKind::Fio(dd_workload::tenants::l_tenant_job()),
                slo: None,
            });
        }
        for i in 0..nr_t {
            s.tenants.push(TenantSpec {
                class_label: "T",
                ionice: IoPriorityClass::BestEffort,
                core: (nr_l + i) % cores,
                nsid: NamespaceId(1),
                kind: TenantKind::Fio(dd_workload::tenants::t_tenant_job()),
                slo: None,
            });
        }
        s
    }

    /// The §7.2 multi-namespace population: `namespaces` namespaces at an
    /// L:T namespace ratio of 1:3, 2 L-tenants per L-ns and 8 T-tenants per
    /// T-ns, spread over `cores` cores.
    pub fn multi_namespace(
        stack: StackSpec,
        namespaces: u32,
        cores: u16,
        preset: MachinePreset,
    ) -> Self {
        assert!(namespaces >= 4, "ratio 1:3 needs at least 4 namespaces");
        let mut s = Scenario::new(format!("{}-ns{}", stack.name(), namespaces), preset, stack);
        s.core_pool = cores;
        s.nvme = s.nvme.with_namespaces(namespaces);
        let l_ns = (namespaces / 4).max(1);
        let mut core = 0u16;
        let next_core = |core: &mut u16| {
            let c = *core % cores;
            *core += 1;
            c
        };
        for ns in 0..namespaces {
            let nsid = NamespaceId(ns + 1);
            if ns < l_ns {
                for _ in 0..2 {
                    s.tenants.push(TenantSpec {
                        class_label: "L",
                        ionice: IoPriorityClass::RealTime,
                        core: next_core(&mut core),
                        nsid,
                        kind: TenantKind::Fio(dd_workload::tenants::l_tenant_job()),
                        slo: None,
                    });
                }
            } else {
                for _ in 0..8 {
                    s.tenants.push(TenantSpec {
                        class_label: "T",
                        ionice: IoPriorityClass::BestEffort,
                        core: next_core(&mut core),
                        nsid,
                        kind: TenantKind::Fio(dd_workload::tenants::t_tenant_job()),
                        slo: None,
                    });
                }
            }
        }
        s
    }

    /// Adds one tenant.
    pub fn with_tenant(mut self, t: TenantSpec) -> Self {
        self.tenants.push(t);
        self
    }

    /// Number of cores in the topology.
    pub fn nr_cores(&self) -> u16 {
        self.topology.nr_cores()
    }

    /// Estimated peak of concurrently pending machine events, derived from
    /// the scenario shape: every in-flight I/O (Σ tenant queue depth) can
    /// hold a device event, an IRQ delivery and a completion at once, plus
    /// per-core dispatch/done pairs and the handful of global timers. Used
    /// to pre-size the event queue so the steady state allocates nothing.
    pub fn event_capacity_hint(&self) -> usize {
        let inflight: usize = self
            .tenants
            .iter()
            .map(|t| match &t.kind {
                // Closed-loop FIO keeps at most `iodepth` I/Os in flight.
                TenantKind::Fio(job) => job.iodepth as usize,
                // App ops issue small parallel I/O bursts.
                TenantKind::App(_) => 8,
            })
            .sum();
        let per_core = self.nr_cores() as usize * 2;
        (inflight * 3 + per_core + 64).next_power_of_two()
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        self.nvme.validate()?;
        if self.tenants.is_empty() {
            return Err("scenario needs at least one tenant".into());
        }
        if self.core_pool == 0 || self.core_pool > self.nr_cores() {
            return Err(format!("core pool {} out of range", self.core_pool));
        }
        for t in &self.tenants {
            if t.core >= self.core_pool {
                return Err(format!("tenant core {} outside the core pool", t.core));
            }
            if t.nsid.0 == 0 || t.nsid.0 > self.nvme.nr_namespaces() {
                return Err(format!("tenant namespace {} out of range", t.nsid));
            }
        }
        if self.knobs.measure.is_zero() {
            return Err("measurement window must be non-zero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_tenant_population() {
        let s = Scenario::multi_tenant_fio(StackSpec::vanilla(), 4, 8, 4, MachinePreset::Small);
        assert_eq!(s.tenants.len(), 12);
        let l = s.tenants.iter().filter(|t| t.class_label == "L").count();
        assert_eq!(l, 4);
        assert!(s.tenants.iter().all(|t| t.core < 4));
        s.validate().unwrap();
    }

    #[test]
    fn multi_namespace_population() {
        let s = Scenario::multi_namespace(StackSpec::daredevil(), 8, 4, MachinePreset::SvM);
        assert_eq!(s.nvme.nr_namespaces(), 8);
        // 2 L-ns × 2 L-tenants + 6 T-ns × 8 T-tenants.
        let l = s.tenants.iter().filter(|t| t.class_label == "L").count();
        let t = s.tenants.iter().filter(|t| t.class_label == "T").count();
        assert_eq!(l, 4);
        assert_eq!(t, 48);
        s.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_core() {
        let mut s = Scenario::multi_tenant_fio(StackSpec::vanilla(), 1, 0, 1, MachinePreset::Small);
        s.tenants[0].core = 99;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_namespace() {
        let mut s = Scenario::multi_tenant_fio(StackSpec::vanilla(), 1, 0, 1, MachinePreset::Small);
        s.tenants[0].nsid = NamespaceId(9);
        assert!(s.validate().is_err());
    }

    #[test]
    fn stack_names() {
        assert_eq!(StackSpec::vanilla().name(), "vanilla");
        assert_eq!(StackSpec::blk_switch().name(), "blk-switch");
        assert_eq!(StackSpec::daredevil().name(), "daredevil");
        assert_eq!(StackSpec::dare_base().name(), "dare-base");
        assert_eq!(
            StackSpec::vanilla_partitioned(4).name(),
            "vanilla-partitioned"
        );
    }
}
