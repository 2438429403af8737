//! Scenario descriptions: everything an experiment needs, declaratively.

use blkstack::blkmq::{BlkMqConfig, QueuePolicy};
use blkstack::split::split_extents;
use blkstack::{IoBounds, IoPriorityClass};
use blkswitch::BlkSwitchConfig;
use daredevil::DaredevilConfig;
use dd_nvme::{NamespaceId, NvmeConfig};
use dd_workload::kvsim::KvConfig;
use dd_workload::mailserver::{MailConfig, MailserverWorkload};
use dd_workload::{FioJob, YcsbMix, YcsbWorkload};
use simkit::SimDuration;

/// Which storage stack a run uses.
#[derive(Clone, Debug)]
pub enum StackSpec {
    /// Vanilla blk-mq.
    Vanilla(BlkMqConfig),
    /// blk-switch.
    BlkSwitch(BlkSwitchConfig),
    /// FlashShare/D2FQ-style static overprovision: the stack sets its
    /// queue pairs' WRR classes on the device it is built for.
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
            StackSpec::Vanilla(c) => c.stack_name(),
            StackSpec::BlkSwitch(_) => "blk-switch",
            StackSpec::Overprov => "overprov",
            StackSpec::Virtio { sla_aware, .. } => {
                if *sla_aware {
                    "virtio-sla"
                } else {
                    "virtio-naive"
                }
            }
            StackSpec::Daredevil(c) => c.stack_name(),
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
}

impl AppKind {
    /// Device commands the app has in flight at most: those of its
    /// workload's largest step.
    pub fn max_in_flight(&self) -> usize {
        match self {
            AppKind::Ycsb { mix, config, .. } => YcsbWorkload::max_in_flight(*mix, config),
            AppKind::Mailserver { config, .. } => MailserverWorkload::max_in_flight(config),
        }
    }
}

/// What a tenant runs.
#[derive(Clone, Debug)]
pub enum TenantKind {
    /// FIO-style closed-loop job.
    Fio(FioJob),
    /// Application workload.
    App(AppKind),
}

impl TenantKind {
    /// True for an open-loop FIO job (arrivals on a timer).
    pub(crate) fn is_open_loop(&self) -> bool {
        matches!(self, TenantKind::Fio(job) if job.arrival.is_some())
    }

    /// Device commands this tenant has in flight at most. A closed-loop
    /// job keeps `iodepth` bios of one size outstanding, each split into
    /// the dispatch core's commands. An app runs one op step at a time,
    /// so the commands of its workload's largest step bound it. An
    /// open-loop job's arrivals do not wait for its completions, so it
    /// has no bound of its own (`None`): its commands count against the
    /// open-loop share [`Scenario::io_bounds`] takes from the device.
    pub fn inflight_bound(&self) -> Option<usize> {
        match self {
            TenantKind::Fio(job) if job.arrival.is_some() => None,
            TenantKind::Fio(job) => {
                let commands = split_extents(0, job.block_size).len();
                Some(job.iodepth as usize * commands)
            }
            TenantKind::App(app) => Some(app.max_in_flight()),
        }
    }

    /// Bios this tenant submits in one call at most: a closed-loop job's
    /// first burst of `iodepth`, an open-loop job's one arrival, or an
    /// app's largest step, whose bios are at most its commands.
    pub fn batch_bound(&self) -> usize {
        match self {
            TenantKind::Fio(job) if job.arrival.is_some() => 1,
            TenantKind::Fio(job) => job.iodepth as usize,
            TenantKind::App(app) => app.max_in_flight(),
        }
    }
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
    /// Host cores: SV-M's 64 physical EPYC cores (SMT off), or WS-M's 8
    /// P-cores, the only ones the paper uses there to avoid asymmetric-core
    /// interference (§7).
    pub fn nr_cores(self) -> u16 {
        match self {
            MachinePreset::SvM => 64,
            MachinePreset::WsM => 8,
            MachinePreset::Small => 4,
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
        }
    }
}

/// A complete experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Run label for tables.
    pub name: String,
    /// Host cores, all of one speed.
    pub cores: u16,
    /// Device configuration.
    pub nvme: NvmeConfig,
    /// Stack under test.
    pub stack: StackSpec,
    /// Tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Cross-cutting run knobs (durations, seed, tracing, faults) — one
    /// typed struct shared verbatim with fleet specs.
    pub knobs: RunKnobs,
    /// Fig. 14: flip every tenant's ionice at this interval.
    pub ionice_storm: Option<SimDuration>,
    /// Fig. 13: move a random tenant to a random core at this interval.
    pub migrate_storm: Option<SimDuration>,
    /// Cores tenants may run on (the experiment's cpuset size). Storm
    /// migrations stay within `[0, core_pool)`. Defaults to the full
    /// host.
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
            cores: preset.nr_cores(),
            nvme: preset.nvme(),
            stack,
            tenants: Vec::new(),
            knobs: RunKnobs::default(),
            ionice_storm: None,
            migrate_storm: None,
            core_pool: preset.nr_cores(),
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

    /// Number of host cores.
    pub fn nr_cores(&self) -> u16 {
        self.cores
    }

    /// The per-I/O bounds the machine reserves from. An in-flight command
    /// holds at most one slot of the stack's request slabs, of the
    /// device's command slab, of the ISR's CQE scratch, of an elevator
    /// FIFO and of virtio's in-flight map. `inflight` sums every
    /// closed-loop tenant's and app's [`TenantKind::inflight_bound`], plus
    /// one open-loop share of `nvme.max_inflight_pages` when any tenant is
    /// open-loop. The share does not grow with the open-loop tenants: the
    /// device's work in flight follows its page budget, not how many
    /// tenants submit to it, and every command a FIO job issues holds at
    /// least one page of that budget once fetched. So a host with more
    /// commands in flight than the share has them backed up in its queues.
    /// That is overload, whose backlog no static size bounds: the
    /// reservations grow there, and the run's capacity probes
    /// (`RunOutput::cap_warmup`, `cap_end`) show it. `batch` is the
    /// largest [`TenantKind::batch_bound`], which sizes the bio scratch of
    /// one submission. A closed-loop scenario never exceeds either.
    pub fn io_bounds(&self) -> IoBounds {
        let kinds = self.tenants.iter().map(|t| &t.kind);
        let closed: usize = kinds.clone().filter_map(TenantKind::inflight_bound).sum();
        let open_loop = kinds.clone().any(TenantKind::is_open_loop);
        IoBounds {
            inflight: closed + usize::from(open_loop) * self.nvme.max_inflight_pages as usize,
            batch: kinds.map(TenantKind::batch_bound).max().unwrap_or(0),
        }
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
        // Each of these re-arms itself (or buckets by itself) at its
        // period: zero would loop at one instant or divide by zero.
        if self.sample_width.is_zero() {
            return Err("sample_width must be non-zero".into());
        }
        for (field, interval) in [
            ("ionice_storm", self.ionice_storm),
            ("migrate_storm", self.migrate_storm),
        ] {
            if interval.is_some_and(|d| d.is_zero()) {
                return Err(format!("{field} interval must be non-zero"));
            }
        }
        if let Some(f) = &self.knobs.faults {
            if f.period.is_zero() {
                return Err("fault period must be non-zero".into());
            }
            if f.watchdog_period.is_zero() {
                return Err("fault watchdog_period must be non-zero".into());
            }
        }
        if let StackSpec::Virtio { inner, .. } = &self.stack {
            if matches!(**inner, StackSpec::Virtio { .. }) {
                return Err("nested virtio is unsupported".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every (variant, policy) pair names its stack distinctly, and the
    /// spec's name is the built stack's, so `--policy` never merges the
    /// rows of an ablation table.
    #[test]
    fn daredevil_names_are_distinct_and_match_the_stack() {
        let device = dd_nvme::NvmeDevice::new(NvmeConfig::sv_m().with_queues(8, 8), 4);
        let mut seen = Vec::new();
        for base in [
            StackSpec::dare_base(),
            StackSpec::dare_sched(),
            StackSpec::daredevil(),
        ] {
            for policy in daredevil::PolicySpec::ALL {
                let spec = base.clone().with_policy(policy);
                let StackSpec::Daredevil(cfg) = &spec else {
                    unreachable!()
                };
                let stack = daredevil::DaredevilStack::new(*cfg, &device);
                assert_eq!(spec.name(), blkstack::StorageStack::name(&stack));
                assert!(!seen.contains(&spec.name()), "{} repeats", spec.name());
                seen.push(spec.name());
            }
        }
        assert_eq!(seen.len(), 12);
    }

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

    /// An open-loop tenant: 4 KiB reads, or 128 KiB writes (one command
    /// each), on a Poisson timer.
    fn open_loop(i: u16) -> TenantSpec {
        let job = if i.is_multiple_of(2) {
            FioJob::new(dd_workload::RwPattern::RandRead, 4096, 1)
        } else {
            FioJob::new(dd_workload::RwPattern::RandWrite, 128 * 1024, 1)
        };
        TenantSpec {
            class_label: "L",
            ionice: IoPriorityClass::RealTime,
            core: i % 4,
            nsid: NamespaceId(1),
            kind: TenantKind::Fio(job.with_arrival(dd_workload::ArrivalModel::open(1_000.0))),
            slo: None,
        }
    }

    /// Closed-loop tenants keep their exact bounds; open-loop tenants add
    /// one share of the device's page budget, however many there are.
    #[test]
    fn open_loop_tenants_share_the_page_budget() {
        // The §7.1 population: 4 L-tenants at QD1 of 4 KiB and 16
        // T-tenants at QD32 of 128 KiB, one command per bio: 4 + 512.
        let closed =
            Scenario::multi_tenant_fio(StackSpec::daredevil(), 4, 16, 4, MachinePreset::SvM);
        assert_eq!(
            closed.io_bounds(),
            IoBounds {
                inflight: 516,
                batch: 32
            }
        );
        assert_eq!(closed.nvme.max_inflight_pages, 512);
        assert_eq!(open_loop(0).kind.inflight_bound(), None);
        for n in [1, 2, 7, 2_500] {
            let mut open = Scenario::new("open", MachinePreset::SvM, StackSpec::daredevil());
            open.tenants.extend((0..n).map(open_loop));
            assert_eq!(
                open.io_bounds(),
                IoBounds {
                    inflight: 512,
                    batch: 1
                },
                "{n} tenants"
            );
            let mut mixed = closed.clone();
            mixed.tenants.extend((0..n).map(open_loop));
            assert_eq!(
                mixed.io_bounds(),
                IoBounds {
                    inflight: 516 + 512,
                    batch: 32
                },
                "{n} tenants"
            );
        }
        // The share follows the device: WS-M fetches at most 256 pages.
        let mut ws = Scenario::new("open", MachinePreset::WsM, StackSpec::daredevil());
        ws.tenants.push(open_loop(0));
        assert_eq!(ws.io_bounds().inflight, 256);
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
    fn validation_catches_nested_virtio() {
        let nested = StackSpec::virtio(StackSpec::virtio(StackSpec::daredevil(), true), false);
        let s = Scenario::multi_tenant_fio(nested, 1, 0, 1, MachinePreset::Small);
        assert_eq!(s.validate(), Err("nested virtio is unsupported".into()));
    }

    /// A valid scenario for the zero-period checks below. None of them is
    /// ever run: each would loop at one instant or exhaust memory.
    fn valid() -> Scenario {
        let s = Scenario::multi_tenant_fio(StackSpec::vanilla(), 1, 0, 1, MachinePreset::Small);
        assert_eq!(s.validate(), Ok(()));
        s
    }

    #[test]
    fn validation_catches_zero_sample_width() {
        let mut s = valid();
        s.sample_width = SimDuration::ZERO;
        assert_eq!(s.validate(), Err("sample_width must be non-zero".into()));
    }

    #[test]
    fn validation_catches_zero_ionice_storm() {
        let mut s = valid();
        s.ionice_storm = Some(SimDuration::ZERO);
        assert_eq!(
            s.validate(),
            Err("ionice_storm interval must be non-zero".into())
        );
    }

    #[test]
    fn validation_catches_zero_migrate_storm() {
        let mut s = valid();
        s.migrate_storm = Some(SimDuration::ZERO);
        assert_eq!(
            s.validate(),
            Err("migrate_storm interval must be non-zero".into())
        );
    }

    #[test]
    fn validation_catches_zero_fault_watchdog_period() {
        let mut s = valid();
        let mut f = simkit::FaultSpec::new(simkit::FaultClasses::ALL, 7);
        f.watchdog_period = SimDuration::ZERO;
        s.knobs.faults = Some(f);
        assert_eq!(
            s.validate(),
            Err("fault watchdog_period must be non-zero".into())
        );
    }

    #[test]
    fn validation_catches_zero_fault_period() {
        let mut s = valid();
        let mut f = simkit::FaultSpec::new(simkit::FaultClasses::ALL, 7);
        f.period = SimDuration::ZERO;
        s.knobs.faults = Some(f);
        assert_eq!(s.validate(), Err("fault period must be non-zero".into()));
    }

    #[test]
    fn stack_names() {
        assert_eq!(StackSpec::blk_switch().name(), "blk-switch");
        assert_eq!(StackSpec::daredevil().name(), "daredevil");
        assert_eq!(StackSpec::dare_base().name(), "dare-base");
        // A vanilla spec names the stack it builds, elevator included.
        for (spec, name) in [
            (StackSpec::vanilla(), "vanilla"),
            (StackSpec::vanilla_partitioned(4), "vanilla-partitioned"),
            (
                StackSpec::vanilla_sched(blkstack::iosched::SchedKind::MqDeadline),
                "mq-deadline",
            ),
            (
                StackSpec::vanilla_sched(blkstack::iosched::SchedKind::Kyber),
                "kyber",
            ),
        ] {
            let StackSpec::Vanilla(cfg) = spec else {
                unreachable!()
            };
            let stack = blkstack::blkmq::VanillaBlkMq::new(cfg, 4, 8);
            assert_eq!(spec.name(), name);
            assert_eq!(blkstack::StorageStack::name(&stack), name);
        }
    }
}
