//! The machine: a deterministic event loop over CPU, device, and stack.
//!
//! Event flow for one FIO I/O:
//!
//! ```text
//! Submit work on tenant core ──(stack.submit)──▶ NSQ entry + doorbell
//!   ▶ device FetchDone ▶ flash ▶ CmdDone ▶ CQE + IRQ raise
//!   ▶ IrqDeliver on vector core ▶ Isr work ▶ stack.on_irq ▶ BioCompletion
//!   ▶ Completed event at its delivery timestamp ▶ stats + Resubmit work
//! ```
//!
//! All stack/device effects apply at work-item start; the core then stays
//! busy for the work's returned duration (see `dd_cpu` for the dispatch
//! protocol and DESIGN.md §4 for why the approximation is sound here).
//!
//! The machine is four owners, each a plain struct in its own file that
//! the loop below lends out disjointly: `host`, `transport`, `drivers` and
//! `timers`. `harvest` turns them into the run's output.

mod drivers;
mod harvest;
mod host;
mod timers;
mod transport;

use std::collections::HashMap;

use blkstack::blkmq::VanillaBlkMq;
use blkstack::stack::{StackEnv, StackStats, StorageStack};
use blkstack::{Bio, BioCompletion, BioId, IoPriorityClass, Pid, TaskStruct};
use blkswitch::BlkSwitchStack;
use daredevil::DaredevilStack;
use dd_cpu::{CpuSystem, HostCosts, WorkClass};
use dd_metrics::{FaultRecovery, LatencyHistogram, RunSummary, TenantSummary, TimeSeries};
use dd_nvme::device::IrqRaise;
use dd_nvme::spec::bytes_to_blocks;
use dd_nvme::{CqId, DeviceOutput, NamespaceId, NvmeDevice, NvmeEvent};
use dd_overprov::OverprovStack;
use dd_virtio::{VirtioBlk, VqMode};
use dd_workload::mailserver::MailserverWorkload;
use dd_workload::{App, FioJob, IoDesc, OpKind, OpStep, Placement, YcsbWorkload};
use simkit::{EventQueue, RunArena, SimDuration, SimRng, SimTime, Slab, SlotId};

use crate::runout::{CapacityProbe, ClassSeries, RunOutput};
use crate::scenario::{AppKind, Scenario, StackSpec, TenantKind};
use drivers::{Driver, Drivers, Tenant};
use host::{Host, Work};
use timers::{start_timers, Timers};
use transport::Transport;

/// Events of the machine loop. A periodic timer carries its period.
#[derive(Clone, Copy)]
enum Event {
    /// Internal device event.
    Dev(NvmeEvent),
    /// A core has queued work and no running item: pick the next.
    CoreDispatch(u16),
    /// The running work item of a core finished.
    CoreDone(u16),
    /// A CQ's interrupt reaches the core its vector is bound to.
    IrqDeliver { cq: CqId, core: u16 },
    /// A bio completion, held in the transport's `delivering` slab, is
    /// delivered to its tenant.
    Completed(SlotId),
    /// Periodic stack housekeeping (blk-switch steering).
    StackTick,
    /// Fig. 14: flip every tenant's ionice.
    IoniceStorm(SimDuration),
    /// Fig. 13: move a random tenant to a random core.
    MigrateStorm(SimDuration),
    /// An open-loop FIO tenant's next arrival is due: reissue.
    WakeResubmit(Pid),
    /// Measurement window opens.
    EndWarmup,
    /// Fault-recovery scan: poll orphaned CQs, redrive stalled NSQs.
    /// Scheduled only when the scenario injects faults.
    FaultWatchdog(SimDuration),
    /// Run ends.
    Stop,
}

// A queue entry is `16 + size_of::<Event>()` bytes and is moved on every
// push, sort and pop: payloads live in slabs, events carry handles.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// Event-queue reservation per lane, `(near, far)`, from what holds each
/// event. An in-flight command holds one device event (`FetchDone` or
/// `CmdDone`) or, once reaped, its bio's `Completed`; each CQ holds at
/// most one `IrqDeliver`, each core one `CoreDispatch` or `CoreDone`,
/// each open-loop tenant one `WakeResubmit`; then the start timers and
/// the apps-done `Stop`. The far lane holds what lies past the horizon:
/// the wakes, the timers, and the completions of commands in flash (die
/// backlogs, program times, GC erases and latency spikes put them there).
/// The page budget admits at most `max_inflight_pages` of those; a flush
/// carries no pages and completes within `flush_latency`, inside the
/// horizon. Far events migrate into the near lane before they fire, so
/// the near lane takes every event.
fn event_bound(scenario: &Scenario, inflight: usize) -> (usize, usize) {
    let wakes = scenario
        .tenants
        .iter()
        .filter(|t| t.kind.is_open_loop())
        .count();
    let timers =
        start_timers(scenario).iter().flatten().count() + usize::from(scenario.stop_when_apps_done);
    let waiting = wakes + timers;
    let in_flash = inflight.min(scenario.nvme.max_inflight_pages as usize);
    let holders = scenario.nvme.nr_cqs as usize + scenario.nr_cores() as usize;
    (inflight + holders + waiting, waiting + in_flash)
}

/// The executing machine: the owners its loop lends out.
pub struct Machine {
    host: Host,
    io: Transport,
    drivers: Drivers,
    timers: Timers,
}

impl Machine {
    /// Builds a machine from a validated scenario, adopting warm
    /// allocations from `arena` where a previous [`Machine::run_in`] parked
    /// them. On an empty arena every structure is allocated fresh; on a
    /// warm one, the event queue, CPU system, device output, scratch buffers,
    /// tenant/series tables, and the stack's request map all reuse their
    /// previous runs' capacity. Behaviour is byte-identical either way —
    /// every recycled structure's reset restores fresh logical state
    /// (see `simkit::arena`).
    ///
    /// The scenario's tenant specs are consumed into the machine's tenants
    /// (a fleet host holds thousands) and its device configuration into
    /// the device, so a run keeps one copy of each; the bounds that count
    /// them are taken first.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails validation.
    pub fn new_in(mut scenario: Scenario, arena: &mut RunArena) -> Self {
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("invalid scenario '{}': {e}", scenario.name));
        let nr_cores = scenario.nr_cores();
        // Everything read from the whole scenario is taken before its
        // device configuration moves into the device.
        let bounds = scenario.io_bounds();
        let (near, far) = event_bound(&scenario, bounds.inflight);
        let start = start_timers(&scenario);
        let mut device = NvmeDevice::new(scenario.nvme, nr_cores);
        // Fault injection: generate the whole schedule up front from the
        // spec seed and the device geometry — purely virtual-time, so runs
        // with faults stay exactly as deterministic as runs without.
        if let Some(spec) = scenario.knobs.faults {
            let horizon = scenario.knobs.warmup + scenario.knobs.measure;
            device.install_faults(simkit::FaultPlan::generate(
                &spec,
                device.fault_geometry(),
                horizon,
            ));
        }
        let mut stack = build_stack(&scenario.stack, nr_cores, &mut device);
        // Swap the dispatch core's empty shells for warm parked buffers (the
        // shared arena tags make a map parked by any stack flavour
        // adoptable here), then reserve every table an in-flight command
        // holds a slot of from the scenario's in-flight bound: the request
        // slabs and CQE scratch, the stack's own tables, and the device's
        // command slab; submission scratch from the batch bound. The
        // steady state allocates nothing on the hot path.
        stack.dispatch().adopt(arena);
        stack.dispatch().reserve(bounds.inflight);
        stack.reserve(bounds);
        device.reserve(bounds.inflight);
        let mut rng = SimRng::new(scenario.knobs.seed);
        let mut tenants: Vec<Tenant> = arena.take(0);
        let mut active_apps = 0;
        for (i, spec) in std::mem::take(&mut scenario.tenants)
            .into_iter()
            .enumerate()
        {
            let pid = Pid(i as u64 + 1);
            let ns_blocks = device.config().namespace_blocks[spec.nsid.index()];
            let driver = match spec.kind {
                TenantKind::Fio(job) => Driver::Fio(job),
                TenantKind::App(app) => {
                    active_apps += 1;
                    // The `new_in` constructors adopt parked workload scratch
                    // (key-popularity tables, page caches) from the arena, so
                    // small sweep cells stop rebuilding them per run.
                    // dd-alloc-allowlist: one box per app tenant, at construction.
                    let workload = Box::new(match app {
                        AppKind::Ycsb { mix, config, ops } => {
                            App::Ycsb(YcsbWorkload::new_in(mix, config, ops, arena))
                        }
                        AppKind::Mailserver { config, ops } => {
                            App::Mailserver(MailserverWorkload::new_in(config, ops, arena))
                        }
                    });
                    Driver::App {
                        workload,
                        current: None,
                    }
                }
            };
            tenants.push(Tenant {
                pid,
                class_label: spec.class_label,
                ionice: spec.ionice,
                core: spec.core,
                nsid: spec.nsid,
                ns_blocks,
                driver,
                summary: TenantSummary::new(pid.0, spec.class_label),
                rng: rng.fork(),
                seq_cursor: rng.gen_range(ns_blocks.max(1)),
                slo: spec.slo,
                series_idx: None,
            });
        }
        let window_start = SimTime::ZERO + scenario.knobs.warmup;
        // Span tracing: install the (pre-allocated) sink once, up front;
        // when the scenario leaves it off, every instrumentation point
        // costs one `enabled()` branch.
        let mut dev_out: DeviceOutput = arena.take(0);
        dev_out.trace.reconfigure(scenario.knobs.trace);
        let mut cpu: CpuSystem<Work> = arena.take(0);
        cpu.configure(nr_cores);
        // Each lane is reserved for the events that can wait in it at once,
        // so the dispatch loop never grows the queue mid-run.
        let mut queue: EventQueue<Event> = arena.take(0);
        queue.reserve(near, far);
        let mut bios: Vec<Bio> = arena.take(0);
        bios.reserve(bounds.batch);
        let (comps, delivering, migs) = (arena.take(0), arena.take(0), arena.take(0));
        let (cpu_baseline, series, wd_reaped) = (arena.take(0), arena.take(0), arena.take(0));
        Machine {
            host: Host {
                queue,
                now: SimTime::ZERO,
                cpu,
                faults: scenario.knobs.faults.is_some(),
                spurious_isrs: 0,
            },
            io: Transport {
                device,
                stack,
                rng,
                costs: HostCosts::default(),
                dev_out,
                comps,
                delivering,
                migs,
            },
            drivers: Drivers {
                tenants,
                bios,
                next_bio_id: 0,
                window_start,
                sample_width: scenario.sample_width,
                stop_when_apps_done: scenario.stop_when_apps_done,
                series,
                // dd-alloc-allowlist: once per machine; app op classes only.
                op_lat: HashMap::new(),
                active_apps,
            },
            timers: Timers {
                start,
                stop_at: window_start + scenario.knobs.measure,
                core_pool: scenario.core_pool,
                cpu_baseline,
                cap_warmup: CapacityProbe::default(),
                wd_reaped,
                polls_fired: 0,
            },
        }
    }

    /// Snapshots the hot-path capacities (stack request slabs, event
    /// queue backing, device command slab) for the capacity-stability
    /// accounting. Taken right after [`Machine::new_in`] it reads the
    /// reservations; a closed-loop run ends with the same probe.
    pub fn capacity_probe(&mut self) -> CapacityProbe {
        self.io.probe(self.host.queue.capacity())
    }

    /// Runs the scenario to completion, parking the machine's growable
    /// structures in `arena` at teardown so the next [`Machine::new_in`]
    /// on this arena rebuilds nothing. The output does not depend on what
    /// the arena held.
    pub fn run_in(mut self, arena: &mut RunArena) -> RunOutput {
        let Machine {
            host,
            io,
            drivers,
            timers,
        } = &mut self;
        drivers.start(host, io);
        timers.arm(host, io.device.nr_cqs());
        let mut events = 0;
        while let Some((at, ev)) = host.queue.pop() {
            debug_assert!(at >= host.now, "time went backwards");
            host.now = at;
            events += 1;
            match ev {
                Event::Stop => break,
                Event::EndWarmup => {
                    timers.cpu_baseline = host.cpu.busy_snapshot(at);
                    timers.cap_warmup = io.probe(host.queue.capacity());
                }
                Event::FaultWatchdog(period) => timers.watchdog(period, host, io),
                Event::Dev(dev_ev) => {
                    io.device.handle_event(dev_ev, at, &mut io.dev_out);
                    io.drain(&mut host.queue);
                }
                Event::IrqDeliver { cq, core } => {
                    host.enqueue(core, WorkClass::HardIrq, Work::Isr { cq });
                }
                Event::CoreDispatch(core) => host.exec_work(core, io, drivers),
                Event::CoreDone(core) => {
                    if host.cpu.finish(core, at) {
                        host.queue.push(at, Event::CoreDispatch(core));
                    }
                }
                Event::Completed(slot) => drivers.complete(slot, io, host),
                Event::WakeResubmit(pid) => drivers.wake(pid, timers.stop_at, host),
                Event::StackTick => timers::stack_tick(host, io, drivers),
                Event::IoniceStorm(period) => timers::ionice_storm(period, host, drivers),
                Event::MigrateStorm(period) => timers.migrate_storm(period, host, io, drivers),
            }
        }
        let end = host.now.min(timers.stop_at);
        self.harvest(end, events, arena)
    }
}

/// Builds the stack a spec describes (recursing for the virtio wrapper;
/// `Scenario::validate` rejects nested virtio).
fn build_stack(spec: &StackSpec, nr_cores: u16, device: &mut NvmeDevice) -> Box<dyn StorageStack> {
    let nr_sqs = device.nr_sqs();
    // dd-alloc-allowlist: one-time stack boxing at construction, not a
    // dispatch-path allocation.
    match spec {
        StackSpec::Vanilla(cfg) => Box::new(VanillaBlkMq::new(*cfg, nr_cores, nr_sqs)), // dd-alloc-allowlist: construction
        StackSpec::BlkSwitch(cfg) => Box::new(BlkSwitchStack::new(*cfg, nr_cores, nr_sqs)), // dd-alloc-allowlist: construction
        StackSpec::Overprov => Box::new(OverprovStack::new(nr_cores, device)), // dd-alloc-allowlist: construction
        StackSpec::Daredevil(cfg) => Box::new(DaredevilStack::new(*cfg, device)), // dd-alloc-allowlist: construction
        StackSpec::Virtio { inner, sla_aware } => {
            let mode = if *sla_aware {
                VqMode::SlaAware
            } else {
                VqMode::Naive
            };
            // dd-alloc-allowlist: construction
            Box::new(VirtioBlk::new(build_stack(inner, nr_cores, device), mode))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::MachinePreset;

    fn quick(stack: StackSpec, nr_l: u16, nr_t: u16) -> RunOutput {
        let mut s = Scenario::multi_tenant_fio(stack, nr_l, nr_t, 2, MachinePreset::Small);
        s.knobs.warmup = SimDuration::from_millis(5);
        s.knobs.measure = SimDuration::from_millis(40);
        crate::run(s)
    }

    /// Satellite of the fault-injection issue: an aged drive (GC on)
    /// raises the L-latency floor for every stack — erase-after-write is
    /// device-internal blocking no amount of per-SLA queueing removes.
    #[test]
    fn gc_raises_the_latency_floor_for_every_stack() {
        for stack in [StackSpec::vanilla(), StackSpec::daredevil()] {
            let write_t = |mut s: Scenario| {
                for t in &mut s.tenants {
                    if t.class_label == "T" {
                        t.kind = crate::scenario::TenantKind::Fio(
                            dd_workload::tenants::t_tenant_write_job(),
                        );
                    }
                }
                s
            };
            let base = |stack: StackSpec| {
                let mut s = Scenario::multi_tenant_fio(stack, 4, 2, 4, MachinePreset::Small);
                s.knobs.warmup = SimDuration::from_millis(5);
                s.knobs.measure = SimDuration::from_millis(40);
                write_t(s)
            };
            // Heavy aging: one 3 ms erase per two 128 KiB writes. Erases
            // throttle the T-writers (the *mean* can even improve), but
            // any L-read landing on an erasing die eats milliseconds —
            // the floor shows in the tail.
            let gc = dd_nvme::flash::GcConfig {
                write_threshold_pages: 64,
                ..Default::default()
            };
            let name = stack.name();
            let clean = crate::run(base(stack.clone()));
            let mut aged_s = base(stack);
            aged_s.nvme.flash = aged_s.nvme.flash.with_gc(gc);
            let aged = crate::run(aged_s);
            assert!(
                aged.summary.class("L").ios_completed > 0,
                "{name}: aged drive starved L entirely"
            );
            let clean_p999 = clean.summary.class("L").latency.p999();
            let aged_p999 = aged.summary.class("L").latency.p999();
            assert!(
                aged_p999 > clean_p999 + SimDuration::from_millis(1),
                "{name}: GC must lift the L tail by erase-scale: {:?} -> {:?}",
                clean_p999,
                aged_p999
            );
        }
    }

    /// `event_bound`, term by term, on hand-counted scenarios. The Small
    /// preset has 8 CQs, 4 cores and a 512-page budget, so each term of
    /// the sums moves the result by a different amount.
    #[test]
    fn event_bound_counts_every_holder() {
        // 2 L-tenants at QD1 and 1 T-tenant at QD32: 34 commands.
        let mut s =
            Scenario::multi_tenant_fio(StackSpec::daredevil(), 2, 1, 4, MachinePreset::Small);
        assert_eq!(s.io_bounds().inflight, 34);
        // The start timers: StackTick, EndWarmup and Stop.
        let holders = 8 + 4; // one IrqDeliver per CQ, one core event per core
        assert_eq!(event_bound(&s, 34), (34 + holders + 3, 3 + 34));
        // Every optional timer, and the apps-done Stop.
        s.ionice_storm = Some(SimDuration::from_millis(1));
        s.migrate_storm = Some(SimDuration::from_millis(2));
        s.knobs.faults = Some(simkit::FaultSpec::new(simkit::FaultClasses::ALL, 7));
        s.stop_when_apps_done = true;
        assert_eq!(event_bound(&s, 34), (34 + holders + 7, 7 + 34));
        // Three open-loop tenants: one wake each, and past the page budget
        // only 512 completions can wait in flash.
        for core in 0..3 {
            let job = FioJob::new(dd_workload::RwPattern::RandRead, 4096, 1)
                .with_arrival(dd_workload::ArrivalModel::open(1_000.0));
            s.tenants.push(crate::scenario::TenantSpec {
                class_label: "L",
                ionice: IoPriorityClass::RealTime,
                core,
                nsid: NamespaceId(1),
                kind: TenantKind::Fio(job),
                slo: None,
            });
        }
        let inflight = s.io_bounds().inflight;
        assert_eq!(inflight, 34 + 512);
        assert_eq!(
            event_bound(&s, inflight),
            (inflight + holders + 3 + 7, 3 + 7 + 512)
        );
    }

    #[test]
    fn vanilla_run_completes_ios() {
        let out = quick(StackSpec::vanilla(), 2, 2);
        let l = out.summary.class("L");
        let t = out.summary.class("T");
        assert!(l.ios_completed > 10, "L completed {}", l.ios_completed);
        assert!(t.ios_completed > 10, "T completed {}", t.ios_completed);
        assert!(l.latency.mean() > SimDuration::from_micros(10));
        assert!(out.events_processed > 100);
    }

    #[test]
    fn all_stacks_run_deterministically() {
        for spec in [
            StackSpec::vanilla(),
            StackSpec::blk_switch(),
            StackSpec::daredevil(),
            StackSpec::dare_base(),
            StackSpec::dare_sched(),
        ] {
            let a = quick(spec.clone(), 1, 2);
            let b = quick(spec.clone(), 1, 2);
            assert_eq!(
                a.summary.class("L").ios_completed,
                b.summary.class("L").ios_completed,
                "{} not deterministic",
                a.summary.stack
            );
            assert_eq!(
                a.summary.class("L").latency.p999(),
                b.summary.class("L").latency.p999()
            );
        }
    }

    #[test]
    fn daredevil_beats_vanilla_under_pressure() {
        let vanilla = quick(StackSpec::vanilla(), 2, 8);
        let dare = quick(StackSpec::daredevil(), 2, 8);
        assert!(
            dare.l_p999_ms() < vanilla.l_p999_ms(),
            "daredevil p99.9 {} must beat vanilla {}",
            dare.l_p999_ms(),
            vanilla.l_p999_ms()
        );
    }

    #[test]
    fn throughput_is_sane() {
        let out = quick(StackSpec::vanilla(), 1, 4);
        // 4 T-tenants × QD32 × 128 KiB must move real data.
        assert!(out.t_mbps() > 50.0, "T throughput {}", out.t_mbps());
    }

    #[test]
    fn cpu_utilisation_reported() {
        let out = quick(StackSpec::vanilla(), 2, 6);
        let util = out.summary.avg_cpu_util();
        assert!(util > 0.0 && util <= 1.0, "util={util}");
    }

    #[test]
    fn warmup_discards_early_completions() {
        let mut s = Scenario::multi_tenant_fio(StackSpec::vanilla(), 1, 0, 1, MachinePreset::Small);
        s.knobs.warmup = SimDuration::from_millis(20);
        s.knobs.measure = SimDuration::from_millis(20);
        let out = crate::run(s);
        let l = out.summary.class("L");
        // Issued counts everything, completed only the window.
        let issued: u64 = out.summary.tenants.iter().map(|t| t.ios_issued).sum();
        assert!(issued > l.ios_completed);
    }

    #[test]
    fn series_buckets_cover_window() {
        let mut s = Scenario::multi_tenant_fio(StackSpec::vanilla(), 1, 1, 2, MachinePreset::Small);
        s.knobs.warmup = SimDuration::from_millis(2);
        s.knobs.measure = SimDuration::from_millis(50);
        s.knobs.seed = 7;
        s.sample_width = SimDuration::from_millis(10);
        let out = crate::run(s);
        let l = out.series.get("L").expect("L series exists");
        assert!(l.latency.buckets().len() >= 4, "expect several buckets");
    }

    #[test]
    fn migrate_storm_moves_tenants() {
        let mut s =
            Scenario::multi_tenant_fio(StackSpec::daredevil(), 2, 2, 2, MachinePreset::Small);
        s.knobs.warmup = SimDuration::from_millis(5);
        s.knobs.measure = SimDuration::from_millis(30);
        s.migrate_storm = Some(SimDuration::from_millis(1));
        let out = crate::run(s);
        assert!(out.summary.class("L").ios_completed > 0);
    }

    #[test]
    fn ionice_storm_triggers_reassignments() {
        let mut s =
            Scenario::multi_tenant_fio(StackSpec::daredevil(), 2, 2, 2, MachinePreset::Small);
        s.knobs.warmup = SimDuration::from_millis(5);
        s.knobs.measure = SimDuration::from_millis(30);
        s.ionice_storm = Some(SimDuration::from_millis(2));
        let out = crate::run(s);
        assert!(
            out.troute_reassignments > 5,
            "storm must force reassignments, got {}",
            out.troute_reassignments
        );
    }

    /// The capacity-stability contract on its hardest shape, a `hostile`
    /// mixed cell: 4 L + 8 T on SV-M, every fault class, an ionice storm
    /// every 1 ms and a migrate storm every 2 ms. Sized from the scenario
    /// bounds, no hot-path structure may grow after warm-up.
    #[test]
    fn hostile_cell_stops_allocating_after_warmup() {
        use simkit::{FaultClasses, FaultSpec};
        for stack in [
            StackSpec::vanilla(),
            StackSpec::blk_switch(),
            StackSpec::overprov(),
            StackSpec::daredevil(),
        ] {
            let mut s = Scenario::multi_tenant_fio(stack.clone(), 4, 8, 4, MachinePreset::SvM);
            s.knobs.warmup = SimDuration::from_millis(20);
            s.knobs.measure = SimDuration::from_millis(50);
            s.knobs.faults = Some(FaultSpec::new(FaultClasses::ALL, 0xDD));
            s.ionice_storm = Some(SimDuration::from_millis(1));
            s.migrate_storm = Some(SimDuration::from_millis(2));
            let out = crate::run(s);
            assert_eq!(
                out.cap_warmup,
                out.cap_end,
                "{}: grew after warm-up",
                stack.name()
            );
        }
    }

    #[test]
    fn app_tenant_runs_ycsb() {
        use dd_workload::kvsim::KvConfig;
        let mut s = Scenario::new("ycsb-test", MachinePreset::Small, StackSpec::daredevil());
        s.tenants.push(crate::scenario::TenantSpec {
            class_label: "app",
            ionice: IoPriorityClass::RealTime,
            core: 0,
            nsid: NamespaceId(1),
            kind: TenantKind::App(AppKind::Ycsb {
                mix: dd_workload::YcsbMix::A,
                config: KvConfig {
                    keys: 10_000,
                    cache_blocks: 1_000,
                    memtable_entries: 50,
                    ..KvConfig::default()
                },
                ops: 500,
            }),
            slo: None,
        });
        s.knobs.warmup = SimDuration::from_millis(1);
        s.knobs.measure = SimDuration::from_secs(5);
        s.stop_when_apps_done = true;
        let out = crate::run(s);
        let reads = out.op_latencies.get(&OpKind::Read);
        let updates = out.op_latencies.get(&OpKind::Update);
        assert!(reads.is_some(), "read latencies recorded");
        assert!(updates.is_some(), "update latencies recorded");
        assert!(reads.unwrap().count() + updates.unwrap().count() > 200);
    }

    /// The harvest's three copies equal the facts they copy, on a troute
    /// cell under an ionice storm and every fault class (L-tenants only,
    /// so stalled NSQs get redriven), and through virtio, whose route
    /// counters forward to the inner stack.
    #[test]
    fn harvest_copies_equal_their_originals() {
        use simkit::{FaultClasses, FaultSpec};
        let mut dare =
            Scenario::multi_tenant_fio(StackSpec::daredevil(), 4, 0, 2, MachinePreset::Small);
        dare.ionice_storm = Some(SimDuration::from_millis(2));
        dare.knobs.faults = Some(FaultSpec::new(FaultClasses::ALL, 7));
        let virtio = StackSpec::virtio(StackSpec::daredevil(), true);
        let virtio = Scenario::multi_tenant_fio(virtio, 2, 4, 2, MachinePreset::Small);
        let outs = [dare, virtio].map(|mut s| {
            s.knobs.warmup = SimDuration::from_millis(5);
            s.knobs.measure = SimDuration::from_millis(40);
            crate::run(s)
        });
        for out in &outs {
            let name = &out.summary.stack;
            let route = out.stack_stats.route;
            assert!(route.default_routes > 0, "{name}: troute routed nothing");
            assert_eq!(out.troute_reassignments, route.reassignments, "{name}");
            assert_eq!(out.route_stats, route, "{name}");
            assert_eq!(out.events_processed, out.summary.events_processed, "{name}");
            let redrives = out.stack_stats.watchdog_redrives;
            assert_eq!(out.fault.watchdog_redrives, redrives, "{name}");
        }
        // The storm and the faults give the Daredevil cell's copies
        // non-zero originals to equal.
        assert!(outs[0].stack_stats.route.reassignments > 0);
        assert!(outs[0].stack_stats.watchdog_redrives > 0);
    }
}
