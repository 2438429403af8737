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

use std::collections::HashMap;

use blkstack::blkmq::VanillaBlkMq;
use blkstack::stack::{StackEnv, StackStats, StorageStack};
use blkstack::{Bio, BioCompletion, BioId, IoPriorityClass, Pid, TaskStruct};
use blkswitch::BlkSwitchStack;
use daredevil::DaredevilStack;
use dd_cpu::{CpuSystem, HostCosts, WorkClass};
use dd_metrics::{LatencyHistogram, RunSummary, TenantSummary, TimeSeries};
use dd_nvme::spec::bytes_to_blocks;
use dd_nvme::{CqId, DeviceOutput, NamespaceId, NvmeDevice, NvmeEvent};
use dd_overprov::OverprovStack;
use dd_virtio::{VirtioBlk, VqMode};
use dd_workload::mailserver::MailserverWorkload;
use dd_workload::{App, FioJob, IoDesc, OpKind, OpStep, Placement, YcsbWorkload};
use simkit::{EventQueue, RunArena, SimDuration, SimRng, SimTime, Slab, SlotId};

use crate::runout::{CapacityProbe, ClassSeries, RunOutput};
use crate::scenario::{AppKind, Scenario, StackSpec, TenantKind};

/// Events of the machine loop.
enum Event {
    /// Internal device event.
    Dev(NvmeEvent),
    /// A core has queued work and no running item: pick the next.
    CoreDispatch(u16),
    /// The running work item of a core finished.
    CoreDone(u16),
    /// A CQ's interrupt reaches the core its vector is bound to.
    IrqDeliver { cq: CqId, core: u16 },
    /// A bio completion, held in `Machine::delivering`, is delivered to
    /// its tenant.
    Completed(SlotId),
    /// Periodic stack housekeeping (blk-switch steering).
    StackTick,
    /// Fig. 14: flip every tenant's ionice.
    IoniceStorm,
    /// Fig. 13: move a random tenant to a random core.
    MigrateStorm,
    /// An open-loop FIO tenant's next arrival is due: reissue.
    WakeResubmit(Pid),
    /// Measurement window opens.
    EndWarmup,
    /// Fault-recovery scan: poll orphaned CQs, redrive stalled NSQs.
    /// Scheduled only when the scenario injects faults.
    FaultWatchdog,
    /// Run ends.
    Stop,
}

// A queue entry is `16 + size_of::<Event>()` bytes and is moved on every
// push, sort and pop: payloads live in slabs, events carry handles.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// The timers a run arms at start, in push order. Each is pending at most
/// once at a time: only its own handler re-arms it.
fn start_timers(scenario: &Scenario) -> [Option<(SimTime, Event)>; 6] {
    let at = |d: SimDuration| SimTime::ZERO + d;
    let knobs = &scenario.knobs;
    [
        Some((SimTime::ZERO, Event::StackTick)),
        Some((at(knobs.warmup), Event::EndWarmup)),
        Some((at(knobs.warmup + knobs.measure), Event::Stop)),
        scenario.ionice_storm.map(|d| (at(d), Event::IoniceStorm)),
        scenario.migrate_storm.map(|d| (at(d), Event::MigrateStorm)),
        knobs
            .faults
            .map(|f| (at(f.watchdog_period), Event::FaultWatchdog)),
    ]
}

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

/// Work payloads executed on cores.
enum Work {
    /// Tenant submission syscall carrying `nr` new I/Os.
    Submit { pid: Pid, nr: u32 },
    /// FIO slot refill: reap one completion and submit one I/O.
    Resubmit { pid: Pid },
    /// Interrupt service routine for a CQ.
    Isr { cq: CqId },
    /// Execute the next step of an application op.
    AppStep { pid: Pid },
    /// Apply a runtime ionice change.
    IoniceUpdate { pid: Pid, class: IoPriorityClass },
    /// Context-switch cost of landing a migrated tenant.
    MigrationLand,
}

/// Progress of the current application op.
struct OpState {
    kind: OpKind,
    /// Steps not yet started; each is moved out as it runs.
    steps: std::vec::IntoIter<OpStep>,
    started: SimTime,
    waiting_ios: u32,
}

enum Driver {
    Fio(FioJob),
    App {
        /// Boxed so that `Tenant` keeps its fio size (352 bytes, against
        /// 576 with the workload inline): a fleet host holds thousands of
        /// fio tenants and at most a few apps.
        workload: Box<App>,
        current: Option<OpState>,
        done: bool,
    },
}

struct Tenant {
    pid: Pid,
    class_label: &'static str,
    ionice: IoPriorityClass,
    core: u16,
    nsid: NamespaceId,
    ns_blocks: u64,
    driver: Driver,
    summary: TenantSummary,
    rng: SimRng,
    seq_cursor: u64,
    /// Per-tenant latency SLO (None = no accounting).
    slo: Option<SimDuration>,
    /// Cached position of this tenant's class in `Machine::series`
    /// (populated on first in-window completion; the per-completion hot
    /// path then indexes instead of hashing the label).
    series_idx: Option<u32>,
}

/// The executing machine.
pub struct Machine {
    /// The scenario less its tenant specs, which `new_in` consumed into
    /// `tenants`.
    scenario: Scenario,
    queue: EventQueue<Event>,
    cpu: CpuSystem<Work>,
    device: NvmeDevice,
    stack: Box<dyn StorageStack>,
    /// Dense by pid: tenant `Pid(p)` lives at index `p - 1` (pids are
    /// assigned contiguously at build time and never removed).
    tenants: Vec<Tenant>,
    rng: SimRng,
    costs: HostCosts,
    // Scratch buffers reused across calls.
    dev_out: DeviceOutput,
    comps: Vec<BioCompletion>,
    /// Completions scheduled for delivery, named by `Event::Completed`.
    delivering: Slab<BioCompletion>,
    migs: Vec<(Pid, u16)>,
    bio_scratch: Vec<Bio>,
    next_bio_id: u64,
    now: SimTime,
    window_start: SimTime,
    stop_at: SimTime,
    cpu_baseline: Vec<SimDuration>,
    // Keyed by the tenants' `&'static` class labels; the handful of classes
    // makes a scan-on-miss vec (plus the per-tenant cached index) cheaper
    // than hashing the label on every in-window completion.
    series: Vec<(&'static str, ClassSeries)>,
    op_lat: HashMap<OpKind, LatencyHistogram>,
    active_apps: usize,
    events_processed: u64,
    /// Per-CQ cumulative-reap snapshot at the previous watchdog tick
    /// (`u64::MAX` = not under observation). A raised vector whose CQ
    /// reaped nothing across a full tick gets a polling-fallback ISR.
    wd_reaped: Vec<u64>,
    /// Polling-fallback ISRs fired by the watchdog.
    polls_fired: u64,
    /// ISRs that found an empty CQ (poll raced a real delivery).
    spurious_isrs: u64,
    /// Hot-path capacity snapshot taken at warmup end (the capacity-
    /// stability gate compares it against the run-end snapshot).
    cap_warmup: CapacityProbe,
}

/// Builds a bio from an I/O descriptor on behalf of a tenant.
fn materialize(tenant: &mut Tenant, io: IoDesc, id: u64, now: SimTime) -> Bio {
    let blocks = bytes_to_blocks(io.bytes.max(1)).max(1) as u64;
    let max_start = tenant.ns_blocks.saturating_sub(blocks);
    let offset = match io.placement {
        Placement::Random => tenant.rng.gen_range(max_start + 1),
        Placement::Sequential => {
            let o = tenant.seq_cursor % (max_start + 1);
            tenant.seq_cursor = o + blocks;
            o
        }
        Placement::Block(b) => b % (max_start + 1),
    };
    tenant.summary.ios_issued += 1;
    Bio {
        id: BioId(id),
        tenant: tenant.pid,
        core: tenant.core,
        nsid: tenant.nsid,
        op: io.op,
        offset_blocks: offset,
        bytes: io.bytes,
        flags: io.flags,
        ioprio: tenant.ionice,
        issued_at: now,
    }
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
    /// (a fleet host holds thousands), so a run keeps one copy of each;
    /// the bounds that count them are taken first.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails validation.
    pub fn new_in(mut scenario: Scenario, arena: &mut RunArena) -> Self {
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("invalid scenario '{}': {e}", scenario.name));
        let nr_cores = scenario.nr_cores();
        let mut device = NvmeDevice::new(scenario.nvme.clone(), nr_cores);
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
        let bounds = scenario.io_bounds();
        let (near, far) = event_bound(&scenario, bounds.inflight);
        stack.dispatch().adopt(arena);
        stack.dispatch().reserve(bounds.inflight);
        stack.reserve(bounds);
        device.reserve(bounds.inflight);
        let mut rng = SimRng::new(scenario.knobs.seed);
        let mut tenants: Vec<Tenant> = arena.take(0);
        let mut active_apps = 0usize;
        for (i, spec) in std::mem::take(&mut scenario.tenants)
            .into_iter()
            .enumerate()
        {
            let pid = Pid(i as u64 + 1);
            let ns_blocks = scenario.nvme.namespace_blocks[spec.nsid.index()];
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
                        done: false,
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
        let stop_at = window_start + scenario.knobs.measure;
        // Span tracing: install the (pre-allocated) sink once, up front;
        // when the scenario leaves it off, every instrumentation point
        // costs one `enabled()` branch.
        let mut dev_out: DeviceOutput = arena.take(0);
        dev_out.trace.reconfigure(scenario.knobs.trace);
        let mut cpu: CpuSystem<Work> = arena.take(0);
        cpu.configure(scenario.nr_cores());
        // Each lane is reserved for the events that can wait in it at once,
        // so the dispatch loop never grows the queue mid-run.
        let mut queue: EventQueue<Event> = arena.take(0);
        queue.reserve(near, far);
        let mut bio_scratch: Vec<Bio> = arena.take(0);
        bio_scratch.reserve(bounds.batch);
        Machine {
            cpu,
            queue,
            device,
            stack,
            tenants,
            rng,
            costs: HostCosts::default(),
            dev_out,
            comps: arena.take(0),
            delivering: arena.take(0),
            migs: arena.take(0),
            bio_scratch,
            next_bio_id: 0,
            now: SimTime::ZERO,
            window_start,
            stop_at,
            cpu_baseline: arena.take(0),
            series: arena.take(0),
            // dd-alloc-allowlist: once per machine; app op classes only.
            op_lat: HashMap::new(),
            active_apps,
            events_processed: 0,
            wd_reaped: arena.take(0),
            polls_fired: 0,
            spurious_isrs: 0,
            cap_warmup: CapacityProbe::default(),
            scenario,
        }
    }

    /// Snapshots the hot-path capacities (stack request slabs, event
    /// queue backing, device command slab) for the capacity-stability
    /// accounting. Taken right after [`Machine::new_in`] it reads the
    /// reservations; a closed-loop run ends with the same probe.
    pub fn capacity_probe(&mut self) -> CapacityProbe {
        CapacityProbe {
            io_slots: self.stack.dispatch().io_capacity() + self.stack.io_capacity(),
            events: self.queue.capacity(),
            device_cmds: self.device.cmd_capacity(),
        }
    }

    /// The tenant for `pid`, if any (pids are dense, so this is an index).
    fn tenant_mut(&mut self, pid: Pid) -> Option<&mut Tenant> {
        self.tenants.get_mut((pid.0 as usize).wrapping_sub(1))
    }

    fn tenant(&self, pid: Pid) -> &Tenant {
        &self.tenants[(pid.0 - 1) as usize]
    }

    fn enqueue_work(&mut self, core: u16, class: WorkClass, work: Work) {
        if self.cpu.enqueue(core, class, work) {
            self.queue.push(self.now, Event::CoreDispatch(core));
        }
    }

    /// Moves pending device effects, completions, and migrations into the
    /// event queue. Must run after every stack/device interaction.
    ///
    /// Device events and completions go in by `push_batch`, which amortises
    /// the queue's sequence bookkeeping over the whole drain. Raises
    /// go in one `push` each: a drain holds at most one, so a batch would
    /// only add overhead. The iteration orders reproduce the historical
    /// push order exactly (FIFO for device events, reverse for irqs and
    /// completions — the old `pop()` loops), so equal-time events keep the
    /// same sequence tie-break.
    fn drain_effects(&mut self) {
        let queue = &mut self.queue;
        queue.push_batch(
            self.dev_out
                .events
                .drain(..)
                .map(|(at, ev)| (at, Event::Dev(ev))),
        );
        while let Some(r) = self.dev_out.irqs.pop() {
            queue.push(
                r.at,
                Event::IrqDeliver {
                    cq: r.cq,
                    core: r.core,
                },
            );
        }
        let delivering = &mut self.delivering;
        queue.push_batch(
            self.comps
                .drain(..)
                .rev()
                .map(|c| (c.completed_at, Event::Completed(delivering.insert(c)))),
        );
        // Migrations keep the per-item loop: each one mutates tenant state
        // and enqueues core work, not just a queue insert.
        while let Some((pid, core)) = self.migs.pop() {
            if let Some(t) = self.tenant_mut(pid) {
                t.core = core;
            }
            self.enqueue_work(core, WorkClass::Task, Work::MigrationLand);
        }
    }

    /// Runs one stack call with a fresh environment; returns its CPU cost.
    fn with_env<R>(&mut self, f: impl FnOnce(&mut dyn StorageStack, &mut StackEnv<'_>) -> R) -> R {
        // The one-allocation reuse contract (`DeviceOutput::clear`): the
        // machine owns a single output buffer and must have drained it fully
        // before lending it to the next device interaction.
        debug_assert!(
            self.dev_out.is_empty(),
            "DeviceOutput must be drained before reuse"
        );
        let mut env = StackEnv {
            now: self.now,
            device: &mut self.device,
            dev_out: &mut self.dev_out,
            completions: &mut self.comps,
            migrations: &mut self.migs,
            rng: &mut self.rng,
            costs: &self.costs,
        };
        let r = f(self.stack.as_mut(), &mut env);
        // `env` borrows several fields; end its scope before draining.
        let _ = env;
        self.drain_effects();
        r
    }

    /// Generates `nr` fresh FIO bios for a tenant into the reusable scratch
    /// buffer (taken out of `self`, handed back by the caller — the
    /// dispatch loop allocates nothing in steady state).
    fn gen_fio_bios(&mut self, pid: Pid, nr: u32) -> Vec<Bio> {
        let mut bios = std::mem::take(&mut self.bio_scratch);
        bios.clear();
        let now = self.now;
        let mut ids = self.next_bio_id;
        let tenant = self.tenant_mut(pid).expect("known tenant");
        let Driver::Fio(job) = &tenant.driver else {
            panic!("fio bios for a non-fio tenant");
        };
        let job = *job;
        for _ in 0..nr {
            let io = job.next_io(&mut tenant.rng);
            let bio = materialize(tenant, io, ids, now);
            ids += 1;
            bios.push(bio);
        }
        self.next_bio_id = ids;
        bios
    }

    /// Executes one work payload on `core`; returns its CPU cost.
    fn exec_work(&mut self, core: u16, work: Work) -> SimDuration {
        match work {
            Work::Submit { pid, nr } => {
                let bios = self.gen_fio_bios(pid, nr);
                let cost = self.with_env(|stack, env| stack.submit(&bios, env));
                self.bio_scratch = bios;
                cost
            }
            Work::Resubmit { pid } => {
                let bios = self.gen_fio_bios(pid, 1);
                let cost = self.with_env(|stack, env| stack.submit(&bios, env));
                self.bio_scratch = bios;
                self.costs.reap_per_rq + cost
            }
            Work::Isr { cq } => {
                if self.scenario.knobs.faults.is_some() && self.device.cq_pending(cq) == 0 {
                    self.spurious_isrs += 1;
                }
                self.with_env(|stack, env| stack.on_irq(cq, core, env))
            }
            Work::AppStep { pid } => self.app_step(pid),
            Work::IoniceUpdate { pid, class } => {
                if let Some(t) = self.tenant_mut(pid) {
                    t.ionice = class;
                }
                self.with_env(|stack, env| stack.update_ionice(pid, class, env));
                self.costs.syscall_base + self.costs.ionice_update
            }
            Work::MigrationLand => self.costs.context_switch,
        }
    }

    /// Executes the next application step of `pid`; returns its CPU cost.
    fn app_step(&mut self, pid: Pid) -> SimDuration {
        let now = self.now;
        let mut ids = self.next_bio_id;
        // Bios are staged into the reusable scratch buffer (no per-step
        // allocation); it is handed back on every exit path below.
        let mut bios = std::mem::take(&mut self.bio_scratch);
        bios.clear();
        // Stage 1: advance the tenant's op state, producing an action.
        enum Action {
            AlreadyDone,
            Finished,
            OpDone { kind: OpKind, started: SimTime },
            Compute(SimDuration),
            Issue,
        }
        let action = {
            let tenant = self.tenant_mut(pid).expect("known tenant");
            let Driver::App {
                workload,
                current,
                done,
            } = &mut tenant.driver
            else {
                panic!("app step for a non-app tenant");
            };
            if *done {
                Action::AlreadyDone
            } else {
                if current.is_none() {
                    // Split borrows: next_op needs the workload and the rng.
                    match workload.next_op(&mut tenant.rng) {
                        Some(op) => {
                            *current = Some(OpState {
                                kind: op.kind,
                                steps: op.steps.into_iter(),
                                started: now,
                                waiting_ios: 0,
                            });
                        }
                        None => *done = true,
                    }
                }
                match current.as_mut() {
                    None => Action::Finished,
                    Some(st) => match st.steps.next() {
                        None => {
                            let kind = st.kind;
                            let started = st.started;
                            *current = None;
                            Action::OpDone { kind, started }
                        }
                        Some(OpStep::Compute(d)) => Action::Compute(d),
                        Some(OpStep::Io(desc)) => {
                            st.waiting_ios = 1;
                            let bio = materialize(tenant, desc, ids, now);
                            ids += 1;
                            bios.push(bio);
                            Action::Issue
                        }
                        Some(OpStep::IoParallel(descs)) => {
                            st.waiting_ios = descs.len() as u32;
                            for d in descs {
                                let bio = materialize(tenant, d, ids, now);
                                ids += 1;
                                bios.push(bio);
                            }
                            Action::Issue
                        }
                    },
                }
            }
        };
        self.next_bio_id = ids;
        // Stage 2: act.
        let cost = match action {
            Action::AlreadyDone => SimDuration::ZERO,
            Action::Finished => self.app_finished(pid),
            Action::OpDone { kind, started } => {
                if now >= self.window_start && kind != OpKind::Maintenance {
                    self.op_lat
                        .entry(kind)
                        .or_default()
                        .record(now.saturating_since(started));
                }
                let core = self.tenant(pid).core;
                self.enqueue_work(core, WorkClass::Task, Work::AppStep { pid });
                self.costs.app_op_done
            }
            Action::Compute(d) => {
                let core = self.tenant(pid).core;
                self.enqueue_work(core, WorkClass::Task, Work::AppStep { pid });
                d
            }
            Action::Issue => self.with_env(|stack, env| stack.submit(&bios, env)),
        };
        self.bio_scratch = bios;
        cost
    }

    /// A tenant's app workload ran out of ops.
    fn app_finished(&mut self, _pid: Pid) -> SimDuration {
        self.active_apps -= 1;
        if self.active_apps == 0 && self.scenario.stop_when_apps_done {
            self.queue.push(self.now, Event::Stop);
        }
        SimDuration::ZERO
    }

    /// Delivers one bio completion: statistics plus tenant continuation.
    fn handle_completion(&mut self, slot: SlotId) {
        // `drain_effects` fills each slot once, for one `Completed` event.
        let c = self
            .delivering
            .remove(slot)
            .expect("completion held since drain");
        let window_start = self.window_start;
        let Some(tenant) = self.tenant_mut(c.bio.tenant) else {
            return;
        };
        let in_window = c.completed_at >= window_start;
        if in_window {
            tenant.summary.record_completion(c.latency(), c.bio.bytes);
            if let Some(slo) = tenant.slo {
                if c.latency() > slo {
                    tenant.summary.slo_violations += 1;
                }
            }
        }
        let class = tenant.class_label;
        let core = tenant.core;
        let pid = tenant.pid;
        let cached_series = tenant.series_idx;
        let continuation = match &mut tenant.driver {
            // Open-loop arrival tenants are driven by their wake chain
            // (see `Event::WakeResubmit`): completions only record stats.
            Driver::Fio(job) if job.arrival.is_some() => None,
            Driver::Fio(_) => Some(Work::Resubmit { pid }),
            Driver::App { current, .. } => match current {
                Some(st) => {
                    debug_assert!(st.waiting_ios > 0, "unexpected app completion");
                    st.waiting_ios -= 1;
                    if st.waiting_ios == 0 {
                        Some(Work::AppStep { pid })
                    } else {
                        None
                    }
                }
                None => None,
            },
        };
        if in_window {
            let idx = match cached_series {
                Some(i) => i as usize,
                None => {
                    // First in-window completion for this tenant: find (or
                    // create) its class row once, then cache the index.
                    let i = match self.series.iter().position(|(k, _)| *k == class) {
                        Some(i) => i,
                        None => {
                            self.series.push((
                                class,
                                ClassSeries {
                                    latency: TimeSeries::new(
                                        self.window_start,
                                        self.scenario.sample_width,
                                    ),
                                    bytes: TimeSeries::new(
                                        self.window_start,
                                        self.scenario.sample_width,
                                    ),
                                },
                            ));
                            self.series.len() - 1
                        }
                    };
                    self.tenant_mut(pid).expect("known tenant").series_idx = Some(i as u32);
                    i
                }
            };
            let entry = &mut self.series[idx].1;
            entry.latency.record_latency(c.completed_at, c.latency());
            entry.bytes.record(c.completed_at, c.bio.bytes);
        }
        if let Some(work) = continuation {
            self.enqueue_work(core, WorkClass::Task, work);
        }
    }

    /// Registers all tenants with the stack and schedules initial work.
    fn bootstrap(&mut self) {
        // Tenants are registered and seeded in pid order.
        for i in 0..self.tenants.len() {
            let task = {
                let t = &self.tenants[i];
                TaskStruct::new(t.pid, t.core, t.ionice, t.nsid, t.class_label)
            };
            self.with_env(|stack, env| stack.register_tenant(&task, env));
        }
        for i in 0..self.tenants.len() {
            // Open-loop arrival tenants start with one staggered wake-up
            // (drawn from their own rng stream, so a 10k-tenant fleet does
            // not thundering-herd at t=0) instead of a closed-loop burst.
            let arrival_wake = {
                let t = &mut self.tenants[i];
                match &t.driver {
                    Driver::Fio(job) => job.arrival.map(|arr| {
                        let mean = arr.mean_gap(SimTime::ZERO);
                        (t.pid, t.rng.gen_exp(mean))
                    }),
                    Driver::App { .. } => None,
                }
            };
            if let Some((pid, delay)) = arrival_wake {
                self.queue
                    .push(SimTime::ZERO + delay, Event::WakeResubmit(pid));
                continue;
            }
            let (core, work) = {
                let t = &self.tenants[i];
                match &t.driver {
                    Driver::Fio(job) => (
                        t.core,
                        Work::Submit {
                            pid: t.pid,
                            nr: job.iodepth,
                        },
                    ),
                    Driver::App { .. } => (t.core, Work::AppStep { pid: t.pid }),
                }
            };
            self.enqueue_work(core, WorkClass::Task, work);
        }
        for (at, event) in start_timers(&self.scenario).into_iter().flatten() {
            self.queue.push(at, event);
        }
        if self.scenario.knobs.faults.is_some() {
            self.wd_reaped.clear();
            self.wd_reaped
                .resize(self.device.nr_cqs() as usize, u64::MAX);
        }
    }

    /// One fault-recovery watchdog tick (only scheduled under fault
    /// injection).
    ///
    /// Device side: a CQ whose vector is stuck `Raised` with pending CQEs
    /// and no drain progress since the previous tick has lost its raise
    /// (or its delivery wedged) — fall back to polling by queuing an ISR
    /// on the vector's core. The ISR drains the orphaned CQ and its
    /// `isr_done` re-arms the vector; if it races a real delivery, the
    /// second run finds an empty CQ and is tolerated as spurious.
    ///
    /// Host side: the stack's dispatch core flushes parked commands and
    /// redrives stalled NSQs (`Dispatch::watchdog`, bounded retry/backoff).
    fn fault_watchdog(&mut self) {
        for i in 0..self.wd_reaped.len() {
            let cq = CqId(i as u16);
            if self.device.cq_pending(cq) == 0 || !self.device.irq_raised(cq) {
                self.wd_reaped[i] = u64::MAX;
                continue;
            }
            let reaped = self.device.cq_reaped(cq);
            let last = std::mem::replace(&mut self.wd_reaped[i], reaped);
            if last != u64::MAX && reaped == last {
                // Stuck raised with zero reap progress across a full
                // period: the raise was lost — poll.
                self.wd_reaped[i] = u64::MAX;
                self.polls_fired += 1;
                let core = self.device.irq_core(cq);
                self.enqueue_work(core, WorkClass::HardIrq, Work::Isr { cq });
            }
        }
        self.with_env(|stack, env| stack.dispatch().watchdog(env));
    }

    /// Runs the scenario to completion, parking the machine's growable
    /// structures in `arena` at teardown so the next [`Machine::new_in`]
    /// on this arena rebuilds nothing. The output does not depend on what
    /// the arena held.
    pub fn run_in(mut self, arena: &mut RunArena) -> RunOutput {
        self.bootstrap();
        let mut window_end = self.stop_at;
        while let Some((at, ev)) = self.queue.pop() {
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_processed += 1;
            match ev {
                Event::Stop => {
                    window_end = self.now.min(self.stop_at);
                    break;
                }
                Event::EndWarmup => {
                    self.cpu_baseline = self.cpu.busy_snapshot(self.now);
                    self.cap_warmup = self.capacity_probe();
                }
                Event::FaultWatchdog => {
                    self.fault_watchdog();
                    let period = self
                        .scenario
                        .knobs
                        .faults
                        .expect("watchdog only scheduled with faults")
                        .watchdog_period;
                    // Keep scanning to the end of the run: the watchdog
                    // must outlive the last fault window even if every
                    // tenant is blocked (its event also keeps the queue
                    // non-empty, so a faulted lull cannot end the run
                    // early).
                    if self.now < self.stop_at {
                        self.queue.push(self.now + period, Event::FaultWatchdog);
                    }
                }
                Event::Dev(dev_ev) => {
                    let now = self.now;
                    self.device.handle_event(dev_ev, now, &mut self.dev_out);
                    self.drain_effects();
                }
                Event::IrqDeliver { cq, core } => {
                    self.enqueue_work(core, WorkClass::HardIrq, Work::Isr { cq });
                }
                Event::CoreDispatch(core) => {
                    if let Some((_class, work)) = self.cpu.take_next(core) {
                        let cost = self.exec_work(core, work);
                        let fin = self.cpu.begin(core, self.now, cost);
                        self.queue.push(fin, Event::CoreDone(core));
                    }
                }
                Event::CoreDone(core) => {
                    if self.cpu.finish(core, self.now) {
                        self.queue.push(self.now, Event::CoreDispatch(core));
                    }
                }
                Event::Completed(slot) => self.handle_completion(slot),
                Event::WakeResubmit(pid) => {
                    if let Some(t) = self.tenant_mut(pid) {
                        let core = t.core;
                        // Open-loop arrivals: the wake chain reschedules
                        // itself from the *arrival* clock (diurnal × burst
                        // modulated), independent of completions — queues
                        // grow when the host falls behind, exactly the
                        // overload behaviour a closed loop hides.
                        let next_wake = match &t.driver {
                            Driver::Fio(job) => job.arrival.map(|arr| {
                                let mean = arr.mean_gap(at);
                                t.rng.gen_exp(mean)
                            }),
                            _ => None,
                        };
                        if let Some(delay) = next_wake {
                            let next = at + delay;
                            if next < self.stop_at {
                                self.queue.push(next, Event::WakeResubmit(pid));
                            }
                        }
                        self.enqueue_work(core, WorkClass::Task, Work::Resubmit { pid });
                    }
                }
                Event::StackTick => {
                    if let Some(delay) = self.with_env(|stack, env| stack.on_tick(env)) {
                        self.queue.push(self.now + delay, Event::StackTick);
                    }
                }
                Event::IoniceStorm => {
                    // Dense walk in pid order.
                    for i in 0..self.tenants.len() {
                        let (pid, core, class) = {
                            let t = &self.tenants[i];
                            let flipped = match t.ionice {
                                IoPriorityClass::RealTime => IoPriorityClass::BestEffort,
                                _ => IoPriorityClass::RealTime,
                            };
                            (t.pid, t.core, flipped)
                        };
                        self.enqueue_work(core, WorkClass::Task, Work::IoniceUpdate { pid, class });
                    }
                    let interval = self.scenario.ionice_storm.expect("storm active");
                    self.queue.push(self.now + interval, Event::IoniceStorm);
                }
                Event::MigrateStorm => {
                    // Pids are dense: `Pid(1..=n)`.
                    let pid = Pid(self.rng.gen_range(self.tenants.len() as u64) + 1);
                    let core = self.rng.gen_range(self.scenario.core_pool as u64) as u16;
                    if let Some(t) = self.tenant_mut(pid) {
                        t.core = core;
                    }
                    self.with_env(|stack, env| stack.migrate_tenant(pid, core, env));
                    self.enqueue_work(core, WorkClass::Task, Work::MigrationLand);
                    let interval = self.scenario.migrate_storm.expect("storm active");
                    self.queue.push(self.now + interval, Event::MigrateStorm);
                }
            }
            if self.queue.is_empty() {
                window_end = self.now.min(self.stop_at);
                break;
            }
        }

        let core_busy_frac = if self.cpu_baseline.is_empty() {
            // dd-alloc-allowlist: once per run, after the event loop.
            vec![0.0; self.cpu.nr_cores() as usize]
        } else {
            self.cpu
                .busy_fractions(self.window_start, &self.cpu_baseline, window_end)
        };
        // Each tenant's summary moves into the output; an empty summary
        // (no histogram allocation) stays behind until teardown parks the
        // tenant vector.
        let summary = RunSummary {
            stack: self.stack.name().to_string(),
            window_start: self.window_start,
            window_end,
            tenants: self
                .tenants
                .iter_mut()
                .map(|t| {
                    std::mem::replace(&mut t.summary, TenantSummary::new(t.pid.0, t.class_label))
                })
                .collect(),
            events_processed: self.events_processed,
            core_busy_frac,
        };
        // Harvest the span trace (oldest first) out of the device-output
        // sink; the dropped counter tells consumers whether the ring
        // wrapped mid-run.
        let sink = std::mem::take(&mut self.dev_out.trace);
        let trace_dropped = sink.dropped();
        let stack_stats = StackStats {
            route: self.stack.route_stats(),
            ..self.stack.dispatch().stats()
        };
        let dev_faults = self.device.fault_stats();
        let fault = dd_metrics::FaultRecovery {
            spikes_applied: dev_faults.spikes_applied,
            vectors_lost: dev_faults.vectors_lost,
            stalls_engaged: dev_faults.stalls_engaged,
            polls_fired: self.polls_fired,
            watchdog_redrives: stack_stats.watchdog_redrives,
            spurious_isrs: self.spurious_isrs,
            irq_raised_total: self.device.irq_raised_total(),
        };
        let cap_end = self.capacity_probe();
        let out = RunOutput {
            summary,
            cap_warmup: self.cap_warmup,
            cap_end,
            series: self.series.drain(..).collect(),
            trace: sink.into_events(),
            trace_dropped,
            stack_stats,
            op_latencies: self.op_lat,
            flash_queue_delay: self.device.flash().avg_queue_delay(),
            events_processed: self.events_processed,
            troute_reassignments: stack_stats.route.reassignments,
            route_stats: stack_stats.route,
            fault,
            apps_unfinished: self.active_apps,
        };
        // Teardown: park every growable structure for the next run on this
        // arena. Values are reset on the way in (`ArenaReset`), so the next
        // `new_in` adopts warm capacity with fresh logical state. The device
        // itself is NOT parked — flash geometry, namespace tables, and fault
        // plans are per-scenario configuration, not recyclable scratch.
        self.stack.dispatch().park(arena);
        // App workloads park their own scratch (popularity tables, page
        // caches) before the tenant vector — which owns them — is recycled.
        for t in &mut self.tenants {
            if let Driver::App { workload, .. } = &mut t.driver {
                workload.park_scratch(arena);
            }
        }
        arena.put(0, self.queue);
        arena.put(0, self.cpu);
        arena.put(0, self.dev_out);
        arena.put(0, self.comps);
        arena.put(0, self.delivering);
        arena.put(0, self.migs);
        arena.put(0, self.bio_scratch);
        arena.put(0, self.tenants);
        arena.put(0, self.series);
        arena.put(0, self.cpu_baseline);
        arena.put(0, self.wd_reaped);
        out
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
}
