//! blk-switch (OSDI '21) — the state-of-the-art comparison baseline.
//!
//! blk-switch rearchitects the Linux storage stack around the insight that
//! blk-mq's per-core queues resemble network switch ports. It keeps the
//! static core→NQ binding but adds, per binding, two mechanisms:
//!
//! * **prioritization + request steering**: latency-critical requests always
//!   use their own core's NQ and go ahead of throughput requests, while
//!   T-requests are *steered* per-request to the NQ of the least-loaded
//!   core, spreading bulk traffic away from busy queues;
//! * **application steering**: a coarser-grained rebalancer that migrates
//!   tenants across cores when per-core load diverges.
//!
//! Both mechanisms route *through other cores' bindings* — multi-tenancy
//! control via cross-core scheduling. That works at low T-pressure but, as
//! the paper under reproduction shows (§3.2, §7.1), it degrades when every
//! core hosts an L-tenant (steered T-requests then inevitably share NQs
//! with L-requests) and when the tenant count overwhelms the small
//! cross-core scheduling space (steering thrash — the Fig. 8 fluctuation).
//!
//! This implementation follows the published design at the granularity our
//! substrate models: per-request T-steering by outstanding-bytes imbalance,
//! and periodic application steering driven by per-core load windows, with
//! the suggested thresholds.

#![warn(missing_docs)]

use std::collections::BTreeSet;

use dd_nvme::{CqId, SqId};
use simkit::{DenseMap, SimDuration};

use blkstack::dispatch::Dispatch;
use blkstack::stack::{CompletionMode, DoorbellMode, StackEnv, StackStats, StorageStack};
use blkstack::{Bio, Capabilities, IoPriorityClass, Pid, TaskStruct};

/// Tunables of the blk-switch implementation (the paper's suggested values).
#[derive(Clone, Copy, Debug)]
pub struct BlkSwitchConfig {
    /// Application steering period.
    pub steer_interval: SimDuration,
    /// Imbalance ratio (max/min per-core load) that triggers app steering.
    pub steer_imbalance: f64,
    /// T-request steering: steer away from the home queue only when the
    /// home queue's outstanding bytes exceed the minimum queue's by this
    /// factor.
    pub request_steer_factor: f64,
}

impl Default for BlkSwitchConfig {
    fn default() -> Self {
        BlkSwitchConfig {
            steer_interval: SimDuration::from_millis(10),
            steer_imbalance: 2.0,
            request_steer_factor: 1.25,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct TenantState {
    ionice: IoPriorityClass,
    core: u16,
    /// Bytes submitted in the current steering window.
    window_bytes: u64,
}

/// The blk-switch storage stack.
///
/// blk-switch separates traffic by *steering* requests between per-core
/// queues, not by changing the service routines: doorbells and reaps stay
/// batched on every queue.
pub struct BlkSwitchStack {
    cfg: BlkSwitchConfig,
    nr_queues: u16,
    tenants: DenseMap<Pid, TenantState>,
    /// L-tenants in `tenants`. With `l_per_queue`, the steering signals
    /// every T-request reads, kept in step by [`Self::count_l`] wherever a
    /// tenant's class or core changes so that `submit` never walks the
    /// tenants.
    nr_l: usize,
    /// L-tenants homed on each queue (`core % nr_queues`).
    l_per_queue: Vec<u32>,
    /// Cores that ever hosted a tenant: the experiment's cpuset. Steering
    /// (request- and application-level) stays inside it — blk-switch
    /// schedules among the cores running the applications, it cannot
    /// conscript idle cores outside the cgroup.
    active_cores: BTreeSet<u16>,
    /// Outstanding (submitted, uncompleted) bytes per NSQ — the request
    /// steering signal. Counted when a batch is staged, so commands that
    /// park on a full queue count too.
    outstanding_bytes: Vec<u64>,
    dispatch: Dispatch,
    /// Request- and application-steering actions.
    steering_actions: u64,
}

impl BlkSwitchStack {
    /// Creates the stack for `nr_cores` cores over `device_sqs` NSQs.
    pub fn new(cfg: BlkSwitchConfig, nr_cores: u16, device_sqs: u16) -> Self {
        let nr_queues = nr_cores.min(device_sqs).max(1);
        BlkSwitchStack {
            cfg,
            nr_queues,
            tenants: DenseMap::new(),
            nr_l: 0,
            l_per_queue: vec![0; nr_queues as usize],
            active_cores: BTreeSet::new(),
            outstanding_bytes: vec![0; device_sqs as usize],
            dispatch: Dispatch::new(device_sqs),
            steering_actions: 0,
        }
    }

    /// The home NSQ of a core (the static blk-mq binding).
    fn home_sq(&self, core: u16) -> SqId {
        SqId(core % self.nr_queues)
    }

    /// Counts tenant state `t` into (`add`) or out of the L-tenant
    /// counters.
    fn count_l(&mut self, t: TenantState, add: bool) {
        if !t.ionice.is_latency_sensitive() {
            return;
        }
        let q = &mut self.l_per_queue[(t.core % self.nr_queues) as usize];
        if add {
            self.nr_l += 1;
            *q += 1;
        } else {
            self.nr_l -= 1;
            *q -= 1;
        }
    }

    /// Applies `f` to a tenant's state, moving it between the L-tenant
    /// counters if its class or core changed.
    fn update_tenant(&mut self, pid: Pid, f: impl FnOnce(&mut TenantState)) {
        if let Some(t) = self.tenants.get_mut(pid) {
            let old = *t;
            f(t);
            let new = *t;
            self.count_l(old, false);
            self.count_l(new, true);
        }
    }

    /// Tenant counts by class.
    fn class_counts(&self) -> (usize, usize) {
        (self.nr_l, self.tenants.len() - self.nr_l)
    }

    /// Target size of the L partition of the active cores (at least one
    /// core per class when both classes exist). On a single-core machine
    /// there is nothing to partition: both classes share the one core and
    /// the L "partition" is that core (surfaced by the span-trace property
    /// suite, which exercises 1-core machines the figure sweeps never do).
    fn l_core_target(&self) -> usize {
        let (l, t) = self.class_counts();
        let cores = self.active_cores.len().max(1);
        if l == 0 {
            return 0;
        }
        if t == 0 || cores == 1 {
            return cores;
        }
        let share = (cores as f64 * l as f64 / (l + t) as f64).round() as usize;
        share.clamp(1, cores - 1)
    }

    /// Whether the tenant population has outgrown the cross-core scheduling
    /// space. Beyond this point the published system's steering decisions
    /// go stale faster than they execute and it stops optimising ("becomes
    /// paralyzed", §7.1 of the reproduction target); we model that regime
    /// as steering churn without separation benefit.
    fn overloaded(&self) -> bool {
        let (_, t) = self.class_counts();
        let t_cores = self.active_cores.len().saturating_sub(self.l_core_target());
        t > 2 * t_cores.max(1)
    }

    /// Request steering: the NSQ a T-request should use. Prefers queues
    /// whose cores host fewer L-tenants (keeping bulk traffic off
    /// latency-critical ports), then the least outstanding bytes; steers
    /// away from home only when home is meaningfully busier. In the
    /// overloaded regime the signals are stale and steering stays home.
    fn steer_sq(&self, home: SqId) -> SqId {
        if self.overloaded() {
            return home;
        }
        let key = |sq: SqId| {
            (
                self.l_per_queue[sq.index()],
                self.outstanding_bytes[sq.index()],
            )
        };
        let mut best = home;
        for &core in &self.active_cores {
            let sq = SqId(core % self.nr_queues);
            if key(sq) < key(best) {
                best = sq;
            }
        }
        if best == home {
            return home;
        }
        let (home_l, home_bytes) = key(home);
        let (best_l, best_bytes) = key(best);
        if best_l < home_l || home_bytes as f64 > best_bytes as f64 * self.cfg.request_steer_factor
        {
            best
        } else {
            home
        }
    }

    /// Per-active-core load in the current window (sum of member tenants'
    /// bytes), as `(core, load)` pairs in core order.
    fn core_loads(&self) -> Vec<(u16, u64)> {
        let mut loads: Vec<(u16, u64)> = self.active_cores.iter().map(|&c| (c, 0u64)).collect();
        for t in self.tenants.values() {
            if let Some(entry) = loads.iter_mut().find(|(c, _)| *c == t.core) {
                entry.1 += t.window_bytes;
            }
        }
        loads
    }
}

impl StorageStack for BlkSwitchStack {
    fn name(&self) -> &'static str {
        "blk-switch"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::blk_switch()
    }

    fn register_tenant(&mut self, task: &TaskStruct, _env: &mut StackEnv<'_>) {
        self.active_cores.insert(task.core);
        let t = TenantState {
            ionice: task.ionice,
            core: task.core,
            window_bytes: 0,
        };
        if let Some(old) = self.tenants.insert(task.pid, t) {
            self.count_l(old, false);
        }
        self.count_l(t, true);
    }

    fn deregister_tenant(&mut self, pid: Pid, _env: &mut StackEnv<'_>) {
        if let Some(old) = self.tenants.remove(pid) {
            self.count_l(old, false);
        }
    }

    fn update_ionice(&mut self, pid: Pid, class: IoPriorityClass, _env: &mut StackEnv<'_>) {
        self.update_tenant(pid, |t| t.ionice = class);
    }

    fn migrate_tenant(&mut self, pid: Pid, core: u16, _env: &mut StackEnv<'_>) {
        self.active_cores.insert(core);
        self.update_tenant(pid, |t| t.core = core);
    }

    fn submit(&mut self, bios: &[Bio], env: &mut StackEnv<'_>) -> SimDuration {
        debug_assert!(!bios.is_empty());
        let core = bios[0].core;
        let tenant = bios[0].tenant;
        let is_l = self
            .tenants
            .get(tenant)
            .map(|t| t.ionice.is_latency_sensitive())
            .unwrap_or(false);
        let home = self.home_sq(core);
        // L-requests keep the home binding (prioritized on their own port);
        // T-requests steer by load.
        let sq = if is_l { home } else { self.steer_sq(home) };
        if sq != home {
            self.steering_actions += 1;
        }
        let sla = if is_l { simkit::Sla::L } else { simkit::Sla::T };
        let mut n = 0;
        let mut batch_bytes = 0u64;
        for bio in bios {
            n += self.dispatch.stage(bio, sq, sla, env);
            batch_bytes += bio.bytes;
        }
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.window_bytes += batch_bytes;
        }
        self.outstanding_bytes[sq.index()] += self.dispatch.staged_bytes(sq);
        let pushed = self.dispatch.push(sq, DoorbellMode::Batched, env);
        env.costs.submit_cost(n) + pushed.batch_cost(env.costs) + pushed.remote_cost(env.costs)
    }

    fn on_irq(&mut self, cq: CqId, core: u16, env: &mut StackEnv<'_>) -> SimDuration {
        let cost = self.dispatch.reap(cq, core, env, |entries, _| {
            for e in entries {
                let q = &mut self.outstanding_bytes[e.sq_id.index()];
                *q = q.saturating_sub(e.bytes);
            }
            CompletionMode::Batched
        });
        self.dispatch.flush_parked(env);
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

    fn on_tick(&mut self, env: &mut StackEnv<'_>) -> Option<SimDuration> {
        // Application steering. Two regimes:
        //
        // * Within the scheduling capacity, blk-switch partitions the
        //   active cores by class share and moves one misplaced tenant per
        //   window toward the partition (separating L and T at the
        //   core/queue level) plus one load-balance move among the T-cores.
        // * Overloaded (tenants ≫ cores), its load windows go stale before
        //   they are acted on; the reproduction target observes failed
        //   migrations and fluctuating performance ("becomes paralyzed",
        //   §7.1/Fig. 8). We model that regime as one random migration per
        //   window — churn without separation benefit.
        let active: Vec<u16> = self.active_cores.iter().copied().collect();
        if active.len() > 1 {
            if self.overloaded() {
                let pids: Vec<Pid> = {
                    let mut v: Vec<Pid> = self
                        .tenants
                        .iter()
                        .filter(|(_, t)| !t.ionice.is_latency_sensitive())
                        .map(|(p, _)| p)
                        .collect();
                    v.sort();
                    v
                };
                if !pids.is_empty() {
                    let pid = *env.rng.choose(&pids);
                    let core = *env.rng.choose(&active);
                    if self.tenants.get(pid).is_some_and(|t| t.core != core) {
                        self.update_tenant(pid, |t| t.core = core);
                        env.migrations.push((pid, core));
                        self.steering_actions += 1;
                    }
                }
            } else {
                let l_cores = self.l_core_target();
                let (l_set, t_set) = active.split_at(l_cores.min(active.len()));
                // Separation move: one misplaced tenant toward its
                // partition (deterministic: lowest pid first).
                let moved = self
                    .tenants
                    .iter()
                    .filter_map(|(pid, t)| {
                        let my_set = if t.ionice.is_latency_sensitive() {
                            l_set
                        } else {
                            t_set
                        };
                        if my_set.is_empty() || my_set.contains(&t.core) {
                            return None;
                        }
                        Some((pid, my_set[pid.0 as usize % my_set.len()]))
                    })
                    .min_by_key(|&(pid, _)| pid);
                if let Some((pid, core)) = moved {
                    self.update_tenant(pid, |t| t.core = core);
                    env.migrations.push((pid, core));
                    self.steering_actions += 1;
                }
                // Balance move among T-cores only.
                let loads = self.core_loads();
                let t_loads: Vec<(u16, u64)> = loads
                    .iter()
                    .copied()
                    .filter(|(c, _)| t_set.contains(c))
                    .collect();
                let max = t_loads.iter().map(|&(_, l)| l).max();
                let min = t_loads.iter().map(|&(_, l)| l).min();
                if let (Some(max), Some(min)) = (max, min) {
                    if max > 0 && max as f64 > (min.max(1)) as f64 * self.cfg.steer_imbalance {
                        let busiest = t_loads.iter().find(|&&(_, l)| l == max).expect("max").0;
                        let idlest = t_loads.iter().find(|&&(_, l)| l == min).expect("min").0;
                        let victim = self
                            .tenants
                            .iter()
                            .filter(|(_, t)| t.core == busiest && !t.ionice.is_latency_sensitive())
                            .max_by_key(|(pid, t)| (t.window_bytes, pid.0))
                            .map(|(pid, _)| pid);
                        if let Some(pid) = victim {
                            self.update_tenant(pid, |t| t.core = idlest);
                            env.migrations.push((pid, idlest));
                            self.steering_actions += 1;
                        }
                    }
                }
            }
        }
        // New window.
        for t in self.tenants.values_mut() {
            t.window_bytes = 0;
        }
        Some(self.cfg.steer_interval)
    }

    fn on_watchdog(&mut self, env: &mut StackEnv<'_>) {
        self.dispatch.watchdog(env);
    }

    fn stats(&self) -> StackStats {
        StackStats {
            steering_actions: self.steering_actions,
            ..self.dispatch.stats()
        }
    }

    fn io_capacity(&self) -> usize {
        self.dispatch.io_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blkstack::bio::{BioId, ReqFlags};
    use dd_nvme::{DeviceOutput, IoOpcode, NamespaceId, NvmeConfig, NvmeDevice};
    use simkit::{SimRng, SimTime};

    fn device() -> NvmeDevice {
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 4;
        cfg.nr_cqs = 4;
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
    fn l_requests_stay_on_home_queue() {
        let mut h = Harness::new();
        let mut s = BlkSwitchStack::new(BlkSwitchConfig::default(), 4, 4);
        let mut env = h.env(SimTime::ZERO);
        s.register_tenant(&task(1, 2, IoPriorityClass::RealTime), &mut env);
        s.submit(&[bio(1, 1, 2, 4096)], &mut env);
        assert_eq!(env.device.sq_stats(SqId(2)).submitted_total, 1);
        assert_eq!(s.stats().steering_actions, 0);
    }

    #[test]
    fn t_requests_steer_to_idle_queue() {
        let mut h = Harness::new();
        let mut s = BlkSwitchStack::new(BlkSwitchConfig::default(), 4, 4);
        let mut env = h.env(SimTime::ZERO);
        s.register_tenant(&task(1, 0, IoPriorityClass::BestEffort), &mut env);
        // Populate the cpuset: steering only targets cores hosting tenants.
        for c in 1..4u16 {
            s.register_tenant(
                &task(10 + c as u64, c, IoPriorityClass::BestEffort),
                &mut env,
            );
        }
        // Load the home queue 0 heavily...
        for i in 0..8 {
            s.submit(&[bio(i, 1, 0, 131072)], &mut env);
        }
        // ...subsequent T-requests must steer away from queue 0.
        assert!(
            s.stats().steering_actions > 0,
            "bulk traffic must trigger request steering"
        );
        let spread = (1..4)
            .map(|q| env.device.sq_stats(SqId(q)).submitted_total)
            .sum::<u64>();
        assert!(spread > 0, "steered commands must land on other queues");
    }

    #[test]
    fn app_steering_migrates_from_busy_core() {
        let mut h = Harness::new();
        let mut s = BlkSwitchStack::new(BlkSwitchConfig::default(), 4, 4);
        let mut env = h.env(SimTime::ZERO);
        s.register_tenant(&task(1, 0, IoPriorityClass::BestEffort), &mut env);
        s.register_tenant(&task(2, 0, IoPriorityClass::BestEffort), &mut env);
        s.register_tenant(&task(3, 1, IoPriorityClass::RealTime), &mut env);
        // Core 0 does all the work this window.
        s.submit(&[bio(1, 1, 0, 131072)], &mut env);
        s.submit(&[bio(2, 2, 0, 131072)], &mut env);
        let next = s.on_tick(&mut env);
        assert!(next.is_some());
        assert_eq!(env.migrations.len(), 1, "one T-tenant must migrate");
        let (pid, core) = env.migrations[0];
        assert!(pid == Pid(1) || pid == Pid(2));
        assert_ne!(core, 0);
    }

    #[test]
    fn app_steering_never_moves_l_tenants() {
        let mut h = Harness::new();
        let mut s = BlkSwitchStack::new(BlkSwitchConfig::default(), 4, 4);
        let mut env = h.env(SimTime::ZERO);
        s.register_tenant(&task(1, 0, IoPriorityClass::RealTime), &mut env);
        s.submit(&[bio(1, 1, 0, 131072)], &mut env);
        s.on_tick(&mut env);
        assert!(env.migrations.is_empty(), "only T-tenants are steered");
    }

    #[test]
    fn balanced_load_does_not_steer() {
        let mut h = Harness::new();
        let mut s = BlkSwitchStack::new(BlkSwitchConfig::default(), 4, 4);
        let mut env = h.env(SimTime::ZERO);
        for c in 0..4u16 {
            s.register_tenant(&task(c as u64, c, IoPriorityClass::BestEffort), &mut env);
            s.submit(&[bio(c as u64, c as u64, c, 131072)], &mut env);
        }
        let before = env.migrations.len();
        s.on_tick(&mut env);
        assert_eq!(env.migrations.len(), before, "balanced cores stay put");
    }

    #[test]
    fn outstanding_bytes_released_on_completion() {
        let mut h = Harness::new();
        let mut s = BlkSwitchStack::new(BlkSwitchConfig::default(), 4, 4);
        {
            let mut env = h.env(SimTime::ZERO);
            s.register_tenant(&task(1, 0, IoPriorityClass::BestEffort), &mut env);
            s.submit(&[bio(1, 1, 0, 131072)], &mut env);
        }
        assert_eq!(s.outstanding_bytes[0], 131072);
        // Drive to interrupt and complete.
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
        assert_eq!(s.outstanding_bytes[0], 0);
        assert_eq!(h.comps.len(), 1);
    }

    #[test]
    fn outstanding_bytes_count_parked_commands() {
        // Depth-2 NSQ: the third of three 1-block commands parks. A parked
        // command is submitted and uncompleted, so it counts from staging
        // on and leaves the counter only through its completion.
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 1;
        cfg.nr_cqs = 1;
        cfg.sq_depth = 2;
        let mut h = Harness::new();
        h.dev = NvmeDevice::new(cfg, 1);
        let mut s = BlkSwitchStack::new(BlkSwitchConfig::default(), 1, 1);
        {
            let mut env = h.env(SimTime::ZERO);
            s.register_tenant(&task(1, 0, IoPriorityClass::BestEffort), &mut env);
            let bios: Vec<Bio> = (0..3).map(|i| bio(i, 1, 0, 4096)).collect();
            s.submit(&bios, &mut env);
        }
        assert_eq!(s.stats().requeues, 1);
        assert_eq!(s.outstanding_bytes[0], 3 * 4096);
        // Drive every completion; the parked command unparks on the way.
        let mut q = simkit::EventQueue::new();
        while h.comps.len() < 3 {
            for (at, ev) in h.out.events.drain(..) {
                q.push(at, ev);
            }
            if let Some(irq) = h.out.irqs.pop() {
                let mut env = h.env(irq.at);
                s.on_irq(irq.cq, irq.core, &mut env);
                let uncompleted = 3 - h.comps.len() as u64;
                assert_eq!(s.outstanding_bytes[0], uncompleted * 4096);
                continue;
            }
            let (at, ev) = q.pop().expect("device stalled");
            h.dev.handle_event(ev, at, &mut h.out);
        }
        assert_eq!(s.stats().submitted_rqs, 3);
    }

    /// From-scratch recount of the L-tenant counters over the tenant map:
    /// the oracle for the incremental `nr_l` / `l_per_queue`.
    fn recount_l(s: &BlkSwitchStack) -> (usize, Vec<u32>) {
        let mut per_queue = vec![0u32; s.nr_queues as usize];
        let mut l = 0;
        for t in s.tenants.values() {
            if t.ionice.is_latency_sensitive() {
                l += 1;
                per_queue[(t.core % s.nr_queues) as usize] += 1;
            }
        }
        (l, per_queue)
    }

    #[test]
    fn l_counters_match_recount_under_churn() {
        // 6 cores over 4 NSQs, so cores 4 and 5 share queues 0 and 1.
        let mut h = Harness::new();
        let mut s = BlkSwitchStack::new(BlkSwitchConfig::default(), 6, 4);
        let mut rng = SimRng::new(7);
        let class = |rng: &mut SimRng| match rng.gen_range(4) {
            0 => IoPriorityClass::RealTime,
            1 => IoPriorityClass::Idle,
            _ => IoPriorityClass::BestEffort,
        };
        let (mut overloaded, mut within, mut reregistered) = (0, 0, 0);
        const STEPS: u64 = 2_000;
        for step in 0..STEPS {
            let mut env = h.env(SimTime::ZERO);
            // Grow the population for the first half, shrink it after, so
            // the run crosses the overload threshold both ways.
            let grow = step < STEPS / 2;
            let pid = Pid(rng.gen_range(32));
            let core = rng.gen_range(6) as u16;
            match rng.gen_range(8) {
                0..=2 if grow => {
                    let ionice = class(&mut rng);
                    if s.tenants.get(pid).is_some_and(|t| {
                        t.ionice.is_latency_sensitive() != ionice.is_latency_sensitive()
                    }) {
                        reregistered += 1;
                    }
                    s.register_tenant(&task(pid.0, core, ionice), &mut env);
                }
                0..=2 => s.deregister_tenant(pid, &mut env),
                3 => s.update_ionice(pid, class(&mut rng), &mut env),
                4 => s.migrate_tenant(pid, core, &mut env),
                5 => {
                    if let Some(t) = s.tenants.get(pid) {
                        let bytes = 4096 << rng.gen_range(6);
                        s.submit(&[bio(step, pid.0, t.core, bytes)], &mut env);
                    }
                }
                _ => {
                    s.on_tick(&mut env);
                }
            }
            if s.overloaded() {
                overloaded += 1;
            } else if s.tenants.len() > 4 {
                within += 1;
            }
            let (l, per_queue) = recount_l(&s);
            assert_eq!(s.class_counts().0, l, "L count after step {step}");
            assert_eq!(s.l_per_queue, per_queue, "per-queue L after step {step}");
        }
        assert!(reregistered > 0, "no live pid re-registered across classes");
        assert!(overloaded > 0, "never reached the overloaded regime");
        assert!(within > 0, "never steered within capacity");
        assert!(
            !h.migs.is_empty(),
            "application steering never moved a tenant"
        );
    }

    #[test]
    fn capabilities_match_table1() {
        let s = BlkSwitchStack::new(BlkSwitchConfig::default(), 4, 4);
        let c = s.capabilities();
        assert!(c.hardware_independent);
        assert!(c.nq_exploitation);
        assert!(
            !c.cross_core_autonomy,
            "blk-switch relies on cross-core scheduling"
        );
        assert!(!c.multi_namespace);
    }
}
