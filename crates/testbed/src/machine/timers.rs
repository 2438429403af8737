//! The timers: what a run arms at start, the periodic ones that re-arm
//! from the period their event carries, and the warm-up snapshots.

use super::*;

/// The timers a run arms at start, in push order. Each is pending at most
/// once at a time: only its own handler re-arms it.
pub(super) fn start_timers(scenario: &Scenario) -> [Option<(SimTime, Event)>; 6] {
    let at = |d: SimDuration| SimTime::ZERO + d;
    let knobs = &scenario.knobs;
    [
        Some((SimTime::ZERO, Event::StackTick)),
        Some((at(knobs.warmup), Event::EndWarmup)),
        Some((at(knobs.warmup + knobs.measure), Event::Stop)),
        scenario
            .ionice_storm
            .map(|d| (at(d), Event::IoniceStorm(d))),
        scenario
            .migrate_storm
            .map(|d| (at(d), Event::MigrateStorm(d))),
        knobs.faults.map(|f| {
            let period = f.watchdog_period;
            (at(period), Event::FaultWatchdog(period))
        }),
    ]
}

/// The start timers, and the state the periodic ones keep.
pub(super) struct Timers {
    /// `start_timers` of the scenario, pushed when the run starts.
    pub(super) start: [Option<(SimTime, Event)>; 6],
    /// End of the measurement window.
    pub(super) stop_at: SimTime,
    /// The migrate storm moves tenants to cores `0..core_pool`.
    pub(super) core_pool: u16,
    /// Per-core busy time when the measurement window opened.
    pub(super) cpu_baseline: Vec<SimDuration>,
    /// Hot-path capacity snapshot taken at warmup end (the capacity-
    /// stability gate compares it against the run-end snapshot).
    pub(super) cap_warmup: CapacityProbe,
    /// Per-CQ cumulative-reap snapshot at the previous watchdog tick
    /// (`u64::MAX` = not under observation). A raised vector whose CQ
    /// reaped nothing across a full tick gets a polling-fallback ISR.
    pub(super) wd_reaped: Vec<u64>,
    /// Polling-fallback ISRs fired by the watchdog.
    pub(super) polls_fired: u64,
}

impl Timers {
    /// Pushes the start timers; arming the watchdog sizes its per-CQ state.
    pub(super) fn arm(&mut self, host: &mut Host, nr_cqs: u16) {
        for (at, event) in self.start.into_iter().flatten() {
            if let Event::FaultWatchdog(_) = event {
                self.wd_reaped.resize(nr_cqs as usize, u64::MAX);
            }
            host.queue.push(at, event);
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
    pub(super) fn watchdog(&mut self, period: SimDuration, host: &mut Host, io: &mut Transport) {
        for (i, snapshot) in self.wd_reaped.iter_mut().enumerate() {
            let cq = CqId(i as u16);
            if io.device.cq_pending(cq) == 0 || !io.device.irq_raised(cq) {
                *snapshot = u64::MAX;
                continue;
            }
            let reaped = io.device.cq_reaped(cq);
            let last = std::mem::replace(snapshot, reaped);
            if last != u64::MAX && reaped == last {
                // Stuck raised with zero reap progress across a full
                // period: the raise was lost — poll.
                *snapshot = u64::MAX;
                self.polls_fired += 1;
                host.enqueue(io.device.irq_core(cq), WorkClass::HardIrq, Work::Isr { cq });
            }
        }
        io.call(host, |stack, env| stack.dispatch().watchdog(env));
        // Keep scanning to the end of the run: the watchdog must outlive
        // the last fault window even if every tenant is blocked (its event
        // also keeps the queue non-empty, so a faulted lull cannot end the
        // run early).
        if host.now < self.stop_at {
            host.queue
                .push(host.now + period, Event::FaultWatchdog(period));
        }
    }

    /// Fig. 13: moves a random tenant to a random core of the pool.
    pub(super) fn migrate_storm(
        &self,
        period: SimDuration,
        host: &mut Host,
        io: &mut Transport,
        drivers: &mut Drivers,
    ) {
        // Pids are dense: `Pid(1..=n)`.
        let pid = Pid(io.rng.gen_range(drivers.tenants.len() as u64) + 1);
        let core = io.rng.gen_range(self.core_pool as u64) as u16;
        io.call(host, |stack, env| stack.migrate_tenant(pid, core, env));
        drivers.land(pid, core, host);
        host.queue
            .push(host.now + period, Event::MigrateStorm(period));
    }
}

/// Periodic stack housekeeping: the tenants the stack moves (blk-switch
/// steering) land on their new cores; the stack says when to tick again.
pub(super) fn stack_tick(host: &mut Host, io: &mut Transport, drivers: &mut Drivers) {
    let next = io.call(host, |stack, env| stack.on_tick(env));
    while let Some((pid, core)) = io.migs.pop() {
        drivers.land(pid, core, host);
    }
    if let Some(delay) = next {
        host.queue.push(host.now + delay, Event::StackTick);
    }
}

/// Fig. 14: flips every tenant's ionice, in pid order.
pub(super) fn ionice_storm(period: SimDuration, host: &mut Host, drivers: &Drivers) {
    for t in &drivers.tenants {
        let class = match t.ionice {
            IoPriorityClass::RealTime => IoPriorityClass::BestEffort,
            _ => IoPriorityClass::RealTime,
        };
        let work = Work::IoniceUpdate { pid: t.pid, class };
        host.enqueue(t.core, WorkClass::Task, work);
    }
    host.queue
        .push(host.now + period, Event::IoniceStorm(period));
}
