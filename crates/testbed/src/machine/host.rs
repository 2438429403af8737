//! The host: the event queue with its clock, and the CPU system whose
//! cores execute work items, one at a time per core, from `CoreDispatch`
//! to `CoreDone`.

use super::*;

/// Work payloads executed on cores.
pub(super) enum Work {
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

/// The event queue, the current time, and the cores.
pub(super) struct Host {
    pub(super) queue: EventQueue<Event>,
    /// The time of the event being handled.
    pub(super) now: SimTime,
    pub(super) cpu: CpuSystem<Work>,
    /// The run injects faults, so an ISR that finds its CQ empty counts.
    pub(super) faults: bool,
    /// ISRs that found an empty CQ (a watchdog poll raced a real delivery).
    pub(super) spurious_isrs: u64,
}

impl Host {
    /// Queues `work` on `core`, scheduling a dispatch if the core was idle.
    pub(super) fn enqueue(&mut self, core: u16, class: WorkClass, work: Work) {
        if self.cpu.enqueue(core, class, work) {
            self.queue.push(self.now, Event::CoreDispatch(core));
        }
    }

    /// Executes `core`'s next work item at once, so its stack and device
    /// effects apply at its start, then keeps the core busy for its cost.
    pub(super) fn exec_work(&mut self, core: u16, io: &mut Transport, drivers: &mut Drivers) {
        let Some((_class, work)) = self.cpu.take_next(core) else {
            return;
        };
        let cost = match work {
            Work::Submit { pid, nr } => drivers.submit_fio(pid, nr, self, io),
            Work::Resubmit { pid } => io.costs.reap_per_rq + drivers.submit_fio(pid, 1, self, io),
            Work::Isr { cq } => {
                if self.faults && io.device.cq_pending(cq) == 0 {
                    self.spurious_isrs += 1;
                }
                io.call(self, |stack, env| stack.on_irq(cq, core, env))
            }
            Work::AppStep { pid } => drivers.app_step(pid, self, io),
            Work::IoniceUpdate { pid, class } => {
                drivers.tenant(pid).ionice = class;
                io.call(self, |stack, env| stack.update_ionice(pid, class, env));
                io.costs.syscall_base + io.costs.ionice_update
            }
            Work::MigrationLand => io.costs.context_switch,
        };
        let fin = self.cpu.begin(core, self.now, cost);
        self.queue.push(fin, Event::CoreDone(core));
    }
}
