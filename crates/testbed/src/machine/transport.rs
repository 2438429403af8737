//! The transport: the stack under test, the device below it, and the
//! buffers a stack call fills, drained into the host's event queue right
//! after each call.

use super::*;

/// The stack, the device, and what a stack call hands back. Fields drop in
/// declaration order: the device before the stack.
pub(super) struct Transport {
    pub(super) device: NvmeDevice,
    pub(super) stack: Box<dyn StorageStack>,
    pub(super) rng: SimRng,
    pub(super) costs: HostCosts,
    /// The device's one output buffer, drained after every call and event.
    pub(super) dev_out: DeviceOutput,
    pub(super) comps: Vec<BioCompletion>,
    /// Completions scheduled for delivery, named by `Event::Completed`.
    pub(super) delivering: Slab<BioCompletion>,
    /// Tenant migrations: only a stack tick requests them, and lands them.
    pub(super) migs: Vec<(Pid, u16)>,
}

impl Transport {
    /// Runs one stack call at the host's time and drains its effects.
    pub(super) fn call<R>(
        &mut self,
        host: &mut Host,
        f: impl FnOnce(&mut dyn StorageStack, &mut StackEnv<'_>) -> R,
    ) -> R {
        // The one-allocation reuse contract (`DeviceOutput::clear`): the
        // output buffer is drained before it is lent to the next call.
        debug_assert!(self.dev_out.is_empty(), "DeviceOutput drained before reuse");
        debug_assert!(self.migs.is_empty(), "migrations land in their tick");
        let r = f(
            self.stack.as_mut(),
            &mut StackEnv {
                now: host.now,
                device: &mut self.device,
                dev_out: &mut self.dev_out,
                completions: &mut self.comps,
                migrations: &mut self.migs,
                rng: &mut self.rng,
                costs: &self.costs,
            },
        );
        self.drain(&mut host.queue);
        r
    }

    /// Moves pending device effects and completions into the event queue;
    /// runs after every stack call and device event.
    ///
    /// Device events and completions go in by `push_batch`, which amortises
    /// the queue's sequence bookkeeping over the whole drain. Raises
    /// go in one `push` each: a drain holds at most one, so a batch would
    /// only add overhead. The iteration orders reproduce the historical
    /// push order exactly (FIFO for device events, reverse for irqs and
    /// completions), so equal-time events keep the same sequence tie-break.
    pub(super) fn drain(&mut self, queue: &mut EventQueue<Event>) {
        queue.push_batch(
            self.dev_out
                .events
                .drain(..)
                .map(|(at, ev)| (at, Event::Dev(ev))),
        );
        while let Some(IrqRaise { cq, core, at }) = self.dev_out.irqs.pop() {
            queue.push(at, Event::IrqDeliver { cq, core });
        }
        let delivering = &mut self.delivering;
        queue.push_batch(
            self.comps
                .drain(..)
                .rev()
                .map(|c| (c.completed_at, Event::Completed(delivering.insert(c)))),
        );
    }

    /// The hot-path capacities, with the event queue's `events`.
    pub(super) fn probe(&mut self, events: usize) -> CapacityProbe {
        CapacityProbe {
            io_slots: self.stack.dispatch().io_capacity() + self.stack.io_capacity(),
            events,
            device_cmds: self.device.cmd_capacity(),
        }
    }
}
