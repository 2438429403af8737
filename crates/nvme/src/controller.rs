//! Controller internals: command fetch, decomposition, and completion.
//!
//! This module holds the `impl NvmeDevice` blocks for the controller-side
//! state machine (Steps ①–⑤ of the paper's Fig. 1):
//!
//! 1. the host rings a doorbell (`ring_doorbell`, in `device.rs`);
//! 2. the fetch engine, arbitrating round-robin across published NSQs,
//!    fetches the head command of the chosen NSQ, paying a cost proportional
//!    to the command size — the submission-side HOL mechanism;
//! 3. the fetched command decomposes into page operations dispatched to the
//!    flash backend;
//! 4. when the last page completes, a CQE is posted to the bound NCQ;
//! 5. the NCQ's vector asserts an interrupt toward its bound core.

use simkit::{Phase, SimTime, SlotId};

use crate::command::{CqStatus, IoOpcode};
use crate::device::{DeviceOutput, IrqRaise, NvmeDevice, NvmeEvent};
use crate::namespace::NsError;
use crate::spec::CqId;

impl NvmeDevice {
    /// Starts a fetch if the engine is idle, the internal page budget has
    /// room, and some NSQ has published work. Backlog beyond the budget
    /// stays in the NSQs — the locus of the multi-tenancy HOL (§2.3).
    ///
    /// The fetch engine is a serial resource: it takes one command, pays
    /// `fetch_cost` for it, and its `FetchDone` calls back here. With
    /// faults enabled the pick first advances the fault plan to `now`, and
    /// a stalled NSQ is invisible to the arbiter for the duration of its
    /// fault window: its published work sits unfetched exactly as if the
    /// controller's per-queue fetch engine wedged.
    pub(crate) fn maybe_start_fetch(&mut self, now: SimTime, out: &mut DeviceOutput) {
        if self.fetching || self.inflight_pages >= self.config.max_inflight_pages as u64 {
            return;
        }
        let faulted = self.faults.enabled();
        if faulted {
            self.faults.advance(now);
        }
        let faults = &self.faults;
        let Some(sq_id) = self
            .arbiter
            .pick(|sq| faulted && faults.sq_stalled(now, sq.0))
        else {
            return;
        };
        let slot = self.sqs[sq_id.index()]
            .fetch(&mut self.cmds)
            .expect("arbiter picked an SQ without visible work");
        if self.sqs[sq_id.index()].visible_len() == 0 {
            self.arbiter.note_idle(sq_id);
        }
        let cq = self.sqs[sq_id.index()].cq();
        self.cqs[cq.index()].note_fetched();
        self.stats.fetched += 1;
        self.fetching = true;
        let cmd = &self
            .cmds
            .get(slot)
            .expect("a fetched command keeps its slot")
            .cmd;
        let pages = if cmd.is_dataless() { 0 } else { cmd.pages() };
        self.inflight_pages += pages as u64;
        let done = now + self.config.perf.fetch_cost(pages);
        out.events.push((done, NvmeEvent::FetchDone { slot }));
    }

    /// Fetch finished: dispatch flash service, then keep the engine going.
    pub(crate) fn on_fetch_done(&mut self, slot: SlotId, now: SimTime, out: &mut DeviceOutput) {
        // Only `maybe_start_fetch` schedules FetchDone, and only the host
        // ISR frees a slot, after the command's CmdDone.
        let s = self
            .cmds
            .get(slot)
            .expect("FetchDone names an in-device command");
        let cmd = &s.cmd;
        if out.trace.enabled() {
            out.trace
                .record(cmd.host.trace_event(Phase::DeviceFetch, now, Some(s.sq.0)));
        }
        let done_at = match cmd.opcode {
            IoOpcode::Flush => now + self.config.perf.flush_latency,
            IoOpcode::Read | IoOpcode::Write => {
                match self.namespaces.translate(cmd.nsid, cmd.slba, cmd.nlb) {
                    Ok(dev_lba) => self.flash.dispatch_command(
                        now,
                        dev_lba,
                        cmd.pages(),
                        cmd.opcode,
                        &mut self.faults,
                    ),
                    Err(_) => now, // Error completion posts immediately.
                }
            }
        };
        out.events.push((done_at, NvmeEvent::CmdDone { slot }));
        // The command is handed to flash: the fetch engine takes the next.
        self.fetching = false;
        self.maybe_start_fetch(now, out);
    }

    /// Flash service finished: post the CQE and maybe raise the interrupt.
    pub(crate) fn on_cmd_done(&mut self, slot: SlotId, now: SimTime, out: &mut DeviceOutput) {
        // Each fetched command gets exactly one CmdDone, scheduled by its
        // FetchDone; its slot moves onto the bound CQ's FIFO.
        let s = self
            .cmds
            .get_mut(slot)
            .expect("CmdDone names an in-device command");
        let cmd = &s.cmd;
        s.status = match cmd.opcode {
            IoOpcode::Flush => CqStatus::Success,
            _ => match self.namespaces.translate(cmd.nsid, cmd.slba, cmd.nlb) {
                Ok(_) => CqStatus::Success,
                Err(NsError::UnknownNamespace) => CqStatus::InvalidField,
                Err(NsError::OutOfRange) => CqStatus::LbaOutOfRange,
            },
        };
        let pages = if cmd.is_dataless() { 0 } else { cmd.pages() };
        self.inflight_pages = self.inflight_pages.saturating_sub(pages as u64);
        let (sq, host, bytes) = (s.sq, s.cmd.host, s.bytes());
        let cq = self.sqs[sq.index()].cq();
        self.cqs[cq.index()].post(&mut self.cmds, slot);
        self.stats.completed += 1;
        self.stats.bytes += bytes;
        let posted_at = now + self.config.perf.completion_post;
        if out.trace.enabled() {
            out.trace
                .record(host.trace_event(Phase::FlashDone, now, Some(sq.0)));
            // The entry is visible in the CQ from `now` (the `post` above);
            // `completion_post` only delays the *interrupt raise*, and an
            // ISR already in flight may legitimately drain this entry
            // before `posted_at`. Stamp the phase at visibility time so
            // span timelines stay monotone.
            out.trace
                .record(host.trace_event(Phase::CqePosted, now, Some(sq.0)));
        }
        self.raise(cq, posted_at, out);
        // Freed page budget may unblock a stalled fetch engine.
        self.maybe_start_fetch(now, out);
    }

    /// Raises the CQ's interrupt unless its vector is already raised: one
    /// interrupt per completion batch, no coalescing (the paper's devices
    /// as evaluated).
    pub(crate) fn raise(&mut self, cq: CqId, now: SimTime, out: &mut DeviceOutput) {
        if self.vectors[cq.index()].try_raise() {
            self.cqs[cq.index()].note_irq();
            if self.faults.enabled() && self.faults.loses_irq(now, cq.0) {
                // The assertion is swallowed in flight: the vector latches
                // `Raised` so the device will never re-raise for this CQ on
                // its own — only the host's ISR watchdog (polling fallback)
                // can drain the orphaned CQ and re-arm the vector.
                return;
            }
            out.irqs.push(IrqRaise {
                cq,
                core: self.vectors[cq.index()].core,
                at: now + self.config.perf.irq_delivery,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{CqEntry, HostTag, NvmeCommand};
    use crate::config::NvmeConfig;
    use crate::spec::{CommandId, CqId, NamespaceId, SqId};
    use simkit::{EventQueue, SimDuration};

    fn small_device() -> NvmeDevice {
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 4;
        cfg.nr_cqs = 2;
        cfg.sq_depth = 64;
        NvmeDevice::new(cfg, 2)
    }

    fn cmd(cid: u64, nlb: u32, slba: u64) -> NvmeCommand {
        NvmeCommand {
            cid: CommandId(cid),
            nsid: NamespaceId(1),
            opcode: IoOpcode::Read,
            slba,
            nlb,
            host: HostTag {
                rq_id: cid,
                submit_core: 0,
                ..HostTag::default()
            },
        }
    }

    /// The host ISR's pop of up to `max` entries from CQ 0.
    fn isr_take(dev: &mut NvmeDevice, max: usize) -> Vec<CqEntry> {
        let mut buf = Vec::new();
        dev.isr_pop_into(CqId(0), max, &mut buf);
        buf
    }

    /// Drives the device until its event stream drains; returns completion
    /// times by cid and all raised IRQs.
    fn drain(dev: &mut NvmeDevice, out: DeviceOutput) -> (Vec<(u64, SimTime)>, Vec<IrqRaise>) {
        let mut q = EventQueue::new();
        let mut irqs = Vec::new();
        let mut completions = Vec::new();
        let mut pending = out;
        loop {
            for (at, ev) in pending.events.drain(..) {
                q.push(at, ev);
            }
            irqs.append(&mut pending.irqs);
            let Some((at, ev)) = q.pop() else { break };
            if let (NvmeEvent::CmdDone { .. }, Some((cmd, _))) = (ev, dev.event_command(&ev)) {
                completions.push((cmd.cid.0, at));
            }
            dev.handle_event(ev, at, &mut pending);
        }
        assert_eq!(
            dev.in_flight_cmds(),
            0,
            "drained device still holds in-flight commands"
        );
        (completions, irqs)
    }

    #[test]
    fn single_command_completes_and_interrupts() {
        let mut dev = small_device();
        let mut out = DeviceOutput::new();
        dev.push_command(SqId(0), cmd(1, 1, 0)).unwrap();
        dev.ring_doorbell(SqId(0), SimTime::ZERO, &mut out);
        let (completions, irqs) = drain(&mut dev, out);
        assert_eq!(completions.len(), 1);
        assert_eq!(irqs.len(), 1);
        assert_eq!(irqs[0].cq, CqId(0));
        assert_eq!(dev.stats().completed, 1);
        assert_eq!(dev.stats().bytes, 4096);
        assert_eq!(dev.cq_pending(CqId(0)), 1);
    }

    #[test]
    fn unpublished_commands_never_fetched() {
        let mut dev = small_device();
        dev.push_command(SqId(0), cmd(1, 1, 0)).unwrap();
        // No doorbell: nothing should happen even if we poke the engine.
        let mut out = DeviceOutput::new();
        dev.maybe_start_fetch(SimTime::ZERO, &mut out);
        assert!(out.is_empty());
        assert_eq!(dev.stats().fetched, 0);
    }

    #[test]
    fn hol_blocking_within_one_nsq() {
        // A 4 KiB read queued behind a batch of 128 KiB reads in the SAME
        // NSQ completes much later than the same read in its OWN NSQ, where
        // round-robin arbitration lets it in after at most one bulk fetch.
        let run = |same_queue: bool| -> SimTime {
            let mut dev = small_device();
            let mut out = DeviceOutput::new();
            let bulk_sq = SqId(0);
            let small_sq = if same_queue { SqId(0) } else { SqId(1) };
            for i in 0..8 {
                dev.push_command(bulk_sq, cmd(10 + i, 32, i * 32)).unwrap();
            }
            dev.push_command(small_sq, cmd(2, 1, 1000)).unwrap();
            dev.ring_doorbell(bulk_sq, SimTime::ZERO, &mut out);
            dev.ring_doorbell(small_sq, SimTime::ZERO, &mut out);
            let (completions, _) = drain(&mut dev, out);
            completions
                .iter()
                .find(|(cid, _)| *cid == 2)
                .map(|&(_, t)| t)
                .unwrap()
        };
        let blocked = run(true);
        let separated = run(false);
        assert!(
            blocked > separated,
            "HOL blocking must delay the small read: blocked={blocked} separated={separated}"
        );
    }

    #[test]
    fn round_robin_fairness_across_nsqs() {
        // With commands in two NSQs, fetches alternate: neither queue is
        // starved even if one has many more commands.
        let mut dev = small_device();
        let mut out = DeviceOutput::new();
        for i in 0..8 {
            dev.push_command(SqId(0), cmd(i, 1, i)).unwrap();
        }
        dev.push_command(SqId(1), cmd(100, 1, 500)).unwrap();
        dev.ring_doorbell(SqId(0), SimTime::ZERO, &mut out);
        dev.ring_doorbell(SqId(1), SimTime::ZERO, &mut out);
        let (completions, _) = drain(&mut dev, out);
        // The lone command on SQ1 must complete before the 8-deep SQ0 drains.
        let t100 = completions.iter().find(|(c, _)| *c == 100).unwrap().1;
        let t7 = completions.iter().find(|(c, _)| *c == 7).unwrap().1;
        assert!(t100 < t7, "round-robin must not starve SQ1");
    }

    #[test]
    fn out_of_range_completes_with_error() {
        let mut dev = small_device();
        let mut out = DeviceOutput::new();
        let huge = u64::MAX / 2;
        dev.push_command(SqId(0), cmd(1, 1, huge)).unwrap();
        dev.ring_doorbell(SqId(0), SimTime::ZERO, &mut out);
        let _ = drain(&mut dev, out);
        let entries = isr_take(&mut dev, usize::MAX);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].status, CqStatus::LbaOutOfRange);
        assert_eq!(entries[0].bytes, 0);
    }

    #[test]
    fn flush_completes_without_flash() {
        let mut dev = small_device();
        let mut out = DeviceOutput::new();
        let f = NvmeCommand {
            opcode: IoOpcode::Flush,
            nlb: 0,
            ..cmd(9, 0, 0)
        };
        dev.push_command(SqId(0), f).unwrap();
        dev.ring_doorbell(SqId(0), SimTime::ZERO, &mut out);
        let (completions, _) = drain(&mut dev, out);
        assert_eq!(completions.len(), 1);
        assert_eq!(dev.flash().pages_serviced(), 0);
        // Flush latency plus fetch cost, well under a flash read.
        assert!(completions[0].1 < SimTime::from_micros(50));
    }

    #[test]
    fn isr_cycle_reraises_on_backlog() {
        let mut dev = small_device();
        let mut out = DeviceOutput::new();
        dev.push_command(SqId(0), cmd(1, 1, 0)).unwrap();
        dev.push_command(SqId(0), cmd(2, 1, 64)).unwrap();
        dev.ring_doorbell(SqId(0), SimTime::ZERO, &mut out);
        let (_, irqs) = drain(&mut dev, out);
        assert_eq!(irqs.len(), 1, "second CQE lands while vector raised");
        // ISR pops only one entry, acks: must re-raise for the rest.
        let got = isr_take(&mut dev, 1);
        assert_eq!(got.len(), 1);
        let mut out = DeviceOutput::new();
        dev.isr_done(CqId(0), SimTime::from_millis(1), &mut out);
        assert_eq!(out.irqs.len(), 1, "backlog must re-raise");
        // Drain fully, ack again: vector idles.
        let got = isr_take(&mut dev, usize::MAX);
        assert_eq!(got.len(), 1);
        let mut out2 = DeviceOutput::new();
        dev.isr_done(CqId(0), SimTime::from_millis(2), &mut out2);
        assert!(out2.irqs.is_empty());
    }

    #[test]
    fn fetch_serializes_but_flash_overlaps() {
        // Two bulk commands in different NSQs: their fetches serialize on
        // the fetch engine but flash service overlaps, so total time is far
        // less than 2x a single command.
        let single = {
            let mut dev = small_device();
            let mut out = DeviceOutput::new();
            dev.push_command(SqId(0), cmd(1, 32, 0)).unwrap();
            dev.ring_doorbell(SqId(0), SimTime::ZERO, &mut out);
            let (c, _) = drain(&mut dev, out);
            c[0].1
        };
        let dual = {
            let mut dev = small_device();
            let mut out = DeviceOutput::new();
            dev.push_command(SqId(0), cmd(1, 32, 0)).unwrap();
            dev.push_command(SqId(1), cmd(2, 32, 4096)).unwrap();
            dev.ring_doorbell(SqId(0), SimTime::ZERO, &mut out);
            dev.ring_doorbell(SqId(1), SimTime::ZERO, &mut out);
            let (c, _) = drain(&mut dev, out);
            c.iter().map(|&(_, t)| t).max().unwrap()
        };
        assert!(dual < SimTime::from_nanos(single.as_nanos() * 2));
    }

    #[test]
    fn cq_stats_feed_merit_inputs() {
        let mut dev = small_device();
        let mut out = DeviceOutput::new();
        dev.push_command(SqId(0), cmd(1, 1, 0)).unwrap();
        dev.ring_doorbell(SqId(0), SimTime::ZERO, &mut out);
        // After fetch, in_flight rises.
        let mut q = EventQueue::new();
        for (at, ev) in out.events.drain(..) {
            q.push(at, ev);
        }
        let (at, ev) = q.pop().unwrap();
        dev.handle_event(ev, at, &mut out);
        assert_eq!(dev.cq_stats(CqId(0)).in_flight_rqs, 1);
        // After completion, complete_rqs and irqs rise.
        for (at, ev) in out.events.drain(..) {
            q.push(at, ev);
        }
        let (at, ev) = q.pop().unwrap();
        dev.handle_event(ev, at, &mut out);
        let st = dev.cq_stats(CqId(0));
        assert_eq!(st.in_flight_rqs, 0);
        assert_eq!(st.complete_rqs, 1);
        assert_eq!(st.irqs, 1);
    }

    #[test]
    fn wrr_device_prioritises_high_class_queue() {
        use crate::arbiter::SqPriorityClass;
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 2;
        cfg.nr_cqs = 2;
        cfg.sq_depth = 256;
        let mut dev = NvmeDevice::new(cfg, 2);
        dev.set_sq_priority(SqId(0), SqPriorityClass::High);
        dev.set_sq_priority(SqId(1), SqPriorityClass::Low);
        let mut out = DeviceOutput::new();
        // Backlog on both queues: small reads on high, bulk on low.
        for i in 0..16 {
            dev.push_command(SqId(0), cmd(i, 1, i * 4)).unwrap();
            dev.push_command(SqId(1), cmd(100 + i, 32, 1000 + i * 32))
                .unwrap();
        }
        dev.ring_doorbell(SqId(0), SimTime::ZERO, &mut out);
        dev.ring_doorbell(SqId(1), SimTime::ZERO, &mut out);
        let (completions, _) = drain(&mut dev, out);
        let t_high_last = completions
            .iter()
            .filter(|(c, _)| *c < 100)
            .map(|&(_, t)| t)
            .max()
            .unwrap();
        let t_low_last = completions
            .iter()
            .filter(|(c, _)| *c >= 100)
            .map(|&(_, t)| t)
            .max()
            .unwrap();
        assert!(
            t_high_last < t_low_last,
            "high-class backlog must drain first under 8:2 WRR"
        );
    }

    #[test]
    fn multi_namespace_shares_queues_and_flash() {
        let mut cfg = NvmeConfig::sv_m().with_namespaces(4);
        cfg.nr_sqs = 2;
        cfg.nr_cqs = 2;
        let mut dev = NvmeDevice::new(cfg, 2);
        let mut out = DeviceOutput::new();
        // Namespace 1 and 3 commands on the SAME SQ: HOL applies regardless
        // of the namespace split.
        let mut c1 = cmd(1, 32, 0);
        c1.nsid = NamespaceId(1);
        let mut c2 = cmd(2, 1, 0);
        c2.nsid = NamespaceId(3);
        dev.push_command(SqId(0), c1).unwrap();
        dev.push_command(SqId(0), c2).unwrap();
        dev.ring_doorbell(SqId(0), SimTime::ZERO, &mut out);
        let (completions, _) = drain(&mut dev, out);
        let t1 = completions.iter().find(|(c, _)| *c == 1).unwrap().1;
        let t2 = completions.iter().find(|(c, _)| *c == 2).unwrap().1;
        assert!(
            t2 > SimTime::ZERO + SimDuration::from_micros(8),
            "cross-namespace HOL must delay the small request (t2={t2}, t1={t1})"
        );
    }
}
