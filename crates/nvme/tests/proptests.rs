//! Property-based tests of the NVMe device model (dd-check harness).

use dd_check::{check, prop_assert, prop_assert_eq, Case, Failure};

use dd_nvme::arbiter::{Arbiter, SqPriorityClass};
use dd_nvme::command::{HostTag, IoOpcode};
use dd_nvme::flash::{FlashBackend, FlashConfig};
use dd_nvme::namespace::NamespaceTable;
use dd_nvme::spec::{CommandId, CqId, NamespaceId, SqId};
use dd_nvme::{CqEntry, DeviceOutput, NvmeCommand, NvmeConfig, NvmeDevice, NvmeEvent};
use simkit::fault::{FaultEvent, FaultGeometry, FaultKind};
use simkit::{EventQueue, FaultPlan, SimDuration, SimTime};

#[path = "support/scan_arbiter.rs"]
mod scan_arbiter;
use scan_arbiter::{ScanRoundRobin, ScanWrr};

/// Every completion entry pending on `cq`, popped as the host ISR does.
fn isr_pop_all(dev: &mut NvmeDevice, cq: u16) -> Vec<CqEntry> {
    let mut buf = Vec::new();
    dev.isr_pop_into(CqId(cq), usize::MAX, &mut buf);
    buf
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

/// Drains one device call's effects: checks every fetch the call made
/// against the per-NSQ model, then queues the device's events. `pushed[sq]`
/// lists the cids pushed onto `sq` in order, `published[sq]` how many of
/// them the doorbell has published, and `fetched[sq]` how many the
/// controller has fetched.
fn absorb_fetches(
    dev: &NvmeDevice,
    out: &mut DeviceOutput,
    queue: &mut EventQueue<NvmeEvent>,
    pushed: &[Vec<u64>],
    published: &[usize],
    fetched: &mut [usize],
) -> Result<(), Failure> {
    out.irqs.clear();
    for (at, ev) in out.events.drain(..) {
        if let NvmeEvent::FetchDone { .. } = ev {
            let named = dev.event_command(&ev);
            prop_assert!(named.is_some(), "FetchDone names no command");
            let (cmd, sq) = named.unwrap();
            let (q, n) = (sq.index(), fetched[sq.index()]);
            prop_assert!(n < published[q], "{sq}: fetched an unpublished entry");
            prop_assert_eq!(cmd.cid, CommandId(pushed[q][n]), "{sq}: out of FIFO order");
            fetched[q] += 1;
        }
        queue.push(at, ev);
    }
    Ok(())
}

/// The NSQs of one device are FIFOs over one shared command slab. Random
/// push / doorbell / device-event / ISR steps on several NSQs, with the
/// slab reserved below or above one NSQ's depth: each NSQ fetches in push
/// order and never fetches an unpublished entry, a push fails with
/// `QueueFull` exactly when its NSQ holds `depth` entries, the slab holds
/// exactly the pushed-but-unreaped commands, and it is empty once every
/// CQ has been reaped.
#[test]
fn nsqs_are_fifos_over_one_shared_slab() {
    check("nsqs_are_fifos_over_one_shared_slab", |c| {
        let nr_sqs = c.u16_in(1, 7);
        let nr_cqs = c.u16_in(1, nr_sqs + 1);
        let depth = c.u16_in(2, 13);
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = nr_sqs;
        cfg.nr_cqs = nr_cqs;
        cfg.sq_depth = depth;
        cfg.max_inflight_pages = c.u32_in(1, 64);
        let mut dev = NvmeDevice::new(cfg, nr_cqs);
        dev.reserve(c.usize_in(0, 3 * depth as usize));
        let steps = c.vec_of(1, 300, |c| {
            (c.u8_in(0, 4), c.u16_in(0, nr_sqs), c.usize_in(1, 9))
        });
        let n = nr_sqs as usize;
        let (mut pushed, mut published, mut fetched) =
            (vec![Vec::new(); n], vec![0; n], vec![0; n]);
        let (mut next_cid, mut reaped) = (0u64, 0usize);
        let mut out = DeviceOutput::new();
        let mut queue = EventQueue::new();
        let mut isr_buf = Vec::new();
        let mut now = SimTime::ZERO;
        for (op, sq, k) in steps {
            let q = sq as usize;
            match op {
                0 => {
                    let full = pushed[q].len() - fetched[q] == depth as usize;
                    let res = dev.push_command(SqId(sq), cmd(next_cid, k as u32, next_cid * 8));
                    prop_assert_eq!(res.is_err(), full, "SQ {sq}: QueueFull off depth {depth}");
                    if res.is_ok() {
                        pushed[q].push(next_cid);
                        next_cid += 1;
                    }
                }
                1 => {
                    published[q] = pushed[q].len();
                    dev.ring_doorbell(SqId(sq), now, &mut out);
                }
                2 => {
                    if let Some((at, ev)) = queue.pop() {
                        now = at;
                        dev.handle_event(ev, now, &mut out);
                    }
                }
                _ => {
                    let cq = CqId(sq % nr_cqs);
                    reaped += dev.isr_pop_into(cq, k, &mut isr_buf);
                    for e in &isr_buf {
                        prop_assert_eq!(dev.cq_of_sq(e.sq_id), cq);
                    }
                    dev.isr_done(cq, now, &mut out);
                }
            }
            absorb_fetches(
                &dev,
                &mut out,
                &mut queue,
                &pushed,
                &published,
                &mut fetched,
            )?;
            let occupancy = dev.sq_stats(SqId(sq)).occupancy as usize;
            prop_assert_eq!(occupancy, pushed[q].len() - fetched[q]);
            prop_assert_eq!(dev.held_cmds() + reaped, next_cid as usize);
        }
        // Publish everything, run the device dry, and reap every CQ.
        for sq in 0..nr_sqs {
            published[sq as usize] = pushed[sq as usize].len();
            dev.ring_doorbell(SqId(sq), now, &mut out);
        }
        loop {
            absorb_fetches(
                &dev,
                &mut out,
                &mut queue,
                &pushed,
                &published,
                &mut fetched,
            )?;
            let Some((at, ev)) = queue.pop() else { break };
            now = at;
            dev.handle_event(ev, now, &mut out);
        }
        for cq in 0..nr_cqs {
            reaped += isr_pop_all(&mut dev, cq).len();
        }
        prop_assert_eq!(reaped, next_cid as usize);
        prop_assert_eq!(dev.held_cmds(), 0, "reaped device still holds commands");
        Ok(())
    });
}

/// Namespace translation maps every valid access into the namespace's own
/// disjoint device range and rejects everything else.
#[test]
fn namespace_translation_stays_in_bounds() {
    check("namespace_translation_stays_in_bounds", |c| {
        let sizes = c.vec_of(1, 8, |c| c.u64_in(1, 10_000));
        let ns_pick = c.usize_in(0, 8);
        let slba = c.u64_in(0, 20_000);
        let nlb = c.u32_in(1, 64);
        let table = NamespaceTable::new(&sizes);
        let idx = ns_pick % sizes.len();
        let nsid = NamespaceId(idx as u32 + 1);
        let base: u64 = sizes[..idx].iter().sum();
        match table.translate(nsid, slba, nlb) {
            Ok(dev_lba) => {
                prop_assert!(slba + nlb as u64 <= sizes[idx]);
                prop_assert!(dev_lba >= base);
                prop_assert!(dev_lba + nlb as u64 <= base + sizes[idx]);
            }
            Err(_) => {
                prop_assert!(slba + nlb as u64 > sizes[idx]);
            }
        }
        Ok(())
    });
}

/// Flash dispatch completion times are never earlier than dispatch and
/// respect per-die FIFO monotonicity.
#[test]
fn flash_completions_causal() {
    check("flash_completions_causal", |c| {
        let lbas = c.vec_of(1, 100, |c| c.u64_in(0, 10_000));
        let mut f = FlashBackend::new(FlashConfig::consumer());
        let mut last_done_per_lba_class = std::collections::HashMap::new();
        for (i, &lba) in lbas.iter().enumerate() {
            let now = SimTime::from_micros(i as u64); // Non-decreasing dispatch.
            let done = f.dispatch_page(now, lba, IoOpcode::Read, &mut FaultPlan::disabled());
            prop_assert!(done > now);
            // Same (channel, die) ops complete in dispatch order.
            let class = (lba % 8, (lba / 8) % 4);
            if let Some(prev) = last_done_per_lba_class.insert(class, done) {
                prop_assert!(done >= prev);
            }
        }
        prop_assert_eq!(f.pages_serviced(), lbas.len() as u64);
        Ok(())
    });
}

/// End-to-end: any batch of valid commands pushed over any queues
/// completes exactly once, regardless of sizes and placement.
#[test]
fn device_completes_everything_exactly_once() {
    check("device_completes_everything_exactly_once", |c| {
        let specs = c.vec_of(1, 40, |c| {
            (c.u16_in(0, 4), c.u32_in(1, 40), c.u64_in(0, 100_000))
        });
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 4;
        cfg.nr_cqs = 2;
        cfg.sq_depth = 64;
        let mut dev = NvmeDevice::new(cfg, 2);
        let mut out = DeviceOutput::new();
        let mut pushed = 0u64;
        for (i, &(sq, nlb, slba)) in specs.iter().enumerate() {
            if dev.push_command(SqId(sq), cmd(i as u64, nlb, slba)).is_ok() {
                pushed += 1;
            }
        }
        for q in 0..4 {
            dev.ring_doorbell(SqId(q), SimTime::ZERO, &mut out);
        }
        // Drain the event stream.
        let mut queue = EventQueue::new();
        loop {
            for (at, ev) in out.events.drain(..) {
                queue.push(at, ev);
            }
            out.irqs.clear();
            let Some((at, ev)) = queue.pop() else { break };
            dev.handle_event(ev, at, &mut out);
        }
        prop_assert_eq!(dev.stats().completed, pushed);
        prop_assert_eq!(dev.in_flight_cmds(), 0);
        // Every CQE is retrievable exactly once.
        let total: usize = (0..2).map(|cq| isr_pop_all(&mut dev, cq).len()).sum();
        prop_assert_eq!(total as u64, pushed);
        let again: usize = (0..2).map(|cq| isr_pop_all(&mut dev, cq).len()).sum();
        prop_assert_eq!(again, 0);
        prop_assert_eq!(dev.held_cmds(), 0);
        Ok(())
    });
}

/// One doorbell batch of a random device workload: at `at`, push `cmds`
/// onto `sq` and ring its doorbell.
struct DoorbellBatch {
    at: SimTime,
    sq: u16,
    cmds: Vec<NvmeCommand>,
}

fn random_workload(c: &mut Case, nr_sqs: u16, blocks: u64) -> Vec<DoorbellBatch> {
    let mut at = SimTime::ZERO;
    let mut cid = 0u64;
    let n = c.usize_in(1, 12);
    (0..n)
        .map(|_| {
            at += SimDuration::from_nanos(c.u64_in(0, 50_000));
            let sq = c.u16_in(0, nr_sqs);
            let cmds = c.vec_of(1, 6, |c| {
                let opcode = match c.u8_in(0, 9) {
                    0 => IoOpcode::Flush,
                    1..=6 => IoOpcode::Read,
                    _ => IoOpcode::Write,
                };
                let nlb = c.u32_in(1, 32);
                let slba = c.u64_in(0, blocks - 64);
                cid += 1;
                NvmeCommand {
                    cid: CommandId(cid),
                    nsid: NamespaceId(1),
                    opcode,
                    slba,
                    nlb,
                    host: HostTag {
                        rq_id: cid,
                        submit_core: 0,
                        ..HostTag::default()
                    },
                }
            });
            DoorbellBatch { at, sq, cmds }
        })
        .collect()
}

fn random_faults(c: &mut Case, geo: FaultGeometry) -> FaultPlan {
    let events = c.vec_of(1, 6, |c| {
        let at = SimTime::from_nanos(c.u64_in(0, 300_000));
        let dur = SimDuration::from_nanos(c.u64_in(1_000, 200_000));
        let kind = match c.u8_in(0, 3) {
            0 => FaultKind::DieSpike {
                die: c.u32_in(0, geo.dies),
                mult: c.u32_in(2, 8),
                dur,
            },
            1 => FaultKind::NsqStall {
                sq: c.u16_in(0, geo.sqs),
                dur,
            },
            _ => FaultKind::VectorLoss {
                cq: c.u16_in(0, geo.cqs),
                dur,
            },
        };
        FaultEvent { at, kind }
    });
    FaultPlan::from_events(events, geo).expect("targets are drawn inside the geometry")
}

/// The serial fetch engine conserves commands under any fault schedule:
/// at most one fetch is in flight and a device call raises at most one
/// IRQ; every fetched command gets exactly one `FetchDone` and then exactly
/// one `CmdDone`, and every `CmdDone` posts exactly one CQE. Random SQ/CQ
/// geometries, in-flight page budgets, workloads and fault schedules (NSQ
/// stall windows, die spikes, lost vectors). Doorbell batches merge with
/// the device's own event stream in `(time, seq)` order, as in the machine
/// loop.
#[test]
fn device_conserves_commands_under_faults() {
    check("device_conserves_commands_under_faults", |c| {
        let nr_sqs = c.u16_in(1, 9);
        let nr_cqs = c.u16_in(1, nr_sqs + 1);
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = nr_sqs;
        cfg.nr_cqs = nr_cqs;
        cfg.sq_depth = c.u16_in(8, 64);
        cfg.max_inflight_pages = c.u32_in(8, 96);
        let blocks = cfg.namespace_blocks[0];
        let batches = random_workload(c, nr_sqs, blocks);
        let geo = FaultGeometry {
            dies: cfg.flash.total_dies() as u32,
            sqs: nr_sqs,
            cqs: nr_cqs,
        };
        let mut dev = NvmeDevice::new(cfg, nr_cqs);
        if c.bool_with(0.5) {
            dev.install_faults(random_faults(c, geo));
        }
        let mut out = DeviceOutput::new();
        let mut queue = EventQueue::new();
        let (mut fetched, mut done) = (Vec::new(), Vec::new());
        let mut fetches_pending = 0u32;
        let mut next_batch = 0;
        loop {
            prop_assert!(
                out.irqs.len() <= 1,
                "one device call raised {} IRQs",
                out.irqs.len()
            );
            out.irqs.clear();
            for (at, ev) in out.events.drain(..) {
                if let NvmeEvent::FetchDone { .. } = ev {
                    fetches_pending += 1;
                    prop_assert!(fetches_pending <= 1, "two fetches in flight");
                }
                queue.push(at, ev);
            }
            let db_at = batches.get(next_batch).map(|b| b.at);
            let ring_next = match (db_at, queue.peek_time()) {
                (Some(d), Some(e)) => d <= e,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if ring_next {
                let b = &batches[next_batch];
                next_batch += 1;
                for cmd in &b.cmds {
                    // A full SQ drops the command: it is never fetched.
                    let _ = dev.push_command(SqId(b.sq), *cmd);
                }
                dev.ring_doorbell(SqId(b.sq), b.at, &mut out);
                continue;
            }
            let (at, ev) = queue.pop().expect("peeked non-empty");
            let named = dev.event_command(&ev).map(|(cmd, _)| cmd.cid);
            match ev {
                NvmeEvent::FetchDone { .. } => {
                    fetches_pending -= 1;
                    fetched.push(named.expect("FetchDone names a staged command"));
                }
                NvmeEvent::CmdDone { .. } => {
                    done.push(named.expect("CmdDone names a staged command"));
                }
            }
            dev.handle_event(ev, at, &mut out);
        }
        let stats = dev.stats();
        prop_assert_eq!(stats.fetched, fetched.len() as u64);
        prop_assert_eq!(stats.completed, done.len() as u64);
        prop_assert_eq!(dev.in_flight_cmds(), 0);
        fetched.sort_unstable();
        let fetched_once = fetched.windows(2).all(|w| w[0] != w[1]);
        prop_assert!(fetched_once, "a command was fetched twice");
        done.sort_unstable();
        prop_assert_eq!(&fetched, &done);
        let mut cqes: Vec<CommandId> = (0..nr_cqs)
            .flat_map(|cq| isr_pop_all(&mut dev, cq))
            .map(|e| e.cid)
            .collect();
        cqes.sort_unstable();
        prop_assert_eq!(cqes, done);
        Ok(())
    });
}

/// With every queue in one class, the device's O(1) bitmask pick
/// reproduces the round-robin predicate-scan reference pick for pick under
/// random push/fetch/stall interleavings. The reference is test support
/// (`support/scan_arbiter.rs`).
#[test]
fn rr_mask_pick_matches_scan() {
    check("rr_mask_pick_matches_scan", |c| {
        let nr_sqs = c.u16_in(1, 80);
        let mut mask_arb = Arbiter::new(nr_sqs);
        let mut scan_arb = ScanRoundRobin::new(nr_sqs);
        let mut work = vec![0u32; nr_sqs as usize];
        let ops = c.vec_of(1, 300, |c| (c.u8_in(0, 4), c.u16_in(0, nr_sqs)));
        let stall_mod = c.u16_in(2, 7);
        let mut tick = 0u16;
        for (op, sq) in ops {
            if op < 2 {
                // Push: one more visible command on `sq`.
                work[sq as usize] += 1;
                if work[sq as usize] == 1 {
                    mask_arb.note_ready(SqId(sq));
                }
            } else {
                // Fetch pick under a rotating stall pattern.
                tick = (tick + 1) % stall_mod;
                let stalled = |q: SqId| (q.0 + tick).is_multiple_of(stall_mod);
                let picked = mask_arb.pick(stalled);
                let reference = scan_arb.next(|q| work[q.index()] > 0 && !stalled(q));
                prop_assert_eq!(picked, reference);
                if let Some(q) = picked {
                    prop_assert!(work[q.index()] > 0);
                    work[q.index()] -= 1;
                    if work[q.index()] == 0 {
                        mask_arb.note_idle(q);
                    }
                }
            }
            prop_assert_eq!(mask_arb.any_ready(), work.iter().any(|&w| w > 0));
        }
        Ok(())
    });
}

/// Bitmask pick ≡ predicate-scan reference at the device's class weights:
/// random class assignments and push/fetch/stall interleavings.
#[test]
fn wrr_mask_pick_matches_scan() {
    check("wrr_mask_pick_matches_scan", |c| {
        let nr_sqs = c.u16_in(1, 80);
        let mut mask_arb = Arbiter::new(nr_sqs);
        let mut scan_arb = ScanWrr::new(nr_sqs);
        let classes = [
            SqPriorityClass::High,
            SqPriorityClass::Medium,
            SqPriorityClass::Low,
        ];
        for sq in 0..nr_sqs {
            let class = classes[c.usize_in(0, 3)];
            mask_arb.set_class(SqId(sq), class);
            scan_arb.set_class(SqId(sq), class);
        }
        let mut work = vec![0u32; nr_sqs as usize];
        let ops = c.vec_of(1, 300, |c| (c.u8_in(0, 4), c.u16_in(0, nr_sqs)));
        let stall_mod = c.u16_in(2, 7);
        let mut tick = 0u16;
        for (op, sq) in ops {
            if op < 2 {
                work[sq as usize] += 1;
                if work[sq as usize] == 1 {
                    mask_arb.note_ready(SqId(sq));
                }
            } else {
                tick = (tick + 1) % stall_mod;
                let stalled = |q: SqId| (q.0 + tick).is_multiple_of(stall_mod);
                let picked = mask_arb.pick(stalled);
                let reference = scan_arb.next(|q| work[q.index()] > 0 && !stalled(q));
                prop_assert_eq!(picked, reference);
                if let Some(q) = picked {
                    prop_assert!(work[q.index()] > 0);
                    work[q.index()] -= 1;
                    if work[q.index()] == 0 {
                        mask_arb.note_idle(q);
                    }
                }
            }
            prop_assert_eq!(mask_arb.any_ready(), work.iter().any(|&w| w > 0));
        }
        Ok(())
    });
}

/// The one-pass flash burst is bit-exact against the per-page loop: same
/// completion time, page count, queueing delay, spike count, and every die
/// and channel cursor left where the loop leaves it (probed by one page per
/// die afterwards) — across random geometries and timings, busy cursors
/// from earlier traffic, reads and GC-free writes, and die-spike windows.
#[test]
fn flash_burst_matches_page_loop() {
    check("flash_burst_matches_page_loop", |c| {
        let cfg = FlashConfig {
            channels: c.u16_in(1, 17),
            dies_per_channel: c.u16_in(1, 9),
            read_latency: SimDuration::from_nanos(c.u64_in(1_000, 100_000)),
            program_latency: SimDuration::from_nanos(c.u64_in(1_000, 1_000_000)),
            transfer_latency: SimDuration::from_nanos(c.u64_in(100, 20_000)),
            gc: None,
        };
        let dies = cfg.total_dies() as u64;
        let op_of = |c: &mut Case| {
            if c.bool_with(0.5) {
                IoOpcode::Read
            } else {
                IoOpcode::Write
            }
        };
        let mut t = 0u64;
        let history = c.vec_of(0, 60, |c| {
            t += c.u64_in(0, 20_000);
            (SimTime::from_nanos(t), c.u64_in(0, 10_000), op_of(c))
        });
        let now = SimTime::from_nanos(t + c.u64_in(0, 20_000));
        let op = op_of(c);
        let pages = c.u64_in(1, 3 * dies + 1) as u32;
        let start = c.u64_in(0, 100_000);
        let geo = FaultGeometry {
            dies: dies as u32,
            sqs: 1,
            cqs: 1,
        };
        let spikes = c.vec_of(0, 6, |c| FaultEvent {
            at: SimTime::from_nanos(c.u64_in(0, now.as_nanos() + 1)),
            kind: FaultKind::DieSpike {
                die: c.u32_in(0, geo.dies),
                mult: c.u32_in(2, 8),
                dur: SimDuration::from_nanos(c.u64_in(1_000, 200_000)),
            },
        });
        let plan = if spikes.is_empty() {
            FaultPlan::disabled()
        } else {
            FaultPlan::from_events(spikes, geo).expect("dies are drawn inside the geometry")
        };
        let (mut burst, mut looped) = (FlashBackend::new(cfg), FlashBackend::new(cfg));
        let (mut burst_faults, mut loop_faults) = (plan.clone(), plan);
        for &(at, lba, op) in &history {
            burst.dispatch_page(at, lba, op, &mut burst_faults);
            looped.dispatch_page(at, lba, op, &mut loop_faults);
        }
        let got = burst.dispatch_burst(now, start, pages, op, &mut burst_faults);
        let want = (0..pages as u64)
            .map(|i| looped.dispatch_page(now, start + i, op, &mut loop_faults))
            .fold(now, SimTime::max);
        prop_assert_eq!(got, want);
        prop_assert_eq!(burst.pages_serviced(), looped.pages_serviced());
        prop_assert_eq!(burst.avg_queue_delay(), looped.avg_queue_delay());
        prop_assert_eq!(burst_faults.stats(), loop_faults.stats());
        // LBAs 0..dies land on every die once: each probe reads both its
        // die's and its channel's cursor.
        for lba in 0..dies {
            let a = burst.dispatch_page(now, lba, IoOpcode::Read, &mut burst_faults);
            let b = looped.dispatch_page(now, lba, IoOpcode::Read, &mut loop_faults);
            prop_assert_eq!(a, b);
        }
        Ok(())
    });
}
