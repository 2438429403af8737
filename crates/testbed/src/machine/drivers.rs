//! The drivers: the tenants, the bios they issue (closed-loop FIO, open-loop
//! FIO on its own wake chain, app ops step by step), and the accounting of
//! their completions and app ops.

use super::*;

/// Progress of the current application op.
pub(super) struct OpState {
    kind: OpKind,
    /// Steps not yet started; each is moved out as it runs.
    steps: std::vec::IntoIter<OpStep>,
    started: SimTime,
    waiting_ios: u32,
}

pub(super) enum Driver {
    Fio(FioJob),
    App {
        /// Boxed so that `Tenant` keeps its fio size (352 bytes, against
        /// 576 with the workload inline): a fleet host holds thousands of
        /// fio tenants and at most a few apps.
        workload: Box<App>,
        current: Option<OpState>,
    },
}

pub(super) struct Tenant {
    pub(super) pid: Pid,
    pub(super) class_label: &'static str,
    pub(super) ionice: IoPriorityClass,
    pub(super) core: u16,
    pub(super) nsid: NamespaceId,
    pub(super) ns_blocks: u64,
    pub(super) driver: Driver,
    pub(super) summary: TenantSummary,
    pub(super) rng: SimRng,
    pub(super) seq_cursor: u64,
    /// Per-tenant latency SLO (None = no accounting).
    pub(super) slo: Option<SimDuration>,
    /// This tenant's row in `Drivers::series`, from its first in-window
    /// completion on.
    pub(super) series_idx: Option<u32>,
}

/// The tenants, and what the run records of their completions.
pub(super) struct Drivers {
    /// Dense by pid: tenant `Pid(p)` lives at index `p - 1` (pids are
    /// assigned contiguously at build time and never removed).
    pub(super) tenants: Vec<Tenant>,
    /// The bios of the submission being built, reused across submissions.
    pub(super) bios: Vec<Bio>,
    pub(super) next_bio_id: u64,
    pub(super) window_start: SimTime,
    pub(super) sample_width: SimDuration,
    pub(super) stop_when_apps_done: bool,
    // Keyed by the tenants' `&'static` class labels; the handful of classes
    // makes a scan-on-miss vec (plus the per-tenant cached index) cheaper
    // than hashing the label on every in-window completion.
    pub(super) series: Vec<(&'static str, ClassSeries)>,
    pub(super) op_lat: HashMap<OpKind, LatencyHistogram>,
    pub(super) active_apps: usize,
}

fn idx(pid: Pid) -> usize {
    (pid.0 - 1) as usize
}

/// Stages a bio for a tenant's I/O descriptor in `bios`, numbering the
/// staged bios from `next_id`.
fn materialize(tenant: &mut Tenant, desc: IoDesc, bios: &mut Vec<Bio>, next_id: u64, now: SimTime) {
    let blocks = bytes_to_blocks(desc.bytes.max(1)).max(1) as u64;
    let max_start = tenant.ns_blocks.saturating_sub(blocks);
    let offset = match desc.placement {
        Placement::Random => tenant.rng.gen_range(max_start + 1),
        Placement::Sequential => {
            let o = tenant.seq_cursor % (max_start + 1);
            tenant.seq_cursor = o + blocks;
            o
        }
        Placement::Block(b) => b % (max_start + 1),
    };
    tenant.summary.ios_issued += 1;
    bios.push(Bio {
        id: BioId(next_id + bios.len() as u64),
        tenant: tenant.pid,
        core: tenant.core,
        nsid: tenant.nsid,
        op: desc.op,
        offset_blocks: offset,
        bytes: desc.bytes,
        flags: desc.flags,
        ioprio: tenant.ionice,
        issued_at: now,
    });
}

impl Drivers {
    pub(super) fn tenant(&mut self, pid: Pid) -> &mut Tenant {
        &mut self.tenants[idx(pid)]
    }

    /// Registers each tenant with the stack and starts it, in pid order.
    pub(super) fn start(&mut self, host: &mut Host, io: &mut Transport) {
        for t in &mut self.tenants {
            let task = TaskStruct::new(t.pid, t.core, t.ionice, t.nsid, t.class_label);
            io.call(host, |stack, env| stack.register_tenant(&task, env));
            let work = match &t.driver {
                // Open-loop arrival tenants start with one staggered wake-up
                // (drawn from their own rng stream, so a 10k-tenant fleet
                // does not thundering-herd at t=0) instead of a closed-loop
                // burst.
                Driver::Fio(FioJob {
                    arrival: Some(arr), ..
                }) => {
                    let delay = t.rng.gen_exp(arr.mean_gap(SimTime::ZERO));
                    host.queue
                        .push(SimTime::ZERO + delay, Event::WakeResubmit(t.pid));
                    continue;
                }
                Driver::Fio(job) => Work::Submit {
                    pid: t.pid,
                    nr: job.iodepth,
                },
                Driver::App { .. } => Work::AppStep { pid: t.pid },
            };
            host.enqueue(t.core, WorkClass::Task, work);
        }
    }

    /// Submits `nr` fresh bios of FIO tenant `pid`; returns the CPU cost.
    pub(super) fn submit_fio(
        &mut self,
        pid: Pid,
        nr: u32,
        host: &mut Host,
        io: &mut Transport,
    ) -> SimDuration {
        let t = &mut self.tenants[idx(pid)];
        let Driver::Fio(job) = t.driver else {
            panic!("fio bios for a non-fio tenant");
        };
        for _ in 0..nr {
            let desc = job.next_io(&mut t.rng);
            materialize(t, desc, &mut self.bios, self.next_bio_id, host.now);
        }
        self.submit(host, io)
    }

    /// Submits the staged bios in one call; returns its CPU cost.
    fn submit(&mut self, host: &mut Host, io: &mut Transport) -> SimDuration {
        let cost = io.call(host, |stack, env| stack.submit(&self.bios, env));
        self.next_bio_id += self.bios.len() as u64;
        self.bios.clear();
        cost
    }

    /// Executes the next step of app tenant `pid`; returns its CPU cost.
    pub(super) fn app_step(
        &mut self,
        pid: Pid,
        host: &mut Host,
        io: &mut Transport,
    ) -> SimDuration {
        let now = host.now;
        let t = &mut self.tenants[idx(pid)];
        let Driver::App { workload, current } = &mut t.driver else {
            panic!("app step for a non-app tenant");
        };
        let st = match current {
            Some(st) => st,
            None => match workload.next_op(&mut t.rng) {
                Some(op) => current.insert(OpState {
                    kind: op.kind,
                    steps: op.steps.into_iter(),
                    started: now,
                    waiting_ios: 0,
                }),
                // Out of ops: the app's one pending step ends here.
                None => {
                    self.active_apps -= 1;
                    if self.active_apps == 0 && self.stop_when_apps_done {
                        host.queue.push(now, Event::Stop);
                    }
                    return SimDuration::ZERO;
                }
            },
        };
        let cost = match st.steps.next() {
            Some(OpStep::Io(desc)) => {
                st.waiting_ios = 1;
                materialize(t, desc, &mut self.bios, self.next_bio_id, now);
                return self.submit(host, io);
            }
            Some(OpStep::IoParallel(descs)) => {
                st.waiting_ios = descs.len() as u32;
                for desc in descs {
                    materialize(t, desc, &mut self.bios, self.next_bio_id, now);
                }
                return self.submit(host, io);
            }
            Some(OpStep::Compute(d)) => d,
            None => {
                if now >= self.window_start && st.kind != OpKind::Maintenance {
                    let lat = now.saturating_since(st.started);
                    self.op_lat.entry(st.kind).or_default().record(lat);
                }
                *current = None;
                io.costs.app_op_done
            }
        };
        host.enqueue(t.core, WorkClass::Task, Work::AppStep { pid });
        cost
    }

    /// Delivers one bio completion to its tenant: statistics, then the
    /// tenant's continuation.
    pub(super) fn complete(&mut self, slot: SlotId, io: &mut Transport, host: &mut Host) {
        // The transport fills each slot once, for one `Completed` event.
        let c = io
            .delivering
            .remove(slot)
            .expect("completion held since drain");
        let t = &mut self.tenants[idx(c.bio.tenant)];
        if c.completed_at >= self.window_start {
            t.summary.record_completion(c.latency(), c.bio.bytes);
            if t.slo.is_some_and(|slo| c.latency() > slo) {
                t.summary.slo_violations += 1;
            }
            let (series, start, width) = (&mut self.series, self.window_start, self.sample_width);
            let row = *t.series_idx.get_or_insert_with(|| {
                let class = t.class_label;
                let i = series.iter().position(|(k, _)| *k == class);
                i.unwrap_or_else(|| {
                    let (latency, bytes) =
                        (TimeSeries::new(start, width), TimeSeries::new(start, width));
                    series.push((class, ClassSeries { latency, bytes }));
                    series.len() - 1
                }) as u32
            });
            let entry = &mut self.series[row as usize].1;
            entry.latency.record_latency(c.completed_at, c.latency());
            entry.bytes.record(c.completed_at, c.bio.bytes);
        }
        let next = match &mut t.driver {
            // Open-loop arrival tenants are driven by their wake chain
            // (see `Event::WakeResubmit`): completions only record stats.
            Driver::Fio(job) => job
                .arrival
                .is_none()
                .then_some(Work::Resubmit { pid: t.pid }),
            Driver::App {
                current: Some(st), ..
            } => {
                debug_assert!(st.waiting_ios > 0, "unexpected app completion");
                st.waiting_ios -= 1;
                (st.waiting_ios == 0).then_some(Work::AppStep { pid: t.pid })
            }
            Driver::App { current: None, .. } => None,
        };
        if let Some(work) = next {
            host.enqueue(t.core, WorkClass::Task, work);
        }
    }

    /// An open-loop tenant's arrival is due: draw the next one and issue.
    pub(super) fn wake(&mut self, pid: Pid, stop_at: SimTime, host: &mut Host) {
        let t = &mut self.tenants[idx(pid)];
        // The wake chain reschedules itself from the *arrival* clock
        // (diurnal × burst modulated), independent of completions — queues
        // grow when the host falls behind, exactly the overload behaviour
        // a closed loop hides.
        if let Driver::Fio(FioJob {
            arrival: Some(arr), ..
        }) = t.driver
        {
            let next = host.now + t.rng.gen_exp(arr.mean_gap(host.now));
            if next < stop_at {
                host.queue.push(next, Event::WakeResubmit(pid));
            }
        }
        host.enqueue(t.core, WorkClass::Task, Work::Resubmit { pid });
    }

    /// Moves tenant `pid` to `core`, where landing costs a context switch.
    pub(super) fn land(&mut self, pid: Pid, core: u16, host: &mut Host) {
        self.tenant(pid).core = core;
        host.enqueue(core, WorkClass::Task, Work::MigrationLand);
    }
}
