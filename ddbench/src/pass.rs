//! One pass: every cell of a workload, run serially on one thread against
//! one `RunArena`, timed only at `testbed`'s public call boundaries
//! (`FleetSpec::expand`, `Machine::new_in`, `Machine::run_in`, the output
//! accessors and `SpanTable::build`). Every host time it reports is
//! scaled to nominal host speed (see `calib.rs`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dd_metrics::{LatencyHistogram, SpanTable};
use dd_workload::{FioJob, OpKind, RwPattern};
use simkit::{Phase, RunArena, SimDuration, SimRng, SimTime, Sla};
use testbed::{FleetOutput, Machine, RunOutput, Scenario, TenantKind};

use crate::calib;
use crate::workloads::{Cell, Spec};

/// What one pass measured.
pub struct Pass {
    /// Metric name → value (names as in the catalogue in `main.rs`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Output digest of each cell, in cell order.
    pub digests: Vec<u64>,
    /// Failed output checks: (cell index, reason).
    pub failures: Vec<(usize, String)>,
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Replay key of a FIO job: `next_io` and `mean_gap` cost depends on the
/// job's shape, not on its rate or phases.
fn job_key(job: &FioJob) -> (RwPattern, u64, u32, u8, bool) {
    (
        job.rw,
        job.block_size,
        job.iodepth,
        job.sync_pct,
        job.arrival.is_some(),
    )
}

/// Host times in seconds: one cell's as measured, or a pass's sums of
/// cell times each divided by the time scale around its cell.
#[derive(Default)]
struct Times {
    /// The whole cell: everything below plus output bookkeeping.
    cell: f64,
    expand: f64,
    build: f64,
    run: f64,
    /// The slowest single machine.
    run_max: f64,
    harvest: f64,
    span_build: f64,
}

impl Times {
    /// Adds a cell's times, divided by the time `scale` around it.
    fn add_scaled(&mut self, c: &Times, scale: f64) {
        self.cell += c.cell / scale;
        self.expand += c.expand / scale;
        self.build += c.build / scale;
        self.run += c.run / scale;
        self.run_max = self.run_max.max(c.run_max / scale);
        self.harvest += c.harvest / scale;
        self.span_build += c.span_build / scale;
    }
}

/// Running sums over every machine of a pass.
#[derive(Default)]
struct Totals {
    /// Scaled host times.
    t: Times,
    stack_run_s: BTreeMap<&'static str, f64>,
    /// Host slowdown around each cell.
    slowdowns: Vec<f64>,
    machines: u64,
    ios: u64,
    events: u64,
    cap_grew: u64,
    busy_mean_sum: f64,
    busy_max: f64,
    flash_delay_us_sum: f64,
    irq_raised: u64,
    submitted: u64,
    doorbells: u64,
    lock_contended: u64,
    local_completions: u64,
    remote_completions: u64,
    redrives: u64,
    steering: u64,
    default_routes: u64,
    outlier_routes: u64,
    per_request_queries: u64,
    reassignments: u64,
    injected: u64,
    recovered: u64,
    app_ops: u64,
    // Simulated results of the daredevil cells.
    sim_l_p999_us: f64,
    sim_t_mbps: f64,
    l_done: u64,
    l_violations: u64,
    app_sim_s: f64,
    // `next_io` / `mean_gap` call counts, one entry per job shape.
    replay: Vec<(FioJob, u64)>,
    // Traced pass only.
    trace_events: u64,
    nsq_wait: LatencyHistogram,
    service: LatencyHistogram,
    delivery: LatencyHistogram,
}

impl Totals {
    /// Output checks and counter walks over one machine's output.
    fn harvest(
        &mut self,
        cell: usize,
        layer: &str,
        out: &RunOutput,
        pool: usize,
        fails: &mut Vec<(usize, String)>,
    ) {
        let mut class_done: BTreeMap<&str, u64> = BTreeMap::new();
        for t in out.tenants() {
            if t.ios_completed() > t.ios_issued() {
                fails.push((
                    cell,
                    format!("tenant {} completed more I/Os than it issued", t.id()),
                ));
            }
            *class_done.entry(t.class()).or_default() += t.ios_completed();
            self.ios += t.ios_completed();
        }
        for (class, done) in class_done {
            if done == 0 {
                fails.push((
                    cell,
                    format!("class {class} has no completions in the window"),
                ));
            }
        }
        let st = &out.stack_stats;
        if st.completed_rqs > st.submitted_rqs {
            fails.push((
                cell,
                "stack completed more requests than it submitted".into(),
            ));
        }
        if out.trace_dropped > 0 {
            fails.push((
                cell,
                format!("trace ring dropped {} events", out.trace_dropped),
            ));
        }

        self.machines += 1;
        self.events += out.events_processed;
        self.cap_grew += u64::from(out.cap_warmup != out.cap_end);
        let busy = &out.summary.core_busy_frac[..pool.min(out.summary.core_busy_frac.len())];
        self.busy_mean_sum += ratio(busy.iter().sum(), busy.len() as f64);
        self.busy_max = busy.iter().copied().fold(self.busy_max, f64::max);
        self.flash_delay_us_sum += out.flash_queue_delay.as_micros_f64();
        self.irq_raised += out.fault.irq_raised_total;
        self.submitted += st.submitted_rqs;
        self.doorbells += st.doorbells;
        self.lock_contended += st.lock_contended;
        self.local_completions += st.local_completions;
        self.remote_completions += st.remote_completions;
        self.redrives += st.watchdog_redrives;
        self.steering += st.steering_actions;
        let r = &out.route_stats;
        self.default_routes += r.default_routes;
        self.outlier_routes += r.outlier_routes;
        self.per_request_queries += r.per_request_queries;
        self.reassignments += out.troute_reassignments;
        self.injected += out.fault.total_injected();
        self.recovered += out.fault.total_recovered();
        self.app_ops += out.op_latencies.values().map(|h| h.count()).sum::<u64>();

        if layer == "daredevil" {
            let l = out.summary.class("L");
            let p999 = if l.tenants > 0 {
                self.l_done += l.ios_completed;
                self.l_violations += l.slo_violations;
                l.latency.p999()
            } else {
                out.op_latencies
                    .get(&OpKind::Read)
                    .map_or(SimDuration::ZERO, |h| h.p999())
            };
            self.sim_l_p999_us = self.sim_l_p999_us.max(p999.as_micros_f64());
            self.sim_t_mbps += out.t_mbps();
            if !out.op_latencies.is_empty() {
                self.app_sim_s += out.summary.window_end.as_secs_f64();
            }
        }
    }

    /// Stitches a traced machine's spans and, for daredevil cells, adds
    /// its in-window L-request phase latencies. Returns the host seconds
    /// `SpanTable::build` took.
    fn spans(&mut self, layer: &str, out: &RunOutput) -> f64 {
        let t = Instant::now();
        let spans = SpanTable::build(&out.trace);
        let build_s = t.elapsed().as_secs_f64();
        self.trace_events += out.trace.len() as u64;
        if layer != "daredevil" {
            return build_s;
        }
        let (from, to) = (out.summary.window_start, out.summary.window_end);
        let l_in_window = |s: &dd_metrics::span::Span| {
            s.sla == Sla::L && s.completed_at().is_some_and(|t| t >= from && t < to)
        };
        for (hist, a, b) in [
            (&mut self.nsq_wait, Phase::Submit, Phase::DeviceFetch),
            (&mut self.service, Phase::DeviceFetch, Phase::FlashDone),
            (&mut self.delivery, Phase::FlashDone, Phase::Complete),
        ] {
            hist.merge(&spans.segment_hist(a, b, l_in_window));
        }
        build_s
    }

    /// Counts the `next_io` / `mean_gap` calls a machine's FIO tenants
    /// made (one per issued I/O), by job shape.
    fn add_calls(&mut self, jobs: &[Option<FioJob>], out: &RunOutput) {
        for t in out.tenants() {
            let slot = (t.id() as usize).checked_sub(1).and_then(|i| jobs.get(i));
            let Some(Some(job)) = slot else {
                continue;
            };
            match self
                .replay
                .iter_mut()
                .find(|(j, _)| job_key(j) == job_key(job))
            {
                Some((_, n)) => *n += t.ios_issued(),
                None => self.replay.push((*job, t.ios_issued())),
            }
        }
    }
}

/// The FIO job of each tenant of a machine about to run (by pid order),
/// so the standalone replay can make as many calls as the run made.
fn fio_jobs(s: &Scenario) -> Vec<Option<FioJob>> {
    s.tenants
        .iter()
        .map(|t| match &t.kind {
            TenantKind::Fio(job) => Some(*job),
            TenantKind::App(_) => None,
        })
        .collect()
}

/// Times `FioJob::next_io` and `ArrivalModel::mean_gap` in isolation,
/// as many calls per job shape as the run made. Returns ns per call.
fn replay_probes(replay: &[(FioJob, u64)]) -> (f64, f64) {
    let mut rng = SimRng::new(0x5eed);
    let (mut fio_calls, mut gap_calls) = (0u64, 0u64);
    let t = Instant::now();
    for (job, n) in replay {
        for _ in 0..*n {
            black_box(job.next_io(black_box(&mut rng)));
        }
        fio_calls += n;
    }
    let fio_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    for (job, n) in replay {
        let Some(model) = &job.arrival else { continue };
        let mut at = SimTime::ZERO;
        for _ in 0..*n {
            at += black_box(model.mean_gap(black_box(at)));
        }
        gap_calls += n;
    }
    let gap_ns = t.elapsed().as_nanos() as f64;
    (
        ratio(fio_ns, fio_calls as f64),
        ratio(gap_ns, gap_calls as f64),
    )
}

/// Runs every cell once, serially, on one cold arena. A reference slice
/// brackets every cell, and each cell's host times are divided by the
/// time scale the two slices around it give for the workload's
/// `sensitivity` (see `calib.rs`).
pub fn run(cells: Vec<Cell>, traced: bool, sensitivity: f64) -> Pass {
    let mut arena = RunArena::new();
    let mut tot = Totals::default();
    let mut digests = Vec::with_capacity(cells.len());
    let mut failures = Vec::new();
    calib::slice(); // warm-up: the first slice of a process runs cold
    let mut before = calib::slice();
    for (idx, cell) in cells.into_iter().enumerate() {
        let mut c = Times::default();
        let cell_start = Instant::now();
        let t = Instant::now();
        let scenarios = match cell.spec {
            Spec::Machine(s) => vec![s],
            Spec::Fleet(f) => f.expand(),
        };
        c.expand = t.elapsed().as_secs_f64();
        let mut hosts = Vec::with_capacity(scenarios.len());
        let mut jobs = Vec::with_capacity(scenarios.len());
        for s in scenarios {
            let pool = s.core_pool as usize;
            jobs.push(fio_jobs(&s));
            let t = Instant::now();
            let machine = Machine::new_in(s, &mut arena);
            c.build += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let out = machine.run_in(&mut arena);
            let run_s = t.elapsed().as_secs_f64();
            c.run += run_s;
            c.run_max = c.run_max.max(run_s);
            hosts.push((out, pool));
        }
        let t = Instant::now();
        for (out, pool) in &hosts {
            tot.harvest(idx, cell.layer, out, *pool, &mut failures);
        }
        let fleet = FleetOutput {
            hosts: hosts.into_iter().map(|(out, _)| out).collect(),
        };
        digests.push(fleet.digest());
        c.harvest = t.elapsed().as_secs_f64();
        for (out, jobs) in fleet.hosts.iter().zip(&jobs) {
            tot.add_calls(jobs, out);
            if traced {
                c.span_build += tot.spans(cell.layer, out);
            }
        }
        c.cell = cell_start.elapsed().as_secs_f64();
        let after = calib::slice();
        let slowdown = calib::slowdown(before, after);
        let scale = calib::time_scale(slowdown, sensitivity);
        tot.t.add_scaled(&c, scale);
        *tot.stack_run_s.entry(cell.layer).or_default() += c.run / scale;
        tot.slowdowns.push(slowdown);
        before = after;
    }
    let peak_heap = crate::heap::peak_mib();
    let (fio_ns, gap_ns) = replay_probes(&tot.replay);
    let scale = calib::time_scale(calib::slowdown(before, calib::slice()), sensitivity);
    let (fio_ns, gap_ns) = (fio_ns / scale, gap_ns / scale);
    let hits = arena.stats();
    let t = &tot.t;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("wall_s", t.cell);
    m.insert("setup_s", t.expand + t.build);
    m.insert("ios_per_host_s", ratio(tot.ios as f64, t.cell));
    m.insert("peak_heap_mib", peak_heap);
    m.insert("host.slowdown", crate::stats::quartiles(&tot.slowdowns).1);
    m.insert("testbed.sim_l_p999_us", tot.sim_l_p999_us);
    m.insert("testbed.sim_t_mbps", tot.sim_t_mbps);
    m.insert(
        "testbed.sim_slo_viol_pct",
        100.0 * ratio(tot.l_violations as f64, tot.l_done as f64),
    );
    m.insert("testbed.sim_app_s", tot.app_sim_s);
    m.insert("testbed.expand_s", t.expand);
    m.insert("testbed.build_s", t.build);
    m.insert("testbed.run_s", t.run);
    m.insert(
        "testbed.ns_per_event",
        1e9 * ratio(t.run, tot.events as f64),
    );
    m.insert("testbed.run_max_cell_s", t.run_max);
    m.insert("testbed.harvest_s", t.harvest);
    for (layer, name) in [
        ("vanilla", "vanilla.run_s"),
        ("blkswitch", "blkswitch.run_s"),
        ("overprov", "overprov.run_s"),
        ("daredevil", "daredevil.run_s"),
        ("virtio", "virtio.run_s"),
    ] {
        m.insert(name, tot.stack_run_s.get(layer).copied().unwrap_or(0.0));
    }
    m.insert("simkit.events", tot.events as f64);
    m.insert(
        "simkit.events_per_io",
        ratio(tot.events as f64, tot.ios as f64),
    );
    m.insert(
        "simkit.arena_hit_frac",
        ratio(hits.hits as f64, (hits.hits + hits.misses) as f64),
    );
    m.insert("simkit.cap_grew_cells", tot.cap_grew as f64);
    m.insert(
        "cpu.busy_frac_mean",
        ratio(tot.busy_mean_sum, tot.machines as f64),
    );
    m.insert("cpu.busy_frac_max", tot.busy_max);
    m.insert(
        "nvme.flash_queue_delay_us",
        ratio(tot.flash_delay_us_sum, tot.machines as f64),
    );
    m.insert("nvme.irq_raised", tot.irq_raised as f64);
    m.insert(
        "blkstack.rqs_per_doorbell",
        ratio(tot.submitted as f64, tot.doorbells as f64),
    );
    m.insert(
        "blkstack.lock_contended_frac",
        ratio(tot.lock_contended as f64, tot.submitted as f64),
    );
    m.insert(
        "blkstack.remote_completion_frac",
        ratio(
            tot.remote_completions as f64,
            (tot.local_completions + tot.remote_completions) as f64,
        ),
    );
    m.insert("blkstack.watchdog_redrives", tot.redrives as f64);
    m.insert("blkswitch.steering_actions", tot.steering as f64);
    m.insert(
        "core.outlier_frac",
        ratio(
            tot.outlier_routes as f64,
            (tot.default_routes + tot.outlier_routes) as f64,
        ),
    );
    m.insert("core.per_request_queries", tot.per_request_queries as f64);
    m.insert("core.reassignments", tot.reassignments as f64);
    m.insert("fault.injected", tot.injected as f64);
    m.insert("fault.recovered", tot.recovered as f64);
    m.insert("workload.app_ops", tot.app_ops as f64);
    m.insert("workload.fio_next_io_ns", fio_ns);
    m.insert("workload.arrival_gap_ns", gap_ns);
    if traced {
        m.insert("nvme.nsq_wait_p50_us", tot.nsq_wait.p50().as_micros_f64());
        m.insert("nvme.nsq_wait_p999_us", tot.nsq_wait.p999().as_micros_f64());
        m.insert("nvme.service_p999_us", tot.service.p999().as_micros_f64());
        m.insert("nvme.delivery_p999_us", tot.delivery.p999().as_micros_f64());
        m.insert(
            "metrics.span_build_ns_per_event",
            1e9 * ratio(t.span_build, tot.trace_events as f64),
        );
    }
    Pass {
        metrics: m,
        digests,
        failures,
    }
}
