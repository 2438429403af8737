//! `ddbench`: the repository's benchmark. It reports how fast the
//! simulator runs, end to end and layer by layer, and checks that what it
//! simulates is unchanged.
//!
//! It builds scenarios only through `testbed`'s public API and times only
//! calls into public functions: `FleetSpec::expand`, `Machine::new_in`,
//! `Machine::run_in`, the `RunOutput` / `FleetOutput` / `TenantView`
//! accessors, `SpanTable::build`, `FioJob::next_io` and
//! `ArrivalModel::mean_gap`. Host time inside `run_in` is not split.
//!
//! # Running it
//!
//! ```text
//! cargo run --release --manifest-path ddbench/Cargo.toml -- \
//!     [--workload hol|fleet10k|apps|hostile] [--seed N] [--seconds S] \
//!     [--trace 0|1] [--out PATH]
//! ```
//!
//! The defaults are every workload, seed 42, 20 s per workload and both
//! metric sets. The package is a workspace of its own with the
//! repository's fat-LTO release profile, so it builds the simulator crates
//! from source and measures the code the figure binaries run.
//!
//! For each workload, untraced *passes* run until `--seconds` are spent,
//! and at least three run. A pass runs every cell of the workload once,
//! serially on one thread, in a fresh child process. So each pass starts
//! with a cold `RunArena`, as a user launching a figure binary does, and
//! has its own heap peak. The workload seed is `--seed`. The fault seed of
//! `hostile` is derived from it. Unless `--trace 0` is given, three pairs
//! of passes follow, each an untraced and a traced pass with warm-up,
//! measured windows and app op counts cut to 1/10. The traced pass traces
//! every span phase.
//!
//! Each metric prints as `workload metric median unit q1 q3 n`. The
//! quartiles and median are Python's `statistics.quantiles(values, n=4)`
//! over the `n` passes. A `failed_frac` line follows for each workload.
//! The last line is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`, which holds the medians.
//! `--trace 0` selects the end-to-end metrics, `--trace 1` the per-layer
//! ones, and no flag selects both. When several workloads run, keys are
//! prefixed with `workload.`. `--out` writes everything as JSON: quartiles,
//! checks, digests and `available_parallelism`. The exit code is 1 when a
//! check failed.
//!
//! `ddbench/baseline.json` records the medians and quartiles of two sets
//! of ten-seed runs, with the host they ran on. The seed-42 digests live
//! only in [`RECORDED_DIGESTS`]. `cargo test --manifest-path
//! ddbench/Cargo.toml` runs the unit tests.
//!
//! # Workloads
//!
//! Every cell runs on the SV-M preset with a 4-core pool and 100 ms of
//! warm-up. Sizes are set so that one pass takes 0.8–1.5 s of host time
//! on an unloaded 2-core 2.1 GHz x86-64 host.
//!
//! | name | cells | why |
//! |---|---|---|
//! | `hol` | §7.1 population: 4 L-tenants (4 KiB randread, QD1, real-time ionice, 2 ms SLO) and 16 T-tenants (128 KiB, QD32), closed loop, 516 I/Os outstanding. Five stacks: vanilla, blk-switch, overprov, daredevil, virtio (daredevil host, SLA-aware VQs). 4 s measured. | The paper's headline case. The per-I/O hot path does almost all host work: event queue, CPU queues, stack submit/ISR, and the arbiter/fetch/flash/IRQ device path. Setup and per-tenant state are negligible. |
//! | `fleet10k` | `ext_fleet` shape: 10k Zipfian(0.99) tenants, 20 % L, on 4 round-robin SV-M hosts, open-loop arrivals at 20k IOPS in aggregate. Four stacks. 4 s measured. | Per-tenant state dominates (2.5k tenants per host) and the device is lightly loaded. One event costs several times what it costs on `hol`. |
//! | `apps` | Fig. 12 shape run to completion. For vanilla and daredevil: one YCSB-A cell (kvsim, 200k keys, 40k-block cache, 500-entry memtable, 2 700 ops) and one mailserver cell (2 000 ops), each beside 8 streaming 128 KiB QD32 T-tenants. Two of the T-tenants flag 10 % of their reads sync. No blk-switch: when its apps finish depends on the seed, and its host time with it (21 % spread across ten seeds). | The only workload with writes (WAL, flush and compaction bursts) beside reads. The sync-flagged T reads take troute's outlier paths on daredevil: the tagged outlier NSQ and the per-request query. Host time depends on when the app finishes, which differs by stack. |
//! | `hostile` | Two cells for each of the four stacks, both with every fault class on, an ionice storm every 1 ms and a migrate storm every 2 ms. Mixed: 4 L + 8 T tenants, the default fault schedule, 4 s measured. L-only: the 4 L-tenants alone, the aggressive fault schedule, 2 s measured. | Faults turn off the burst-fetch pipeline, so the device fetches one command at a time. They drive polls of lost IRQs, troute reassignments, blk-switch steering and tenant migrations. The stall watchdog redrives a doorbell only when the fetch engine sits idle behind stalled NSQs. T pressure never lets that happen, so only the L-only cells redrive. |
//!
//! # End-to-end metrics
//!
//! From the untraced passes, each the median pass of the run;
//! `BENCHMARK.json` holds each bound. Every host time, here and among the
//! per-layer metrics, is *scaled*: a slice of a fixed reference kernel
//! runs before and after each cell, and the cell's times are divided by a
//! power of how much slower than nominal the slices ran, the power each
//! workload states (`calib.rs`, `workloads::sensitivity`). The scaled
//! times read as seconds on an unloaded 2 vCPU 2.1 GHz x86-64 host;
//! `host.slowdown` reports how much slower the slices ran.
//!
//! - `wall_s`: scaled host time for one pass.
//! - `setup_s`: scaled time in `FleetSpec::expand` plus `Machine::new_in`
//!   in one pass (so set-up is measured once per pass, many times a run).
//! - `ios_per_host_s`: simulated in-window I/O completions per scaled host
//!   second of one pass.
//! - `peak_heap_mib`: the most heap a pass's child process held at once.
//!   A counting global allocator measures it exactly (see `heap.rs`); the
//!   kernel's `VmHWM` of one seed's pass moved by up to 5 % from run to
//!   run. The reference slices do not count.
//!
//! Why scaled times: the 2-core shared host these bounds were set on runs
//! the simulator up to 2.5x slower while other tenants load it, for
//! seconds at a time and at times for many minutes, and a 20 s run cannot
//! wait that out. Unscaled, the fastest pass of a 20 s run spread by up to
//! 68 % over ten runs. The reference kernel slows with the host, so
//! scaling removes most of a slowdown however long it lasts.
//!
//! Why only these four: an end-to-end metric is compared across seeds,
//! and against the parent commit's median with a bound that is a share of
//! that median. So it must never read 0, and it must depend little on the
//! seed's inputs. `failed_frac` reads 0 on every passing run. It prints as
//! its own line and as `failed`/`attempted`, and any failure exits 1. The
//! simulated results do depend on the seed. Across ten seeds, the
//! daredevil L p99.9 on `fleet10k` spread by 21 % and its SLO-violation
//! share by 49 %. The SLO share also reads 0 on `hol` and `apps`, and the
//! app time reads 0 outside `apps`. So they are per-layer metrics
//! (`testbed.sim_*`). A change that only speeds up the simulator must
//! leave them identical, and the seed-42 digest check enforces that
//! exactly. Per-layer metrics have no bound, so they may read 0. Each one
//! prints on every workload. Its `on` list in [`CATALOGUE`] names the
//! workloads whose traffic reaches it. A unit test checks those lists at
//! 1/100 scale, and a run warns when such a metric reads 0.
//!
//! # Per-layer metrics and what they should move
//!
//! Layers are named after crates. Metrics marked (T) come from the traced
//! passes; the others from the untraced passes.
//!
//! - `host`: `slowdown`, the median over a pass's cells of how much slower
//!   than nominal the reference slices ran. Host times were divided by a
//!   power of it. No change to the simulator moves it.
//! - `testbed`: `expand_s` moves `setup_s` on `fleet10k`; `build_s` moves
//!   `setup_s`, most on `fleet10k` and `apps`; `run_s` and `ns_per_event`
//!   move `wall_s` and `ios_per_host_s` everywhere; `run_max_cell_s` (the
//!   slowest machine) bounds the `wall_s` of a parallel sweep on
//!   `fleet10k`; `harvest_s` (checks, accessor walks and digest over every
//!   `TenantView`) moves `wall_s` on `fleet10k`. The `sim_*` metrics are
//!   the daredevil cells' simulated results: L p99.9 (the worst cell or
//!   host; `apps`: the YCSB read p99.9), T throughput summed over cells,
//!   the share of L completions over the 2 ms SLO, and (`apps`) the
//!   simulated time until the apps finish, summed over both cells.
//! - Stacks: `vanilla.run_s`, `blkswitch.run_s`, `overprov.run_s`,
//!   `daredevil.run_s` and `virtio.run_s` (host run time of that stack's
//!   cells) move `wall_s`. blk-switch runs 2–3× slower than the others on
//!   `fleet10k`.
//! - `simkit`: `events` and `events_per_io` move `ios_per_host_s`;
//!   `arena_hit_frac` (`RunArena::stats`) moves `setup_s`;
//!   `cap_grew_cells` (machines whose `cap_warmup != cap_end`; a count,
//!   not a failure) moves `peak_heap_mib` on `hostile`, and on `hol`, whose
//!   daredevil cell grows late in its full-length window; (T)
//!   `trace_overhead_frac` (traced ÷ untraced ns per event − 1, pass
//!   pair by pass pair on the same 1/10-scale work) moves nothing, because
//!   end-to-end passes run untraced.
//! - `cpu`: `busy_frac_mean` and `busy_frac_max` over the core pool move
//!   `testbed.sim_l_p999_us` on `apps` and `hostile`.
//! - `nvme`: `flash_queue_delay_us` moves `testbed.sim_t_mbps` on `hol`;
//!   `irq_raised` moves `testbed.ns_per_event`; (T) `nsq_wait_p50_us` and
//!   `nsq_wait_p999_us` (daredevil L spans, Submit to DeviceFetch) move
//!   `testbed.sim_l_p999_us` on `hol`; (T) `service_p999_us` (DeviceFetch
//!   to FlashDone) and `delivery_p999_us` (FlashDone to Complete) move it
//!   on `hostile`.
//! - `blkstack`: `rqs_per_doorbell` moves `testbed.sim_t_mbps` and
//!   `ios_per_host_s` on `hol`; `lock_contended_frac` and
//!   `remote_completion_frac` move `testbed.sim_l_p999_us` on `hol`;
//!   `watchdog_redrives` moves `testbed.sim_slo_viol_pct` on `hostile`.
//!   Without redrives, a request on a stalled NSQ of an L-only cell still
//!   waits after the stall ends, until another doorbell wakes the idle
//!   fetch engine.
//! - `blkswitch`: `steering_actions` moves `blkswitch.run_s` on `fleet10k`
//!   and `hostile`.
//! - `core`: `outlier_frac` (outlier-NSQ routes over all routes) and
//!   `per_request_queries` move `testbed.sim_l_p999_us` on `apps`, where
//!   sync-flagged T reads share the high-priority NSQs with the app;
//!   `reassignments` moves `daredevil.run_s` on `hostile`.
//! - `fault`: `injected` and `recovered` (polls plus redrives) move
//!   `testbed.sim_slo_viol_pct` and `wall_s` on `hostile`.
//! - `workload`: `app_ops` moves `testbed.sim_app_s`; `fio_next_io_ns` and
//!   `arrival_gap_ns` move `testbed.ns_per_event` on `hol` and `fleet10k`.
//!   Both time standalone replays of the public `FioJob::next_io` and
//!   `ArrivalModel::mean_gap`, as many calls per job shape as the pass's
//!   tenants issued I/Os.
//! - `metrics`: (T) `span_build_ns_per_event` (`SpanTable::build`).
//!
//! # Checks
//!
//! A cell run fails when a tenant completed more I/Os than it issued, a
//! tenant class has no completions in the window, the stack completed more
//! requests than it submitted, a traced pass dropped spans, or the cell's
//! digest (`FleetOutput::digest` over its machines) differs: between
//! passes of the same scale, between a traced pass and the untraced ones
//! of its scale, or, at seed 42, from the digest recorded below.
//!
//! # Out of scope
//!
//! - The 50k-IOPS overload fleet: host 0's backlog grows and host time
//!   grows faster than the window.
//! - Parallel sweep speedup: a 2-core shared host cannot measure it, so
//!   `--out` records it as `null`.
//! - Splitting host time inside `Machine::run_in`; that needs tracing
//!   inside the simulator.
//! - `fig12` and `ext_policy` never run their apps to completion, because
//!   `bench::scaled` overwrites the 120 s ceiling with the quick/full
//!   window inside `Sweep::run`. Fixing that changes goldens.
//! - Retiring `BENCH_sweep.json` and the 0.6× floor in `scripts/verify.sh`.

mod calib;
mod heap;
mod pass;
mod stats;
mod workloads;

#[cfg(test)]
mod json;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use pass::Pass;
use Kind::{EndToEnd, Layer, Traced};

/// Where a metric comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// End-to-end, from the untraced passes.
    EndToEnd,
    /// Per-layer, from the untraced passes.
    Layer,
    /// Per-layer, from the traced passes.
    Traced,
}

/// One reported metric.
struct MetricDef {
    name: &'static str,
    unit: &'static str,
    kind: Kind,
    /// The workloads whose traffic reaches the layer, so the metric reads
    /// nonzero there. Elsewhere it may read 0: per-layer metrics have no
    /// bound, and every metric prints on every workload.
    on: &'static [&'static str],
}

const fn def(
    name: &'static str,
    unit: &'static str,
    kind: Kind,
    on: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind,
        on,
    }
}

const ALL: &[&str] = &workloads::NAMES;
const HOL: &[&str] = &["hol"];
const FLEET: &[&str] = &["fleet10k"];
const APPS: &[&str] = &["apps"];
const HOSTILE: &[&str] = &["hostile"];
const FLEET_HOSTILE: &[&str] = &["fleet10k", "hostile"];
const HOL_HOSTILE: &[&str] = &["hol", "hostile"];
const NOT_APPS: &[&str] = &["hol", "fleet10k", "hostile"];

/// Every metric the benchmark reports, in print order. `BENCHMARK.json`
/// lists the same names (a unit test keeps the two in step, and another
/// checks each `on` list).
const CATALOGUE: &[MetricDef] = &[
    def("wall_s", "s", EndToEnd, ALL),
    def("setup_s", "s", EndToEnd, ALL),
    def("ios_per_host_s", "ios/s", EndToEnd, ALL),
    def("peak_heap_mib", "MiB", EndToEnd, ALL),
    def("host.slowdown", "ratio", Layer, ALL),
    def("testbed.sim_l_p999_us", "us", Layer, ALL),
    def("testbed.sim_t_mbps", "MB/s", Layer, ALL),
    def("testbed.sim_slo_viol_pct", "%", Layer, FLEET_HOSTILE),
    def("testbed.sim_app_s", "s", Layer, APPS),
    def("testbed.expand_s", "s", Layer, ALL),
    def("testbed.build_s", "s", Layer, ALL),
    def("testbed.run_s", "s", Layer, ALL),
    def("testbed.ns_per_event", "ns", Layer, ALL),
    def("testbed.run_max_cell_s", "s", Layer, ALL),
    def("testbed.harvest_s", "s", Layer, ALL),
    def("vanilla.run_s", "s", Layer, ALL),
    def("blkswitch.run_s", "s", Layer, NOT_APPS),
    def("overprov.run_s", "s", Layer, NOT_APPS),
    def("daredevil.run_s", "s", Layer, ALL),
    def("virtio.run_s", "s", Layer, HOL),
    def("simkit.events", "count", Layer, ALL),
    def("simkit.events_per_io", "ratio", Layer, ALL),
    def("simkit.arena_hit_frac", "ratio", Layer, ALL),
    def("simkit.cap_grew_cells", "count", Layer, HOSTILE),
    def("simkit.trace_overhead_frac", "ratio", Traced, ALL),
    def("cpu.busy_frac_mean", "ratio", Layer, ALL),
    def("cpu.busy_frac_max", "ratio", Layer, ALL),
    def("nvme.flash_queue_delay_us", "us", Layer, ALL),
    def("nvme.irq_raised", "count", Layer, ALL),
    def("nvme.nsq_wait_p50_us", "us", Traced, ALL),
    def("nvme.nsq_wait_p999_us", "us", Traced, ALL),
    def("nvme.service_p999_us", "us", Traced, ALL),
    def("nvme.delivery_p999_us", "us", Traced, ALL),
    def("blkstack.rqs_per_doorbell", "ratio", Layer, ALL),
    def("blkstack.lock_contended_frac", "ratio", Layer, HOL_HOSTILE),
    def("blkstack.remote_completion_frac", "ratio", Layer, ALL),
    def("blkstack.watchdog_redrives", "count", Layer, HOSTILE),
    def("blkswitch.steering_actions", "count", Layer, NOT_APPS),
    def("core.outlier_frac", "ratio", Layer, APPS),
    def("core.per_request_queries", "count", Layer, APPS),
    def("core.reassignments", "count", Layer, HOSTILE),
    def("fault.injected", "count", Layer, HOSTILE),
    def("fault.recovered", "count", Layer, HOSTILE),
    def("workload.app_ops", "count", Layer, APPS),
    def("workload.fio_next_io_ns", "ns", Layer, ALL),
    def("workload.arrival_gap_ns", "ns", Layer, FLEET),
    def("metrics.span_build_ns_per_event", "ns", Traced, ALL),
];

/// The seed the recorded digests below belong to.
const DEFAULT_SEED: u64 = 42;

/// Per-cell output digests of every workload at [`DEFAULT_SEED`] and full
/// scale, in cell order. A run at that seed whose digests differ has
/// changed the simulated behaviour.
const RECORDED_DIGESTS: [(&str, &[u64]); 4] = [
    (
        "hol",
        &[
            10849736654184081284,
            2632132666710866588,
            15594231111949880402,
            14209166687664524238,
            4852359122807579331,
        ],
    ),
    (
        "fleet10k",
        &[
            16035539846476105551,
            4024728487257604807,
            17054929644537870283,
            7714746492992784463,
        ],
    ),
    (
        "apps",
        &[
            2637854867672042289,
            3853230364242053718,
            16983018668904625537,
            13432468647420372906,
        ],
    ),
    (
        "hostile",
        &[
            5342340964113463953,
            9341130171175046266,
            18090408608184629441,
            13883253047106380561,
            3638882506955926169,
            7253417315168220690,
            5243119679754084960,
            4261897477703309709,
        ],
    ),
];

/// Untraced passes a workload runs however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// The traced passes cut warm-up, measured windows and app op counts by
/// this.
const TRACED_DIV: u32 = 10;
/// Untraced/traced pass pairs at 1/[`TRACED_DIV`] scale a workload runs
/// when per-layer metrics are wanted.
const TRACED_PAIRS: usize = 3;
/// Trace ring per machine in the traced pass, in events; large enough
/// that no workload wraps it (a wrap is a failed check).
const TRACE_CAP: usize = 1 << 22;

const USAGE: &str = "usage: ddbench [--workload hol|fleet10k|apps|hostile] [--seed N] \
[--seconds S] [--trace 0|1] [--out PATH]";

/// Parsed command line.
struct Opts {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end metrics only; `Some(true)`: per-layer
    /// metrics only; `None`: both.
    trace: Option<bool>,
    out: Option<String>,
    /// Internal: run one pass in this process.
    pass: Option<Mode>,
}

/// What a pass runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// Full scale, untraced: the end-to-end and untraced per-layer metrics.
    Plain,
    /// Cut to 1/[`TRACED_DIV`], untraced: the reference the traced pass's
    /// cost and output are compared against.
    Small,
    /// Cut to 1/[`TRACED_DIV`], every span phase traced.
    Traced,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Plain, Mode::Small, Mode::Traced];

    fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Small => "small",
            Mode::Traced => "traced",
        }
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: workloads::NAMES.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: None,
        out: None,
        pass: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = workloads::NAMES
                    .iter()
                    .find(|n| *n == val)
                    .ok_or_else(|| format!("unknown workload {val}"))?;
                o.workloads = vec![w];
            }
            "--seed" => o.seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => {
                o.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {val}"))?
            }
            "--trace" => {
                o.trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {val}")),
                })
            }
            "--out" => o.out = Some(val.clone()),
            "--pass" => {
                let m = Mode::ALL.into_iter().find(|m| m.name() == val);
                o.pass = Some(m.ok_or_else(|| format!("bad pass {val}"))?);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

/// Child mode: one pass of one workload, printed as `metric`, `digest`
/// and `fail` lines for the parent.
fn child(workload: &str, seed: u64, mode: Mode) -> ExitCode {
    let (div, trace) = match mode {
        Mode::Plain => (1, None),
        Mode::Small => (TRACED_DIV, None),
        Mode::Traced => (TRACED_DIV, Some(simkit::TraceSpec::all(TRACE_CAP))),
    };
    let cells = workloads::cells(workload, seed, div, trace).expect("workload validated by parse");
    let p = pass::run(cells, trace.is_some(), workloads::sensitivity(workload));
    let mut s = String::new();
    for (name, v) in &p.metrics {
        let _ = writeln!(s, "metric {name} {v}");
    }
    for (i, d) in p.digests.iter().enumerate() {
        let _ = writeln!(s, "digest {i} {d}");
    }
    for (i, why) in &p.failures {
        let _ = writeln!(s, "fail {i} {why}");
    }
    print!("{s}");
    ExitCode::SUCCESS
}

/// Runs one pass in a fresh child process (cold arena, own heap peak).
fn spawn_pass(workload: &str, seed: u64, mode: Mode) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mode = mode.name();
    let out = Command::new(exe)
        .args([
            "--pass",
            mode,
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} {mode} pass exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut p = Pass {
        metrics: BTreeMap::new(),
        digests: Vec::new(),
        failures: Vec::new(),
    };
    for line in text.lines() {
        let mut f = line.splitn(3, ' ');
        let bad = || format!("unreadable pass line: {line}");
        match (f.next(), f.next(), f.next()) {
            (Some("metric"), Some(name), Some(v)) => {
                let d = CATALOGUE.iter().find(|d| d.name == name).ok_or_else(bad)?;
                p.metrics.insert(d.name, v.parse().map_err(|_| bad())?);
            }
            (Some("digest"), Some(_), Some(v)) => p.digests.push(v.parse().map_err(|_| bad())?),
            (Some("fail"), Some(i), Some(why)) => p
                .failures
                .push((i.parse().map_err(|_| bad())?, why.to_string())),
            _ => return Err(bad()),
        }
    }
    Ok(p)
}

/// One printed metric of one workload: the quartiles of its passes. The
/// median is the reported value.
struct Row {
    def: &'static MetricDef,
    q1: f64,
    median: f64,
    q3: f64,
    n: usize,
}

/// Everything measured for one workload.
struct WorkloadResult {
    name: &'static str,
    rows: Vec<Row>,
    attempted: u64,
    failed: u64,
    digests: Vec<u64>,
}

/// Runs untraced passes of `name` until `seconds` are spent (at least
/// [`MIN_PASSES`]), then, if per-layer metrics are wanted,
/// [`TRACED_PAIRS`] pairs of small untraced and traced passes, and checks
/// every pass's outputs.
fn measure(name: &'static str, o: &Opts) -> Result<WorkloadResult, String> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut took: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        passes.push(spawn_pass(name, o.seed, Mode::Plain)?);
        took.push(t.elapsed().as_secs_f64());
        let next_end = start.elapsed().as_secs_f64() + stats::quartiles(&took).1;
        if passes.len() >= MIN_PASSES && next_end > o.seconds {
            break;
        }
    }
    let (mut small, mut traced) = (Vec::new(), Vec::new());
    if o.trace != Some(false) {
        for _ in 0..TRACED_PAIRS {
            small.push(spawn_pass(name, o.seed, Mode::Small)?);
            traced.push(spawn_pass(name, o.seed, Mode::Traced)?);
        }
    }

    let reference = passes[0].digests.clone();
    let small_ref = small.first().map_or(Vec::new(), |p| p.digests.clone());
    let labels: Vec<String> = workloads::cells(name, o.seed, 1, None)
        .into_iter()
        .flatten()
        .map(|c| c.label)
        .collect();
    let recorded = (o.seed == DEFAULT_SEED).then(|| {
        RECORDED_DIGESTS
            .iter()
            .find(|(w, _)| *w == name)
            .map_or(&[][..], |(_, d)| *d)
    });
    // Each pass with the digests it must repeat, and what a mismatch means.
    let checked = passes
        .iter()
        .map(|p| (p, &reference, "between repeats", recorded))
        .chain(
            small
                .iter()
                .map(|p| (p, &small_ref, "between 1/10-scale repeats", None)),
        )
        .chain(
            traced
                .iter()
                .map(|p| (p, &small_ref, "with tracing on", None)),
        );
    let mut reasons: BTreeMap<String, u64> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (p, expected, what, recorded) in checked {
        for cell in 0..reference.len() {
            attempted += 1;
            let mut why: Vec<String> = p
                .failures
                .iter()
                .filter(|(i, _)| *i == cell)
                .map(|(_, w)| w.clone())
                .collect();
            if p.digests.get(cell) != expected.get(cell) {
                why.push(format!("digest differs {what}"));
            }
            if recorded.is_some_and(|r| r.get(cell) != p.digests.get(cell)) {
                why.push(format!(
                    "digest differs from the one recorded for seed {DEFAULT_SEED}"
                ));
            }
            failed += u64::from(!why.is_empty());
            for w in why {
                let label = labels.get(cell).map_or("?", String::as_str);
                *reasons.entry(format!("cell {label}: {w}")).or_default() += 1;
            }
        }
    }
    for (why, n) in &reasons {
        eprintln!("ddbench: {name}: {why} ({n}x)");
    }

    let ns_per_event = |p: &Pass| p.metrics.get("testbed.ns_per_event").copied();
    let mut rows = Vec::new();
    for d in CATALOGUE {
        let values: Vec<f64> = match d.kind {
            EndToEnd | Layer => passes
                .iter()
                .filter_map(|p| p.metrics.get(d.name).copied())
                .collect(),
            Traced if traced.is_empty() => continue,
            // Tracing's cost: traced against untraced host time per event,
            // pass by pass, on the same 1/10-scale work.
            Traced if d.name == "simkit.trace_overhead_frac" => small
                .iter()
                .zip(&traced)
                .filter_map(|(s, t)| Some(ns_per_event(t)? / ns_per_event(s)? - 1.0))
                .collect(),
            Traced => traced
                .iter()
                .filter_map(|t| t.metrics.get(d.name).copied())
                .collect(),
        };
        if values.is_empty() {
            return Err(format!("{name}: no values for {}", d.name));
        }
        let (q1, median, q3) = stats::quartiles(&values);
        if median == 0.0 && d.on.contains(&name) {
            eprintln!(
                "ddbench: {name}: {} reads 0; the workload no longer reaches it",
                d.name
            );
        }
        rows.push(Row {
            def: d,
            q1,
            median,
            q3,
            n: values.len(),
        });
    }
    Ok(WorkloadResult {
        name,
        rows,
        attempted,
        failed,
        digests: reference,
    })
}

/// Whether a metric is reported under the `--trace` selection.
fn wanted(d: &MetricDef, trace: Option<bool>) -> bool {
    match trace {
        Some(false) => d.kind == EndToEnd,
        Some(true) => d.kind != EndToEnd,
        None => true,
    }
}

/// A JSON number; non-finite values (never expected) become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The `--out` document: every workload's rows with quartiles, checks and
/// digests.
fn report_json(o: &Opts, results: &[WorkloadResult]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"available_parallelism\": {cores}, \
         \"parallel_speedup\": null, \"workloads\": {{",
        o.seed,
        num(o.seconds)
    );
    for (i, r) in results.iter().enumerate() {
        let digests: Vec<String> = r.digests.iter().map(|d| format!("\"{d}\"")).collect();
        let _ = write!(
            s,
            "{}\n  \"{}\": {{\"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \
             \"digests\": [{}], \"metrics\": {{",
            if i == 0 { "" } else { "," },
            r.name,
            r.attempted,
            r.failed,
            num(r.failed as f64 / r.attempted.max(1) as f64),
            digests.join(", ")
        );
        for (j, row) in r
            .rows
            .iter()
            .filter(|row| wanted(row.def, o.trace))
            .enumerate()
        {
            let _ = write!(
                s,
                "{}\n    \"{}\": {{\"unit\": \"{}\", \"q1\": {}, \"median\": {}, \"q3\": {}, \"n\": {}}}",
                if j == 0 { "" } else { "," },
                row.def.name,
                row.def.unit,
                num(row.q1),
                num(row.median),
                num(row.q3),
                row.n
            );
        }
        s.push_str("}}");
    }
    s.push_str("}}\n");
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ddbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(mode) = o.pass {
        return child(o.workloads[0], o.seed, mode);
    }

    let mut results = Vec::new();
    for &w in &o.workloads {
        match measure(w, &o) {
            Ok(r) => {
                for row in r.rows.iter().filter(|row| wanted(row.def, o.trace)) {
                    println!(
                        "{w} {} {} {} {} {} {}",
                        row.def.name, row.median, row.def.unit, row.q1, row.q3, row.n
                    );
                }
                let frac = r.failed as f64 / r.attempted.max(1) as f64;
                println!("{w} failed_frac {frac} ratio {frac} {frac} {}", r.attempted);
                results.push(r);
            }
            Err(e) => {
                eprintln!("ddbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &o.out {
        if let Err(e) = std::fs::write(path, report_json(&o, &results)) {
            eprintln!("ddbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let single = results.len() == 1;
    let mut metrics = Vec::new();
    for r in &results {
        for row in r.rows.iter().filter(|row| wanted(row.def, o.trace)) {
            let key = if single {
                row.def.name.to_string()
            } else {
                format!("{}.{}", r.name, row.def.name)
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(row.median),
                row.def.unit
            ));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload with warm-up, windows and app op counts cut to 1/100
    /// passes the output checks and repeats its digests exactly, with
    /// tracing on too; its traced pass keeps the whole trace; and every
    /// per-layer metric reads nonzero on the workloads its `on` list names.
    #[test]
    fn every_workload_passes_checks_and_repeats() {
        let mut silent = Vec::new();
        for w in workloads::NAMES {
            let run = |trace| {
                pass::run(
                    workloads::cells(w, 7, 100, trace).expect("known workload"),
                    trace.is_some(),
                    workloads::sensitivity(w),
                )
            };
            let a = run(None);
            let b = run(None);
            assert!(a.failures.is_empty(), "{w}: {:?}", a.failures);
            assert!(!a.digests.is_empty(), "{w}: no cells");
            assert_eq!(a.digests, b.digests, "{w}: digests differ between repeats");
            let t = run(Some(simkit::TraceSpec::all(TRACE_CAP)));
            assert!(t.failures.is_empty(), "{w} traced: {:?}", t.failures);
            assert_eq!(t.digests, a.digests, "{w}: tracing changed the output");
            for d in CATALOGUE {
                if d.name == "simkit.trace_overhead_frac" {
                    continue;
                }
                let from = if d.kind == Kind::Traced { &t } else { &a };
                let v = from.metrics.get(d.name);
                assert!(v.is_some(), "{w}: pass lacks {}", d.name);
                if d.on.contains(&w) && v == Some(&0.0) {
                    silent.push(format!("{w}: {}", d.name));
                }
            }
        }
        assert!(
            silent.is_empty(),
            "read 0 where `on` expects traffic: {silent:?}"
        );
    }

    /// Every metric's `on` list names known workloads, and every per-layer
    /// metric reaches at least one.
    #[test]
    fn every_metric_applies_somewhere() {
        for d in CATALOGUE {
            assert!(!d.on.is_empty(), "{} applies nowhere", d.name);
            for w in d.on {
                assert!(
                    workloads::NAMES.contains(w),
                    "{}: unknown workload {w}",
                    d.name
                );
            }
        }
    }

    /// The package builds with the root manifest's release profile, so the
    /// benchmark measures the code the figure binaries run.
    #[test]
    fn release_profile_matches_root() {
        let section = |path: &str| -> Vec<String> {
            let text = std::fs::read_to_string(path).expect("manifest");
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
                .filter(|l| !l.is_empty())
                .collect()
        };
        let ours = section(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let root = section(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(!root.is_empty(), "root manifest has no release profile");
        assert_eq!(ours, root);
    }

    /// The catalogue and `BENCHMARK.json` name the same metrics with the
    /// same units, and every name is a plain identifier.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| {
                        m.get(f)
                            .and_then(|v| v.as_str())
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |keep: fn(Kind) -> bool| -> Vec<(String, String)> {
            CATALOGUE
                .iter()
                .filter(|d| keep(d.kind))
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(|k| k == Kind::EndToEnd));
        assert_eq!(listed("per_layer"), ours(|k| k != Kind::EndToEnd));
        for d in CATALOGUE {
            assert!(
                d.name
                    .bytes()
                    .all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(&c)),
                "bad metric name {}",
                d.name
            );
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(names, workloads::NAMES);
    }

    #[test]
    fn parse_rejects_bad_flags() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--bogus 1")).is_err());
        assert!(parse(&args("--pass bogus")).is_err());
        let o = parse(&args("--workload apps --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (o.workloads, o.seed, o.seconds, o.trace),
            (vec!["apps"], 9, 3.0, Some(true))
        );
    }
}
