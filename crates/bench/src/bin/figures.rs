//! `figures [NAME...] [FLAGS]` — regenerates the named tables and figures
//! of the paper (see `bench::figures::FIGURES`), or with no name the
//! default sweep, table1 through ext_breakdown. Flags: `bench::cli`.
//!
//! When `DD_BENCH_SWEEP` names a path, it then writes the harness's own
//! performance artifact there (`BENCH_sweep.json` in the repo):
//! wall-clock, runs, and simulation events/s per figure, plus the sweep
//! worker count, per-figure speedup over a serial baseline, and
//! (optionally) a per-jobs speedup curve from a fixed probe sweep.
//! Speedups the host cannot measure (a single-core host, or a figure that
//! ran no cells) are written as `null`.
//!
//! Environment (all read only when `DD_BENCH_SWEEP` is set):
//!
//! * `DD_BASELINE_WALL_S` — a serial (`--jobs 1`) wall-clock measurement
//!   in seconds; when present the artifact records `speedup_vs_serial`
//!   (used by `scripts/verify.sh`);
//! * `DD_BASELINE_ARTIFACT` — path to a previously written serial
//!   artifact; when present each figure entry also records its own
//!   `speedup_vs_serial` against the matching figure's serial wall-clock;
//! * `DD_BENCH_CURVE` — comma-separated worker counts (e.g. `1,2,4`);
//!   when present the artifact gains a `speedup_curve` array measured on
//!   a fixed probe sweep re-run once per worker count (the figures
//!   themselves are not re-run).
//!
//! Tables go to stdout only; timing chatter goes to stderr so stdout
//! stays byte-identical across `--jobs` values.

use std::time::Instant;

use bench::figures::{Figure, FIGURES};
use testbed::scenario::{MachinePreset, Scenario, StackSpec};

struct FigStat {
    name: &'static str,
    wall_s: f64,
    runs: u64,
    events: u64,
}

impl FigStat {
    fn events_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// One point of the per-jobs speedup curve.
struct CurvePoint {
    jobs: usize,
    wall_s: f64,
    events: u64,
}

fn main() {
    let opts = bench::Opts::from_args();
    let figures: Vec<&Figure> = if opts.figures.is_empty() {
        FIGURES.iter().filter(|f| f.in_sweep).collect()
    } else {
        opts.figures.clone()
    };

    let started = Instant::now();
    let mut stats = Vec::with_capacity(figures.len());
    for fig in figures {
        let (runs0, events0) = bench::sweep::counters();
        let t0 = Instant::now();
        (fig.run)(&opts);
        let (runs1, events1) = bench::sweep::counters();
        stats.push(FigStat {
            name: fig.name,
            wall_s: t0.elapsed().as_secs_f64(),
            runs: runs1 - runs0,
            events: events1 - events0,
        });
    }
    let total_wall_s = started.elapsed().as_secs_f64();
    let Ok(path) = std::env::var("DD_BENCH_SWEEP") else {
        return;
    };
    // The curve runs *after* the figure timings are frozen, so its extra
    // probe work never pollutes the per-figure numbers above.
    let curve = measure_curve();
    let fleet = measure_fleet_probe();
    write_artifact(&path, &opts, total_wall_s, &stats, &curve, &fleet);
}

/// T-pressure stages of the fixed probe sweep (also recorded in the
/// artifact's `curve_probe` block so consumers know the cell geometry).
const PROBE_T_STAGES: [u16; 4] = [1, 4, 8, 16];

/// Stacks of the fixed probe sweep.
fn probe_stacks() -> [StackSpec; 3] {
    [
        StackSpec::vanilla(),
        StackSpec::blk_switch(),
        StackSpec::daredevil(),
    ]
}

/// The fixed probe sweep used for the per-jobs curve: 3 stacks × 4
/// T-pressure stages at quick scale — big enough (12 cells) to keep 4
/// workers busy, small enough to re-run per worker count.
fn probe_sweep() -> bench::Sweep {
    let mut sweep = bench::Sweep::new();
    for nr_t in PROBE_T_STAGES {
        for stack in probe_stacks() {
            sweep.add(
                format!("T={nr_t}"),
                Scenario::multi_tenant_fio(stack, 4, nr_t, 4, MachinePreset::SvM),
            );
        }
    }
    sweep
}

/// Runs the probe sweep once per `DD_BENCH_CURVE` worker count and
/// returns wall-clock per point (empty when the variable is unset).
/// Results are discarded; only timing is kept. Prints nothing to stdout.
fn measure_curve() -> Vec<CurvePoint> {
    let Ok(spec) = std::env::var("DD_BENCH_CURVE") else {
        return Vec::new();
    };
    let jobs_list: Vec<usize> = spec
        .split(',')
        .filter_map(|j| j.trim().parse().ok())
        .filter(|&j| j >= 1)
        .collect();
    let mut curve = Vec::with_capacity(jobs_list.len());
    for jobs in jobs_list {
        let o = bench::Opts::new(true, false, jobs);
        let t0 = Instant::now();
        let results = probe_sweep().run_with_jobs(&o, jobs);
        let stats = results.stats();
        curve.push(CurvePoint {
            jobs,
            wall_s: t0.elapsed().as_secs_f64(),
            events: stats.events,
        });
        eprintln!(
            "figures: curve probe jobs={jobs}: {:.3}s, {} events",
            curve.last().expect("just pushed").wall_s,
            stats.events
        );
    }
    curve
}

/// One point of the fleet-scale throughput probe.
struct FleetPoint {
    tenants: u32,
    wall_s: f64,
    events: u64,
}

/// Runs the fleet probe (when `DD_FLEET_PROBE` is set): one serial
/// `testbed::run_fleet` of the ext_fleet daredevil cell at 1k and 10k
/// tenants, quick durations, timing events/s at each tenancy scale. The
/// simulated work per tenant shrinks with scale (the Zipfian shares thin
/// out), so the pair bounds the per-tenant bookkeeping overhead — the
/// number `scripts/verify.sh` prints alongside the sweep throughput.
fn measure_fleet_probe() -> Vec<FleetPoint> {
    if std::env::var("DD_FLEET_PROBE").is_err() {
        return Vec::new();
    }
    let opts = bench::Opts::new(true, false, 1);
    let mut arena = testbed::RunArena::new();
    let mut points = Vec::with_capacity(2);
    for tenants in [1_000, 10_000] {
        let mut spec =
            bench::figures::ext_fleet::fleet_spec(&opts, tenants, 20_000.0, StackSpec::daredevil());
        spec.knobs.warmup = opts.warmup();
        spec.knobs.measure = opts.measure();
        let t0 = Instant::now();
        let out = testbed::run_fleet(&spec, &mut arena);
        points.push(FleetPoint {
            tenants,
            wall_s: t0.elapsed().as_secs_f64(),
            events: out.events_processed(),
        });
        eprintln!(
            "figures: fleet probe {tenants} tenants: {:.3}s, {} events",
            points.last().expect("just pushed").wall_s,
            out.events_processed()
        );
    }
    points
}

/// Pulls `(name, wall_s)` pairs out of a previously written artifact (the
/// flat schema this binary emits — parsed with string ops, not a JSON
/// library, because the workspace is dependency-free).
fn baseline_figure_walls() -> Vec<(String, f64)> {
    let Ok(path) = std::env::var("DD_BASELINE_ARTIFACT") else {
        return Vec::new();
    };
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!("figures: cannot read DD_BASELINE_ARTIFACT {path}; skipping per-figure speedups");
        return Vec::new();
    };
    let mut walls = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim_start().strip_prefix("{\"name\": \"") else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(rest) = rest.split_once("\"wall_s\": ").map(|(_, r)| r) else {
            continue;
        };
        let wall: f64 = rest
            .split(',')
            .next()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0);
        if wall > 0.0 {
            walls.push((name.to_string(), wall));
        }
    }
    walls
}

/// Writes the JSON artifact by hand (the repo is dependency-free; the
/// schema is flat enough that a serializer would be overkill).
fn write_artifact(
    path: &str,
    opts: &bench::Opts,
    total_wall_s: f64,
    stats: &[FigStat],
    curve: &[CurvePoint],
    fleet: &[FleetPoint],
) {
    let baseline: Option<f64> = std::env::var("DD_BASELINE_WALL_S")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|s: &f64| *s > 0.0);
    let fig_walls = baseline_figure_walls();
    let total_runs: u64 = stats.iter().map(|f| f.runs).sum();
    let total_events: u64 = stats.iter().map(|f| f.events).sum();
    let events_per_s = if total_wall_s > 0.0 {
        total_events as f64 / total_wall_s
    } else {
        0.0
    };

    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"jobs\": {},\n", opts.jobs));
    s.push_str(&format!("  \"quick\": {},\n", opts.quick));
    // Host parallelism at measurement time: events/s numbers from a
    // shared/throttled container are not comparable to a dedicated host,
    // so the artifact records what the machine offered.
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    s.push_str(&format!("  \"available_parallelism\": {parallelism},\n"));
    // A single-core host cannot speed anything up: its ratios are noise.
    let speedup = |base_s: f64, wall_s: f64| {
        if parallelism > 1 {
            format!("{:.3}", base_s / wall_s.max(1e-9))
        } else {
            "null".to_string()
        }
    };
    s.push_str(&format!("  \"total_wall_s\": {total_wall_s:.6},\n"));
    s.push_str(&format!("  \"total_runs\": {total_runs},\n"));
    s.push_str(&format!("  \"total_events\": {total_events},\n"));
    s.push_str(&format!("  \"events_per_s\": {events_per_s:.1},\n"));
    if let Some(base) = baseline {
        s.push_str(&format!("  \"baseline_wall_s\": {base:.6},\n"));
        s.push_str(&format!(
            "  \"speedup_vs_serial\": {},\n",
            speedup(base, total_wall_s)
        ));
    }
    if !curve.is_empty() {
        // Cell geometry of the probe the curve was measured on, so the
        // artifact is self-describing: jobs beyond the cell count cannot
        // speed the probe up further.
        let stacks: Vec<String> = probe_stacks()
            .iter()
            .map(|st| format!("\"{}\"", st.name()))
            .collect();
        let stages: Vec<String> = PROBE_T_STAGES.iter().map(|t| t.to_string()).collect();
        s.push_str(&format!(
            "  \"curve_probe\": {{\"cells\": {}, \"stacks\": [{}], \"t_stages\": [{}], \"preset\": \"SvM\"}},\n",
            probe_stacks().len() * PROBE_T_STAGES.len(),
            stacks.join(", "),
            stages.join(", "),
        ));
        // Speedups are relative to the curve's own jobs=1 point (or its
        // first point when 1 was not requested) — same probe, same host,
        // so the ratio isolates worker scaling from figure composition.
        let base_wall = curve
            .iter()
            .find(|p| p.jobs == 1)
            .unwrap_or(&curve[0])
            .wall_s;
        s.push_str("  \"speedup_curve\": [\n");
        for (i, p) in curve.iter().enumerate() {
            let eps = if p.wall_s > 0.0 {
                p.events as f64 / p.wall_s
            } else {
                0.0
            };
            s.push_str(&format!(
                "    {{\"jobs\": {}, \"wall_s\": {:.6}, \"events_per_s\": {:.1}, \"speedup_vs_serial\": {}}}{}\n",
                p.jobs,
                p.wall_s,
                eps,
                speedup(base_wall, p.wall_s),
                if i + 1 < curve.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
    }
    if !fleet.is_empty() {
        // Fleet-tenancy throughput probe (DD_FLEET_PROBE): events/s of a
        // serial 4-host daredevil fleet at each tenancy scale. Nested one
        // level deeper than the top-level "events_per_s" so the
        // verify-script sed anchors keep matching only the sweep number.
        s.push_str("  \"fleet_probe\": [\n");
        for (i, p) in fleet.iter().enumerate() {
            let eps = if p.wall_s > 0.0 {
                p.events as f64 / p.wall_s
            } else {
                0.0
            };
            s.push_str(&format!(
                "    {{\"tenants\": {}, \"wall_s\": {:.6}, \"events\": {}, \"events_per_s\": {:.1}}}{}\n",
                p.tenants,
                p.wall_s,
                p.events,
                eps,
                if i + 1 < fleet.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
    }
    s.push_str("  \"figures\": [\n");
    for (i, f) in stats.iter().enumerate() {
        // A figure that ran no cells (table1) has no parallel work.
        let speedup_field = match fig_walls.iter().find(|(n, _)| n == f.name) {
            Some(&(_, base)) if f.runs > 0 => {
                format!(", \"speedup_vs_serial\": {}", speedup(base, f.wall_s))
            }
            Some(_) => ", \"speedup_vs_serial\": null".to_string(),
            None => String::new(),
        };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.6}, \"runs\": {}, \"events\": {}, \"events_per_s\": {:.1}{}}}{}\n",
            f.name,
            f.wall_s,
            f.runs,
            f.events,
            f.events_per_s(),
            speedup_field,
            if i + 1 < stats.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");

    match std::fs::write(path, &s) {
        Ok(()) => eprintln!(
            "figures: {total_runs} runs, {total_events} events in {total_wall_s:.2}s \
             (jobs={}) -> {path}",
            opts.jobs
        ),
        Err(e) => eprintln!("figures: cannot write {path}: {e}"),
    }
}
