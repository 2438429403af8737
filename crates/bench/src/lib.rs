//! Shared machinery of the figure/table harness.
//!
//! Every module in [`figures`] regenerates one artifact of the paper's
//! evaluation (see DESIGN.md §3 for the index), and the one binary,
//! `figures [NAME...]`, runs them by name from [`figures::FIGURES`]. They
//! share:
//!
//! * [`cli::Opts`] — the one command line: figure names, `--quick`,
//!   `--csv`, `--jobs N`, `--seed N`, and the span-trace flags
//!   (`--trace [PHASES]`, `--trace-out PATH`, `--trace-cap N`), with
//!   unknown flags and names exiting 2 with usage;
//! * duration presets and the T-pressure stages of §7.1;
//! * [`sweep::Sweep`] — the deterministic parallel sweep executor every
//!   figure module runs its cells on;
//! * [`run`] / [`latency_row`] helpers turning a scenario into the table
//!   columns the paper reports (p99.9, average latency, L-IOPS,
//!   T-throughput).

#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod sweep;

use dd_metrics::table::{fmt_f, fmt_ms};
use simkit::TraceSpec;
use testbed::{RunOutput, Scenario};

pub use cli::Opts;
pub use sweep::{Sweep, SweepResults, SweepStats};

/// Applies the shared durations — and, when `--trace`/`--seed` were
/// given, the trace spec and seed override — to a scenario. An explicit
/// `--trace` replaces a scenario's own trace configuration (so the CSV
/// contains exactly the phases the user asked for); without it, the
/// scenario's configuration (usually off) stands.
pub fn scaled(opts: &Opts, mut s: Scenario) -> Scenario {
    s.knobs.warmup = opts.warmup();
    s.knobs.measure = opts.measure();
    if let Some(seed) = opts.seed {
        s.knobs.seed = seed;
    }
    if let Some(mask) = opts.trace {
        s.knobs.trace = Some(TraceSpec {
            cap: opts.trace_cap,
            mask,
        });
    }
    if let Some(spec) = opts.fault_spec() {
        s.knobs.faults = Some(spec);
    }
    if let Some(policy) = opts.policy {
        s.knobs.policy = Some(policy);
    }
    s
}

/// Runs one scenario serially and returns its output (panicking on invalid
/// scenarios — the figures are the test matrix, failing loudly is
/// correct). Sweeps of independent cells should use [`Sweep`] instead.
pub fn run(opts: &Opts, s: Scenario) -> RunOutput {
    let s = scaled(opts, s);
    let name = s.name.clone();
    let out = testbed::run(s);
    sweep::record_run(&out);
    cli::dump_cell_trace(opts, &name, &out);
    out
}

/// The standard measurement columns of the paper's latency figures.
pub fn latency_row(stage: impl ToString, out: &RunOutput) -> Vec<String> {
    vec![
        stage.to_string(),
        out.summary.stack.clone(),
        fmt_ms(out.summary.class("L").latency.p999()),
        fmt_ms(out.summary.class("L").latency.mean()),
        fmt_f(out.l_kiops()),
        fmt_f(out.t_mbps()),
        fmt_f(out.summary.avg_cpu_util() * 100.0),
    ]
}

/// Header matching [`latency_row`].
pub const LATENCY_HEADER: [&str; 7] = [
    "stage",
    "stack",
    "L p99.9 (ms)",
    "L avg (ms)",
    "L kIOPS",
    "T MB/s",
    "cpu %",
];
