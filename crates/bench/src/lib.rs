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
//!   figure module runs its cells on: each cell is added once with a key,
//!   and the outputs come back paired with their keys, in add order;
//! * [`scaled`], applying those options to a scenario, and
//!   [`latency_row`], turning a run into the table columns the paper
//!   reports (p99.9, average latency, L-IOPS, T-throughput), with
//!   [`latency_table`] running a whole sweep into those rows.

#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod sweep;

use std::fmt::Display;

use dd_metrics::table::{fmt_f, fmt_ms};
use dd_metrics::Table;
use simkit::TraceSpec;
use testbed::{RunOutput, Scenario};

pub use cli::Opts;
pub use sweep::Sweep;

/// Applies the shared durations — and, when `--seed`, `--trace`,
/// `--faults` or `--policy` were given, their overrides — to a scenario.
/// `--policy` rewrites the stack spec
/// ([`StackSpec::with_policy`](testbed::StackSpec::with_policy)). An
/// explicit `--trace` replaces a scenario's own trace configuration (so
/// the CSV contains exactly the phases the user asked for); without it,
/// the scenario's configuration (usually off) stands.
pub fn scaled(opts: &Opts, mut s: Scenario) -> Scenario {
    s.knobs.warmup = opts.warmup();
    // A run-to-completion cell's window is its ceiling: the apps end it.
    if !s.stop_when_apps_done {
        s.knobs.measure = opts.measure();
    }
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
        s.stack = s.stack.with_policy(policy);
    }
    s
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

/// Runs `sweep` and renders one [`latency_row`] per cell under
/// [`LATENCY_HEADER`], the cell's key in the stage column.
pub fn latency_table<K: Display>(opts: &Opts, title: &str, sweep: Sweep<K>) -> Table {
    let mut table = Table::new(title, &LATENCY_HEADER);
    for (stage, out) in sweep.run(opts) {
        table.row(&latency_row(stage, &out));
    }
    table
}
