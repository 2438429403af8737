//! Fig. 8 — performance over time on WS-M under high T-pressure.
//!
//! The paper plots average latency and aggregate throughput per time
//! bucket to expose blk-switch's fluctuation (failed cross-core steering
//! attempts) against Daredevil's steady line (§7.1).

use dd_metrics::table::fmt_f;
use dd_metrics::Table;
use simkit::SimDuration;
use testbed::scenario::{MachinePreset, Scenario};

use super::paper_stacks;
use crate::{Opts, Sweep};

/// Regenerates Fig. 8 (time series; one row per bucket per stack).
pub fn run_figure(opts: &Opts) {
    let nr_t = 16;
    let mut sweep = Sweep::new();
    for stack in paper_stacks() {
        let mut s = Scenario::multi_tenant_fio(stack, 4, nr_t, 4, MachinePreset::WsM);
        s.sample_width = if opts.quick {
            SimDuration::from_millis(10)
        } else {
            SimDuration::from_millis(50)
        };
        sweep.add((), s);
    }

    let mut table = Table::new(
        format!("Fig 8: WS-M over time (T={nr_t}); fluctuation = stddev/mean of bucket series"),
        &[
            "stack",
            "bucket avg-latency series (ms)",
            "lat fluct",
            "bucket throughput series (MB/s)",
            "tput fluct",
        ],
    );
    for ((), out) in sweep.run(opts) {
        // The figure plots L-tenant average latency and total throughput.
        let (lat_series, tput_series) = merged_series(&out);
        table.row(&[
            out.summary.stack.clone(),
            render_series(&lat_series, 1e6),
            fmt_f(fluctuation(&lat_series)),
            render_series(&tput_series, 1e6),
            fmt_f(fluctuation(&tput_series)),
        ]);
    }
    opts.emit(&table);
}

/// Extracts the L-class per-bucket average latency and the all-class
/// aggregate throughput (what the paper's Fig. 8 plots).
fn merged_series(out: &testbed::RunOutput) -> (Vec<f64>, Vec<f64>) {
    let lat: Vec<f64> = out
        .series
        .get("L")
        .map(|cs| cs.latency.means())
        .unwrap_or_default();
    let mut bytes: Vec<f64> = Vec::new();
    // Sort classes so the float summation order (and hence the rendered
    // bytes) is identical across processes — HashMap order is not.
    let mut classes: Vec<&str> = out.series.keys().copied().collect();
    classes.sort();
    for cs in classes.into_iter().map(|k| &out.series[k]) {
        let width_secs = cs.bytes.width().as_secs_f64();
        for (i, b) in cs.bytes.buckets().iter().enumerate() {
            if bytes.len() <= i {
                bytes.resize(i + 1, 0.0);
            }
            bytes[i] += b.sum as f64 / width_secs;
        }
    }
    (lat, bytes)
}

/// Coefficient of variation of a series (the fluctuation measure).
fn fluctuation(xs: &[f64]) -> f64 {
    let xs: Vec<f64> = xs.iter().copied().filter(|x| *x > 0.0).collect();
    if xs.len() < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    if mean > 0.0 {
        var.sqrt() / mean
    } else {
        0.0
    }
}

/// Renders a compact numeric series, scaled by `div`.
fn render_series(xs: &[f64], div: f64) -> String {
    xs.iter()
        .map(|x| format!("{:.1}", x / div))
        .collect::<Vec<_>>()
        .join(" ")
}
