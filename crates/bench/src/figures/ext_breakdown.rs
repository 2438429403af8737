//! Extension — where does the latency go? Per-phase decomposition of the
//! L-tenant's end-to-end latency under T-pressure.
//!
//! Every completed request's span is decomposed into: in-NSQ wait
//! (`Submit` → `DeviceFetch`), device service (`DeviceFetch` →
//! `FlashDone`), and completion delivery (`FlashDone` → `Complete`). The
//! table makes the paper's root-cause claim directly visible: vanilla's
//! inflation lives almost entirely in the in-NSQ wait — the head-of-line
//! blocking Daredevil's routing removes — while device service stays
//! comparable for everyone (the §8.1 residual).
//!
//! This figure is the proof-of-sufficiency for the structured trace API:
//! it carries *no* bespoke phase plumbing. Each scenario enables a
//! four-phase [`simkit::TraceSpec`] on the shared trace sink and the
//! table is computed from [`dd_metrics::SpanTable`] — exactly what any
//! other figure gets from the `--trace` flag.

use dd_metrics::span::Span;
use dd_metrics::table::fmt_f;
use dd_metrics::{SpanTable, Table};
use simkit::{Phase, SimTime, Sla, TraceSpec};
use testbed::scenario::{MachinePreset, Scenario};

use super::paper_stacks;
use crate::{Opts, Sweep};

/// The four span anchors the breakdown needs (tracing only these keeps the
/// ring small enough to never wrap at full scale).
pub fn breakdown_spec() -> TraceSpec {
    TraceSpec {
        cap: crate::cli::DEFAULT_TRACE_CAP,
        mask: Phase::Submit.bit()
            | Phase::DeviceFetch.bit()
            | Phase::FlashDone.bit()
            | Phase::Complete.bit(),
    }
}

/// Regenerates the phase-breakdown extension table.
pub fn run_figure(opts: &Opts) {
    let stages: Vec<u16> = if opts.quick { vec![8] } else { vec![2, 8, 32] };
    let mut sweep = Sweep::new();
    for nr_t in &stages {
        for stack in paper_stacks() {
            let mut s = Scenario::multi_tenant_fio(stack, 4, *nr_t, 4, MachinePreset::SvM);
            s.knobs.trace = Some(breakdown_spec());
            sweep.add(format!("T={nr_t}"), s);
        }
    }

    // Mirror the measurement window: only spans completed inside
    // [warmup, warmup+measure) were observable by the summary statistics.
    let window_start = SimTime::ZERO + opts.warmup();
    let window_end = window_start + opts.measure();
    let l_in_window = |s: &Span| {
        s.sla == Sla::L
            && s.completed_at()
                .is_some_and(|t| t >= window_start && t < window_end)
    };

    let mut table = Table::new(
        "Ext D: L-tenant latency phase breakdown (avg ms), 4 L + T pressure, 4 cores",
        &[
            "T-tenants",
            "stack",
            "in-NSQ wait",
            "device service",
            "delivery",
            "end-to-end",
        ],
    );
    for (stage, out) in sweep.run(opts) {
        assert_eq!(
            out.trace_dropped, 0,
            "breakdown ring must not wrap (raise breakdown_spec cap)"
        );
        let spans = SpanTable::build(&out.trace);
        table.row(&[
            stage,
            out.summary.stack.clone(),
            fmt_f(
                spans
                    .segment_stats(Phase::Submit, Phase::DeviceFetch, l_in_window)
                    .avg_ms(),
            ),
            fmt_f(
                spans
                    .segment_stats(Phase::DeviceFetch, Phase::FlashDone, l_in_window)
                    .avg_ms(),
            ),
            fmt_f(
                spans
                    .segment_stats(Phase::FlashDone, Phase::Complete, l_in_window)
                    .avg_ms(),
            ),
            fmt_f(out.l_avg_ms()),
        ]);
    }
    opts.emit(&table);
}
