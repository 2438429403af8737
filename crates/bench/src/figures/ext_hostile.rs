//! Extension — the hostile-scenario family: SLO violations and per-phase
//! tails under deterministic device misbehaviour.
//!
//! The robustness claim behind the fault subsystem (DESIGN §4e): all four
//! stacks *degrade gracefully* — no hang, no lost request — when the
//! device misbehaves, and the per-SLA isolation the paper argues for
//! keeps paying off while it does. Each stack runs the §7.1 mixed tenancy
//! under four regimes: a clean baseline and one fault class at a time
//! (die latency spikes, lost IRQ raises, NSQ fetch stalls), all driven by
//! the same seeded [`simkit::FaultPlan`] schedule.
//!
//! Per cell the table reports the L-tenant SLO-violation rate (fraction
//! of completed L-requests over the [`SLO_MS`] budget), the L p99/p99.9,
//! the per-phase p99.9 split (in-NSQ wait / device service / completion
//! delivery, from the same [`dd_metrics::SpanTable`] the `--trace` flag
//! uses), and the injection/recovery counters proving the faults engaged
//! and the watchdogs answered. Like every figure, the output is
//! byte-identical for `--jobs 1` and `--jobs N` (gated by
//! `scripts/verify.sh`).

use dd_metrics::span::Span;
use dd_metrics::table::fmt_f;
use dd_metrics::{SpanTable, Table};
use simkit::{FaultClasses, FaultSpec, Phase, SimDuration, SimTime, Sla};
use testbed::scenario::{MachinePreset, Scenario};

use super::extension_stacks;
use crate::figures::ext_breakdown::breakdown_spec;
use crate::{Opts, Sweep};

/// The L-tenant latency budget: a 4 KiB QD1 randread finishing slower
/// than this counts as an SLO violation. Generous against the clean p99.9
/// (sub-millisecond on SV-M) so the clean baseline rows sit near zero and
/// the fault rows isolate the damage.
pub const SLO_MS: f64 = 2.0;

/// The fault regimes, one class at a time after the clean baseline.
fn regimes() -> [(&'static str, FaultClasses); 4] {
    [
        ("none", FaultClasses::NONE),
        (
            "spikes",
            FaultClasses {
                die_spikes: true,
                irq_loss: false,
                nsq_stalls: false,
            },
        ),
        (
            "irqloss",
            FaultClasses {
                die_spikes: false,
                irq_loss: true,
                nsq_stalls: false,
            },
        ),
        (
            "stalls",
            FaultClasses {
                die_spikes: false,
                irq_loss: false,
                nsq_stalls: true,
            },
        ),
    ]
}

/// Regenerates the hostile-scenario extension table.
pub fn run_figure(opts: &Opts) {
    let fault_seed = opts.fault_seed.unwrap_or(crate::cli::DEFAULT_FAULT_SEED);
    let mut sweep = Sweep::new();
    for (label, classes) in regimes() {
        for stack in extension_stacks() {
            let mut s = Scenario::multi_tenant_fio(stack, 4, 8, 4, MachinePreset::SvM);
            // Declare the L budget on the tenants themselves so the run
            // accounts violations in-stack and the table reads them back
            // through the `TenantView` API.
            for t in &mut s.tenants {
                if t.class_label == "L" {
                    t.slo = Some(SimDuration::from_micros((SLO_MS * 1_000.0) as u64));
                }
            }
            s.knobs.trace = Some(breakdown_spec());
            if classes.any() {
                s.knobs.faults = Some(FaultSpec::new(classes, fault_seed));
            }
            sweep.add(label, s);
        }
    }

    let window_start = SimTime::ZERO + opts.warmup();
    let window_end = window_start + opts.measure();
    let l_in_window = |s: &Span| {
        s.sla == Sla::L
            && s.completed_at()
                .is_some_and(|t| t >= window_start && t < window_end)
    };

    let mut table = Table::new(
        "Ext E: hostile device, 4 L + 8 T on 4 cores (SLO = 2 ms; per-phase p99.9 ms)",
        &[
            "faults",
            "stack",
            "SLO viol %",
            "L p99 (ms)",
            "L p99.9 (ms)",
            "nsq p99.9",
            "dev p99.9",
            "dlv p99.9",
            "injected",
            "polls",
            "redrives",
        ],
    );
    for (label, out) in sweep.run(opts) {
        assert_eq!(
            out.trace_dropped, 0,
            "hostile ring must not wrap (raise breakdown_spec cap)"
        );
        let spans = SpanTable::build(&out.trace);
        // SLO accounting comes straight off the per-tenant views — the
        // same numbers a fleet run reports — not from replaying spans.
        let mut l_done = 0u64;
        let mut violations = 0u64;
        for t in out.tenants().filter(|t| t.class() == "L") {
            l_done += t.ios_completed();
            violations += t.slo_violations();
        }
        let viol_pct = if l_done == 0 {
            100.0
        } else {
            100.0 * violations as f64 / l_done as f64
        };
        table.row(&[
            format!("faults={label}"),
            out.summary.stack.clone(),
            fmt_f(viol_pct),
            fmt_f(out.summary.class("L").latency.p99().as_millis_f64()),
            fmt_f(out.l_p999_ms()),
            fmt_f(
                spans
                    .segment_hist(Phase::Submit, Phase::DeviceFetch, l_in_window)
                    .p999()
                    .as_millis_f64(),
            ),
            fmt_f(
                spans
                    .segment_hist(Phase::DeviceFetch, Phase::FlashDone, l_in_window)
                    .p999()
                    .as_millis_f64(),
            ),
            fmt_f(
                spans
                    .segment_hist(Phase::FlashDone, Phase::Complete, l_in_window)
                    .p999()
                    .as_millis_f64(),
            ),
            out.fault.total_injected().to_string(),
            out.fault.polls_fired.to_string(),
            out.fault.watchdog_redrives.to_string(),
        ]);
    }
    opts.emit(&table);
}
