//! Extension — policy A/B: the built-in scheduling policies head-to-head.
//!
//! The policy layer's demo figure (`daredevil::policy`): the same two
//! application mixes of Fig. 12 — a filebench-style Mailserver and YCSB A,
//! each co-located with 8 streaming T-tenants on 4 cores — run once per
//! built-in policy of the Daredevil stack (`default`, `deadline`,
//! `sizeclass`, `fairshare`). Three tables per mix family:
//!
//! 1. app-op latency (the L-side cost/benefit of each routing stance);
//! 2. background T throughput (what the L-side gains are paid with);
//! 3. troute routing-path counters (*how* each policy routed — default
//!    table hits vs outlier paths vs explicit policy queries — which is
//!    where the policies are guaranteed to differ even when latencies are
//!    close).
//!
//! Like every figure, the output is byte-identical for `--jobs 1` and
//! `--jobs N` (gated by `scripts/verify.sh`). The `--policy` CLI flag is
//! deliberately *not* consulted here — this figure sweeps all policies by
//! construction; use the flag with the other figures to A/B a single
//! policy there.

use daredevil::PolicySpec;
use dd_metrics::table::fmt_f;
use dd_metrics::{LatencyHistogram, Table};
use dd_workload::mailserver::MailConfig;
use dd_workload::{OpKind, YcsbMix};
use simkit::SimDuration;
use testbed::scenario::{AppKind, StackSpec};
use testbed::RunOutput;

use crate::figures::fig12::{app_ops, app_scenario, kv_config, op_cells};
use crate::{Opts, Sweep};

/// Column order: [`PolicySpec::ALL`], default first.
fn policy_stacks() -> [StackSpec; 4] {
    PolicySpec::ALL.map(|p| StackSpec::daredevil().with_policy(p))
}

fn headers() -> Vec<&'static str> {
    let mut h = vec!["op"];
    h.extend(PolicySpec::ALL.iter().map(|p| p.name()));
    h
}

/// One application mix of the figure and the two tables it fills.
struct Panel {
    /// The app's scenario label.
    label: &'static str,
    /// Titles of its op-latency table and of its background-T and
    /// routing table.
    titles: [&'static str; 2],
    /// The ops its latency table reports, and the statistic reported.
    ops: &'static [OpKind],
    stat: fn(&LatencyHistogram) -> SimDuration,
}

/// The Mailserver panels (a, b), then the YCSB A panels (c, d).
const PANELS: [Panel; 2] = [
    Panel {
        label: "mailserver",
        titles: [
            "ext policy (a): Mailserver avg latency (ms) by policy, 8 streaming T-tenants",
            "ext policy (b): Mailserver run, background T throughput and routing by policy",
        ],
        ops: &[OpKind::Fsync, OpKind::Delete, OpKind::FileRead],
        stat: LatencyHistogram::mean,
    },
    Panel {
        label: "ycsb-a",
        titles: [
            "ext policy (c): YCSB A p99.9 per op (ms) by policy, 8 streaming T-tenants",
            "ext policy (d): YCSB A run, background T throughput and routing by policy",
        ],
        ops: &[OpKind::Read, OpKind::Update],
        stat: LatencyHistogram::p999,
    },
];

/// Background T throughput read back through the per-tenant views: bytes
/// each T tenant completed in-window, summed, over the window — the same
/// accessors a fleet run exposes, so this row works unchanged there.
fn t_mbps_row(outs: &[&RunOutput]) -> Vec<String> {
    let mut row = vec!["T MB/s".to_string()];
    for out in outs {
        let bytes: u64 = out
            .tenants()
            .filter(|t| t.class() == "T")
            .map(|t| t.bytes_completed())
            .sum();
        row.push(fmt_f(bytes as f64 / 1e6 / out.summary.window_secs()));
    }
    row
}

/// A routing counter: its row label and how to read it.
type Counter = (&'static str, fn(&daredevil::RouteStats) -> u64);

fn routing_rows(table: &mut Table, outs: &[&RunOutput]) {
    let counters: [Counter; 4] = [
        ("default routes", |r| r.default_routes),
        ("outlier routes", |r| r.outlier_routes),
        ("per-request queries", |r| r.per_request_queries),
        ("policy queries", |r| r.policy_queries),
    ];
    for (label, get) in counters {
        let mut row = vec![label.to_string()];
        for out in outs {
            row.push(get(&out.stack_stats.route).to_string());
        }
        table.row(&row);
    }
}

/// Regenerates the policy A/B tables.
pub fn run_figure(opts: &Opts) {
    let (ycsb_ops, mail_ops) = app_ops(opts);
    let apps = [
        AppKind::Mailserver {
            config: MailConfig::default(),
            ops: mail_ops,
        },
        AppKind::Ycsb {
            mix: YcsbMix::A,
            config: kv_config(),
            ops: ycsb_ops,
        },
    ];
    let mut sweep = Sweep::new();
    for (panel, app) in PANELS.iter().zip(apps) {
        for stack in policy_stacks() {
            sweep.add(panel, app_scenario(stack, app.clone(), panel.label));
        }
    }
    let results = sweep.run(opts);

    // One panel's cells, one per policy in column order.
    for cells in results.chunk_by(|a, b| a.0.label == b.0.label) {
        let panel = cells[0].0;
        let outs: Vec<&RunOutput> = cells.iter().map(|(_, out)| out).collect();
        let mut table = Table::new(panel.titles[0], &headers());
        for &kind in panel.ops {
            let mut row = vec![kind.as_str().to_string()];
            row.extend(op_cells(&outs, kind, panel.stat));
            table.row(&row);
        }
        opts.emit(&table);

        let mut table = Table::new(panel.titles[1], &headers());
        table.row(&t_mbps_row(&outs));
        routing_rows(&mut table, &outs);
        opts.emit(&table);
    }
}
