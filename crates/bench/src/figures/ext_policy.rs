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
use dd_metrics::table::{fmt_f, fmt_ms};
use dd_metrics::Table;
use dd_workload::kvsim::KvConfig;
use dd_workload::mailserver::MailConfig;
use dd_workload::{OpKind, YcsbMix};
use simkit::SimDuration;
use testbed::scenario::{AppKind, StackSpec};
use testbed::RunOutput;

use crate::figures::fig12::app_scenario;
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

fn op_row(outs: &[RunOutput], kind: OpKind, stat: fn(&RunOutput, OpKind) -> Option<String>) -> Vec<String> {
    let mut row = vec![kind.as_str().to_string()];
    for out in outs {
        row.push(stat(out, kind).unwrap_or_else(|| "-".to_string()));
    }
    row
}

/// Background T throughput read back through the per-tenant views: bytes
/// each T tenant completed in-window, summed, over the window — the same
/// accessors a fleet run exposes, so this row works unchanged there.
fn t_mbps_row(outs: &[RunOutput]) -> Vec<String> {
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

fn routing_rows(table: &mut Table, outs: &[RunOutput]) {
    let counters: [(&str, fn(&daredevil::RouteStats) -> u64); 4] = [
        ("default routes", |r| r.default_routes),
        ("outlier routes", |r| r.outlier_routes),
        ("per-request queries", |r| r.per_request_queries),
        ("policy queries", |r| r.policy_queries),
    ];
    for (label, get) in counters {
        let mut row = vec![label.to_string()];
        for out in outs {
            row.push(get(&out.route_stats).to_string());
        }
        table.row(&row);
    }
}

/// Regenerates the policy A/B tables.
pub fn run_figure(opts: &Opts) {
    let ycsb_ops: u64 = if opts.quick { 1_500 } else { 20_000 };
    let mail_ops: u64 = if opts.quick { 1_000 } else { 15_000 };
    let kv = KvConfig {
        keys: 200_000,
        cache_blocks: 40_000,
        memtable_entries: 500,
        ..KvConfig::default()
    };

    let mut sweep = Sweep::new();
    for stack in policy_stacks() {
        let mut s = app_scenario(
            stack,
            AppKind::Mailserver {
                config: MailConfig::default(),
                ops: mail_ops,
            },
            "mailserver",
        );
        s.knobs.warmup = opts.warmup();
        s.knobs.measure = SimDuration::from_secs(120);
        sweep.add("mailserver", s);
    }
    for stack in policy_stacks() {
        let mut s = app_scenario(
            stack,
            AppKind::Ycsb {
                mix: YcsbMix::A,
                config: kv,
                ops: ycsb_ops,
            },
            "ycsb-a",
        );
        s.knobs.warmup = opts.warmup();
        s.knobs.measure = SimDuration::from_secs(120);
        sweep.add("ycsb-a", s);
    }
    let mut results = sweep.run(opts);

    // (a): Mailserver — avg latency of the device-bound ops per policy.
    let mail = results.take(policy_stacks().len());
    let mut table = Table::new(
        "ext policy (a): Mailserver avg latency (ms) by policy, 8 streaming T-tenants",
        &headers(),
    );
    for kind in [OpKind::Fsync, OpKind::Delete, OpKind::FileRead] {
        table.row(&op_row(&mail, kind, |out, k| {
            out.op_latencies.get(&k).map(|h| fmt_ms(h.mean()))
        }));
    }
    opts.emit(&table);

    // (b): Mailserver — what the background T-tenants got.
    let mut table = Table::new(
        "ext policy (b): Mailserver run, background T throughput and routing by policy",
        &headers(),
    );
    table.row(&t_mbps_row(&mail));
    routing_rows(&mut table, &mail);
    opts.emit(&table);

    // (c): YCSB A — per-op p99.9 per policy.
    let ycsb = results.take(policy_stacks().len());
    let mut table = Table::new(
        "ext policy (c): YCSB A p99.9 per op (ms) by policy, 8 streaming T-tenants",
        &headers(),
    );
    for kind in [OpKind::Read, OpKind::Update] {
        table.row(&op_row(&ycsb, kind, |out, k| {
            out.op_latencies.get(&k).map(|h| fmt_ms(h.p999()))
        }));
    }
    opts.emit(&table);

    // (d): YCSB A — T throughput and routing split.
    let mut table = Table::new(
        "ext policy (d): YCSB A run, background T throughput and routing by policy",
        &headers(),
    );
    table.row(&t_mbps_row(&ycsb));
    routing_rows(&mut table, &ycsb);
    opts.emit(&table);
}
