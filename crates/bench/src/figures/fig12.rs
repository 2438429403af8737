//! Fig. 12 — real-world applicability (§7.4).
//!
//! YCSB A/B/E/F over the kvsim LSM store (the RocksDB stand-in) and a
//! filebench-style Mailserver, each co-located with 8 background streaming
//! T-tenants on 4 cores. The application processes are L-tenants
//! (real-time ionice). YCSB reports per-op p99.9; Mailserver reports the
//! average latency of its device-bound operations (fsync, delete).

use blkstack::IoPriorityClass;
use dd_metrics::table::fmt_ms;
use dd_metrics::{LatencyHistogram, Table};
use dd_nvme::NamespaceId;
use dd_workload::kvsim::KvConfig;
use dd_workload::mailserver::MailConfig;
use dd_workload::{OpKind, YcsbMix};
use simkit::SimDuration;
use testbed::scenario::{AppKind, MachinePreset, Scenario, StackSpec, TenantKind, TenantSpec};
use testbed::RunOutput;

use super::paper_stacks;
use crate::{Opts, Sweep};

/// Ceiling of a run-to-completion cell; the run stops when its app
/// finishes, long before this.
const APP_CEILING: SimDuration = SimDuration::from_secs(120);

/// One app tenant beside 8 streaming T-tenants on 4 SV-M cores, run until
/// the app finishes.
pub fn app_scenario(stack: StackSpec, app: AppKind, label: &'static str) -> Scenario {
    let mut s = Scenario::new(
        format!("{}-{label}", stack.name()),
        MachinePreset::SvM,
        stack,
    );
    s.tenants.push(TenantSpec {
        class_label: "app",
        ionice: IoPriorityClass::RealTime,
        core: 0,
        nsid: NamespaceId(1),
        kind: TenantKind::App(app),
        slo: None,
    });
    for i in 0..8u16 {
        s.tenants.push(TenantSpec {
            class_label: "T",
            ionice: IoPriorityClass::BestEffort,
            core: (1 + i) % 4,
            nsid: NamespaceId(1),
            kind: TenantKind::Fio(dd_workload::tenants::streaming_job()),
            slo: None,
        });
    }
    s.stop_when_apps_done = true;
    s.knobs.measure = APP_CEILING;
    s
}

/// The YCSB mixes of panels (a)–(d), in row order.
pub const MIXES: [YcsbMix; 4] = [YcsbMix::A, YcsbMix::B, YcsbMix::E, YcsbMix::F];

/// The ops a mix's panel reports, in row order.
pub fn mix_ops(mix: YcsbMix) -> &'static [OpKind] {
    match mix {
        YcsbMix::A | YcsbMix::B => &[OpKind::Read, OpKind::Update],
        YcsbMix::E => &[OpKind::Scan, OpKind::Insert],
        YcsbMix::F => &[OpKind::Read, OpKind::ReadModifyWrite],
    }
}

/// Fig. 12's cells in table order: each of [`MIXES`] with `ycsb_ops`
/// operations on every one of [`paper_stacks`], then the Mailserver
/// (keyed `None`) with `mail_ops` operations on every stack.
pub fn sweep(ycsb_ops: u64, mail_ops: u64) -> Sweep<Option<YcsbMix>> {
    let mut sweep = Sweep::new();
    for mix in MIXES {
        for stack in paper_stacks() {
            let app = AppKind::Ycsb {
                mix,
                config: kv_config(),
                ops: ycsb_ops,
            };
            sweep.add(Some(mix), app_scenario(stack, app, mix.as_str()));
        }
    }
    for stack in paper_stacks() {
        let app = AppKind::Mailserver {
            config: MailConfig::default(),
            ops: mail_ops,
        };
        sweep.add(None, app_scenario(stack, app, "mailserver"));
    }
    sweep
}

/// The kvsim store under every YCSB cell.
pub(crate) fn kv_config() -> KvConfig {
    KvConfig {
        keys: 200_000,
        cache_blocks: 40_000,
        memtable_entries: 500,
        ..KvConfig::default()
    }
}

/// (YCSB, Mailserver) operations per app at the options' scale.
pub(crate) fn app_ops(opts: &Opts) -> (u64, u64) {
    if opts.quick {
        (1_500, 1_000)
    } else {
        (20_000, 15_000)
    }
}

/// One table cell per output: `stat` of its `kind` latencies in ms, or
/// "-" when the run recorded no such op.
pub(crate) fn op_cells(
    outs: &[&RunOutput],
    kind: OpKind,
    stat: fn(&LatencyHistogram) -> SimDuration,
) -> Vec<String> {
    outs.iter()
        .map(|out| {
            out.op_latencies
                .get(&kind)
                .map(|h| fmt_ms(stat(h)))
                .unwrap_or_else(|| "-".to_string())
        })
        .collect()
}

/// Regenerates Fig. 12.
pub fn run_figure(opts: &Opts) {
    let (ycsb_ops, mail_ops) = app_ops(opts);
    let results = sweep(ycsb_ops, mail_ops).run(opts);

    // (a)-(d): YCSB per-op p99.9; (e): Mailserver average latency of
    // device-bound ops.
    let mut ycsb = Table::new(
        "Fig 12 (a-d): YCSB on kvsim, p99.9 per op (ms), 8 streaming T-tenants",
        &["workload", "op", "vanilla", "blk-switch", "daredevil"],
    );
    let mut mail = Table::new(
        "Fig 12 (e): Mailserver avg latency (ms), 8 streaming T-tenants",
        &["op", "vanilla", "blk-switch", "daredevil", "cache-hit note"],
    );
    // One app's cells, one per stack in column order.
    for app in results.chunk_by(|a, b| a.0 == b.0) {
        let outs: Vec<&RunOutput> = app.iter().map(|(_, out)| out).collect();
        match app[0].0 {
            Some(mix) => {
                for &kind in mix_ops(mix) {
                    let mut row = vec![mix.as_str().to_string(), kind.as_str().to_string()];
                    row.extend(op_cells(&outs, kind, LatencyHistogram::p999));
                    ycsb.row(&row);
                }
            }
            None => {
                for kind in [OpKind::Fsync, OpKind::Delete, OpKind::FileRead] {
                    let mut row = vec![kind.as_str().to_string()];
                    row.extend(op_cells(&outs, kind, LatencyHistogram::mean));
                    row.push(if kind == OpKind::FileRead {
                        "mostly page-cache (CPU-bound)".to_string()
                    } else {
                        "device-bound".to_string()
                    });
                    mail.row(&row);
                }
            }
        }
    }
    opts.emit(&ycsb);
    opts.emit(&mail);
}
