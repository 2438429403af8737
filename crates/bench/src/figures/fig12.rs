//! Fig. 12 — real-world applicability (§7.4).
//!
//! YCSB A/B/E/F over the kvsim LSM store (the RocksDB stand-in) and a
//! filebench-style Mailserver, each co-located with 8 background streaming
//! T-tenants on 4 cores. The application processes are L-tenants
//! (real-time ionice). YCSB reports per-op p99.9; Mailserver reports the
//! average latency of its device-bound operations (fsync, delete).

use blkstack::IoPriorityClass;
use dd_metrics::table::fmt_ms;
use dd_metrics::Table;
use dd_nvme::NamespaceId;
use dd_workload::kvsim::KvConfig;
use dd_workload::mailserver::MailConfig;
use dd_workload::{OpKind, YcsbMix};
use simkit::SimDuration;
use testbed::scenario::{AppKind, MachinePreset, Scenario, StackSpec, TenantKind, TenantSpec};

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

/// The stacks Fig. 12 compares, in column order.
pub fn stacks() -> [StackSpec; 3] {
    [
        StackSpec::vanilla(),
        StackSpec::blk_switch(),
        StackSpec::daredevil(),
    ]
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
/// operations on every one of [`stacks`], then the Mailserver with
/// `mail_ops` operations on every stack.
pub fn sweep(ycsb_ops: u64, mail_ops: u64) -> Sweep {
    let mut sweep = Sweep::new();
    for mix in MIXES {
        for stack in stacks() {
            let app = AppKind::Ycsb {
                mix,
                config: kv_config(),
                ops: ycsb_ops,
            };
            sweep.add(mix.as_str(), app_scenario(stack, app, mix.as_str()));
        }
    }
    for stack in stacks() {
        let app = AppKind::Mailserver {
            config: MailConfig::default(),
            ops: mail_ops,
        };
        sweep.add("mailserver", app_scenario(stack, app, "mailserver"));
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

/// Regenerates Fig. 12.
pub fn run_figure(opts: &Opts) {
    let (ycsb_ops, mail_ops) = app_ops(opts);
    let mut results = sweep(ycsb_ops, mail_ops).run(opts);

    // (a)-(d): YCSB per-op p99.9.
    let mut table = Table::new(
        "Fig 12 (a-d): YCSB on kvsim, p99.9 per op (ms), 8 streaming T-tenants",
        &["workload", "op", "vanilla", "blk-switch", "daredevil"],
    );
    for mix in MIXES {
        let per_stack = results.take(stacks().len());
        for kind in mix_ops(mix) {
            let mut row = vec![mix.as_str().to_string(), kind.as_str().to_string()];
            for out in &per_stack {
                let cell = out
                    .op_latencies
                    .get(kind)
                    .map(|h| fmt_ms(h.p999()))
                    .unwrap_or_else(|| "-".to_string());
                row.push(cell);
            }
            table.row(&row);
        }
    }
    opts.emit(&table);

    // (e): Mailserver average latency of device-bound ops.
    let mut table = Table::new(
        "Fig 12 (e): Mailserver avg latency (ms), 8 streaming T-tenants",
        &["op", "vanilla", "blk-switch", "daredevil", "cache-hit note"],
    );
    let per_stack = results.take(stacks().len());
    for kind in [OpKind::Fsync, OpKind::Delete, OpKind::FileRead] {
        let mut row = vec![kind.as_str().to_string()];
        for out in &per_stack {
            let cell = out
                .op_latencies
                .get(&kind)
                .map(|h| fmt_ms(h.mean()))
                .unwrap_or_else(|| "-".to_string());
            row.push(cell);
        }
        row.push(if kind == OpKind::FileRead {
            "mostly page-cache (CPU-bound)".to_string()
        } else {
            "device-bound".to_string()
        });
        table.row(&row);
    }
    opts.emit(&table);
}
