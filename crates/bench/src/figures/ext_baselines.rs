//! Extension — the full baseline field under the Fig. 6 workload.
//!
//! Two extra comparisons the paper discusses but does not plot:
//!
//! 1. **Block-layer I/O schedulers** (mq-deadline, kyber): §9 argues they
//!    are built on blk-mq's static bindings and are SLA-blind. With
//!    write-flavoured T-pressure (where read-vs-write ordering gives
//!    elevators their best case), they recover some L-read latency but
//!    cannot perform NQ-level separation — L still queues behind whatever
//!    the elevator dispatched ahead of it into the shared NSQ.
//! 2. **Static NQ overprovision** (FlashShare/D2FQ style, device WRR):
//!    achieves NQ-level separation but cannot exploit other cores' idle
//!    NQs, so a skewed tenant placement overloads one core's pair.

use blkstack::iosched::SchedKind;
use blkstack::IoPriorityClass;
use dd_metrics::Table;
use dd_nvme::NamespaceId;
use testbed::scenario::{MachinePreset, Scenario, StackSpec, TenantKind, TenantSpec};

use crate::{latency_row, Opts, Sweep, LATENCY_HEADER};

fn sched_stacks() -> [StackSpec; 4] {
    [
        StackSpec::vanilla(),
        StackSpec::vanilla_sched(SchedKind::MqDeadline),
        StackSpec::vanilla_sched(SchedKind::Kyber),
        StackSpec::daredevil(),
    ]
}

/// Runs both extension comparisons.
pub fn run_figure(opts: &Opts) {
    // (1) Elevators under write-heavy T-pressure.
    let t_stages: &[u16] = if opts.quick { &[8] } else { &[8, 32] };
    let mut sweep = Sweep::new();
    for &nr_t in t_stages {
        for stack in sched_stacks() {
            let mut s = Scenario::multi_tenant_fio(stack, 4, 0, 4, MachinePreset::SvM);
            for i in 0..nr_t {
                s.tenants.push(TenantSpec {
                    class_label: "T",
                    ionice: IoPriorityClass::BestEffort,
                    core: i % 4,
                    nsid: NamespaceId(1),
                    kind: TenantKind::Fio(dd_workload::tenants::t_tenant_write_job()),
                    slo: None,
                });
            }
            sweep.add(nr_t, s);
        }
    }

    let mut table = Table::new(
        "Ext A: I/O schedulers vs NQ-level separation (4 L readers, T = 128KiB writers, 4 cores)",
        &LATENCY_HEADER,
    );
    for (nr_t, out) in sweep.run(opts) {
        table.row(&latency_row(format!("T={nr_t}"), &out));
    }
    opts.emit(&table);

    // (2) Static overprovision separates L from T as well as Daredevil —
    // with WRR hardware — but cannot exploit other cores' idle NQs: when
    // the T population skews onto one core, its single T-queue overflows
    // (requests park on BLK_STS_RESOURCE) while the three other T-queues
    // sit empty. Daredevil spreads the same load over the whole low group.
    let nr_t: u16 = if opts.quick { 24 } else { 48 };
    let mut sweep = Sweep::new();
    for (label, skewed) in [("even", false), ("skewed", true)] {
        for stack in [StackSpec::overprov(), StackSpec::daredevil()] {
            let mut s = Scenario::multi_tenant_fio(stack, 4, 0, 4, MachinePreset::SvM);
            for i in 0..nr_t {
                s.tenants.push(TenantSpec {
                    class_label: "T",
                    ionice: IoPriorityClass::BestEffort,
                    // Skewed: every T-tenant on core 0 → one overloaded pair.
                    core: if skewed { 0 } else { i % 4 },
                    nsid: NamespaceId(1),
                    kind: TenantKind::Fio(dd_workload::tenants::t_tenant_job()),
                    slo: None,
                });
            }
            sweep.add(label, s);
        }
    }

    let mut table = Table::new(
        "Ext B: static overprovision (WRR pairs) vs Daredevil under skewed placement",
        &[
            "placement",
            "stack",
            "L p99.9 (ms)",
            "T p99.9 (ms)",
            "T MB/s",
            "queue-full parks",
        ],
    );
    for (label, out) in sweep.run(opts) {
        table.row(&[
            label.to_string(),
            out.summary.stack.clone(),
            dd_metrics::table::fmt_ms(out.summary.class("L").latency.p999()),
            dd_metrics::table::fmt_ms(out.summary.class("T").latency.p999()),
            dd_metrics::table::fmt_f(out.t_mbps()),
            format!("{}", out.stack_stats.requeues),
        ]);
    }
    opts.emit(&table);
}
