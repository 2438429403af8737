//! Fig. 13 — overheads of cross-core NQ accesses (§7.5).
//!
//! TL-tenants are T-shaped jobs (128 KiB, QD32) given real-time ionice, so
//! they share the *high-priority* NQs with L-tenants and maximize cross-core
//! traffic. One population axis is fixed at 12 while the other varies; the
//! pool is confined to 4 cores and 16 NQs, and tenants are continuously
//! moved across cores at random so every NQ sees multiple cores.
//!
//! Reported: L-tenant average latency plus the two overhead channels —
//! submission-side NSQ lock spin time and completion-side remote-delivery
//! counts — and the overheads' share of total L latency.

use blkstack::IoPriorityClass;
use dd_metrics::table::{fmt_f, fmt_ms};
use dd_metrics::Table;
use dd_nvme::NamespaceId;
use simkit::SimDuration;
use testbed::scenario::{MachinePreset, Scenario, StackSpec, TenantKind, TenantSpec};

use crate::{Opts, Sweep};

fn overhead_scenario(stack: StackSpec, nr_l: u16, nr_tl: u16) -> Scenario {
    let mut s = Scenario::new(
        format!("{}-L{nr_l}-TL{nr_tl}", stack.name()),
        MachinePreset::SvM,
        stack,
    );
    // Confine to 4 cores and 16 NQs as in the paper.
    s.core_pool = 4;
    s.nvme = s.nvme.with_queues(16, 16);
    for i in 0..nr_l {
        s.tenants.push(TenantSpec {
            class_label: "L",
            ionice: IoPriorityClass::RealTime,
            core: i % 4,
            nsid: NamespaceId(1),
            kind: TenantKind::Fio(dd_workload::tenants::l_tenant_job()),
            slo: None,
        });
    }
    for i in 0..nr_tl {
        s.tenants.push(TenantSpec {
            class_label: "TL",
            // T-shaped traffic with L priority: shares the L NQs.
            ionice: IoPriorityClass::RealTime,
            core: (nr_l + i) % 4,
            nsid: NamespaceId(1),
            kind: TenantKind::Fio(dd_workload::tenants::t_tenant_job()),
            slo: None,
        });
    }
    // Interleave NQ accesses by moving tenants across cores continuously.
    // The paper applies this churn to Daredevil specifically, to force each
    // NQ to be accessed by multiple cores and maximize its cross-core
    // overheads; vanilla's static bindings are left as the plain baseline.
    if matches!(s.stack, StackSpec::Daredevil(_)) {
        s.migrate_storm = Some(SimDuration::from_millis(2));
    }
    s
}

fn row(stage: String, out: &testbed::RunOutput) -> Vec<String> {
    let l = out.summary.class("L");
    let st = &out.stack_stats;
    let total_completions = (st.remote_completions + st.local_completions).max(1);
    let remote_frac = st.remote_completions as f64 / total_completions as f64;
    // Overhead share of L latency: per-request lock wait + remote penalty
    // versus the measured mean.
    let per_rq_lock_us = st.lock_wait_total.as_micros_f64() / st.submitted_rqs.max(1) as f64;
    let mean_us = l.latency.mean().as_micros_f64().max(1e-9);
    vec![
        stage,
        out.summary.stack.clone(),
        fmt_ms(l.latency.mean()),
        fmt_f(per_rq_lock_us),
        fmt_f(remote_frac * 100.0),
        fmt_f((per_rq_lock_us / mean_us) * 100.0),
    ]
}

const HEADER: [&str; 6] = [
    "stage",
    "stack",
    "L avg (ms)",
    "lock wait/rq (us)",
    "remote compl %",
    "submit ovh % of lat",
];

/// Regenerates Fig. 13.
pub fn run_figure(opts: &Opts) {
    let stacks = [StackSpec::vanilla(), StackSpec::daredevil()];
    let counts: Vec<u16> = if opts.quick {
        vec![4, 12]
    } else {
        vec![2, 4, 8, 12, 16]
    };

    // Each cell is keyed by its table and its stage column.
    let mut sweep = Sweep::new();
    for nr_l in &counts {
        for stack in stacks.clone() {
            sweep.add(
                (0, format!("L={nr_l}")),
                overhead_scenario(stack, *nr_l, 12),
            );
        }
    }
    for nr_tl in &counts {
        for stack in stacks.clone() {
            sweep.add(
                (1, format!("TL={nr_tl}")),
                overhead_scenario(stack, 12, *nr_tl),
            );
        }
    }

    let mut tables = [
        Table::new(
            "Fig 13 (a,c): fixed 12 TL-tenants, varying L-tenants (4 cores, 16 NQs)",
            &HEADER,
        ),
        Table::new(
            "Fig 13 (b,d): fixed 12 L-tenants, varying TL-tenants (4 cores, 16 NQs)",
            &HEADER,
        ),
    ];
    for ((table, stage), out) in sweep.run(opts) {
        tables[table].row(&row(stage, &out));
    }
    for table in &tables {
        opts.emit(table);
    }
}
