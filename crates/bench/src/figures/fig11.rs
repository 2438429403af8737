//! Fig. 11 — decomposition of Daredevil's optimizations (§7.3).
//!
//! `dare-base` (decoupled layer + round-robin routing), `dare-sched`
//! (+ merit NQ scheduling), `dare-full` (+ SLA-aware I/O dispatching),
//! under (a,b) rising T-pressure and (c,d) rising namespace counts.
//!
//! Note on (a)-(d): with four QD-1 L-tenants spread over 32 idle
//! high-priority NSQs, every variant's routing lands each L-tenant on its
//! own empty queue, so the ablations coincide — the decoupling itself
//! (shared by all three) carries the entire win, consistent with the
//! paper's finding that dare-base is already within ~15 % of dare-full.
//! Sub-table (e) therefore adds a *contended* population (TL-tenants
//! flooding the high-priority group, the Fig. 13 setup) where the
//! scheduling and dispatching layers visibly separate.

use dd_metrics::table::fmt_ms;
use dd_metrics::Table;
use testbed::scenario::{MachinePreset, Scenario, StackSpec};

use crate::{Opts, Sweep};

fn ablation_stacks() -> [StackSpec; 3] {
    [
        StackSpec::dare_base(),
        StackSpec::dare_sched(),
        StackSpec::daredevil(),
    ]
}

/// Builds the contended sub-table (e) scenario for one ablation variant.
fn contended_scenario(stack: StackSpec) -> Scenario {
    let mut s = Scenario::new("fig11e", MachinePreset::SvM, stack);
    s.core_pool = 4;
    s.nvme = s.nvme.with_queues(16, 4);
    // TL-tenants register first so the scheduling variants can see
    // their claims when placing the L-tenants.
    for i in 0..12u16 {
        s.tenants.push(testbed::scenario::TenantSpec {
            class_label: "TL",
            ionice: blkstack::IoPriorityClass::RealTime,
            core: i % 4,
            nsid: dd_nvme::NamespaceId(1),
            kind: testbed::scenario::TenantKind::Fio(dd_workload::tenants::t_tenant_job()),
            slo: None,
        });
    }
    for i in 0..8u16 {
        s.tenants.push(testbed::scenario::TenantSpec {
            class_label: "L",
            ionice: blkstack::IoPriorityClass::RealTime,
            core: i % 4,
            nsid: dd_nvme::NamespaceId(1),
            kind: testbed::scenario::TenantKind::Fio(dd_workload::tenants::l_tenant_job()),
            slo: None,
        });
    }
    s
}

/// Regenerates Fig. 11.
pub fn run_figure(opts: &Opts) {
    let ns_counts: Vec<u32> = if opts.quick { vec![4] } else { vec![4, 8, 12] };

    // One sweep covers all three sub-tables: each cell is keyed by its
    // table and, in (a)-(d), its stage column.
    let mut sweep = Sweep::new();
    for nr_t in opts.t_stages() {
        for stack in ablation_stacks() {
            sweep.add(
                (0, Some(format!("T={nr_t}"))),
                Scenario::multi_tenant_fio(stack, 4, nr_t, 4, MachinePreset::SvM),
            );
        }
    }
    for namespaces in &ns_counts {
        for stack in ablation_stacks() {
            sweep.add(
                (1, Some(format!("{namespaces}"))),
                Scenario::multi_namespace(stack, *namespaces, 4, MachinePreset::SvM),
            );
        }
    }
    for stack in ablation_stacks() {
        sweep.add((2, None), contended_scenario(stack));
    }

    let mut tables = [
        Table::new(
            "Fig 11 (a,b): ablation under T-pressure (4 L, 4 cores, SV-M)",
            &["T-tenants", "variant", "L p99.9 (ms)", "L avg (ms)"],
        ),
        Table::new(
            "Fig 11 (c,d): ablation under multi-namespace (1:3 L:T ns ratio)",
            &["namespaces", "variant", "L p99.9 (ms)", "L avg (ms)"],
        ),
        // (e): extension — ablation under high-priority contention with an
        // NSQ→NCQ fan-out (16 NSQs over 4 NCQs, as on consumer devices):
        // the NCQ scheduling step is non-degenerate and completion entries
        // from several NSQs batch in one NCQ, so the merit scheduling and
        // the per-request completion dispatch have room to differ.
        Table::new(
            "Fig 11 (e, extension): ablation under TL contention (8 L + 12 TL, 4 cores, 16 NSQ / 4 NCQ)",
            &["variant", "L p99.9 (ms)", "L avg (ms)"],
        ),
    ];
    for ((table, stage), out) in sweep.run(opts) {
        let l = out.summary.class("L");
        let mut row: Vec<String> = stage.into_iter().collect();
        row.extend([
            out.summary.stack.clone(),
            fmt_ms(l.latency.p999()),
            fmt_ms(l.latency.mean()),
        ]);
        tables[table].row(&row);
    }
    for table in &tables {
        opts.emit(table);
    }
}
