//! Extension — §8.1: Daredevil for guest VMs over virtio-blk.
//!
//! Two VMs (VM = namespace) each host guest L- and T-tenants. With the
//! naive virtio layer the guests' SLAs never reach the host — even a
//! Daredevil host sees one best-effort vhost identity per VM and guest
//! L-requests drown. The paper's sketched design (per-SLA virtqueues with
//! SLA-consistent VQ→NQ mappings) restores the separation end to end.

use blkstack::IoPriorityClass;
use dd_metrics::Table;
use dd_nvme::NamespaceId;
use testbed::scenario::{MachinePreset, Scenario, StackSpec, TenantKind, TenantSpec};

use crate::{latency_row, Opts, Sweep, LATENCY_HEADER};

fn vm_scenario(stack: StackSpec, nr_t_per_vm: u16) -> Scenario {
    let mut s = Scenario::new(format!("{}-vms", stack.name()), MachinePreset::SvM, stack);
    s.core_pool = 4;
    s.nvme = s.nvme.with_namespaces(2);
    for vm in 1..=2u32 {
        for i in 0..2u16 {
            s.tenants.push(TenantSpec {
                class_label: "L",
                ionice: IoPriorityClass::RealTime,
                core: i % 4,
                nsid: NamespaceId(vm),
                kind: TenantKind::Fio(dd_workload::tenants::l_tenant_job()),
                slo: None,
            });
        }
        for i in 0..nr_t_per_vm {
            s.tenants.push(TenantSpec {
                class_label: "T",
                ionice: IoPriorityClass::BestEffort,
                core: (2 + i) % 4,
                nsid: NamespaceId(vm),
                kind: TenantKind::Fio(dd_workload::tenants::t_tenant_job()),
                slo: None,
            });
        }
    }
    s
}

fn virtio_stacks() -> [StackSpec; 3] {
    [
        StackSpec::virtio(StackSpec::vanilla(), false),
        StackSpec::virtio(StackSpec::daredevil(), false),
        StackSpec::virtio(StackSpec::daredevil(), true),
    ]
}

fn virtio_label(stack: &StackSpec) -> String {
    match stack {
        StackSpec::Virtio { inner, sla_aware } => {
            format!(
                "{} / {}",
                if *sla_aware { "sla-vqs" } else { "naive-vqs" },
                inner.name()
            )
        }
        _ => unreachable!(),
    }
}

/// Regenerates the virtio extension comparison.
pub fn run_figure(opts: &Opts) {
    let nr_t = if opts.quick { 4 } else { 8 };
    let mut sweep = Sweep::new();
    for stack in virtio_stacks() {
        sweep.add(virtio_label(&stack), vm_scenario(stack, nr_t));
    }

    let mut table = Table::new(
        format!("Ext C: guest VMs over virtio-blk (2 VMs, 2 guest L + {nr_t} guest T each, daredevil host)"),
        &LATENCY_HEADER,
    );
    for (label, out) in sweep.run(opts) {
        let mut row = latency_row("2 VMs", &out);
        row[1] = label;
        table.row(&row);
    }
    opts.emit(&table);
}
