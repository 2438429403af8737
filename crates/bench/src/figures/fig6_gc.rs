//! Fig. 6 (GC variant) — an aged drive: erase-after-write under
//! T-pressure.
//!
//! The paper preconditions its SSDs, so the headline Fig. 6 runs with
//! garbage collection off. This variant ages the drive instead
//! ([`dd_nvme::flash::GcConfig`]): every `write_threshold_pages`
//! programmed pages charge a multi-millisecond block erase on a
//! round-robin victim die, and the T-tenants switch to 128 KiB QD32
//! *writes* so the erase pressure actually builds. The §8.1 residual
//! becomes visible: erase monopolises a die regardless of which NSQ a
//! request arrived on, so the latency floor rises across *all* stacks —
//! per-SLA queueing cannot help with device-internal blocking — while
//! the stack-induced spread above the floor keeps the Fig. 6 ordering.

use dd_nvme::flash::GcConfig;
use testbed::scenario::{MachinePreset, Scenario, StackSpec, TenantKind};

use super::paper_stacks;
use crate::{latency_table, Opts, Sweep};

/// The Fig. 6 population with writing T-tenants on an aged (GC-enabled)
/// drive.
fn gc_scenario(stack: StackSpec, nr_t: u16) -> Scenario {
    // A milder aging than `GcConfig::default()`: one 3 ms erase per 2048
    // programmed pages (every 64 T-writes) keeps the drive servicing reads
    // between erases. The default (every 8 T-writes) turns high T-stages
    // into a pure erase storm in which vanilla's L-tenants complete
    // nothing — no floor left to compare.
    let gc = GcConfig {
        write_threshold_pages: 2048,
        ..GcConfig::default()
    };
    let mut s = Scenario::multi_tenant_fio(stack, 4, nr_t, 4, MachinePreset::SvM);
    s.nvme.flash = s.nvme.flash.with_gc(gc);
    // Read-pressure T-tenants never program a page and would leave GC
    // idle; make them writers so erases actually trigger.
    for t in &mut s.tenants {
        if t.class_label == "T" {
            t.kind = TenantKind::Fio(dd_workload::tenants::t_tenant_write_job());
        }
    }
    s
}

/// The T-pressure stages for the GC variant. Lower than Fig. 6's: each
/// writing T-tenant adds erase pressure on top of queue pressure, and
/// past ~8 writers the quick window is one long erase storm in which
/// vanilla completes no L-request at all — a true but unreadable row.
fn gc_stages(opts: &Opts) -> Vec<u16> {
    if opts.quick {
        vec![2, 4]
    } else {
        vec![0, 2, 4, 8]
    }
}

/// Regenerates the GC-on Fig. 6 variant.
pub fn run_figure(opts: &Opts) {
    let mut sweep = Sweep::new();
    for nr_t in gc_stages(opts) {
        for stack in paper_stacks() {
            sweep.add(format!("T={nr_t}"), gc_scenario(stack, nr_t));
        }
    }
    let title = "Fig 6 (GC): SV-M aged drive, writing T-tenants (4 L-tenants, 4 cores)";
    opts.emit(&latency_table(opts, title, sweep));
}
