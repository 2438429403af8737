//! Fig. 6 — SV-M: resistance to the multi-tenancy issue.
//!
//! 4 L-tenants (4 KiB QD1 randread, real-time ionice), T-tenants rising
//! per stage (128 KiB QD32, best-effort), all on a shared pool of 4 cores
//! of the 64-core/64-NQ SV-M machine, one namespace (§7.1). Columns (a)-(d)
//! of the paper map to the four measurement columns.

use testbed::scenario::{MachinePreset, Scenario};

use super::paper_stacks;
use crate::{latency_table, Opts, Sweep};

/// Regenerates Fig. 6.
pub fn run_figure(opts: &Opts) {
    let mut sweep = Sweep::new();
    for nr_t in opts.t_stages() {
        for stack in paper_stacks() {
            sweep.add(
                format!("T={nr_t}"),
                Scenario::multi_tenant_fio(stack, 4, nr_t, 4, MachinePreset::SvM),
            );
        }
    }
    let title = "Fig 6: SV-M, increasing T-pressure (4 L-tenants, 4 cores)";
    opts.emit(&latency_table(opts, title, sweep));
}
