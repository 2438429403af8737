//! Fig. 9 — sensitivity to the number of available CPU cores.
//!
//! L-tenant p99.9 under T ∈ {4,16,32} with the tenant pool confined to 2,
//! 4, or 8 cores (SV-M). Daredevil should be flat across core counts (its
//! routing is core-independent) and improve with more cores under high
//! pressure, while blk-switch's cross-core scheduling worsens (§7.1).

use dd_metrics::table::fmt_ms;
use dd_metrics::Table;
use testbed::scenario::{MachinePreset, Scenario};

use super::paper_stacks;
use crate::{Opts, Sweep};

/// Regenerates Fig. 9.
pub fn run_figure(opts: &Opts) {
    let t_stages: &[u16] = if opts.quick { &[16] } else { &[4, 16, 32] };
    let mut sweep = Sweep::new();
    for &nr_t in t_stages {
        for stack in paper_stacks() {
            for cores in [2u16, 4, 8] {
                sweep.add(
                    (nr_t, stack.name()),
                    Scenario::multi_tenant_fio(stack.clone(), 4, nr_t, cores, MachinePreset::SvM),
                );
            }
        }
    }
    let results = sweep.run(opts);

    let mut table = Table::new(
        "Fig 9: L-tenant p99.9 (ms) vs available cores (SV-M)",
        &["T-tenants", "stack", "2 cores", "4 cores", "8 cores"],
    );
    // One row per (T-stage, stack), one cell per core count.
    for row in results.chunk_by(|a, b| a.0 == b.0) {
        let (nr_t, stack) = row[0].0;
        let mut cells = vec![format!("T={nr_t}"), stack.to_string()];
        for (_, out) in row {
            cells.push(fmt_ms(out.summary.class("L").latency.p999()));
        }
        table.row(&cells);
    }
    opts.emit(&table);
}
