//! Fig. 7 — WS-M: the same T-pressure sweep on the workstation machine.
//!
//! WS-M exposes 128 NSQs over 24 NCQs (≥5 NSQs per NCQ), giving Daredevil's
//! NQ scheduling a real second step; the paper's gains grow to 40×/170×
//! here because requests can scatter across many more NSQs (§7.1).

use testbed::scenario::{MachinePreset, Scenario};

use super::paper_stacks;
use crate::{latency_table, Opts, Sweep};

/// Regenerates Fig. 7.
pub fn run_figure(opts: &Opts) {
    let mut sweep = Sweep::new();
    for nr_t in opts.t_stages() {
        for stack in paper_stacks() {
            sweep.add(
                format!("T={nr_t}"),
                Scenario::multi_tenant_fio(stack, 4, nr_t, 4, MachinePreset::WsM),
            );
        }
    }
    let title = "Fig 7: WS-M (128 NSQ / 24 NCQ), increasing T-pressure (4 L-tenants, 4 cores)";
    opts.emit(&latency_table(opts, title, sweep));
}
