//! Fig. 10 — multi-namespace scenarios.
//!
//! 4/8/12 namespaces at an L:T namespace ratio of 1:3 (2 L-tenants per
//! L-ns, 8 T-tenants per T-ns). Every namespace hosts only one class, yet
//! the classes still share the device's single NQ set — the per-namespace
//! blk-mq structures cannot see it, Daredevil's device-level proxies can
//! (§7.2).

use testbed::scenario::{MachinePreset, Scenario};

use super::paper_stacks;
use crate::{latency_table, Opts, Sweep};

/// Regenerates Fig. 10.
pub fn run_figure(opts: &Opts) {
    let ns_counts: Vec<u32> = if opts.quick { vec![4] } else { vec![4, 8, 12] };
    let mut sweep = Sweep::new();
    for namespaces in &ns_counts {
        for stack in paper_stacks() {
            sweep.add(
                format!("{namespaces} ns"),
                Scenario::multi_namespace(stack, *namespaces, 4, MachinePreset::SvM),
            );
        }
    }
    let title = "Fig 10: multi-namespace (L-ns:T-ns = 1:3, 2 L per L-ns, 8 T per T-ns, 4 cores)";
    opts.emit(&latency_table(opts, title, sweep));
}
