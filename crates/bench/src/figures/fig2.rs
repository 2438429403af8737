//! Fig. 2 — motivation: the severity of the multi-tenancy issue.
//!
//! 4 L-tenants with and without interfering T-tenants *within the same
//! NQs*: vanilla blk-mq (co-locating, "w/ Interfere") vs. the modified
//! blk-mq that statically partitions L and T across the halves of the same
//! 4-NQ budget ("w/o Interfere"). T ∈ {0..32} on 4 shared cores (§3.1).

use dd_metrics::table::fmt_ms;
use dd_metrics::Table;
use testbed::scenario::{MachinePreset, Scenario, StackSpec};

use crate::{Opts, Sweep};

fn variants() -> [(&'static str, StackSpec); 2] {
    [
        ("w/ interfere", StackSpec::vanilla_queues(4)),
        ("w/o interfere", StackSpec::vanilla_partitioned(4)),
    ]
}

/// Regenerates Fig. 2.
pub fn run_figure(opts: &Opts) {
    let mut sweep = Sweep::new();
    for nr_t in opts.t_stages() {
        for (label, stack) in variants() {
            sweep.add(
                (nr_t, label),
                Scenario::multi_tenant_fio(stack, 4, nr_t, 4, MachinePreset::SvM),
            );
        }
    }
    let results = sweep.run(opts);

    let mut table = Table::new(
        "Fig 2: L-tenant latency w/ vs w/o NQ interference (4 L, 4 cores, 4 NQs)",
        &[
            "T-tenants",
            "variant",
            "L p99.9 (ms)",
            "L avg (ms)",
            "tail inflation",
        ],
    );
    // One stage's variants in add order: the second row carries the
    // inflation of the first over it.
    for stage in results.chunk_by(|a, b| a.0 .0 == b.0 .0) {
        let mut tails = Vec::new();
        for ((nr_t, label), out) in stage {
            let l = out.summary.class("L");
            tails.push(l.latency.p999().as_millis_f64());
            table.row(&[
                format!("{nr_t}"),
                label.to_string(),
                fmt_ms(l.latency.p999()),
                fmt_ms(l.latency.mean()),
                if tails.len() == 2 && tails[1] > 0.0 {
                    format!("{:.2}x", tails[0] / tails[1])
                } else {
                    "-".to_string()
                },
            ]);
        }
    }
    opts.emit(&table);
}
