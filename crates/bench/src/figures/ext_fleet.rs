//! Extension — fleet-scale tenancy: SLO-violation rate vs fleet load.
//!
//! The fleet layer's headline figure (`testbed::fleet`, DESIGN §"Fleet
//! layer"): a fleet of [`HOSTS`] independent machines consolidates a
//! Zipfian(θ = 0.99) population of 1k–10k tenants — 20 % latency-critical
//! (4 KiB QD1 randreads, 2 ms SLO), the rest bulk writers (128 KiB, 50 ms
//! SLO) — under *open-loop* arrivals (diurnal × bursty, per-tenant phases)
//! whose aggregate rate is the swept fleet-load axis. Each of the four
//! stacks runs the same fleet at each load; the table reports the
//! per-class SLO-violation rates the per-tenant accounting collects
//! in-stack, the worst host's L p99.9 (fleets are judged by their worst
//! machine), and the completed fleet throughput.
//!
//! Every host of every fleet is one sweep cell: [`crate::Sweep`] schedules
//! the host runs across workers exactly like any other figure's cells, and
//! the per-fleet [`FleetOutput`] is reassembled from the ordered results —
//! so the output is byte-identical for `--jobs 1` and `--jobs N` (gated by
//! `scripts/verify.sh`) and the fleet digest matches a serial
//! `testbed::run_fleet` of the same spec. `--quick` sweeps the 1k-tenant
//! fleet only; the full run adds the 4k and 10k scales.

use dd_metrics::table::fmt_f;
use dd_metrics::Table;
use testbed::fleet::{FleetSpec, TenantPopulation};
use testbed::scenario::{MachinePreset, StackSpec};
use testbed::FleetOutput;

use crate::{Opts, Sweep};

/// Hosts per fleet — every fleet cell expands into this many machine runs.
pub const HOSTS: u16 = 4;

/// The swept fleet-load axis, in aggregate I/Os per second offered across
/// the whole fleet (Zipfian-shared over the tenants).
pub const FLEET_IOPS: [f64; 3] = [8_000.0, 20_000.0, 50_000.0];

fn stacks() -> [StackSpec; 4] {
    [
        StackSpec::vanilla(),
        StackSpec::blk_switch(),
        StackSpec::overprov(),
        StackSpec::daredevil(),
    ]
}

/// Tenant scales: the paper-style 1k quick point, plus 4k/10k in full runs.
fn scales(opts: &Opts) -> &'static [u32] {
    if opts.quick {
        &[1_000]
    } else {
        &[1_000, 4_000, 10_000]
    }
}

/// The fleet spec for one (tenants, load, stack) cell. Seeding comes from
/// the CLI (default 42) so `--seed` A/Bs the whole expansion.
fn fleet_spec(opts: &Opts, tenants: u32, fleet_iops: f64, stack: StackSpec) -> FleetSpec {
    let mut f = FleetSpec::new(
        format!("fleet-{tenants}t-{}k", (fleet_iops / 1e3) as u64),
        HOSTS,
        MachinePreset::SvM,
        stack,
        TenantPopulation::zipfian(tenants, fleet_iops),
    );
    if let Some(seed) = opts.seed {
        f.knobs.seed = seed;
    }
    f
}

/// Regenerates the fleet-tenancy extension table.
pub fn run_figure(opts: &Opts) {
    let mut sweep = Sweep::new();
    for &tenants in scales(opts) {
        for &load in &FLEET_IOPS {
            for stack in stacks() {
                let spec = fleet_spec(opts, tenants, load, stack);
                for host in spec.expand() {
                    sweep.add(format!("{tenants}t@{load}"), host);
                }
            }
        }
    }
    let mut results = sweep.run(opts);

    let mut table = Table::new(
        "Ext F: fleet tenancy — SLO violations vs fleet load \
         (4 hosts, Zipfian 0.99, 20% L @ 2 ms, T @ 50 ms)",
        &[
            "tenants",
            "offered kIOPS",
            "stack",
            "L viol %",
            "T viol %",
            "worst L p99.9 (ms)",
            "done kIOPS",
        ],
    );
    for &tenants in scales(opts) {
        for &load in &FLEET_IOPS {
            for _ in stacks() {
                let fleet = FleetOutput {
                    hosts: results.take(HOSTS as usize),
                };
                let window_s = fleet.hosts[0].summary.window_secs();
                let worst_p999 = fleet
                    .hosts
                    .iter()
                    .map(|h| h.l_p999_ms())
                    .fold(0.0_f64, f64::max);
                table.row(&[
                    tenants.to_string(),
                    fmt_f(load / 1e3),
                    fleet.hosts[0].summary.stack.clone(),
                    fmt_f(100.0 * fleet.class_slo_violation_rate("L")),
                    fmt_f(100.0 * fleet.class_slo_violation_rate("T")),
                    fmt_f(worst_p999),
                    fmt_f(fleet.ios_completed() as f64 / window_s / 1e3),
                ]);
            }
        }
    }
    opts.emit(&table);
}
