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
//! each fleet's [`FleetOutput`] is reassembled from the cells keyed to it —
//! so the output is byte-identical for `--jobs 1` and `--jobs N` (gated by
//! `scripts/verify.sh`) and the fleet digest matches a serial
//! `testbed::run_fleet` of the same spec, `--seed` included (tested
//! below). `--quick` sweeps the 1k-tenant fleet only; the full run adds
//! the 4k and 10k scales.

use dd_metrics::table::fmt_f;
use dd_metrics::Table;
use testbed::fleet::{FleetSpec, TenantPopulation};
use testbed::scenario::{MachinePreset, StackSpec};
use testbed::FleetOutput;

use super::extension_stacks;
use crate::{Opts, Sweep};

/// Hosts per fleet — every fleet cell expands into this many machine runs.
pub const HOSTS: u16 = 4;

/// The swept fleet-load axis, in aggregate I/Os per second offered across
/// the whole fleet (Zipfian-shared over the tenants).
pub const FLEET_IOPS: [f64; 3] = [8_000.0, 20_000.0, 50_000.0];

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

/// Runs every host of every fleet as one cell of a single sweep, and
/// returns each fleet's key with its reassembled [`FleetOutput`], in order.
fn run_fleets<K>(opts: &Opts, fleets: Vec<(K, FleetSpec)>) -> Vec<(K, FleetOutput)> {
    let mut sweep = Sweep::new();
    for (f, (_, spec)) in fleets.iter().enumerate() {
        for host in spec.expand() {
            sweep.add(f, host);
        }
    }
    // Each spec already carries `--seed`, and `expand` derives a distinct
    // seed for every host from it; the sweep must not overwrite those with
    // the raw value.
    let hosts = sweep.run(&Opts {
        seed: None,
        ..opts.clone()
    });
    let mut out: Vec<(K, FleetOutput)> = fleets
        .into_iter()
        .map(|(key, _)| (key, FleetOutput { hosts: Vec::new() }))
        .collect();
    for (f, host) in hosts {
        out[f].1.hosts.push(host);
    }
    out
}

/// Regenerates the fleet-tenancy extension table.
pub fn run_figure(opts: &Opts) {
    let mut fleets = Vec::new();
    for &tenants in scales(opts) {
        for &load in &FLEET_IOPS {
            for stack in extension_stacks() {
                fleets.push(((tenants, load), fleet_spec(opts, tenants, load, stack)));
            }
        }
    }

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
    for ((tenants, load), fleet) in run_fleets(opts, fleets) {
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
    opts.emit(&table);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Under `--seed`, a fleet run through the sweep matches a serial
    /// `testbed::run_fleet` of the same spec: every host keeps the seed
    /// `FleetSpec::expand` derived for it.
    #[test]
    fn seeded_fleet_matches_a_serial_run_fleet() {
        let mut opts = Opts::new(true, false, 2);
        opts.seed = Some(7);
        let spec = fleet_spec(&opts, 40, 4_000.0, StackSpec::daredevil());
        let (_, swept) = run_fleets(&opts, vec![((), spec.clone())])
            .pop()
            .expect("one fleet");
        let mut serial = spec;
        serial.knobs.warmup = opts.warmup();
        serial.knobs.measure = opts.measure();
        let serial = testbed::run_fleet(&serial, &mut testbed::RunArena::new());
        assert_eq!(swept.hosts.len(), HOSTS as usize);
        assert_eq!(swept.digest(), serial.digest());
    }
}
