//! The simulation testbed: one machine, one device, one stack, N tenants.
//!
//! [`scenario::Scenario`] describes an experiment (machine preset, device
//! config, stack under test, tenant population, durations, fault/storm
//! injectors); [`machine::Machine`] executes it as a single deterministic
//! discrete-event loop and returns a [`runout::RunOutput`] with everything
//! the figures report: per-class latency percentiles, IOPS and
//! throughput, time series, stack overhead counters, and application
//! op-latency histograms.
//!
//! # Example
//!
//! ```
//! use testbed::scenario::{Scenario, StackSpec};
//! use simkit::SimDuration;
//!
//! // 2 L-tenants vs 4 T-tenants on 2 cores under Daredevil, 50 ms measured.
//! let mut scenario = Scenario::multi_tenant_fio(
//!     StackSpec::daredevil(),
//!     2,
//!     4,
//!     2,
//!     testbed::scenario::MachinePreset::Small,
//! );
//! scenario.knobs.warmup = SimDuration::from_millis(10);
//! scenario.knobs.measure = SimDuration::from_millis(50);
//! let out = testbed::run(scenario);
//! assert!(out.summary.class("L").ios_completed > 0);
//! ```

#![warn(missing_docs)]

pub mod fleet;
pub mod machine;
pub mod runout;
pub mod scenario;

pub use fleet::{ArrivalSpec, FleetSpec, PlacementPolicy, TenantPopulation};
pub use machine::Machine;
pub use runout::{CapacityProbe, FleetOutput, RunOutput, TenantView};
pub use scenario::{MachinePreset, RunKnobs, Scenario, StackSpec, TenantKind, TenantSpec};
pub use simkit::RunArena;

/// Runs a scenario to completion and returns its measurements.
pub fn run(scenario: Scenario) -> RunOutput {
    Machine::new(scenario).run()
}

/// Runs a scenario to completion, recycling the machine's growable
/// structures through `arena`: the event-queue lanes, CPU work queues,
/// device-output buffers, request maps, and scratch vectors parked by the
/// previous `run_in` on the same arena are adopted instead of reallocated,
/// and parked again at teardown. Output is byte-identical to [`run`] —
/// only allocation traffic differs. This is the sweep workers' fast path:
/// one arena per worker, reused across every cell it executes.
pub fn run_in(scenario: Scenario, arena: &mut RunArena) -> RunOutput {
    Machine::new_in(scenario, arena).run_in(arena)
}

/// Runs every host of a fleet cell serially against one arena and returns
/// the per-host outputs in host order. Hosts are independent machines, so
/// a sweep may equally run them as separate cells on different workers —
/// the outputs (and [`FleetOutput::digest`]) are identical either way.
pub fn run_fleet(spec: &FleetSpec, arena: &mut RunArena) -> FleetOutput {
    let hosts = spec
        .expand()
        .into_iter()
        .map(|s| run_in(s, arena))
        .collect();
    FleetOutput { hosts }
}
