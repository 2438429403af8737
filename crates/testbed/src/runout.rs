//! Run results: everything a figure needs from one run.

use std::collections::HashMap;

use blkstack::stack::StackStats;
use dd_metrics::{LatencyHistogram, RunSummary, TenantSummary, TimeSeries};
use dd_workload::OpKind;
use simkit::SimDuration;

/// Capacity snapshot of the per-I/O structures of one machine: the stack's
/// request-map slabs ([`blkstack::dispatch::Dispatch::io_capacity`]) plus
/// the tables a stack owns beside them, such as elevator FIFOs and
/// virtio's in-flight map ([`blkstack::stack::StorageStack::io_capacity`]),
/// the event-queue lanes and the device's command slab
/// ([`dd_nvme::NvmeDevice::cmd_capacity`], which holds every NSQ and NCQ
/// entry). The machine records one probe at end-of-warmup and one at run
/// end; `cap_warmup == cap_end` is the capacity-stability claim — nothing
/// on the per-I/O path allocated mid-measurement — which the fleet
/// properties assert at 10k tenants. [`crate::Machine::capacity_probe`]
/// taken right after construction reads the reservations themselves, and
/// a closed-loop run ends with that probe.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CapacityProbe {
    /// Request-map slot capacity (bio + request slabs).
    pub io_slots: usize,
    /// Event-queue backing capacity in events (near lane + far heap).
    pub events: usize,
    /// Device command-slab capacity in commands (queued in an NSQ, in
    /// flash, or awaiting reap in an NCQ).
    pub device_cmds: usize,
}

/// Per-class time series (Fig. 8 curves).
#[derive(Clone, Debug)]
pub struct ClassSeries {
    /// Latency samples per bucket (mean = avg latency over time).
    pub latency: TimeSeries,
    /// Completed bytes per bucket (rate = throughput over time).
    pub bytes: TimeSeries,
}

/// The complete measurement output of one scenario run.
#[derive(Debug)]
pub struct RunOutput {
    /// Aggregate per-tenant summary (latency percentiles, IOPS, bytes).
    pub summary: RunSummary,
    /// Per-class time series, keyed by class label.
    pub series: HashMap<&'static str, ClassSeries>,
    /// Structured span-trace events harvested from the run's sink, oldest
    /// first (empty unless the scenario enabled tracing). Stitch with
    /// `dd_metrics::SpanTable`.
    pub trace: Vec<simkit::TraceEvent>,
    /// Trace events evicted because the ring wrapped (0 = trace complete).
    pub trace_dropped: u64,
    /// Storage-stack counters (lock waits, remote completions, steering…).
    pub stack_stats: StackStats,
    /// Application op-latency histograms merged across app tenants.
    pub op_latencies: HashMap<OpKind, LatencyHistogram>,
    /// Mean in-flash queueing delay (device congestion indicator).
    pub flash_queue_delay: SimDuration,
    /// A copy of `summary.events_processed`, kept for ddbench only;
    /// ROADMAP item 5 deletes it. Read the original.
    pub events_processed: u64,
    /// A copy of `stack_stats.route.reassignments`, kept for ddbench only;
    /// ROADMAP item 5 deletes it. Read the original.
    pub troute_reassignments: u64,
    /// A copy of `stack_stats.route`, kept for ddbench only; ROADMAP item 5
    /// deletes it. Read the original.
    pub route_stats: daredevil::RouteStats,
    /// Fault-injection and recovery counters (all zero without faults).
    pub fault: dd_metrics::FaultRecovery,
    /// Per-I/O capacity snapshot at end of warmup.
    pub cap_warmup: CapacityProbe,
    /// Per-I/O capacity snapshot at run end; equal to `cap_warmup` when the
    /// hot path stayed allocation-free through the measurement window.
    pub cap_end: CapacityProbe,
    /// App tenants still running when the run ended. A
    /// `stop_when_apps_done` run with any left was cut off by its ceiling.
    /// Not part of [`FleetOutput::digest`].
    pub apps_unfinished: usize,
}

/// Read-only accessor over one tenant's measured results — the stable way
/// for figures to consume per-tenant data instead of poking `RunSummary`
/// internals. Identical for single-machine runs ([`RunOutput::tenants`])
/// and fleet runs ([`FleetOutput::tenants`]).
#[derive(Clone, Copy, Debug)]
pub struct TenantView<'a> {
    t: &'a TenantSummary,
}

impl<'a> TenantView<'a> {
    /// Stable tenant identifier assigned by the scenario.
    pub fn id(&self) -> u64 {
        self.t.tenant_id
    }

    /// SLA class label (`"L"`, `"T"`, `"app"`, …).
    pub fn class(&self) -> &'a str {
        self.t.class
    }

    /// I/Os issued within the measurement window.
    pub fn ios_issued(&self) -> u64 {
        self.t.ios_issued
    }

    /// I/Os completed within the measurement window.
    pub fn ios_completed(&self) -> u64 {
        self.t.ios_completed
    }

    /// Bytes completed within the measurement window.
    pub fn bytes_completed(&self) -> u64 {
        self.t.bytes_completed
    }

    /// End-to-end I/O latency distribution.
    pub fn latency(&self) -> &'a LatencyHistogram {
        &self.t.latency
    }

    /// In-window completions slower than the tenant's SLO (0 without one).
    pub fn slo_violations(&self) -> u64 {
        self.t.slo_violations
    }
}

impl RunOutput {
    /// Convenience: L-class p99.9 latency in milliseconds.
    pub fn l_p999_ms(&self) -> f64 {
        self.summary.class("L").latency.p999().as_millis_f64()
    }

    /// Convenience: L-class mean latency in milliseconds.
    pub fn l_avg_ms(&self) -> f64 {
        self.summary.class("L").latency.mean().as_millis_f64()
    }

    /// Convenience: L-class aggregate IOPS (thousands).
    pub fn l_kiops(&self) -> f64 {
        let ios: u64 = self.class_tenants("L").map(|t| t.ios_completed).sum();
        ios as f64 / self.summary.window_secs() / 1e3
    }

    /// Convenience: T-class aggregate throughput in MB/s.
    pub fn t_mbps(&self) -> f64 {
        let bytes: u64 = self.class_tenants("T").map(|t| t.bytes_completed).sum();
        bytes as f64 / 1e6 / self.summary.window_secs()
    }

    /// The tenants of one class. Counter-only roll-ups read these directly
    /// instead of [`RunSummary::class`], which also merges every histogram.
    fn class_tenants<'a>(&'a self, class: &'a str) -> impl Iterator<Item = &'a TenantSummary> {
        self.summary
            .tenants
            .iter()
            .filter(move |t| t.class == class)
    }

    /// Per-tenant results in tenant order (stable across runs and `--jobs`).
    pub fn tenants(&self) -> impl Iterator<Item = TenantView<'_>> {
        self.summary.tenants.iter().map(|t| TenantView { t })
    }
}

/// SplitMix64-style avalanche step for [`FleetOutput::digest`].
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The measurement output of one fleet cell: every host's [`RunOutput`] in
/// host order. Hosts are independent machines, so the fleet result is just
/// the ordered collection plus aggregation helpers over it.
#[derive(Debug)]
pub struct FleetOutput {
    /// Per-host outputs, index = host id in the [`crate::fleet::FleetSpec`].
    pub hosts: Vec<RunOutput>,
}

impl FleetOutput {
    /// Per-tenant results across all hosts, host-major then tenant order —
    /// the same [`TenantView`] API a single-machine run exposes.
    pub fn tenants(&self) -> impl Iterator<Item = TenantView<'_>> {
        self.hosts.iter().flat_map(|h| h.tenants())
    }

    /// Total I/Os completed in-window across the fleet.
    pub fn ios_completed(&self) -> u64 {
        self.tenants().map(|t| t.ios_completed()).sum()
    }

    /// Total simulator events processed across the fleet.
    pub fn events_processed(&self) -> u64 {
        self.hosts.iter().map(|h| h.summary.events_processed).sum()
    }

    /// SLO-violation rate restricted to one SLA class.
    pub fn class_slo_violation_rate(&self, class: &str) -> f64 {
        let (viol, done) = self
            .tenants()
            .filter(|t| t.class() == class)
            .fold((0u64, 0u64), |(v, d), t| {
                (v + t.slo_violations(), d + t.ios_completed())
            });
        if done == 0 {
            return 0.0;
        }
        viol as f64 / done as f64
    }

    /// Order-sensitive digest over every tenant's measured counters —
    /// the determinism properties compare this across re-runs and across
    /// `--jobs 1` vs `--jobs N`.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut absorb = |x: u64| h = mix64(h ^ x).wrapping_mul(0x100_0000_01b3);
        for (hi, host) in self.hosts.iter().enumerate() {
            absorb(hi as u64);
            absorb(host.summary.events_processed);
            for t in host.tenants() {
                absorb(t.id());
                for b in t.class().bytes() {
                    absorb(b as u64);
                }
                absorb(t.ios_issued());
                absorb(t.ios_completed());
                absorb(t.bytes_completed());
                absorb(t.slo_violations());
                absorb(t.latency().count());
                absorb(t.latency().mean().as_nanos());
                absorb(t.latency().p999().as_nanos());
            }
        }
        h
    }
}
