//! Per-tenant and per-run measurement roll-ups.
//!
//! The testbed tags every tenant with a free-form class label (`"L"`, `"T"`,
//! `"TL"`, `"app"`, …); [`RunSummary`] aggregates tenants by label so the
//! figures can report exactly the series the paper plots: L-tenant
//! p99.9/average latency, L-tenant IOPS, T-tenant throughput.

use simkit::{SimDuration, SimTime};

use crate::hist::LatencyHistogram;

/// Everything measured for one tenant over the measurement window.
#[derive(Clone, Debug)]
pub struct TenantSummary {
    /// Stable tenant identifier assigned by the scenario.
    pub tenant_id: u64,
    /// Class label used for aggregation (e.g. `"L"`, `"T"`).
    pub class: String,
    /// End-to-end I/O latency distribution (submission syscall → completion
    /// delivered to the tenant).
    pub latency: LatencyHistogram,
    /// Completed I/Os within the window.
    pub ios_completed: u64,
    /// Completed bytes within the window.
    pub bytes_completed: u64,
    /// I/Os issued within the window (issued − completed = in flight at end).
    pub ios_issued: u64,
    /// In-window completions slower than the tenant's latency SLO (0 when
    /// the scenario configures no SLO — QWin-style per-class accounting).
    pub slo_violations: u64,
}

impl TenantSummary {
    /// Creates an empty summary for a tenant.
    pub fn new(tenant_id: u64, class: impl Into<String>) -> Self {
        TenantSummary {
            tenant_id,
            class: class.into(),
            latency: LatencyHistogram::new(),
            ios_completed: 0,
            bytes_completed: 0,
            ios_issued: 0,
            slo_violations: 0,
        }
    }

    /// Records a completed I/O.
    pub fn record_completion(&mut self, latency: SimDuration, bytes: u64) {
        self.latency.record(latency);
        self.ios_completed += 1;
        self.bytes_completed += bytes;
    }
}

/// Aggregate view over all tenants sharing a class label.
#[derive(Clone, Debug)]
pub struct ClassSummary {
    /// The class label.
    pub class: String,
    /// Number of tenants aggregated.
    pub tenants: usize,
    /// Merged latency distribution.
    pub latency: LatencyHistogram,
    /// Total completed I/Os.
    pub ios_completed: u64,
    /// Total completed bytes.
    pub bytes_completed: u64,
    /// Total SLO violations.
    pub slo_violations: u64,
}

impl ClassSummary {
    /// Fraction of in-window completions that violated their SLO.
    pub fn slo_violation_rate(&self) -> f64 {
        if self.ios_completed == 0 {
            return 0.0;
        }
        self.slo_violations as f64 / self.ios_completed as f64
    }

    /// Aggregate IOPS over a window of `secs` seconds.
    pub fn iops(&self, secs: f64) -> f64 {
        self.ios_completed as f64 / secs
    }

    /// Aggregate throughput in MB/s (10⁶ bytes) over `secs` seconds.
    pub fn throughput_mbps(&self, secs: f64) -> f64 {
        self.bytes_completed as f64 / 1e6 / secs
    }
}

/// A complete run result: measurement window plus per-tenant summaries.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Name of the stack under test (`"vanilla"`, `"blk-switch"`, …).
    pub stack: String,
    /// Start of the measurement window (after warm-up).
    pub window_start: SimTime,
    /// End of the measurement window.
    pub window_end: SimTime,
    /// Per-tenant summaries.
    pub tenants: Vec<TenantSummary>,
    /// Total events processed by the simulator (engine health statistic).
    pub events_processed: u64,
    /// Per-core busy fraction over the window, indexed by core id.
    pub core_busy_frac: Vec<f64>,
}

impl RunSummary {
    /// Measurement window length in seconds.
    pub fn window_secs(&self) -> f64 {
        (self.window_end - self.window_start).as_secs_f64()
    }

    /// Aggregates tenants whose class equals `class`.
    pub fn class(&self, class: &str) -> ClassSummary {
        let mut agg = ClassSummary {
            class: class.to_string(),
            tenants: 0,
            latency: LatencyHistogram::new(),
            ios_completed: 0,
            bytes_completed: 0,
            slo_violations: 0,
        };
        for t in self.tenants.iter().filter(|t| t.class == class) {
            agg.tenants += 1;
            agg.latency.merge(&t.latency);
            agg.ios_completed += t.ios_completed;
            agg.bytes_completed += t.bytes_completed;
            agg.slo_violations += t.slo_violations;
        }
        agg
    }

    /// All distinct class labels in deterministic (first-seen) order.
    pub fn classes(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for t in &self.tenants {
            if !out.contains(&t.class) {
                out.push(t.class.clone());
            }
        }
        out
    }

    /// Jain's fairness index over the per-tenant throughput of one class:
    /// `(Σx)² / (n·Σx²)`, 1.0 = perfectly fair, 1/n = one tenant hogging.
    ///
    /// The paper's NQ-scheduling criteria target exactly this kind of
    /// even request distribution; the index quantifies it.
    pub fn jain_fairness(&self, class: &str) -> f64 {
        let xs: Vec<f64> = self
            .tenants
            .iter()
            .filter(|t| t.class == class)
            .map(|t| t.bytes_completed as f64)
            .collect();
        if xs.is_empty() {
            return 1.0;
        }
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            return 1.0;
        }
        (sum * sum) / (xs.len() as f64 * sq)
    }

    /// Mean CPU busy fraction across cores.
    pub fn avg_cpu_util(&self) -> f64 {
        if self.core_busy_frac.is_empty() {
            return 0.0;
        }
        self.core_busy_frac.iter().sum::<f64>() / self.core_busy_frac.len() as f64
    }

    /// One-line headline for logs: L latency + T throughput.
    pub fn headline(&self) -> String {
        let l = self.class("L");
        let t = self.class("T");
        format!(
            "{}: L p99.9={} avg={} iops={:.0} | T tput={:.1} MB/s | cpu={:.0}%",
            self.stack,
            l.latency.p999(),
            l.latency.mean(),
            l.iops(self.window_secs()),
            t.throughput_mbps(self.window_secs()),
            self.avg_cpu_util() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_run() -> RunSummary {
        let mut l0 = TenantSummary::new(0, "L");
        l0.record_completion(SimDuration::from_micros(100), 4096);
        l0.record_completion(SimDuration::from_micros(300), 4096);
        let mut l1 = TenantSummary::new(1, "L");
        l1.record_completion(SimDuration::from_micros(200), 4096);
        let mut t0 = TenantSummary::new(2, "T");
        t0.record_completion(SimDuration::from_millis(5), 131072);
        RunSummary {
            stack: "vanilla".into(),
            window_start: SimTime::ZERO,
            window_end: SimTime::from_secs(2),
            tenants: vec![l0, l1, t0],
            events_processed: 0,
            core_busy_frac: vec![0.5, 1.0],
        }
    }

    #[test]
    fn class_aggregation() {
        let run = mk_run();
        let l = run.class("L");
        assert_eq!(l.tenants, 2);
        assert_eq!(l.ios_completed, 3);
        assert_eq!(l.bytes_completed, 3 * 4096);
        let t = run.class("T");
        assert_eq!(t.tenants, 1);
        assert_eq!(t.bytes_completed, 131072);
    }

    #[test]
    fn rates_use_window() {
        let run = mk_run();
        assert_eq!(run.window_secs(), 2.0);
        assert!((run.class("L").iops(run.window_secs()) - 1.5).abs() < 1e-9);
        let tput = run.class("T").throughput_mbps(run.window_secs());
        assert!((tput - 131072.0 / 1e6 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn classes_in_first_seen_order() {
        let run = mk_run();
        assert_eq!(run.classes(), vec!["L".to_string(), "T".to_string()]);
    }

    #[test]
    fn cpu_util_mean() {
        let run = mk_run();
        assert!((run.avg_cpu_util() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn headline_mentions_stack() {
        let run = mk_run();
        assert!(run.headline().starts_with("vanilla:"));
    }

    #[test]
    fn jain_fairness_index() {
        let mut run = mk_run();
        // One T-tenant: trivially fair.
        assert!((run.jain_fairness("T") - 1.0).abs() < 1e-12);
        // Add an equal T-tenant: still 1.0.
        let mut t1 = TenantSummary::new(3, "T");
        t1.record_completion(SimDuration::from_millis(5), 131072);
        run.tenants.push(t1);
        assert!((run.jain_fairness("T") - 1.0).abs() < 1e-12);
        // A starved third tenant drops the index toward 2/3.
        run.tenants.push(TenantSummary::new(4, "T"));
        let j = run.jain_fairness("T");
        assert!((j - 2.0 / 3.0).abs() < 1e-12, "j={j}");
        // Unknown class: vacuously fair.
        assert_eq!(run.jain_fairness("nope"), 1.0);
    }

    #[test]
    fn missing_class_is_empty() {
        let run = mk_run();
        let x = run.class("nope");
        assert_eq!(x.tenants, 0);
        assert_eq!(x.ios_completed, 0);
        assert!(x.latency.is_empty());
    }
}
