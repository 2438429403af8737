//! Device configuration and the performance/timing model.

use simkit::SimDuration;

use crate::flash::FlashConfig;
use crate::spec::BLOCK_BYTES;

/// Timing parameters of the emulated controller.
///
/// Values are calibrated to enterprise-NVMe orders of magnitude; the
/// reproduction claims *shape* fidelity, not absolute numbers (DESIGN.md §4).
#[derive(Clone, Copy, Debug)]
pub struct PerfModel {
    /// Fixed controller cost to fetch + parse one SQ entry.
    pub fetch_base: SimDuration,
    /// Additional fetch/decompose cost per 4 KiB page of the command.
    ///
    /// This is what makes a head-of-line 128 KiB T-request hold the fetch
    /// engine ~32× longer than a 4 KiB L-request (§2.3 of the paper).
    pub fetch_per_page: SimDuration,
    /// Cost to post one completion entry and update the CQ.
    pub completion_post: SimDuration,
    /// Latency from IRQ assertion to the host core seeing it.
    pub irq_delivery: SimDuration,
    /// Service time of a flush command (cache ripple, no flash ops).
    pub flush_latency: SimDuration,
}

impl Default for PerfModel {
    fn default() -> Self {
        PerfModel {
            fetch_base: SimDuration::from_nanos(600),
            fetch_per_page: SimDuration::from_nanos(250),
            completion_post: SimDuration::from_nanos(300),
            irq_delivery: SimDuration::from_micros(2),
            flush_latency: SimDuration::from_micros(20),
        }
    }
}

impl PerfModel {
    /// Fetch + decompose cost for a command of `pages` 4 KiB pages.
    pub fn fetch_cost(&self, pages: u32) -> SimDuration {
        self.fetch_base + self.fetch_per_page * pages as u64
    }
}

/// Complete configuration of an emulated NVMe SSD.
#[derive(Clone, Debug)]
pub struct NvmeConfig {
    /// Number of NVMe submission queues.
    pub nr_sqs: u16,
    /// Number of NVMe completion queues. Each SQ `i` binds CQ `i % nr_cqs`.
    pub nr_cqs: u16,
    /// Queue depth (entries) for every SQ. The paper's SSDs use 1024.
    pub sq_depth: u16,
    /// Controller-internal flow control: maximum 4 KiB pages of fetched,
    /// unfinished commands. The controller stops fetching from NSQs while
    /// the in-flight page budget is exhausted, so backlog accumulates *in
    /// the NSQs* — which is where the multi-tenancy HOL lives (§2.3) and
    /// where NQ-level separation can bypass it. Without this, an unbounded
    /// fetch engine would move the entire backlog into the flash queues and
    /// no host-side mechanism could help.
    pub max_inflight_pages: u32,
    /// Per-namespace capacity in logical blocks. Length = namespace count.
    pub namespace_blocks: Vec<u64>,
    /// Timing model.
    pub perf: PerfModel,
    /// Flash backend geometry and timings.
    pub flash: FlashConfig,
}

impl NvmeConfig {
    /// An SV-M-like enterprise SSD: 64 NSQs, 64 NCQs (1:1), one namespace.
    ///
    /// Mirrors the paper's Samsung PM1735 as exposed to a 64-core host.
    pub fn sv_m() -> Self {
        NvmeConfig {
            nr_sqs: 64,
            nr_cqs: 64,
            sq_depth: 1024,
            max_inflight_pages: 512,
            namespace_blocks: vec![Self::gib_blocks(64)],
            perf: PerfModel::default(),
            flash: FlashConfig::enterprise(),
        }
    }

    /// A WS-M-like consumer SSD: 128 NSQs sharing 24 NCQs, one namespace.
    ///
    /// Mirrors the paper's Samsung 980Pro (128 NQs, ≥5 NSQs per NCQ).
    pub fn ws_m() -> Self {
        NvmeConfig {
            nr_sqs: 128,
            nr_cqs: 24,
            sq_depth: 1024,
            max_inflight_pages: 256,
            namespace_blocks: vec![Self::gib_blocks(64)],
            perf: PerfModel::default(),
            flash: FlashConfig::consumer(),
        }
    }

    /// Splits the device into `n` equally sized namespaces (Fig. 10 setup).
    pub fn with_namespaces(mut self, n: u32) -> Self {
        let total: u64 = self.namespace_blocks.iter().sum();
        let per = total / n as u64;
        self.namespace_blocks = vec![per; n as usize];
        self
    }

    /// Overrides the number of SQs/CQs (e.g. Fig. 13 confines 16 NQs).
    pub fn with_queues(mut self, sqs: u16, cqs: u16) -> Self {
        self.nr_sqs = sqs;
        self.nr_cqs = cqs;
        self
    }

    /// Blocks for a GiB figure.
    fn gib_blocks(gib: u64) -> u64 {
        gib * 1024 * 1024 * 1024 / BLOCK_BYTES
    }

    /// Number of namespaces.
    pub fn nr_namespaces(&self) -> u32 {
        self.namespace_blocks.len() as u32
    }

    /// The CQ bound to a given SQ: `sq % nr_cqs`.
    pub fn cq_of_sq(&self, sq: u16) -> u16 {
        sq % self.nr_cqs
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.nr_sqs == 0 || self.nr_cqs == 0 {
            return Err("need at least one SQ and CQ".into());
        }
        if self.nr_cqs > self.nr_sqs {
            return Err("more CQs than SQs is not supported".into());
        }
        if self.sq_depth < 2 {
            return Err("queue depth must be >= 2".into());
        }
        if self.max_inflight_pages == 0 {
            return Err("in-flight page budget must be >= 1".into());
        }
        if self.namespace_blocks.is_empty() {
            return Err("need at least one namespace".into());
        }
        if self.namespace_blocks.contains(&0) {
            return Err("zero-capacity namespace".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        NvmeConfig::sv_m().validate().unwrap();
        NvmeConfig::ws_m().validate().unwrap();
    }

    #[test]
    fn sv_m_is_one_to_one() {
        let c = NvmeConfig::sv_m();
        assert_eq!(c.nr_sqs, 64);
        assert_eq!(c.nr_cqs, 64);
        assert_eq!(c.cq_of_sq(17), 17);
    }

    #[test]
    fn ws_m_fans_out() {
        let c = NvmeConfig::ws_m();
        assert_eq!(c.nr_sqs, 128);
        assert_eq!(c.nr_cqs, 24);
        // At least 5 NSQs per NCQ, as the paper states.
        assert!(c.nr_sqs / c.nr_cqs >= 5);
        assert_eq!(c.cq_of_sq(25), 1);
    }

    #[test]
    fn namespace_split_conserves_capacity() {
        let c = NvmeConfig::sv_m();
        let total: u64 = c.namespace_blocks.iter().sum();
        let c4 = c.with_namespaces(4);
        assert_eq!(c4.nr_namespaces(), 4);
        let per = c4.namespace_blocks[0];
        assert_eq!(per * 4, total - total % 4);
    }

    #[test]
    fn fetch_cost_scales_with_pages() {
        let p = PerfModel::default();
        let small = p.fetch_cost(1);
        let big = p.fetch_cost(32);
        assert!(big.as_nanos() > small.as_nanos() * 5);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = NvmeConfig::sv_m();
        c.nr_cqs = 0;
        assert!(c.validate().is_err());
        let mut c = NvmeConfig::sv_m();
        c.namespace_blocks.clear();
        assert!(c.validate().is_err());
    }
}
