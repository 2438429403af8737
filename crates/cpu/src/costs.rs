//! Host-side timing constants shared by all storage stacks.
//!
//! One struct so vanilla blk-mq, blk-switch, and Daredevil are compared on
//! identical host-cost assumptions; a stack only gets faster by *doing less
//! or different work*, never by a private constant. Values are calibrated to
//! Linux-on-NVMe orders of magnitude (see DESIGN.md §4 — shape fidelity, not
//! absolute numbers).

use simkit::SimDuration;

/// Host-side costs charged to CPU cores by the storage stacks.
#[derive(Clone, Copy, Debug)]
pub struct HostCosts {
    /// Fixed syscall entry/exit cost of one submission call (io_submit).
    pub syscall_base: SimDuration,
    /// Block-layer cost per request: bio allocation, splitting bookkeeping,
    /// tag allocation, request setup.
    pub block_layer_per_rq: SimDuration,
    /// Cost of inserting one entry into an NSQ (tail update under the lock;
    /// also the serialization quantum for NSQ contention).
    pub nsq_insert: SimDuration,
    /// Cost of one doorbell MMIO write.
    pub doorbell: SimDuration,
    /// Fixed ISR entry cost (register save, CQ head load).
    pub isr_base: SimDuration,
    /// ISR cost per completion entry (bio endio, tag release).
    pub isr_per_cqe: SimDuration,
    /// Additional ISR cost per 4 KiB page of the completed request
    /// (DMA unmap, page state) — what makes batched T-completions heavy.
    pub isr_per_page: SimDuration,
    /// Extra cost when the completion is delivered to a different core than
    /// the submitter (cache-line bouncing, remote wakeups). Charged once per
    /// remotely completed request; the Fig. 13 overhead.
    pub remote_completion: SimDuration,
    /// Extra submission-side cost when a core submits to an NSQ it does not
    /// "own" and spins on a contended tail (charged on top of measured lock
    /// waiting).
    pub remote_submission: SimDuration,
    /// Tenant-side cost to reap one completion and resubmit (io_getevents
    /// path + userspace bookkeeping).
    pub reap_per_rq: SimDuration,
    /// Context switch cost when a core moves between tenant contexts.
    pub context_switch: SimDuration,
    /// Kernel-side cost of an ionice change beyond the bare syscall:
    /// priority propagation and, for stacks that re-route on priority
    /// changes, the synchronization with in-flight scheduling state (the
    /// RCU-protected heap update of §6).
    pub ionice_update: SimDuration,
    /// Tenant-side cost of closing one application op: recording its
    /// latency and asking the workload for the next.
    pub app_op_done: SimDuration,
}

impl Default for HostCosts {
    fn default() -> Self {
        HostCosts {
            syscall_base: SimDuration::from_nanos(1_500),
            block_layer_per_rq: SimDuration::from_nanos(800),
            nsq_insert: SimDuration::from_nanos(150),
            doorbell: SimDuration::from_nanos(100),
            isr_base: SimDuration::from_nanos(1_000),
            isr_per_cqe: SimDuration::from_nanos(350),
            isr_per_page: SimDuration::from_nanos(60),
            remote_completion: SimDuration::from_nanos(800),
            remote_submission: SimDuration::from_nanos(250),
            reap_per_rq: SimDuration::from_nanos(500),
            context_switch: SimDuration::from_nanos(1_200),
            ionice_update: SimDuration::from_micros(4),
            app_op_done: SimDuration::from_nanos(200),
        }
    }
}

impl HostCosts {
    /// Submission-path CPU cost for a batch of `rqs` requests issued in one
    /// syscall.
    pub fn submit_cost(&self, rqs: u32) -> SimDuration {
        self.syscall_base + self.block_layer_per_rq * rqs as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_cost_scales() {
        let c = HostCosts::default();
        assert!(c.submit_cost(32) > c.submit_cost(1) * 8);
        assert_eq!(c.submit_cost(1), c.syscall_base + c.block_layer_per_rq);
    }
}
