//! The nproxy layer of blex: per-NSQ state exposed to the block layer.
//!
//! NSQs belong to the NVMe driver; exposing them directly to the block layer
//! would break the kernel's module boundary. blex instead interposes one
//! [`Nproxy`] per NSQ — a lightweight wrapper carrying the queue's identity
//! (its paired NCQ), the priority nqreg designated it to serve, and the
//! bitmap of CPU cores claiming frequent use of it (the contention hint
//! troute maintains for NQ scheduling, §5.2). Proxies are device-level and
//! therefore uniform across namespaces — the root of Daredevil's
//! multi-namespace support. nqreg holds them, one row per NSQ
//! ([`crate::NqReg::proxy`]).
//!
//! # Paper mapping (§4 "blex", §5.1)
//!
//! | This module | Paper concept |
//! |---|---|
//! | [`Nproxy`] | the per-NSQ proxy blex interposes between block layer and driver (§4, Fig. 4) |
//! | [`Nproxy::cq`] | the implicitly observable NSQ→NCQ pairing (§5.1) |
//! | [`Nproxy::prio`] | the SLA designation nqreg assigns at init (§5.3, Alg. 2 input) |
//! | [`Nproxy::claim`]/[`Nproxy::nr_claimed_cores`] | `nq.nr_claimed_cores`, the contention hint of Algorithm 2 line 6 |
//! | [`Priority`] | the two SLA classes: L (latency-sensitive) / T (throughput-oriented), §2 |
//! | [`crate::NqReg::proxy`] | the device-level proxy array giving every core a path to every NSQ (§4): nqreg's per-NSQ rows, uniform across namespaces, hence multi-namespace support (§6, Fig. 10) |

use dd_nvme::{CqId, SqId};

/// The SLA a queue serves.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Priority {
    /// Serves L-requests (latency-sensitive).
    High,
    /// Serves T-requests (throughput-oriented).
    Low,
}

impl Priority {
    /// Dense index for per-priority arrays.
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Low => 1,
        }
    }

    /// Both priorities, high first.
    pub const ALL: [Priority; 2] = [Priority::High, Priority::Low];
}

/// One NSQ's proxy.
#[derive(Clone, Copy, Debug)]
pub struct Nproxy {
    /// The NSQ this proxy wraps.
    pub sq: SqId,
    /// The NCQ paired with the NSQ (implicitly observable, §5.1).
    pub cq: CqId,
    /// The SLA this NSQ serves, designated by nqreg.
    pub prio: Priority,
    /// Bitmap of cores whose tenants use this NSQ as default/outlier NSQ.
    claimed_cores: u128,
    /// Number of tenant assignments currently pointing here (used as the
    /// deterministic tie-breaker that spreads fresh tenants over idle NQs).
    assignments: u32,
}

impl Nproxy {
    /// Creates a proxy.
    pub fn new(sq: SqId, cq: CqId, prio: Priority) -> Self {
        Nproxy {
            sq,
            cq,
            prio,
            claimed_cores: 0,
            assignments: 0,
        }
    }

    /// A tenant on `core` starts using this NSQ as default/outlier NSQ.
    pub fn claim(&mut self, core: u16) {
        debug_assert!(core < 128, "claimed-core bitmap supports 128 cores");
        self.claimed_cores |= 1u128 << core;
        self.assignments += 1;
    }

    /// A tenant on `core` stops using this NSQ. `core_still_used` tells
    /// whether other tenants on the same core still claim it (the bitmap bit
    /// only clears when the last claimant on that core leaves).
    pub fn unclaim(&mut self, core: u16, core_still_used: bool) {
        debug_assert!(self.assignments > 0, "unclaim without claim");
        self.assignments -= 1;
        if !core_still_used {
            self.claimed_cores &= !(1u128 << core);
        }
    }

    /// Number of distinct cores claiming this NSQ (`nq.nr_claimed_cores` in
    /// Algorithm 2).
    pub fn nr_claimed_cores(&self) -> u32 {
        self.claimed_cores.count_ones()
    }

    /// Number of tenant assignments pointing here.
    pub fn assignments(&self) -> u32 {
        self.assignments
    }

    /// True if `core` is in the claimed bitmap.
    pub fn claims_core(&self, core: u16) -> bool {
        self.claimed_cores & (1u128 << core) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_bitmap_counts_distinct_cores() {
        let mut p = Nproxy::new(SqId(0), CqId(0), Priority::High);
        p.claim(1);
        p.claim(1); // Second tenant on the same core.
        p.claim(3);
        assert_eq!(p.nr_claimed_cores(), 2);
        assert_eq!(p.assignments(), 3);
        assert!(p.claims_core(1));
        assert!(!p.claims_core(2));
    }

    #[test]
    fn unclaim_clears_bit_only_when_last() {
        let mut p = Nproxy::new(SqId(0), CqId(0), Priority::High);
        p.claim(5);
        p.claim(5);
        p.unclaim(5, true);
        assert!(p.claims_core(5), "another tenant still claims core 5");
        p.unclaim(5, false);
        assert!(!p.claims_core(5));
        assert_eq!(p.assignments(), 0);
    }

    #[test]
    fn priority_indices() {
        assert_eq!(Priority::High.index(), 0);
        assert_eq!(Priority::Low.index(), 1);
    }
}
