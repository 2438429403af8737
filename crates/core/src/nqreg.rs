//! nqreg: the NQ-level regulator (Algorithm 2).
//!
//! nqreg owns the *NQ heterogeneity*: at driver initialization it divides
//! the NCQs (and their attached NSQs) into a high- and a low-priority
//! NQGroup, then serves NSQ-selection queries from troute by a two-step
//! scheduling procedure inside the requested group:
//!
//! 1. pick an NCQ from the group's merit min-heap (criterion: IRQ
//!    balancing);
//! 2. pick an NSQ from the chosen NCQ's merit min-heap (criterion:
//!    contention avoidance); with a 1:1 NSQ–NCQ binding this step
//!    degenerates to the single attached NSQ.
//!
//! Merits are exponentially smoothed ([`ALPHA`] = 0.8) and heaps are only
//! recomputed when their MRU budget is exhausted, bounding the scheduling
//! cost on the critical path. The kernel prototype protects the heaps with
//! RCU; the simulation is single-threaded, so what is modelled is the
//! *update frequency* the MRU policy produces — the performance-relevant
//! part.
//!
//! # Paper mapping (§4 "nqreg", §5.3, Algorithm 2)
//!
//! | This module | Paper concept |
//! |---|---|
//! | [`NqReg::new`] | driver initialization: one proxy row per NSQ ([`NqReg::proxy`], blex's proxies, §4) and the NQGroups over them |
//! | [`divide_priorities`] | init-time equal division of NCQs into high/low NQGroups, §5.3; each proxy's [`crate::Nproxy::prio`] is its NCQ's share |
//! | [`ncq_merit_k`] | `MeritCalc` NCQ step — IRQ balancing criterion, Algorithm 2 line 4 |
//! | [`nsq_merit_k`] | `MeritCalc` NSQ step — contention-avoidance criterion, Algorithm 2 line 6 |
//! | [`NqReg::schedule`] | the two-step heap query serving troute, Algorithm 2 lines 1–8 |
//! | the policy's merit decisions | Algorithm 2's criteria as [`crate::policy::Policy::ncq_merit`] / [`nsq_merit`](crate::policy::Policy::nsq_merit); every arm but [`crate::PolicySpec::FairShare`] delegates to the two `*_merit_k` functions above bit-for-bit |
//! | [`ALPHA`] | exponential merit smoothing with `α ∈ (0.5, 1)`, 0.8 in the evaluation, §5.3 and §7 |
//! | [`NqReg::mru`] | the MRU budget: bounded heap re-sorts on the critical path (`m` decrements, resort at 0), §5.3 |
//! | `NqReg::doorbell` / `NqReg::reap` | SLA-aware I/O service dispatching: immediate vs batched doorbells / per-request vs batched completions, §5.3 |
//!
//! The "merit heap always returns the min" workspace invariant lives in
//! `simkit` (`keyed_heap_top_is_min`); the wall-clock cost the MRU budget
//! amortises is measured by `bench/benches/micro.rs` (`nqreg/*`).

use dd_nvme::{CqId, NvmeDevice, SqId};
use simkit::{Ewma, KeyedMinHeap, SimDuration};

use blkstack::nsqlock::NsqLockTable;

use crate::config::{DaredevilConfig, Variant};
use crate::nproxy::{Nproxy, Priority};
use crate::policy::{
    CompletionMode, DoorbellCtx, DoorbellMode, NcqMeritCtx, NsqMeritCtx, Policy, ReapCtx,
};

/// Exponential smoothing weight α of the merit calculation. The paper uses
/// 0.8, the best balance between history and recency (§7).
pub const ALPHA: f64 = 0.8;

/// Equal division of NCQs into priorities: first half high, second half low
/// (nqreg cannot foresee the tenant mix at init, §5.3). A single-CQ device
/// cannot be divided; everything lands in one shared group.
pub fn divide_priorities(nr_cqs: u16) -> Vec<Priority> {
    if nr_cqs < 2 {
        return vec![Priority::High; nr_cqs as usize];
    }
    let half = nr_cqs / 2;
    (0..nr_cqs)
        .map(|i| {
            if i < half {
                Priority::High
            } else {
                Priority::Low
            }
        })
        .collect()
}

/// The instantaneous NCQ merit (`MeritCalc`, Algorithm 2 line 4):
/// `(in_flight/depth + complete/irqs) × irqs`, computed over the window
/// since the last heap update.
pub fn ncq_merit_k(in_flight: u64, depth: u16, complete_delta: u64, irq_delta: u64) -> f64 {
    let incoming = in_flight as f64 / depth.max(1) as f64;
    let per_irq = complete_delta as f64 / irq_delta.max(1) as f64;
    (incoming + per_irq) * irq_delta as f64
}

/// The instantaneous NSQ merit (Algorithm 2 line 6):
/// `(in_lock_us/submitted_rqs) × nr_claimed_cores` over the window since the
/// last heap update.
pub fn nsq_merit_k(lock_wait: SimDuration, submitted_delta: u64, claimed_cores: u32) -> f64 {
    let per_rq_us = lock_wait.as_micros_f64() / submitted_delta.max(1) as f64;
    per_rq_us * claimed_cores.max(1) as f64
}

/// Weight of the assignment-count tie-breaker added to every merit.
///
/// Fresh queues all have zero merit; without a tie-breaker every new tenant
/// would be assigned the same NSQ. Counting current assignments (scaled far
/// below any real merit signal) spreads tenants deterministically — the
/// "helps to distribute tenants to use different NQs" behaviour of §5.3.
const ASSIGNMENT_TIE_WEIGHT: f64 = 1e-3;

#[derive(Debug)]
struct NcqMeritState {
    ewma: Ewma,
    last_complete: u64,
    last_irqs: u64,
}

#[derive(Debug)]
struct NsqMeritState {
    ewma: Ewma,
    last_lock_wait: SimDuration,
    last_submitted: u64,
}

/// Per-NCQ node: the attached NSQs and their merit heap.
#[derive(Debug)]
struct NcqNode {
    nsq_heap: KeyedMinHeap<SqId>,
    mru: i64,
}

/// One priority group of NCQs.
#[derive(Debug)]
struct NqGroup {
    ncq_heap: KeyedMinHeap<CqId>,
    mru: i64,
    /// Flattened NSQ list for the round-robin fallback (`dare-base`).
    rr_flat: Vec<SqId>,
    rr_cursor: usize,
}

/// The NQ regulator: the NQ table (one [`Nproxy`] row per NSQ), the
/// NQGroups and merit heaps over it, and the [`Policy`] whose merit,
/// doorbell and reap decisions it applies.
#[derive(Debug)]
pub struct NqReg {
    /// The stack's decisions: merits here, routing for troute, doorbells
    /// and reaps for the I/O service dispatching (§5.3).
    pub(crate) policy: Policy,
    /// blex's proxies, indexed by NSQ id.
    proxies: Vec<Nproxy>,
    /// Every merit heap's MRU budget: the device's NSQ depth (§5.2).
    mru: u32,
    /// Merit-based scheduling on (false = round-robin, the `dare-base`
    /// ablation).
    use_merit: bool,
    groups: [NqGroup; 2],
    ncq_nodes: Vec<NcqNode>,
    ncq_state: Vec<NcqMeritState>,
    nsq_state: Vec<NsqMeritState>,
    /// Heap recomputations performed (observability: the MRU policy's whole
    /// point is keeping this small relative to queries).
    resorts: u64,
    queries: u64,
}

impl NqReg {
    /// Builds the regulator for `device`: one proxy per NSQ, paired with
    /// the device's NCQ for it and serving that NCQ's priority. Every merit
    /// heap's MRU budget is the NSQ depth (§5.2); `cfg` names the ablation
    /// variant and the policy.
    pub fn new(cfg: &DaredevilConfig, device: &NvmeDevice) -> Self {
        let nr_cqs = device.nr_cqs();
        let mru = u32::from(device.config().sq_depth);
        let cq_priority = divide_priorities(nr_cqs);
        let proxies: Vec<Nproxy> = (0..device.nr_sqs())
            .map(|i| {
                let cq = device.cq_of_sq(SqId(i));
                Nproxy::new(SqId(i), cq, cq_priority[cq.index()])
            })
            .collect();
        let mut ncq_nodes: Vec<NcqNode> = (0..nr_cqs)
            .map(|_| NcqNode {
                nsq_heap: KeyedMinHeap::new(),
                mru: mru as i64,
            })
            .collect();
        for p in &proxies {
            ncq_nodes[p.cq.index()].nsq_heap.insert(p.sq, 0.0);
        }
        let mut groups: [NqGroup; 2] = std::array::from_fn(|_| NqGroup {
            ncq_heap: KeyedMinHeap::new(),
            mru: mru as i64,
            rr_flat: Vec::new(),
            rr_cursor: 0,
        });
        for (cq, prio) in cq_priority.iter().enumerate() {
            groups[prio.index()].ncq_heap.insert(CqId(cq as u16), 0.0);
        }
        for p in &proxies {
            groups[p.prio.index()].rr_flat.push(p.sq);
        }
        // A single-CQ (or single-priority) device leaves the low group
        // empty: fall back to sharing the high group's queues so routing
        // never dead-ends (separation is simply impossible there).
        if groups[Priority::Low.index()].ncq_heap.is_empty() {
            // Split-borrow the two groups so the high group's heap is
            // iterated in place — no temporary `Vec<CqId>` collect, no
            // `rr_flat.clone()`; the single allocation left is the low
            // group's own flat list, sized exactly once.
            let (high_half, low_half) = groups.split_at_mut(Priority::Low.index());
            let high = &high_half[Priority::High.index()];
            let low = &mut low_half[0];
            for (c, _) in high.ncq_heap.iter() {
                low.ncq_heap.insert(c, 0.0);
            }
            low.rr_flat.extend_from_slice(&high.rr_flat);
        }
        NqReg {
            policy: Policy::new(cfg),
            mru,
            use_merit: cfg.variant != Variant::Base,
            groups,
            ncq_nodes,
            ncq_state: (0..nr_cqs)
                .map(|_| NcqMeritState {
                    ewma: Ewma::new(ALPHA),
                    last_complete: 0,
                    last_irqs: 0,
                })
                .collect(),
            nsq_state: (0..proxies.len())
                .map(|_| NsqMeritState {
                    ewma: Ewma::new(ALPHA),
                    last_lock_wait: SimDuration::ZERO,
                    last_submitted: 0,
                })
                .collect(),
            proxies,
            resorts: 0,
            queries: 0,
        }
    }

    /// Every merit heap's MRU budget, and so the decrement of a
    /// tenant-based query (§5.2).
    pub fn mru(&self) -> u32 {
        self.mru
    }

    /// The proxy of `sq`.
    pub fn proxy(&self, sq: SqId) -> &Nproxy {
        &self.proxies[sq.index()]
    }

    /// The proxy of `sq`, for troute's claim maintenance.
    pub(crate) fn proxy_mut(&mut self, sq: SqId) -> &mut Nproxy {
        &mut self.proxies[sq.index()]
    }

    /// Every proxy, in NSQ order.
    pub fn proxies(&self) -> &[Nproxy] {
        &self.proxies
    }

    /// The priority `cq`'s group serves: that of its NSQs, which carry
    /// their NCQ's priority. The device has no more NCQs than NSQs, so
    /// every NCQ serves one and the fallback is never taken.
    fn cq_priority(&self, cq: CqId) -> Priority {
        self.ncq_nodes[cq.index()]
            .nsq_heap
            .top()
            .map_or(Priority::Low, |sq| self.proxies[sq.index()].prio)
    }

    /// The doorbell discipline for `commands` staged on `sq` (the
    /// submission half of §5.3's SLA-aware I/O service dispatching).
    pub(crate) fn doorbell(&self, sq: SqId, commands: u64) -> DoorbellMode {
        self.policy.doorbell(&DoorbellCtx {
            prio: self.proxies[sq.index()].prio,
            commands,
        })
    }

    /// The completion discipline for an ISR on `cq` that drained `entries`
    /// CQEs (the completion half of §5.3's dispatching).
    pub(crate) fn reap(&self, cq: CqId, entries: u64) -> CompletionMode {
        self.policy.reap(&ReapCtx {
            prio: self.cq_priority(cq),
            entries,
        })
    }

    /// `NQSchedule` (Algorithm 2): selects the NSQ within `prio`'s NQGroup
    /// that best satisfies the criteria. `m` is the MRU decrement set by
    /// troute's calling context: [`Self::mru`] for the tenant-based and
    /// tagged-outlier contexts, 1 for an untagged T-tenant's per-request
    /// outlier query (§5.2).
    ///
    /// The policy supplies the merit functions when a re-sort fires
    /// ([`Policy::ncq_merit`] / [`Policy::nsq_merit`]); the EWMA smoothing,
    /// assignment tie-breaker, and MRU budgeting are nqreg mechanism and
    /// apply under every policy.
    pub fn schedule(
        &mut self,
        prio: Priority,
        m: u32,
        device: &NvmeDevice,
        locks: &NsqLockTable,
    ) -> SqId {
        self.queries += 1;
        if !self.use_merit {
            // Branch-free round-robin: the cursor counts monotonically and
            // is reduced modulo the flat list length exactly once per pick
            // (the old double-`%` wrap was a second division for nothing).
            let group = &mut self.groups[prio.index()];
            let sq = group.rr_flat[group.rr_cursor % group.rr_flat.len()];
            group.rr_cursor = group.rr_cursor.wrapping_add(1);
            return sq;
        }
        // Step 1: NCQ by IRQ-balancing merit. The MRU-gated recomputation
        // runs *before* taking the top (Algorithm 2 fetches then updates;
        // updating first is functionally equivalent modulo a one-query lag
        // and lets the merit see live assignment counts, so consecutive
        // tenant-based queries spread across NQs as §5.3 intends).
        let group_idx = prio.index();
        self.groups[group_idx].mru -= m as i64;
        if self.groups[group_idx].mru <= 0 {
            self.resort_ncq_heap(group_idx, device);
        }
        // Justified: `new` gives both groups the high group's NCQs at least.
        let ncq = self.groups[group_idx]
            .ncq_heap
            .top()
            .expect("priority group has no NCQs");
        // Step 2: NSQ by contention merit within the chosen NCQ; a 1:1
        // binding degenerates to its one NSQ, with no scheduling.
        let node = &mut self.ncq_nodes[ncq.index()];
        if node.nsq_heap.len() > 1 {
            node.mru -= m as i64;
            if node.mru <= 0 {
                self.resort_nsq_heap(ncq, locks, device);
            }
        }
        // Justified: the device has no more NCQs than NSQs, so each serves one.
        self.ncq_nodes[ncq.index()]
            .nsq_heap
            .top()
            .expect("NCQ serves no NSQ")
    }

    /// Recomputes the NCQ heap's merits. Cold by design: the MRU budget
    /// exists precisely to keep this off the per-query fast path, so the
    /// hint keeps the resort body out of `schedule`'s hot icache lines.
    #[cold]
    #[inline(never)]
    fn resort_ncq_heap(&mut self, group_idx: usize, device: &NvmeDevice) {
        self.resorts += 1;
        let policy = &self.policy;
        let proxies = &self.proxies;
        let ncq_state = &mut self.ncq_state;
        let ncq_nodes = &self.ncq_nodes;
        self.groups[group_idx].ncq_heap.resort_with(|cq| {
            // Window-delta bookkeeping is straight-line: unconditional
            // loads/stores, with `max(1)` saturations (not `if`s) guarding
            // the divisions inside the merit functions.
            let st = device.cq_stats(cq);
            let state = &mut ncq_state[cq.index()];
            let complete_delta = st.complete_rqs - state.last_complete;
            let irq_delta = st.irqs - state.last_irqs;
            state.last_complete = st.complete_rqs;
            state.last_irqs = st.irqs;
            let assignments: f64 = ncq_nodes[cq.index()]
                .nsq_heap
                .iter()
                .map(|(sq, _)| proxies[sq.index()].assignments() as f64)
                .sum::<f64>();
            let merit_k = policy.ncq_merit(&NcqMeritCtx {
                in_flight: st.in_flight_rqs,
                depth: device.cq_depth(cq),
                complete_delta,
                irq_delta,
                assignments,
            });
            state
                .ewma
                .observe(merit_k + assignments * ASSIGNMENT_TIE_WEIGHT)
        });
        self.groups[group_idx].mru = self.mru as i64;
    }

    /// Recomputes one NCQ's NSQ heap. Cold for the same reason as
    /// [`Self::resort_ncq_heap`].
    #[cold]
    #[inline(never)]
    fn resort_nsq_heap(&mut self, ncq: CqId, locks: &NsqLockTable, device: &NvmeDevice) {
        self.resorts += 1;
        let policy = &self.policy;
        let proxies = &self.proxies;
        let nsq_state = &mut self.nsq_state;
        let node = &mut self.ncq_nodes[ncq.index()];
        node.nsq_heap.resort_with(|sq| {
            // Branch-free like the NCQ pass: `saturating_sub` instead of an
            // underflow check, `max(1)` saturations inside the merit fn.
            let state = &mut nsq_state[sq.index()];
            let lock_total = locks.in_lock_total(sq);
            let submitted = device.sq_stats(sq).submitted_total;
            let lock_delta = lock_total.saturating_sub(state.last_lock_wait);
            let submitted_delta = submitted - state.last_submitted;
            state.last_lock_wait = lock_total;
            state.last_submitted = submitted;
            let proxy = &proxies[sq.index()];
            let merit_k = policy.nsq_merit(&NsqMeritCtx {
                lock_wait: lock_delta,
                submitted_delta,
                claimed_cores: proxy.nr_claimed_cores(),
                assignments: proxy.assignments(),
            });
            state
                .ewma
                .observe(merit_k + proxy.assignments() as f64 * ASSIGNMENT_TIE_WEIGHT)
        });
        node.mru = self.mru as i64;
    }

    /// Heap recomputations performed so far.
    pub fn resorts(&self) -> u64 {
        self.resorts
    }

    /// Scheduling queries served so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_nvme::NvmeConfig;

    /// An SV-M-like device with `sqs` NSQs over `cqs` NCQs, of depth
    /// `depth`: the regulator's MRU budget.
    fn device(sqs: u16, cqs: u16, depth: u16) -> NvmeDevice {
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = sqs;
        cfg.nr_cqs = cqs;
        cfg.sq_depth = depth;
        NvmeDevice::new(cfg, 4)
    }

    fn regulator(dev: &NvmeDevice) -> NqReg {
        NqReg::new(&DaredevilConfig::default(), dev)
    }

    #[test]
    fn division_is_equal_halves() {
        let p = divide_priorities(8);
        assert_eq!(p.iter().filter(|p| **p == Priority::High).count(), 4);
        assert_eq!(p[0], Priority::High);
        assert_eq!(p[7], Priority::Low);
    }

    #[test]
    fn rows_follow_the_device_pairing() {
        // 4 NSQs over 2 NCQs: NSQ i pairs NCQ i % 2, and NCQ 0 is high.
        let r = regulator(&device(4, 2, 16));
        assert_eq!(r.proxies().len(), 4);
        assert_eq!(r.proxy(SqId(3)).cq, CqId(1));
        let with = |prio| {
            r.proxies()
                .iter()
                .filter(|p| p.prio == prio)
                .map(|p| p.sq)
                .collect::<Vec<_>>()
        };
        assert_eq!(with(Priority::High), vec![SqId(0), SqId(2)]);
        assert_eq!(with(Priority::Low), vec![SqId(1), SqId(3)]);
    }

    #[test]
    fn single_cq_degenerates_to_shared() {
        let p = divide_priorities(1);
        assert_eq!(p, vec![Priority::High]);
        let dev = device(2, 1, 16);
        let locks = NsqLockTable::new(2);
        let mut reg = regulator(&dev);
        // Low-priority scheduling still returns a queue.
        let sq = reg.schedule(Priority::Low, 16, &dev, &locks);
        assert!(sq.0 < 2);
    }

    #[test]
    fn merit_formulas_match_paper() {
        // NCQ: (in_flight/depth + complete/irqs) * irqs.
        let m = ncq_merit_k(512, 1024, 100, 10);
        assert!((m - (0.5 + 10.0) * 10.0).abs() < 1e-9);
        // NSQ: (in_lock_us / submitted) * claimed.
        let m = nsq_merit_k(SimDuration::from_micros(30), 10, 4);
        assert!((m - 12.0).abs() < 1e-9);
    }

    #[test]
    fn merit_guards_division_by_zero() {
        assert_eq!(ncq_merit_k(0, 1024, 0, 0), 0.0);
        assert_eq!(nsq_merit_k(SimDuration::ZERO, 0, 0), 0.0);
    }

    #[test]
    fn schedule_respects_priority_groups() {
        let dev = device(8, 8, 4);
        let locks = NsqLockTable::new(8);
        let mut reg = regulator(&dev);
        for _ in 0..32 {
            let h = reg.schedule(Priority::High, 4, &dev, &locks);
            assert!(h.0 < 4, "high-priority NSQ expected, got {h}");
            let l = reg.schedule(Priority::Low, 4, &dev, &locks);
            assert!(l.0 >= 4, "low-priority NSQ expected, got {l}");
        }
    }

    #[test]
    fn assignments_spread_tenants() {
        // Registering tenants (schedule + claim) must not pile everyone on
        // one NSQ: the assignment tie-breaker rotates the heap. `m` is the
        // whole budget, so every query re-sorts.
        let dev = device(8, 8, 1024);
        let locks = NsqLockTable::new(8);
        let mut reg = regulator(&dev);
        let m = reg.mru();
        let mut used = std::collections::HashSet::new();
        for core in 0..4u16 {
            let sq = reg.schedule(Priority::High, m, &dev, &locks);
            reg.proxy_mut(sq).claim(core);
            used.insert(sq.0);
        }
        assert!(used.len() >= 3, "tenants clumped: {used:?}");
    }

    #[test]
    fn mru_bounds_resorts() {
        let dev = device(8, 8, 1000);
        let locks = NsqLockTable::new(8);
        let mut reg = regulator(&dev);
        for _ in 0..100 {
            reg.schedule(Priority::High, 1, &dev, &locks);
        }
        assert_eq!(reg.queries(), 100);
        assert_eq!(reg.resorts(), 0, "MRU=1000 must suppress resorts");
        // Spending the whole budget per query re-sorts every query.
        let mut reg = regulator(&dev);
        for _ in 0..100 {
            reg.schedule(Priority::High, 1000, &dev, &locks);
        }
        assert!(reg.resorts() >= 100, "m = MRU must resort every query");
    }

    #[test]
    fn round_robin_fallback_cycles() {
        let dev = device(8, 8, 4);
        let locks = NsqLockTable::new(8);
        let mut reg = NqReg::new(&DaredevilConfig::base(), &dev);
        let picks: Vec<u16> = (0..8)
            .map(|_| reg.schedule(Priority::High, 4, &dev, &locks).0)
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn contended_nsq_avoided_after_resort() {
        // WS-M-like fan-out: 8 NSQs on 2 NCQs → NSQ step is non-degenerate.
        let dev = device(8, 2, 1024);
        let mut locks = NsqLockTable::new(8);
        let mut reg = regulator(&dev);
        let m = reg.mru();
        // High group = CQ 0 = NSQs {0, 2, 4, 6}. Make NSQ 0 heavily
        // contended and claimed.
        for _ in 0..100 {
            locks.acquire(SqId(0), simkit::SimTime::ZERO, SimDuration::from_micros(5));
        }
        reg.proxy_mut(SqId(0)).claim(0);
        reg.proxy_mut(SqId(0)).claim(1);
        // First schedule may still return the stale top; after the forced
        // resort (m = MRU) the contended queue must stop being chosen.
        let _ = reg.schedule(Priority::High, m, &dev, &locks);
        for _ in 0..8 {
            let sq = reg.schedule(Priority::High, m, &dev, &locks);
            assert_ne!(sq, SqId(0), "contended NSQ must be avoided");
            assert_eq!(sq.0 % 2, 0, "must stay within the high group");
        }
    }

    #[test]
    fn cq_priority_lookup() {
        let reg = regulator(&device(8, 8, 4));
        assert_eq!(reg.cq_priority(CqId(0)), Priority::High);
        assert_eq!(reg.cq_priority(CqId(7)), Priority::Low);
    }
}
