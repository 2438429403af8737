//! troute: the tenant-NQ request router (Algorithm 1).
//!
//! troute performs the multi-tenancy control on the critical I/O path. Per
//! tenant it keeps a *base priority* derived from the ionice class
//! (real-time ⇒ high), a *default NSQ* obtained from nqreg at registration,
//! and — for T-tenants with an *outlier tendency* — a dedicated *outlier
//! NSQ* for their sync/metadata requests. Request routing then reduces to a
//! table lookup for the common cases; only an untagged T-tenant's occasional
//! outlier request pays a per-request nqreg query (`m = 1`).
//!
//! troute also maintains each NSQ's claimed-core bitmap (on nqreg's
//! proxies), the contention hint nqreg's NSQ merit consumes. It owns only
//! its tenant table and counters: the NQ table, the policy and the MRU
//! budget are nqreg's, lent to each call with the device and the lock
//! table.
//!
//! # Paper mapping (§4 "troute", §5.2, Algorithm 1)
//!
//! | This module | Paper concept |
//! |---|---|
//! | [`Troute::base_priority`] | SLA assessment from `ionice` (real-time ⇒ L), §5.2 |
//! | [`Troute::register`] | tenant registration: default-NSQ assignment via a tenant-based nqreg query (`m = MRU`) |
//! | [`Troute::route`] | Algorithm 1's *mechanism* — tenant lookup, profiling, path resolution; the lines 1–9 *decision* itself is [`crate::policy::Policy::route`], whose [`crate::PolicySpec::Default`] arm reproduces the paper's exact branches |
//! | [`TenantRoute::outlier_tag`]/`outlier_sq` | the outlier-tendency tag and dedicated outlier NSQ, §5.2 |
//! | [`NqReg::mru`] vs `m = 1` | tenant-based (`m = MRU`) vs request-specific (`m = 1`) query contexts, §5.2 |
//! | [`Troute::update_ionice`] | runtime ionice updates re-scheduling the default NSQ (Fig. 14's storm path) |
//! | [`Troute::migrate`] | claimed-core bitmap maintenance across core migrations (Fig. 13's cross-core setting) |
//! | [`RouteStats`] | per-path counters surfaced by `ddsim` and the figure harness |
//!
//! The invariant behind all of it — *no L-request and no outlier request is
//! ever routed to a low-priority NSQ* — is property-tested in
//! `tests/proptests.rs` (`troute_l_requests_never_low_priority`).

use dd_nvme::{IoOpcode, NvmeDevice, SqId};
use simkit::{DenseMap, SimTime};

use blkstack::nsqlock::NsqLockTable;
use blkstack::stack::RouteStats;
use blkstack::{Bio, IoPriorityClass, Pid, TaskStruct};

use crate::nproxy::Priority;
use crate::nqreg::NqReg;
use crate::policy::{RouteCtx, RouteDecision};

/// Profiling window: a T-tenant's outlier-tendency tag is re-evaluated
/// every this many of its requests.
pub const PROFILE_WINDOW: u64 = 64;

/// Per-tenant routing state.
#[derive(Clone, Copy, Debug)]
pub struct TenantRoute {
    /// Base priority from the ionice class.
    pub base_prio: Priority,
    /// NSQ serving the tenant's normal requests.
    pub default_sq: SqId,
    /// NSQ serving a tagged T-tenant's outlier requests.
    pub outlier_sq: Option<SqId>,
    /// Whether the tenant currently carries the outlier tag.
    pub outlier_tag: bool,
    /// Core the tenant runs on (for bitmap maintenance).
    pub core: u16,
    /// Profiling counters within the current window.
    normal_count: u64,
    outlier_count: u64,
}

/// The request router: the tenant table and its routing counters.
#[derive(Debug, Default)]
pub struct Troute {
    tenants: DenseMap<Pid, TenantRoute>,
    stats: RouteStats,
}

impl Troute {
    /// Creates a router with no tenants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Base priority implied by an ionice class.
    pub fn base_priority(ionice: IoPriorityClass) -> Priority {
        if ionice.is_latency_sensitive() {
            Priority::High
        } else {
            Priority::Low
        }
    }

    /// Registers a tenant: assigns its default NSQ with a tenant-based
    /// query and claims its core on the proxy.
    pub fn register(
        &mut self,
        task: &TaskStruct,
        nqreg: &mut NqReg,
        device: &NvmeDevice,
        locks: &NsqLockTable,
    ) {
        let base_prio = Self::base_priority(task.ionice);
        let default_sq = nqreg.schedule(base_prio, nqreg.mru(), device, locks);
        nqreg.proxy_mut(default_sq).claim(task.core);
        self.tenants.insert(
            task.pid,
            TenantRoute {
                base_prio,
                default_sq,
                outlier_sq: None,
                outlier_tag: false,
                core: task.core,
                normal_count: 0,
                outlier_count: 0,
            },
        );
    }

    /// Releases `pid`'s claim of `sq` from `core`. The core's bit stays
    /// while another tenant on `core` still uses `sq`; `pid`'s own route is
    /// skipped, since it is the one being changed.
    fn unclaim(&self, pid: Pid, sq: SqId, core: u16, nqreg: &mut NqReg) {
        let still = self.tenants.iter().any(|(p, r)| {
            p != pid && r.core == core && (r.default_sq == sq || r.outlier_sq == Some(sq))
        });
        nqreg.proxy_mut(sq).unclaim(core, still);
    }

    /// Routing state of a tenant.
    pub fn route_of(&self, pid: Pid) -> Option<&TenantRoute> {
        self.tenants.get(pid)
    }

    /// Handles a runtime ionice change: if the base priority flips, the
    /// default NSQ is re-scheduled (asynchronously to the I/O path in the
    /// kernel; one extra nqreg query here, §5.2).
    pub fn update_ionice(
        &mut self,
        pid: Pid,
        ionice: IoPriorityClass,
        nqreg: &mut NqReg,
        device: &NvmeDevice,
        locks: &NsqLockTable,
    ) {
        let new_prio = Self::base_priority(ionice);
        let Some(&r) = self.tenants.get(pid) else {
            return;
        };
        if r.base_prio == new_prio {
            return;
        }
        let new_sq = nqreg.schedule(new_prio, nqreg.mru(), device, locks);
        self.unclaim(pid, r.default_sq, r.core, nqreg);
        let mut next = TenantRoute {
            base_prio: new_prio,
            default_sq: new_sq,
            ..r
        };
        // An L-tenant (or ex-T-tenant) has no use for an outlier NSQ.
        if new_prio == Priority::High {
            if let Some(osq) = next.outlier_sq.take() {
                self.unclaim(pid, osq, r.core, nqreg);
            }
            next.outlier_tag = false;
        }
        nqreg.proxy_mut(new_sq).claim(r.core);
        self.tenants.insert(pid, next);
        self.stats.reassignments += 1;
    }

    /// Handles a tenant migration to another core: the claimed-core bitmaps
    /// move with it.
    pub fn migrate(&mut self, pid: Pid, new_core: u16, nqreg: &mut NqReg) {
        let Some(&r) = self.tenants.get(pid) else {
            return;
        };
        if r.core == new_core {
            return;
        }
        self.unclaim(pid, r.default_sq, r.core, nqreg);
        if let Some(osq) = r.outlier_sq {
            self.unclaim(pid, osq, r.core, nqreg);
        }
        nqreg.proxy_mut(r.default_sq).claim(new_core);
        if let Some(osq) = r.outlier_sq {
            nqreg.proxy_mut(osq).claim(new_core);
        }
        self.tenants.insert(
            pid,
            TenantRoute {
                core: new_core,
                ..r
            },
        );
    }

    /// Routes one request, returning the tenant's base priority and the
    /// target NSQ.
    ///
    /// The *decision* — which of the three paths the request takes — comes
    /// from [`crate::policy::Policy::route`] (Algorithm 1 under
    /// [`crate::PolicySpec::Default`]); troute resolves it against the
    /// tenant table. The outlier-tendency profiler runs for every T-tenant
    /// request regardless of the decision, so the tenant's tag state stays
    /// policy-independent: crossing the tendency threshold assigns (or
    /// drops) the tenant's outlier NSQ.
    pub fn route(
        &mut self,
        bio: &Bio,
        now: SimTime,
        nqreg: &mut NqReg,
        device: &NvmeDevice,
        locks: &NsqLockTable,
    ) -> (Priority, SqId) {
        // Justified: a stack registers every tenant before its first bio,
        // so a miss is a caller bug.
        let route = self
            .tenants
            .get_mut(bio.tenant)
            .expect("routing for unregistered tenant");
        let is_outlier = bio.flags.is_outlier();
        let decision = nqreg.policy.route(&RouteCtx {
            base_prio: route.base_prio,
            outlier: is_outlier,
            write: bio.op != IoOpcode::Read,
            bytes: bio.bytes,
            issued_at: bio.issued_at,
            now,
        });
        let base_prio = route.base_prio;
        let default_sq = route.default_sq;
        let mut tagged_sq = route.outlier_sq.filter(|_| route.outlier_tag);
        // T-tenant: profile the request mix (mechanism — runs under every
        // policy; L-tenants are never tagged, matching Algorithm 1's
        // lines 1-2 early exit).
        if base_prio == Priority::Low {
            if is_outlier {
                route.outlier_count += 1;
            } else {
                route.normal_count += 1;
            }
            if (route.outlier_count + route.normal_count).is_multiple_of(PROFILE_WINDOW) {
                let mut r = *route;
                self.reevaluate_tag(bio.tenant, &mut r, nqreg, device, locks);
                tagged_sq = r.outlier_sq.filter(|_| r.outlier_tag);
            }
        }
        let sq = match decision {
            // Lines 1-3: the table-lookup fast path.
            RouteDecision::Default => {
                self.stats.default_routes += 1;
                default_sq
            }
            // Lines 4-9: outlier path — dedicated NSQ when tagged, else a
            // request-specific high-priority query (m = 1).
            RouteDecision::Outlier => {
                if let Some(osq) = tagged_sq {
                    self.stats.outlier_routes += 1;
                    osq
                } else {
                    self.stats.per_request_queries += 1;
                    nqreg.schedule(Priority::High, 1, device, locks)
                }
            }
            // Beyond Algorithm 1: an alternative policy asked for a fresh
            // nqreg query with its own priority and MRU decrement.
            RouteDecision::Query { prio, m } => {
                self.stats.policy_queries += 1;
                nqreg.schedule(prio, m, device, locks)
            }
        };
        (base_prio, sq)
    }

    /// Re-evaluates a T-tenant's outlier tendency at the end of a profiling
    /// window: tagged when outlier requests are within the same order of
    /// magnitude as normal ones (outliers × 10 ≥ normals, §5.2). Starts the
    /// next window and stores `route` as `pid`'s.
    fn reevaluate_tag(
        &mut self,
        pid: Pid,
        route: &mut TenantRoute,
        nqreg: &mut NqReg,
        device: &NvmeDevice,
        locks: &NsqLockTable,
    ) {
        let tendency = route.outlier_count * 10 >= route.normal_count && route.outlier_count > 0;
        route.normal_count = 0;
        route.outlier_count = 0;
        if tendency != route.outlier_tag {
            self.stats.tag_changes += 1;
            if tendency {
                // Tag on: assign an outlier NSQ (tenant-based context).
                let osq = nqreg.schedule(Priority::High, nqreg.mru(), device, locks);
                nqreg.proxy_mut(osq).claim(route.core);
                route.outlier_sq = Some(osq);
            } else if let Some(osq) = route.outlier_sq.take() {
                // Tag off: drop the outlier NSQ.
                self.unclaim(pid, osq, route.core, nqreg);
            }
            route.outlier_tag = tendency;
        }
        self.tenants.insert(pid, *route);
    }

    /// Routing statistics.
    pub fn stats(&self) -> RouteStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DaredevilConfig;
    use blkstack::bio::{BioId, ReqFlags};
    use dd_nvme::{IoOpcode, NamespaceId, NvmeConfig};
    use simkit::SimTime;

    struct Fixture {
        device: NvmeDevice,
        locks: NsqLockTable,
        nqreg: NqReg,
        troute: Troute,
    }

    /// 8 NSQs over 8 NCQs of depth 4, so tenant-based queries spend an
    /// MRU budget of 4.
    fn fixture() -> Fixture {
        let mut cfg = NvmeConfig::sv_m();
        cfg.nr_sqs = 8;
        cfg.nr_cqs = 8;
        cfg.sq_depth = 4;
        let device = NvmeDevice::new(cfg, 4);
        Fixture {
            locks: NsqLockTable::new(8),
            nqreg: NqReg::new(&DaredevilConfig::default(), &device),
            troute: Troute::new(),
            device,
        }
    }

    fn task(pid: u64, core: u16, ionice: IoPriorityClass) -> TaskStruct {
        TaskStruct::new(Pid(pid), core, ionice, NamespaceId(1), "x")
    }

    fn bio(tenant: u64, flags: ReqFlags) -> Bio {
        Bio {
            id: BioId(0),
            tenant: Pid(tenant),
            core: 0,
            nsid: NamespaceId(1),
            op: IoOpcode::Read,
            offset_blocks: 0,
            bytes: 4096,
            flags,
            ioprio: IoPriorityClass::BestEffort,
            issued_at: SimTime::ZERO,
        }
    }

    #[test]
    fn l_tenant_gets_high_priority_default() {
        let mut f = fixture();
        f.troute.register(
            &task(1, 0, IoPriorityClass::RealTime),
            &mut f.nqreg,
            &f.device,
            &f.locks,
        );
        let r = f.troute.route_of(Pid(1)).unwrap();
        assert_eq!(r.base_prio, Priority::High);
        assert!(r.default_sq.0 < 4, "L default NSQ in high group");
        assert!(f.nqreg.proxy(r.default_sq).claims_core(0));
    }

    #[test]
    fn t_tenant_gets_low_priority_default() {
        let mut f = fixture();
        f.troute.register(
            &task(2, 1, IoPriorityClass::BestEffort),
            &mut f.nqreg,
            &f.device,
            &f.locks,
        );
        let r = f.troute.route_of(Pid(2)).unwrap();
        assert_eq!(r.base_prio, Priority::Low);
        assert!(r.default_sq.0 >= 4, "T default NSQ in low group");
    }

    #[test]
    fn l_requests_always_route_default() {
        let mut f = fixture();
        f.troute.register(
            &task(1, 0, IoPriorityClass::RealTime),
            &mut f.nqreg,
            &f.device,
            &f.locks,
        );
        let def = f.troute.route_of(Pid(1)).unwrap().default_sq;
        for flags in [ReqFlags::NONE, ReqFlags::SYNC, ReqFlags::META] {
            let sq = f
                .troute
                .route(
                    &bio(1, flags),
                    SimTime::ZERO,
                    &mut f.nqreg,
                    &f.device,
                    &f.locks,
                )
                .1;
            assert_eq!(sq, def);
        }
    }

    #[test]
    fn t_outlier_requests_route_high_priority() {
        let mut f = fixture();
        f.troute.register(
            &task(2, 0, IoPriorityClass::BestEffort),
            &mut f.nqreg,
            &f.device,
            &f.locks,
        );
        // Untagged tenant's sync request: per-request high-priority query.
        let sq = f
            .troute
            .route(
                &bio(2, ReqFlags::SYNC),
                SimTime::ZERO,
                &mut f.nqreg,
                &f.device,
                &f.locks,
            )
            .1;
        assert!(sq.0 < 4, "outlier must land in the high group, got {sq}");
        assert_eq!(f.troute.stats().per_request_queries, 1);
        // Normal request: default (low) NSQ.
        let sq = f
            .troute
            .route(
                &bio(2, ReqFlags::NONE),
                SimTime::ZERO,
                &mut f.nqreg,
                &f.device,
                &f.locks,
            )
            .1;
        assert!(sq.0 >= 4);
    }

    #[test]
    fn outlier_tendency_earns_tag_and_outlier_nsq() {
        let mut f = fixture();
        f.troute.register(
            &task(2, 0, IoPriorityClass::BestEffort),
            &mut f.nqreg,
            &f.device,
            &f.locks,
        );
        // 50/50 outlier mix: well past the order-of-magnitude threshold.
        for i in 0..PROFILE_WINDOW {
            let flags = if i % 2 == 0 {
                ReqFlags::SYNC
            } else {
                ReqFlags::NONE
            };
            f.troute.route(
                &bio(2, flags),
                SimTime::ZERO,
                &mut f.nqreg,
                &f.device,
                &f.locks,
            );
        }
        let r = f.troute.route_of(Pid(2)).unwrap();
        assert!(r.outlier_tag, "tenant must be tagged");
        let osq = r.outlier_sq.expect("tagged tenant has outlier NSQ");
        assert!(osq.0 < 4, "outlier NSQ in high group");
        // Tagged outliers route to the outlier NSQ without new queries.
        let before = f.troute.stats().per_request_queries;
        let sq = f
            .troute
            .route(
                &bio(2, ReqFlags::META),
                SimTime::ZERO,
                &mut f.nqreg,
                &f.device,
                &f.locks,
            )
            .1;
        assert_eq!(sq, osq);
        assert_eq!(f.troute.stats().per_request_queries, before);
    }

    #[test]
    fn rare_outliers_do_not_earn_tag() {
        let mut f = fixture();
        f.troute.register(
            &task(2, 0, IoPriorityClass::BestEffort),
            &mut f.nqreg,
            &f.device,
            &f.locks,
        );
        // 1 outlier per 64 normals: below the threshold.
        for i in 0..128 {
            let flags = if i % 64 == 0 {
                ReqFlags::SYNC
            } else {
                ReqFlags::NONE
            };
            f.troute.route(
                &bio(2, flags),
                SimTime::ZERO,
                &mut f.nqreg,
                &f.device,
                &f.locks,
            );
        }
        assert!(!f.troute.route_of(Pid(2)).unwrap().outlier_tag);
    }

    #[test]
    fn ionice_flip_reassigns_default() {
        let mut f = fixture();
        f.troute.register(
            &task(2, 0, IoPriorityClass::BestEffort),
            &mut f.nqreg,
            &f.device,
            &f.locks,
        );
        let old = f.troute.route_of(Pid(2)).unwrap().default_sq;
        f.troute.update_ionice(
            Pid(2),
            IoPriorityClass::RealTime,
            &mut f.nqreg,
            &f.device,
            &f.locks,
        );
        let r = f.troute.route_of(Pid(2)).unwrap();
        assert_eq!(r.base_prio, Priority::High);
        assert!(r.default_sq.0 < 4);
        assert_ne!(r.default_sq, old);
        assert_eq!(f.troute.stats().reassignments, 1);
        assert_eq!(f.nqreg.proxy(old).assignments(), 0, "old claim released");
        // No-op update does not re-schedule.
        f.troute.update_ionice(
            Pid(2),
            IoPriorityClass::RealTime,
            &mut f.nqreg,
            &f.device,
            &f.locks,
        );
        assert_eq!(f.troute.stats().reassignments, 1);
    }

    #[test]
    fn migration_moves_claims() {
        let mut f = fixture();
        f.troute.register(
            &task(1, 0, IoPriorityClass::RealTime),
            &mut f.nqreg,
            &f.device,
            &f.locks,
        );
        let sq = f.troute.route_of(Pid(1)).unwrap().default_sq;
        f.troute.migrate(Pid(1), 3, &mut f.nqreg);
        assert!(!f.nqreg.proxy(sq).claims_core(0));
        assert!(f.nqreg.proxy(sq).claims_core(3));
        assert_eq!(f.troute.route_of(Pid(1)).unwrap().core, 3);
    }

    /// Every proxy's assignment count and claimed-core bitmap equal a
    /// recount from the live routes of `pids`: one assignment per default
    /// or outlier NSQ a tenant uses, one core bit per distinct core.
    fn assert_claims_match_routes(f: &Fixture, pids: &[u64]) {
        for p in f.nqreg.proxies() {
            let mut assignments = 0;
            let mut cores = 0u128;
            for &pid in pids {
                let r = f.troute.route_of(Pid(pid)).expect("registered");
                let uses = u32::from(r.default_sq == p.sq) + u32::from(r.outlier_sq == Some(p.sq));
                if uses > 0 {
                    assignments += uses;
                    cores |= 1 << r.core;
                }
            }
            assert_eq!(p.assignments(), assignments, "assignments on {:?}", p.sq);
            assert_eq!(
                p.nr_claimed_cores(),
                cores.count_ones(),
                "cores on {:?}",
                p.sq
            );
            for core in 0..128 {
                assert_eq!(p.claims_core(core), cores & (1 << core) != 0);
            }
        }
    }

    #[test]
    fn ionice_flip_releases_default_and_outlier_claims() {
        let mut f = fixture();
        f.troute.register(
            &task(2, 0, IoPriorityClass::BestEffort),
            &mut f.nqreg,
            &f.device,
            &f.locks,
        );
        // A 50/50 outlier mix earns the tag and an outlier NSQ.
        for i in 0..PROFILE_WINDOW {
            let flags = if i % 2 == 0 {
                ReqFlags::SYNC
            } else {
                ReqFlags::NONE
            };
            f.troute.route(
                &bio(2, flags),
                SimTime::ZERO,
                &mut f.nqreg,
                &f.device,
                &f.locks,
            );
        }
        let r = *f.troute.route_of(Pid(2)).unwrap();
        let osq = r.outlier_sq.expect("tagged tenant has outlier NSQ");
        assert_claims_match_routes(&f, &[2]);
        // Becoming an L-tenant drops both the low default and the outlier
        // NSQ: only the new default keeps a claim.
        f.troute.update_ionice(
            Pid(2),
            IoPriorityClass::RealTime,
            &mut f.nqreg,
            &f.device,
            &f.locks,
        );
        let now = f.troute.route_of(Pid(2)).unwrap();
        assert_eq!(now.outlier_sq, None);
        assert_ne!(now.default_sq, r.default_sq);
        assert_eq!(f.nqreg.proxy(r.default_sq).assignments(), 0);
        if osq != now.default_sq {
            assert_eq!(f.nqreg.proxy(osq).nr_claimed_cores(), 0);
        }
        assert_claims_match_routes(&f, &[2]);
    }

    #[test]
    fn shared_core_claims_persist() {
        let mut f = fixture();
        // Five L-tenants on core 0 over four high-priority NSQs: two share
        // a default NSQ, and moving one of them away must keep the core bit.
        for pid in 1..=5 {
            f.troute.register(
                &task(pid, 0, IoPriorityClass::RealTime),
                &mut f.nqreg,
                &f.device,
                &f.locks,
            );
        }
        let sq_of = |f: &Fixture, pid: u64| f.troute.route_of(Pid(pid)).unwrap().default_sq;
        let (a, b) = (1..=5)
            .flat_map(|a| (a + 1..=5).map(move |b| (a, b)))
            .find(|&(a, b)| sq_of(&f, a) == sq_of(&f, b))
            .expect("pigeonhole: two tenants share an NSQ");
        let shared = sq_of(&f, a);
        f.troute.migrate(Pid(a), 1, &mut f.nqreg);
        assert!(
            f.nqreg.proxy(shared).claims_core(0),
            "tenant {b} still there"
        );
        assert!(f.nqreg.proxy(shared).claims_core(1));
        assert_claims_match_routes(&f, &[1, 2, 3, 4, 5]);
    }
}
