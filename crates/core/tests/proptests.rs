//! Property-based tests of Daredevil's routing layer (dd-check harness).
//!
//! DESIGN §7 names the "troute never routes an L-request to a low-priority
//! NSQ" invariant: Algorithm 1's whole point is that latency-sensitive
//! requests — and T-tenants' outlier requests — always land in the
//! high-priority NQGroup, whatever the tenant mix and request history.

use dd_check::{check, prop_assert, prop_assert_eq, Case, CheckResult};

use blkstack::bio::{Bio, BioId, ReqFlags};
use blkstack::nsqlock::NsqLockTable;
use blkstack::{IoPriorityClass, Pid, TaskStruct};
use daredevil::nqreg::divide_priorities;
use daredevil::{DaredevilConfig, NqReg, Policy, Priority, Troute};
use dd_nvme::{IoOpcode, NamespaceId, NvmeConfig, NvmeDevice};
use simkit::SimTime;

struct Fixture {
    device: NvmeDevice,
    locks: NsqLockTable,
    nqreg: NqReg,
    troute: Troute,
}

/// A device of 4..16 NCQs (even counts, so both NQGroups are non-empty),
/// each serving 1..=6 NSQs (NSQ `i` pairs NCQ `i % nr_cqs`), of depth 4:
/// tenant-based queries spend an MRU budget of 4. Each proxy serves its
/// NCQ's share of the one priority split.
fn fixture(c: &mut Case) -> Result<Fixture, dd_check::Failure> {
    let nr_cqs = 2 * c.u16_in(2, 9);
    let nr_sqs = c.u16_in(nr_cqs, 6 * nr_cqs + 1);
    let mut cfg = NvmeConfig::sv_m();
    cfg.nr_sqs = nr_sqs;
    cfg.nr_cqs = nr_cqs;
    cfg.sq_depth = 4;
    let device = NvmeDevice::new(cfg, 4);
    let nqreg = NqReg::new(&DaredevilConfig::default(), &device);
    let split = divide_priorities(nr_cqs);
    prop_assert_eq!(nqreg.proxies().len(), nr_sqs as usize);
    for p in nqreg.proxies() {
        prop_assert_eq!(p.cq, device.cq_of_sq(p.sq));
        prop_assert_eq!(
            p.prio,
            split[p.cq.index()],
            "{:?} left its NCQ's group",
            p.sq
        );
    }
    Ok(Fixture {
        locks: NsqLockTable::new(nr_sqs),
        nqreg,
        troute: Troute::new(),
        device,
    })
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

/// The L-routing invariant: under any sequence of registrations and
/// requests, every bio from an RT-ionice (L) tenant and every outlier
/// (sync/metadata) bio from a T-tenant is routed to a high-priority NSQ;
/// normal T-bios go to the tenant's low-priority default NSQ.
#[test]
fn troute_l_requests_never_low_priority() {
    check("troute_l_requests_never_low_priority", |c| {
        let mut f = fixture(c)?;
        // Register 1..12 tenants with random SLAs on random cores.
        let tenants = c.vec_of(1, 12, |c| {
            let ionice = if c.bool_with(0.5) {
                IoPriorityClass::RealTime
            } else {
                IoPriorityClass::BestEffort
            };
            (ionice, c.u16_in(0, 4))
        });
        for (i, &(ionice, core)) in tenants.iter().enumerate() {
            let task = TaskStruct::new(Pid(i as u64), core, ionice, NamespaceId(1), "p");
            f.troute.register(&task, &mut f.nqreg, &f.device, &f.locks);
        }
        // Drive a random request stream and check every routing decision.
        // It is long enough for tenants to cross profiling windows
        // (`PROFILE_WINDOW` requests each) and earn or drop their tags.
        let requests = c.vec_of(1, 1600, |c| {
            let flags = match c.u8_in(0, 4) {
                0 => ReqFlags::SYNC,
                1 => ReqFlags::META,
                _ => ReqFlags::NONE,
            };
            (c.usize_in(0, 12), flags)
        });
        for (pick, flags) in requests {
            let pid = pick % tenants.len();
            let (ionice, _) = tenants[pid];
            let sq = f
                .troute
                .route(
                    &bio(pid as u64, flags),
                    SimTime::ZERO,
                    &mut f.nqreg,
                    &f.device,
                    &f.locks,
                )
                .1;
            let target_prio = f.nqreg.proxy(sq).prio;
            if ionice.is_latency_sensitive() {
                // Line 1-2 of Algorithm 1: L-tenants stay on their
                // high-priority default NSQ.
                prop_assert_eq!(
                    target_prio,
                    Priority::High,
                    "L-request routed to low-priority {:?}",
                    sq
                );
                prop_assert_eq!(sq, f.troute.route_of(Pid(pid as u64)).unwrap().default_sq);
            } else if flags.is_outlier() {
                // Line 4-9: outliers always land in the high group,
                // whether via the outlier NSQ or a per-request query.
                prop_assert_eq!(
                    target_prio,
                    Priority::High,
                    "outlier routed to low-priority {:?}",
                    sq
                );
            } else {
                // Line 3: normal T-requests use the (low) default NSQ.
                prop_assert_eq!(sq, f.troute.route_of(Pid(pid as u64)).unwrap().default_sq);
                prop_assert_eq!(target_prio, Priority::Low);
            }
        }
        Ok(())
    });
}

/// Every proxy's assignment count and claimed-core bitmap equal a recount
/// from the live routes of tenants `0..n`: one assignment per default or
/// outlier NSQ a tenant uses, one core bit per distinct core among them.
fn claims_match_routes(f: &Fixture, n: usize) -> CheckResult {
    for p in f.nqreg.proxies() {
        let mut assignments = 0;
        let mut cores = 0u128;
        for i in 0..n {
            let r = f.troute.route_of(Pid(i as u64)).expect("registered");
            let uses = u32::from(r.default_sq == p.sq) + u32::from(r.outlier_sq == Some(p.sq));
            if uses > 0 {
                assignments += uses;
                cores |= 1 << r.core;
            }
        }
        prop_assert_eq!(p.assignments(), assignments, "assignments on {:?}", p.sq);
        prop_assert_eq!(
            p.nr_claimed_cores(),
            cores.count_ones(),
            "cores on {:?}",
            p.sq
        );
        for core in 0..128 {
            prop_assert_eq!(p.claims_core(core), cores & (1 << core) != 0);
        }
    }
    Ok(())
}

/// Claim accounting balances: after every step of random request traffic
/// (which may earn or drop outlier NSQs), core migrations and ionice
/// updates, each proxy's claims equal a recount from the live routes.
#[test]
fn troute_claims_match_routes() {
    check("troute_claims_match_routes", |c| {
        let mut f = fixture(c)?;
        let n = c.usize_in(1, 16);
        for i in 0..n {
            let ionice = if c.bool_with(0.5) {
                IoPriorityClass::RealTime
            } else {
                IoPriorityClass::BestEffort
            };
            let task = TaskStruct::new(Pid(i as u64), c.u16_in(0, 4), ionice, NamespaceId(1), "p");
            f.troute.register(&task, &mut f.nqreg, &f.device, &f.locks);
        }
        claims_match_routes(&f, n)?;
        // Enough steps for tenants to cross profiling windows.
        for _ in 0..c.usize_in(0, 800) {
            let pid = Pid(c.usize_in(0, n) as u64);
            match c.u8_in(0, 4) {
                0 => f.troute.migrate(pid, c.u16_in(0, 4), &mut f.nqreg),
                1 => {
                    let ionice = if c.bool_with(0.5) {
                        IoPriorityClass::RealTime
                    } else {
                        IoPriorityClass::BestEffort
                    };
                    f.troute
                        .update_ionice(pid, ionice, &mut f.nqreg, &f.device, &f.locks);
                }
                _ => {
                    let flags = if c.bool_with(0.3) {
                        ReqFlags::SYNC
                    } else {
                        ReqFlags::NONE
                    };
                    f.troute.route(
                        &bio(pid.0, flags),
                        SimTime::ZERO,
                        &mut f.nqreg,
                        &f.device,
                        &f.locks,
                    );
                }
            }
            claims_match_routes(&f, n)?;
        }
        Ok(())
    });
}

/// Ionice-storm hardening: under priority flapping at syscall cadence
/// (Fig. 14's `ionice` storm, re-registrations every ~10 µs) interleaved
/// with request traffic, every routing decision follows the tenant's
/// *current* SLA — never a stale pre-flip route — and the claim
/// accounting survives arbitrarily many re-registrations.
#[test]
fn troute_never_routes_against_stale_sla_under_flapping() {
    check(
        "troute_never_routes_against_stale_sla_under_flapping",
        |c| {
            let mut f = fixture(c)?;
            let n = c.usize_in(1, 8);
            // Current SLA per tenant, updated as the storm flips it.
            let mut ionice: Vec<IoPriorityClass> = Vec::new();
            for i in 0..n {
                let io = if c.bool_with(0.5) {
                    IoPriorityClass::RealTime
                } else {
                    IoPriorityClass::BestEffort
                };
                ionice.push(io);
                let task = TaskStruct::new(Pid(i as u64), c.u16_in(0, 4), io, NamespaceId(1), "p");
                f.troute.register(&task, &mut f.nqreg, &f.device, &f.locks);
            }
            // A storm of interleaved flips and requests: each step is either an
            // ionice update (the 10 µs flapper firing) or an I/O arriving
            // between two flips, long enough for tenants to cross
            // profiling windows.
            for _ in 0..c.usize_in(400, 3200) {
                let pid = c.usize_in(0, n);
                if c.bool_with(0.4) {
                    // Flip this tenant's SLA.
                    let io = if c.bool_with(0.5) {
                        IoPriorityClass::RealTime
                    } else {
                        IoPriorityClass::BestEffort
                    };
                    ionice[pid] = io;
                    f.troute
                        .update_ionice(Pid(pid as u64), io, &mut f.nqreg, &f.device, &f.locks);
                    // The re-registered route must reflect the new SLA at once.
                    let route = f.troute.route_of(Pid(pid as u64)).unwrap();
                    prop_assert_eq!(
                        f.nqreg.proxy(route.default_sq).prio,
                        Troute::base_priority(io),
                        "default NSQ priority is stale after the flip"
                    );
                    if io.is_latency_sensitive() {
                        prop_assert!(
                            route.outlier_sq.is_none(),
                            "L-tenant kept a stale outlier NSQ"
                        );
                    }
                } else {
                    let flags = match c.u8_in(0, 4) {
                        0 => ReqFlags::SYNC,
                        1 => ReqFlags::META,
                        _ => ReqFlags::NONE,
                    };
                    let sq = f
                        .troute
                        .route(
                            &bio(pid as u64, flags),
                            SimTime::ZERO,
                            &mut f.nqreg,
                            &f.device,
                            &f.locks,
                        )
                        .1;
                    let target_prio = f.nqreg.proxy(sq).prio;
                    // Judged against the *current* SLA, not the registration-
                    // time one: the L-invariant must hold mid-storm.
                    if ionice[pid].is_latency_sensitive() {
                        prop_assert_eq!(
                            target_prio,
                            Priority::High,
                            "L-request routed against a stale (low) SLA"
                        );
                        prop_assert_eq!(sq, f.troute.route_of(Pid(pid as u64)).unwrap().default_sq);
                    } else if flags.is_outlier() {
                        prop_assert_eq!(
                            target_prio,
                            Priority::High,
                            "outlier routed to low priority mid-storm"
                        );
                    } else {
                        prop_assert_eq!(sq, f.troute.route_of(Pid(pid as u64)).unwrap().default_sq);
                        prop_assert_eq!(target_prio, Priority::Low);
                    }
                }
            }
            // However many re-registrations happened, claims balance.
            claims_match_routes(&f, n)
        },
    );
}

/// `divide_priorities` always yields a balanced, high-first partition.
#[test]
fn divide_priorities_partitions() {
    check("divide_priorities_partitions", |c| {
        let nr_cqs = c.u16_in(0, 256);
        let prios = divide_priorities(nr_cqs);
        prop_assert_eq!(prios.len(), nr_cqs as usize);
        if nr_cqs >= 2 {
            let high = prios.iter().filter(|p| **p == Priority::High).count();
            prop_assert_eq!(high, (nr_cqs / 2) as usize);
            // High-priority prefix, low-priority suffix.
            let split = prios.iter().position(|p| *p == Priority::Low).unwrap();
            prop_assert!(prios[..split].iter().all(|p| *p == Priority::High));
            prop_assert!(prios[split..].iter().all(|p| *p == Priority::Low));
        } else {
            prop_assert!(prios.iter().all(|p| *p == Priority::High));
        }
        Ok(())
    });
}

/// The default [`Policy`] *is* Algorithm 1 and Algorithm 2: over
/// arbitrary request contexts its route decision matches the pre-refactor
/// inline logic (High or non-outlier → default NSQ, Low outlier → outlier
/// path), and its merits are exactly the published `ncq_merit_k` /
/// `nsq_merit_k` kernels. This is the unit-level half of the
/// refactor-equivalence argument; `testbed/tests/policy_props.rs` checks
/// the live-run half.
#[test]
fn default_policy_matches_algorithms_1_and_2() {
    use daredevil::policy::{NcqMeritCtx, NsqMeritCtx, RouteCtx, RouteDecision};
    use daredevil::{ncq_merit_k, nsq_merit_k};
    use simkit::SimDuration;

    check("default_policy_matches_algorithms_1_and_2", |c| {
        let mut pol = Policy::new(&DaredevilConfig::default());
        let base_prio = if c.u8_in(0, 2) == 1 {
            Priority::High
        } else {
            Priority::Low
        };
        let outlier = c.u8_in(0, 2) == 1;
        let route = pol.route(&RouteCtx {
            base_prio,
            outlier,
            write: c.u8_in(0, 2) == 1,
            bytes: c.u64_in(512, 1 << 20),
            issued_at: SimTime::ZERO,
            now: SimTime::ZERO,
        });
        let expected = if base_prio == Priority::Low && outlier {
            RouteDecision::Outlier
        } else {
            RouteDecision::Default
        };
        prop_assert_eq!(route, expected, "Algorithm 1 decision diverged");

        let ncq = NcqMeritCtx {
            in_flight: c.u64_in(0, 4096),
            depth: c.u16_in(1, 1024),
            complete_delta: c.u64_in(0, 10_000),
            irq_delta: c.u64_in(0, 1_000),
            assignments: c.u64_in(0, 64) as f64,
        };
        prop_assert_eq!(
            pol.ncq_merit(&ncq),
            ncq_merit_k(ncq.in_flight, ncq.depth, ncq.complete_delta, ncq.irq_delta),
            "NCQ merit diverged from Algorithm 2"
        );
        let nsq = NsqMeritCtx {
            lock_wait: SimDuration::from_micros(c.u64_in(0, 100_000)),
            submitted_delta: c.u64_in(0, 10_000),
            claimed_cores: c.u16_in(0, 64) as u32,
            assignments: c.u16_in(0, 64) as u32,
        };
        prop_assert_eq!(
            pol.nsq_merit(&nsq),
            nsq_merit_k(nsq.lock_wait, nsq.submitted_delta, nsq.claimed_cores),
            "NSQ merit diverged from Algorithm 2"
        );
        Ok(())
    });
}
