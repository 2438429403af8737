//! The policy layer: routing, merit, and batching decisions in one type.
//!
//! Algorithm 1 (troute's SLA assessment) and Algorithm 2 (nqreg's merit
//! scheduling) answer three questions on the I/O path:
//!
//! 1. **route** — which NSQ serves this request? ([`Policy::route`])
//! 2. **merit** — when a merit heap re-sorts, what number ranks each
//!    NCQ/NSQ? ([`Policy::ncq_merit`], [`Policy::nsq_merit`])
//! 3. **batch** — does a submission batch ring one doorbell per command or
//!    one per batch, and does an ISR signal completions per request or per
//!    batch? ([`Policy::doorbell`], [`Policy::reap`])
//!
//! [`Policy`] holds exactly those decisions — and nothing else. The
//! *mechanism* stays in [`crate::troute`] / [`crate::nqreg`] /
//! [`crate::stack_impl`]: tenant tables and claimed-core bitmaps, the
//! outlier-tendency profiler and its window, EWMA smoothing, the
//! assignment-count tie-breaker, MRU budgets, heap maintenance, lock and
//! doorbell accounting. Each decision is one `match` on the configured
//! [`PolicySpec`]; the stack keeps its zero-allocation hot path.
//!
//! # Shipped policies
//!
//! | name (`--policy`) | route | merit | batch |
//! |---|---|---|---|
//! | [`default`](PolicySpec::Default) | Algorithm 1 | Algorithm 2 | SLA-aware (§5.3) |
//! | [`deadline`](PolicySpec::Deadline) | promotes T reads (callers block on reads, so their deadline is tight) | Algorithm 2 | latency-first everywhere |
//! | [`sizeclass`](PolicySpec::SizeClass) | by request size only, SLA-blind | Algorithm 2 | SLA-aware |
//! | [`fairshare`](PolicySpec::FairShare) | per-request spray, T quota-promoted into the high group | by traffic share, not contention | SLA-aware |
//!
//! # Adding a policy
//!
//! Add a [`PolicySpec`] variant (with its CLI name in [`PolicySpec::name`]
//! and its place in [`PolicySpec::ALL`]) and one arm per decision in
//! [`Policy`]; the compiler points at every `match` that needs one, the
//! stack name in [`DaredevilConfig::stack_name`] included. The whole
//! workspace is gated on byte-identical figure output across worker counts
//! and re-runs (`scripts/verify.sh`), so an arm **must** be a deterministic
//! function of its inputs:
//!
//! * decide only from the `*Ctx` arguments and [`Policy`] state that was
//!   itself built deterministically — no wall clock, no OS randomness, no
//!   global state;
//! * no floating-point reductions whose order varies (the contexts hand
//!   you pre-reduced sums for exactly this reason);
//! * keep the hot path allocation-free: `route`/`doorbell`/`reap` run per
//!   request/batch — no `HashMap`, no `Vec` growth, no boxing
//!   (`scripts/verify.sh` greps this file to enforce it);
//! * `ncq_merit`/`nsq_merit` only run inside MRU-gated re-sorts (cold by
//!   design) but still must be pure.

use simkit::{SimDuration, SimTime};

pub use blkstack::stack::{CompletionMode, DoorbellMode};

use crate::config::{DaredevilConfig, Variant};
use crate::nproxy::Priority;
use crate::nqreg::{ncq_merit_k, nsq_merit_k};

/// Everything [`Policy::route`] may inspect about one request.
///
/// Mechanism state (the tenant's default/outlier NSQ, profiling counters,
/// claimed cores) is deliberately *not* exposed: a route decision names a
/// path (see [`RouteDecision`]), and the router resolves it against its
/// tables. That keeps tenant bookkeeping correct under every policy.
#[derive(Clone, Copy, Debug)]
pub struct RouteCtx {
    /// The tenant's base priority from its ionice class (High = L-tenant).
    pub base_prio: Priority,
    /// Whether the request carries outlier flags (`REQ_SYNC`/`REQ_META`).
    pub outlier: bool,
    /// Whether the request writes (write or flush; reads block callers).
    pub write: bool,
    /// Request payload in bytes.
    pub bytes: u64,
    /// When the issuer submitted the bio.
    pub issued_at: SimTime,
    /// Current simulation time.
    pub now: SimTime,
}

/// Where a routed request goes. Returned by [`Policy::route`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteDecision {
    /// The tenant's default NSQ (Algorithm 1 lines 1–3: the table-lookup
    /// fast path; L-tenants and normal T-requests take it).
    Default,
    /// The tenant's outlier path (Algorithm 1 lines 4–9): the dedicated
    /// outlier NSQ when the tenant is tagged, otherwise a one-off
    /// high-priority nqreg query with `m = 1`.
    Outlier,
    /// A fresh nqreg query: pick an NSQ from `prio`'s NQGroup now,
    /// decrementing the merit heaps' MRU budgets by `m`. More flexible
    /// than the table paths and proportionally more expensive — `m = 1`
    /// costs one budget unit per request, `m = MRU` forces a re-sort.
    Query {
        /// NQGroup to query.
        prio: Priority,
        /// MRU decrement (see [`crate::NqReg::schedule`]).
        m: u32,
    },
}

/// Inputs to one NCQ's merit when its heap re-sorts
/// ([`Policy::ncq_merit`]). Deltas are windows since the NCQ's previous
/// re-sort.
#[derive(Clone, Copy, Debug)]
pub struct NcqMeritCtx {
    /// Requests currently in flight on the NCQ.
    pub in_flight: u64,
    /// The NCQ's depth.
    pub depth: u16,
    /// Requests completed in the window.
    pub complete_delta: u64,
    /// Interrupts raised in the window.
    pub irq_delta: u64,
    /// Tenant assignments currently pointing at the NCQ's NSQs (summed in
    /// fixed NSQ order — use this instead of re-summing, it is the
    /// deterministic reduction).
    pub assignments: f64,
}

/// Inputs to one NSQ's merit when its NCQ's heap re-sorts
/// ([`Policy::nsq_merit`]). Deltas are windows since the NSQ's previous
/// re-sort.
#[derive(Clone, Copy, Debug)]
pub struct NsqMeritCtx {
    /// Time submitters spent inside the NSQ lock in the window.
    pub lock_wait: SimDuration,
    /// Requests submitted through the NSQ in the window.
    pub submitted_delta: u64,
    /// Cores whose tenants currently claim the NSQ.
    pub claimed_cores: u32,
    /// Tenant assignments currently pointing at the NSQ.
    pub assignments: u32,
}

/// Inputs to the doorbell decision for one per-NSQ submission batch
/// ([`Policy::doorbell`]).
#[derive(Clone, Copy, Debug)]
pub struct DoorbellCtx {
    /// Priority of the NSQ the batch targets.
    pub prio: Priority,
    /// Commands staged in the batch.
    pub commands: u64,
}

/// Inputs to the completion-reap decision for one ISR invocation
/// ([`Policy::reap`]).
#[derive(Clone, Copy, Debug)]
pub struct ReapCtx {
    /// Priority of the interrupting NCQ.
    pub prio: Priority,
    /// CQEs drained by this ISR.
    pub entries: u64,
}

/// Promotes one in this many low-priority requests to the high group
/// under [`PolicySpec::FairShare`] (T gets a 25% slice of the premium path).
pub const FAIRSHARE_SHARE: u64 = 4;

/// Largest payload (bytes) [`PolicySpec::SizeClass`] still counts as the
/// small class: 32 KiB, between the paper's 4 KiB L-requests and 128 KiB
/// T-bulk.
pub const SIZECLASS_THRESHOLD: u64 = 32 * 1024;

/// The live scheduling policy of one Daredevil stack: the three decision
/// points the stack consults on the I/O path.
///
/// Every decision `match`es on the [`PolicySpec`] the stack was built
/// with; the arm for [`PolicySpec::Default`] is the paper-exact reference
/// the figure goldens are captured under. See the module docs for the
/// determinism and allocation rules an arm keeps.
///
/// ```
/// use daredevil::policy::{Policy, RouteCtx, RouteDecision};
/// use daredevil::{DaredevilConfig, Priority};
/// use simkit::SimTime;
///
/// let mut p = Policy::new(&DaredevilConfig::default());
/// let ctx = RouteCtx {
///     base_prio: Priority::Low,
///     outlier: true, // an fsync from a T-tenant
///     write: true,
///     bytes: 4096,
///     issued_at: SimTime::ZERO,
///     now: SimTime::ZERO,
/// };
/// assert_eq!(p.route(&ctx), RouteDecision::Outlier);
/// ```
#[derive(Clone, Debug)]
pub struct Policy {
    spec: PolicySpec,
    /// Whether §5.3's SLA-aware dispatching is active for
    /// [`PolicySpec::Default`] (true for the `dare-full` variant; the
    /// `dare-base`/`dare-sched` ablations keep kernel-default batching).
    sla_dispatch: bool,
    /// Low-priority requests [`PolicySpec::FairShare`] has routed.
    low_seen: u64,
}

impl Policy {
    /// The policy `cfg.policy` names, as `cfg.variant` runs it.
    pub fn new(cfg: &DaredevilConfig) -> Self {
        Policy {
            spec: cfg.policy,
            sla_dispatch: cfg.variant == Variant::Full,
            low_seen: 0,
        }
    }

    /// Routes one request (Algorithm 1's slot). Called once per bio on the
    /// submission path.
    #[inline]
    pub fn route(&mut self, ctx: &RouteCtx) -> RouteDecision {
        match self.spec {
            // Algorithm 1: L-tenants (lines 1-2) and normal T-requests
            // (line 3) take the default NSQ; T outliers (lines 4-9) the
            // outlier path.
            PolicySpec::Default => {
                if ctx.base_prio == Priority::Low && ctx.outlier {
                    RouteDecision::Outlier
                } else {
                    RouteDecision::Default
                }
            }
            PolicySpec::Deadline => {
                if ctx.base_prio == Priority::High {
                    return RouteDecision::Default;
                }
                if ctx.outlier {
                    return RouteDecision::Outlier;
                }
                if !ctx.write {
                    // A blocking read on a deadline: per-request
                    // high-group query.
                    return RouteDecision::Query {
                        prio: Priority::High,
                        m: 1,
                    };
                }
                RouteDecision::Default
            }
            PolicySpec::SizeClass => {
                let prio = if ctx.bytes <= SIZECLASS_THRESHOLD {
                    Priority::High
                } else {
                    Priority::Low
                };
                RouteDecision::Query { prio, m: 1 }
            }
            PolicySpec::FairShare => {
                let prio = if ctx.base_prio == Priority::High || ctx.outlier {
                    Priority::High
                } else {
                    self.low_seen += 1;
                    if self.low_seen.is_multiple_of(FAIRSHARE_SHARE) {
                        Priority::High
                    } else {
                        Priority::Low
                    }
                };
                RouteDecision::Query { prio, m: 1 }
            }
        }
    }

    /// Ranks one NCQ when its group's merit heap re-sorts (Algorithm 2
    /// line 4's slot). Lower merit = preferred. The EWMA smoothing and the
    /// assignment tie-breaker are applied by nqreg *after* this returns.
    #[inline]
    pub fn ncq_merit(&self, ctx: &NcqMeritCtx) -> f64 {
        match self.spec {
            // Share of recent completions + standing assignments: queues
            // that carried more traffic rank worse, evening out the spray.
            PolicySpec::FairShare => ctx.complete_delta as f64 + ctx.assignments,
            // Algorithm 2's IRQ-balancing kernel.
            PolicySpec::Default | PolicySpec::Deadline | PolicySpec::SizeClass => {
                ncq_merit_k(ctx.in_flight, ctx.depth, ctx.complete_delta, ctx.irq_delta)
            }
        }
    }

    /// Ranks one NSQ when its NCQ's merit heap re-sorts (Algorithm 2
    /// line 6's slot). Lower merit = preferred; smoothing/tie-breaking as
    /// in [`Policy::ncq_merit`].
    #[inline]
    pub fn nsq_merit(&self, ctx: &NsqMeritCtx) -> f64 {
        match self.spec {
            PolicySpec::FairShare => ctx.submitted_delta as f64 + ctx.assignments as f64,
            // Algorithm 2's contention kernel.
            PolicySpec::Default | PolicySpec::Deadline | PolicySpec::SizeClass => {
                nsq_merit_k(ctx.lock_wait, ctx.submitted_delta, ctx.claimed_cores)
            }
        }
    }

    /// Chooses the doorbell discipline for one per-NSQ submission batch
    /// (the submission half of §5.3's SLA-aware I/O service dispatching).
    #[inline]
    pub fn doorbell(&self, ctx: &DoorbellCtx) -> DoorbellMode {
        let immediate = match self.spec {
            PolicySpec::Default => self.sla_dispatch && ctx.prio == Priority::High,
            PolicySpec::Deadline => true,
            PolicySpec::SizeClass | PolicySpec::FairShare => ctx.prio == Priority::High,
        };
        if immediate {
            DoorbellMode::Immediate
        } else {
            DoorbellMode::Batched
        }
    }

    /// Chooses the completion discipline for one ISR invocation (the
    /// completion half of §5.3's dispatching).
    #[inline]
    pub fn reap(&self, ctx: &ReapCtx) -> CompletionMode {
        let per_request = match self.spec {
            PolicySpec::Default => self.sla_dispatch && ctx.prio == Priority::High,
            PolicySpec::Deadline => true,
            PolicySpec::SizeClass | PolicySpec::FairShare => ctx.prio == Priority::High,
        };
        if per_request {
            CompletionMode::PerRequest
        } else {
            CompletionMode::Batched
        }
    }
}

/// Built-in policy selection, as configuration data.
///
/// This is the `Copy` value that rides in [`DaredevilConfig`] (and through
/// scenario specs); [`Policy::new`] turns it into the live policy when a
/// stack is built. Parse CLI names with [`PolicySpec::parse`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PolicySpec {
    /// The paper's policy: Algorithm 1 routing, Algorithm 2 merits, and
    /// §5.3's SLA-aware service dispatching.
    #[default]
    Default,
    /// QWin-style deadline-aware routing: optimise for *every* tenant's
    /// tail deadline, not only the L-class.
    ///
    /// Reads block their callers, so their effective deadline is tight no
    /// matter the issuer's SLA: T-tenant reads are promoted into the
    /// high-priority NQGroup with per-request queries, and latency-first
    /// service routines (immediate doorbells, per-request reaps) run on
    /// *all* queues. T writes are asynchronous — deadline-slack — and stay
    /// on the tenant's default (low-group) NSQ.
    ///
    /// The trade `ext_policy` makes visible: background T read streams
    /// flood the high group, so the L-class loses its isolation while T op
    /// tails improve — the opposite end of the design space from
    /// Algorithm 1's L-first stance.
    Deadline,
    /// Size-class isolation: small requests high, bulk requests low,
    /// SLA-blind.
    ///
    /// The classic storage heuristic (small I/O ≈ latency-sensitive, bulk
    /// I/O ≈ bandwidth-bound) applied at the NQ layer: every request at or
    /// below [`SIZECLASS_THRESHOLD`] takes a per-request query into the
    /// high-priority NQGroup, everything larger a per-request query into
    /// the low group. Tenant identity, ionice, and outlier flags are
    /// ignored entirely — which `ext_policy` shows is both its strength (a
    /// T-tenant's small metadata I/O never queues behind bulk) and its
    /// weakness (an L-tenant's occasional large read loses its SLA).
    SizeClass,
    /// Fair-share spray: every request queried, and the premium group
    /// shared out by quota instead of reserved for the SLA class.
    ///
    /// Routing starts from Algorithm 1's SLA split (L and outliers high, T
    /// low) but abandons both tenant-default NSQs and strict reservation:
    /// every request takes a fresh `m = 1` query, and one in
    /// [`FAIRSHARE_SHARE`] low-priority requests is *promoted* into the
    /// high group, so background tenants are guaranteed a fixed slice of
    /// the premium path rather than only its leftovers. The merits rank
    /// queues by how many requests they carried in the last window plus
    /// how many tenants point at them — load share, not the
    /// lock-contention and IRQ-balancing signals Algorithm 2 optimises.
    /// `ext_policy` shows what that buys (even utilisation, a throughput
    /// floor for T) and what it costs (L shares its fast path with promoted
    /// T traffic, scheduling work on every request).
    FairShare,
}

impl PolicySpec {
    /// Every built-in policy, default first (the `ext_policy` sweep order).
    pub const ALL: [PolicySpec; 4] = [
        PolicySpec::Default,
        PolicySpec::Deadline,
        PolicySpec::SizeClass,
        PolicySpec::FairShare,
    ];

    /// The CLI name (`--policy NAME`).
    pub fn name(self) -> &'static str {
        match self {
            PolicySpec::Default => "default",
            PolicySpec::Deadline => "deadline",
            PolicySpec::SizeClass => "sizeclass",
            PolicySpec::FairShare => "fairshare",
        }
    }

    /// Parses a CLI name; `None` for unknown names.
    ///
    /// ```
    /// use daredevil::policy::PolicySpec;
    /// assert_eq!(PolicySpec::parse("deadline"), Some(PolicySpec::Deadline));
    /// assert_eq!(PolicySpec::parse("nope"), None);
    /// ```
    pub fn parse(name: &str) -> Option<Self> {
        PolicySpec::ALL.into_iter().find(|p| p.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(base_prio: Priority, outlier: bool, write: bool, bytes: u64) -> RouteCtx {
        RouteCtx {
            base_prio,
            outlier,
            write,
            bytes,
            issued_at: SimTime::ZERO,
            now: SimTime::ZERO,
        }
    }

    fn policy(spec: PolicySpec, variant: Variant) -> Policy {
        Policy::new(&DaredevilConfig {
            policy: spec,
            variant,
        })
    }

    #[test]
    fn default_policy_is_algorithm_1() {
        let mut p = Policy::new(&DaredevilConfig::default());
        // Lines 1-2: L always default.
        assert_eq!(
            p.route(&ctx(Priority::High, true, false, 4096)),
            RouteDecision::Default
        );
        // Line 3: normal T default.
        assert_eq!(
            p.route(&ctx(Priority::Low, false, true, 131072)),
            RouteDecision::Default
        );
        // Lines 4-9: T outlier.
        assert_eq!(
            p.route(&ctx(Priority::Low, true, true, 4096)),
            RouteDecision::Outlier
        );
    }

    #[test]
    fn default_policy_merits_match_algorithm_2() {
        let p = Policy::new(&DaredevilConfig::default());
        let m = p.ncq_merit(&NcqMeritCtx {
            in_flight: 512,
            depth: 1024,
            complete_delta: 100,
            irq_delta: 10,
            assignments: 7.0,
        });
        assert_eq!(m, ncq_merit_k(512, 1024, 100, 10));
        let m = p.nsq_merit(&NsqMeritCtx {
            lock_wait: SimDuration::from_micros(30),
            submitted_delta: 10,
            claimed_cores: 4,
            assignments: 7,
        });
        assert_eq!(m, nsq_merit_k(SimDuration::from_micros(30), 10, 4));
    }

    #[test]
    fn default_policy_dispatch_follows_variant() {
        let full = policy(PolicySpec::Default, Variant::Full);
        let sched = policy(PolicySpec::Default, Variant::Sched);
        let high = DoorbellCtx {
            prio: Priority::High,
            commands: 1,
        };
        let low = DoorbellCtx {
            prio: Priority::Low,
            commands: 8,
        };
        assert_eq!(full.doorbell(&high), DoorbellMode::Immediate);
        assert_eq!(full.doorbell(&low), DoorbellMode::Batched);
        assert_eq!(sched.doorbell(&high), DoorbellMode::Batched);
        let high = ReapCtx {
            prio: Priority::High,
            entries: 4,
        };
        assert_eq!(full.reap(&high), CompletionMode::PerRequest);
        assert_eq!(sched.reap(&high), CompletionMode::Batched);
    }

    #[test]
    fn deadline_promotes_t_reads_only() {
        let mut p = policy(PolicySpec::Deadline, Variant::Full);
        assert_eq!(
            p.route(&ctx(Priority::Low, false, false, 131072)),
            RouteDecision::Query {
                prio: Priority::High,
                m: 1
            }
        );
        assert_eq!(
            p.route(&ctx(Priority::Low, false, true, 131072)),
            RouteDecision::Default
        );
        assert_eq!(
            p.route(&ctx(Priority::Low, true, true, 4096)),
            RouteDecision::Outlier
        );
        assert_eq!(
            p.route(&ctx(Priority::High, false, false, 4096)),
            RouteDecision::Default
        );
        assert_eq!(
            p.reap(&ReapCtx {
                prio: Priority::Low,
                entries: 32
            }),
            CompletionMode::PerRequest
        );
    }

    #[test]
    fn sizeclass_ignores_sla() {
        let mut p = policy(PolicySpec::SizeClass, Variant::Full);
        let small = RouteDecision::Query {
            prio: Priority::High,
            m: 1,
        };
        let large = RouteDecision::Query {
            prio: Priority::Low,
            m: 1,
        };
        assert_eq!(p.route(&ctx(Priority::High, false, false, 4096)), small);
        assert_eq!(p.route(&ctx(Priority::Low, true, true, 4096)), small);
        assert_eq!(p.route(&ctx(Priority::High, false, false, 131072)), large);
        assert_eq!(p.route(&ctx(Priority::Low, false, true, 131072)), large);
    }

    #[test]
    fn fairshare_sprays_within_sla_groups() {
        let mut p = policy(PolicySpec::FairShare, Variant::Full);
        assert_eq!(
            p.route(&ctx(Priority::High, false, false, 4096)),
            RouteDecision::Query {
                prio: Priority::High,
                m: 1
            }
        );
        // Low requests 1..3 stay low; the 4th is promoted (default 25%
        // premium-path quota), then the cycle repeats.
        for _ in 0..3 {
            assert_eq!(
                p.route(&ctx(Priority::Low, false, false, 131072)),
                RouteDecision::Query {
                    prio: Priority::Low,
                    m: 1
                }
            );
        }
        assert_eq!(
            p.route(&ctx(Priority::Low, false, false, 131072)),
            RouteDecision::Query {
                prio: Priority::High,
                m: 1
            }
        );
        // Merit ranks by traffic, not contention.
        let busy = NcqMeritCtx {
            in_flight: 0,
            depth: 1024,
            complete_delta: 500,
            irq_delta: 1,
            assignments: 2.0,
        };
        let idle = NcqMeritCtx {
            in_flight: 0,
            depth: 1024,
            complete_delta: 0,
            irq_delta: 1,
            assignments: 2.0,
        };
        assert!(p.ncq_merit(&busy) > p.ncq_merit(&idle));
    }

    #[test]
    fn spec_round_trips_names() {
        for spec in PolicySpec::ALL {
            assert_eq!(PolicySpec::parse(spec.name()), Some(spec));
        }
        assert_eq!(PolicySpec::parse("bogus"), None);
        assert_eq!(PolicySpec::default(), PolicySpec::Default);
    }

    #[test]
    fn new_follows_config() {
        let cfg = DaredevilConfig {
            policy: PolicySpec::Deadline,
            ..DaredevilConfig::default()
        };
        let mut k = Policy::new(&cfg);
        assert_eq!(k.spec, PolicySpec::Deadline);
        assert_eq!(
            k.route(&ctx(Priority::Low, false, false, 131072)),
            RouteDecision::Query {
                prio: Priority::High,
                m: 1
            }
        );
        let k = Policy::new(&DaredevilConfig::sched());
        assert_eq!(k.spec, PolicySpec::Default);
        assert!(!k.sla_dispatch);
    }
}
