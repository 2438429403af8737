//! The programmable policy layer: routing, merit, and batching decisions
//! behind one documented trait.
//!
//! Algorithm 1 (troute's SLA assessment) and Algorithm 2 (nqreg's merit
//! scheduling) answer three questions on the I/O path, and before this
//! module they answered them with hardcoded logic:
//!
//! 1. **route** — which NSQ serves this request? ([`Policy::route`])
//! 2. **merit** — when a merit heap re-sorts, what number ranks each
//!    NCQ/NSQ? ([`Policy::ncq_merit`], [`Policy::nsq_merit`])
//! 3. **batch** — does a submission batch ring one doorbell per command or
//!    one per batch, and does an ISR signal completions per request or per
//!    batch? ([`Policy::doorbell`], [`Policy::reap`])
//!
//! [`Policy`] extracts exactly those decisions — and nothing else. The
//! *mechanism* stays in [`crate::troute`] / [`crate::nqreg`] /
//! [`crate::stack_impl`]: tenant tables and claimed-core bitmaps, the
//! outlier-tendency profiler and its window, EWMA smoothing, the
//! assignment-count tie-breaker, MRU budgets, heap maintenance, lock and
//! doorbell accounting. A policy author writes a handful of pure
//! decisions; the stack keeps its zero-allocation hot path.
//!
//! # Shipped policies
//!
//! | name (`--policy`) | route | merit | batch |
//! |---|---|---|---|
//! | [`default`](DefaultPolicy) | Algorithm 1 | Algorithm 2 | SLA-aware (§5.3) |
//! | [`deadline`](DeadlinePolicy) | promotes T reads (callers block on reads, so their deadline is tight) | Algorithm 2 | latency-first everywhere |
//! | [`sizeclass`](SizeClassPolicy) | by request size only, SLA-blind | Algorithm 2 | SLA-aware |
//! | [`fairshare`](FairSharePolicy) | per-request spray, T quota-promoted into the high group | by traffic share, not contention | SLA-aware |
//!
//! # Determinism rules for policy authors
//!
//! The whole workspace is gated on byte-identical figure output across
//! worker counts and re-runs (`scripts/verify.sh`), so a policy **must**
//! be a deterministic function of its inputs:
//!
//! * decide only from the `*Ctx` arguments and `self` state that was
//!   itself built deterministically — no wall clock, no OS randomness, no
//!   global state;
//! * no floating-point reductions whose order varies (the contexts hand
//!   you pre-reduced sums for exactly this reason);
//! * keep the hot path allocation-free: `route`/`doorbell`/`reap` run per
//!   request/batch — no `HashMap`, no `Vec` growth, no boxing
//!   (`scripts/verify.sh` greps this file to enforce it);
//! * `ncq_merit`/`nsq_merit` only run inside MRU-gated re-sorts (cold by
//!   design) but still must be pure.
//!
//! # Writing a policy
//!
//! The README's "Writing a policy" walkthrough builds [`DeadlinePolicy`]
//! from scratch. The short version:
//!
//! ```
//! use daredevil::policy::{
//!     DoorbellCtx, DoorbellMode, Policy, ReapCtx, RouteCtx, RouteDecision,
//! };
//! use daredevil::{CompletionMode, Priority};
//!
//! /// Everything latency: every request to the high group, every doorbell
//! /// immediate, every completion per-request. (A terrible idea under
//! /// load — which is exactly what the ext_policy figure is for.)
//! struct AlwaysHigh;
//!
//! impl Policy for AlwaysHigh {
//!     fn name(&self) -> &'static str {
//!         "always-high"
//!     }
//!     fn route(&mut self, _ctx: &RouteCtx) -> RouteDecision {
//!         RouteDecision::Query { prio: Priority::High, m: 1 }
//!     }
//!     // ncq_merit / nsq_merit keep Algorithm 2 (the trait defaults).
//!     fn doorbell(&mut self, _ctx: &DoorbellCtx) -> DoorbellMode {
//!         DoorbellMode::Immediate
//!     }
//!     fn reap(&mut self, _ctx: &ReapCtx) -> CompletionMode {
//!         CompletionMode::PerRequest
//!     }
//! }
//!
//! // Plug it into a stack (static dispatch — no enum registration needed):
//! use daredevil::{DaredevilConfig, DaredevilStack};
//! let stack = DaredevilStack::with_policy(
//!     DaredevilConfig::default(),
//!     AlwaysHigh,
//!     4,
//!     64,
//!     64,
//!     |sq| sq % 64,
//! );
//! assert_eq!(blkstack::StorageStack::name(&stack), "always-high");
//! ```
//!
//! The built-in policies are also reachable by name through
//! [`PolicySpec::parse`] (the `--policy NAME` flag of every figure)
//! and dispatch through [`PolicyKind`] — a single `match` per decision, so
//! the default stack type needs no generics at its uses.

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
        /// MRU decrement (see [`crate::troute::QueryContext`]).
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

/// One scheduling policy: the three decision points the Daredevil stack
/// consults on the I/O path.
///
/// Implementations take `&mut self`, so a policy may keep its own
/// (deterministically updated) state. See the module docs for the
/// determinism and allocation rules, and [`DefaultPolicy`] for the
/// paper-exact reference implementation.
pub trait Policy {
    /// Short static name, used in stack labels and tables.
    fn name(&self) -> &'static str;

    /// Routes one request (Algorithm 1's slot). Called once per bio on the
    /// submission path — keep it branch-cheap and allocation-free.
    fn route(&mut self, ctx: &RouteCtx) -> RouteDecision;

    /// Ranks one NCQ when its group's merit heap re-sorts (Algorithm 2
    /// line 4's slot). Lower merit = preferred. The EWMA smoothing and the
    /// assignment tie-breaker are applied by nqreg *after* this returns.
    ///
    /// Defaults to Algorithm 2's IRQ-balancing kernel ([`ncq_merit_k`]).
    #[inline]
    fn ncq_merit(&mut self, ctx: &NcqMeritCtx) -> f64 {
        ncq_merit_k(ctx.in_flight, ctx.depth, ctx.complete_delta, ctx.irq_delta)
    }

    /// Ranks one NSQ when its NCQ's merit heap re-sorts (Algorithm 2
    /// line 6's slot). Lower merit = preferred; smoothing/tie-breaking as
    /// in [`Policy::ncq_merit`].
    ///
    /// Defaults to Algorithm 2's contention kernel ([`nsq_merit_k`]).
    #[inline]
    fn nsq_merit(&mut self, ctx: &NsqMeritCtx) -> f64 {
        nsq_merit_k(ctx.lock_wait, ctx.submitted_delta, ctx.claimed_cores)
    }

    /// Chooses the doorbell discipline for one per-NSQ submission batch
    /// (the submission half of §5.3's SLA-aware I/O service dispatching).
    ///
    /// Defaults to §5.3's SLA-aware mode: immediate rings for the
    /// high-priority group, batched for the rest.
    #[inline]
    fn doorbell(&mut self, ctx: &DoorbellCtx) -> DoorbellMode {
        if ctx.prio == Priority::High {
            DoorbellMode::Immediate
        } else {
            DoorbellMode::Batched
        }
    }

    /// Chooses the completion discipline for one ISR invocation (the
    /// completion half of §5.3's dispatching).
    ///
    /// Defaults to §5.3's SLA-aware mode: per-request reaping for the
    /// high-priority group, batched for the rest.
    #[inline]
    fn reap(&mut self, ctx: &ReapCtx) -> CompletionMode {
        if ctx.prio == Priority::High {
            CompletionMode::PerRequest
        } else {
            CompletionMode::Batched
        }
    }
}

/// The paper's policy: Algorithm 1 routing, Algorithm 2 merits, and §5.3's
/// SLA-aware service dispatching.
///
/// This is the reference implementation the figure goldens are captured
/// under — byte-identical to the pre-extraction hardcoded paths (gated by
/// `scripts/verify.sh` and the `policy_props` properties).
///
/// ```
/// use daredevil::policy::{DefaultPolicy, Policy, RouteCtx, RouteDecision};
/// use daredevil::Priority;
/// use simkit::SimTime;
///
/// let mut p = DefaultPolicy::default();
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
#[derive(Clone, Copy, Debug)]
pub struct DefaultPolicy {
    /// Whether §5.3's SLA-aware dispatching is active (true for the
    /// `dare-full` variant; the `dare-base`/`dare-sched` ablations keep
    /// kernel-default batching).
    pub sla_dispatch: bool,
}

impl Default for DefaultPolicy {
    fn default() -> Self {
        DefaultPolicy { sla_dispatch: true }
    }
}

impl DefaultPolicy {
    /// The default policy as the given ablation variant runs it.
    pub fn for_variant(variant: Variant) -> Self {
        DefaultPolicy {
            sla_dispatch: variant == Variant::Full,
        }
    }
}

impl Policy for DefaultPolicy {
    fn name(&self) -> &'static str {
        "default"
    }

    #[inline]
    fn route(&mut self, ctx: &RouteCtx) -> RouteDecision {
        // Algorithm 1: L-tenants (lines 1-2) and normal T-requests (line 3)
        // take the default NSQ; T outliers (lines 4-9) the outlier path.
        if ctx.base_prio == Priority::Low && ctx.outlier {
            RouteDecision::Outlier
        } else {
            RouteDecision::Default
        }
    }

    // ncq_merit / nsq_merit: Algorithm 2, the trait defaults.

    #[inline]
    fn doorbell(&mut self, ctx: &DoorbellCtx) -> DoorbellMode {
        if self.sla_dispatch && ctx.prio == Priority::High {
            DoorbellMode::Immediate
        } else {
            DoorbellMode::Batched
        }
    }

    #[inline]
    fn reap(&mut self, ctx: &ReapCtx) -> CompletionMode {
        if self.sla_dispatch && ctx.prio == Priority::High {
            CompletionMode::PerRequest
        } else {
            CompletionMode::Batched
        }
    }
}

/// QWin-style deadline-aware routing: optimise for *every* tenant's tail
/// deadline, not only the L-class.
///
/// Reads block their callers, so their effective deadline is tight no
/// matter the issuer's SLA: `deadline` promotes T-tenant reads into the
/// high-priority NQGroup with per-request queries, and runs latency-first
/// service routines (immediate doorbells, per-request reaps) on *all*
/// queues. T writes are asynchronous — deadline-slack — and stay on the
/// tenant's default (low-group) NSQ.
///
/// The trade this policy makes visible in `ext_policy`: background T read
/// streams flood the high group, so the L-class loses its isolation while
/// T op tails improve — the opposite end of the design space from
/// Algorithm 1's L-first stance.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeadlinePolicy;

impl Policy for DeadlinePolicy {
    fn name(&self) -> &'static str {
        "deadline"
    }

    #[inline]
    fn route(&mut self, ctx: &RouteCtx) -> RouteDecision {
        if ctx.base_prio == Priority::High {
            return RouteDecision::Default;
        }
        if ctx.outlier {
            return RouteDecision::Outlier;
        }
        if !ctx.write {
            // A blocking read on a deadline: per-request high-group query.
            return RouteDecision::Query {
                prio: Priority::High,
                m: 1,
            };
        }
        RouteDecision::Default
    }

    // ncq_merit / nsq_merit: Algorithm 2, the trait defaults.

    #[inline]
    fn doorbell(&mut self, _ctx: &DoorbellCtx) -> DoorbellMode {
        DoorbellMode::Immediate
    }

    #[inline]
    fn reap(&mut self, _ctx: &ReapCtx) -> CompletionMode {
        CompletionMode::PerRequest
    }
}

/// Size-class isolation: small requests high, bulk requests low, SLA-blind.
///
/// The classic storage heuristic (small I/O ≈ latency-sensitive, bulk I/O ≈
/// bandwidth-bound) applied at the NQ layer: every request at or below
/// [`SizeClassPolicy::threshold`] takes a per-request query into the
/// high-priority NQGroup, everything larger a per-request query into the
/// low group. Tenant identity, ionice, and outlier flags are ignored
/// entirely — which `ext_policy` shows is both its strength (a T-tenant's
/// small metadata I/O never queues behind bulk) and its weakness (an
/// L-tenant's occasional large read loses its SLA).
#[derive(Clone, Copy, Debug)]
pub struct SizeClassPolicy {
    /// Largest payload (bytes) still counted as the small class.
    pub threshold: u64,
}

impl Default for SizeClassPolicy {
    fn default() -> Self {
        // 32 KiB: between the paper's 4 KiB L-requests and 128 KiB T-bulk.
        SizeClassPolicy { threshold: 32 * 1024 }
    }
}

impl Policy for SizeClassPolicy {
    fn name(&self) -> &'static str {
        "sizeclass"
    }

    #[inline]
    fn route(&mut self, ctx: &RouteCtx) -> RouteDecision {
        let prio = if ctx.bytes <= self.threshold {
            Priority::High
        } else {
            Priority::Low
        };
        RouteDecision::Query { prio, m: 1 }
    }

    // Merits and batching: the trait defaults (Algorithm 2, SLA-aware).
}

/// Fair-share spray: every request queried, and the premium group shared
/// out by quota instead of reserved for the SLA class.
///
/// Routing starts from Algorithm 1's SLA split (L and outliers high, T
/// low) but abandons both tenant-default NSQs and strict reservation:
/// every request takes a fresh `m = 1` query, and one in [`share`]
/// low-priority requests is *promoted* into the high group, so background
/// tenants are guaranteed a fixed slice of the premium path rather than
/// only its leftovers. The merits rank queues by how many requests they
/// carried in the last window plus how many tenants point at them — load
/// share, not the lock-contention and IRQ-balancing signals Algorithm 2
/// optimises. `ext_policy` shows what that buys (even utilisation, a
/// throughput floor for T) and what it costs (L shares its fast path with
/// promoted T traffic, scheduling work on every request).
///
/// [`share`]: FairSharePolicy::share
#[derive(Clone, Copy, Debug)]
pub struct FairSharePolicy {
    /// Promote one in `share` low-priority requests to the high group.
    /// Must be non-zero; the default is 4 (T gets a 25% slice).
    pub share: u64,
    low_seen: u64,
}

impl Default for FairSharePolicy {
    fn default() -> Self {
        FairSharePolicy {
            share: 4,
            low_seen: 0,
        }
    }
}

impl Policy for FairSharePolicy {
    fn name(&self) -> &'static str {
        "fairshare"
    }

    #[inline]
    fn route(&mut self, ctx: &RouteCtx) -> RouteDecision {
        let prio = if ctx.base_prio == Priority::High || ctx.outlier {
            Priority::High
        } else {
            self.low_seen += 1;
            if self.low_seen % self.share == 0 {
                Priority::High
            } else {
                Priority::Low
            }
        };
        RouteDecision::Query { prio, m: 1 }
    }

    #[inline]
    fn ncq_merit(&mut self, ctx: &NcqMeritCtx) -> f64 {
        // Share of recent completions + standing assignments: queues that
        // carried more traffic rank worse, evening out the spray.
        ctx.complete_delta as f64 + ctx.assignments
    }

    #[inline]
    fn nsq_merit(&mut self, ctx: &NsqMeritCtx) -> f64 {
        ctx.submitted_delta as f64 + ctx.assignments as f64
    }

    // Batching: the trait defaults (§5.3's SLA-aware modes).
}

/// Built-in policy selection, as configuration data.
///
/// This is the `Copy` value that rides in [`DaredevilConfig`] (and through
/// scenario specs); [`PolicyKind::from_config`] turns it into the live
/// policy when a stack is built. Parse CLI names with
/// [`PolicySpec::parse`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PolicySpec {
    /// Algorithm 1/2 + §5.3 dispatching ([`DefaultPolicy`]).
    #[default]
    Default,
    /// Deadline-aware routing ([`DeadlinePolicy`]).
    Deadline,
    /// Size-class isolation ([`SizeClassPolicy`]).
    SizeClass,
    /// Fair-share spray ([`FairSharePolicy`]).
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

/// The built-in policies behind one enum: a single `match` per decision
/// point, so [`crate::DaredevilStack`]'s default type parameter stays a
/// concrete, non-generic type everywhere the testbed holds one.
///
/// Custom policies skip this enum entirely — implement [`Policy`] and use
/// [`crate::DaredevilStack::with_policy`] for static dispatch.
#[derive(Clone, Copy, Debug)]
pub enum PolicyKind {
    /// [`DefaultPolicy`].
    Default(DefaultPolicy),
    /// [`DeadlinePolicy`].
    Deadline(DeadlinePolicy),
    /// [`SizeClassPolicy`].
    SizeClass(SizeClassPolicy),
    /// [`FairSharePolicy`].
    FairShare(FairSharePolicy),
}

impl PolicyKind {
    /// Builds the configured policy for a stack configuration (the
    /// ablation variant parameterises [`DefaultPolicy`]'s dispatching).
    pub fn from_config(cfg: &DaredevilConfig) -> Self {
        match cfg.policy {
            PolicySpec::Default => {
                PolicyKind::Default(DefaultPolicy::for_variant(cfg.variant))
            }
            PolicySpec::Deadline => PolicyKind::Deadline(DeadlinePolicy),
            PolicySpec::SizeClass => PolicyKind::SizeClass(SizeClassPolicy::default()),
            PolicySpec::FairShare => PolicyKind::FairShare(FairSharePolicy::default()),
        }
    }
}

impl Default for PolicyKind {
    fn default() -> Self {
        PolicyKind::Default(DefaultPolicy::default())
    }
}

macro_rules! dispatch {
    ($self:ident, $p:ident => $call:expr) => {
        match $self {
            PolicyKind::Default($p) => $call,
            PolicyKind::Deadline($p) => $call,
            PolicyKind::SizeClass($p) => $call,
            PolicyKind::FairShare($p) => $call,
        }
    };
}

impl Policy for PolicyKind {
    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }

    #[inline]
    fn route(&mut self, ctx: &RouteCtx) -> RouteDecision {
        dispatch!(self, p => p.route(ctx))
    }

    #[inline]
    fn ncq_merit(&mut self, ctx: &NcqMeritCtx) -> f64 {
        dispatch!(self, p => p.ncq_merit(ctx))
    }

    #[inline]
    fn nsq_merit(&mut self, ctx: &NsqMeritCtx) -> f64 {
        dispatch!(self, p => p.nsq_merit(ctx))
    }

    #[inline]
    fn doorbell(&mut self, ctx: &DoorbellCtx) -> DoorbellMode {
        dispatch!(self, p => p.doorbell(ctx))
    }

    #[inline]
    fn reap(&mut self, ctx: &ReapCtx) -> CompletionMode {
        dispatch!(self, p => p.reap(ctx))
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

    #[test]
    fn default_policy_is_algorithm_1() {
        let mut p = DefaultPolicy::default();
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
        let mut p = DefaultPolicy::default();
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
        let mut full = DefaultPolicy::for_variant(Variant::Full);
        let mut sched = DefaultPolicy::for_variant(Variant::Sched);
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
        let mut p = DeadlinePolicy;
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
        let mut p = SizeClassPolicy::default();
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
        let mut p = FairSharePolicy::default();
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
    fn kind_delegates_to_inner_policy() {
        let cfg = DaredevilConfig {
            policy: PolicySpec::Deadline,
            ..DaredevilConfig::default()
        };
        let mut k = PolicyKind::from_config(&cfg);
        assert_eq!(k.name(), "deadline");
        assert_eq!(
            k.route(&ctx(Priority::Low, false, false, 131072)),
            RouteDecision::Query {
                prio: Priority::High,
                m: 1
            }
        );
        let k = PolicyKind::from_config(&DaredevilConfig::sched());
        match k {
            PolicyKind::Default(d) => assert!(!d.sla_dispatch),
            _ => panic!("sched config must build the default policy"),
        }
    }
}
