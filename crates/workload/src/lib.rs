//! Workload generators for the evaluation.
//!
//! Three generator families cover every experiment in the paper:
//!
//! * [`fio`] — FIO-style closed-loop jobs (block size, iodepth, pattern);
//!   the L-/T-tenant parameterisations of §7.1 live in [`tenants`];
//! * [`ycsb`] — the four YCSB workload mixes (A, B, E, F) running over
//!   [`kvsim`], an LSM-lite KV model with a block cache, WAL writes,
//!   memtable flushes and compactions (the RocksDB stand-in of §7.4);
//! * [`mailserver`] — a filebench-Mailserver-style op mix over a mail
//!   directory, with the fsync/delete operations the paper reports.
//!
//! Application workloads ([`app::App`]: YCSB or mailserver) express
//! themselves as sequences of [`app::AppOp`]s — each op is a short script of
//! I/O and compute steps the testbed executes on the tenant's core,
//! measuring op latency end to end.

#![warn(missing_docs)]

/// `RunArena` tags for workload scratch. Tags disambiguate same-typed
/// structures within one arena — both caches are `HashMap<u64, u64>`, so
/// they need distinct tags; [`simkit::ZetaCache`] is its own type.
///
/// The arena is single-occupancy per `(type, tag)` slot: when a scenario
/// runs two tenants of the same workload kind, only the last one parked is
/// recycled — correct either way, just less reuse.
pub mod arena_tags {
    /// YCSB/kvsim block-cache recency map (`HashMap<u64, u64>`).
    pub const KV_CACHE: u32 = 0;
    /// Mailserver page-cache recency map (same type, distinct tag).
    pub const MAIL_CACHE: u32 = 1;
    /// Memoised `zeta(n, θ)` table ([`simkit::ZetaCache`]).
    pub const ZETA_CACHE: u32 = 0;
}

pub mod app;
pub mod arrival;
pub mod fio;
pub mod kvsim;
pub mod mailserver;
pub mod tenants;
pub mod ycsb;

pub use app::{App, AppOp, IoDesc, OpKind, OpStep, Placement};
pub use arrival::ArrivalModel;
pub use fio::{FioJob, RwPattern};
pub use mailserver::MailserverWorkload;
pub use ycsb::{YcsbMix, YcsbWorkload};
