//! Daredevil: a flexible multi-tenant kernel storage stack (EuroSys '25).
//!
//! This crate is the paper's primary contribution, rebuilt on the simulated
//! substrate. It decouples the static core→NQ bindings of blk-mq and routes
//! every I/O request to an NVMe submission queue matching its SLA:
//!
//! * [`nproxy`] — the proxy layer of **blex**, the decoupled block layer:
//!   one lightweight wrapper per NSQ exposing its state (priority, paired
//!   NCQ, claimed-core bitmap) to the block layer without breaking the
//!   block-layer/driver module boundary (§5.1);
//! * [`troute`] — the tenant-NQ request router: assesses tenant SLAs from
//!   ionice, profiles T-tenants for *outlier* (sync/metadata) requests, and
//!   routes per Algorithm 1 (§5.2);
//! * [`nqreg`] — the NQ regulator: maintains priority NQGroups over the NQ
//!   heterogeneity, schedules NSQs with two-step merit min-heaps under the
//!   MRU update policy (Algorithm 2), and dispatches SLA-aware I/O service
//!   routines (§5.3);
//! * [`stack_impl`] — [`stack_impl::DaredevilStack`], wiring the three
//!   components into a [`blkstack::StorageStack`], with the `dare-base` /
//!   `dare-sched` / `dare-full` ablation variants of the paper's §7.3;
//! * [`policy`] — the policy layer: the routing, merit, and batching
//!   decisions of Algorithms 1/2 and §5.3 in one [`policy::Policy`] type
//!   that matches on the configured [`PolicySpec`]: the paper's behaviour
//!   (`default`) and three alternatives (`deadline`, `sizeclass`,
//!   `fairshare`).
//!
//! # Quick start
//!
//! ```
//! use daredevil::{DaredevilConfig, DaredevilStack};
//!
//! // A dare-full stack for a 4-core host over a 64-NSQ device.
//! let stack = DaredevilStack::new(DaredevilConfig::default(), 4, 64, 64, |sq| sq % 64);
//! assert_eq!(blkstack::StorageStack::name(&stack), "daredevil");
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod nproxy;
pub mod nqreg;
pub mod policy;
pub mod stack_impl;
pub mod troute;

pub use blkstack::stack::RouteStats;
pub use config::{DaredevilConfig, Variant};
pub use nproxy::{Nproxy, Priority, ProxyTable};
pub use nqreg::{ncq_merit_k, nsq_merit_k, NqReg};
pub use policy::{CompletionMode, DoorbellMode, Policy, PolicySpec};
pub use stack_impl::DaredevilStack;
pub use troute::Troute;
