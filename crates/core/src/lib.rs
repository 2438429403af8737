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
//! * [`nqreg`] — the NQ regulator: owns the NQ table (one proxy per NSQ)
//!   and the policy, maintains priority NQGroups over the NQ
//!   heterogeneity, schedules NSQs with two-step merit min-heaps under the
//!   MRU update policy (Algorithm 2), and makes the SLA-aware I/O service
//!   dispatching decisions (§5.3);
//! * [`troute`] — the tenant-NQ request router: owns the tenant table,
//!   assesses tenant SLAs from ionice, profiles T-tenants for *outlier*
//!   (sync/metadata) requests, and routes per Algorithm 1 (§5.2), querying
//!   and claiming on the nqreg each call lends it;
//! * [`stack_impl`] — [`stack_impl::DaredevilStack`], the configuration,
//!   nqreg, troute and the dispatch core as a [`blkstack::StorageStack`],
//!   with the `dare-base` / `dare-sched` / `dare-full` ablation variants of
//!   the paper's §7.3;
//! * [`policy`] — the policy layer: the routing, merit, and batching
//!   decisions of Algorithms 1/2 and §5.3 in one [`policy::Policy`] type
//!   that matches on the configured [`PolicySpec`]: the paper's behaviour
//!   (`default`) and three alternatives (`deadline`, `sizeclass`,
//!   `fairshare`).
//!
//! The paper's parameters are not settings. Merit smoothing uses
//! [`ALPHA`] = 0.8 and outlier profiling a window of [`PROFILE_WINDOW`] = 64
//! requests (§5.2, §7); every merit heap's MRU budget is the NSQ depth of
//! the device the stack is built for (1 024 on both presets). A
//! [`DaredevilConfig`] holds only the two choices an experiment makes: the
//! ablation variant and the policy.
//!
//! # Quick start
//!
//! ```
//! use daredevil::{DaredevilConfig, DaredevilStack};
//! use dd_nvme::{NvmeConfig, NvmeDevice};
//!
//! // A dare-full stack over an SV-M-like device (64 NSQs of depth 1 024,
//! // so every merit heap's MRU budget is 1 024) on a 4-core host.
//! let device = NvmeDevice::new(NvmeConfig::sv_m(), 4);
//! let stack = DaredevilStack::new(DaredevilConfig::default(), &device);
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
pub use nproxy::{Nproxy, Priority};
pub use nqreg::{ncq_merit_k, nsq_merit_k, NqReg, ALPHA};
pub use policy::{CompletionMode, DoorbellMode, Policy, PolicySpec};
pub use stack_impl::DaredevilStack;
pub use troute::{Troute, PROFILE_WINDOW};
