//! Host CPU model.
//!
//! The paper's latency results are not a pure device phenomenon: under high
//! T-pressure, cores are busy issuing and completing T-requests, so
//! L-tenants also wait for *CPU*. This crate models that contention at work-
//! item granularity:
//!
//! * a work item is a bounded slice of core time (a syscall submission, an
//!   ISR, a request-reap) whose payload the testbed executes when the item
//!   starts, learning its cost from the executed action (see
//!   [`core_model::CpuSystem`] for the dispatch protocol);
//! * each core runs one item at a time, picking the next by class priority
//!   (hard-IRQ > task) then FIFO — interrupts preempt application work at
//!   item boundaries, which is why long batched completion ISRs of
//!   T-requests delay everything else on the core;
//! * cores are uniform: every item runs for exactly the cost its action
//!   returns (WS-M runs only its 8 P-cores, §7), so a host is a core count;
//! * [`costs::HostCosts`] centralises the host-side timing constants shared
//!   by every storage stack implementation.

#![warn(missing_docs)]

pub mod core_model;
pub mod costs;
pub mod work;

pub use core_model::CpuSystem;
pub use costs::HostCosts;
pub use work::WorkClass;
