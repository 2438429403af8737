//! Discrete-event model of a multi-queue NVMe SSD.
//!
//! This crate is the device half of the reproduction substrate: a black-box
//! NVMe SSD exactly as the paper's storage stacks see one. It models the
//! pieces that give rise to the multi-tenancy issue:
//!
//! * **NVMe I/O queues (NQs)** — submission and completion queues
//!   ([`queue`]) with doorbells and the NSQ→NCQ binding of the spec (§2.1
//!   of the paper). Each NSQ and NCQ is a FIFO over one device-wide command
//!   slab, in which a command keeps one slot from its push until the host
//!   reaps its completion. A queue's depth is the queue-full limit, not
//!   storage: the slab is sized from the run's in-flight bound
//!   ([`device::NvmeDevice::reserve`]);
//! * **round-robin queue arbitration** ([`arbiter::Arbiter`]) — the
//!   controller fetches commands from non-empty NSQs in round-robin order, one
//!   in-order command at a time per queue, so a bulky head-of-line T-request
//!   delays every later request *in the same NSQ* but not requests parked in
//!   other NSQs. Every NSQ starts in one WRR class; a driver that classifies
//!   its NSQs (the overprovision baseline) gets weighted round robin;
//! * **size-proportional fetch/decompose cost** — fetching and decomposing a
//!   128 KB command costs ~32× more controller time than a 4 KB one;
//! * **a multi-channel flash backend** ([`flash::FlashBackend`]) — page
//!   operations stripe across channels/dies with FIFO service, reproducing
//!   the in-SSD interference the paper's §8.1 identifies as the reason even
//!   Daredevil stays at ms-scale latency under pressure;
//! * **namespaces** ([`namespace`]) — logical partitions that *share* the
//!   one set of NQs, which is precisely why per-namespace multi-tenancy
//!   control is insufficient (§3.2, Fig. 3c);
//! * **per-NCQ interrupt vectors** bound to CPU cores ([`irq`]).
//!
//! The facade is [`device::NvmeDevice`]; hosts drive it through explicit
//! method calls and drain the returned [`device::DeviceOutput`] actions, so
//! the device stays a pure, standalone-testable state machine.

#![warn(missing_docs)]

pub mod arbiter;
pub mod command;
pub mod config;
pub mod controller;
pub mod device;
pub mod flash;
pub mod irq;
pub mod namespace;
pub mod queue;
pub mod spec;

pub use arbiter::SqPriorityClass;
pub use command::{CqEntry, HostTag, IoOpcode, NvmeCommand};
pub use config::{NvmeConfig, PerfModel};
pub use device::{DeviceOutput, NvmeDevice, NvmeEvent};
pub use spec::{CommandId, CqId, NamespaceId, SqId, BLOCK_BYTES};
