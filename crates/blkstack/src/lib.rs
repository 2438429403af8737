//! Block-layer model and the `StorageStack` interface.
//!
//! This crate is the host half of the reproduction substrate: the pieces of
//! the Linux block layer that every storage stack in the comparison shares,
//! plus the vanilla Multi-Queue Block IO Queueing Mechanism (blk-mq) itself:
//!
//! * [`bio`] — the I/O unit issued by tenants, with the `REQ_SYNC` /
//!   `REQ_META` flags Daredevil uses to spot outlier L-requests (§6 of the
//!   paper) and the issuer's ionice class;
//! * [`ioprio`] — ionice priority classes, the SLA signal troute reads;
//! * [`tenant`] — `task_struct`-like process descriptors;
//! * [`split`] — I/O splitting of oversized bios into per-command requests;
//! * [`reqmap`] — outstanding request/bio tracking shared by all stacks;
//! * [`nsqlock`] — the per-NSQ tail-lock contention model whose measured
//!   `in_lock` time feeds Algorithm 2's NSQ merit;
//! * [`stack`] — the [`stack::StorageStack`] trait and [`stack::StackEnv`]
//!   through which the testbed drives any stack implementation, and the
//!   doorbell and completion modes a stack chooses between;
//! * [`dispatch`] — the blk-mq core under every stack: staging, locked
//!   NSQ push, ISR reap (batched or per-request completion), queue-full
//!   requeue, stalled-NSQ redrive and buffer recycling. A stack keeps only
//!   its decisions (routing, doorbell, completion); the testbed drives the
//!   core's lifecycle;
//! * [`iosched`] — block-layer I/O schedulers (the [`iosched::Elevator`]
//!   enum over mq-deadline-lite and kyber-lite) staging requests under
//!   per-queue dispatch budgets;
//! * [`blkmq`] — vanilla blk-mq with its static core→NQ bindings, and the
//!   NQ-partitioned variant used by the paper's Fig. 2 motivation;
//! * [`capabilities`] — the Table 1 factor matrix.

#![warn(missing_docs)]

pub mod bio;
pub mod blkmq;
pub mod capabilities;
pub mod dispatch;
pub mod ioprio;
pub mod iosched;
pub mod nsqlock;
pub mod reqmap;
pub mod split;
pub mod stack;
pub mod tenant;

pub use bio::{Bio, BioCompletion, BioId, ReqFlags};
pub use capabilities::Capabilities;
pub use ioprio::IoPriorityClass;
pub use stack::{IoBounds, RouteStats, StackEnv, StackStats, StorageStack};
pub use tenant::{Pid, TaskStruct};
