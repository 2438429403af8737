//! Deterministic discrete-event simulation kit.
//!
//! `simkit` provides the substrate every other crate in this workspace is
//! built on: a nanosecond-resolution virtual clock ([`SimTime`]), a
//! deterministic event queue ([`EventQueue`], a bucketed calendar queue
//! with a binary-heap far lane), a seedable PRNG with the
//! distributions the workloads need ([`rng::SimRng`]), the exponential
//! smoothing used by Daredevil's NQ scheduler ([`ewma::Ewma`]), and a
//! re-sortable keyed min-heap ([`keyed_heap::KeyedMinHeap`]) that backs the
//! merit heaps of Algorithm 2 in the paper.
//!
//! Everything here is `std`-only and fully deterministic: replaying a
//! simulation with the same seed produces bit-identical results.

#![warn(missing_docs)]

pub mod arena;
pub mod event;
pub mod ewma;
pub mod fault;
pub mod keyed_heap;
pub mod rng;
pub mod slab;
pub mod time;
pub mod trace;

pub use arena::{ArenaReset, ArenaStats, RunArena};
pub use event::EventQueue;
pub use ewma::Ewma;
pub use fault::{FaultClasses, FaultEvent, FaultGeometry, FaultKind, FaultPlan, FaultSpec, FaultStats};
pub use keyed_heap::KeyedMinHeap;
pub use rng::{SimRng, ZetaCache, Zipfian};
pub use slab::{DenseMap, Key, Slab, SlotId};
pub use time::{SimDuration, SimTime};
pub use trace::{
    Phase, Sla, TraceEvent, TraceSink, TraceSpec, MASK_ALL, PHASE_COUNT, PHASE_NAMES, RQ_NONE,
};
