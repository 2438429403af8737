//! Measurement utilities for the Daredevil reproduction.
//!
//! The experiment harness needs the same observables the paper reports:
//! per-tenant latency percentiles (average, p99, p99.9), IOPS, and byte
//! throughput, both as whole-run aggregates and as time series (Fig. 8).
//! This crate provides:
//!
//! * [`hist::LatencyHistogram`] — a log-bucketed histogram with bounded
//!   relative error, HdrHistogram-style, for percentile queries;
//! * [`series::TimeSeries`] — fixed-width time buckets for throughput and
//!   latency-over-time plots;
//! * [`summary`] — per-tenant and per-run roll-ups;
//! * [`span`] — the [`span::SpanTable`] post-processor that stitches
//!   structured `simkit` trace events into per-request phase spans;
//! * [`table`] — plain-text/markdown emission used by the figures.

#![warn(missing_docs)]

pub mod hist;
pub mod recovery;
pub mod series;
pub mod span;
pub mod summary;
pub mod table;

pub use hist::LatencyHistogram;
pub use recovery::FaultRecovery;
pub use series::TimeSeries;
pub use span::{SegmentStats, Span, SpanTable};
pub use summary::{ClassSummary, RunSummary, TenantSummary};
pub use table::Table;
