//! Always-on serving telemetry for the cellular-batching stack.
//!
//! The paper's claims are latency distributions under load; this crate
//! is the live view of them. It provides a process-wide metric registry
//! ([`Telemetry`]) cheap enough to leave enabled on the serving hot
//! path:
//!
//! - [`Counter`] / [`Gauge`] — one relaxed atomic each, shared by
//!   every clone of the handle (a registry has one writer in practice:
//!   its shard's thread, or the simulator's);
//! - [`Histogram`] — log-bucketed HDR-style buckets (exact below 16,
//!   then 8 sub-buckets per power of two, ≤ 12.5% quantile error) with
//!   exact `sum`/`count`/`min`/`max`, mergeable across registries;
//! - [`Snapshot`] — an immutable sorted view, read in process or
//!   encoded as Prometheus text exposition ([`Snapshot::to_prometheus`]).
//!
//! Disabled telemetry ([`Telemetry::disabled`], every options struct's
//! default) costs one branch per instrumentation site and allocates
//! nothing, mirroring `bm_trace::TraceSink::enabled` — asserted by the
//! zero-overhead test suite.
//!
//! This crate depends on no other workspace crate, so every layer can
//! share one registry without cycles. It also holds the strict [`json`]
//! parser that tools reading JSON artifacts use.

#![forbid(unsafe_code)]

pub mod json;
mod metrics;
mod registry;
mod snapshot;

pub use metrics::{bucket_bounds, bucket_index, Counter, Gauge, Histogram, NUM_BUCKETS};
pub use registry::Telemetry;
pub use snapshot::{HistogramSnapshot, MetricEntry, MetricValue, Snapshot};
