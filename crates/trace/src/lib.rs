//! Low-overhead structured tracing for the cellular-batching scheduler.
//!
//! The paper's central claims (§4, Algorithm 1) are about *why* the
//! scheduler forms each batch — saturation, starvation, priority,
//! subgraph pinning — yet aggregate counters cannot show a single
//! decision. This crate captures the full request lifecycle as typed
//! [`TraceEvent`]s behind a [`TraceSink`] trait:
//!
//! - [`NoopSink`] — the default; [`TraceSink::enabled`] returns `false`
//!   so instrumented hot paths skip event construction entirely;
//! - [`RingBufferSink`] — a bounded drop-oldest buffer capturing full
//!   events for export, counting what it drops;
//! - [`SamplingSink`] — per-request head sampling in front of another
//!   sink (keep/drop decided once at arrival by request-id hash), so
//!   million-request replays stay bounded.
//!
//! Exporters:
//!
//! - [`chrome_trace`] — Chrome trace-event JSON loadable in Perfetto or
//!   `chrome://tracing`, with one track per worker, a scheduler track of
//!   instant events, and per-request flow arrows across batched tasks;
//! - `bm_metrics::timeline` — plain-text per-request timelines
//!   reconstructed from the same events.
//!
//! The crate is deliberately dependency-light (ids are plain integers,
//! not the scheduler's newtypes) so every layer — engine, threaded
//! runtime, discrete-event simulator, harness — can share it without
//! cycles.

#![forbid(unsafe_code)]

mod chrome;
mod event;
mod sink;

/// Strict JSON parser, re-exported from `bm-telemetry` (it moved there
/// so snapshot decoding could live beside snapshot encoding without a
/// dependency cycle).
pub use bm_telemetry::json;

pub use chrome::{chrome_trace, chrome_trace_with_meta};
pub use event::{BatchReason, EventKind, RejectReason, TraceEvent, KIND_NAMES, NUM_EVENT_KINDS};
pub use sink::{noop, NoopSink, RingBufferSink, SamplingSink, TraceSink};
