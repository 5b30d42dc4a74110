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
//!   events for export, counting what it drops.
//!
//! Exporters:
//!
//! - [`chrome_trace`] — Chrome trace-event JSON loadable in Perfetto or
//!   `chrome://tracing`, with one track per worker, a scheduler track of
//!   instant events, and per-request flow arrows across batched tasks;
//! - [`reconstruct_timelines`] / [`render_timelines`] — plain-text
//!   per-request timelines reconstructed from the same events.
//!
//! This crate is the one reader of the [`TraceEvent`] format. It
//! depends on no other workspace crate (ids are plain integers, not the
//! scheduler's newtypes), so every layer — engine, threaded runtime,
//! discrete-event simulator, harness — can share it without cycles.

#![forbid(unsafe_code)]

mod chrome;
mod event;
mod sink;
mod timeline;

pub use chrome::{chrome_trace, chrome_trace_with_meta};
pub use event::{BatchReason, EventKind, RejectReason, TraceEvent, KIND_NAMES, NUM_EVENT_KINDS};
pub use sink::{noop, NoopSink, RingBufferSink, TraceSink};
pub use timeline::{reconstruct_timelines, render_timelines, RequestTimeline, TimelineEntry};
