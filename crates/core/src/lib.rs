//! Cellular batching: the paper's primary contribution.
//!
//! This crate implements BatchMaker's manager (§4, Figure 6):
//!
//! - [`mod@partition`] — splitting each request's cell graph into
//!   same-type subgraphs (§4.3/§4.4);
//! - [`CellularEngine`] — the request processor + scheduler as a pure
//!   state machine, implementing Algorithm 1 exactly: cell-type
//!   selection by (saturation, starvation, priority), batched task
//!   formation across subgraphs, `MaxTasksToSubmit`, subgraph pinning
//!   for worker locality, and gather/transfer accounting;
//! - [`Runtime`] — the real-time driver: [`ServeConfig::shards`]
//!   shards, each one thread that schedules, executes and resolves,
//!   behind one submission front, running real cell math on CPU with
//!   results bit-identical to the unbatched reference executor;
//! - [`ResidentBatch`] — the resident-state execution plane every cell
//!   with a resident layout runs on: each active request's recurrent
//!   state stays parked as a row of a persistent batch matrix,
//!   eliminating the per-step gather while remaining bit-identical to
//!   the gather path (which tree cells and multi-dependency entries
//!   still take).
//!
//! The discrete-event simulator in `bm-sim` drives the same
//! [`CellularEngine`] under a calibrated GPU cost model to reproduce the
//! paper's latency/throughput experiments.

#![forbid(unsafe_code)]

mod config;
mod engine;
mod ids;
pub mod partition;
mod request;
mod resident;
mod runtime;
mod shard;
mod state_plane;
mod task;

pub use config::ServeConfig;
pub use engine::{CellularEngine, SchedulerConfig, SchedulerStats, STAGE_NAMES};
pub use ids::{RequestId, SubgraphId, TaskId, WorkerId};
pub use partition::{partition, Partition};
pub use request::{DeadlineSpec, Request};
pub use resident::{ResidentBatch, ResidentStats};
pub use runtime::{
    completion_queue, CompletionQueue, CompletionReceiver, HostedShard, ResponseHandle, Runtime,
    RuntimeOptions, ServedOutcome, ServedResult, ServedTiming, SubmitError, TaggedResult,
    WaitError,
};
pub use state_plane::SlotBlock;
pub use task::{CompletedRequest, Task, TaskEntry};
