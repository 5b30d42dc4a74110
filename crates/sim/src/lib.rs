//! Discrete-event simulation of RNN serving.
//!
//! The serving experiments (Figures 7–9, 11, 13–15) measure
//! latency/throughput under open-loop Poisson load on V100 GPUs. Without
//! the hardware, we replay the same experiments in virtual time: workers
//! are modelled as serial executors whose task durations come from the
//! calibrated [`bm_device::GpuCostModel`], and the *same*
//! `bm_core::CellularEngine` that the real threaded runtime drives makes
//! every scheduling decision.
//!
//! - [`Server`] — the protocol a simulated serving system implements
//!   (cellular batching here; the graph-batching baselines in
//!   `bm-baseline`): it admits requests, stamps the starts of the work
//!   items it hands idle workers, and reports each [`Completion`];
//! - [`CellularServer`] — BatchMaker under simulation;
//! - [`simulate`] — the open-loop driver: runs each worker's items back
//!   to back and keeps the books (completion records; admitted,
//!   expired, refused and unfinished counts).

#![forbid(unsafe_code)]

mod cellular;
mod driver;
mod event;
mod server;

pub use cellular::CellularServer;
pub use driver::{simulate, SimOptions, SimOutcome};
pub use event::EventQueue;
pub use server::{Completion, Server, SimRequest, WorkItem};
