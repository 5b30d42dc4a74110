//! Experiment harness regenerating every figure of the paper.
//!
//! Each submodule of [`experiments`] reproduces one figure of the
//! evaluation (§7). The `repro` binary dispatches to them and writes
//! markdown/CSV output under `results/`.
//!
//! The experiments run the *same* `bm_core::CellularEngine` that the
//! correctness tests exercise, under the discrete-event driver of
//! `bm-sim` with the Figure-3-calibrated `bm_device::GpuCostModel`.
//! Baselines implement the batching policies of MXNet/TensorFlow
//! (padding + bucketing), TensorFlow Fold and DyNet (dynamic graph
//! merging), and the Figure 15 ideal static graph.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod output;
pub mod systems;

pub use output::write_results;
pub use systems::{ServerFactory, SystemKind};
