//! Latency recording, percentiles, CDFs and result table formatting.
//!
//! The paper reports, per offered load: 50/90/99-percentile latency and
//! throughput (Figures 7, 8, 11, 13, 14, 15), and CDFs of queueing and
//! computation time (Figure 9). This crate provides the measurement
//! plumbing all servers share, plus plain-text table/CSV rendering for
//! the harness.
//!
//! All timestamps are in **microseconds**; latencies are reported in
//! milliseconds.

#![forbid(unsafe_code)]

mod cdf;
mod recorder;
mod sla;
mod table;

pub use cdf::Cdf;
pub use recorder::{LatencyRecorder, RequestTiming, Summary};
pub use sla::SlaSummary;
pub use table::{fmt1, Table};
