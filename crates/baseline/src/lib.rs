//! Graph-batching baselines (paper §2.3, §7.1).
//!
//! The paper compares BatchMaker against two families of serving
//! systems, both of which batch at the granularity of whole dataflow
//! graphs:
//!
//! - **Padding + bucketing** (MXNet, TensorFlow): requests of similar
//!   length share a bucket; a batch pads everything to the bucket's
//!   upper bound and the whole batch completes together. Buckets are
//!   served round-robin, and a non-full batch starts whenever a device
//!   is idle (§7.1 "batching configuration"). → [`PaddingServer`]
//! - **Dynamic graph merging** (TensorFlow Fold, DyNet): a set of
//!   pending requests' graphs are merged by depth level and executed as
//!   one conglomerate graph. Fold pays a large per-node graph
//!   construction cost (overlapped with execution, as the authors
//!   optimized); DyNet merges cheaply but batches at single-operator
//!   granularity, paying extra kernel launches per level. →
//!   [`DynGraphServer`] with [`DynGraphConfig::fold`] /
//!   [`DynGraphConfig::dynet`] presets.
//! - **Ideal** (Figure 15): a hard-coded static graph for a fixed input
//!   shape executing each cell at the full batch size with zero merge
//!   overhead. → [`IdealServer`]
//!
//! All baselines implement `bm_sim::Server` and run under the same
//! driver and cost model as the cellular server, so the comparisons
//! isolate the *batching policy*.

#![forbid(unsafe_code)]

mod dyngraph;
mod ideal;
mod levels;
mod padding;

pub use dyngraph::{DynGraphConfig, DynGraphServer};
pub use ideal::IdealServer;
pub use levels::level_histogram;
pub use padding::{PadKind, PaddingConfig, PaddingServer};
