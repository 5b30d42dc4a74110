//! Synthetic datasets, length distributions and arrival processes.
//!
//! The paper evaluates on WMT-15 Europarl (100k sampled sentences, mean
//! length 24, maximum 330, 99 % shorter than 100 — §7.1/Figure 10) and
//! the Stanford TreeBank (10k binary parse trees — §7.5), issuing
//! requests "with Poisson inter-arrival times" (§7.1).
//!
//! We do not have the datasets (and do not need the word identities —
//! only lengths and tree shapes drive scheduling), so this crate
//! synthesizes statistically matched equivalents:
//!
//! - [`dist`] — from-scratch samplers (exponential via inverse CDF,
//!   normal via Box–Muller, log-normal) so no distribution crate is
//!   needed;
//! - [`lengths`] — the WMT-like length distribution (log-normal fitted
//!   to mean 24 / p99 ≈ 100, clipped at 330), plus the Figure 11
//!   variants (fixed length, clipped at 50 / 100);
//! - [`datasets`] — seeded generators producing `RequestInput`s for all
//!   three applications, including random binary parse trees and the
//!   Figure 15 identical-tree dataset;
//! - [`arrivals`] — the open-loop Poisson arrival process, plus the
//!   wall-clock [`Pacer`] the socket load generator uses to replay a
//!   virtual-µs schedule in real time.

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod datasets;
pub mod dist;
pub mod lengths;

pub use arrivals::{Pacer, PoissonArrivals};
pub use datasets::{Dataset, DatasetKind};
pub use lengths::LengthDistribution;
