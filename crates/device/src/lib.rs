//! Device abstraction: a calibrated GPU timing model and CPU execution
//! helpers.
//!
//! The environment has no GPU, so serving experiments run on a simulated
//! device whose kernel-time curve is calibrated to the paper's Figure 3
//! microbenchmark (single LSTM step, hidden size 1024, NVIDIA V100):
//!
//! - execution time is *flat* (~150–190 µs) for batch sizes up to ~64 —
//!   the kernel is bound by launch overhead and off-chip memory traffic;
//! - it grows sublinearly up to b = 512 (≈ 784 µs), the throughput
//!   sweet spot;
//! - beyond 512 it roughly doubles as the batch doubles (compute bound).
//!
//! [`GpuCostModel`] reproduces this with a smooth-max of a fixed floor
//! and a FLOP-proportional compute term, and prices the ancillary costs
//! the paper discusses: per-task kernel-launch gaps (§5), "gather"
//! memory copies when batch composition changes, and cross-GPU state
//! transfers (§4.3).

#![forbid(unsafe_code)]

mod cost;
mod profile;
mod timer;

pub use cost::{GpuCostModel, TaskCost};
pub use profile::CostProfile;
pub use timer::CpuTimer;

/// Identifier of a worker (one GPU device) in a multi-device deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u32);

impl WorkerId {
    /// Numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_id_display() {
        assert_eq!(WorkerId(2).to_string(), "gpu2");
        assert_eq!(WorkerId(2).index(), 2);
    }
}
