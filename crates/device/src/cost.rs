//! The calibrated GPU kernel-time model.

use bm_cell::Cell;

/// Timing model of one GPU device, calibrated against Figure 3.
///
/// The kernel time for executing a cell at batch size `b` is
///
/// ```text
/// t(b) = (floor^p + (flops(b) / rate)^p)^(1/p)
/// ```
///
/// a smooth maximum of a fixed floor (launch + memory-bound region) and
/// a compute-bound linear term. With the V100 preset this yields, for
/// the paper's LSTM cell (hidden 1024):
///
/// | batch | model | paper (Fig. 3) |
/// |------:|------:|---------------:|
/// |    64 | ~155 µs | ~185 µs |
/// |   512 | ~790 µs | ~784 µs |
/// |  1024 | ~1.57 ms | ~1.6 ms |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuCostModel {
    /// Saturated compute rate, FLOPs per microsecond.
    pub flops_per_us: f64,
    /// Per-kernel-sequence floor in µs (launch + memory bound region).
    pub kernel_floor_us: f64,
    /// Smooth-max exponent.
    pub smooth_p: f64,
    /// Extra gap when a task's kernels are launched individually rather
    /// than pre-queued behind an in-flight task (§5 "keeping the GPU
    /// busy").
    pub launch_gap_us: f64,
    /// Gather cost per state row copied into a contiguous batch (§4.3).
    pub gather_us_per_row: f64,
    /// Cross-device copy cost per state row (NVLink transfer, §4.3).
    pub transfer_us_per_row: f64,
    /// Completion-notification delay: the signaling kernel plus the
    /// worker's polling loop (§5 "asynchronous completion notification").
    pub completion_poll_us: f64,
    /// Host-side scheduling overhead charged per task (§7.3 measures
    /// ~65 µs of "scheduling and gathering overhead" per step).
    pub sched_overhead_us: f64,
}

/// The priced components of one batched task execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCost {
    /// Kernel execution time, µs.
    pub kernel_us: f64,
    /// Gather memcpy time, µs.
    pub gather_us: f64,
    /// Cross-device transfer time, µs.
    pub transfer_us: f64,
    /// Host scheduling overhead, µs.
    pub overhead_us: f64,
}

impl TaskCost {
    /// Total device occupancy of the task, µs.
    pub fn total_us(&self) -> f64 {
        self.kernel_us + self.gather_us + self.transfer_us + self.overhead_us
    }
}

impl GpuCostModel {
    /// The V100 preset calibrated against Figure 3 (bottom).
    pub fn v100() -> Self {
        GpuCostModel {
            // 512 × 16.9 MFLOP in 784 µs  =>  ~11 MFLOP/µs (11 TFLOPS).
            flops_per_us: 11.0e6,
            kernel_floor_us: 150.0,
            smooth_p: 4.0,
            launch_gap_us: 10.0,
            gather_us_per_row: 0.08,
            transfer_us_per_row: 0.4,
            completion_poll_us: 5.0,
            sched_overhead_us: 55.0,
        }
    }

    /// Kernel time for `cell` at batch size `batch`, µs.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn kernel_time_us(&self, cell: &Cell, batch: usize) -> f64 {
        assert!(batch > 0, "zero batch");
        let compute = cell.flops(batch) as f64 / self.flops_per_us;
        self.smooth_max(self.kernel_floor_us, compute)
    }

    /// Kernel time from a raw FLOP count, µs (used by baselines pricing
    /// merged graphs without a concrete `Cell`).
    pub fn kernel_time_from_flops(&self, flops: u64) -> f64 {
        self.smooth_max(self.kernel_floor_us, flops as f64 / self.flops_per_us)
    }

    fn smooth_max(&self, a: f64, b: f64) -> f64 {
        let p = self.smooth_p;
        (a.powf(p) + b.powf(p)).powf(1.0 / p)
    }

    /// Prices one batched task.
    ///
    /// `gather_rows` is the number of state rows copied to form a
    /// contiguous input (0 when the batch composition is unchanged from
    /// the previous task of this subgraph set); `transfer_rows` is the
    /// number of rows moved from another device.
    pub fn task_cost(
        &self,
        cell: &Cell,
        batch: usize,
        gather_rows: usize,
        transfer_rows: usize,
    ) -> TaskCost {
        self.task_cost_from_flops(cell.flops(batch), gather_rows, transfer_rows)
    }

    /// Prices one batched task from a raw FLOP count (used with
    /// [`crate::CostProfile`] so small test models can be priced at
    /// paper scale).
    pub fn task_cost_from_flops(
        &self,
        flops: u64,
        gather_rows: usize,
        transfer_rows: usize,
    ) -> TaskCost {
        TaskCost {
            kernel_us: self.kernel_time_from_flops(flops),
            gather_us: gather_rows as f64 * self.gather_us_per_row,
            transfer_us: transfer_rows as f64 * self.transfer_us_per_row,
            overhead_us: self.sched_overhead_us,
        }
    }

    /// Single-step latency/throughput curve across batch sizes — the
    /// Figure 3 regeneration. Returns `(batch, exec_us, ops_per_sec)`
    /// rows.
    pub fn figure3_curve(&self, cell: &Cell, batches: &[usize]) -> Vec<(usize, f64, f64)> {
        batches
            .iter()
            .map(|&b| {
                let t = self.kernel_time_us(cell, b);
                (b, t, b as f64 / (t / 1e6))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_cell::LstmCell;

    fn lstm1024() -> Cell {
        // Shapes are all that matter for FLOPs; tiny vocab keeps
        // construction cheap.
        Cell::Lstm(LstmCell::seeded(1024, 1024, 4, 1))
    }

    #[test]
    fn matches_figure3_anchors() {
        let m = GpuCostModel::v100();
        let c = lstm1024();
        let t64 = m.kernel_time_us(&c, 64);
        let t512 = m.kernel_time_us(&c, 512);
        let t1024 = m.kernel_time_us(&c, 1024);
        // Flat region: within 25 % of the paper's ~185 µs at b = 64.
        assert!((140.0..220.0).contains(&t64), "t64 = {t64}");
        // Sweet spot: ~784 µs at b = 512.
        assert!((700.0..900.0).contains(&t512), "t512 = {t512}");
        // Compute bound: doubling batch doubles time (within 10 %).
        assert!((t1024 / t512 - 2.0).abs() < 0.2, "ratio {}", t1024 / t512);
    }

    #[test]
    fn flat_region_is_flat() {
        let m = GpuCostModel::v100();
        let c = lstm1024();
        let t2 = m.kernel_time_us(&c, 2);
        let t64 = m.kernel_time_us(&c, 64);
        assert!(t64 / t2 < 1.15, "flat region not flat: {t2} -> {t64}");
    }

    #[test]
    fn throughput_peaks_at_large_batch() {
        let m = GpuCostModel::v100();
        let c = lstm1024();
        let curve = m.figure3_curve(&c, &[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]);
        // Throughput strictly improves up to 512.
        for w in curve.windows(2) {
            if w[1].0 <= 512 {
                assert!(w[1].2 > w[0].2, "throughput dip at {}", w[1].0);
            }
        }
        // And is near-flat beyond 512 (within 10 %).
        let t512 = curve.iter().find(|r| r.0 == 512).unwrap().2;
        let t2048 = curve.iter().find(|r| r.0 == 2048).unwrap().2;
        assert!((t2048 - t512).abs() / t512 < 0.10);
    }

    #[test]
    fn task_cost_components_add_up() {
        let m = GpuCostModel::v100();
        let c = lstm1024();
        let cost = m.task_cost(&c, 64, 64, 10);
        assert!(cost.gather_us > 0.0 && cost.transfer_us > 0.0);
        assert!(
            (cost.total_us()
                - (cost.kernel_us + cost.gather_us + cost.transfer_us + cost.overhead_us))
                .abs()
                < 1e-9
        );
        let clean = m.task_cost(&c, 64, 0, 0);
        assert!(clean.total_us() < cost.total_us());
    }

    #[test]
    #[should_panic]
    fn zero_batch_panics() {
        let m = GpuCostModel::v100();
        let _ = m.kernel_time_us(&lstm1024(), 0);
    }

    #[test]
    fn decoder_costs_more_than_encoder() {
        // The encoder is an LSTM cell.
        use bm_cell::DecoderCell;
        let m = GpuCostModel::v100();
        let enc = Cell::Lstm(LstmCell::seeded(1024, 1024, 4, 1));
        // FLOPs depend on the projection width; build a decoder whose
        // vocab matches the paper's 30k without materializing the full
        // embedding: use vocab 30_000 but tiny embed for test speed is
        // not possible (embed width is the model dim), so use a scaled
        // check instead: decoder flops > 3x encoder flops (§7.4: decode
        // is ~75 % of compute).
        let dec = Cell::Decoder(DecoderCell::seeded(64, 64, 2000, 1));
        let enc_small = Cell::Lstm(LstmCell::seeded(64, 64, 2000, 1));
        assert!(dec.flops(16) > 3 * enc_small.flops(16));
        assert!(m.kernel_time_us(&enc, 512) > 0.0);
    }
}
