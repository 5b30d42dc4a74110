//! Figure 3: latency vs throughput of a single LSTM step across batch
//! sizes, on the simulated GPU (calibrated model) and on the real CPU
//! (measured wall time of our tensor engine).

use std::time::Instant;

use bm_cell::{Cell, LstmCell, RowInvocation, Scratch};
use bm_device::GpuCostModel;
use bm_metrics::Table;

use crate::experiments::Scale;

/// The batch sizes of the paper's Figure 3.
pub const BATCHES: &[usize] = &[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    vec![gpu_table(), cpu_table(scale)]
}

/// The simulated-GPU curve from the calibrated cost model
/// (hidden size 1024, the paper's configuration).
pub fn gpu_table() -> Table {
    let cost = GpuCostModel::v100();
    let cell = Cell::Lstm(LstmCell::seeded(1024, 1024, 4, 1));
    let mut t = Table::new(
        "Figure 3 (bottom): GPU LSTM step, hidden 1024 (calibrated model)",
        &["batch", "exec_time_us", "throughput_ops_per_sec"],
    );
    for (b, us, ops) in cost.figure3_curve(&cell, BATCHES) {
        t.push_row(vec![b.to_string(), format!("{us:.0}"), format!("{ops:.0}")]);
    }
    t
}

/// The real-CPU curve: measured wall time of one batched LSTM step on
/// our tensor engine, through the gather entry point a shard runs
/// (`execute_rows_in` with a scratch arena reused across steps; the
/// emitted rows are only read, not copied). A smaller hidden size keeps
/// the measurement quick; the *shape* (flat floor, then linear growth,
/// throughput saturating) is what Figure 3 (top) demonstrates.
pub fn cpu_table(scale: Scale) -> Table {
    let (hidden, curve) = cpu_curve(scale);
    let mut t = Table::new(
        format!("Figure 3 (top): CPU LSTM step, hidden {hidden} (measured)"),
        &["batch", "exec_time_us", "throughput_ops_per_sec"],
    );
    for (b, us) in curve {
        t.push_row(vec![
            b.to_string(),
            format!("{us:.0}"),
            format!("{:.0}", b as f64 / (us / 1e6)),
        ]);
    }
    t
}

/// The measurements behind [`cpu_table`]: the hidden size used at this
/// scale and `(batch, µs per step)` for each of the paper's batch sizes
/// up to the scale's largest.
pub fn cpu_curve(scale: Scale) -> (usize, Vec<(usize, f64)>) {
    let hidden = match scale {
        Scale::Quick => 128,
        Scale::Full => 256,
    };
    let max_batch = match scale {
        Scale::Quick => 256,
        Scale::Full => 1024,
    };
    let cell = Cell::Lstm(LstmCell::seeded(hidden, hidden, 64, 7));
    let mut scratch = Scratch::new();
    let mut step = |invs: &[RowInvocation<'_>]| {
        cell.execute_rows_in(invs, &mut scratch, |row, h, c, token| {
            std::hint::black_box((row, h, c, token));
        })
    };
    let tokens = |b: usize| -> Vec<RowInvocation<'_>> {
        (0..b)
            .map(|i| RowInvocation::token_only((i % 64) as u32))
            .collect()
    };
    // Warm the arena at the largest batch first: its buffers swap roles
    // from step to step, so a few steps grow every one of them to full
    // size, and each timed step below reuses them as a long-lived shard
    // would instead of timing their growth.
    let largest = tokens(max_batch);
    for _ in 0..8 {
        step(&largest);
    }
    let mut curve = Vec::new();
    for &b in BATCHES.iter().filter(|&&b| b <= max_batch) {
        let invs = tokens(b);
        // Warm up, then time a few iterations.
        step(&invs);
        let iters = (8 / (b / 64).max(1)).max(2);
        let start = Instant::now();
        for _ in 0..iters {
            step(&invs);
        }
        curve.push((b, start.elapsed().as_secs_f64() * 1e6 / iters as f64));
    }
    (hidden, curve)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_curve_matches_paper_anchors() {
        let t = gpu_table();
        assert_eq!(t.row_count(), BATCHES.len());
        let csv = t.to_csv();
        // The 512 row sits in the 700-900 µs band (paper: 784 µs).
        let row512: Vec<&str> = csv
            .lines()
            .find(|l| l.starts_with("512,"))
            .expect("512 row")
            .split(',')
            .collect();
        let us: f64 = row512[1].parse().unwrap();
        assert!((700.0..900.0).contains(&us), "{us}");
    }

    #[test]
    fn cpu_curve_has_one_measured_row_per_batch() {
        // Shape only. How much throughput batching buys on this CPU is a
        // wall-clock ratio that depends on the host and on what else it
        // is running; it is reported in the table and no longer gated
        // anywhere, here or in CI.
        let (_, curve) = cpu_curve(Scale::Quick);
        let batches: Vec<usize> = curve.iter().map(|&(b, _)| b).collect();
        assert_eq!(batches, [2, 4, 8, 16, 32, 64, 128, 256]);
        for (b, us) in curve {
            assert!(us.is_finite() && us > 0.0, "batch {b}: {us} µs");
        }
        assert_eq!(cpu_table(Scale::Quick).row_count(), batches.len());
    }
}
