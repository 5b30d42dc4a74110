//! Analytic FLOP accounting per cell kind.
//!
//! The simulated GPU in `bm-device` converts these counts into kernel
//! execution times via a calibrated roofline-style curve (fixed launch
//! floor plus a compute-bound linear region), matching the shape of the
//! paper's Figure 3 microbenchmark.
//!
//! Counts follow the usual convention of 2 FLOPs per multiply-accumulate
//! and ignore element-wise activations' transcendental cost (they are a
//! rounding error next to the matmuls at hidden size 1024).

/// FLOPs of a dense `(batch, m) x (m, n)` matmul.
pub fn matmul_flops(batch: usize, m: usize, n: usize) -> u64 {
    2 * batch as u64 * m as u64 * n as u64
}

/// FLOPs of one LSTM step with input width `e` and hidden width `h`.
///
/// One fused `(batch, e + h) x (e + h, 4h)` matmul plus element-wise
/// gate math (~9 ops per hidden unit).
pub fn lstm_flops(batch: usize, e: usize, h: usize) -> u64 {
    matmul_flops(batch, e + h, 4 * h) + 9 * batch as u64 * h as u64
}

/// FLOPs of the decoder output projection `(batch, h) x (h, vocab)`
/// plus the row-wise argmax.
pub fn projection_flops(batch: usize, h: usize, vocab: usize) -> u64 {
    matmul_flops(batch, h, vocab) + batch as u64 * vocab as u64
}

/// FLOPs of one TreeLSTM leaf cell (three `(batch, e) x (e, h)` matmuls).
pub fn tree_leaf_flops(batch: usize, e: usize, h: usize) -> u64 {
    3 * matmul_flops(batch, e, h) + 6 * batch as u64 * h as u64
}

/// FLOPs of one binary TreeLSTM internal cell
/// (five `(batch, 2h) x (2h, h)` matmuls).
pub fn tree_internal_flops(batch: usize, h: usize) -> u64 {
    5 * matmul_flops(batch, 2 * h, h) + 12 * batch as u64 * h as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_flops_scale_linearly_in_batch() {
        assert_eq!(matmul_flops(2, 8, 8), 2 * matmul_flops(1, 8, 8));
        assert_eq!(matmul_flops(1, 4, 4), 32);
    }

    #[test]
    fn lstm_dominated_by_fused_matmul() {
        // h = e = 1024: the paper's configuration. The matmul term is
        // 2 * 2048 * 4096 = ~16.8 MFLOPs per row.
        let per_row = lstm_flops(1, 1024, 1024);
        assert!(per_row > 16_000_000);
        assert!(per_row < 17_000_000);
    }

    #[test]
    fn decoder_projection_dominates_decode() {
        // "The decoding phase constitutes about 75 % of the entire
        // computation" (§7.4): with vocab 30k and h = 1024, projection
        // FLOPs should far exceed the LSTM step itself.
        let step = lstm_flops(1, 1024, 1024);
        let proj = projection_flops(1, 1024, 30_000);
        assert!(proj > 3 * step);
    }

    #[test]
    fn tree_cells_have_positive_costs() {
        assert!(tree_leaf_flops(1, 64, 64) > 0);
        assert!(tree_internal_flops(1, 64) > tree_leaf_flops(1, 64, 64));
    }

    #[test]
    fn all_costs_monotone_in_batch() {
        for b in 1..16 {
            assert!(lstm_flops(b + 1, 32, 32) > lstm_flops(b, 32, 32));
            assert!(projection_flops(b + 1, 32, 100) > projection_flops(b, 32, 100));
            assert!(tree_leaf_flops(b + 1, 32, 32) > tree_leaf_flops(b, 32, 32));
            assert!(tree_internal_flops(b + 1, 32) > tree_internal_flops(b, 32));
        }
    }
}
