//! Seeded weight initialization.
//!
//! Inference serves *pre-trained* weights; for a reproduction the actual
//! values only need to be deterministic and numerically well-behaved, so
//! all models initialize with seeded Xavier-uniform weights.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// Weight initialization schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightInit {
    /// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform,
    /// All zeros (used for biases).
    Zeros,
    /// All ones.
    Ones,
}

impl WeightInit {
    /// Materializes a `(rows, cols)` matrix using this scheme and the RNG.
    pub fn init(self, rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        match self {
            WeightInit::XavierUniform => {
                let a = xavier_bound(rows, cols);
                let data = (0..rows * cols).map(|_| rng.gen_range(-a..=a)).collect();
                Matrix::from_vec(rows, cols, data)
            }
            WeightInit::Zeros => Matrix::zeros(rows, cols),
            WeightInit::Ones => Matrix::filled(rows, cols, 1.0),
        }
    }
}

/// Convenience: a seeded Xavier-uniform matrix.
pub fn xavier_uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    WeightInit::XavierUniform.init(rows, cols, &mut rng)
}

/// [`xavier_uniform`]`(rows, cols, seed)` one row at a time: each call
/// fills its `cols`-float argument with the next row, the same draws in
/// the same order. Handed to [`crate::PackedWeights::pack_rows`], it
/// packs a seeded weight without the row-major matrix ever existing.
pub fn xavier_uniform_rows(rows: usize, cols: usize, seed: u64) -> impl FnMut(&mut [f32]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = xavier_bound(rows, cols);
    move |row| row.iter_mut().for_each(|v| *v = rng.gen_range(-a..=a))
}

/// The Xavier-uniform bound `sqrt(6 / (fan_in + fan_out))`.
fn xavier_bound(rows: usize, cols: usize) -> f32 {
    (6.0 / (rows + cols) as f32).sqrt()
}

/// A zero matrix with the same shape as `m`.
pub fn zeros_like(m: &Matrix) -> Matrix {
    Matrix::zeros(m.rows(), m.cols())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_rows_are_the_rows_of_xavier_uniform() {
        for (rows, cols, seed) in [(1, 1, 0), (3, 17, 42), (8, 5, 7)] {
            let want = xavier_uniform(rows, cols, seed);
            let mut next = xavier_uniform_rows(rows, cols, seed);
            for r in 0..rows {
                let mut row = vec![f32::NAN; cols];
                next(&mut row);
                assert_eq!(row, want.row(r), "({rows},{cols}) row {r}");
            }
        }
    }

    #[test]
    fn xavier_is_deterministic_per_seed() {
        let a = xavier_uniform(8, 8, 42);
        let b = xavier_uniform(8, 8, 42);
        let c = xavier_uniform(8, 8, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_respects_bound() {
        let m = xavier_uniform(16, 16, 7);
        let a = (6.0_f32 / 32.0).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= a));
        // Not degenerate: some spread exists.
        let max = m.as_slice().iter().cloned().fold(f32::MIN, f32::max);
        let min = m.as_slice().iter().cloned().fold(f32::MAX, f32::min);
        assert!(max > 0.0 && min < 0.0);
    }

    #[test]
    fn zeros_and_ones_schemes() {
        let mut rng = StdRng::seed_from_u64(0);
        let z = WeightInit::Zeros.init(2, 3, &mut rng);
        let o = WeightInit::Ones.init(2, 3, &mut rng);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        assert!(o.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn zeros_like_matches_shape() {
        let m = xavier_uniform(3, 5, 1);
        let z = zeros_like(&m);
        assert_eq!(z.shape(), (3, 5));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }
}
