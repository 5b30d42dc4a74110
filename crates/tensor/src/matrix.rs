//! The [`Matrix`] type: a dense, row-major `f32` matrix.
//!
//! Throughout the repository the first dimension is the *batch* dimension,
//! mirroring the paper's convention that "the first dimension of each of
//! its input tensors should be the batch dimension" (§4.2).

use std::sync::{Arc, OnceLock};

use crate::error::ShapeError;
use crate::gemm::{self, PackedWeights};
use crate::pool::ComputePool;

/// A dense row-major `f32` matrix.
///
/// `Matrix` is the only tensor type the reproduction needs: every cell
/// input/output is a `(batch, features)` matrix and weights are
/// `(in_features, out_features)` matrices.
///
/// When a matrix is used as the right-hand side of a matmul, its packed
/// panel representation ([`PackedWeights`]) is computed once and cached —
/// weight matrices are immutable per cell type (§4.2), so in steady-state
/// serving every hot matmul reuses the cached packing. Any mutable access
/// invalidates the cache.
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
    /// Lazily-built packed representation; shape/data identity only —
    /// excluded from `PartialEq`/`Debug`, shared by `Clone`.
    packed: OnceLock<Arc<PackedWeights>>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
            // The clone has identical data, so it can share the packing.
            packed: self.packed.clone(),
        }
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Matrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.data)
            .finish()
    }
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
            packed: OnceLock::new(),
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
            packed: OnceLock::new(),
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix {
            rows,
            cols,
            data,
            packed: OnceLock::new(),
        }
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows passed to from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
            packed: OnceLock::new(),
        }
    }

    /// Number of rows (the batch dimension).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the feature dimension).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    ///
    /// Invalidates any cached packed representation.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.packed = OnceLock::new();
        &mut self.data
    }

    /// A single row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A single row as a mutable slice.
    ///
    /// Invalidates any cached packed representation.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        self.packed = OnceLock::new();
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// Invalidates any cached packed representation.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols);
        self.packed = OnceLock::new();
        self.data[r * self.cols + c] = v;
    }

    /// The packed panel representation of this matrix as a matmul
    /// right-hand side, built on first use and cached until the matrix
    /// is mutated.
    pub fn packed(&self) -> &Arc<PackedWeights> {
        self.packed
            .get_or_init(|| Arc::new(PackedWeights::pack(self.rows, self.cols, &self.data)))
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// Runs the packed, cache-blocked GEMM ([`crate::gemm`]); `rhs`'s
    /// packing is cached across calls (see [`Matrix::packed`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`; use [`Matrix::try_matmul`]
    /// for a fallible variant.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.try_matmul(rhs).expect("matmul shape mismatch")
    }

    /// Fallible matrix multiplication.
    ///
    /// Returns a [`ShapeError`] if the inner dimensions disagree.
    ///
    /// Large products are row-chunked across the persistent global
    /// [`ComputePool`]; batching therefore saturates the available cores
    /// exactly as the paper's Figure 3 (top) CPU curve demonstrates —
    /// small batches cannot use all cores, large ones can. Results are
    /// bitwise-identical to the serial reference path in every
    /// configuration (see [`crate::gemm`] for the argument).
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm::gemm_into(
            &self.data,
            self.rows,
            self.cols,
            rhs.packed(),
            None,
            &mut out.data,
            auto_pool(self.rows, self.cols, rhs.cols),
        );
        Ok(out)
    }

    /// Serial reference matrix multiplication: the naive i-k-j ascending
    /// fold every optimized path must match bitwise.
    ///
    /// Exposed for benchmarking and for the bitwise-identity proptests;
    /// results are identical to [`Matrix::matmul`].
    pub fn matmul_serial(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (kk, &av) in a_row.iter().enumerate() {
                let b_row = &rhs.data[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// The transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise approximate equality within tolerance `tol`.
    ///
    /// Returns `false` when shapes differ.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Consumes the matrix, returning its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

/// Picks the pool for a product of the given shape: `None` (run on the
/// caller) unless the work dwarfs the pool handoff cost and the global
/// pool actually has extra threads. A pure function of `(m, k, n)` and
/// the pool size, so a shape always takes the same path.
pub(crate) fn auto_pool(m: usize, k: usize, n: usize) -> Option<&'static ComputePool> {
    // Handing half the rows to a parked worker costs 40-50 µs back to
    // back and 50-200 µs once its core has gone idle (2-core build host,
    // serial kernel at ~75 GFLOP/s). Measured serial vs 2-thread pool:
    // (8, 256, 1024) = 4.2 MFLOP loses, 53 vs 67 µs; 8-17 MFLOP breaks
    // even (108 vs 93, 271 vs 281 µs); (16, 512, 1024) = 16.8 MFLOP
    // wins, 247 vs 215 µs, and 33.6 MFLOP clearly, 650 vs 368 µs. Below
    // the threshold the second core only adds CPU time.
    //
    // The tree-internal cell's fused (512, 1280) product crosses the
    // threshold at 13 rows (its five (512, 256) products never did
    // below 61). Re-measured there with each chunk one pass over the
    // 2.6 MB of weights: 13 rows 231 vs 143 µs, 16: 276 vs 179, 24: 407
    // vs 252, 32: 542 vs 327, 48: 817 vs 457, 64: 1089 vs 593 — the
    // pool wins from the crossover on, so it stays. End to end
    // (`tree_bank`, 3 seed pairs) never pooling cost 26 % of peak
    // throughput and saved no CPU per request at the 30 % load.
    const PAR_THRESHOLD_FLOPS: usize = 16_000_000;
    // Up to `MR` rows are one row block: splitting them streams the
    // weights once per thread for nothing.
    if 2 * m * k * n < PAR_THRESHOLD_FLOPS || m <= gemm::MR {
        return None;
    }
    let pool = ComputePool::global();
    (pool.threads() > 1).then_some(pool)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::eye(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[9.0, 9.0], &[2.0, 0.5]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[5.0, 2.0]]));
    }

    #[test]
    fn try_matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let err = a.try_matmul(&b).unwrap_err();
        assert_eq!(err.op, "matmul");
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn row_access() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        a.row_mut(0)[1] = 9.0;
        assert_eq!(a.get(0, 1), 9.0);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Exceed the parallel threshold: 256 x 256 x 256 = 33 MFLOPs.
        let a = crate::init::xavier_uniform(256, 256, 5);
        let b = crate::init::xavier_uniform(256, 256, 6);
        assert_eq!(a.matmul(&b), a.matmul_serial(&b));
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = a.clone();
        b.set(0, 0, 1.0 + 1e-6);
        assert!(a.approx_eq(&b, 1e-5));
        assert!(!a.approx_eq(&b, 1e-8));
        let c = Matrix::filled(2, 3, 1.0);
        assert!(!a.approx_eq(&c, 1.0));
    }
}
