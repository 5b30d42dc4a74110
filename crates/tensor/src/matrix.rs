//! The [`Matrix`] type: a dense, row-major `f32` matrix.
//!
//! Throughout the repository the first dimension is the *batch* dimension,
//! mirroring the paper's convention that "the first dimension of each of
//! its input tensors should be the batch dimension" (§4.2).

/// A dense row-major `f32` matrix.
///
/// `Matrix` is the only tensor type the reproduction needs: every cell
/// input/output is a `(batch, features)` matrix and weights are
/// `(in_features, out_features)` matrices. A weight a cell steps with is
/// held packed instead ([`crate::PackedWeights`]); a `Matrix` is the form
/// it is saved and loaded in.
#[derive(Clone, PartialEq, Debug)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
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
        Matrix { rows, cols, data }
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
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
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
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
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
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Serial reference matrix multiplication: the naive i-k-j ascending
    /// fold every optimized path must match bitwise.
    ///
    /// The oracle of the bitwise-identity tests: the packed GEMM
    /// ([`crate::gemm`]) computes exactly these bits.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{self, PackedWeights};

    /// `a * b` through the packed GEMM, pooled as the cells pool it.
    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(m, n);
        let pool = crate::ops::auto_pool(m, k, n);
        let packed = PackedWeights::from(b);
        gemm::gemm_into(a.as_slice(), m, k, &packed, None, &mut out.data, pool);
        out
    }

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
        assert_eq!(matmul(&a, &i), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[9.0, 9.0], &[2.0, 0.5]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[5.0, 2.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_serial_rejects_bad_shapes() {
        let _ = Matrix::zeros(2, 3).matmul_serial(&Matrix::zeros(4, 2));
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
        assert_eq!(matmul(&a, &b), a.matmul_serial(&b));
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
