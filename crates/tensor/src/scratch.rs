//! A reusable buffer pool for per-step batch matrices.
//!
//! Steady-state serving executes the same cell shapes over and over; the
//! §4.3 gather/scatter path and every batched cell step used to allocate
//! (and free) each intermediate matrix per step. A [`Scratch`] arena owned
//! by each runtime worker recycles those buffers instead: [`Scratch::take`]
//! hands out a zeroed matrix (reusing a retired allocation when one is
//! available) and [`Scratch::put`] retires a matrix's buffer for reuse.
//!
//! Buffers are recycled LIFO so the hottest allocation (the one just
//! written and read) is handed out first, which keeps the working set in
//! cache across ops within one cell step.

use crate::matrix::Matrix;

/// Maximum retired buffers kept per arena; beyond this, `put` frees.
const MAX_POOLED: usize = 16;

/// A small arena of reusable `f32` buffers backing [`Matrix`] values.
#[derive(Debug, Default)]
pub struct Scratch {
    free: Vec<Vec<f32>>,
}

impl Scratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Returns a zeroed `(rows, cols)` matrix, reusing a retired buffer
    /// when possible.
    ///
    /// The matrix is always fully zeroed — cell code relies on this for
    /// implicit zero initial states at chain starts.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.resize(rows * cols, 0.0);
        Matrix::from_vec(rows, cols, buf)
    }

    /// Returns a `(rows, cols)` matrix with **unspecified contents**,
    /// reusing a retired buffer when possible.
    ///
    /// For buffers every element of which is about to be overwritten
    /// (GEMM outputs, gathered child states, gate-kernel outputs),
    /// [`take`]'s zeroing is pure waste; cell steps take all of those
    /// this way. Callers must not read an element before writing it.
    ///
    /// [`take`]: Scratch::take
    pub fn take_dirty(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.resize(rows * cols, 0.0);
        buf.truncate(rows * cols);
        Matrix::from_vec(rows, cols, buf)
    }

    /// Retires a matrix, keeping its allocation for a later [`take`].
    ///
    /// [`take`]: Scratch::take
    pub fn put(&mut self, m: Matrix) {
        if self.free.len() < MAX_POOLED {
            self.free.push(m.into_vec());
        }
    }

    /// Number of retired buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_retired_allocations() {
        let mut s = Scratch::new();
        let m = s.take(4, 8);
        let ptr = m.as_slice().as_ptr();
        s.put(m);
        assert_eq!(s.pooled(), 1);
        let m2 = s.take(2, 16);
        assert_eq!(m2.as_slice().as_ptr(), ptr);
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn take_always_zeroes() {
        let mut s = Scratch::new();
        let mut m = s.take(2, 2);
        m.as_mut_slice().fill(7.0);
        s.put(m);
        let m2 = s.take(3, 3);
        assert!(m2.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(m2.shape(), (3, 3));
    }

    #[test]
    fn pool_is_bounded() {
        let mut s = Scratch::new();
        for _ in 0..40 {
            let m = Matrix::zeros(1, 1);
            s.put(m);
        }
        assert!(s.pooled() <= MAX_POOLED);
    }
}
