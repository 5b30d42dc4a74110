//! A reusable buffer pool for per-step batch matrices.
//!
//! Steady-state serving executes the same cell shapes over and over; the
//! §4.3 gather/scatter path and every batched cell step used to allocate
//! (and free) each intermediate matrix per step. A [`Scratch`] arena owned
//! by each runtime worker recycles those buffers instead: [`Scratch::take`]
//! hands out a zeroed matrix (reusing a retired allocation when one is
//! available) and [`Scratch::put`] retires a matrix's buffer for reuse.
//!
//! Each take hands out the retired buffer that fits best: the smallest
//! whose capacity holds the request, else the largest, grown to fit. So
//! a step that takes the same shapes every time settles on one buffer
//! per shape, and the pool holds the sum of those shapes. (Handing out
//! the last buffer retired instead rotates buffers between roles until
//! every one has grown to the largest shape: a tree-internal step at
//! batch 64 pooled six buffers of its 327 kB pre-activation matrix,
//! about 2 MB, for shapes that sum to 0.7 MB.)

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
        let len = rows * cols;
        let mut buf = self.pick(len);
        buf.clear();
        buf.reserve_exact(len);
        buf.resize(len, 0.0);
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
        let len = rows * cols;
        let mut buf = self.pick(len);
        buf.reserve_exact(len.saturating_sub(buf.len()));
        buf.resize(len, 0.0);
        Matrix::from_vec(rows, cols, buf)
    }

    /// Removes and returns the retired buffer that best fits `len`
    /// elements — the smallest whose capacity holds them, else the
    /// largest — or a new empty one when none is pooled. A buffer that
    /// must grow grows to exactly `len` (the callers reserve exactly).
    fn pick(&mut self, len: usize) -> Vec<f32> {
        let best = self
            .free
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| {
                let cap = b.capacity();
                if cap >= len {
                    (false, cap)
                } else {
                    (true, usize::MAX - cap)
                }
            })
            .map(|(i, _)| i);
        best.map_or_else(Vec::new, |i| self.free.swap_remove(i))
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

    /// Total capacity, in elements, of the pooled buffers.
    fn pooled_capacity(s: &Scratch) -> usize {
        s.free.iter().map(Vec::capacity).sum()
    }

    /// A tree-internal step's six buffers at batch 64 and hidden 256
    /// (children's `h` side by side, two child `c`s, the five-gate
    /// pre-activation, the output `h` and `c`), taken and retired in
    /// the step's order, as `TreeInternalCell::execute_rows_in` does.
    fn internal_step(s: &mut Scratch) {
        let (b, h) = (64, 256);
        let bufs: Vec<Matrix> = [2 * h, h, h, 5 * h, h, h]
            .into_iter()
            .map(|cols| s.take_dirty(b, cols))
            .collect();
        for m in bufs {
            s.put(m);
        }
    }

    /// Every pooled buffer keeps the size of the one shape it serves:
    /// steady tree-internal steps, then a leaf step with smaller shapes
    /// (embedding 128, three-gate pre-activation, `h`, `c`), pool the
    /// sum of the internal step's shapes, not six copies of its largest.
    #[test]
    fn steady_steps_pool_the_sum_of_their_shapes() {
        let (b, h) = (64, 256);
        let internal_sum = b * (2 * h + h + h + 5 * h + h + h);
        let mut s = Scratch::new();
        for _ in 0..4 {
            internal_step(&mut s);
            assert_eq!(pooled_capacity(&s), internal_sum);
        }
        let leaf: Vec<Matrix> = [128, 3 * h, h, h]
            .into_iter()
            .map(|cols| s.take_dirty(b, cols))
            .collect();
        for m in leaf {
            s.put(m);
        }
        internal_step(&mut s);
        assert_eq!(s.pooled(), 6);
        assert_eq!(
            pooled_capacity(&s),
            internal_sum,
            "buffers grew past the shapes they serve"
        );
    }

    #[test]
    fn a_grown_buffer_grows_to_the_request_exactly() {
        let mut s = Scratch::new();
        let small = s.take(2, 3);
        s.put(small);
        let m = s.take_dirty(5, 7);
        assert_eq!(m.shape(), (5, 7));
        s.put(m);
        assert_eq!(pooled_capacity(&s), 35);
        let z = s.take(5, 7);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
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
