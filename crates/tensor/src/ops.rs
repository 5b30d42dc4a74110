//! Batched tensor kernels used by RNN cells.
//!
//! Every function here operates on `(batch, features)` matrices. These are
//! the operators a BatchMaker "cell" is composed of: affine transforms,
//! element-wise activations, row gathers (the §4.3 "gather" memory copy),
//! column concatenation and splitting, the decoder's [`argmax_row`] and
//! embedding lookups.
//!
//! The transcendental element-wise operators ([`sigmoid`], [`tanh`]) and
//! the fused gate kernels re-exported below all evaluate the
//! [`crate::activation`] scalars, so every path agrees bitwise.

use crate::activation;
use crate::gemm::{self, PackedWeights};
use crate::matrix::Matrix;
use crate::pool::ComputePool;

pub use crate::gates::{lstm_gates_rows_inplace, tree_internal_gates, tree_leaf_gates};

/// Computes `x * w + b` into an existing `(batch, out)` matrix,
/// broadcasting the bias row over the batch and allocating nothing.
/// `x` is `(batch, in)`, `w` is `(in, out)` packed, `b` is `(1, out)`;
/// `out`'s prior contents are overwritten.
///
/// Fused: the bias is added inside the GEMM write-back, once per output
/// element after the full-k fold — the same expression tree as a matmul
/// followed by a bias pass, so results are bitwise identical to the
/// unfused composition.
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn affine_into(x: &Matrix, w: &PackedWeights, b: &Matrix, out: &mut Matrix) {
    assert_eq!(x.cols(), w.k(), "affine_into inner dimension");
    assert!(b.rows() == 1 && b.cols() == w.n(), "affine_into bias shape");
    assert_eq!(out.shape(), (x.rows(), w.n()), "affine_into output shape");
    let (m, k) = x.shape();
    gemm::gemm_into(
        x.as_slice(),
        m,
        k,
        w,
        Some(b.row(0)),
        out.as_mut_slice(),
        auto_pool(m, k, w.n()),
    );
}

/// Fused affine over the first `rows` rows of `x` into the first `rows`
/// rows of `out`, with an explicit [`ComputePool`] choice.
///
/// This is the resident-state entry point: the resident batch matrix is
/// allocated at capacity but only its occupied prefix carries live
/// requests, so the GEMM must run over a row prefix without reshaping
/// or copying. The pool parallelizes the batch-row dimension (disjoint,
/// evenly sized row chunks); per-row folds are independent, so results
/// are bitwise identical to [`affine_into`] on the same rows at any
/// pool size.
///
/// # Panics
///
/// Panics on shape mismatch or if `rows` exceeds either matrix.
pub fn affine_rows_into(
    x: &Matrix,
    rows: usize,
    w: &PackedWeights,
    b: &Matrix,
    out: &mut Matrix,
    pool: Option<&ComputePool>,
) {
    assert!(rows <= x.rows(), "affine_rows_into: rows exceeds input");
    assert!(rows <= out.rows(), "affine_rows_into: rows exceeds output");
    assert_eq!(x.cols(), w.k(), "affine_rows_into inner dimension");
    assert!(
        b.rows() == 1 && b.cols() == w.n(),
        "affine_rows_into bias shape"
    );
    assert_eq!(out.cols(), w.n(), "affine_rows_into output width");
    let k = x.cols();
    let n = w.n();
    gemm::gemm_into(
        &x.as_slice()[..rows * k],
        rows,
        k,
        w,
        Some(b.row(0)),
        &mut out.as_mut_slice()[..rows * n],
        pool,
    );
}

/// Fold-continuation affine over the first `rows` rows: computes
/// `out = (out + x · wh) + b`, seeding each output element's
/// accumulator from `out`'s current value ([`gemm::gemm_acc_into`]).
///
/// This is the second half of the resident plane's split affine: `out`
/// rows hold the precomputed token-projection partials
/// (`fold(0, x·Wx terms)`, no bias) and `x` holds the live hidden-state
/// rows, so the result is bitwise identical to one full
/// `affine_rows_into` over the concatenated `[x|h]` input — the fold
/// continues in the same ascending-`k` order and the bias is still
/// added exactly once at the end.
///
/// # Panics
///
/// Panics on shape mismatch or if `rows` exceeds either matrix.
pub fn affine_acc_rows_into(
    x: &Matrix,
    rows: usize,
    wh: &PackedWeights,
    b: &Matrix,
    out: &mut Matrix,
    pool: Option<&ComputePool>,
) {
    assert!(rows <= x.rows(), "affine_acc_rows_into: rows exceeds input");
    assert!(
        rows <= out.rows(),
        "affine_acc_rows_into: rows exceeds output"
    );
    assert_eq!(x.cols(), wh.k(), "affine_acc_rows_into inner dimension");
    assert!(
        b.rows() == 1 && b.cols() == wh.n(),
        "affine_acc_rows_into bias shape"
    );
    assert_eq!(out.cols(), wh.n(), "affine_acc_rows_into output width");
    let k = x.cols();
    let n = wh.n();
    gemm::gemm_acc_into(
        &x.as_slice()[..rows * k],
        rows,
        k,
        wh,
        Some(b.row(0)),
        &mut out.as_mut_slice()[..rows * n],
        pool,
    );
}

/// Picks the pool for an `(m, k, n)` product: the global
/// [`ComputePool`] when the work dwarfs the chunk handoff cost and the
/// pool actually has extra threads, `None` (run on the caller)
/// otherwise. [`affine_into`] uses it; callers driving
/// [`affine_rows_into`] or the [`gemm`] entry points make the same
/// choice through it. A pure function of `(m, k, n)` and the pool size,
/// so a shape always takes the same path; pool size never affects
/// results (bitwise).
pub fn auto_pool(m: usize, k: usize, n: usize) -> Option<&'static ComputePool> {
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

/// Element-wise sigmoid `1 / (1 + e^-x)`.
pub fn sigmoid(x: &Matrix) -> Matrix {
    map(x, activation::sigmoid)
}

/// Element-wise hyperbolic tangent.
pub fn tanh(x: &Matrix) -> Matrix {
    map(x, activation::tanh)
}

/// Applies `f` element-wise, producing a new matrix.
///
/// Single-pass: the output is built directly from the input, rather than
/// cloning and overwriting.
pub fn map(x: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
    let mut data = Vec::with_capacity(x.len());
    data.extend(x.as_slice().iter().map(|&v| f(v)));
    Matrix::from_vec(x.rows(), x.cols(), data)
}

/// Element-wise addition.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    zip(a, b, "add", |x, y| x + y)
}

/// Element-wise (Hadamard) product.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn mul(a: &Matrix, b: &Matrix) -> Matrix {
    zip(a, b, "mul", |x, y| x * y)
}

fn zip(a: &Matrix, b: &Matrix, op: &'static str, f: impl Fn(f32, f32) -> f32) -> Matrix {
    assert_eq!(
        a.shape(),
        b.shape(),
        "shape mismatch in {op}: {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    let mut data = Vec::with_capacity(a.len());
    data.extend(
        a.as_slice()
            .iter()
            .zip(b.as_slice().iter())
            .map(|(&x, &y)| f(x, y)),
    );
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// Concatenates matrices along the feature (column) axis.
///
/// All inputs must share the same batch size.
///
/// # Panics
///
/// Panics if the parts list is empty or batch sizes disagree.
pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
    assert!(!parts.is_empty(), "concat_cols of zero matrices");
    let rows = parts[0].rows();
    let cols: usize = parts.iter().map(|p| p.cols()).sum();
    let mut out = Matrix::zeros(rows, cols);
    for r in 0..rows {
        let mut off = 0;
        let out_row = out.row_mut(r);
        for p in parts {
            assert_eq!(p.rows(), rows, "concat_cols batch mismatch");
            out_row[off..off + p.cols()].copy_from_slice(p.row(r));
            off += p.cols();
        }
    }
    out
}

/// Copies the listed rows of `x` into an existing
/// `(indices.len(), x.cols())` matrix, allocating nothing (the
/// scratch-arena gather of §4.3).
///
/// # Panics
///
/// Panics if shapes disagree or any index is out of bounds.
pub fn gather_rows_into(x: &Matrix, indices: &[usize], out: &mut Matrix) {
    assert_eq!(
        out.shape(),
        (indices.len(), x.cols()),
        "gather_rows_into output shape"
    );
    for (i, &idx) in indices.iter().enumerate() {
        out.row_mut(i).copy_from_slice(x.row(idx));
    }
}

/// Splits a matrix into equal column chunks.
///
/// Used to slice the fused LSTM gate pre-activations `(batch, 4h)` into
/// the four `(batch, h)` gates.
///
/// # Panics
///
/// Panics if `x.cols()` is not divisible by `n`.
pub fn split_cols(x: &Matrix, n: usize) -> Vec<Matrix> {
    assert!(
        n > 0 && x.cols().is_multiple_of(n),
        "split_cols: {} % {n} != 0",
        x.cols()
    );
    let w = x.cols() / n;
    let mut parts = vec![Matrix::zeros(x.rows(), w); n];
    for r in 0..x.rows() {
        let row = x.row(r);
        for (k, part) in parts.iter_mut().enumerate() {
            part.row_mut(r).copy_from_slice(&row[k * w..(k + 1) * w]);
        }
    }
    parts
}

/// Index of the largest element of one row.
///
/// Ties resolve to the lowest index, matching the CUDA argmax kernel the
/// paper implemented for all evaluated systems (§7.4, footnote 3).
pub fn argmax_row(row: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Embedding lookup: row `ids[i]` of `table` becomes output row `i`.
///
/// # Panics
///
/// Panics if any id is out of the vocabulary.
pub fn embedding(table: &Matrix, ids: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(ids.len(), table.cols());
    embedding_into(table, ids, &mut out);
    out
}

/// [`embedding`] into an existing `(ids.len(), table.cols())` matrix.
///
/// # Panics
///
/// Panics if shapes disagree or any id is out of the vocabulary.
pub fn embedding_into(table: &Matrix, ids: &[usize], out: &mut Matrix) {
    for &id in ids {
        assert!(
            id < table.rows(),
            "embedding id {id} >= vocab {}",
            table.rows()
        );
    }
    gather_rows_into(table, ids, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows)
    }

    /// The serial oracle of the fused affine: `x * w`, then `b` added to
    /// every row.
    fn affine(x: &Matrix, w: &Matrix, b: &Matrix) -> Matrix {
        let mut out = x.matmul_serial(w);
        for r in 0..out.rows() {
            for (o, &bv) in out.row_mut(r).iter_mut().zip(b.row(0)) {
                *o += bv;
            }
        }
        out
    }

    /// Shape of the fused-kernel test inputs: 37 columns give every ISA
    /// tier a vector body and a scalar tail.
    const GATE_ROWS: usize = 3;
    const GATE_COLS: usize = 37;
    fn wave(cols: usize, scale: f32, phase: usize) -> Matrix {
        crate::gates::tests::wave(GATE_ROWS, cols, scale, phase)
    }

    #[test]
    fn affine_broadcasts_bias() {
        let x = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let w = PackedWeights::from(&Matrix::eye(2));
        let b = m(&[&[10.0, 20.0]]);
        let mut y = Matrix::zeros(2, 2);
        affine_into(&x, &w, &b, &mut y);
        assert_eq!(y, m(&[&[11.0, 22.0], &[13.0, 24.0]]));
    }

    #[test]
    #[should_panic(expected = "affine_into bias shape")]
    fn affine_into_rejects_bad_bias() {
        let x = Matrix::zeros(1, 2);
        let w = PackedWeights::from(&Matrix::zeros(2, 3));
        let b = Matrix::zeros(1, 2);
        affine_into(&x, &w, &b, &mut Matrix::zeros(1, 3));
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let x = m(&[&[0.0, 100.0, -100.0]]);
        let y = sigmoid(&x);
        assert!((y.get(0, 0) - 0.5).abs() < 1e-6);
        assert!(y.get(0, 1) > 0.999);
        assert!(y.get(0, 2) < 0.001);
    }

    #[test]
    fn tanh_is_odd() {
        let x = m(&[&[0.5, -0.5]]);
        let y = tanh(&x);
        assert!((y.get(0, 0) + y.get(0, 1)).abs() < 1e-6);
    }

    #[test]
    fn add_and_mul_elementwise() {
        let a = m(&[&[1.0, 2.0]]);
        let b = m(&[&[3.0, 4.0]]);
        assert_eq!(add(&a, &b), m(&[&[4.0, 6.0]]));
        assert_eq!(mul(&a, &b), m(&[&[3.0, 8.0]]));
    }

    #[test]
    #[should_panic]
    fn add_shape_mismatch_panics() {
        let _ = add(&Matrix::zeros(1, 2), &Matrix::zeros(2, 1));
    }

    #[test]
    fn concat_cols_layout() {
        let a = m(&[&[1.0], &[2.0]]);
        let b = m(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = concat_cols(&[&a, &b]);
        assert_eq!(c, m(&[&[1.0, 3.0, 4.0], &[2.0, 5.0, 6.0]]));
    }

    #[test]
    fn split_cols_inverts_concat() {
        let a = m(&[&[1.0, 2.0], &[5.0, 6.0]]);
        let b = m(&[&[3.0, 4.0], &[7.0, 8.0]]);
        let c = concat_cols(&[&a, &b]);
        let parts = split_cols(&c, 2);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn argmax_ties_go_low() {
        assert_eq!(argmax_row(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax_row(&[5.0, 2.0, 1.0]), 0);
    }

    #[test]
    fn embedding_selects_rows() {
        let table = m(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]]);
        let e = embedding(&table, &[2, 2, 0]);
        assert_eq!(e, m(&[&[2.0, 2.0], &[2.0, 2.0], &[0.0, 0.0]]));
    }

    #[test]
    #[should_panic]
    fn embedding_oov_panics() {
        let table = Matrix::zeros(3, 2);
        let _ = embedding(&table, &[3]);
    }

    #[test]
    fn affine_into_matches_affine() {
        let x = m(&[&[1.0, -2.0, 0.5], &[0.25, 3.0, -1.5]]);
        let w = m(&[&[1.0, 2.0], &[-0.5, 0.75], &[2.0, -1.0]]);
        let b = m(&[&[0.125, -0.25]]);
        let mut out = Matrix::zeros(2, 2);
        affine_into(&x, &PackedWeights::from(&w), &b, &mut out);
        assert_eq!(out, affine(&x, &w, &b));
    }

    #[test]
    fn lstm_gates_matches_composed_ops() {
        // Pre-activations out to +-9 reach both `tanh` branches and the
        // saturated ends of `sigmoid`.
        let z = wave(4 * GATE_COLS, 9.0, 0);
        let c_prev = wave(GATE_COLS, 2.0, 1);
        let gates = split_cols(&z, 4);
        let (i, f, g, o) = (
            sigmoid(&gates[0]),
            sigmoid(&gates[1]),
            tanh(&gates[2]),
            sigmoid(&gates[3]),
        );
        let c_want = add(&mul(&f, &c_prev), &mul(&i, &g));
        let h_want = mul(&o, &tanh(&c_want));
        let mut h = Matrix::zeros(GATE_ROWS, GATE_COLS);
        let mut c = c_prev.clone();
        lstm_gates_rows_inplace(&z, GATE_ROWS, &mut h, &mut c);
        assert_eq!(c, c_want);
        assert_eq!(h, h_want);
    }

    #[test]
    fn row_inplace_kernels_match_batch_kernels() {
        // The resident-state step runs the in-place kernel over the
        // occupied prefix of a taller batch; each prefix row must get
        // exactly the bits of a batch of just those rows.
        let z = m(&[
            &[0.3, -0.7, 1.2, 0.1, -0.4, 0.9, 2.0, -1.1],
            &[-0.2, 0.5, -1.3, 0.8, 1.1, -0.6, 0.4, 0.7],
            &[9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0], // beyond the prefix
        ]);
        let c_prev = m(&[&[0.5, -0.25], &[-1.5, 2.0], &[7.0, 7.0]]);
        let mut h_want = Matrix::zeros(2, 2);
        let mut c_want = m(&[c_prev.row(0), c_prev.row(1)]);
        lstm_gates_rows_inplace(&m(&[z.row(0), z.row(1)]), 2, &mut h_want, &mut c_want);
        let mut h = Matrix::from_vec(3, 2, vec![5.0; 6]);
        let mut c = c_prev.clone();
        lstm_gates_rows_inplace(&z, 2, &mut h, &mut c);
        for r in 0..2 {
            assert_eq!(h.row(r), h_want.row(r));
            assert_eq!(c.row(r), c_want.row(r));
        }
        // Rows past the prefix are untouched.
        assert_eq!(h.row(2), &[5.0, 5.0]);
        assert_eq!(c.row(2), c_prev.row(2));
    }

    #[test]
    fn affine_rows_into_matches_affine_on_prefix() {
        let x = m(&[
            &[1.0, -2.0, 0.5],
            &[0.25, 3.0, -1.5],
            &[9.0, 9.0, 9.0], // beyond the prefix: must be ignored
        ]);
        let w = m(&[&[1.0, 2.0], &[-0.5, 0.75], &[2.0, -1.0]]);
        let b = m(&[&[0.125, -0.25]]);
        let mut out = Matrix::from_vec(3, 2, vec![7.0; 6]);
        let pool = ComputePool::new(3);
        let packed = PackedWeights::from(&w);
        for p in [None, Some(&pool)] {
            affine_rows_into(&x, 2, &packed, &b, &mut out, p);
            let full = affine(&x, &w, &b);
            assert_eq!(out.row(0), full.row(0));
            assert_eq!(out.row(1), full.row(1));
            // Rows past the prefix are untouched.
            assert_eq!(out.row(2), &[7.0, 7.0]);
        }
    }

    #[test]
    fn tree_combines_match_composed_ops() {
        let i_pre = wave(GATE_COLS, 9.0, 7);
        let o_pre = wave(GATE_COLS, 9.0, 8);
        let u_pre = wave(GATE_COLS, 4.0, 9);
        let (i, o, u) = (sigmoid(&i_pre), sigmoid(&o_pre), tanh(&u_pre));
        let c_want = mul(&i, &u);
        let h_want = mul(&o, &tanh(&c_want));
        let mut h = Matrix::zeros(GATE_ROWS, GATE_COLS);
        let mut c = Matrix::zeros(GATE_ROWS, GATE_COLS);
        tree_leaf_gates(&concat_cols(&[&i_pre, &o_pre, &u_pre]), &mut h, &mut c);
        assert_eq!(c, c_want);
        assert_eq!(h, h_want);

        let fl_pre = wave(GATE_COLS, 9.0, 10);
        let fr_pre = wave(GATE_COLS, 9.0, 11);
        let (fl, fr) = (sigmoid(&fl_pre), sigmoid(&fr_pre));
        let cl = wave(GATE_COLS, 2.0, 12);
        let cr = wave(GATE_COLS, 2.0, 13);
        let c_want = add(&mul(&i, &u), &add(&mul(&fl, &cl), &mul(&fr, &cr)));
        let h_want = mul(&o, &tanh(&c_want));
        let z = concat_cols(&[&i_pre, &fl_pre, &fr_pre, &o_pre, &u_pre]);
        tree_internal_gates(&z, &cl, &cr, &mut h, &mut c);
        assert_eq!(c, c_want);
        assert_eq!(h, h_want);
    }

    #[test]
    fn gather_and_embedding_into_match_allocating() {
        let x = m(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let mut out = Matrix::zeros(2, 2);
        gather_rows_into(&x, &[2, 0], &mut out);
        assert_eq!(out, m(&[&[3.0, 3.0], &[1.0, 1.0]]));
        let mut e = Matrix::zeros(2, 2);
        embedding_into(&x, &[1, 1], &mut e);
        assert_eq!(e, embedding(&x, &[1, 1]));
    }
}
