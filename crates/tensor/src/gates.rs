//! Fused gate kernels: one per cell kind, each a single pass from gate
//! pre-activations to new state.
//!
//! After the packed GEMM the element-wise tail — five transcendentals
//! per LSTM hidden unit — costs more than the product beside it at the
//! batch sizes the server forms, so it is compiled like the GEMM
//! (`gemm::gemm_block`): one generic body (`run_impl`) built only from
//! the [`crate::activation`] scalars and f32 multiply/add, instantiated
//! under AVX-512F, AVX2 and the baseline target and selected once per
//! call. The scalars are fixed sequences of correctly rounded IEEE
//! operations with no FMA, so every tier — and the scalar composition
//! `sigmoid`/`tanh`/`mul`/`add` of [`crate::ops`] — produces the same
//! bits (`tests::every_isa_tier_agrees_bit_for_bit`,
//! `ops::tests::*_matches_composed_ops`).
//!
//! The row loops walk `split_at`/zipped slices with no indexing, which
//! is what lets LLVM vectorise the whole body, transcendentals included
//! (`scripts/check_kernel_asm.sh` checks that it did).

use crate::activation::{sigmoid, tanh};
use crate::matrix::Matrix;

/// LSTM step over rows `0..rows`, in place: reads the previous cell
/// state from `c` and writes the new one back, and writes the new hidden
/// state into `h` (`(.., hidden)`, like `c`). Rows past `rows` are left
/// alone, so the resident plane runs it over the occupied prefix of its
/// batch and the gather path over a batch of exactly `rows`.
///
/// Per element, with `z = [i|f|g|o]`:
/// `c' = (sigmoid(f) * c) + (sigmoid(i) * tanh(g))`,
/// `h' = sigmoid(o) * tanh(c')`.
///
/// # Panics
///
/// Panics on shape mismatch or if `rows` exceeds any matrix.
pub fn lstm_gates_rows_inplace(z: &Matrix, rows: usize, h: &mut Matrix, c: &mut Matrix) {
    let n = c.cols();
    assert_eq!(z.cols(), 4 * n, "lstm_gates pre-activation width");
    assert_eq!(h.cols(), n, "lstm_gates h width");
    assert!(
        rows <= z.rows() && rows <= h.rows() && rows <= c.rows(),
        "lstm_gates: rows exceeds a matrix"
    );
    run(GateOp::Lstm { z, rows, h, c });
}

/// TreeLSTM leaf gates from the fused pre-activations `z = [i|o|u]`
/// (`(batch, 3h)`), each row read by column range as
/// [`lstm_gates_rows_inplace`] reads `[i|f|g|o]`:
/// `c = sigmoid(i) * tanh(u)`, `h = sigmoid(o) * tanh(c)`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn tree_leaf_gates(z: &Matrix, h_out: &mut Matrix, c_out: &mut Matrix) {
    let shape = c_out.shape();
    assert_eq!(z.shape(), (shape.0, 3 * shape.1), "tree_leaf_gates z shape");
    assert_eq!(h_out.shape(), shape, "tree_leaf_gates h_out shape");
    run(GateOp::TreeLeaf {
        z,
        h: h_out,
        c: c_out,
    });
}

/// TreeLSTM internal gates from the fused pre-activations
/// `z = [i|fl|fr|o|u]` (`(batch, 5h)`) and the two children's cell
/// states:
/// `c = (sigmoid(i) * tanh(u)) + ((sigmoid(fl) * cl) + (sigmoid(fr) * cr))`,
/// `h = sigmoid(o) * tanh(c)`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn tree_internal_gates(
    z: &Matrix,
    cl: &Matrix,
    cr: &Matrix,
    h_out: &mut Matrix,
    c_out: &mut Matrix,
) {
    let shape = c_out.shape();
    assert_eq!(
        z.shape(),
        (shape.0, 5 * shape.1),
        "tree_internal_gates z shape"
    );
    assert_eq!(cl.shape(), shape, "tree_internal_gates cl shape");
    assert_eq!(cr.shape(), shape, "tree_internal_gates cr shape");
    assert_eq!(h_out.shape(), shape, "tree_internal_gates h_out shape");
    run(GateOp::TreeInternal {
        z,
        children: [cl, cr],
        h: h_out,
        c: c_out,
    });
}

/// One fused gate computation with its shapes already checked.
enum GateOp<'a> {
    /// `z = [i|f|g|o]`; `h` and `c` `(.., h)`, rows `0..rows`.
    Lstm {
        z: &'a Matrix,
        rows: usize,
        h: &'a mut Matrix,
        c: &'a mut Matrix,
    },
    /// `z = [i|o|u]`, `(batch, 3h)`; `h` and `c` `(batch, h)`.
    TreeLeaf {
        z: &'a Matrix,
        h: &'a mut Matrix,
        c: &'a mut Matrix,
    },
    /// `z = [i|fl|fr|o|u]`, `(batch, 5h)`; `children = [cl, cr]`, `h`
    /// and `c` `(batch, h)`.
    TreeInternal {
        z: &'a Matrix,
        children: [&'a Matrix; 2],
        h: &'a mut Matrix,
        c: &'a mut Matrix,
    },
}

/// Runs `op` on the widest vector ISA the host supports, once per call
/// (not per row). The tiers are the same scalar expression trees at
/// different lane counts and so agree bit for bit.
fn run(op: GateOp<'_>) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature check above guarantees AVX-512F is
            // available.
            unsafe { run_avx512(op) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature check above guarantees AVX2 is available.
            unsafe { run_avx2(op) };
            return;
        }
    }
    run_baseline(op);
}

/// AVX-512F tier: 16 hidden units per vector.
///
/// # Safety
///
/// The caller must have checked that the host supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512(op: GateOp<'_>) {
    run_impl(op);
}

/// AVX2 tier: 8 hidden units per vector.
///
/// # Safety
///
/// The caller must have checked that the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2(op: GateOp<'_>) {
    run_impl(op);
}

/// Baseline tier (SSE2 on x86-64, NEON on aarch64): 4 units per vector.
fn run_baseline(op: GateOp<'_>) {
    run_impl(op);
}

/// Portable body of every kernel. `#[inline(always)]` so each ISA
/// wrapper compiles the loops, activations included, under its own
/// target features.
#[inline(always)]
fn run_impl(op: GateOp<'_>) {
    match op {
        GateOp::Lstm { z, rows, h, c } => {
            for r in 0..rows {
                lstm_row(z.row(r), h.row_mut(r), c.row_mut(r));
            }
        }
        GateOp::TreeLeaf { z, h, c } => {
            for r in 0..z.rows() {
                tree_leaf_row(z.row(r), h.row_mut(r), c.row_mut(r));
            }
        }
        GateOp::TreeInternal {
            z,
            children: [cl, cr],
            h,
            c,
        } => {
            for r in 0..z.rows() {
                let children = [cl.row(r), cr.row(r)];
                tree_internal_row(z.row(r), children, h.row_mut(r), c.row_mut(r));
            }
        }
    }
}

/// One LSTM row: `z = [i|f|g|o]` split into its four gates up front so
/// the loop body indexes nothing.
#[inline(always)]
fn lstm_row(z: &[f32], h: &mut [f32], c: &mut [f32]) {
    let n = c.len();
    let (zi, z) = z.split_at(n);
    let (zf, z) = z.split_at(n);
    let (zg, zo) = z.split_at(n);
    let gates = zi.iter().zip(zf).zip(zg).zip(zo);
    for ((((&iv, &fv), &gv), &ov), (hv, cv)) in gates.zip(h.iter_mut().zip(c)) {
        let c_new = (sigmoid(fv) * *cv) + (sigmoid(iv) * tanh(gv));
        *cv = c_new;
        *hv = sigmoid(ov) * tanh(c_new);
    }
}

/// One TreeLSTM leaf row: `z = [i|o|u]`.
#[inline(always)]
fn tree_leaf_row(z: &[f32], h: &mut [f32], c: &mut [f32]) {
    let n = c.len();
    let (zi, z) = z.split_at(n);
    let (zo, zu) = z.split_at(n);
    for (((&iv, &ov), &uv), (hv, cv)) in zi.iter().zip(zo).zip(zu).zip(h.iter_mut().zip(c)) {
        let c_new = sigmoid(iv) * tanh(uv);
        *cv = c_new;
        *hv = sigmoid(ov) * tanh(c_new);
    }
}

/// One TreeLSTM internal row: `z = [i|fl|fr|o|u]`.
#[inline(always)]
fn tree_internal_row(z: &[f32], [cl, cr]: [&[f32]; 2], h: &mut [f32], c: &mut [f32]) {
    let n = c.len();
    let (zi, z) = z.split_at(n);
    let (zfl, z) = z.split_at(n);
    let (zfr, z) = z.split_at(n);
    let (zo, zu) = z.split_at(n);
    let gates = zi.iter().zip(zfl).zip(zfr).zip(zo).zip(zu);
    let states = h.iter_mut().zip(c).zip(cl).zip(cr);
    for (((((&iv, &flv), &frv), &ov), &uv), (((hv, cv), &clv), &crv)) in gates.zip(states) {
        let c_new = (sigmoid(iv) * tanh(uv)) + ((sigmoid(flv) * clv) + (sigmoid(frv) * crv));
        *cv = c_new;
        *hv = sigmoid(ov) * tanh(c_new);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    type Tier = for<'a> fn(GateOp<'a>);

    /// Every tier body this host can execute, narrowest first.
    fn tiers() -> Vec<(&'static str, Tier)> {
        let mut tiers: Vec<(&'static str, Tier)> = vec![("baseline", run_baseline)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just checked.
                tiers.push(("avx2", |op| unsafe { run_avx2(op) }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F support was just checked.
                tiers.push(("avx512", |op| unsafe { run_avx512(op) }));
            }
        }
        tiers
    }

    /// `(rows, cols)` of values in `[-scale, scale]`, one sequence per
    /// `phase`; exact zeros and both saturated ends occur.
    pub(crate) fn wave(rows: usize, cols: usize, scale: f32, phase: usize) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| (((i * 37 + phase * 101) % 401) as f32 - 200.0) * (scale / 200.0))
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Runs all three kernels at hidden width `n` on `tier` and returns
    /// everything they wrote.
    fn outputs(tier: Tier, n: usize) -> Vec<Matrix> {
        const ROWS: usize = 3;
        let state: Vec<Matrix> = (5..7).map(|p| wave(ROWS, n, 2.0, p)).collect();
        let z = wave(ROWS, 4 * n, 20.0, 7);
        let new = || Matrix::from_vec(ROWS, n, vec![f32::NAN; ROWS * n]);

        // LSTM over the prefix rows 0..2 of a taller batch.
        let (mut lstm_h, mut c) = (wave(ROWS, n, 1.0, 8), state[0].clone());
        tier(GateOp::Lstm {
            z: &z,
            rows: ROWS - 1,
            h: &mut lstm_h,
            c: &mut c,
        });
        let (mut leaf_h, mut leaf_c) = (new(), new());
        tier(GateOp::TreeLeaf {
            z: &wave(ROWS, 3 * n, 20.0, 10),
            h: &mut leaf_h,
            c: &mut leaf_c,
        });
        let (mut int_h, mut int_c) = (new(), new());
        tier(GateOp::TreeInternal {
            z: &wave(ROWS, 5 * n, 20.0, 11),
            children: [&state[0], &state[1]],
            h: &mut int_h,
            c: &mut int_c,
        });
        vec![lstm_h, c, leaf_h, leaf_c, int_h, int_c]
    }

    #[test]
    fn every_isa_tier_agrees_bit_for_bit() {
        // `run` only ever takes the widest tier the host has, so call
        // each body directly, at widths that leave every tier a vector
        // tail (and, at 1 and 15, no full vector at all).
        for n in [1, 15, 16, 17, 64, 255, 256] {
            let want = outputs(run_baseline, n);
            assert!(
                want.iter()
                    .all(|m| m.as_slice().iter().all(|v| !v.is_nan())),
                "width {n}: an output element was not written"
            );
            for (name, tier) in tiers() {
                assert_eq!(outputs(tier, n), want, "{name}, width {n}");
            }
        }
    }
}
