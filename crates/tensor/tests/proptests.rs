//! Property-based tests for the tensor substrate.
//!
//! The bitwise-identity properties here are the contract the packed GEMM
//! and fused affine must uphold: every optimized path produces exactly
//! the bits of the serial reference fold ([`Matrix::matmul_serial`]),
//! not just approximately-equal values.

use bm_tensor::{gemm, ops, ComputePool, Matrix, PackedWeights};
use proptest::prelude::*;

/// `a * b` through the packed GEMM, pooled as the cells pool it.
fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    let pool = ops::auto_pool(m, k, n);
    let packed = PackedWeights::from(b);
    gemm::gemm_into(a.as_slice(), m, k, &packed, None, out.as_mut_slice(), pool);
    out
}

/// Strategy producing an arbitrary matrix with shape in `[1, max]^2` and
/// small finite values.
fn matrix(max: usize) -> impl Strategy<Value = Matrix> {
    (1..=max, 1..=max).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// A pair of matrices with compatible inner dimensions for matmul.
fn matmul_pair(max: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max, 1..=max, 1..=max).prop_flat_map(|(m, k, n)| {
        let a = proptest::collection::vec(-4.0f32..4.0, m * k)
            .prop_map(move |d| Matrix::from_vec(m, k, d));
        let b = proptest::collection::vec(-4.0f32..4.0, k * n)
            .prop_map(move |d| Matrix::from_vec(k, n, d));
        (a, b)
    })
}

/// Like [`matmul_pair`] but with dimensions that deliberately straddle
/// the GEMM tile sizes (`MR = 4` rows, `NR = 16` columns per panel, up
/// to 4 panels = 64 columns per register tile): rows = 1, exact
/// multiples, one-off-a-multiple, and ragged tails all get generated.
fn blocky_matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    fn dim() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(1usize),
            Just(3),
            Just(4),
            Just(5),
            Just(7),
            Just(8),
            Just(9),
            Just(16),
            Just(17),
            1usize..=33,
        ]
    }
    fn cols() -> impl Strategy<Value = usize> {
        prop_oneof![dim(), Just(63usize), Just(64), Just(65), Just(129)]
    }
    (dim(), dim(), cols()).prop_flat_map(|(m, k, n)| {
        let a = proptest::collection::vec(-4.0f32..4.0, m * k)
            .prop_map(move |d| Matrix::from_vec(m, k, d));
        let b = proptest::collection::vec(-4.0f32..4.0, k * n)
            .prop_map(move |d| Matrix::from_vec(k, n, d));
        (a, b)
    })
}

/// Every row-block height (1..=4, then a full block plus each tail)
/// against every panel-group edge: one lane short of a panel, exact, one
/// over; the same around one 4-panel tile (64) and two (128); and the
/// decoder's ragged vocabulary width. `gemm_into` and the seeded
/// `gemm_acc_into`, each with and without bias, must reproduce the
/// serial reference fold bit for bit, whichever direction the pass over
/// the weights takes.
#[test]
fn every_tile_edge_matches_the_serial_reference() {
    use bm_tensor::gemm::{gemm_acc_into, gemm_into};
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x71_1e);
    let mut random = |r: usize, c: usize| {
        Matrix::from_vec(r, c, (0..r * c).map(|_| rng.gen_range(-4.0..4.0)).collect())
    };
    // Inner dimension e + h, split where the resident plane splits it.
    let (e, h) = (7usize, 12usize);
    for n in [15usize, 16, 17, 63, 64, 65, 127, 129, 1000] {
        let w = random(e + h, n);
        let bias = random(1, n);
        let full = PackedWeights::from(&w);
        let wx = PackedWeights::pack(e, n, &w.as_slice()[..e * n]);
        let wh = PackedWeights::pack(h, n, &w.as_slice()[e * n..]);
        for m in 1usize..=9 {
            let x = random(m, e);
            let hs = random(m, h);
            let xh = ops::concat_cols(&[&x, &hs]);
            let plain = xh.matmul_serial(&w);
            let mut biased = plain.clone();
            for r in 0..m {
                for (o, &bv) in biased.row_mut(r).iter_mut().zip(bias.row(0)) {
                    *o += bv;
                }
            }
            // Two cases, and so two consecutive calls on each packing:
            // one pass in each direction.
            for (bias, want) in [(None, &plain), (Some(bias.row(0)), &biased)] {
                let mut got = vec![f32::NAN; m * n];
                gemm_into(xh.as_slice(), m, e + h, &full, bias, &mut got, None);
                assert_eq!(
                    got,
                    want.as_slice(),
                    "gemm_into m={m} n={n} bias={}",
                    bias.is_some()
                );
                // Seed with the x-half fold, continue over the h-half.
                let mut got = vec![f32::NAN; m * n];
                gemm_into(x.as_slice(), m, e, &wx, None, &mut got, None);
                gemm_acc_into(hs.as_slice(), m, h, &wh, bias, &mut got, None);
                assert_eq!(
                    got,
                    want.as_slice(),
                    "gemm_acc_into m={m} n={n} bias={}",
                    bias.is_some()
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn matmul_identity_left_and_right((a, _) in matmul_pair(8)) {
        let il = Matrix::eye(a.rows());
        let ir = Matrix::eye(a.cols());
        prop_assert!(matmul(&il, &a).approx_eq(&a, 1e-4));
        prop_assert!(matmul(&a, &ir).approx_eq(&a, 1e-4));
    }

    #[test]
    fn matmul_matches_naive((a, b) in matmul_pair(8)) {
        let fast = matmul(&a, &b);
        let mut naive = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0f64;
                for k in 0..a.cols() {
                    s += a.get(i, k) as f64 * b.get(k, j) as f64;
                }
                naive.set(i, j, s as f32);
            }
        }
        prop_assert!(fast.approx_eq(&naive, 1e-3));
    }

    #[test]
    fn transpose_involution(a in matrix(10)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_distributes_over_matmul((a, b) in matmul_pair(6)) {
        // (AB)^T == B^T A^T
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn add_commutes(a in matrix(8), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let b = Matrix::from_vec(
            a.rows(), a.cols(),
            (0..a.len()).map(|_| rng.gen_range(-10.0..10.0)).collect(),
        );
        prop_assert!(ops::add(&a, &b).approx_eq(&ops::add(&b, &a), 1e-6));
    }

    #[test]
    fn split_concat_round_trip(a in matrix(6), n in 1usize..4) {
        // Widen `a` so its width is divisible by n.
        let wide = ops::concat_cols(&vec![&a; n]);
        let parts = ops::split_cols(&wide, n);
        let refs: Vec<&Matrix> = parts.iter().collect();
        prop_assert_eq!(ops::concat_cols(&refs), wide);
    }

    #[test]
    fn sigmoid_bounded_and_monotone(a in matrix(8)) {
        let s = ops::sigmoid(&a);
        prop_assert!(s.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Monotonicity: sigmoid(x + 1) >= sigmoid(x).
        let shifted = ops::sigmoid(&ops::map(&a, |v| v + 1.0));
        for (x, y) in s.as_slice().iter().zip(shifted.as_slice()) {
            prop_assert!(y >= x);
        }
    }

    #[test]
    fn packed_gemm_is_bitwise_identical_to_serial_reference((a, b) in blocky_matmul_pair()) {
        // `matmul` runs the packed/blocked kernels; `matmul_serial` is
        // the naive i-k-j reference fold. `==` on Matrix is exact.
        prop_assert_eq!(matmul(&a, &b), a.matmul_serial(&b));
    }

    #[test]
    fn fused_affine_is_bitwise_identical_to_matmul_plus_bias((a, b) in blocky_matmul_pair(), bias_seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(bias_seed);
        let bias = Matrix::from_vec(
            1, b.cols(),
            (0..b.cols()).map(|_| rng.gen_range(-2.0..2.0)).collect(),
        );
        let mut fused = Matrix::zeros(a.rows(), b.cols());
        ops::affine_into(&a, &PackedWeights::from(&b), &bias, &mut fused);
        let mut unfused = a.matmul_serial(&b);
        for r in 0..unfused.rows() {
            for (o, &bv) in unfused.row_mut(r).iter_mut().zip(bias.row(0)) {
                *o += bv;
            }
        }
        prop_assert_eq!(fused, unfused);
    }

    #[test]
    fn pool_size_does_not_change_a_single_bit((a, b) in blocky_matmul_pair()) {
        // Chunked execution under any pool size must equal the 1-thread
        // (purely serial) pool exactly, run-to-run and thread-to-thread.
        let packed = PackedWeights::from(&b);
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let serial_pool = ComputePool::new(1);
        let mut reference = vec![0.0f32; m * n];
        gemm::gemm_into(a.as_slice(), m, k, &packed, None, &mut reference, Some(&serial_pool));
        let pool = ComputePool::new(3);
        for _ in 0..3 {
            let mut out = vec![0.0f32; m * n];
            gemm::gemm_into(a.as_slice(), m, k, &packed, None, &mut out, Some(&pool));
            prop_assert_eq!(&out, &reference);
        }
    }

    #[test]
    fn unpack_inverts_pack((_, b) in blocky_matmul_pair()) {
        // What a cell writes to its bundle is what it was built from.
        prop_assert_eq!(PackedWeights::from(&b).unpack(), b);
    }

    #[test]
    fn bundle_round_trip(a in matrix(8), b in matrix(8)) {
        let mut bundle = bm_tensor::io::WeightBundle::new();
        bundle.insert("a", a);
        bundle.insert("b", b);
        let mut buf = Vec::new();
        bundle.write_to(&mut buf).unwrap();
        let back = bm_tensor::io::WeightBundle::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(bundle, back);
    }
}
