//! Seeded weight initialization.
//!
//! Inference serves *pre-trained* weights; for a reproduction the actual
//! values only need to be deterministic and numerically well-behaved, so
//! all models initialize with seeded Xavier-uniform weights.
//!
//! A weight's draws are those of `StdRng::seed_from_u64(seed)` mapped by
//! `gen_range(-a..=a)`, in row-major order. The generator is SplitMix64,
//! whose draw `i` is a pure function of `seed` and `i` (see
//! [`stream_state`] and [`mix`]), so [`fill`] computes eight draws per
//! iteration instead of stepping the generator one float at a time:
//! drawing the weights was most of a model's build, and the build most
//! of a cold start. Every draw is the generator's bit for bit
//! (`tests::every_fill_body_is_the_generator`).

use crate::matrix::Matrix;

/// SplitMix64's increment, the vendored `StdRng`'s.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Draws per iteration of [`fill`]'s loop.
const LANES: usize = 8;

/// Convenience: a seeded Xavier-uniform matrix.
pub fn xavier_uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut data = vec![0.0; rows * cols];
    fill(&mut data, seed, 0, xavier_bound(rows, cols));
    Matrix::from_vec(rows, cols, data)
}

/// [`xavier_uniform`]`(rows, cols, seed)` one row at a time: each call
/// fills its `cols`-float argument with the next row, the same draws in
/// the same order. Handed to [`crate::PackedWeights::pack_rows`], it
/// packs a seeded weight without the row-major matrix ever existing.
pub fn xavier_uniform_rows(rows: usize, cols: usize, seed: u64) -> impl FnMut(&mut [f32]) {
    let a = xavier_bound(rows, cols);
    let mut next = 0u64;
    move |row| {
        fill(row, seed, next, a);
        next += row.len() as u64;
    }
}

/// The Xavier-uniform bound `sqrt(6 / (fan_in + fan_out))`.
fn xavier_bound(rows: usize, cols: usize) -> f32 {
    (6.0 / (rows + cols) as f32).sqrt()
}

/// Fills `out` with draws `start..start + out.len()` of
/// `StdRng::seed_from_u64(seed)` mapped by `gen_range(-a..=a)`, on the
/// widest tier the host has: 8 lanes of 64-bit multiplies are one
/// AVX-512DQ instruction, and nothing narrower pays for a tier of its
/// own (AVX2 has no 64-bit multiply; the same loop under it ran 0.85 ms
/// per 512 K draws, against 0.3 ms under AVX-512, 1.13 ms for the
/// baseline build and 1.32 ms for the generator one draw at a time).
/// Every tier runs the same integer and IEEE-754 steps, so they agree
/// bit for bit.
fn fill(out: &mut [f32], seed: u64, start: u64, a: f32) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            // SAFETY: the feature checks above guarantee AVX-512F and
            // AVX-512DQ are available.
            unsafe { fill_avx512(out, seed, start, a) };
            return;
        }
    }
    fill_baseline(out, seed, start, a);
}

/// AVX-512 tier: the eight lanes are one zmm of states, multiplied by
/// `vpmullq`.
///
/// # Safety
///
/// The caller must have checked that the host supports AVX-512F and
/// AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn fill_avx512(out: &mut [f32], seed: u64, start: u64, a: f32) {
    fill_impl(out, seed, start, a);
}

/// Baseline tier (SSE2 on x86-64, NEON on aarch64).
fn fill_baseline(out: &mut [f32], seed: u64, start: u64, a: f32) {
    fill_impl(out, seed, start, a);
}

/// Portable body of [`fill`]: the lanes are plain arrays the tier's
/// target features vectorise. `#[inline(always)]` so each tier compiles
/// the loop under its own features.
#[inline(always)]
fn fill_impl(out: &mut [f32], seed: u64, start: u64, a: f32) {
    let (lo, span) = (-a, a - -a);
    let mut state = [0u64; LANES];
    for (j, s) in state.iter_mut().enumerate() {
        *s = stream_state(seed, start + j as u64);
    }
    let step = GOLDEN.wrapping_mul(LANES as u64);
    let mut chunks = out.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let mut unit = [0.0f64; LANES];
        for j in 0..LANES {
            unit[j] = unit_f64(mix(state[j]));
            state[j] = state[j].wrapping_add(step);
        }
        for (v, u) in chunk.iter_mut().zip(unit) {
            *v = lo + span * u as f32;
        }
    }
    for (v, s) in chunks.into_remainder().iter_mut().zip(state) {
        *v = lo + span * unit_f64(mix(s)) as f32;
    }
}

/// The generator's state when it returns draw `i`:
/// `seed_from_u64` starts at `seed ^ GOLDEN` and steps once, and every
/// draw steps again before mixing.
fn stream_state(seed: u64, i: u64) -> u64 {
    (seed ^ GOLDEN).wrapping_add(i.wrapping_add(2).wrapping_mul(GOLDEN))
}

/// SplitMix64's output function.
#[inline(always)]
fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A draw mapped to `[0, 1)` with 53 bits, as `gen_range` maps it.
#[inline(always)]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    type Body = fn(&mut [f32], u64, u64, f32);

    /// Every fill body this host can execute, narrowest first.
    fn bodies() -> Vec<(&'static str, Body)> {
        let mut bodies: Vec<(&'static str, Body)> = vec![("baseline", fill_baseline)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                // SAFETY: AVX-512F and AVX-512DQ support was just checked.
                bodies.push(("avx512", |o, s, i, a| unsafe { fill_avx512(o, s, i, a) }));
            }
        }
        bodies
    }

    /// `n` draws of the generator itself, one at a time.
    fn generator(seed: u64, n: usize, a: f32) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-a..=a).to_bits()).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_fill_body_is_the_generator() {
        // `fill` only ever runs the widest body the host has, so call
        // each directly: every length through eight lanes and their
        // tails, whole and split at every offset up to two iterations
        // (a row-by-row fill continues the stream at an arbitrary
        // offset), over seeds whose pre-scramble wraps.
        let a = xavier_bound(3, 5);
        for (name, body) in bodies() {
            for seed in [0, 42, u64::MAX] {
                for n in (0..=67).chain([4_099]) {
                    let want = generator(seed, n, a);
                    let mut got = vec![f32::NAN; n];
                    body(&mut got, seed, 0, a);
                    assert_eq!(bits(&got), want, "{name}: seed {seed}, length {n}");
                    for split in (0..=16).filter(|&s| s <= n) {
                        let mut got = vec![f32::NAN; n];
                        let (head, tail) = got.split_at_mut(split);
                        body(head, seed, 0, a);
                        body(tail, seed, split as u64, a);
                        assert_eq!(
                            bits(&got),
                            want,
                            "{name}: seed {seed}, length {n} split at {split}"
                        );
                    }
                }
            }
        }
    }

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
}
