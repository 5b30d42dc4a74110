//! The transcendental scalars every gate is built from: [`exp`],
//! [`sigmoid`] and [`tanh`] as branch-free `f32` bodies.
//!
//! # Numeric contract
//!
//! Each function is a fixed sequence of IEEE-754 `f32` multiplies, adds,
//! subtracts and divides, ordered compare-and-select (the `min`/`max`
//! clamps and one blend) and integer bit operations. There is no libm
//! call, no FMA (Rust never contracts `a * b + c`), no table and no
//! data-dependent branch, so:
//!
//! - every operation is correctly rounded and therefore value-identical
//!   at any vector width: the scalar body, and the same body compiled
//!   under AVX2 or AVX-512F inside a fused gate kernel ([`crate::ops`]),
//!   return the same bits for the same input on every host;
//! - the batched cells and the unbatched reference executor agree bit
//!   for bit *by construction* — they run this code, not a libm that
//!   happens to agree with itself.
//!
//! Accuracy against the correctly rounded result (`f64` oracle, dense
//! sweep of `[-90, 90]` plus a log-spaced sweep of `|x|` in
//! `[1e-30, 1]`; `tests::accuracy_against_f64_oracle`):
//!
//! | function | max error |
//! |---|---|
//! | [`exp`] | 2 ulp, subnormal results and overflow to `inf` included |
//! | [`sigmoid`] | 2 ulp, subnormal results included |
//! | [`tanh`] | 4 ulp |
//!
//! Exact properties (`tests::exact_properties`): `exp(0) == 1`,
//! `sigmoid(0) == 0.5`, `tanh(-x) == -tanh(x)` bitwise, `tanh(±0) == ±0`;
//! `sigmoid` saturates to exactly `0`/`1` and `tanh` to exactly `±1`
//! (never `NaN` or `inf`) for arbitrarily large arguments, `±inf`
//! included; `NaN` in gives `NaN` out; all three are monotone
//! non-decreasing over both sweeps.

/// `1.5 * 2^23`: adding it to `|t| < 2^22` rounds `t` to the nearest
/// integer (ties to even) and leaves that integer in the low mantissa
/// bits of the sum.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `log2(e)`.
const LOG2_E: f32 = std::f32::consts::LOG2_E;

/// `ln 2` split as `LN2_HI + LN2_LO`: `LN2_HI` has 9 significant bits,
/// so `n * LN2_HI` is exact for every `|n| <= 151`.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

/// Inputs above this overflow `f32` (`ln(f32::MAX) = 88.7228`); the
/// clamp keeps the exponent arithmetic in range and still yields `inf`.
const EXP_HI: f32 = 88.73;

/// Inputs below this round to zero (`ln(2^-150) = -103.97`).
const EXP_LO: f32 = -104.0;

/// `e^x`.
///
/// Cephes-style: `x = n ln2 + r` with `|r| <= ln2 / 2`, a degree-6
/// polynomial for `e^r`, and the scale `2^n` applied as two exact
/// power-of-two multiplies so results that are subnormal or overflow
/// round once, correctly.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // Ordered selects, not `f32::min`/`max`: a NaN compares false and so
    // passes through to the arithmetic below.
    let x = if x > EXP_HI { EXP_HI } else { x };
    let x = if x < EXP_LO { EXP_LO } else { x };
    let m = (x * LOG2_E) + ROUND_MAGIC;
    let nf = m - ROUND_MAGIC;
    let r = (x - (nf * LN2_HI)) - (nf * LN2_LO);
    let z = r * r;
    let p = (((((1.987_569_1e-4 * r) + 1.398_2e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2) * r
        + 1.666_666_5e-1)
        * r
        + 5.0e-1;
    let y = ((p * z) + r) + 1.0;
    // `m`'s bits are `0x4B40_0000 + n` for the integer `n` in
    // [-151, 128]; the biased exponents below only look at its low bits.
    let n = (m.to_bits() as i32).wrapping_sub(0x4B40_0000);
    let n1 = n >> 1;
    let n2 = n.wrapping_sub(n1);
    (y * pow2(n1)) * pow2(n2)
}

/// `2^n` for `-126 <= n <= 127`, from the exponent bits.
#[inline(always)]
fn pow2(n: i32) -> f32 {
    f32::from_bits((n.wrapping_add(127) as u32) << 23)
}

/// The logistic function `1 / (1 + e^-x)`.
///
/// Evaluated from `e = exp(-|x|)`, which never overflows: `1 / (1 + e)`
/// for `x >= 0` and `e / (1 + e)` for `x < 0`. On the negative side the
/// rounding error `c` of the sum `1 + e` is recovered exactly and its
/// first-order effect subtracted; without that step the error there
/// reaches 2.4 ulp. The positive side needs no correction and must not
/// get one: `1 / fl(1 + e)` is monotone down to the last bit, which is
/// what keeps the saturating end from wobbling.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    let e = exp(f32::from_bits(x.to_bits() | SIGN));
    let d = 1.0 + e;
    let (num, c) = if x < 0.0 {
        (e, e - (d - 1.0))
    } else {
        (1.0, 0.0)
    };
    let q = num / d;
    q - (q * c)
}

const SIGN: u32 = 0x8000_0000;

/// Below this `|x|`, `tanh` is the odd polynomial; above,
/// `1 - 2 / (e^{2|x|} + 1)`, which alone would lose all relative
/// accuracy as `|x| -> 0`.
const TANH_SMALL: f32 = 0.625;

/// The hyperbolic tangent, computed on `|x|` with the sign copied back.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let sign = x.to_bits() & SIGN;
    let a = f32::from_bits(x.to_bits() & !SIGN);
    let z = a * a;
    let p = ((((-5.704_988_7e-3 * z) + 2.063_909e-2) * z - 5.373_971_6e-2) * z + 1.333_144_2e-1)
        * z
        - 3.333_328e-1;
    let small = ((p * z) * a) + a;
    let large = 1.0 - (2.0 / (exp(a + a) + 1.0));
    let t = if a < TANH_SMALL { small } else { large };
    f32::from_bits(t.to_bits() | sign)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every sweep point in ascending order: 2^20 + 1 evenly spaced over
    /// `[-90, 90]`, and 2^18 + 1 log-spaced magnitudes in `[1e-30, 1]`
    /// under both signs.
    fn sweeps() -> [Vec<f32>; 3] {
        let dense = (0..=1u32 << 20)
            .map(|i| (-90.0 + f64::from(i) * (180.0 / f64::from(1u32 << 20))) as f32)
            .collect();
        let log: Vec<f32> = (0..=1u32 << 18)
            .map(|i| 10f64.powf(-30.0 + f64::from(i) * (30.0 / f64::from(1u32 << 18))) as f32)
            .collect();
        let neg_log = log.iter().rev().map(|v| -v).collect();
        [dense, neg_log, log]
    }

    /// `|got - want|` in units of the `f32` spacing at `want` (the
    /// subnormal spacing below `f32::MIN_POSITIVE`). A `want` that
    /// overflows `f32` demands `inf`.
    fn ulp_error(got: f32, want: f64) -> f64 {
        let rounded = want as f32;
        if rounded.is_infinite() {
            return if got == rounded { 0.0 } else { f64::INFINITY };
        }
        let at = rounded.abs().max(f32::MIN_POSITIVE);
        let ulp = f64::from(f32::from_bits(at.to_bits() + 1)) - f64::from(at);
        (f64::from(got) - want).abs() / ulp
    }

    #[test]
    fn accuracy_against_f64_oracle() {
        type Case = (&'static str, fn(f32) -> f32, fn(f64) -> f64, f64);
        let cases: [Case; 3] = [
            ("exp", exp, f64::exp, 2.0),
            ("sigmoid", sigmoid, |x| 1.0 / (1.0 + (-x).exp()), 2.0),
            ("tanh", tanh, f64::tanh, 4.0),
        ];
        let sweeps = sweeps();
        for (name, f, oracle, bound) in cases {
            for &x in sweeps.iter().flatten() {
                let err = ulp_error(f(x), oracle(f64::from(x)));
                assert!(err <= bound, "{name}({x:e}) is {err:.2} ulp off");
            }
        }
    }

    #[test]
    fn monotone_over_the_sweeps() {
        for (name, f) in [
            ("exp", exp as fn(f32) -> f32),
            ("sigmoid", sigmoid),
            ("tanh", tanh),
        ] {
            for sweep in sweeps() {
                for pair in sweep.windows(2) {
                    assert!(
                        f(pair[0]) <= f(pair[1]),
                        "{name} decreases from {:e} to {:e}",
                        pair[0],
                        pair[1]
                    );
                }
            }
        }
    }

    #[test]
    fn exact_properties() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        for sweep in sweeps() {
            for x in sweep {
                assert_eq!(
                    tanh(-x).to_bits(),
                    (-tanh(x)).to_bits(),
                    "tanh odd at {x:e}"
                );
            }
        }
        // Saturation is exact and finite, infinities included.
        for big in [1e4, f32::MAX, f32::INFINITY] {
            assert_eq!(sigmoid(big), 1.0);
            assert_eq!(sigmoid(-big), 0.0);
            assert_eq!(tanh(big), 1.0);
            assert_eq!(tanh(-big), -1.0);
            assert_eq!(exp(-big), 0.0);
            assert_eq!(exp(big), f32::INFINITY);
        }
        for f in [exp, sigmoid, tanh] {
            assert!(f(f32::NAN).is_nan());
            assert!(f(-f32::NAN).is_nan());
        }
    }
}
