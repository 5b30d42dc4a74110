//! `repro bench`: the small-batch structural check of the packed GEMM.
//!
//! Wall-clock numbers belong to the repo's benchmark (`benchmark/`).
//! What it does not cover is one relative property inside one process:
//! a call of the packed GEMM is one pass over the weights whatever its
//! row count, so a 1-, 2- or 3-row call costs no more than the 4-row
//! call — on matrices that fit L2 and on one that does not. This
//! experiment times the sweep and fails (non-zero exit) when the rule
//! is violated; it writes nothing but its table.

use std::time::Instant;

use bm_metrics::Table;
use bm_tensor::{gemm, xavier_uniform, ComputePool, PackedWeights};

use crate::experiments::Scale;

/// `(op, k, n, m)`: GEMM entry point, inner dimension, output columns,
/// rows of the left-hand side (the task's batch size).
type PointKey = (&'static str, usize, usize, usize);

/// One point of the small-batch GEMM sweep and its best time per call.
#[derive(Debug, Clone)]
struct SmallBatchPoint {
    key: PointKey,
    ns_per_op: f64,
}

type Gemm =
    fn(&[f32], usize, usize, &PackedWeights, Option<&[f32]>, &mut [f32], Option<&ComputePool>);

/// The two packed-GEMM entry points of the sweep.
const SMALL_BATCH_OPS: [(&str, Gemm); 2] = [
    ("gemm_into", gemm::gemm_into),
    ("gemm_acc_into", gemm::gemm_acc_into),
];

/// Row counts: every tile height, the first tail after a full tile, two
/// full tiles, and a batch large enough to amortise everything.
const SMALL_BATCH_ROWS: [usize; 7] = [1, 2, 3, 4, 5, 8, 64];

/// Weight shapes: the LSTM recurrent half at hidden 256, the decoder's
/// ragged vocabulary projection, one tree-internal gate, and the five
/// gates fused as the tree-internal cell runs them (2.6 MB packed, more
/// than the build host's L2).
const SMALL_BATCH_SHAPES: [(usize, usize); 4] = [(256, 1024), (256, 1000), (512, 256), (512, 1280)];

/// Times the packed GEMM, serial, at the row counts cellular batching
/// forms (mean 1.2-5.5 rows per task at the benchmark's high rate). Each
/// point is the best of a few samples: competing load on a shared host
/// only ever adds time, so the minimum estimates the kernel's own cost.
fn small_batch_suite(scale: Scale) -> Vec<SmallBatchPoint> {
    let (warmup, samples) = match scale {
        Scale::Quick => (1, 5),
        Scale::Full => (2, 15),
    };
    // One call is 5-500 µs; a burst per sample keeps the short ones
    // well above clock resolution.
    let reps = 16usize;
    let mut out = Vec::new();
    for (k, n) in SMALL_BATCH_SHAPES {
        let w = PackedWeights::from(&xavier_uniform(k, n, 91));
        let bias = xavier_uniform(1, n, 92);
        for m in SMALL_BATCH_ROWS {
            let a = xavier_uniform(m, k, 93);
            let mut y = vec![0.0f32; m * n];
            for (op, f) in SMALL_BATCH_OPS {
                let mut best = f64::INFINITY;
                for sample in 0..warmup + samples {
                    let start = Instant::now();
                    for _ in 0..reps {
                        let bias = Some(bias.row(0));
                        f(a.as_slice(), m, k, &w, bias, &mut y, None);
                    }
                    std::hint::black_box(&y);
                    if sample >= warmup {
                        best = best.min(start.elapsed().as_secs_f64() * 1e9);
                    }
                }
                let (key, ns_per_op) = ((op, k, n, m), best / reps as f64);
                out.push(SmallBatchPoint { key, ns_per_op });
            }
        }
    }
    out
}

/// The time measured for `key`, if measured once and a positive number.
fn ns_at(points: &[SmallBatchPoint], key: PointKey) -> Result<f64, String> {
    let mut hits = points.iter().filter(|p| p.key == key);
    match (hits.next(), hits.next()) {
        (None, _) => Err(format!("point {key:?} is missing")),
        (Some(_), Some(_)) => Err(format!("point {key:?} is duplicated")),
        (Some(p), None) if p.ns_per_op.is_finite() && p.ns_per_op > 0.0 => Ok(p.ns_per_op),
        (Some(p), None) => Err(format!("point {key:?} reads {} ns", p.ns_per_op)),
    }
}

/// The gate: `points` is exactly the sweep (2 ops × 4 shapes × 7 row
/// counts, each once), and a 1-, 2- or 3-row call costs at most 1.25×
/// the 4-row call of the same op and shape: one pass over the weights
/// plus noise (a per-row tail made the 3-row call 1.6×). Same process,
/// same minute, so machine speed cancels.
fn check_one_pass(points: &[SmallBatchPoint]) -> Result<(), String> {
    for (op, _) in SMALL_BATCH_OPS {
        for (k, n) in SMALL_BATCH_SHAPES {
            let four = ns_at(points, (op, k, n, 4))?;
            for m in SMALL_BATCH_ROWS {
                let key = (op, k, n, m);
                let ratio = ns_at(points, key)? / four;
                if m < 4 && ratio > 1.25 {
                    return Err(format!("point {key:?} costs {ratio:.2}x the 4-row call"));
                }
            }
        }
    }
    let expected = SMALL_BATCH_OPS.len() * SMALL_BATCH_SHAPES.len() * SMALL_BATCH_ROWS.len();
    if points.len() != expected {
        return Err(format!("{} points, expected {expected}", points.len()));
    }
    Ok(())
}

/// Runs the sweep and returns its table; panics, naming the offending
/// `(op, k, n, m)` point, if the sweep violates the one-pass rule.
pub fn run(scale: Scale) -> Vec<Table> {
    let points = small_batch_suite(scale);
    if let Err(violation) = check_one_pass(&points) {
        panic!("small-batch sweep: {violation}\n{points:#?}");
    }
    let mut sweep = Table::new(
        "Small-batch packed GEMM, serial (best-of-N wall time)",
        &["op", "k", "n", "m", "us_per_call", "gflops", "vs_4_rows"],
    );
    for p in &points {
        let (op, k, n, m) = p.key;
        let four = ns_at(&points, (op, k, n, 4)).expect("checked above");
        sweep.push_row(vec![
            op.into(),
            k.to_string(),
            n.to_string(),
            m.to_string(),
            format!("{:.1}", p.ns_per_op / 1e3),
            format!("{:.1}", (2 * m * k * n) as f64 / p.ns_per_op),
            format!("{:.2}", p.ns_per_op / four),
        ]);
    }
    vec![sweep]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full sweep in which an `m`-row call costs `ns(m)`.
    fn profile(ns: impl Fn(usize) -> f64) -> Vec<SmallBatchPoint> {
        let mut out = Vec::new();
        for (op, _) in SMALL_BATCH_OPS {
            for (k, n) in SMALL_BATCH_SHAPES {
                for m in SMALL_BATCH_ROWS {
                    let (key, ns_per_op) = ((op, k, n, m), ns(m));
                    out.push(SmallBatchPoint { key, ns_per_op });
                }
            }
        }
        out
    }

    /// One pass over the weights per 4-row tile, full or tail.
    fn one_pass(m: usize) -> f64 {
        10_000.0 * m.div_ceil(4) as f64
    }

    fn assert_rejected(points: &[SmallBatchPoint], why: &str) {
        let err = check_one_pass(points).expect_err("the sweep must be rejected");
        assert!(err.contains(why), "{err}");
    }

    #[test]
    fn one_pass_profile_passes_and_a_per_row_tail_fails() {
        assert_eq!(check_one_pass(&profile(one_pass)), Ok(()));
        // PR 15's pre-fix shape: a 3-row tail streamed the weights once
        // per row and cost 1.6x the 4-row tile.
        let tail = profile(|m| if m == 3 { 16e3 } else { one_pass(m) });
        assert_rejected(&tail, r#"("gemm_into", 256, 1024, 3) costs 1.60x"#);
    }

    #[test]
    fn the_sweep_must_be_exactly_the_expected_points() {
        let mut missing = profile(one_pass);
        missing.remove(9);
        assert_rejected(&missing, r#"("gemm_into", 256, 1000, 3) is missing"#);
        let mut twice = profile(one_pass);
        twice.push(twice[9].clone());
        assert_rejected(&twice, r#"("gemm_into", 256, 1000, 3) is duplicated"#);
        let mut foreign = profile(one_pass);
        foreign.push(foreign[9].clone());
        foreign.last_mut().expect("just pushed").key.1 = 7;
        assert_rejected(&foreign, "57 points, expected 56");
        let zero = profile(|m| if m == 64 { 0.0 } else { one_pass(m) });
        assert_rejected(&zero, "64) reads 0 ns");
    }
}
