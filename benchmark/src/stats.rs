//! Order statistics used by every reported number.

/// Nearest-rank percentile of unsorted samples, `q` in `[0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median as the mean of the two middle values for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q3)` by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them — the rule the
/// acceptance spread check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis, interpolated (and, like
        // Python, extrapolated when clamping `j` leaves delta > 1).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The `q`-percentile of each window's samples, empty windows skipped:
/// the values whose [`median`] a latency metric reports.
pub fn window_percentiles<'a>(windows: impl IntoIterator<Item = &'a [f64]>, q: f64) -> Vec<f64> {
    windows
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Eight windows of 1000 latencies between 1.00 and 1.09 ms; the
    /// windows numbered in `slow` run `factor` times slower, and a
    /// stall of `stall_ms` hits window 3 (requests due during a stall
    /// wait for its end).
    fn windows(slow: &[usize], factor: f64, stall_ms: f64) -> Vec<Vec<f64>> {
        (0..8)
            .map(|w| {
                let scale = if slow.contains(&w) { factor } else { 1.0 };
                (0..1000)
                    .map(|i| {
                        let wait = if w == 3 {
                            (stall_ms - i as f64).max(0.0)
                        } else {
                            0.0
                        };
                        scale * (1.0 + (i % 10) as f64 * 0.01) + wait
                    })
                    .collect()
            })
            .collect()
    }

    fn reported(windows: &[Vec<f64>], q: f64) -> f64 {
        median(&window_percentiles(windows.iter().map(Vec::as_slice), q))
    }

    /// A 150 ms stall lifts the p90 of the window it falls in and the
    /// pooled p99.5, but not the reported median of the windows.
    #[test]
    fn injected_stall_moves_one_window_only() {
        let (clean, stalled) = (windows(&[], 1.0, 0.0), windows(&[], 1.0, 150.0));
        let p90s = window_percentiles(stalled.iter().map(Vec::as_slice), 0.9);
        assert_eq!(p90s.len(), 8);
        assert!(p90s[3] > 10.0 * p90s[2], "the stalled window stands out");
        assert_eq!(reported(&stalled, 0.9), reported(&clean, 0.9));
        let pooled: Vec<f64> = stalled.concat();
        assert!(percentile(&pooled, 0.995) > 10.0 * reported(&stalled, 0.9));
    }

    /// The reported value is a median, not a best case: it moves as soon
    /// as half of the windows are slower, by however much they are.
    #[test]
    fn a_slowdown_of_half_the_windows_moves_the_reported_value() {
        let base = reported(&windows(&[], 1.0, 0.0), 0.5);
        assert_eq!(reported(&windows(&[1, 4, 6], 1.5, 0.0), 0.5), base);
        let half = reported(&windows(&[0, 1, 4, 6], 1.5, 0.0), 0.5);
        assert!((half / base - 1.25).abs() < 1e-9, "{half} vs {base}");
        let most = reported(&windows(&[0, 1, 2, 4, 6], 1.5, 0.0), 0.5);
        assert!((most / base - 1.5).abs() < 1e-9, "{most} vs {base}");
    }

    #[test]
    fn empty_windows_are_skipped() {
        let w: [&[f64]; 3] = [&[1.0, 2.0, 3.0], &[], &[5.0]];
        assert_eq!(window_percentiles(w, 0.5), [2.0, 5.0]);
    }
}
