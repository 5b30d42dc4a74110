//! Per-request timing capture and summary statistics.

use crate::cdf::Cdf;

/// The three timestamps of one request's life (§7.3):
///
/// - *queuing time* runs from arrival to start of execution;
/// - *computation time* runs from start of execution to the return of
///   the result;
/// - *latency* is their sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTiming {
    /// Arrival at the system, µs.
    pub arrival_us: u64,
    /// First cell of the request starts executing, µs.
    pub start_us: u64,
    /// Result returned, µs.
    pub completion_us: u64,
}

impl RequestTiming {
    /// Queueing time in µs.
    pub fn queueing_us(&self) -> u64 {
        self.start_us.saturating_sub(self.arrival_us)
    }

    /// Computation time in µs.
    pub fn computation_us(&self) -> u64 {
        self.completion_us.saturating_sub(self.start_us)
    }

    /// Total latency in µs.
    pub fn latency_us(&self) -> u64 {
        self.completion_us.saturating_sub(self.arrival_us)
    }
}

/// Collects request timings and produces summaries.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    timings: Vec<RequestTiming>,
}

/// Aggregate statistics of one measurement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Completed requests.
    pub count: usize,
    /// Completed requests per second of measured span.
    pub throughput_rps: f64,
    /// Mean total latency, ms.
    pub mean_ms: f64,
    /// Median total latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile total latency, ms.
    pub p90_ms: f64,
    /// 99th-percentile total latency, ms.
    pub p99_ms: f64,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request.
    ///
    /// # Panics
    ///
    /// Panics if the timestamps are not ordered
    /// (`arrival <= start <= completion`).
    pub fn record(&mut self, t: RequestTiming) {
        assert!(
            t.arrival_us <= t.start_us && t.start_us <= t.completion_us,
            "out-of-order timestamps {t:?}"
        );
        self.timings.push(t);
    }

    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.timings.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.timings.is_empty()
    }

    /// All recorded timings.
    pub fn timings(&self) -> &[RequestTiming] {
        &self.timings
    }

    /// Drops the first `n` and last `m` requests *by completion time* —
    /// warm-up and cool-down trimming for open-loop runs.
    pub fn trimmed(&self, warmup: usize, cooldown: usize) -> LatencyRecorder {
        let mut t = self.timings.clone();
        t.sort_by_key(|x| x.completion_us);
        let end = t.len().saturating_sub(cooldown);
        let start = warmup.min(end);
        LatencyRecorder {
            timings: t[start..end].to_vec(),
        }
    }

    /// CDF of total latency in ms.
    pub fn latency_cdf(&self) -> Cdf {
        Cdf::new(
            self.timings
                .iter()
                .map(|t| t.latency_us() as f64 / 1e3)
                .collect(),
        )
    }

    /// CDF of queueing time in ms (Figure 9a).
    pub fn queueing_cdf(&self) -> Cdf {
        Cdf::new(
            self.timings
                .iter()
                .map(|t| t.queueing_us() as f64 / 1e3)
                .collect(),
        )
    }

    /// CDF of computation time in ms (Figure 9b).
    pub fn computation_cdf(&self) -> Cdf {
        Cdf::new(
            self.timings
                .iter()
                .map(|t| t.computation_us() as f64 / 1e3)
                .collect(),
        )
    }

    /// Aggregate summary.
    ///
    /// Throughput is measured over the span from first arrival to last
    /// completion.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been recorded.
    pub fn summary(&self) -> Summary {
        assert!(!self.timings.is_empty(), "summary of empty recorder");
        let lat = self.latency_cdf();
        let first_arrival = self
            .timings
            .iter()
            .map(|t| t.arrival_us)
            .min()
            .expect("non-empty");
        let last_completion = self
            .timings
            .iter()
            .map(|t| t.completion_us)
            .max()
            .expect("non-empty");
        let span_s = ((last_completion - first_arrival).max(1)) as f64 / 1e6;
        Summary {
            count: self.timings.len(),
            throughput_rps: self.timings.len() as f64 / span_s,
            mean_ms: lat.mean(),
            p50_ms: lat.quantile(0.50),
            p90_ms: lat.quantile(0.90),
            p99_ms: lat.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(a: u64, s: u64, c: u64) -> RequestTiming {
        RequestTiming {
            arrival_us: a,
            start_us: s,
            completion_us: c,
        }
    }

    #[test]
    fn timing_decomposition() {
        let x = t(100, 150, 400);
        assert_eq!(x.queueing_us(), 50);
        assert_eq!(x.computation_us(), 250);
        assert_eq!(x.latency_us(), 300);
    }

    #[test]
    fn summary_basic() {
        let mut r = LatencyRecorder::new();
        // Two requests over a 1-second span.
        r.record(t(0, 0, 1_000));
        r.record(t(500_000, 500_100, 1_000_000));
        let s = r.summary();
        assert_eq!(s.count, 2);
        assert!((s.throughput_rps - 2.0).abs() < 1e-9);
        assert!(s.p99_ms >= s.p50_ms);
    }

    #[test]
    #[should_panic]
    fn out_of_order_rejected() {
        let mut r = LatencyRecorder::new();
        r.record(t(100, 50, 200));
    }

    #[test]
    fn trimming_drops_extremes() {
        let mut r = LatencyRecorder::new();
        for i in 0..10u64 {
            r.record(t(i * 100, i * 100, i * 100 + 10));
        }
        let trimmed = r.trimmed(2, 3);
        assert_eq!(trimmed.len(), 5);
        assert!(trimmed.timings().iter().all(|x| x.arrival_us >= 200));
        assert!(trimmed
            .timings()
            .iter()
            .all(|x| x.completion_us <= 6 * 100 + 10));
    }

    #[test]
    fn queueing_and_computation_cdfs_split_latency() {
        let mut r = LatencyRecorder::new();
        r.record(t(0, 40, 100));
        let q = r.queueing_cdf().mean();
        let c = r.computation_cdf().mean();
        let l = r.latency_cdf().mean();
        assert!((q + c - l).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn empty_summary_panics() {
        LatencyRecorder::new().summary();
    }
}
