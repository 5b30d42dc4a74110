//! SLA accounting: goodput vs raw throughput under deadlines.
//!
//! Under overload a serving system's raw completion rate stops being the
//! interesting number — what matters is how many requests finish *within
//! their latency SLA* (goodput) and what fraction of offered load that
//! represents (attainment). This module aggregates the per-run drop
//! counters (expired, rejected) with the recorder's completion count
//! into one summary row.

/// Per-run SLA accounting for one offered-load point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaSummary {
    /// Requests offered to the system (admitted + rejected).
    pub offered: usize,
    /// Requests completed within their deadline.
    pub completed: usize,
    /// Requests whose deadline passed before completion.
    pub expired: usize,
    /// Requests refused by admission control.
    pub rejected: usize,
    /// In-deadline completions per second of measured wall time.
    pub goodput_rps: f64,
}

impl SlaSummary {
    /// Builds a summary from raw counts and the measurement span.
    ///
    /// `span_us` is the wall-clock (or virtual) time the `completed`
    /// count was measured over; a zero span yields zero goodput.
    ///
    /// # Panics
    ///
    /// Panics if the drop counts exceed the offered count.
    pub fn new(
        offered: usize,
        completed: usize,
        expired: usize,
        rejected: usize,
        span_us: u64,
    ) -> Self {
        assert!(
            completed + expired + rejected <= offered,
            "resolved {} > offered {offered}",
            completed + expired + rejected
        );
        let goodput_rps = if span_us == 0 {
            0.0
        } else {
            completed as f64 / (span_us as f64 / 1e6)
        };
        SlaSummary {
            offered,
            completed,
            expired,
            rejected,
            goodput_rps,
        }
    }

    /// Fraction of offered requests that met their deadline, in `[0, 1]`.
    pub fn attainment(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attainment_and_goodput() {
        // 80 of 100 requests completed over 2 virtual seconds.
        let s = SlaSummary::new(100, 80, 15, 5, 2_000_000);
        assert!((s.attainment() - 0.8).abs() < 1e-12);
        assert!((s.goodput_rps - 40.0).abs() < 1e-9);
    }

    #[test]
    fn zero_span_and_zero_offered_are_safe() {
        let s = SlaSummary::new(0, 0, 0, 0, 0);
        assert_eq!(s.goodput_rps, 0.0);
        assert_eq!(s.attainment(), 0.0);
    }

    #[test]
    #[should_panic(expected = "resolved")]
    fn overcounting_drops_panics() {
        let _ = SlaSummary::new(10, 8, 2, 1, 1_000_000);
    }
}
