//! Metric primitives: one relaxed atomic per value.
//!
//! Each registry has one writer in practice — its shard's thread, or
//! the simulator's — so a handle is a single atomic (a histogram, one
//! atomic per bucket plus count, sum, min and max) shared by every
//! clone. Writes from other threads are still exact: every update is
//! one atomic read-modify-write. Reads (snapshots) are racy-by-design
//! and see a value that was true at *some* interleaving, which is all a
//! scrape needs. All atomics use relaxed ordering — metrics carry no
//! happens-before obligations.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::snapshot::HistogramSnapshot;

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic — handles are cheap to clone and `Send + Sync`.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh zeroed counter (normally obtained from the registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

/// A signed instantaneous value (queue depth, active requests).
///
/// [`Gauge::add`]/[`Gauge::sub`] are exact from any thread.
/// [`Gauge::set`] overwrites the value, so an `add` racing it from
/// another thread may be lost: use `set` only on a gauge whose one
/// writer computes the level itself (e.g. a shard publishing its own
/// queue depth).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh zeroed gauge (normally obtained from the registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current level.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

// ---------------------------------------------------------------------------
// Log-bucketed histogram
// ---------------------------------------------------------------------------

/// Sub-bucket resolution bits: 8 sub-buckets per power of two, bounding
/// relative quantile error below 1/8 = 12.5%.
const SUB_BITS: u32 = 3;
const SUB_BUCKETS: usize = 1 << SUB_BITS; // 8

/// Values below this are bucketed exactly (one bucket per value).
const EXACT_LIMIT: u64 = 16;

/// Total buckets: 16 exact + 60 magnitudes (2^4 .. 2^63) × 8 sub-buckets.
pub const NUM_BUCKETS: usize = EXACT_LIMIT as usize + 60 * SUB_BUCKETS; // 496

/// The bucket index a value lands in. Monotone in `v`, so the
/// rank-order of samples survives bucketing exactly.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < EXACT_LIMIT {
        v as usize
    } else {
        let m = 63 - v.leading_zeros() as usize; // 4..=63
        let sub = ((v >> (m - SUB_BITS as usize)) & (SUB_BUCKETS as u64 - 1)) as usize;
        EXACT_LIMIT as usize + (m - 4) * SUB_BUCKETS + sub
    }
}

/// Inclusive `(lo, hi)` value range of bucket `i`. For every value `v`
/// in the range, `hi <= v * 1.125` (the HDR error bound the proptest
/// suite asserts).
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < NUM_BUCKETS, "bucket index {i} out of range");
    if i < EXACT_LIMIT as usize {
        (i as u64, i as u64)
    } else {
        let m = (i - EXACT_LIMIT as usize) / SUB_BUCKETS + 4;
        let sub = (i - EXACT_LIMIT as usize) % SUB_BUCKETS;
        let width = 1u64 << (m - SUB_BITS as usize);
        let lo = (SUB_BUCKETS as u64 + sub as u64) * width;
        // `lo + (width - 1)`: the top bucket ends exactly at u64::MAX,
        // so add the already-decremented width to avoid overflow.
        (lo, lo + (width - 1))
    }
}

struct HistogramCore {
    buckets: Box<[AtomicU64]>, // NUM_BUCKETS long
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed (HDR-style) histogram of `u64` samples.
///
/// Bucket layout: values `< 16` get exact buckets; above that, each
/// power of two is split into 8 sub-buckets, so any quantile estimate
/// overshoots the exact sample by at most 12.5% (`sum`, `count`, `min`
/// and `max` stay exact). Recording touches one bucket, the count and
/// the sum, plus min/max only when the sample extends them — no locks,
/// no allocation.
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A fresh empty histogram (normally obtained from the registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let h = &*self.0;
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        // Check before the RMW: once min/max have settled (almost every
        // record in steady state), they cost two loads instead of two
        // atomic RMWs. Racing improvements still land — fetch_min and
        // fetch_max re-check atomically.
        if v < h.min.load(Ordering::Relaxed) {
            h.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > h.max.load(Ordering::Relaxed) {
            h.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all samples (wrapping on overflow past `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// An immutable [`HistogramSnapshot`] (only non-empty buckets are
    /// retained).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &*self.0;
        let count = self.count();
        let buckets: Vec<(u64, u64)> = h
            .buckets
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.load(Ordering::Relaxed)))
            .filter(|&(_, c)| c > 0)
            .map(|(i, c)| (bucket_bounds(i).1, c))
            .collect();
        let min = if count == 0 {
            0
        } else {
            h.min.load(Ordering::Relaxed)
        };
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min,
            max: h.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards() {
        let c = Counter::new();
        c.add(3);
        c.inc();
        assert_eq!(c.value(), 4);
    }

    #[test]
    fn gauge_add_sub_set() {
        let g = Gauge::new();
        g.add(5);
        g.sub(2);
        assert_eq!(g.value(), 3);
        g.set(-7);
        assert_eq!(g.value(), -7);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_tile() {
        // Exhaustive over small values, then spot-check magnitudes.
        for v in 0..4096u64 {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
            if v > 0 {
                assert!(bucket_index(v - 1) <= i);
            }
        }
        // Buckets tile the line with no gaps or overlap.
        let mut expect = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect, "bucket {i} starts at {lo}, expected {expect}");
            assert!(hi >= lo);
            if hi == u64::MAX {
                assert_eq!(i, NUM_BUCKETS - 1);
                break;
            }
            expect = hi + 1;
        }
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_error_is_bounded() {
        for v in [16u64, 100, 1000, 123_456, u32::MAX as u64, 1 << 60] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(hi as f64 <= lo as f64 * 1.125, "v={v} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn histogram_records_exact_sums_and_extremes() {
        let h = Histogram::new();
        for v in [0u64, 1, 15, 16, 17, 1000, 65_536] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1 + 15 + 16 + 17 + 1000 + 65_536);
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 65_536);
        assert_eq!(snap.buckets.iter().map(|(_, c)| c).sum::<u64>(), 7);
    }

    #[test]
    fn empty_histogram_snapshot_is_sane() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert!(snap.buckets.is_empty());
        assert_eq!(snap.quantile(0.5), None);
    }
}
