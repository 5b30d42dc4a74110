//! Trace sinks: where instrumented code sends events.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{EventKind, TraceEvent};

/// A destination for trace events.
///
/// Instrumented hot paths guard event construction behind
/// [`TraceSink::enabled`]:
///
/// ```ignore
/// if sink.enabled() {
///     sink.record(TraceEvent { ts_us, kind: EventKind::TaskStarted { .. } });
/// }
/// ```
///
/// so a disabled sink costs one predictable branch per site and no
/// allocation.
pub trait TraceSink: std::fmt::Debug + Send + Sync {
    /// Whether callers should construct and record events at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event. Must be cheap and non-blocking; sinks that
    /// buffer must bound their memory.
    fn record(&self, event: TraceEvent);
}

/// The default sink: drops everything, reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TraceEvent) {}
}

/// A shared no-op sink — the default for every options struct.
pub fn noop() -> Arc<dyn TraceSink> {
    Arc::new(NoopSink)
}

#[derive(Debug)]
struct RingInner {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded in-memory capture buffer: keeps the most recent `capacity`
/// events, dropping the oldest (and counting drops) when full.
///
/// Dropped events are silent data loss for exporters, so the drop count
/// is surfaced three ways: [`RingBufferSink::dropped`] on the sink, an
/// optional telemetry [`bm_telemetry::Counter`] incremented per drop
/// ([`RingBufferSink::with_drop_counter`]), and a warning in
/// [`crate::chrome_trace_with_meta`] export metadata.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    inner: Mutex<RingInner>,
    drop_counter: Option<bm_telemetry::Counter>,
}

impl RingBufferSink {
    /// A buffer holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBufferSink {
            capacity,
            inner: Mutex::new(RingInner {
                buf: VecDeque::with_capacity(capacity.min(4096)),
                dropped: 0,
            }),
            drop_counter: None,
        }
    }

    /// Also count drops on a registry counter (conventionally
    /// `bm_trace_events_dropped_total`), so live snapshots expose the
    /// loss while the run is still going.
    pub fn with_drop_counter(mut self, counter: bm_telemetry::Counter) -> Self {
        self.drop_counter = Some(counter);
        self
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Copies out the buffered events, oldest first, without draining.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().buf.iter().cloned().collect()
    }

    /// Drains the buffered events, oldest first, resetting the buffer
    /// (the drop counter is preserved).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut g = self.inner.lock();
        g.buf.drain(..).collect()
    }

    /// Records a pre-built event kind at `ts_us` — convenience for
    /// drivers that already hold an `Arc<RingBufferSink>`.
    pub fn push(&self, ts_us: u64, kind: EventKind) {
        self.record(TraceEvent { ts_us, kind });
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, event: TraceEvent) {
        let mut g = self.inner.lock();
        if g.buf.len() == self.capacity {
            g.buf.pop_front();
            g.dropped += 1;
            if let Some(c) = &self.drop_counter {
                c.inc();
            }
        }
        g.buf.push_back(event);
    }
}

/// Per-request head sampling in front of another sink.
///
/// The keep/drop decision is made *once per request, at its head* — a
/// deterministic hash of the request id against the configured rate —
/// so a kept request retains **all** of its events (arrival, enqueues,
/// pins, migrations, cancellation, completion) and a dropped request
/// contributes none, keeping per-request timelines intact. This is
/// what lets 10⁶-request replays trace a representative slice at
/// bounded memory instead of truncating the tail.
///
/// Routing rules:
/// - events naming exactly one request ([`EventKind::request`]) follow
///   that request's decision;
/// - [`EventKind::BatchFormed`] is kept when *any* member request is
///   kept; its task id is then remembered so the matching
///   [`EventKind::TaskStarted`]/[`EventKind::TaskCompleted`] pair is
///   kept too (and forgotten at completion).
#[derive(Debug)]
pub struct SamplingSink {
    inner: Arc<dyn TraceSink>,
    /// Keep when `hash(request) < threshold`; `rate * 2^64` as u128 so
    /// a rate of 1.0 keeps everything exactly.
    threshold: u128,
    kept_tasks: Mutex<HashSet<u64>>,
    sampled_out: AtomicU64,
}

impl SamplingSink {
    /// Wraps `inner`, keeping each request with probability `rate`
    /// (clamped to `[0, 1]`). The decision is a deterministic function
    /// of the request id, so every sink observing the same run agrees.
    pub fn new(inner: Arc<dyn TraceSink>, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        SamplingSink {
            inner,
            threshold: (rate * 2f64.powi(64)) as u128,
            kept_tasks: Mutex::new(HashSet::new()),
            sampled_out: AtomicU64::new(0),
        }
    }

    /// Whether request `request` is kept by this sink's rate.
    pub fn keeps(&self, request: u64) -> bool {
        (splitmix64(request) as u128) < self.threshold
    }

    /// Events discarded by the sampling decision (not by the inner
    /// sink's own bounds).
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out.load(Ordering::Relaxed)
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &Arc<dyn TraceSink> {
        &self.inner
    }
}

/// splitmix64 finalizer: cheap, well-mixed, and stable across runs —
/// sequential request ids map to uniformly spread hashes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl TraceSink for SamplingSink {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&self, event: TraceEvent) {
        let keep = match &event.kind {
            EventKind::BatchFormed { task, requests, .. } => {
                let keep = requests.iter().any(|r| self.keeps(*r));
                if keep {
                    self.kept_tasks.lock().insert(*task);
                }
                keep
            }
            EventKind::TaskStarted { task, .. } => self.kept_tasks.lock().contains(task),
            EventKind::TaskCompleted { task, .. } => self.kept_tasks.lock().remove(task),
            kind => match kind.request() {
                Some(r) => self.keeps(r),
                // Every remaining variant names exactly one request;
                // keep anything new by default until routed here.
                None => true,
            },
        };
        if keep {
            self.inner.record(event);
        } else {
            self.sampled_out.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent {
            ts_us: ts,
            kind: EventKind::RequestExpired { request: ts },
        }
    }

    #[test]
    fn noop_is_disabled() {
        let s = NoopSink;
        assert!(!s.enabled());
        s.record(ev(1)); // must not panic
    }

    #[test]
    fn ring_buffer_drops_oldest_beyond_capacity() {
        let s = RingBufferSink::new(3);
        for t in 0..5 {
            s.record(ev(t));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let ts: Vec<u64> = s.events().iter().map(|e| e.ts_us).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        let drained = s.drain();
        assert_eq!(drained.len(), 3);
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 2, "drop counter survives drain");
    }

    #[test]
    fn ring_buffer_reports_drops_on_telemetry_counter() {
        let tel = bm_telemetry::Telemetry::new();
        let s =
            RingBufferSink::new(2).with_drop_counter(tel.counter("bm_trace_events_dropped_total"));
        for t in 0..5 {
            s.record(ev(t));
        }
        assert_eq!(s.dropped(), 3);
        assert_eq!(
            tel.snapshot().counter_sum("bm_trace_events_dropped_total"),
            3
        );
    }

    #[test]
    fn sampling_rate_extremes() {
        let kept = Arc::new(RingBufferSink::new(1000));
        let dropped = Arc::new(RingBufferSink::new(1000));
        let all = SamplingSink::new(kept.clone(), 1.0);
        let none = SamplingSink::new(dropped.clone(), 0.0);
        for r in 0..1000 {
            assert!(all.keeps(r), "rate 1.0 must keep request {r}");
            assert!(!none.keeps(r), "rate 0.0 must keep nothing, kept {r}");
            all.record(ev(r));
            none.record(ev(r));
        }
        assert_eq!((kept.len(), all.sampled_out()), (1000, 0));
        assert_eq!((dropped.len(), none.sampled_out()), (0, 1000));
    }

    #[test]
    fn sampling_keeps_whole_requests_and_their_tasks() {
        let ring = Arc::new(RingBufferSink::new(1024));
        let s = SamplingSink::new(ring.clone(), 0.5);
        // Find one kept and one dropped request id.
        let kept_req = (0..u64::MAX).find(|r| s.keeps(*r)).unwrap();
        let drop_req = (0..u64::MAX).find(|r| !s.keeps(*r)).unwrap();
        for (req, task) in [(kept_req, 1u64), (drop_req, 2u64)] {
            s.record(TraceEvent {
                ts_us: 0,
                kind: EventKind::RequestArrived {
                    request: req,
                    nodes: 1,
                    subgraphs: 1,
                },
            });
            s.record(TraceEvent {
                ts_us: 1,
                kind: EventKind::BatchFormed {
                    task,
                    worker: 0,
                    cell_type: 0,
                    batch: 1,
                    reason: crate::event::BatchReason::Priority,
                    gather_rows: 0,
                    transfer_rows: 0,
                    requests: vec![req],
                },
            });
            s.record(TraceEvent {
                ts_us: 2,
                kind: EventKind::TaskStarted { task, worker: 0 },
            });
            s.record(TraceEvent {
                ts_us: 3,
                kind: EventKind::TaskCompleted { task, worker: 0 },
            });
            s.record(TraceEvent {
                ts_us: 4,
                kind: EventKind::RequestCompleted {
                    request: req,
                    executed: 1,
                    total: 1,
                    cancelled: false,
                },
            });
        }
        let events = ring.events();
        // All 5 events of the kept request.
        assert_eq!(events.len(), 5);
        assert_eq!(s.sampled_out(), 5);
        for e in &events {
            if let Some(r) = e.kind.request() {
                assert_eq!(r, kept_req);
            }
        }
        // Task bookkeeping is cleaned up at completion.
        assert!(s.kept_tasks.lock().is_empty());
    }

    #[test]
    fn sampling_keeps_batch_with_any_kept_member() {
        let ring = Arc::new(RingBufferSink::new(16));
        let s = SamplingSink::new(ring.clone(), 0.5);
        let kept_req = (0..u64::MAX).find(|r| s.keeps(*r)).unwrap();
        let drop_req = (0..u64::MAX).find(|r| !s.keeps(*r)).unwrap();
        s.record(TraceEvent {
            ts_us: 0,
            kind: EventKind::BatchFormed {
                task: 9,
                worker: 0,
                cell_type: 0,
                batch: 2,
                reason: crate::event::BatchReason::Saturation,
                gather_rows: 0,
                transfer_rows: 0,
                requests: vec![drop_req, kept_req],
            },
        });
        assert_eq!(ring.len(), 1, "mixed batch must be kept");
    }
}
