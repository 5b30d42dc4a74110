//! Trace sinks: where instrumented code sends events.

use std::collections::VecDeque;
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
/// is surfaced twice: [`RingBufferSink::dropped`] on the sink, and a
/// warning in [`crate::chrome_trace_with_meta`] export metadata.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    inner: Mutex<RingInner>,
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
        }
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
        }
        g.buf.push_back(event);
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
}
