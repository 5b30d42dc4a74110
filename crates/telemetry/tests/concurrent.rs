//! Concurrent-update test: many threads hammer shared handles; the
//! totals must be exact, not approximate — a registry has one writer
//! in practice, but a handle written from several threads (the
//! runtime's at-capacity refusal counter is ticked by every submitting
//! thread) must never lose an update.

use std::sync::Arc;
use std::thread;

use bm_telemetry::Telemetry;

const THREADS: usize = 8;
const OPS: u64 = 20_000;

#[test]
fn concurrent_updates_merge_exactly() {
    let tel = Telemetry::new();
    let counter = tel.counter("ops_total");
    let gauge = tel.gauge("in_flight");
    let hist = tel.histogram("latency_us");

    let mut joins = Vec::new();
    for t in 0..THREADS {
        let (c, g, h) = (counter.clone(), gauge.clone(), hist.clone());
        joins.push(thread::spawn(move || {
            for i in 0..OPS {
                c.add(2);
                g.add(3);
                g.sub(3);
                // Distinct per-thread value streams so the exact sum
                // would expose any lost or double-counted record.
                h.record(t as u64 * OPS + i);
            }
        }));
    }
    for j in joins {
        j.join().expect("worker thread");
    }

    assert_eq!(counter.value(), THREADS as u64 * OPS * 2);
    assert_eq!(gauge.value(), 0, "adds and subs must cancel exactly");

    let snap = hist.snapshot();
    let n = THREADS as u64 * OPS;
    assert_eq!(snap.count, n);
    // Sum of 0..THREADS*OPS since the per-thread streams tile the range.
    assert_eq!(snap.sum, n * (n - 1) / 2);
    assert_eq!(snap.min, 0);
    assert_eq!(snap.max, n - 1);
    let bucket_total: u64 = snap.buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(bucket_total, n);
}

#[test]
fn concurrent_registry_lookup_yields_shared_metric() {
    // Threads that look up the same name must all get the same
    // underlying metric, even when racing on first registration.
    let tel = Telemetry::new();
    let mut joins = Vec::new();
    for _ in 0..THREADS {
        let tel = Arc::clone(&tel);
        joins.push(thread::spawn(move || {
            let c = tel.counter("races_total");
            for _ in 0..OPS {
                c.inc();
            }
        }));
    }
    for j in joins {
        j.join().expect("worker thread");
    }
    assert_eq!(
        tel.counter("races_total").value(),
        THREADS as u64 * OPS,
        "racing registrations must converge on one counter"
    );
}
