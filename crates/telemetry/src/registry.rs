//! The process-wide metric registry.
//!
//! [`Telemetry`] hands out cheap clonable [`Counter`]/[`Gauge`]/
//! [`Histogram`] handles keyed by `(name, labels)`. Registration takes
//! a mutex; recording through a handle never does — instrumented code
//! registers once at startup and holds the handles. A *disabled*
//! registry still hands out working handles, but reports
//! [`Telemetry::enabled`]` == false` so instrumentation layers skip
//! registration entirely and pay one branch (or one `Option` check)
//! per call site, mirroring `TraceSink::enabled`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{MetricEntry, MetricValue, Snapshot};

type Key = (String, Vec<(String, String)>);

#[derive(Default)]
struct Registry {
    counters: BTreeMap<Key, Counter>,
    gauges: BTreeMap<Key, Gauge>,
    histograms: BTreeMap<Key, Histogram>,
}

/// A registry of named metrics shared across the serving stack.
///
/// Always used behind `Arc`; every layer (engine, runtime, simulator,
/// trace sinks, harness) holds the same instance, so one
/// [`Telemetry::snapshot`] sees the whole process. Metric names must be
/// unique across types: registering `foo` as both a counter and a gauge
/// panics.
pub struct Telemetry {
    enabled: bool,
    inner: Mutex<Registry>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A fresh enabled registry.
    pub fn new() -> Arc<Telemetry> {
        Arc::new(Telemetry {
            enabled: true,
            inner: Mutex::new(Registry::default()),
        })
    }

    /// The disabled default: handles still work if requested, but
    /// instrumentation layers check [`Telemetry::enabled`] and skip
    /// wiring entirely.
    pub fn disabled() -> Arc<Telemetry> {
        Arc::new(Telemetry {
            enabled: false,
            inner: Mutex::new(Registry::default()),
        })
    }

    /// Whether instrumentation should register handles and record.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The unlabelled counter `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// The counter `name{labels}`, creating it on first use. Repeated
    /// calls with the same key return handles to the same metric.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = make_key(name, labels);
        let mut g = self.inner.lock().expect("metric registry lock poisoned");
        assert_unique(name, &key, &g.gauges, "gauge");
        assert_unique(name, &key, &g.histograms, "histogram");
        g.counters.entry(key).or_default().clone()
    }

    /// The unlabelled gauge `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// The gauge `name{labels}`, creating it on first use.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = make_key(name, labels);
        let mut g = self.inner.lock().expect("metric registry lock poisoned");
        assert_unique(name, &key, &g.counters, "counter");
        assert_unique(name, &key, &g.histograms, "histogram");
        g.gauges.entry(key).or_default().clone()
    }

    /// The unlabelled histogram `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// The histogram `name{labels}`, creating it on first use.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = make_key(name, labels);
        let mut g = self.inner.lock().expect("metric registry lock poisoned");
        assert_unique(name, &key, &g.counters, "counter");
        assert_unique(name, &key, &g.gauges, "gauge");
        g.histograms.entry(key).or_default().clone()
    }

    /// A point-in-time snapshot of every registered metric, entries
    /// sorted by `(name, labels)`.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.inner.lock().expect("metric registry lock poisoned");
        let mut entries: Vec<MetricEntry> =
            Vec::with_capacity(g.counters.len() + g.gauges.len() + g.histograms.len());
        for ((name, labels), c) in &g.counters {
            entries.push(MetricEntry {
                name: name.clone(),
                labels: labels.clone(),
                value: MetricValue::Counter(c.value()),
            });
        }
        for ((name, labels), gauge) in &g.gauges {
            entries.push(MetricEntry {
                name: name.clone(),
                labels: labels.clone(),
                value: MetricValue::Gauge(gauge.value()),
            });
        }
        for ((name, labels), h) in &g.histograms {
            entries.push(MetricEntry {
                name: name.clone(),
                labels: labels.clone(),
                value: MetricValue::Histogram(h.snapshot()),
            });
        }
        entries.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { entries }
    }
}

fn make_key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

fn assert_unique<V>(name: &str, key: &Key, other: &BTreeMap<Key, V>, other_type: &str) {
    assert!(
        !other.contains_key(key),
        "metric {name:?} already registered as a {other_type}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_shards() {
        let tel = Telemetry::new();
        let a = tel.counter("hits");
        let b = tel.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(tel.counter("hits").value(), 3);
    }

    #[test]
    fn labels_distinguish_series_and_order_does_not() {
        let tel = Telemetry::new();
        tel.counter_with("c", &[("a", "1"), ("b", "2")]).inc();
        tel.counter_with("c", &[("b", "2"), ("a", "1")]).inc();
        tel.counter_with("c", &[("a", "2")]).inc();
        let snap = tel.snapshot();
        assert_eq!(
            snap.get_with("c", &[("a", "1"), ("b", "2")]),
            Some(&MetricValue::Counter(2))
        );
        assert_eq!(
            snap.get_with("c", &[("a", "2")]),
            Some(&MetricValue::Counter(1))
        );
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let tel = Telemetry::new();
        tel.gauge("z_depth").set(4);
        tel.counter("a_total").inc();
        tel.histogram("m_lat").record(10);
        let snap = tel.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a_total", "m_lat", "z_depth"]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn cross_type_name_collision_panics() {
        let tel = Telemetry::new();
        tel.counter("x");
        tel.gauge("x");
    }

    #[test]
    fn disabled_registry_reports_disabled() {
        assert!(!Telemetry::disabled().enabled());
        assert!(Telemetry::new().enabled());
    }
}
