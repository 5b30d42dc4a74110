//! Immutable point-in-time snapshots of the registry, with Prometheus
//! text exposition.
//!
//! A snapshot is plain data: entries sorted by `(name, labels)` so two
//! snapshots of identical registry state compare equal with `==`.

use std::fmt::Write as _;

/// The merged, immutable form of a [`crate::Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Exact smallest sample (0 when empty).
    pub min: u64,
    /// Exact largest sample (0 when empty).
    pub max: u64,
    /// `(upper_bound_inclusive, count)` per non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile estimate, `q` in `[0, 1]`: the upper bound
    /// of the bucket containing the rank-`⌈q·n⌉` sample. Matches
    /// `bm_metrics::Cdf::quantile`'s rank convention, overshooting the
    /// exact sample by at most 12.5% (the bucket width bound). `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(hi, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return Some(hi);
            }
        }
        self.buckets.last().map(|&(hi, _)| hi)
    }

    /// Mean of the recorded samples (exact, from `sum`/`count`); `None`
    /// when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// One metric's value inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone counter total.
    Counter(u64),
    /// An instantaneous gauge level.
    Gauge(i64),
    /// A merged histogram.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One named, labelled metric inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Metric name, e.g. `bm_requests_admitted_total`.
    pub name: String,
    /// Sorted `(key, value)` label pairs; empty for unlabelled metrics.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time view of every registered metric, sorted by
/// `(name, labels)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// All metric entries.
    pub entries: Vec<MetricEntry>,
}

impl Snapshot {
    /// The first entry matching `name` with no labels.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.get_with(name, &[])
    }

    /// The entry matching `name` and exactly these labels
    /// (order-insensitive).
    pub fn get_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        want.sort();
        self.entries
            .iter()
            .find(|e| e.name == name && e.labels == want)
            .map(|e| &e.value)
    }

    /// Sum of all counter entries with this name, any labels.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match &e.value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Sum of the exact `sum` fields of all histogram entries with this
    /// name, any labels.
    pub fn histogram_sum(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match &e.value {
                MetricValue::Histogram(h) => Some(h.sum),
                _ => None,
            })
            .fold(0u64, u64::wrapping_add)
    }

    /// Returns this snapshot with a `(key, value)` label added to every
    /// entry (labels stay sorted). Used to tag per-source snapshots —
    /// e.g. one registry per scheduler shard — before merging them with
    /// [`Snapshot::merge`].
    pub fn with_label(mut self, key: &str, value: &str) -> Snapshot {
        for e in &mut self.entries {
            let pair = (key.to_string(), value.to_string());
            let at = e.labels.partition_point(|l| *l < pair);
            e.labels.insert(at, pair);
        }
        self.entries
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        self
    }

    /// Merges several snapshots into one sorted snapshot. Entries are
    /// concatenated, not summed: callers distinguishing sources (e.g.
    /// per-shard registries) tag each part with [`Snapshot::with_label`]
    /// first, and aggregate views come from [`Snapshot::counter_sum`] /
    /// [`Snapshot::histogram_sum`] over the merged result.
    pub fn merge(parts: impl IntoIterator<Item = Snapshot>) -> Snapshot {
        let mut entries: Vec<MetricEntry> = parts.into_iter().flat_map(|s| s.entries).collect();
        entries.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { entries }
    }

    /// Prometheus text exposition format (0.0.4): `# TYPE` lines, one
    /// sample line per counter/gauge, and cumulative
    /// `_bucket{le=...}`/`_sum`/`_count` series per histogram.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(256 + self.entries.len() * 96);
        let mut last_name = "";
        for e in &self.entries {
            if e.name != last_name {
                let _ = writeln!(out, "# TYPE {} {}", e.name, e.value.type_name());
                last_name = &e.name;
            }
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", e.name, prom_labels(&e.labels, None));
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {v}", e.name, prom_labels(&e.labels, None));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for &(hi, c) in &h.buckets {
                        cum += c;
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cum}",
                            e.name,
                            prom_labels(&e.labels, Some(&hi.to_string()))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        e.name,
                        prom_labels(&e.labels, Some("+Inf")),
                        h.count
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        e.name,
                        prom_labels(&e.labels, None),
                        h.sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        e.name,
                        prom_labels(&e.labels, None),
                        h.count
                    );
                }
            }
        }
        out
    }
}

fn prom_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            entries: vec![
                MetricEntry {
                    name: "bm_active_requests".into(),
                    labels: vec![],
                    value: MetricValue::Gauge(-2),
                },
                MetricEntry {
                    name: "bm_requests_admitted_total".into(),
                    labels: vec![("cell".into(), "lstm".into())],
                    value: MetricValue::Counter(42),
                },
                MetricEntry {
                    name: "bm_stage_us".into(),
                    labels: vec![("stage".into(), "compute".into())],
                    value: MetricValue::Histogram(HistogramSnapshot {
                        count: 3,
                        sum: 1234,
                        min: 100,
                        max: 900,
                        buckets: vec![(103, 1), (511, 1), (959, 1)],
                    }),
                },
            ],
        }
    }

    #[test]
    fn labeled_merge_tags_sources_and_stays_sorted() {
        let a = sample_snapshot().with_label("shard", "0");
        let b = sample_snapshot().with_label("shard", "1");
        let merged = Snapshot::merge([a, b]);
        assert_eq!(merged.entries.len(), 6);
        assert!(merged
            .entries
            .windows(2)
            .all(|w| (&w[0].name, &w[0].labels) <= (&w[1].name, &w[1].labels)));
        assert_eq!(
            merged.get_with(
                "bm_requests_admitted_total",
                &[("cell", "lstm"), ("shard", "1")]
            ),
            Some(&MetricValue::Counter(42))
        );
        assert_eq!(merged.counter_sum("bm_requests_admitted_total"), 84);
    }

    #[test]
    fn quantile_is_nearest_rank_on_bucket_bounds() {
        let h = HistogramSnapshot {
            count: 4,
            sum: 100,
            min: 1,
            max: 50,
            buckets: vec![(1, 1), (10, 2), (50, 1)],
        };
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.25), Some(1));
        assert_eq!(h.quantile(0.5), Some(10));
        assert_eq!(h.quantile(0.75), Some(10));
        assert_eq!(h.quantile(1.0), Some(50));
        assert_eq!(h.mean(), Some(25.0));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE bm_requests_admitted_total counter"));
        assert!(text.contains("bm_requests_admitted_total{cell=\"lstm\"} 42"));
        assert!(text.contains("# TYPE bm_active_requests gauge"));
        assert!(text.contains("bm_active_requests -2"));
        assert!(text.contains("bm_stage_us_bucket{stage=\"compute\",le=\"511\"} 2"));
        assert!(text.contains("bm_stage_us_bucket{stage=\"compute\",le=\"+Inf\"} 3"));
        assert!(text.contains("bm_stage_us_sum{stage=\"compute\"} 1234"));
        assert!(text.contains("bm_stage_us_count{stage=\"compute\"} 3"));
    }
}
