//! Metric definitions and the result record of one run.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of what the
//! benchmark reports; `BENCHMARK.json` at the repo root repeats them for
//! the driver and a test holds the two equal.

use std::fmt::Write as _;

use bm_telemetry::json::{self, Value};

use crate::host::HostInfo;
use crate::loadgen::Counts;
use crate::trace::json_str;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit printed beside every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// An end-to-end metric `BENCHMARK.json` does not list.
const fn unlisted(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    e2e(name, unit, better, bound)
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics the driver holds later PRs to (`BENCHMARK.json`),
/// measured with tracing and telemetry off: what a request costs the
/// operator in CPU and memory, and what a start costs in time.
///
/// These are the ones that repeat on the shared 2-vCPU build host. CPU
/// time is counted only while a thread runs, so another tenant taking
/// cycles stretches it far less than it stretches wall-clock time: over
/// ten seeds of unchanged code `high_cpu_us_per_req` spread by 5–19 % of
/// its median in hours in which `peak_rps` spread by 12–33 % (README,
/// "Sizing and noise"). The ISSUE's starting bounds of 5–10 % are
/// narrower than that, so every bound is the contract's cap.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("high_cpu_us_per_req", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// What a client sees — the closed-loop peak rate and the open-loop
/// latencies: measured, checked and printed by every end-to-end run and
/// judged row by row by `compare`, but not listed in `BENCHMARK.json`.
///
/// They are wall-clock figures of a process that wants both vCPUs. At
/// the peak every cycle another tenant takes is throughput lost; a
/// request's latency is a chain of 10–50 cross-thread hand-offs, and
/// what a hand-off to a sleeping thread costs depends on the hypervisor.
/// With the host's speed drifting over minutes these spread by 12–49 %
/// (rate) and 25–130 % (latencies) in its bad hours, wider than any
/// bound the contract allows, and a listed metric whose spread exceeds
/// its bound fails the whole benchmark. `compare` marks such rows
/// `unresolved` and still resolves them in quiet hours.
pub const CLIENT_SIDE: [MetricDef; 5] = [
    unlisted("peak_rps", "req/s", Higher, 0.25),
    unlisted("mid_p50_ms", "ms", Lower, 0.25),
    unlisted("mid_p90_ms", "ms", Lower, 0.25),
    unlisted("high_p50_ms", "ms", Lower, 0.25),
    unlisted("high_p90_ms", "ms", Lower, 0.25),
];

/// Printed with the end-to-end metrics and compared as "any increase
/// regresses"; the driver gets it as the `attempted`/`failed` counts:
/// it is 0 on a healthy run, and a bound that is a share of 0 bounds
/// nothing.
pub const FAIL_SHARE: MetricDef = unlisted("fail_share", "ratio", Lower, 0.0);

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: [MetricDef; 77] = [
    layer("net.wire.encode_submit_ns", "ns", Lower),
    layer("net.wire.decode_submit_ns", "ns", Lower),
    layer("net.wire.encode_response_ns", "ns", Lower),
    layer("net.wire.decode_response_ns", "ns", Lower),
    layer("net.wire.submit_bytes", "B", Lower),
    layer("net.wire.response_bytes", "B", Lower),
    layer("net.server.overhead_p50_us", "us", Lower),
    layer("net.server.overhead_p90_us", "us", Lower),
    layer("net.server.frames_in", "count", Higher),
    layer("net.server.completed", "count", Higher),
    layer("net.server.protocol_errors", "count", Lower),
    layer("core.runtime.submit_ns", "ns", Lower),
    layer("core.runtime.inproc_p50_us", "us", Lower),
    layer("core.runtime.inproc_p90_us", "us", Lower),
    layer("core.runtime.queue_wait_p50_us", "us", Lower),
    layer("core.runtime.queue_wait_p90_us", "us", Lower),
    layer("core.runtime.service_p50_us", "us", Lower),
    layer("core.runtime.service_p90_us", "us", Lower),
    layer("core.runtime.wakeups_per_req", "1/req", Lower),
    layer("core.runtime.drained_per_wakeup", "count", Higher),
    layer("core.runtime.submit_batch_mean", "count", Higher),
    layer("core.runtime.worker_busy_share", "ratio", Higher),
    layer("core.runtime.scatter_resolve_us", "us", Lower),
    layer("model.unfold_ns", "ns", Lower),
    layer("model.nodes_per_req", "count", Lower),
    layer("core.partition.partition_ns", "ns", Lower),
    layer("core.engine.on_request_ns", "ns", Lower),
    layer("core.engine.dispatch_ns_per_task", "ns", Lower),
    layer("core.engine.complete_ns_per_task", "ns", Lower),
    layer("core.engine.ns_per_node", "ns", Lower),
    layer("core.engine.tasks_per_req", "1/req", Lower),
    layer("core.engine.batch_mean.mid", "count", Higher),
    layer("core.engine.batch_mean.high", "count", Higher),
    layer("core.engine.stage_enqueue_to_batch_us", "us", Lower),
    layer("core.engine.stage_batch_wait_us", "us", Lower),
    layer("core.engine.stage_compute_us", "us", Lower),
    layer("core.state_plane.alloc_ns_per_req", "ns", Lower),
    layer("core.state_plane.write_ns_per_row", "ns", Lower),
    layer("core.state_plane.read_ns_per_row", "ns", Lower),
    layer("core.resident.place_ns_per_row", "ns", Lower),
    layer("core.resident.step_ns_per_row.b8", "ns", Lower),
    layer("core.resident.step_ns_per_row.b64", "ns", Lower),
    layer("core.resident.remove_ns", "ns", Lower),
    layer("core.resident.joins_per_req", "1/req", Lower),
    layer("core.resident.compaction_moves_per_req", "1/req", Lower),
    layer("cell.gather_step_ns_per_row.b1", "ns", Lower),
    layer("cell.gather_step_ns_per_row.b8", "ns", Lower),
    layer("cell.gather_step_ns_per_row.b64", "ns", Lower),
    layer("cell.resident_step_ns_per_row.b1", "ns", Lower),
    layer("cell.resident_step_ns_per_row.b8", "ns", Lower),
    layer("cell.resident_step_ns_per_row.b64", "ns", Lower),
    layer("cell.flops_per_row", "flop", Lower),
    layer("cell.bytes_per_step.b64", "B", Lower),
    layer("tensor.gemm.gflops.b8", "Gflop/s", Higher),
    layer("tensor.gemm.gflops.b64", "Gflop/s", Higher),
    layer("tensor.gemm_acc.gflops.b64", "Gflop/s", Higher),
    layer("tensor.pool.threads", "count", Higher),
    layer("telemetry.overhead_cpu_pct", "%", Lower),
    layer("telemetry.overhead_p50_pct", "%", Lower),
    layer("gen.late_mean_us", "us", Lower),
    layer("gen.late_max_us", "us", Lower),
    layer("gen.cpu_us_per_req", "us", Lower),
    layer("client.mid_p50_ms", "ms", Lower),
    layer("client.mid_p90_ms", "ms", Lower),
    layer("client.mid_p99_ms", "ms", Lower),
    layer("client.high_p50_ms", "ms", Lower),
    layer("client.high_p90_ms", "ms", Lower),
    layer("client.high_p99_ms", "ms", Lower),
    layer("trace.high_cpu_us_per_req", "us", Lower),
    layer("budget.net_us", "us", Lower),
    layer("budget.runtime_us", "us", Lower),
    layer("budget.engine_us", "us", Lower),
    layer("budget.state_us", "us", Lower),
    layer("budget.cell_us", "us", Lower),
    layer("budget.explained_us", "us", Lower),
    layer("budget.residual_us", "us", Lower),
    layer("budget.residual_share", "ratio", Lower),
];

/// Every metric an end-to-end run reports, in `compare`'s row order.
pub fn end_to_end_rows() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END
        .iter()
        .chain(&CLIENT_SIDE)
        .chain(std::iter::once(&FAIL_SHARE))
}

/// Looks up any metric by name.
pub fn metric_def(name: &str) -> Option<MetricDef> {
    end_to_end_rows()
        .chain(&PER_LAYER)
        .copied()
        .find(|m| m.name == name)
}

/// Requests sent / verified / failed in one named phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCounts {
    /// Phase name (`setup`, `warmup`, `peak`, `mid`, `high`, …).
    pub phase: String,
    /// Its counts.
    pub counts: Counts,
}

/// Everything one run reports; one line of `benchmark/out/*.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Seed of the input stream and arrival schedules.
    pub seed: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
    /// `--seconds`: total measured time, split over the phases.
    pub seconds: f64,
    /// How `seconds` was split: the length of each phase, in words.
    pub plan: String,
    /// Host fingerprint.
    pub host: HostInfo,
    /// Readiness backend the server ran on.
    pub backend: String,
    /// Scheduler shards in effect.
    pub shards: usize,
    /// Worker threads in effect.
    pub workers: usize,
    /// Per-phase request accounting.
    pub phases: Vec<PhaseCounts>,
    /// Oracle mismatches plus server protocol errors; any makes the
    /// run incorrect.
    pub mismatches: u64,
    /// The generator ran late enough (mean lateness above 10 % of a
    /// median latency) that the latencies are its own, not the server's.
    pub unresolved: bool,
    /// Metric values in reporting order; `None` where the source (a
    /// telemetry snapshot name) no longer exists.
    pub metrics: Vec<(String, Option<f64>)>,
}

impl RunRecord {
    /// Requests sent over all phases.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.counts.sent).sum()
    }

    /// Requests not answered correctly over all phases.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.counts.failed()).sum()
    }

    /// Failed ÷ attempted.
    pub fn fail_share(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// No oracle mismatch, no protocol error, nothing failed.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.failed() == 0
    }

    /// A metric's value, if reported and present.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| *v)
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics` — every end-to-end metric of an untraced
    /// run, every per-layer metric of a traced one, each with its value
    /// and unit. Anything else the record holds is for people.
    pub fn driver_line(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted(),
            self.failed()
        )
        .expect("write to string");
        let defs: &[MetricDef] = if self.traced { &PER_LAYER } else { &END_TO_END };
        for (i, def) in defs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json_str(&mut out, def.name);
            out.push_str(": {\"value\": ");
            push_num(&mut out, self.metric(def.name));
            out.push_str(", \"unit\": ");
            json_str(&mut out, def.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// The full record as one JSON line (what `compare` reads back).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\": \"bm-benchmark/v1\", \"workload\": ");
        json_str(&mut out, &self.workload);
        write!(
            out,
            ", \"seed\": {}, \"traced\": {}, \"seconds\": {}, \"plan\": ",
            self.seed, self.traced, self.seconds
        )
        .expect("write to string");
        json_str(&mut out, &self.plan);
        write!(
            out,
            ", \"host\": {{\"nproc\": {}, \"avx2\": {}, \"avx512f\": {}, \"git_commit\": ",
            self.host.nproc, self.host.avx2, self.host.avx512f
        )
        .expect("write to string");
        json_str(&mut out, &self.host.git_commit);
        out.push_str("}, \"backend\": ");
        json_str(&mut out, &self.backend);
        write!(
            out,
            ", \"shards\": {}, \"workers\": {}, \"mismatches\": {}, \"unresolved\": {}, \"phases\": [",
            self.shards, self.workers, self.mismatches, self.unresolved
        )
        .expect("write to string");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"phase\": ");
            json_str(&mut out, &p.phase);
            write!(
                out,
                ", \"sent\": {}, \"ok\": {}, \"mismatched\": {}}}",
                p.counts.sent, p.counts.ok, p.counts.mismatched
            )
            .expect("write to string");
        }
        out.push_str("], \"metrics\": {");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json_str(&mut out, name);
            out.push_str(": ");
            push_num(&mut out, *value);
        }
        out.push_str("}}");
        out
    }

    /// Parses a line written by [`RunRecord::to_json`].
    pub fn from_json(line: &str) -> Result<RunRecord, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field {k}"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("{k} is not a number"))
        };
        let text = |k: &str| {
            Ok::<_, String>(
                field(k)?
                    .as_str()
                    .ok_or_else(|| format!("{k} is not a string"))?
                    .to_string(),
            )
        };
        let flag = |v: &Value, k: &str| match v.get(k) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(format!("{k} is not a boolean")),
        };
        if text("schema")? != "bm-benchmark/v1" {
            return Err("not a bm-benchmark/v1 record".into());
        }
        let host = field("host")?;
        let host_num = |k: &str| {
            host.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("host.{k} is not a count"))
        };
        let phases = field("phases")?
            .as_arr()
            .ok_or("phases is not an array")?
            .iter()
            .map(|p| {
                let count = |k: &str| {
                    p.get(k)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("phase {k} is not a count"))
                };
                Ok(PhaseCounts {
                    phase: p
                        .get("phase")
                        .and_then(Value::as_str)
                        .ok_or("phase without a name")?
                        .to_string(),
                    counts: Counts {
                        sent: count("sent")?,
                        ok: count("ok")?,
                        mismatched: count("mismatched")?,
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let Value::Obj(metric_map) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        // The parser's map has no order; restore the reporting order.
        let order = |name: &str| {
            end_to_end_rows()
                .chain(&PER_LAYER)
                .position(|m| m.name == name)
                .unwrap_or(usize::MAX)
        };
        let mut metrics: Vec<(String, Option<f64>)> = metric_map
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64()))
            .collect();
        metrics.sort_by(|a, b| (order(&a.0), &a.0).cmp(&(order(&b.0), &b.0)));
        Ok(RunRecord {
            workload: text("workload")?,
            seed: num("seed")? as u64,
            traced: flag(&v, "traced")?,
            seconds: num("seconds")?,
            plan: text("plan")?,
            host: HostInfo {
                nproc: host_num("nproc")? as usize,
                avx2: flag(host, "avx2")?,
                avx512f: flag(host, "avx512f")?,
                git_commit: host
                    .get("git_commit")
                    .and_then(Value::as_str)
                    .ok_or("host.git_commit is not a string")?
                    .to_string(),
            },
            backend: text("backend")?,
            shards: num("shards")? as usize,
            workers: num("workers")? as usize,
            phases,
            mismatches: num("mismatches")? as u64,
            unresolved: flag(&v, "unresolved")?,
            metrics,
        })
    }

    /// The human-readable report: fingerprint, per-phase accounting and
    /// every metric by name with its unit.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let h = &self.host;
        writeln!(
            out,
            "workload {}  seed {}  {}  seconds {}",
            self.workload,
            self.seed,
            if self.traced {
                "traced run"
            } else {
                "end-to-end run"
            },
            self.seconds
        )
        .expect("write to string");
        writeln!(out, "plan {}", self.plan).expect("write to string");
        writeln!(
            out,
            "host nproc={} avx2={} avx512f={} commit={}  server backend={} shards={} workers={}",
            h.nproc, h.avx2, h.avx512f, h.git_commit, self.backend, self.shards, self.workers
        )
        .expect("write to string");
        for p in &self.phases {
            writeln!(
                out,
                "phase {:<12} sent {:>8}  succeeded {:>8}  failed {:>6}",
                p.phase,
                p.counts.sent,
                p.counts.ok,
                p.counts.failed()
            )
            .expect("write to string");
        }
        for (name, value) in &self.metrics {
            let unit = metric_def(name).map_or("", |d| d.unit);
            match value {
                Some(v) => writeln!(out, "{name:<44} {v:>16.4} {unit}"),
                None => writeln!(out, "{name:<44} {:>16} {unit}", "null"),
            }
            .expect("write to string");
        }
        if self.unresolved {
            writeln!(
                out,
                "UNRESOLVED: the generator ran late by more than 10 % of a median latency; \
                 the latencies above are not a result"
            )
            .expect("write to string");
        }
        out
    }
}

/// Appends a JSON number with all its digits, or `null`.
fn push_num(out: &mut String, value: Option<f64>) {
    match value {
        Some(v) if v.is_finite() => write!(out, "{v}").expect("write to string"),
        _ => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            workload: "chain_wmt".into(),
            seed: 42,
            traced: false,
            seconds: 24.0,
            plan: "4 rounds of warm-up 0.5 s, peak 1.5 s, mid 2 s, high 2 s".into(),
            host: HostInfo {
                nproc: 2,
                avx2: true,
                avx512f: false,
                git_commit: "abc123".into(),
            },
            backend: "epoll".into(),
            shards: 1,
            workers: 1,
            phases: vec![
                PhaseCounts {
                    phase: "peak".into(),
                    counts: Counts {
                        sent: 1000,
                        ok: 999,
                        mismatched: 0,
                    },
                },
                PhaseCounts {
                    phase: "mid".into(),
                    counts: Counts {
                        sent: 10,
                        ok: 10,
                        mismatched: 0,
                    },
                },
            ],
            mismatches: 0,
            unresolved: false,
            metrics: vec![
                ("setup_s".into(), Some(0.012_345_678_9)),
                ("peak_rps".into(), Some(2056.25)),
                ("fail_share".into(), Some(1.0 / 1010.0)),
            ],
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = sample();
        let back = RunRecord::from_json(&r.to_json()).expect("parse own output");
        assert_eq!(back, r);
        assert_eq!(back.attempted(), 1010);
        assert_eq!(back.failed(), 1);
        assert!(!back.correct());
    }

    #[test]
    fn missing_values_round_trip_as_null() {
        let mut r = sample();
        r.traced = true;
        r.metrics = vec![("core.runtime.wakeups_per_req".into(), None)];
        let line = r.to_json();
        assert!(line.contains("\"core.runtime.wakeups_per_req\": null"));
        assert_eq!(RunRecord::from_json(&line).expect("parse"), r);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = sample().driver_line();
        let v = json::parse(&line).expect("valid JSON");
        let Value::Obj(top) = &v else {
            panic!("not an object")
        };
        let mut keys: Vec<&str> = top.keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            panic!("metrics is not an object")
        };
        // Every end-to-end metric is listed (absent ones as null);
        // fail_share is printed for people, not sent to the driver.
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(!metrics.contains_key("fail_share"));
        assert_eq!(metrics["peak_rss_mb"].get("value"), Some(&Value::Null));
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(
            setup.get("value").and_then(Value::as_f64),
            Some(0.012_345_678_9)
        );
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = end_to_end_rows()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for m in end_to_end_rows().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is what the driver reads; it must list exactly
    /// the metrics and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_definitions() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        let list = |k: &str| v.get(k).and_then(Value::as_arr).expect("list").to_vec();
        let s = |e: &Value, k: &str| {
            e.get(k)
                .and_then(Value::as_str)
                .expect("string")
                .to_string()
        };
        let e2e_json = list("end_to_end");
        assert_eq!(e2e_json.len(), END_TO_END.len());
        for (e, def) in e2e_json.iter().zip(END_TO_END) {
            assert_eq!(s(e, "name"), def.name);
            assert_eq!(s(e, "unit"), def.unit);
            assert_eq!(s(e, "better"), label(def.better));
            assert_eq!(
                e.get("bound").and_then(Value::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
        }
        fn label(b: Better) -> &'static str {
            match b {
                Better::Lower => "lower",
                Better::Higher => "higher",
            }
        }
        let layer_json = list("per_layer");
        assert_eq!(layer_json.len(), PER_LAYER.len());
        for (e, def) in layer_json.iter().zip(PER_LAYER) {
            assert_eq!(s(e, "name"), def.name);
            assert_eq!(s(e, "unit"), def.unit);
            assert_eq!(s(e, "better"), label(def.better));
        }
        let names: Vec<String> = list("workloads").iter().map(|w| s(w, "name")).collect();
        let want: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, want);
    }
}
