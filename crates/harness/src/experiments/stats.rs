//! `repro stats`: the live telemetry plane, exercised end to end.
//!
//! Not a paper figure — the observability companion to `repro trace`.
//! Four parts, each checked hard (a failure panics so CI catches it):
//!
//! 1. **Overhead** — the same serving run is timed with telemetry
//!    disabled and enabled, interleaved, best-of-N minima compared. Two
//!    flavors: a threaded [`Runtime`] run (real kernels — the serving
//!    throughput the acceptance bound applies to) and a simulated run
//!    (no real compute, so pure scheduler overhead — the worst case).
//!    The disabled path must stay a single branch per call site, so the
//!    enabled/disabled gap bounds the full cost of the metrics plane.
//! 2. **Live run** — a real threaded [`Runtime`] serves requests with
//!    telemetry on; a [`Scraper`] thread reads its per-shard rollup and
//!    prints periodic stats lines while a [`SamplingSink`] head-samples
//!    the trace stream into a drop-counting ring buffer.
//! 3. **Reconciliation** — the four `bm_stage_us` stage histograms
//!    (exact sums, not bucket approximations) must telescope to exactly
//!    the end-to-end latency total reported by the per-request
//!    [`bm_core::ServedTiming`]s — the decomposition loses nothing.
//! 4. **Round-trip** — the final snapshot must survive
//!    `to_json` → `from_json` unchanged, and render to Prometheus text.
//!
//! Artifacts: `BENCH_telemetry.json` (schema `bm-telemetry-bench/v1`,
//! with the full snapshot embedded) and `telemetry.prom`.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bm_core::{Runtime, RuntimeOptions, ServeConfig, STAGE_NAMES};
use bm_metrics::Table;
use bm_model::{LstmLm, LstmLmConfig, Model};
use bm_sim::{simulate, CellularServer, SimOptions};
use bm_telemetry::{MetricValue, Scraper, Snapshot, Telemetry};
use bm_trace::{RingBufferSink, SamplingSink, TraceSink};
use bm_workload::{Dataset, LengthDistribution};

use crate::experiments::serving::arrivals;
use crate::experiments::Scale;

/// Trace-event capacity of the live run's ring buffer. Deliberately
/// small so the drop counter has something to count at full scale.
const RING_CAPACITY: usize = 1 << 12;

/// Fraction of requests the live run's [`SamplingSink`] keeps.
const SAMPLE_RATE: f64 = 0.25;

fn paper_lstm() -> Arc<LstmLm> {
    Arc::new(LstmLm::new(LstmLmConfig {
        max_batch: 512,
        ..Default::default()
    }))
}

/// Wall-clock seconds of one simulated serving run, with the given
/// registry attached to both the engine and the driver.
fn timed_sim_run(arr: &[(u64, bm_model::RequestInput)], tel: &Arc<Telemetry>) -> f64 {
    let mut server = CellularServer::paper_scale(paper_lstm()).with_telemetry(tel);
    let t0 = Instant::now();
    let out = simulate(
        &mut server,
        arr,
        SimOptions::new()
            .workers(2)
            .serve_config(ServeConfig::new().telemetry(Arc::clone(tel))),
    );
    let dt = t0.elapsed().as_secs_f64();
    assert!(!out.saturated, "overhead run must not saturate");
    dt
}

/// Wall-clock seconds of one threaded serving run: every request
/// submitted up front, timed to the last completion. Real kernel work
/// dominates here, so this is the serving-throughput overhead the
/// acceptance bound constrains. One shard: on a small host, extra
/// shard threads time-share cores and the OS interleaving changes
/// which batches form, which would vary the measured work itself.
fn timed_serve_run(ds: &Dataset, tel: &Arc<Telemetry>) -> f64 {
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let rt = Runtime::start(
        model,
        RuntimeOptions::new().serve_config(ServeConfig::new().shards(1).telemetry(Arc::clone(tel))),
    );
    let t0 = Instant::now();
    let handles: Vec<_> = ds
        .items()
        .iter()
        .map(|i| rt.submit_request(i).expect("submit"))
        .collect();
    for h in handles {
        let _ = h.wait().completed();
    }
    let dt = t0.elapsed().as_secs_f64();
    rt.shutdown();
    dt
}

/// Interleaved disabled-vs-enabled timing of one run flavor.
///
/// Scheduler preemption and cache pollution on a shared host only ever
/// *add* time, so the per-arm minimum over many interleaved reps
/// (alternating inner order, so neither arm systematically rides the
/// other's cache shadow) is the standard noise-robust cost estimator;
/// the gap between minima is the telemetry cost itself.
fn paired_overhead(reps: usize, mut run: impl FnMut(&Arc<Telemetry>) -> f64) -> (f64, f64, f64) {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let _ = run(&Telemetry::disabled()); // untimed warm-up
    for i in 0..reps {
        if i % 2 == 0 {
            off.push(run(&Telemetry::disabled()));
            on.push(run(&Telemetry::new()));
        } else {
            on.push(run(&Telemetry::new()));
            off.push(run(&Telemetry::disabled()));
        }
    }
    let (off_s, on_s) = (minimum(&off), minimum(&on));
    (off_s, on_s, (on_s - off_s) / off_s * 100.0)
}

fn minimum(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

struct Overhead {
    serve_off_s: f64,
    serve_on_s: f64,
    serve_pct: f64,
    sim_off_s: f64,
    sim_on_s: f64,
    sim_pct: f64,
}

/// Part 1: serving-throughput overhead (threaded runtime, primary) and
/// scheduler-only overhead (simulator, worst case — the simulator does
/// no real compute, so per-request work is a few microseconds and the
/// metric atomics are maximally visible).
fn measure_overhead(scale: Scale) -> Overhead {
    let (n_serve, n_sim, reps) = match scale {
        Scale::Quick => (120, 800, 3),
        Scale::Full => (900, 8000, 25),
    };
    let ds = Dataset::lstm(n_serve, LengthDistribution::wmt15_clipped(24), 900, 0x0f5e);
    let (serve_off_s, serve_on_s, serve_pct) =
        paired_overhead(reps, |tel| timed_serve_run(&ds, tel));

    let sim_ds = Dataset::lstm(n_sim, LengthDistribution::wmt15_clipped(30), 900, 0x57a7);
    let arr = arrivals(&sim_ds, 4_000.0, n_sim, 0x57a7);
    let (sim_off_s, sim_on_s, sim_pct) = paired_overhead(reps, |tel| timed_sim_run(&arr, tel));

    Overhead {
        serve_off_s,
        serve_on_s,
        serve_pct,
        sim_off_s,
        sim_on_s,
        sim_pct,
    }
}

/// Sum of the exact `sum` fields of the four tiling-stage histograms
/// (excludes `scatter_resolve`, which happens after `completion_us`).
fn tiling_stage_sum(snap: &Snapshot) -> u64 {
    snap.entries
        .iter()
        .filter(|e| {
            e.name == "bm_stage_us"
                && e.labels
                    .iter()
                    .any(|(k, v)| k == "stage" && STAGE_NAMES.contains(&v.as_str()))
        })
        .fold(0u64, |acc, e| match &e.value {
            MetricValue::Histogram(h) => acc.wrapping_add(h.sum),
            _ => acc,
        })
}

/// Sum of every gauge entry named `name` (one per shard in a runtime
/// rollup).
fn gauge(snap: &Snapshot, name: &str) -> i64 {
    snap.entries
        .iter()
        .filter(|e| e.name == name)
        .map(|e| match &e.value {
            MetricValue::Gauge(g) => *g,
            _ => 0,
        })
        .sum()
}

struct LiveRun {
    snapshot: Snapshot,
    scrapes: u64,
    completed: usize,
    e2e_sum_us: u64,
    stage_sum_us: u64,
    wall_s: f64,
    sampled_out: u64,
    ring_events: usize,
    ring_dropped: u64,
    busy: Vec<(String, u64)>,
}

/// Parts 2 and 3: the live threaded run with scraper + sampling sink,
/// and the exact stage-sum reconciliation.
fn live_run(scale: Scale) -> LiveRun {
    let n = match scale {
        Scale::Quick => 160,
        Scale::Full => 1200,
    };
    let tel = Telemetry::new();
    let ring = Arc::new(
        RingBufferSink::new(RING_CAPACITY)
            .with_drop_counter(tel.counter("bm_trace_events_dropped_total")),
    );
    let sampler = Arc::new(SamplingSink::new(ring.clone(), SAMPLE_RATE));

    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let rt = Arc::new(Runtime::start(
        Arc::clone(&model),
        RuntimeOptions::new().serve_config(
            ServeConfig::new()
                .telemetry(Arc::clone(&tel))
                .trace(sampler.clone() as Arc<dyn TraceSink>),
        ),
    ));

    // The runtime records per shard; the ring's drop counter lives in
    // `tel`. One view of both.
    let source = {
        let (rt, tel) = (Arc::clone(&rt), Arc::clone(&tel));
        move || Snapshot::merge([rt.snapshot(), tel.snapshot()])
    };
    let scrape_count = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sc = Arc::clone(&scrape_count);
    let scraper = Scraper::start_with(source, Duration::from_millis(25), move |snap: &Snapshot| {
        sc.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        eprintln!(
            "live: completed={} active={} inflight_tasks={} batches={}",
            snap.counter_sum("bm_requests_completed_total"),
            gauge(snap, "bm_active_requests"),
            gauge(snap, "bm_inflight_tasks"),
            snap.counter_sum("bm_batch_reason_total"),
        );
    });

    let ds = Dataset::lstm(n, LengthDistribution::wmt15_clipped(24), 900, 0x11fe);
    let t0 = Instant::now();
    // Submit in waves with a short pause so the scraper observes the
    // run in flight rather than only its end state.
    let mut handles = Vec::with_capacity(n);
    for chunk in ds.items().chunks(64) {
        handles.extend(chunk.iter().map(|i| rt.submit_request(i).expect("submit")));
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut e2e_sum_us = 0u64;
    let mut completed = 0usize;
    for h in handles {
        let served = h.wait().completed();
        e2e_sum_us += served.timing.completion_us - served.timing.arrival_us;
        completed += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // Every handle has resolved, so the final scrape is complete; the
    // runtime shuts down when the scraper drops the last reference.
    let snapshot = scraper.stop();
    drop(rt);

    // Part 3: the stage decomposition must telescope exactly.
    let stage_sum_us = tiling_stage_sum(&snapshot);
    assert_eq!(
        stage_sum_us, e2e_sum_us,
        "stage histogram sums must reconcile with end-to-end latencies"
    );
    assert_eq!(
        snapshot.counter_sum("bm_requests_completed_total"),
        completed as u64,
        "completion counter must match resolved handles"
    );
    assert_eq!(gauge(&snapshot, "bm_active_requests"), 0);
    assert_eq!(gauge(&snapshot, "bm_inflight_tasks"), 0);

    let busy = snapshot
        .entries
        .iter()
        .filter(|e| e.name == "bm_worker_busy_us_total")
        .map(|e| {
            let w = e
                .labels
                .iter()
                .find(|(k, _)| k == "shard")
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            let v = match &e.value {
                MetricValue::Counter(c) => *c,
                _ => 0,
            };
            (w, v)
        })
        .collect();
    LiveRun {
        scrapes: scrape_count.load(std::sync::atomic::Ordering::Relaxed),
        completed,
        e2e_sum_us,
        stage_sum_us,
        wall_s,
        sampled_out: sampler.sampled_out(),
        ring_events: ring.events().len(),
        ring_dropped: ring.dropped(),
        busy,
        snapshot,
    }
}

/// Renders `BENCH_telemetry.json` (schema `bm-telemetry-bench/v1`).
fn to_json(ov: &Overhead, live: &LiveRun) -> String {
    let mut s = String::from("{\n  \"schema\": \"bm-telemetry-bench/v1\",\n");
    s.push_str(&format!(
        "  \"overhead\": {{\"disabled_s\": {:.4}, \"enabled_s\": {:.4}, \"overhead_pct\": {:.2}, \
         \"sim_disabled_s\": {:.4}, \"sim_enabled_s\": {:.4}, \"sim_overhead_pct\": {:.2}}},\n",
        ov.serve_off_s, ov.serve_on_s, ov.serve_pct, ov.sim_off_s, ov.sim_on_s, ov.sim_pct
    ));
    s.push_str(&format!(
        "  \"reconciliation\": {{\"stage_sum_us\": {}, \"e2e_sum_us\": {}, \"exact\": {}}},\n",
        live.stage_sum_us,
        live.e2e_sum_us,
        live.stage_sum_us == live.e2e_sum_us
    ));
    s.push_str(&format!(
        "  \"live\": {{\"completed\": {}, \"scrapes\": {}, \"sampled_out_events\": {}, \"ring_events\": {}, \"ring_dropped\": {}}},\n",
        live.completed, live.scrapes, live.sampled_out, live.ring_events, live.ring_dropped
    ));
    s.push_str(&format!(
        "  \"snapshot\": {}\n}}\n",
        live.snapshot.to_json()
    ));
    s
}

/// Runs the experiment, writing `BENCH_telemetry.json` and
/// `telemetry.prom` into `out_dir`.
///
/// # Panics
///
/// Panics if the stage decomposition fails to reconcile exactly, the
/// snapshot does not round-trip through JSON, or an overhead run
/// saturates.
pub fn run(scale: Scale, out_dir: &Path) -> Vec<Table> {
    let ov = measure_overhead(scale);
    let live = live_run(scale);

    // Part 4: strict JSON round-trip, then Prometheus exposition.
    let json = live.snapshot.to_json();
    let reparsed = Snapshot::from_json(&json).expect("snapshot JSON must reparse");
    assert_eq!(reparsed, live.snapshot, "snapshot must round-trip exactly");
    let prom = live.snapshot.to_prometheus();

    std::fs::create_dir_all(out_dir).expect("create results dir");
    let json_path = out_dir.join("BENCH_telemetry.json");
    std::fs::write(&json_path, to_json(&ov, &live)).expect("write BENCH_telemetry.json");
    eprintln!("wrote {}", json_path.display());
    let prom_path = out_dir.join("telemetry.prom");
    std::fs::write(&prom_path, &prom).expect("write telemetry.prom");
    eprintln!("wrote {}", prom_path.display());

    let mut t = Table::new("Telemetry overhead", &["metric", "value"]);
    let row = |t: &mut Table, m: &str, v: String| t.push_row(vec![m.to_string(), v]);
    row(
        &mut t,
        "serve_disabled_min_s",
        format!("{:.4}", ov.serve_off_s),
    );
    row(
        &mut t,
        "serve_enabled_min_s",
        format!("{:.4}", ov.serve_on_s),
    );
    row(&mut t, "serve_overhead_pct", format!("{:.2}", ov.serve_pct));
    row(&mut t, "sim_disabled_min_s", format!("{:.4}", ov.sim_off_s));
    row(&mut t, "sim_enabled_min_s", format!("{:.4}", ov.sim_on_s));
    row(
        &mut t,
        "sim_overhead_pct (scheduler only, worst case)",
        format!("{:.2}", ov.sim_pct),
    );

    let mut l = Table::new("Live threaded run", &["metric", "value"]);
    row(&mut l, "requests_completed", live.completed.to_string());
    row(&mut l, "scraper_ticks", live.scrapes.to_string());
    row(&mut l, "stage_sum_us", live.stage_sum_us.to_string());
    row(&mut l, "e2e_latency_sum_us", live.e2e_sum_us.to_string());
    row(&mut l, "reconciled_exactly", "yes".to_string());
    row(&mut l, "sampled_out_events", live.sampled_out.to_string());
    row(&mut l, "ring_events_kept", live.ring_events.to_string());
    row(&mut l, "ring_events_dropped", live.ring_dropped.to_string());
    for (w, busy_us) in &live.busy {
        let util = *busy_us as f64 / 1e6 / live.wall_s * 100.0;
        row(
            &mut l,
            &format!("shard_{w}_utilization_pct"),
            format!("{util:.1}"),
        );
    }
    vec![t, l]
}
