//! `repro serve`: the full socket serving path, measured end to end.
//!
//! Everything the other experiments drive in-process or in virtual time
//! runs here over a real loopback TCP connection: wire encode →
//! event-loop ingest → shard threads (schedule, execute, resolve) →
//! completion-pump write-back → wire decode. Two measurements:
//!
//! 1. **Shard scaling** — a closed-loop, deeply pipelined load drives
//!    the front door with 1 scheduler shard (one thread) and again
//!    with N. On a multi-core host the N-shard configuration must win;
//!    the JSON records `cores` so single-core CI doesn't assert an
//!    impossibility.
//! 2. **SLA sweep over the socket** — the paper's open-loop Poisson
//!    methodology ([`bm_workload::Pacer`] replays the virtual-µs
//!    schedule in wall time), reporting client-observed latency
//!    percentiles per offered rate — the numbers a network client would
//!    see, including wire and ingest overhead.
//!
//! Artifacts: `BENCH_serve.json` (schema `bm-serve/v1`) and the
//! standard markdown/CSV tables. The smoke run (`--smoke`) is the CI
//! gate: 2 shards, 5 000 closed-loop requests, JSON sanity-checked.

use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bm_core::{Request, RuntimeOptions, ServeConfig};
use bm_metrics::{LatencyRecorder, RequestTiming, Table};
use bm_model::{LstmLm, Model, RequestInput};
use bm_net::{wire, NetClient, NetResponse, NetServer, NetServerOptions};
use bm_workload::{Dataset, LengthDistribution, Pacer, PoissonArrivals};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::experiments::Scale;

/// Closed-loop pipelining window per connection: deep enough to keep
/// every shard busy, well under the runtime's queue capacity.
const WINDOW: usize = 64;

/// Client connections for the closed-loop throughput runs.
const CONNS: usize = 4;

fn model() -> Arc<dyn Model> {
    Arc::new(LstmLm::small())
}

/// Short-sequence dataset: per-request compute is a few cells, so the
/// control plane (ingest, scheduler, dispatch) is the measured system.
fn dataset(n: usize) -> Dataset {
    Dataset::lstm(n, LengthDistribution::Fixed(3), 900, 0x5e7e)
}

/// Front-door options for a `shards`-shard server.
fn server_options(shards: usize, telemetry: bool) -> NetServerOptions {
    let mut serve = ServeConfig::new().shards(shards);
    if telemetry {
        serve = serve.telemetry(bm_telemetry::Telemetry::new());
    }
    NetServerOptions::new()
        .max_inflight(2 * WINDOW)
        .runtime(RuntimeOptions::new().serve_config(serve))
}

/// One closed-loop throughput measurement.
struct ThroughputPoint {
    shards: usize,
    completed: usize,
    wall_s: f64,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Snapshot entry count and per-shard completion counters, when
    /// telemetry was on.
    shard_completions: Vec<(String, u64)>,
}

/// Drives `total` requests through [`CONNS`] connections, each keeping
/// [`WINDOW`] requests in flight (send-one-per-receive after the
/// initial burst). Returns the aggregate completion rate.
fn closed_loop(shards: usize, total: usize, telemetry: bool) -> ThroughputPoint {
    let server = NetServer::bind(model(), server_options(shards, telemetry), "127.0.0.1:0")
        .expect("bind loopback");
    let addr = server.local_addr();
    let ds = dataset(256);
    let per_conn = total / CONNS;

    let t0 = Instant::now();
    let threads: Vec<_> = (0..CONNS)
        .map(|c| {
            let items: Vec<RequestInput> = {
                let mut rng = StdRng::seed_from_u64(0x10ad ^ c as u64);
                (0..per_conn).map(|_| ds.sample(&mut rng).clone()).collect()
            };
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let mut latencies_us: Vec<u64> = Vec::with_capacity(per_conn);
                let mut sent_at: std::collections::HashMap<u32, Instant> = Default::default();
                let mut completed = 0usize;
                let mut next = 0usize;
                // Prime the window, then lock-step send-per-receive.
                while next < items.len().min(WINDOW) {
                    let corr = client.send(&Request::from(&items[next])).expect("send");
                    sent_at.insert(corr, Instant::now());
                    next += 1;
                }
                while completed < items.len() {
                    let (corr, resp) = client.recv().expect("recv");
                    let t_sent = sent_at.remove(&corr).expect("known corr");
                    match resp {
                        NetResponse::Completed { .. } => {
                            latencies_us.push(t_sent.elapsed().as_micros() as u64);
                            completed += 1;
                        }
                        other => panic!("closed-loop request failed: {other:?}"),
                    }
                    if next < items.len() {
                        let corr = client.send(&Request::from(&items[next])).expect("send");
                        sent_at.insert(corr, Instant::now());
                        next += 1;
                    }
                }
                latencies_us
            })
        })
        .collect();

    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    for t in threads {
        latencies.extend(t.join().expect("client thread"));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let completed = latencies.len();

    let snapshot = server.snapshot();
    let shard_completions: Vec<(String, u64)> = snapshot
        .entries
        .iter()
        .filter(|e| e.name == "bm_requests_completed_total")
        .map(|e| {
            let shard = e
                .labels
                .iter()
                .find(|(k, _)| k == "shard")
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            let v = match &e.value {
                bm_telemetry::MetricValue::Counter(c) => *c,
                _ => 0,
            };
            (shard, v)
        })
        .collect();

    let stats = server.stats();
    assert_eq!(stats.submitted, total as u64, "every request admitted");
    assert_eq!(stats.completed, total as u64, "every request completed");
    assert_eq!(stats.protocol_errors, 0);
    server.shutdown();

    latencies.sort_unstable();
    let pct = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize] as f64 / 1e3;
    ThroughputPoint {
        shards,
        completed,
        wall_s,
        rps: completed as f64 / wall_s,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        shard_completions,
    }
}

/// One open-loop sweep point's client-side outcome.
struct SweepPoint {
    offered_rps: f64,
    completed: usize,
    max_lateness_us: u64,
    summary: bm_metrics::Summary,
}

/// Replays a Poisson schedule at `rate` req/s over `CONNS` sockets in
/// wall-clock time and records client-observed latency.
///
/// Each connection gets an interleaved slice of the schedule, one
/// sender thread pacing submissions ([`Pacer`]) and one receiver thread
/// stamping completions — open-loop, so a slow server shows up as
/// latency, not as reduced offered load. Latency is measured from the
/// *scheduled* arrival (coordinated-omission-free).
fn open_loop_point(shards: usize, rate: f64, n: usize) -> SweepPoint {
    let server = NetServer::bind(model(), server_options(shards, false), "127.0.0.1:0")
        .expect("bind loopback");
    let addr = server.local_addr();
    let ds = dataset(256);
    let mut rng = StdRng::seed_from_u64(0x0a11 ^ rate as u64);
    let schedule: Vec<(u64, RequestInput)> = PoissonArrivals::new(rate, 0x5eed ^ rate as u64)
        .take(n)
        .map(|t| (t, ds.sample(&mut rng).clone()))
        .collect();

    let pacer = Pacer::new();
    let max_lateness = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();
    let mut recv_threads = Vec::new();
    for c in 0..CONNS {
        // Interleaved slices preserve each connection's arrival order.
        let slice: Vec<(u32, u64, RequestInput)> = schedule
            .iter()
            .enumerate()
            .filter(|(i, _)| i % CONNS == c)
            .map(|(i, (at, input))| (i as u32, *at, input.clone()))
            .collect();
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = stream.try_clone().expect("clone socket");
        let expect = slice.len();

        // Receiver: stamp each response against the pacer clock.
        let rx_pacer = pacer;
        recv_threads.push(std::thread::spawn(move || {
            use std::io::Read;
            let mut reader = reader;
            let mut buf = Vec::new();
            let mut chunk = [0u8; 16 * 1024];
            let mut out: Vec<(u32, u64, NetResponse)> = Vec::with_capacity(expect);
            while out.len() < expect {
                if let Some((frame, consumed)) =
                    wire::decode_frame(&buf).expect("well-formed response stream")
                {
                    buf.drain(..consumed);
                    let wire::Message::Response(resp) = frame.message else {
                        panic!("server sent a submit frame");
                    };
                    out.push((frame.correlation, rx_pacer.elapsed_us(), resp));
                    continue;
                }
                let got = reader.read(&mut chunk).expect("read");
                assert!(got > 0, "server closed mid-sweep");
                buf.extend_from_slice(&chunk[..got]);
            }
            out
        }));

        // Sender: pace submissions to the schedule.
        let tx_pacer = pacer;
        let late = Arc::clone(&max_lateness);
        threads.push(std::thread::spawn(move || {
            let mut stream = stream;
            let mut buf = Vec::with_capacity(1024);
            for (corr, at_us, input) in slice {
                let lateness = tx_pacer.wait_until(at_us);
                late.fetch_max(lateness, Ordering::Relaxed);
                buf.clear();
                wire::encode_submit(&mut buf, corr, &Request::from(&input));
                stream.write_all(&buf).expect("send");
            }
        }));
    }
    for t in threads {
        t.join().expect("sender");
    }
    let mut recorder = LatencyRecorder::new();
    let mut completed = 0usize;
    for t in recv_threads {
        for (corr, recv_us, resp) in t.join().expect("receiver") {
            let scheduled_us = schedule[corr as usize].0;
            let NetResponse::Completed { timing, .. } = resp else {
                panic!("open-loop request failed: {resp:?}");
            };
            completed += 1;
            // Client clock for arrival/completion; the server's own
            // queueing delay positions start_us within that span.
            let queue_us = timing.start_us.saturating_sub(timing.arrival_us);
            let completion = recv_us.max(scheduled_us);
            recorder.record(RequestTiming {
                arrival_us: scheduled_us,
                start_us: (scheduled_us + queue_us).min(completion),
                completion_us: completion,
            });
        }
    }
    server.shutdown();
    SweepPoint {
        offered_rps: rate,
        completed,
        max_lateness_us: max_lateness.load(Ordering::Relaxed),
        summary: recorder.summary(),
    }
}

fn to_json(
    cores: usize,
    shard_counts: (usize, usize),
    points: &[ThroughputPoint],
    sweep: &[SweepPoint],
) -> String {
    let best = |shards: usize| {
        points
            .iter()
            .filter(|p| p.shards == shards)
            .map(|p| p.rps)
            .fold(0.0f64, f64::max)
    };
    let (one, many) = (best(shard_counts.0), best(shard_counts.1));
    let mut s = String::from("{\n  \"schema\": \"bm-serve/v1\",\n");
    s.push_str(&format!("  \"cores\": {cores},\n"));
    s.push_str(&format!(
        "  \"shard_scaling\": {{\"shards_single\": {}, \"shards_multi\": {}, \
         \"rps_single\": {:.1}, \"rps_multi\": {:.1}, \"speedup\": {:.3}, \
         \"multi_wins\": {}, \"multi_core\": {}}},\n",
        shard_counts.0,
        shard_counts.1,
        one,
        many,
        many / one,
        many > one,
        cores > 1
    ));
    s.push_str("  \"throughput_points\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"shards\": {}, \"completed\": {}, \"wall_s\": {:.3}, \"rps\": {:.1}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
            p.shards,
            p.completed,
            p.wall_s,
            p.rps,
            p.p50_ms,
            p.p99_ms,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"sla_sweep\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"offered_rps\": {:.0}, \"completed\": {}, \"throughput_rps\": {:.1}, \
             \"p50_ms\": {:.3}, \"p90_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_lateness_us\": {}}}{}\n",
            p.offered_rps,
            p.completed,
            p.summary.throughput_rps,
            p.summary.p50_ms,
            p.summary.p90_ms,
            p.summary.p99_ms,
            p.max_lateness_us,
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Runs the socket serving benchmark, writing `BENCH_serve.json`.
///
/// # Panics
///
/// Panics if any request fails, any response is lost, or the smoke
/// sanity gates (all submitted == all completed, no protocol errors)
/// fail — CI runs this with `--smoke`.
pub fn run(scale: Scale, out_dir: &Path) -> Vec<Table> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let multi_shards = 2.max(cores / 2).min(4);
    let (total, reps) = match scale {
        Scale::Quick => (5_000, 1),
        Scale::Full => (20_000, 2),
    };

    // Part 1: shard scaling, interleaved reps so OS noise hits both
    // arms equally. The smoke run's N-shard arm doubles as the
    // telemetry-rollup check.
    let mut points = Vec::new();
    for rep in 0..reps.max(1) {
        let telemetry = rep == 0;
        points.push(closed_loop(1, total, telemetry));
        points.push(closed_loop(multi_shards, total, telemetry));
    }
    for p in &points {
        assert_eq!(p.completed, total, "lost responses at {} shards", p.shards);
    }
    // The per-shard rollup must actually be per-shard: the multi-shard
    // telemetry run's merged snapshot carries one completion counter
    // per shard, summing to the request total.
    let multi_tel = points
        .iter()
        .find(|p| p.shards == multi_shards && !p.shard_completions.is_empty())
        .expect("telemetry-enabled multi-shard run");
    assert_eq!(multi_tel.shard_completions.len(), multi_shards);
    let rollup_sum: u64 = multi_tel.shard_completions.iter().map(|(_, v)| v).sum();
    assert_eq!(rollup_sum, total as u64, "per-shard counters must roll up");

    // Part 2: the SLA sweep over the socket, N-shard configuration.
    let full_rates = [500.0, 1_000.0, 2_000.0, 4_000.0];
    let rates = scale.rates(&full_rates);
    let sweep: Vec<SweepPoint> = rates
        .iter()
        .map(|&rate| {
            let n = ((rate * scale.duration_s()) as usize).clamp(200, scale.max_requests());
            open_loop_point(multi_shards, rate, n)
        })
        .collect();
    for p in &sweep {
        assert_eq!(p.completed, p.summary.count, "sweep point lost requests");
    }

    std::fs::create_dir_all(out_dir).expect("create results dir");
    let json = to_json(cores, (1, multi_shards), &points, &sweep);
    let json_path = out_dir.join("BENCH_serve.json");
    std::fs::write(&json_path, &json).expect("write BENCH_serve.json");
    eprintln!("wrote {}", json_path.display());

    let mut t = Table::new(
        "Socket throughput: 1 vs N scheduler shards (closed loop)",
        &["shards", "completed", "wall_s", "rps", "p50_ms", "p99_ms"],
    );
    for p in &points {
        t.push_row(vec![
            p.shards.to_string(),
            p.completed.to_string(),
            format!("{:.3}", p.wall_s),
            format!("{:.0}", p.rps),
            format!("{:.3}", p.p50_ms),
            format!("{:.3}", p.p99_ms),
        ]);
    }

    let mut s = Table::new(
        "SLA sweep over the socket (open loop, client-observed)",
        &[
            "offered_rps",
            "throughput_rps",
            "p50_ms",
            "p90_ms",
            "p99_ms",
            "max_lateness_us",
        ],
    );
    for p in &sweep {
        s.push_row(vec![
            format!("{:.0}", p.offered_rps),
            format!("{:.0}", p.summary.throughput_rps),
            format!("{:.1}", p.summary.p50_ms),
            format!("{:.1}", p.summary.p90_ms),
            format!("{:.1}", p.summary.p99_ms),
            p.max_lateness_us.to_string(),
        ]);
    }
    vec![t, s]
}
