//! The traced run: live decomposition, isolated layer probes, budget.
//!
//! 1. *Live decomposition* — an untraced reference `high` phase on a
//!    default server, then `mid` and `high` phases against a server with
//!    a live telemetry registry while the client keeps per-request
//!    timestamps; counters come from `NetServer::stats()` and
//!    `NetServer::snapshot()`. The mid-rate stream is then replayed
//!    in-process through `submit_request` → `wait` (no socket), checking
//!    each final hidden state bit-for-bit.
//! 2. *Isolated layer probes* ([`crate::layers`]).
//! 3. *Budget* — per-request counts × isolated costs against the traced
//!    `high` phase's server CPU per request.
//!
//! Everything is measured from outside: the spans wrap calls into the
//! layers' public functions and the server's own `ServedTiming`.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bm_core::{ResponseHandle, ServedOutcome};
use bm_model::Model;
use bm_net::NetServer;
use bm_telemetry::{MetricValue, Snapshot};
use bm_workload::Pacer;

use crate::host;
use crate::layers::{self, CellCosts, Prober};
use crate::loadgen::{self, Counts, OpenLoop, Stream};
use crate::result::{RunRecord, PER_LAYER};
use crate::run::{generator_too_late, latency_ms, new_record, note_phase, start_server, Prepared};
use crate::stats::percentile;
use crate::trace::{self, Trace, NONE};
use crate::workloads::{Expected, Workload};

/// Requests per traced phase whose spans go into the trace file (every
/// request is timestamped; the file keeps the first few).
const TRACED_REQUESTS: usize = 256;

/// Shortest probe batch, so tiny `--seconds` still time something.
const MIN_PROBE_BATCH: Duration = Duration::from_millis(5);

/// How `--seconds` splits over a traced run.
struct Plan {
    /// Closed-loop warm-up of each of the two servers.
    warmup: Duration,
    /// Each open-loop phase: reference high, traced mid, traced high.
    phase: Duration,
    /// In-process replay.
    inproc: Duration,
    /// All isolated probes together.
    probes: Duration,
}

impl Plan {
    /// The phase lengths in words, for the report.
    fn describe(&self) -> String {
        format!(
            "2 servers, warm-up {:.3} s each; high untraced, mid traced, high traced {:.3} s each; \
             in-process replay {:.3} s; probes {:.3} s",
            self.warmup.as_secs_f64(),
            self.phase.as_secs_f64(),
            self.inproc.as_secs_f64(),
            self.probes.as_secs_f64()
        )
    }

    /// 2 × 1/24 warm-up, 3 × 1/6 phases, 1/12 replay, 1/3 probes.
    fn of(seconds: f64) -> Plan {
        let part = |share: f64| Duration::from_secs_f64(seconds * share);
        Plan {
            warmup: part(1.0 / 24.0),
            phase: part(1.0 / 6.0),
            inproc: part(1.0 / 12.0),
            probes: part(1.0 / 3.0),
        }
    }
}

/// Sum of every counter named `name`, or `None` if there is none.
fn counter_total(s: &Snapshot, name: &str) -> Option<u64> {
    let mut total = None;
    for e in s.entries.iter().filter(|e| e.name == name) {
        if let MetricValue::Counter(v) = e.value {
            *total.get_or_insert(0) += v;
        }
    }
    total
}

/// `(count, sum)` over every histogram named `name` carrying `label`
/// (any labels when `None`), or `None` if there is none.
fn hist_total(s: &Snapshot, name: &str, label: Option<(&str, &str)>) -> Option<(u64, u64)> {
    let mut total = None;
    for e in s.entries.iter().filter(|e| e.name == name) {
        let labelled =
            label.is_none_or(|(k, v)| e.labels.iter().any(|(lk, lv)| lk == k && lv == v));
        if let (true, MetricValue::Histogram(h)) = (labelled, &e.value) {
            let t = total.get_or_insert((0, 0));
            t.0 += h.count;
            t.1 += h.sum;
        }
    }
    total
}

/// Telemetry accumulated between two snapshots of one server.
struct Window<'a> {
    from: &'a Snapshot,
    to: &'a Snapshot,
}

impl Window<'_> {
    /// Counter growth; `None` if the name does not exist (any more).
    fn counter(&self, name: &str) -> Option<f64> {
        let to = counter_total(self.to, name)?;
        Some(to.saturating_sub(counter_total(self.from, name).unwrap_or(0)) as f64)
    }

    /// Mean of the samples a histogram took; `None` if the name does
    /// not exist or took no sample.
    fn hist_mean(&self, name: &str, label: Option<(&str, &str)>) -> Option<f64> {
        let (c1, s1) = hist_total(self.to, name, label)?;
        let (c0, s0) = hist_total(self.from, name, label).unwrap_or((0, 0));
        (c1 > c0).then(|| (s1 - s0) as f64 / (c1 - c0) as f64)
    }
}

/// Adds the spans of the first [`TRACED_REQUESTS`] requests of a traced
/// phase under `parent`. `theta_ns` maps the server's clock onto the
/// trace's: `trace_ns = server_us * 1000 + theta_ns`.
fn request_spans(
    trace: &mut Trace,
    parent: u64,
    phase: &OpenLoop,
    schedule: &[u64],
    theta_ns: i64,
    id_base: u64,
) {
    let origin = trace.ns_of(phase.started);
    for (i, st) in phase.stamps.iter().take(TRACED_REQUESTS).enumerate() {
        let Some(served) = st.served else {
            continue; // unanswered: counted in fail_share, nothing to draw
        };
        let rid = id_base + i as u64;
        let at = |ns: u64| origin + ns;
        let due = at(schedule[i] * 1000);
        let req = trace.push("client.request", due, at(st.decode_end), parent, rid);
        trace.push("client.late", due, at(st.encode_start), req, rid);
        trace.push(
            "client.encode",
            at(st.encode_start),
            at(st.write_start),
            req,
            rid,
        );
        trace.push(
            "client.write",
            at(st.write_start),
            at(st.write_end),
            req,
            rid,
        );
        let wait = trace.push(
            "client.wait",
            at(st.write_end),
            at(st.decode_start),
            req,
            rid,
        );
        let server = |us: u64| (us as i64 * 1000 + theta_ns).max(0) as u64;
        trace.push(
            "server.queue",
            server(served.arrival_us),
            server(served.start_us),
            wait,
            rid,
        );
        trace.push(
            "server.service",
            server(served.start_us),
            server(served.completion_us),
            wait,
            rid,
        );
        trace.push(
            "client.decode",
            at(st.decode_start),
            at(st.decode_end),
            req,
            rid,
        );
    }
}

/// Percentiles of per-request server and overhead times of a traced
/// phase, µs.
struct Decomposition {
    queue_wait: [f64; 2],
    service: [f64; 2],
    overhead: [f64; 2],
}

fn decompose(phase: &OpenLoop) -> Decomposition {
    let (mut queue, mut service, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for st in &phase.stamps {
        let Some(t) = st.served else { continue };
        queue.push(t.start_us.saturating_sub(t.arrival_us) as f64);
        service.push(t.completion_us.saturating_sub(t.start_us) as f64);
        let client_us = st.decode_end.saturating_sub(st.encode_start) as f64 / 1e3;
        let server_us = t.completion_us.saturating_sub(t.arrival_us) as f64;
        overhead.push((client_us - server_us).max(0.0));
    }
    let pair = |v: &[f64]| {
        if v.is_empty() {
            [0.0, 0.0]
        } else {
            [percentile(v, 0.5), percentile(v, 0.9)]
        }
    };
    Decomposition {
        queue_wait: pair(&queue),
        service: pair(&service),
        overhead: pair(&overhead),
    }
}

/// Outcome of the in-process replay.
struct Inproc {
    counts: Counts,
    /// Scheduled time → `wait()` return, µs, per verified request.
    latency_us: Vec<f64>,
    /// Duration of each `submit_request` call, ns.
    submit_ns: Vec<f64>,
}

/// Whether a served result equals the oracle: node count, tokens, and
/// the final hidden state bit for bit.
fn matches_oracle(outcome: &ServedOutcome, want: &Expected) -> Option<bool> {
    let ServedOutcome::Completed(res) = outcome else {
        return None;
    };
    let r = &res.result;
    let tokens: Vec<Option<u32>> = r
        .outputs
        .iter()
        .map(|o| o.as_ref().and_then(|c| c.token))
        .collect();
    let h_equal = r.final_h().is_some_and(|h| {
        h.len() == want.final_h.len()
            && h.iter()
                .zip(&want.final_h)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    Some(r.executed_count() as u32 == want.executed && tokens == want.tokens && h_equal)
}

/// Replays `schedule` through `submit_request` → `wait()` on the
/// server's own runtime: a paced submitter thread and a waiter thread,
/// no socket.
fn inproc_replay(
    server: &NetServer,
    stream: &Stream,
    schedule: &[u64],
    trace: &mut Trace,
    parent: u64,
) -> Inproc {
    let runtime = server.runtime();
    let pacer = Pacer::new();
    let t0 = Instant::now();
    let origin = trace.ns_of(t0);
    let (tx, rx) = mpsc::channel::<(usize, ResponseHandle)>();
    let n = stream.requests.len();
    let (submits, (counts, latency_us, waits)) = std::thread::scope(|s| {
        let submitter = s.spawn(move || {
            // (start, end) of each submit call on the phase clock, ns;
            // end 0 marks a refused submission.
            let mut calls = Vec::with_capacity(schedule.len());
            for (i, &at_us) in schedule.iter().enumerate() {
                pacer.wait_until(at_us);
                let req = stream.requests[i % n].clone();
                let start = t0.elapsed().as_nanos() as u64;
                let handle = runtime.submit_request(req);
                let end = t0.elapsed().as_nanos() as u64;
                match handle {
                    Ok(h) => {
                        calls.push((start, end));
                        if tx.send((i, h)).is_err() {
                            break;
                        }
                    }
                    Err(_) => calls.push((start, 0)),
                }
            }
            calls
        });
        let waiter = s.spawn(move || {
            let mut counts = Counts::default();
            let mut latency_us = Vec::with_capacity(schedule.len());
            let mut waits = Vec::with_capacity(schedule.len());
            for (i, handle) in rx {
                let outcome = handle.wait();
                let done = t0.elapsed().as_nanos() as u64;
                waits.push((i, done));
                match matches_oracle(&outcome, &stream.expected[i % n]) {
                    Some(true) => {
                        counts.ok += 1;
                        latency_us.push(done.saturating_sub(schedule[i] * 1000) as f64 / 1e3);
                    }
                    Some(false) => counts.mismatched += 1,
                    None => {}
                }
            }
            (counts, latency_us, waits)
        });
        (
            submitter.join().expect("submitter thread"),
            waiter.join().expect("waiter thread"),
        )
    });
    for &(i, done) in waits.iter().take(TRACED_REQUESTS) {
        let (start, end) = submits[i];
        let rid = i as u64;
        let due = origin + schedule[i] * 1000;
        let req = trace.push("inproc.request", due, origin + done, parent, rid);
        trace.push("inproc.submit", origin + start, origin + end, req, rid);
        trace.push("inproc.wait", origin + end, origin + done, req, rid);
    }
    Inproc {
        counts: Counts {
            sent: submits.len() as u64,
            ..counts
        },
        latency_us,
        submit_ns: submits
            .iter()
            .filter(|c| c.1 > 0)
            .map(|c| (c.1 - c.0) as f64)
            .collect(),
    }
}

/// Mean nodes per request of each cell type, indexed by `CellTypeId`.
fn rows_per_request(model: &dyn Model, stream: &Stream) -> Vec<f64> {
    let types = model.registry().len();
    let mut rows = vec![0usize; types];
    for r in &stream.requests {
        for (t, c) in model
            .unfold(&r.input)
            .type_histogram(types)
            .into_iter()
            .enumerate()
        {
            rows[t] += c;
        }
    }
    rows.into_iter()
        .map(|c| c as f64 / stream.requests.len() as f64)
        .collect()
}

/// Server CPU per verified completion, µs.
fn cpu_us_per_req(cpu_ns: u64, phase: &OpenLoop) -> f64 {
    cpu_ns as f64 / 1e3 / phase.counts.ok.max(1) as f64
}

/// The traced run.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> RunRecord {
    loadgen::assert_fits_host();
    let plan = Plan::of(seconds);
    let p = Prepared::new(workload, seed);
    let stream = &p.stream;
    let mut trace = Trace::new();
    let mid_schedule = loadgen::schedule(workload.mid_rps, p.schedule_seed(1), plan.phase);
    let high_schedule = loadgen::schedule(workload.high_rps, p.schedule_seed(2), plan.phase);
    let replay_schedule = loadgen::schedule(workload.mid_rps, p.schedule_seed(3), plan.inproc);

    // Reference: the high phase with tracing and telemetry off.
    let server = start_server(workload.build_model(), false);
    let warm_ref = loadgen::closed_loop(server.local_addr(), stream, plan.warmup);
    let (high_ref, high_ref_cpu) = trace.time("phase.high_untraced", NONE, |_, _| {
        loadgen::with_server_cpu(|| {
            loadgen::open_loop(server.local_addr(), stream, &high_schedule, false)
        })
    });
    let ref_errors = server.stats().protocol_errors;
    server.shutdown();

    // Live decomposition against a server with telemetry on.
    let model = workload.build_model();
    let server = start_server(std::sync::Arc::clone(&model), true);
    let addr = server.local_addr();
    let mut rec = new_record(&p, &server, seconds, plan.describe(), true);
    note_phase(&mut rec, "warmup", warm_ref.counts);
    note_phase(&mut rec, "high_untraced", high_ref.counts);
    rec.mismatches += ref_errors;
    let theta_ns = trace.now_ns() as i64 - server.runtime().now_us() as i64 * 1000;

    let warm = loadgen::closed_loop(addr, stream, plan.warmup);
    note_phase(&mut rec, "warmup_traced", warm.counts);
    let snap_start = server.snapshot();

    let mid = trace.time("phase.mid", NONE, |trace, span| {
        let mid = loadgen::open_loop(addr, stream, &mid_schedule, true);
        request_spans(trace, span, &mid, &mid_schedule, theta_ns, 0);
        mid
    });
    note_phase(&mut rec, "mid", mid.counts);
    let snap_mid = server.snapshot();

    let high_started = Instant::now();
    let (high, high_cpu) = trace.time("phase.high", NONE, |trace, span| {
        let (high, cpu) =
            loadgen::with_server_cpu(|| loadgen::open_loop(addr, stream, &high_schedule, true));
        request_spans(trace, span, &high, &high_schedule, theta_ns, 1 << 32);
        (high, cpu)
    });
    let high_wall_us = high_started.elapsed().as_micros() as f64;
    note_phase(&mut rec, "high", high.counts);
    let snap_high = server.snapshot();

    let inproc = trace.time("phase.inproc", NONE, |trace, span| {
        inproc_replay(&server, stream, &replay_schedule, trace, span)
    });
    note_phase(&mut rec, "inproc", inproc.counts);
    let net = server.stats();
    rec.mismatches += net.protocol_errors;
    server.shutdown();

    // Isolated probes, with the servers gone.
    let cells: Vec<_> = model.registry().iter().cloned().collect();
    let rows = rows_per_request(model.as_ref(), stream);
    let nodes_per_req: f64 = rows.iter().sum();
    let measure_calls = 12
        + cells
            .iter()
            .map(|m| {
                if m.cell.resident_layout().is_some() {
                    10
                } else {
                    3
                }
            })
            .sum::<usize>();
    let batch = (plan.probes / (5 * measure_calls) as u32).max(MIN_PROBE_BATCH);
    let (wire, control, state, cell_costs, gemm) = trace.time("probes", NONE, |trace, span| {
        let mut prober = Prober::new(trace, span, batch);
        let wire = layers::probe_wire(&mut prober, stream);
        let control = layers::probe_control(&mut prober, model.as_ref(), stream);
        let state = layers::probe_state_plane(&mut prober, model.as_ref(), stream);
        let cell_costs: Vec<CellCosts> = cells
            .iter()
            .zip(&rows)
            .map(|(m, &r)| layers::probe_cell(&mut prober, &m.name, &m.cell, r.round() as usize))
            .collect();
        let hidden = cells
            .iter()
            .map(|m| m.cell.hidden_size())
            .max()
            .unwrap_or(1);
        let gemm = layers::probe_gemm(&mut prober, hidden);
        (wire, control, state, cell_costs, gemm)
    });

    // Live counters over the traced mid and high phases.
    let mid_window = Window {
        from: &snap_start,
        to: &snap_mid,
    };
    let w = Window {
        from: &snap_mid,
        to: &snap_high,
    };
    let per_req = |v: Option<f64>| v.map(|v| v / high.counts.ok.max(1) as f64);
    let batch_mean = |win: &Window<'_>| win.hist_mean("bm_batch_size", None);
    let stage = |name: &str| w.hist_mean("bm_stage_us", Some(("stage", name)));
    let tasks_per_req = per_req(w.counter("bm_tasks_submitted_total"));
    let gather_rows_per_req = per_req(w.counter("bm_gather_rows_total"));

    // Budget: per-request counts × isolated CPU costs, µs.
    let dominant = cell_costs
        .iter()
        .max_by(|a, b| a.flops_per_row.total_cmp(&b.flops_per_row))
        .expect("a model registers at least one cell");
    let net_us = (wire.decode_submit.cpu_ns + wire.encode_response.cpu_ns) / 1e3;
    let submit_ns = if inproc.submit_ns.is_empty() {
        0.0
    } else {
        percentile(&inproc.submit_ns, 0.5)
    };
    let runtime_us = submit_ns / 1e3;
    let engine_us = (control.on_request.cpu_ns
        + tasks_per_req.unwrap_or(0.0)
            * (control.dispatch_per_task.cpu_ns + control.complete_per_task.cpu_ns))
        / 1e3;
    let mut state_ns = state.alloc.cpu_ns
        + nodes_per_req * state.write.cpu_ns
        + gather_rows_per_req.unwrap_or(0.0) * state.read.cpu_ns;
    let mut cell_ns = 0.0;
    for ((m, costs), &r) in cells.iter().zip(&cell_costs).zip(&rows) {
        let mean_batch = w
            .hist_mean("bm_batch_size", Some(("cell", &m.name)))
            .unwrap_or(1.0);
        cell_ns += r * costs.step_cpu_ns(mean_batch);
        if let (Some(place), Some(remove)) = (costs.place, costs.remove) {
            // Resident rows are placed before every step and evicted
            // once per request and cell type it used.
            state_ns += r * place.cpu_ns + if r > 0.0 { remove.cpu_ns } else { 0.0 };
        }
    }
    let (state_us, cell_us) = (state_ns / 1e3, cell_ns / 1e3);
    let traced_cpu = cpu_us_per_req(high_cpu, &high);
    let explained_us = net_us + runtime_us + engine_us + state_us + cell_us;
    let residual_us = traced_cpu - explained_us;

    let d = decompose(&high);
    let p50 = |phase: &OpenLoop| latency_ms(std::slice::from_ref(phase), 0.5);
    let pct = |traced: f64, plain: f64| (traced / plain - 1.0) * 100.0;
    let resident = |f: &dyn Fn(&CellCosts) -> Option<f64>| f(dominant).unwrap_or(0.0);
    let inproc_pct = |q: f64| {
        if inproc.latency_us.is_empty() {
            0.0
        } else {
            percentile(&inproc.latency_us, q)
        }
    };

    let mut values: BTreeMap<&str, Option<f64>> = BTreeMap::new();
    let mut set = |name: &'static str, v: Option<f64>| {
        assert!(values.insert(name, v).is_none(), "{name} set twice");
    };
    set(
        "net.wire.encode_submit_ns",
        Some(wire.encode_submit.wall_ns),
    );
    set(
        "net.wire.decode_submit_ns",
        Some(wire.decode_submit.wall_ns),
    );
    set(
        "net.wire.encode_response_ns",
        Some(wire.encode_response.wall_ns),
    );
    set(
        "net.wire.decode_response_ns",
        Some(wire.decode_response.wall_ns),
    );
    set("net.wire.submit_bytes", Some(wire.submit_bytes));
    set("net.wire.response_bytes", Some(wire.response_bytes));
    set("net.server.overhead_p50_us", Some(d.overhead[0]));
    set("net.server.overhead_p90_us", Some(d.overhead[1]));
    set("net.server.frames_in", Some(net.frames_in as f64));
    set("net.server.completed", Some(net.completed as f64));
    set(
        "net.server.protocol_errors",
        Some(net.protocol_errors as f64),
    );
    set("core.runtime.submit_ns", Some(submit_ns));
    set("core.runtime.inproc_p50_us", Some(inproc_pct(0.5)));
    set("core.runtime.inproc_p90_us", Some(inproc_pct(0.9)));
    set("core.runtime.queue_wait_p50_us", Some(d.queue_wait[0]));
    set("core.runtime.queue_wait_p90_us", Some(d.queue_wait[1]));
    set("core.runtime.service_p50_us", Some(d.service[0]));
    set("core.runtime.service_p90_us", Some(d.service[1]));
    set(
        "core.runtime.wakeups_per_req",
        per_req(w.counter("bm_manager_wakeups_total")),
    );
    set(
        "core.runtime.drained_per_wakeup",
        w.hist_mean("bm_manager_drained_per_wakeup", None),
    );
    set(
        "core.runtime.submit_batch_mean",
        w.hist_mean("bm_manager_submit_batch", None),
    );
    set(
        "core.runtime.worker_busy_share",
        w.counter("bm_worker_busy_us_total")
            .map(|busy| busy / (high_wall_us * rec.workers as f64)),
    );
    set("core.runtime.scatter_resolve_us", stage("scatter_resolve"));
    set("model.unfold_ns", Some(control.unfold.wall_ns));
    set("model.nodes_per_req", Some(control.nodes_per_req));
    set(
        "core.partition.partition_ns",
        Some(control.partition.wall_ns),
    );
    set(
        "core.engine.on_request_ns",
        Some(control.on_request.wall_ns),
    );
    set(
        "core.engine.dispatch_ns_per_task",
        Some(control.dispatch_per_task.wall_ns),
    );
    set(
        "core.engine.complete_ns_per_task",
        Some(control.complete_per_task.wall_ns),
    );
    set("core.engine.ns_per_node", Some(control.per_node.wall_ns));
    set("core.engine.tasks_per_req", tasks_per_req);
    set("core.engine.batch_mean.mid", batch_mean(&mid_window));
    set("core.engine.batch_mean.high", batch_mean(&w));
    set(
        "core.engine.stage_enqueue_to_batch_us",
        stage("enqueue_to_batch"),
    );
    set("core.engine.stage_batch_wait_us", stage("batch_wait"));
    set("core.engine.stage_compute_us", stage("compute"));
    set(
        "core.state_plane.alloc_ns_per_req",
        Some(state.alloc.wall_ns),
    );
    set(
        "core.state_plane.write_ns_per_row",
        Some(state.write.wall_ns),
    );
    set("core.state_plane.read_ns_per_row", Some(state.read.wall_ns));
    // Workloads whose cells have no resident layout spend nothing in
    // the resident plane: its probes report 0.
    set(
        "core.resident.place_ns_per_row",
        Some(resident(&|c| c.place.map(|p| p.wall_ns))),
    );
    set(
        "core.resident.step_ns_per_row.b8",
        Some(resident(&|c| c.resident_batch_step.map(|s| s[1].wall_ns))),
    );
    set(
        "core.resident.step_ns_per_row.b64",
        Some(resident(&|c| c.resident_batch_step.map(|s| s[2].wall_ns))),
    );
    set(
        "core.resident.remove_ns",
        Some(resident(&|c| c.remove.map(|r| r.wall_ns))),
    );
    set(
        "core.resident.joins_per_req",
        per_req(w.counter("bm_resident_joins_total")),
    );
    set(
        "core.resident.compaction_moves_per_req",
        per_req(w.counter("bm_resident_compactions_total")),
    );
    set(
        "cell.gather_step_ns_per_row.b1",
        Some(dominant.gather[0].wall_ns),
    );
    set(
        "cell.gather_step_ns_per_row.b8",
        Some(dominant.gather[1].wall_ns),
    );
    set(
        "cell.gather_step_ns_per_row.b64",
        Some(dominant.gather[2].wall_ns),
    );
    for (i, name) in [
        "cell.resident_step_ns_per_row.b1",
        "cell.resident_step_ns_per_row.b8",
        "cell.resident_step_ns_per_row.b64",
    ]
    .into_iter()
    .enumerate()
    {
        set(name, Some(resident(&|c| c.resident.map(|s| s[i].wall_ns))));
    }
    set("cell.flops_per_row", Some(dominant.flops_per_row));
    set("cell.bytes_per_step.b64", Some(dominant.bytes_per_step_b64));
    set("tensor.gemm.gflops.b8", Some(gemm.gemm_b8));
    set("tensor.gemm.gflops.b64", Some(gemm.gemm_b64));
    set("tensor.gemm_acc.gflops.b64", Some(gemm.gemm_acc_b64));
    set("tensor.pool.threads", Some(gemm.pool_threads as f64));
    set(
        "telemetry.overhead_cpu_pct",
        Some(pct(traced_cpu, cpu_us_per_req(high_ref_cpu, &high_ref))),
    );
    set(
        "telemetry.overhead_p50_pct",
        Some(pct(p50(&high), p50(&high_ref))),
    );
    set("gen.late_mean_us", Some(high.late_mean_us));
    set("gen.late_max_us", Some(high.late_max_us));
    set(
        "gen.cpu_us_per_req",
        Some(high.gen_cpu_ns as f64 / 1e3 / high.counts.sent.max(1) as f64),
    );
    for (phase, names) in [
        (
            &mid,
            [
                "client.mid_p50_ms",
                "client.mid_p90_ms",
                "client.mid_p99_ms",
            ],
        ),
        (
            &high,
            [
                "client.high_p50_ms",
                "client.high_p90_ms",
                "client.high_p99_ms",
            ],
        ),
    ] {
        for (name, q) in names.into_iter().zip([0.5, 0.9, 0.99]) {
            set(name, Some(latency_ms(std::slice::from_ref(phase), q)));
        }
    }
    set("trace.high_cpu_us_per_req", Some(traced_cpu));
    set("budget.net_us", Some(net_us));
    set("budget.runtime_us", Some(runtime_us));
    set("budget.engine_us", Some(engine_us));
    set("budget.state_us", Some(state_us));
    set("budget.cell_us", Some(cell_us));
    set("budget.explained_us", Some(explained_us));
    set("budget.residual_us", Some(residual_us));
    set("budget.residual_share", Some(residual_us / traced_cpu));

    rec.unresolved = generator_too_late(std::slice::from_ref(&mid))
        || generator_too_late(std::slice::from_ref(&high));
    rec.metrics = PER_LAYER
        .iter()
        .map(|def| {
            let v = values
                .remove(def.name)
                .unwrap_or_else(|| panic!("{} was not measured", def.name));
            (def.name.to_string(), v)
        })
        .collect();
    assert!(values.is_empty(), "unlisted metrics: {:?}", values.keys());

    write_trace(&rec, &trace, host::peak_rss_mib());
    rec
}

/// Writes `benchmark/out/trace_<workload>.json`.
fn write_trace(rec: &RunRecord, trace: &Trace, peak_rss_mib: f64) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    let mut header = String::from("\"schema\":\"bm-benchmark-trace/v1\",\"clock\":\"ns since the traced run began\",\"note\":\"spans of the first requests of each traced phase and of every probe batch; server.queue and server.service come from the response's ServedTiming\",\"peak_rss_mib\":");
    header.push_str(&peak_rss_mib.to_string());
    header.push_str(",\"run\":");
    header.push_str(&rec.to_json());
    let path = dir.join(format!("trace_{}.json", rec.workload));
    std::fs::write(&path, trace::to_json(&header, &trace.spans))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("trace written to {}", path.display());
}
