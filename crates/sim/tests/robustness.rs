//! Simulator robustness: determinism, overload behaviour, wake-up
//! handling, start stamps and the server's serving knobs.

use std::collections::BTreeMap;
use std::sync::Arc;

use bm_core::{SchedulerConfig, ServeConfig};
use bm_device::{CostProfile, GpuCostModel};
use bm_model::{LstmLm, LstmLmConfig, Model, RequestInput};
use bm_sim::{simulate, CellularServer, SimOptions};
use bm_telemetry::Telemetry;
use bm_trace::{EventKind, RingBufferSink};
use bm_workload::PoissonArrivals;

fn model() -> Arc<LstmLm> {
    Arc::new(LstmLm::new(LstmLmConfig {
        max_batch: 512,
        ..Default::default()
    }))
}

fn arrivals(n: usize, rate: f64, seed: u64) -> Vec<(u64, RequestInput)> {
    PoissonArrivals::new(rate, seed)
        .take(n)
        .map(|t| (t, RequestInput::Sequence(vec![1; 12])))
        .collect()
}

#[test]
fn identical_runs_are_bit_identical() {
    // The whole stack — engine, cost model, driver — is deterministic:
    // same inputs, same outcome, timestamp for timestamp.
    let run = || {
        let mut srv = CellularServer::paper_scale(model());
        simulate(&mut srv, &arrivals(800, 3_000.0, 7), SimOptions::default())
    };
    let a = run();
    let b = run();
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.end_us, b.end_us);
}

#[test]
fn different_seeds_differ() {
    let mut s1 = CellularServer::paper_scale(model());
    let a = simulate(&mut s1, &arrivals(500, 3_000.0, 1), SimOptions::default());
    let mut s2 = CellularServer::paper_scale(model());
    let b = simulate(&mut s2, &arrivals(500, 3_000.0, 2), SimOptions::default());
    assert_ne!(a.completions, b.completions);
}

#[test]
fn zero_capacity_overload_is_flagged() {
    // 100x the sustainable rate with a tight time cap: the run must be
    // marked saturated and report unfinished requests.
    let mut srv = CellularServer::paper_scale(model());
    let out = simulate(
        &mut srv,
        &arrivals(50_000, 2_000_000.0, 3),
        SimOptions::new().max_sim_us(200_000),
    );
    assert!(out.saturated);
    assert!(out.unfinished > 0);
}

#[test]
fn all_completions_have_sane_timestamps() {
    let mut srv = CellularServer::paper_scale(model());
    let arr = arrivals(1_000, 5_000.0, 11);
    let out = simulate(&mut srv, &arr, SimOptions::default());
    assert_eq!(out.completions.len(), arr.len());
    for &(id, arrival, start, completion) in &out.completions {
        assert!(arrival <= start && start <= completion, "request {id}");
        assert_eq!(arr[id as usize].0, arrival, "arrival stamp preserved");
    }
}

#[test]
fn sim_options_builder_preserves_defaults() {
    let opts = SimOptions::new();
    let defaults = SimOptions::default();
    assert_eq!(opts.workers, defaults.workers);
    assert_eq!(opts.max_sim_us, defaults.max_sim_us);
    assert_eq!(opts.warmup, defaults.warmup);
    assert_eq!(opts.workers, 1, "simulator default is one worker");

    let opts = SimOptions::new().workers(4).max_sim_us(1_000).warmup(10);
    assert_eq!((opts.workers, opts.max_sim_us, opts.warmup), (4, 1_000, 10));
}

/// A paper-scale BatchMaker server whose serving knobs are `serve`.
fn server_with(serve: ServeConfig) -> CellularServer {
    let model = model();
    let profile = CostProfile::paper_scale(model.registry(), 1024, 30_000);
    CellularServer::new(
        model,
        SchedulerConfig::new().serve(serve),
        GpuCostModel::v100(),
        profile,
    )
}

#[test]
fn the_server_takes_its_cap_deadline_and_sinks_from_its_serve_config() {
    // Ten simultaneous 12-step requests, a cap of four and a 1 ms
    // deadline that 12 steps of ≥ 200 µs cannot meet: the cap refuses
    // six, the deadline sheds the other four, and the trace sink and
    // the registry see each refusal and each expiry once.
    let sink = Arc::new(RingBufferSink::new(1 << 16));
    let tel = Telemetry::new();
    let mut srv = server_with(
        ServeConfig::new()
            .deadline_us(1_000)
            .max_active(4)
            .trace(sink.clone())
            .telemetry(Arc::clone(&tel)),
    );
    let arr: Vec<_> = (0..10)
        .map(|_| (0, RequestInput::Sequence(vec![1; 12])))
        .collect();
    let out = simulate(&mut srv, &arr, SimOptions::default());
    assert_eq!((out.rejected, out.expired), (6, 4));
    assert!(out.completions.is_empty());
    assert_eq!(out.unfinished, 0);

    let count =
        |pred: fn(&EventKind) -> bool| sink.events().iter().filter(|e| pred(&e.kind)).count();
    assert_eq!(count(|k| matches!(k, EventKind::RequestRejected { .. })), 6);
    assert_eq!(count(|k| matches!(k, EventKind::RequestExpired { .. })), 4);
    let snap = tel.snapshot();
    assert_eq!(snap.counter_sum("bm_requests_rejected_total"), 6);
    assert_eq!(snap.counter_sum("bm_requests_expired_total"), 4);
}

#[test]
fn a_finished_requests_deadline_does_not_extend_the_run() {
    // One 12-step request with a 100 ms deadline completes in a few ms.
    // The run ends at that completion, not at the deadline: goodput
    // spans are not padded with time in which nothing was served.
    let mut srv = server_with(ServeConfig::new().deadline_us(100_000));
    let out = simulate(
        &mut srv,
        &[(0, RequestInput::Sequence(vec![1; 12]))],
        SimOptions::default(),
    );
    let &(_, _, _, completion) = out.completions.first().expect("completed");
    assert!(completion < 10_000, "completed at {completion} µs");
    assert_eq!(out.end_us, completion);
}

#[test]
fn tasks_of_one_dispatch_start_back_to_back_on_their_worker() {
    // Batches of at most four rows and 24 simultaneous 6-step requests
    // on one worker: a dispatch forms several tasks. The first starts
    // at the dispatch, each later one when the one before it completes,
    // and no two tasks overlap.
    let model = Arc::new(LstmLm::new(LstmLmConfig {
        max_batch: 4,
        ..Default::default()
    }));
    let profile = CostProfile::paper_scale(model.registry(), 1024, 30_000);
    let sink = Arc::new(RingBufferSink::new(1 << 16));
    let mut srv = CellularServer::new(
        model,
        SchedulerConfig::new().serve(ServeConfig::new().trace(sink.clone())),
        GpuCostModel::v100(),
        profile,
    );
    let arr: Vec<_> = (0..24)
        .map(|_| (0, RequestInput::Sequence(vec![1; 6])))
        .collect();
    let out = simulate(&mut srv, &arr, SimOptions::default());
    assert_eq!(out.completions.len(), arr.len());

    // Per task, in id (dispatch) order: formed, started, completed.
    let mut tasks: BTreeMap<u64, [Option<u64>; 3]> = BTreeMap::new();
    for e in sink.events() {
        let (task, stamp) = match e.kind {
            EventKind::BatchFormed { task, .. } => (task, 0),
            EventKind::TaskStarted { task, .. } => (task, 1),
            EventKind::TaskCompleted { task, .. } => (task, 2),
            _ => continue,
        };
        tasks.entry(task).or_default()[stamp] = Some(e.ts_us);
    }
    let stamps: Vec<[u64; 3]> = tasks
        .values()
        .map(|t| t.map(|ts| ts.expect("every task forms, starts and completes")))
        .collect();
    assert_eq!(stamps[0][1], stamps[0][0], "the first task starts at once");
    let mut several = false;
    for pair in stamps.windows(2) {
        let ([formed, _, completed], [next_formed, next_started, _]) = (pair[0], pair[1]);
        assert!(next_started >= completed, "tasks overlap: {pair:?}");
        if next_formed == formed {
            several = true;
            assert_eq!(next_started, completed, "same dispatch: {pair:?}");
        } else {
            assert_eq!(next_started, next_formed, "new dispatch: {pair:?}");
        }
    }
    assert!(several, "no dispatch formed several tasks");
}
