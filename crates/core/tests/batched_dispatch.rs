//! The shard loop's submission side: tagged completion-queue
//! submission, coalesced arrival batches joining running work, and the
//! loop's own telemetry (blocking wake-ups, arrivals drained per wake,
//! tasks per scheduling decision) — all bit-identical to the unbatched
//! reference executor.

use std::sync::Arc;

use bm_core::{
    completion_queue, Request, Runtime, RuntimeOptions, ServeConfig, ServedOutcome, ShardedRuntime,
};
use bm_model::{reference, LstmLm, Model, RequestInput};
use bm_telemetry::{MetricValue, Telemetry};

fn inputs(n: usize) -> Vec<RequestInput> {
    (0..n)
        .map(|i| RequestInput::Sequence((0..(1 + i % 9)).map(|t| (t % 50) as u32).collect()))
        .collect()
}

/// Submits `inputs` as one tagged batch and returns the outcomes in
/// tag order, pulled off the completion queue.
fn serve_batch(rt: &Runtime, inputs: &[RequestInput]) -> Vec<ServedOutcome> {
    let (queue, completions) = completion_queue();
    let reqs = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| (i as u64, input.into()));
    let results = rt.submit_batch_tagged(reqs, &queue);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    let mut out: Vec<Option<ServedOutcome>> = (0..inputs.len()).map(|_| None).collect();
    for _ in 0..inputs.len() {
        let (tag, outcome) = completions
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("completion within timeout");
        let slot = &mut out[tag as usize];
        assert!(slot.is_none(), "duplicate completion for tag {tag}");
        *slot = Some(outcome);
    }
    out.into_iter().map(|o| o.expect("all tags seen")).collect()
}

#[test]
fn batch_tagged_results_match_reference() {
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let inputs = inputs(24);
    let rt = Runtime::start(Arc::clone(&model), RuntimeOptions::new());
    for (input, outcome) in inputs.iter().zip(serve_batch(&rt, &inputs)) {
        let ServedOutcome::Completed(res) = outcome else {
            panic!("expected completion for {input:?}");
        };
        let expect = reference::execute_graph(&model.unfold(input), model.registry());
        assert_eq!(res.result, expect, "diverged from reference for {input:?}");
    }
    rt.shutdown();
}

#[test]
fn sharded_batch_tagged_serves_across_shards() {
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let inputs = inputs(32);
    let rt = ShardedRuntime::start(
        Arc::clone(&model),
        RuntimeOptions::new().serve_config(ServeConfig::new().shards(2)),
    );
    let (queue, completions) = completion_queue();
    let reqs = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| (i as u64, input.into()));
    let results = rt.submit_batch_tagged(reqs, &queue);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    let mut seen = vec![false; inputs.len()];
    for _ in 0..inputs.len() {
        let (tag, outcome) = completions
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("completion within timeout");
        assert!(!seen[tag as usize], "duplicate tag {tag}");
        seen[tag as usize] = true;
        let ServedOutcome::Completed(res) = outcome else {
            panic!("expected completion for tag {tag}");
        };
        let expect =
            reference::execute_graph(&model.unfold(&inputs[tag as usize]), model.registry());
        assert_eq!(res.result, expect, "shard diverged for tag {tag}");
    }
    assert!(seen.iter().all(|&s| s));
    rt.shutdown();
}

#[test]
fn manager_amortization_metrics_record_batching() {
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let telemetry = Telemetry::new();
    let rt = Runtime::start(
        Arc::clone(&model),
        RuntimeOptions::new().telemetry(Arc::clone(&telemetry)),
    );
    let inputs = inputs(32);
    let outcomes = serve_batch(&rt, &inputs);
    assert!(outcomes
        .iter()
        .all(|o| matches!(o, ServedOutcome::Completed(_))));
    rt.shutdown();

    let snap = telemetry.snapshot();
    let wakeups = snap.counter_sum("bm_manager_wakeups_total");
    assert!(wakeups > 0, "the shard never counted a wakeup");
    let Some(MetricValue::Histogram(drained)) = snap.get_with("bm_manager_drained_per_wakeup", &[])
    else {
        panic!("drained-per-wakeup histogram missing");
    };
    assert_eq!(drained.count, wakeups, "one drain sample per wakeup");
    // The 32-request arrival batch is one message, so its wakeup must
    // have drained at least the whole batch in one go.
    assert!(
        drained.max >= inputs.len() as u64,
        "coalesced arrivals not drained in one wakeup: max {}",
        drained.max
    );
    let Some(MetricValue::Histogram(submit)) = snap.get_with("bm_manager_submit_batch", &[]) else {
        panic!("submit-batch histogram missing");
    };
    assert!(submit.count > 0, "no scheduling decision recorded");
    assert!(
        submit.max > 1,
        "no scheduling decision ran more than one task"
    );
}

/// The hand-off the one-loop shard removed, as a count: a request served
/// alone blocks the shard thread once for its arrival and once for the
/// shutdown message — not once per task (a 60-token chain is 60 tasks'
/// worth of steps).
#[test]
fn a_request_served_alone_wakes_the_shard_at_most_twice() {
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let telemetry = Telemetry::new();
    let rt = Runtime::start(
        Arc::clone(&model),
        RuntimeOptions::new().telemetry(Arc::clone(&telemetry)),
    );
    let input = RequestInput::Sequence((0..60).map(|t| t % 50).collect());
    let served = rt
        .submit_request(&input)
        .expect("submit")
        .wait()
        .completed();
    assert_eq!(
        served.result,
        reference::execute_graph(&model.unfold(&input), model.registry())
    );
    rt.shutdown();
    let snap = telemetry.snapshot();
    assert!(snap.counter_sum("bm_tasks_submitted_total") >= 12);
    let wakeups = snap.counter_sum("bm_manager_wakeups_total");
    assert!(
        (1..=2).contains(&wakeups),
        "{wakeups} blocking waits for one request"
    );
}

/// Arrivals join running work at the next scheduling boundary: two
/// requests admitted by one inbox message step as one batch, and a third
/// submitted while they run completes beside them, all bit-identical to
/// the reference.
#[test]
fn arrivals_join_a_running_batch() {
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let telemetry = Telemetry::new();
    let rt = Runtime::start(
        Arc::clone(&model),
        RuntimeOptions::new().telemetry(Arc::clone(&telemetry)),
    );
    let inputs: Vec<RequestInput> = [40, 40, 25]
        .iter()
        .enumerate()
        .map(|(i, &len)| RequestInput::Sequence((0..len).map(|t| (t + i as u32) % 50).collect()))
        .collect();
    let (queue, completions) = completion_queue();
    let first_two = inputs[..2]
        .iter()
        .enumerate()
        .map(|(i, input)| (i as u64, Request::from(input)));
    assert!(rt
        .submit_batch_tagged(first_two, &queue)
        .iter()
        .all(Result::is_ok));
    rt.submit_request_tagged(&inputs[2], 2, &queue)
        .expect("submit while the first two run");
    for _ in 0..inputs.len() {
        let (tag, outcome) = completions
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("completion within timeout");
        let input = &inputs[tag as usize];
        let expect = reference::execute_graph(&model.unfold(input), model.registry());
        assert_eq!(outcome.completed().result, expect, "tag {tag} diverged");
    }
    rt.shutdown();
    let batch_max = telemetry
        .snapshot()
        .entries
        .iter()
        .filter(|e| e.name == "bm_batch_size")
        .filter_map(|e| match &e.value {
            MetricValue::Histogram(h) => Some(h.max),
            _ => None,
        })
        .max();
    assert!(
        batch_max >= Some(2),
        "requests admitted together never shared a task: {batch_max:?}"
    );
}
