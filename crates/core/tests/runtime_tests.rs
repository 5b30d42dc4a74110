//! End-to-end tests of the threaded runtime: results served under
//! dynamic cellular batching must be bit-identical to the unbatched
//! reference executor, on one shard and across several. Tests that
//! assert what *one* shard does (a cap, a wake-up count, who shares a
//! batch) pin `.shards(1)`, so they hold on any core count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use bm_core::{CompletionQueue, CompletionReceiver, Runtime, RuntimeOptions, ServeConfig};
use bm_model::{reference, LstmLm, Model, RequestInput, Seq2Seq, Seq2SeqConfig, TreeLstm};
use bm_workload::{Dataset, LengthDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Options for `serve` on the default scheduler.
fn serving(serve: ServeConfig) -> RuntimeOptions {
    RuntimeOptions::new().serve_config(serve)
}

fn sharded(shards: usize) -> RuntimeOptions {
    serving(ServeConfig::new().shards(shards))
}

/// Submits one tagged request through `submit_batch_tagged` and returns
/// its verdict, the batch's only one.
fn submit_tagged(
    rt: &Runtime,
    req: impl Into<bm_core::Request>,
    tag: u64,
    queue: &CompletionQueue,
) -> Result<(), bm_core::SubmitError> {
    let mut refused = rt.submit_batch_tagged([(tag, req.into())], queue);
    match refused.pop() {
        None => Ok(()),
        Some((refused_tag, e)) => {
            assert_eq!(refused_tag, tag, "refused a request it was not given");
            assert!(refused.is_empty(), "one verdict per request");
            Err(e)
        }
    }
}

/// A tagged completion queue whose waker parks the thread that delivers
/// the first outcome — the shard thread — on the returned barrier: the
/// test's first `wait()` returns once the shard is parked, its second
/// releases it. Later outcomes wake nothing.
fn parking_queue() -> (CompletionQueue, CompletionReceiver, Arc<Barrier>) {
    let gate = Arc::new(Barrier::new(2));
    let armed = AtomicBool::new(true);
    let (queue, completions) = bm_core::completion_queue();
    let queue = queue.with_waker({
        let gate = Arc::clone(&gate);
        Arc::new(move || {
            if armed.swap(false, Ordering::SeqCst) {
                gate.wait(); // parked
                gate.wait(); // released
            }
        })
    });
    (queue, completions, gate)
}

fn check_against_reference(model: Arc<dyn Model>, inputs: &[RequestInput], shards: usize) {
    let rt = Runtime::start(Arc::clone(&model), sharded(shards));
    assert_eq!(rt.num_shards(), shards);
    let handles: Vec<_> = inputs
        .iter()
        .map(|i| rt.submit_request(i).expect("submit"))
        .collect();
    for (input, h) in inputs.iter().zip(handles) {
        let served = h.wait().completed();
        let expect = reference::execute_graph(&model.unfold(input), model.registry());
        assert_eq!(
            served.result, expect,
            "served result diverged from reference for {input:?}"
        );
        let t = served.timing;
        assert!(t.arrival_us <= t.start_us && t.start_us <= t.completion_us);
    }
    rt.shutdown();
}

#[test]
fn lstm_results_match_reference_single_worker() {
    let model = Arc::new(LstmLm::small());
    let inputs: Vec<RequestInput> = (1..=12)
        .map(|i| RequestInput::Sequence((0..i).map(|t| (t % 50) as u32).collect()))
        .collect();
    check_against_reference(model, &inputs, 1);
}

#[test]
fn lstm_results_match_reference_multi_shard() {
    let model = Arc::new(LstmLm::small());
    let inputs: Vec<RequestInput> = (1..=16)
        .map(|i| RequestInput::Sequence((0..(1 + i % 9)).map(|t| (t % 50) as u32).collect()))
        .collect();
    check_against_reference(model, &inputs, 3);
}

#[test]
fn seq2seq_decoded_tokens_match_reference() {
    let model = Arc::new(Seq2Seq::small());
    let inputs: Vec<RequestInput> = (1..=10)
        .map(|i: usize| RequestInput::Pair {
            src: (2..(2 + (i as u32 % 6) + 1)).collect(),
            decode_len: 1 + (i % 4),
        })
        .collect();
    check_against_reference(model, &inputs, 2);
}

#[test]
fn treelstm_results_match_reference() {
    let model = Arc::new(TreeLstm::small());
    let mut rng = StdRng::seed_from_u64(7);
    let ds = Dataset::trees(12, LengthDistribution::Fixed(9), 100, 3);
    let inputs: Vec<RequestInput> = (0..12).map(|_| ds.sample(&mut rng).clone()).collect();
    check_against_reference(model, &inputs, 2);
}

#[test]
fn mixed_lengths_from_wmt_distribution() {
    let model = Arc::new(LstmLm::small());
    let ds = Dataset::lstm(24, LengthDistribution::wmt15_clipped(40), 900, 11);
    check_against_reference(model, ds.items(), 2);
}

#[test]
fn eos_terminated_decode_stops_early() {
    let model = Arc::new(Seq2Seq::new(Seq2SeqConfig {
        eos_terminates: true,
        ..Default::default()
    }));
    let rt = Runtime::start(Arc::clone(&model) as Arc<dyn Model>, RuntimeOptions::new());
    let input = RequestInput::Pair {
        src: vec![2, 3],
        decode_len: 40,
    };
    let served = rt
        .submit_request(&input)
        .expect("submit")
        .wait()
        .completed();
    // The reference executor applies the same eos semantics; decoded
    // prefixes must agree.
    let expect = reference::execute_graph(&model.unfold(&input), model.registry());
    let served_tokens = served.result.decoded_tokens();
    let expect_tokens = expect.decoded_tokens();
    // The runtime may have executed a few extra steps that were already
    // submitted when <eos> appeared; the reference's decode must be a
    // prefix of the served decode (or equal).
    assert!(
        served_tokens.starts_with(&expect_tokens),
        "served {served_tokens:?} vs reference {expect_tokens:?}"
    );
    rt.shutdown();
}

#[test]
fn throughput_sanity_many_concurrent_requests() {
    // 200 small requests on one shard complete, each matching the
    // reference.
    let model = Arc::new(LstmLm::small());
    let rt = Runtime::start(Arc::clone(&model) as Arc<dyn Model>, sharded(1));
    let ds = Dataset::lstm(200, LengthDistribution::Fixed(6), 900, 5);
    let handles: Vec<_> = ds
        .items()
        .iter()
        .map(|i| rt.submit_request(i).expect("submit"))
        .collect();
    let mut latencies = Vec::new();
    for (input, h) in ds.items().iter().zip(handles) {
        let served = h.wait().completed();
        let expect = reference::execute_graph(&model.unfold(input), model.registry());
        assert_eq!(served.result, expect);
        latencies.push(served.timing.completion_us - served.timing.arrival_us);
    }
    assert_eq!(latencies.len(), 200);
    rt.shutdown();
}

#[test]
fn handles_resolve_even_when_submitted_after_idle() {
    let model = Arc::new(LstmLm::small());
    let rt = Runtime::start(Arc::clone(&model) as Arc<dyn Model>, RuntimeOptions::new());
    // First burst.
    let a = rt
        .submit_request(RequestInput::Sequence(vec![1, 2, 3]))
        .expect("submit")
        .wait()
        .completed();
    // Let the system go idle, then submit again.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let b = rt
        .submit_request(RequestInput::Sequence(vec![4, 5]))
        .expect("submit")
        .wait()
        .completed();
    assert_eq!(a.result.executed_count(), 3);
    assert_eq!(b.result.executed_count(), 2);
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Overload behaviour: deadlines, admission control, cancellation.
// ---------------------------------------------------------------------------

use bm_core::{ServedOutcome, SubmitError};

/// A zero-length deadline expires in the loop pass that admits the
/// request — before any dispatch — so the outcome is deterministic:
/// interleaved no-deadline requests complete (bit-identical to the
/// reference), zero-deadline ones expire, and nothing panics or hangs.
#[test]
fn zero_deadline_requests_expire_while_others_complete() {
    let model = Arc::new(LstmLm::small());
    let rt = Runtime::start(Arc::clone(&model) as Arc<dyn Model>, RuntimeOptions::new());
    let inputs: Vec<RequestInput> = (0..90)
        .map(|i| RequestInput::Sequence((0..(3 + i % 10)).map(|t| (t % 50) as u32).collect()))
        .collect();
    let handles: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let req = if i % 3 == 0 {
                bm_core::Request::from(input).deadline_us(0)
            } else {
                bm_core::Request::from(input)
            };
            rt.submit_request(req).expect("valid input")
        })
        .collect();
    let mut expired = 0;
    for (i, (input, h)) in inputs.iter().zip(handles).enumerate() {
        match h.wait() {
            ServedOutcome::Completed(served) => {
                assert_ne!(i % 3, 0, "zero-deadline request {i} completed");
                let expect = reference::execute_graph(&model.unfold(input), model.registry());
                assert_eq!(served.result, expect, "admitted request {i} diverged");
            }
            ServedOutcome::Expired(t) => {
                assert_eq!(i % 3, 0, "no-deadline request {i} expired");
                assert!(t.arrival_us <= t.completion_us);
                expired += 1;
            }
            other => panic!("unexpected outcome for request {i}: {other:?}"),
        }
    }
    assert_eq!(expired, 30);
    assert_eq!(rt.active_requests(), 0, "every slot reclaimed");
    rt.shutdown();
}

/// A flood with a short real deadline on one shard: the tail of the
/// queue cannot meet it, so requests expire — yet every handle resolves
/// (no panic, no hang) and whatever did complete matches the reference.
#[test]
fn deadline_flood_sheds_tail_without_hanging() {
    let model = Arc::new(LstmLm::small());
    let rt = Runtime::start(
        Arc::clone(&model) as Arc<dyn Model>,
        serving(ServeConfig::new().shards(1).deadline_us(1_000)),
    );
    let ds = Dataset::lstm(600, LengthDistribution::Fixed(20), 900, 17);
    let handles: Vec<_> = ds
        .items()
        .iter()
        .map(|i| rt.submit_request(i).expect("submit"))
        .collect();
    let (mut completed, mut expired) = (0usize, 0usize);
    for (input, h) in ds.items().iter().zip(handles) {
        match h.wait() {
            ServedOutcome::Completed(served) => {
                let expect = reference::execute_graph(&model.unfold(input), model.registry());
                assert_eq!(served.result, expect, "admitted request diverged");
                completed += 1;
            }
            ServedOutcome::Expired(t) => {
                assert!(t.arrival_us <= t.completion_us);
                expired += 1;
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(completed + expired, 600);
    assert!(
        expired > 0,
        "600 x 20-step requests cannot all finish within 1 ms each on one shard"
    );
    assert_eq!(rt.active_requests(), 0);
    rt.shutdown();
}

/// With a small active-request cap, a burst fails some submissions fast
/// with [`SubmitError::AtCapacity`] (no work done, no handle), while
/// admitted ones still complete correctly.
#[test]
fn admission_cap_rejects_excess_submissions() {
    let model = Arc::new(LstmLm::small());
    let rt = Runtime::start(
        Arc::clone(&model) as Arc<dyn Model>,
        serving(ServeConfig::new().shards(1).max_active(4)),
    );
    let ds = Dataset::lstm(200, LengthDistribution::Fixed(40), 900, 23);
    let submissions: Vec<_> = ds.items().iter().map(|i| rt.submit_request(i)).collect();
    let (mut completed, mut rejected) = (0usize, 0usize);
    for (input, sub) in ds.items().iter().zip(submissions) {
        match sub {
            Ok(h) => {
                let served = h.wait().completed();
                let expect = reference::execute_graph(&model.unfold(input), model.registry());
                assert_eq!(served.result, expect, "admitted request diverged");
                completed += 1;
            }
            Err(SubmitError::AtCapacity) => rejected += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert_eq!(completed + rejected, 200);
    assert!(completed >= 4, "the first burst fits under the cap");
    assert!(
        rejected > 0,
        "a 200-deep burst of 40-step requests must overflow a cap of 4"
    );
    assert_eq!(rt.active_requests(), 0);
    rt.shutdown();
}

/// A shard at its cap must never deadlock: its active count includes
/// its inbox, so submissions that find the cap reached fail fast with
/// [`SubmitError::AtCapacity`] instead of blocking the caller, and
/// everything admitted still completes.
#[test]
fn bounded_manager_queue_never_deadlocks() {
    let model = Arc::new(LstmLm::small());
    let rt = Runtime::start(
        Arc::clone(&model) as Arc<dyn Model>,
        serving(ServeConfig::new().shards(1).max_active(2)),
    );
    let ds = Dataset::lstm(80, LengthDistribution::Fixed(10), 900, 31);
    let submissions: Vec<_> = ds.items().iter().map(|i| rt.submit_request(i)).collect();
    let mut resolved = 0usize;
    for (input, sub) in ds.items().iter().zip(submissions) {
        match sub {
            Ok(h) => match h.wait() {
                ServedOutcome::Completed(served) => {
                    let expect = reference::execute_graph(&model.unfold(input), model.registry());
                    assert_eq!(served.result, expect, "admitted request diverged");
                    resolved += 1;
                }
                other => panic!("unexpected outcome: {other:?}"),
            },
            Err(SubmitError::AtCapacity) => resolved += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert_eq!(resolved, 80);
    assert_eq!(rt.active_requests(), 0);
    rt.shutdown();
}

/// Exactly one terminal outcome per request, against the real loop:
/// zero-deadline requests interleaved with live ones land on one tagged
/// queue, each tag shows up once with the outcome its deadline dictates,
/// every slot is reclaimed and nothing more arrives after shutdown.
#[test]
fn every_request_resolves_exactly_once() {
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let rt = Runtime::start(Arc::clone(&model), RuntimeOptions::new());
    let (queue, completions) = bm_core::completion_queue();
    let n = 60usize;
    let reqs = (0..n).map(|i| {
        let req = bm_core::Request::new(RequestInput::Sequence(vec![1 + i as u32; 2 + i % 7]));
        let req = if i % 2 == 0 { req.deadline_us(0) } else { req };
        (i as u64, req)
    });
    // Half as one coalesced batch, half one by one, so both inbox
    // message kinds carry zero-deadline requests.
    let (batch, singles): (Vec<_>, Vec<_>) = reqs.partition(|(tag, _)| *tag < n as u64 / 2);
    assert!(rt.submit_batch_tagged(batch, &queue).is_empty());
    for (tag, req) in singles {
        submit_tagged(&rt, req, tag, &queue).expect("submit");
    }
    let mut seen = vec![false; n];
    for _ in 0..n {
        let (tag, outcome) = completions
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("every request resolves");
        assert!(
            !std::mem::replace(&mut seen[tag as usize], true),
            "tag {tag} twice"
        );
        match outcome {
            ServedOutcome::Expired(_) => assert_eq!(tag % 2, 0, "live request {tag} expired"),
            ServedOutcome::Completed(_) => assert_eq!(tag % 2, 1, "dead request {tag} ran"),
            other => panic!("unexpected outcome for {tag}: {other:?}"),
        }
    }
    assert_eq!(rt.active_requests(), 0, "every slot reclaimed");
    rt.shutdown();
    assert!(
        completions.try_recv().is_none(),
        "an outcome after the last"
    );
}

/// Dropping the runtime with requests in flight still resolves every
/// handle — completed (shutdown drains admitted work) or shut down,
/// never a hang.
#[test]
fn dropping_the_runtime_resolves_every_handle() {
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let rt = Runtime::start(Arc::clone(&model), RuntimeOptions::new());
    let handles: Vec<_> = (0..40)
        .map(|i| {
            rt.submit_request(RequestInput::Sequence(vec![1 + i; 30]))
                .expect("submit")
        })
        .collect();
    drop(rt);
    for h in handles {
        let outcome = h
            .wait_timeout(std::time::Duration::from_secs(30))
            .expect("handle resolves after the runtime is gone");
        assert!(
            matches!(
                outcome,
                ServedOutcome::Completed(_) | ServedOutcome::ShutDown
            ),
            "unexpected outcome: {outcome:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Tracing: every completed request's timeline is causally ordered.
// ---------------------------------------------------------------------------

use bm_trace::{reconstruct_timelines, EventKind, RingBufferSink};

/// Serving through a traced runtime yields, for every completed request,
/// a timeline whose arrival, first dispatch and completion appear in
/// that order.
#[test]
fn traced_run_yields_ordered_timelines() {
    let model = Arc::new(LstmLm::small());
    let sink = Arc::new(RingBufferSink::new(200_000));
    let rt = Runtime::start(
        Arc::clone(&model) as Arc<dyn Model>,
        serving(ServeConfig::new().trace(sink.clone())),
    );
    let ds = Dataset::lstm(40, LengthDistribution::Fixed(8), 900, 41);
    let handles: Vec<_> = ds
        .items()
        .iter()
        .map(|i| rt.submit_request(i).expect("submit"))
        .collect();
    for h in handles {
        h.wait().completed();
    }
    rt.shutdown();

    let events = sink.events();
    assert_eq!(sink.dropped(), 0, "capture buffer must not overflow");
    let timelines = reconstruct_timelines(&events);
    let completed: Vec<_> = timelines
        .iter()
        .filter(|t| t.entries.iter().any(|e| e.label == "request_completed"))
        .collect();
    assert_eq!(completed.len(), 40, "one timeline per completed request");
    for t in &completed {
        let arrival = t.arrival_us().expect("arrival traced");
        let dispatch = t.first_dispatch_us().expect("dispatch traced");
        let end = t.end_us().expect("completion traced");
        assert!(
            arrival <= dispatch && dispatch <= end,
            "request {}: arrival {arrival} -> dispatch {dispatch} -> complete {end} out of order",
            t.request
        );
        // Entries are in causal trace order with monotonic timestamps.
        for w in t.entries.windows(2) {
            assert!(
                w[0].ts_us <= w[1].ts_us,
                "request {}: ts regressed",
                t.request
            );
        }
    }
}

#[test]
fn builders_preserve_defaults() {
    // `new()` is the documented start of the chain and must match
    // `Default` field for field, so adding a knob never shifts behavior
    // of existing builder chains.
    let opts = RuntimeOptions::new();
    let defaults = RuntimeOptions::default();
    assert_eq!(opts.workers, defaults.workers);
    assert_eq!(opts.workers, 1);
    assert_eq!(opts.serve().max_active, defaults.serve().max_active);
    assert_eq!(opts.serve().max_active, None);
    assert_eq!(opts.serve().deadline_us, None);
    assert!(
        !opts.serve().trace.enabled(),
        "default sink must be the no-op"
    );
    assert!(opts.serve().shards >= 1);

    let cfg = bm_core::SchedulerConfig::new();
    let cfg_defaults = bm_core::SchedulerConfig::default();
    assert_eq!(cfg.max_tasks_to_submit, cfg_defaults.max_tasks_to_submit);
    assert_eq!(cfg.max_tasks_to_submit, 5);

    let serve = bm_core::ServeConfig::new();
    let serve_defaults = bm_core::ServeConfig::default();
    assert_eq!(serve.deadline_us, serve_defaults.deadline_us);
    assert_eq!(serve.deadline_us, None);
    // A runtime has at least one shard, and the config says so.
    assert_eq!(ServeConfig::new().shards(0).shards, 1);
}

#[test]
fn builders_set_only_the_named_field() {
    // `scheduler(..)` replaces the whole SchedulerConfig including its
    // embedded ServeConfig, so it comes first in the chain;
    // `serve_config(..)` after it replaces only the serve config.
    let opts = RuntimeOptions::new()
        .scheduler(bm_core::SchedulerConfig::new().max_tasks_to_submit(2))
        .serve_config(ServeConfig::new().max_active(64).deadline_us(50_000));
    assert_eq!(opts.workers, 1);
    assert_eq!(opts.serve().max_active, Some(64));
    assert_eq!(opts.serve().deadline_us, Some(50_000));
    assert_eq!(opts.scheduler.max_tasks_to_submit, 2);
    // Untouched knobs keep their defaults through the chain.
    assert!(!opts.serve().trace.enabled());
}

// ---------------------------------------------------------------------------
// Bit-identity across (shards, submit cap).
// ---------------------------------------------------------------------------

use proptest::prelude::*;

/// Seeded inputs for one model family, sized to exercise batching
/// without making each proptest case expensive.
fn model_and_inputs(kind: usize, seed: u64) -> (Arc<dyn Model>, Vec<RequestInput>) {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        0 => {
            let ds = Dataset::lstm(8, LengthDistribution::wmt15_clipped(10), 900, seed);
            (Arc::new(LstmLm::small()), ds.items().to_vec())
        }
        1 => {
            let inputs = (0..8)
                .map(|i: u32| RequestInput::Pair {
                    src: (2..(2 + 1 + (i + seed as u32) % 5)).collect(),
                    decode_len: 1 + ((i as usize + seed as usize) % 4),
                })
                .collect();
            (Arc::new(Seq2Seq::small()), inputs)
        }
        _ => {
            let ds = Dataset::trees(8, LengthDistribution::Fixed(7), 100, seed);
            let inputs = (0..8).map(|_| ds.sample(&mut rng).clone()).collect();
            (Arc::new(TreeLstm::small()), inputs)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The served result must be bit-identical to the unbatched
    /// reference executor at every (shards, MaxTasksToSubmit)
    /// combination, for all three model families — how many steps one
    /// scheduling decision runs ahead and where a request is placed
    /// change scheduling and storage, never values.
    #[test]
    fn pipelined_runtime_matches_reference(
        shards in 1usize..4,
        max_tasks in 1usize..7,
        kind in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let (model, inputs) = model_and_inputs(kind, seed);
        let rt = Runtime::start(
            Arc::clone(&model),
            RuntimeOptions::new().scheduler(
                bm_core::SchedulerConfig::new()
                    .max_tasks_to_submit(max_tasks)
                    .serve(ServeConfig::new().shards(shards)),
            ),
        );
        let handles: Vec<_> = inputs.iter().map(|i| rt.submit_request(i).expect("submit")).collect();
        for (input, h) in inputs.iter().zip(handles) {
            let served = h.wait().completed();
            let expect = reference::execute_graph(&model.unfold(input), model.registry());
            prop_assert_eq!(
                &served.result,
                &expect,
                "diverged at shards={} max_tasks={} kind={} for {:?}",
                shards,
                max_tasks,
                kind,
                input
            );
        }
        rt.shutdown();
    }
}

#[test]
fn wait_timeout_distinguishes_pending_from_resolved() {
    use std::time::Duration;

    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let rt = Runtime::start(Arc::clone(&model), serving(ServeConfig::new().shards(1)));
    // Park the one shard thread, so the request submitted next is
    // pending for as long as the test wants, however fast a cell step
    // is.
    let (queue, completions, gate) = parking_queue();
    submit_tagged(&rt, RequestInput::Sequence(vec![1]), 0, &queue).expect("submit");
    gate.wait();

    // A pending request polled with a short timeout reports TimedOut
    // rather than blocking or fabricating an outcome.
    let input = RequestInput::Sequence(vec![1; 40]);
    let h = rt.submit_request(&input).expect("submit");
    assert!(matches!(
        h.wait_timeout(Duration::from_micros(50)),
        Err(bm_core::WaitError::TimedOut)
    ));
    gate.wait();
    let served = h
        .wait_timeout(Duration::from_secs(30))
        .expect("resolves once the shard runs")
        .completed();
    let expect = reference::execute_graph(&model.unfold(&input), model.registry());
    assert_eq!(served.result, expect);
    assert!(completions
        .recv_timeout(Duration::from_secs(30))
        .is_some_and(|(tag, outcome)| tag == 0 && outcome.is_completed()));

    // A resolved handle keeps answering without further timeouts.
    let h2 = rt
        .submit_request(RequestInput::Sequence(vec![2, 3]))
        .expect("submit");
    let first = h2.wait_timeout(Duration::from_secs(30)).expect("resolves");
    assert!(matches!(first, bm_core::ServedOutcome::Completed(_)));
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// The submission front: tagged completion queues, coalesced arrival
// batches joining running work, the shard loop's own telemetry, and
// admission (ids, slot reservation, unfolding) done once.
// ---------------------------------------------------------------------------

use bm_core::{completion_queue, Request, TaggedResult};
use bm_model::reference::GraphResult;
use bm_telemetry::{MetricValue, Telemetry};

fn chain_inputs(n: usize) -> Vec<RequestInput> {
    (0..n)
        .map(|i| RequestInput::Sequence((0..(1 + i % 9)).map(|t| (t % 50) as u32).collect()))
        .collect()
}

/// One shard with telemetry on; read it back with `Runtime::snapshot`.
fn one_shard_with_telemetry() -> RuntimeOptions {
    serving(ServeConfig::new().shards(1).telemetry(Telemetry::new()))
}

/// Asserts that a tagged result carries exactly what the reference
/// reports for the same request: the executed count, every node's token
/// and the final hidden state, bit for bit.
fn assert_tagged_matches(served: &TaggedResult, expect: &GraphResult, what: &str) {
    assert_eq!(served.executed, expect.executed_count(), "{what}: executed");
    let tokens: Vec<Option<u32>> = expect
        .outputs
        .iter()
        .map(|o| o.as_ref().and_then(|c| c.token))
        .collect();
    assert_eq!(served.tokens, tokens, "{what}: tokens");
    let bits = |h: &[f32]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let final_h = expect
        .final_h()
        .expect("a completed request executed a node");
    assert_eq!(bits(&served.final_h), bits(final_h), "{what}: final h");
}

/// Submits `inputs` as one tagged batch and returns the outcomes in
/// tag order, pulled off the completion queue.
fn serve_batch(rt: &Runtime, inputs: &[RequestInput]) -> Vec<ServedOutcome<TaggedResult>> {
    let (queue, completions) = completion_queue();
    let reqs = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| (i as u64, input.into()));
    let refused = rt.submit_batch_tagged(reqs, &queue);
    assert!(refused.is_empty(), "{refused:?}");
    let mut out: Vec<Option<ServedOutcome<TaggedResult>>> =
        (0..inputs.len()).map(|_| None).collect();
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

fn assert_batch_matches_reference(shards: usize, n: usize) {
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let inputs = chain_inputs(n);
    let rt = Runtime::start(Arc::clone(&model), sharded(shards));
    for (input, outcome) in inputs.iter().zip(serve_batch(&rt, &inputs)) {
        let expect = reference::execute_graph(&model.unfold(input), model.registry());
        assert_tagged_matches(&outcome.completed(), &expect, &format!("{input:?}"));
    }
    rt.shutdown();
}

#[test]
fn batch_tagged_results_match_reference() {
    assert_batch_matches_reference(1, 24);
}

#[test]
fn sharded_batch_tagged_serves_across_shards() {
    assert_batch_matches_reference(2, 32);
}

/// A TreeLSTM whose graphs fan out: for leaf tokens `t0, t1, …` it
/// builds `acc = I(L0, L0)` and then, per further leaf `Lk`,
/// `a = I(acc, Lk)` and `acc = I(Lk, a)`. Every `Lk` feeds two consumers
/// that run in different tasks, and `L0` is listed twice by one node.
struct FanOutTree(TreeLstm);

impl Model for FanOutTree {
    fn registry(&self) -> &bm_cell::CellRegistry {
        self.0.registry()
    }

    fn unfold(&self, input: &RequestInput) -> bm_model::CellGraph {
        use bm_model::TokenSource;
        let RequestInput::Sequence(tokens) = input else {
            panic!("FanOutTree serves leaf-token sequences");
        };
        let (leaf, internal) = (self.0.leaf_type(), self.0.internal_type());
        let mut g = bm_model::CellGraph::new();
        let leaves: Vec<_> = tokens
            .iter()
            .map(|&t| g.add_node(leaf, &[], TokenSource::Fixed(t)))
            .collect();
        let mut acc = g.add_node(internal, &[leaves[0], leaves[0]], TokenSource::None);
        for &l in &leaves[1..] {
            let a = g.add_node(internal, &[acc, l], TokenSource::None);
            acc = g.add_node(internal, &[l, a], TokenSource::None);
        }
        g
    }

    fn validate(&self, input: &RequestInput) -> Result<(), String> {
        match input {
            RequestInput::Sequence(t) if !t.is_empty() && t.iter().all(|&t| t < 1000) => Ok(()),
            other => Err(format!("FanOutTree cannot serve {other:?}")),
        }
    }

    fn name(&self) -> &str {
        "fan-out-tree"
    }
}

/// A node with two consumers keeps its rows until both have run: tagged
/// requests over fan-out graphs, batched together on one shard and
/// spread over two, resolve bit-identically to the reference (a row
/// dropped at its first consumer would fail the second one's gather),
/// and so do the same requests through handles.
#[test]
fn a_node_feeding_two_consumers_is_served_bit_identically() {
    let model: Arc<dyn Model> = Arc::new(FanOutTree(TreeLstm::small()));
    let inputs: Vec<RequestInput> = (0..12u32)
        .map(|i| RequestInput::Sequence((0..1 + i % 5).map(|t| (7 * t + i) % 1000).collect()))
        .collect();
    for shards in [1, 2] {
        let rt = Runtime::start(Arc::clone(&model), sharded(shards));
        for (input, outcome) in inputs.iter().zip(serve_batch(&rt, &inputs)) {
            let expect = reference::execute_graph(&model.unfold(input), model.registry());
            assert_tagged_matches(&outcome.completed(), &expect, &format!("{input:?}"));
        }
        rt.shutdown();
    }
    check_against_reference(model, &inputs, 1);
}

#[test]
fn manager_amortization_metrics_record_batching() {
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let rt = Runtime::start(Arc::clone(&model), one_shard_with_telemetry());
    let inputs = chain_inputs(32);
    let outcomes = serve_batch(&rt, &inputs);
    assert!(outcomes
        .iter()
        .all(|o| matches!(o, ServedOutcome::Completed(_))));
    let snap = rt.snapshot();
    rt.shutdown();

    let shard0 = [("shard", "0")];
    let wakeups = snap.counter_sum("bm_manager_wakeups_total");
    assert!(wakeups > 0, "the shard never counted a wakeup");
    let Some(MetricValue::Histogram(drained)) =
        snap.get_with("bm_manager_drained_per_wakeup", &shard0)
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
    let Some(MetricValue::Histogram(submit)) = snap.get_with("bm_manager_submit_batch", &shard0)
    else {
        panic!("submit-batch histogram missing");
    };
    assert!(submit.count > 0, "no scheduling decision recorded");
    assert!(
        submit.max > 1,
        "no scheduling decision ran more than one task"
    );
}

/// The resident plane's churn reaches telemetry, refetches included:
/// chain traffic joins rows, and since every shipped chain step's one
/// dependency is the request's previous step of the same cell type (or,
/// for a decoder's first step, the encoder's last — a join), no row goes
/// stale, so `bm_resident_refetches_total` is published and stays 0.
#[test]
fn resident_churn_publishes_joins_and_refetches() {
    let seq2seq: Vec<RequestInput> = (0..24u32)
        .map(|i| RequestInput::Pair {
            src: (0..2 + i % 7).map(|t| 2 + (t * 31 + i) % 400).collect(),
            decode_len: 1 + (i % 5) as usize,
        })
        .collect();
    let models: [(Arc<dyn Model>, Vec<RequestInput>); 2] = [
        (Arc::new(Seq2Seq::small()), seq2seq),
        (Arc::new(LstmLm::small()), chain_inputs(24)),
    ];
    for (model, inputs) in models {
        let rt = Runtime::start(model, one_shard_with_telemetry());
        assert!(serve_batch(&rt, &inputs)
            .iter()
            .all(|o| matches!(o, ServedOutcome::Completed(_))));
        // The pass that delivered the last outcome publishes its churn
        // after delivering; one more request is admitted only by a
        // later pass, so once it resolves that publication is visible.
        serve_batch(&rt, &inputs[..1]);
        let snap = rt.snapshot();
        rt.shutdown();

        let shard0 = [("shard", "0"), ("worker", "0")];
        let counter = |name: &str| match snap.get_with(name, &shard0) {
            Some(MetricValue::Counter(v)) => *v,
            other => panic!("{name} is not a published counter: {other:?}"),
        };
        assert!(counter("bm_resident_joins_total") > 0, "no row ever joined");
        assert_eq!(
            counter("bm_resident_refetches_total"),
            0,
            "a row went stale"
        );
    }
}

/// The hand-off the one-loop shard removed, as a count: a request served
/// alone blocks the shard thread once, for its arrival — not once per
/// task (a 60-token chain is 60 tasks' worth of steps).
#[test]
fn a_request_served_alone_wakes_the_shard_at_most_twice() {
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let rt = Runtime::start(Arc::clone(&model), one_shard_with_telemetry());
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
    let snap = rt.snapshot();
    rt.shutdown();
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
    let rt = Runtime::start(Arc::clone(&model), one_shard_with_telemetry());
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
    assert!(rt.submit_batch_tagged(first_two, &queue).is_empty());
    submit_tagged(&rt, &inputs[2], 2, &queue).expect("submit while the first two run");
    for _ in 0..inputs.len() {
        let (tag, outcome) = completions
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("completion within timeout");
        let input = &inputs[tag as usize];
        let expect = reference::execute_graph(&model.unfold(input), model.registry());
        assert_tagged_matches(&outcome.completed(), &expect, &format!("tag {tag}"));
    }
    let snap = rt.snapshot();
    rt.shutdown();
    let batch_max = snap
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

/// An LSTM-LM that also accepts `Pair` inputs (served as their source
/// sequence), so one runtime sees traffic whose affinity homes differ,
/// and that counts its `unfold` calls.
struct TwoShapeLm {
    inner: LstmLm,
    unfolds: std::sync::atomic::AtomicUsize,
}

impl TwoShapeLm {
    fn new() -> Arc<Self> {
        Arc::new(TwoShapeLm {
            inner: LstmLm::small(),
            unfolds: Default::default(),
        })
    }

    fn as_sequence(input: &RequestInput) -> RequestInput {
        match input {
            RequestInput::Pair { src, .. } => RequestInput::Sequence(src.clone()),
            other => other.clone(),
        }
    }

    fn unfolds(&self) -> usize {
        self.unfolds.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Request `i` of a mixed stream: `Sequence` (at home on shard 0)
    /// when `i` is even, `Pair` (at home on shard 1) when odd.
    fn input(i: u32, tokens: Vec<u32>) -> RequestInput {
        if i.is_multiple_of(2) {
            RequestInput::Sequence(tokens)
        } else {
            RequestInput::Pair {
                src: tokens,
                decode_len: 1,
            }
        }
    }
}

impl Model for TwoShapeLm {
    fn registry(&self) -> &bm_cell::CellRegistry {
        self.inner.registry()
    }

    fn unfold(&self, input: &RequestInput) -> bm_model::CellGraph {
        self.unfolds
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.inner.unfold(&Self::as_sequence(input))
    }

    fn validate(&self, input: &RequestInput) -> Result<(), String> {
        self.inner.validate(&Self::as_sequence(input))
    }

    fn name(&self) -> &str {
        "two-shape-lm"
    }
}

/// Two shards feeding one trace sink: the front allocates request ids,
/// so every arrival has its own id and each id completes exactly once —
/// per-shard counters would make both shards emit request 0.
#[test]
fn request_ids_are_distinct_across_shards_in_one_sink() {
    assert_one_story_per_id(&traced_two_shard_run(24), 24);
}

/// Serves `n` requests of a mixed stream on two shards that share one
/// trace sink, and returns the sink once the runtime has shut down.
fn traced_two_shard_run(n: u32) -> Arc<RingBufferSink> {
    let sink = Arc::new(RingBufferSink::new(100_000));
    let rt = Runtime::start(
        TwoShapeLm::new() as Arc<dyn Model>,
        serving(ServeConfig::new().shards(2).trace(sink.clone())),
    );
    let handles: Vec<_> = (0..n)
        .map(|i| TwoShapeLm::input(i, (1..4 + i % 5).collect()))
        .map(|input| rt.submit_request(input).expect("submit"))
        .collect();
    for h in handles {
        h.wait().completed();
    }
    rt.shutdown();
    sink
}

/// Asserts that `sink` dropped nothing and holds exactly one arrival
/// and one completion for each request id `0..n`.
fn assert_one_story_per_id(sink: &RingBufferSink, n: u32) {
    assert_eq!(sink.dropped(), 0, "capture buffer must not overflow");
    let (mut arrived, mut completed) = (Vec::new(), Vec::new());
    for e in sink.events() {
        match e.kind {
            EventKind::RequestArrived { request, .. } => arrived.push(request),
            EventKind::RequestCompleted { request, .. } => completed.push(request),
            _ => {}
        }
    }
    arrived.sort_unstable();
    completed.sort_unstable();
    let ids: Vec<u64> = (0..u64::from(n)).collect();
    assert_eq!(arrived, ids, "one arrival per id");
    assert_eq!(completed, ids, "one completion per id");
}

/// Two shards feeding one trace sink: shard `i` dispatches as worker
/// `i` and numbers its tasks in its own range, so each task id names
/// one batch, each task event names that batch's worker, and each
/// reconstructed timeline holds only tasks that batched its request.
#[test]
fn task_and_worker_ids_are_distinct_across_shards_in_one_sink() {
    let sink = traced_two_shard_run(24);
    assert_eq!(sink.dropped(), 0, "capture buffer must not overflow");
    let events = sink.events();
    let mut batches = std::collections::HashMap::new();
    for e in &events {
        if let EventKind::BatchFormed {
            task,
            worker,
            requests,
            ..
        } = &e.kind
        {
            let first = batches.insert(*task, (*worker, requests.clone())).is_none();
            assert!(first, "task {task} formed twice");
        }
    }
    let workers: std::collections::BTreeSet<u32> = batches.values().map(|b| b.0).collect();
    assert_eq!(workers, [0, 1].into(), "shard i dispatches as worker i");
    for e in &events {
        if let EventKind::TaskStarted { task, worker } | EventKind::TaskCompleted { task, worker } =
            e.kind
        {
            assert_eq!(
                batches.get(&task).map(|b| b.0),
                Some(worker),
                "task {task}'s events name its batch's worker"
            );
        }
    }
    for t in reconstruct_timelines(&events) {
        for entry in &t.entries {
            if let "task_started" | "task_completed" = entry.label {
                let task: u64 = entry.detail["task ".len()..]
                    .split(' ')
                    .next()
                    .and_then(|id| id.parse().ok())
                    .expect("task entries name their task");
                assert!(
                    batches[&task].1.contains(&t.request),
                    "request {}'s timeline holds task {task}, which did not batch it",
                    t.request
                );
            }
        }
    }
}

/// The live telemetry plane on a threaded runtime, read the way an
/// operator reads it: [`Runtime::snapshot`] once every handle has
/// resolved, while a trace streams into a ring buffer. The latency
/// decomposition loses nothing — the four tiling `bm_stage_us` stages,
/// summed over shards and cell types, equal the end-to-end latency total
/// of the returned timings exactly — the counters and gauges agree with
/// the resolved handles, and the trace tells every request's story once.
fn assert_live_telemetry_reconciles(shards: usize) {
    let model = TwoShapeLm::new();
    let ring = Arc::new(RingBufferSink::new(1 << 16));
    let rt = Runtime::start(
        Arc::clone(&model) as Arc<dyn Model>,
        serving(
            ServeConfig::new()
                .shards(shards)
                .telemetry(Telemetry::new())
                .trace(ring.clone()),
        ),
    );

    let n = 96u32;
    let handles: Vec<_> = (0..n)
        .map(|i| TwoShapeLm::input(i, (1..3 + i % 23).collect()))
        .map(|input| rt.submit_request(input).expect("submit"))
        .collect();
    let e2e_sum_us: u64 = handles
        .into_iter()
        .map(|h| h.wait().completed().timing)
        .map(|t| t.completion_us - t.arrival_us)
        .sum();
    // Every handle has resolved, so this snapshot is complete.
    let snap = rt.snapshot();

    let tiling_stage_sum_us: u64 = snap
        .entries
        .iter()
        .filter(|e| {
            let tiling = |(k, v): &(String, String)| {
                k == "stage" && bm_core::STAGE_NAMES.contains(&v.as_str())
            };
            e.name == "bm_stage_us" && e.labels.iter().any(tiling)
        })
        .map(|e| match &e.value {
            MetricValue::Histogram(h) => h.sum,
            other => panic!("bm_stage_us is a histogram, got {other:?}"),
        })
        .sum();
    assert_eq!(
        tiling_stage_sum_us, e2e_sum_us,
        "stage sums must telescope to the end-to-end latencies"
    );
    assert_eq!(
        snap.counter_sum("bm_requests_completed_total"),
        u64::from(n)
    );
    for gauge in ["bm_active_requests", "bm_inflight_tasks"] {
        let per_shard: Vec<_> = snap.entries.iter().filter(|e| e.name == gauge).collect();
        assert_eq!(per_shard.len(), shards, "one {gauge} per shard");
        for e in per_shard {
            assert_eq!(e.value, MetricValue::Gauge(0), "{gauge} at rest");
        }
    }
    assert!(snap
        .to_prometheus()
        .contains("# TYPE bm_requests_completed_total counter"));
    rt.shutdown();
    assert_one_story_per_id(&ring, n);
}

#[test]
fn live_telemetry_reconciles_on_one_shard() {
    assert_live_telemetry_reconciles(1);
}

#[test]
fn live_telemetry_reconciles_across_two_shards() {
    assert_live_telemetry_reconciles(2);
}

/// A refusal at the cap happens before the cell graph is unfolded: with
/// the one shard's two slots held, further submissions add no `unfold`
/// call.
#[test]
fn refusals_at_the_cap_do_not_unfold() {
    let model = TwoShapeLm::new();
    let rt = Runtime::start(
        Arc::clone(&model) as Arc<dyn Model>,
        serving(ServeConfig::new().shards(1).max_active(2)),
    );
    // Park the shard thread once the first request has resolved (its
    // slot is already released by then), so what is admitted next stays
    // active for as long as the test wants.
    let (queue, completions, gate) = parking_queue();
    let input = RequestInput::Sequence(vec![1, 2, 3]);
    submit_tagged(&rt, &input, 0, &queue).expect("first");
    gate.wait();
    assert_eq!(rt.active_requests(), 0);

    submit_tagged(&rt, &input, 1, &queue).expect("slot 1");
    submit_tagged(&rt, &input, 2, &queue).expect("slot 2");
    let unfolded = model.unfolds();
    assert_eq!(unfolded, 3);
    for tag in 3..40 {
        assert_eq!(
            submit_tagged(&rt, &input, tag, &queue),
            Err(SubmitError::AtCapacity)
        );
    }
    let batch = (40..60).map(|tag| (tag, Request::from(&input)));
    assert_eq!(
        rt.submit_batch_tagged(batch, &queue),
        (40..60)
            .map(|tag| (tag, SubmitError::AtCapacity))
            .collect::<Vec<_>>()
    );
    assert_eq!(model.unfolds(), unfolded, "a refusal unfolded the graph");

    gate.wait();
    for _ in 0..3 {
        let (_, outcome) = completions
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("admitted requests resolve");
        assert!(outcome.is_completed());
    }
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// A hosted shard: shard 0 driven by the thread that started the runtime.
// ---------------------------------------------------------------------------

use std::sync::atomic::AtomicUsize;
use std::time::Duration;

use bm_core::HostedShard;

/// A runtime whose shard 0 this thread hosts, and a count of the calls
/// of its wake hook that woke something: like the network front door's,
/// the hook does nothing when it runs on its host.
fn hosted(serve: ServeConfig) -> (Runtime, HostedShard, Arc<AtomicUsize>) {
    let wakes = Arc::new(AtomicUsize::new(0));
    let hook = {
        let wakes = Arc::clone(&wakes);
        let host = std::thread::current().id();
        Arc::new(move || {
            if std::thread::current().id() != host {
                wakes.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    let (rt, shard) = Runtime::start_hosted(Arc::new(LstmLm::small()), serving(serve), hook);
    (rt, shard, wakes)
}

/// Passes until a pass finds nothing to do.
fn drain(shard: &mut HostedShard) {
    while shard.pass(false) {}
}

/// A submission from the host lands in shard 0's inbox without waking
/// anything; one from another thread wakes the host once per inbox
/// message — once for a single request, once for a whole batch — and
/// resolving wakes nothing.
#[test]
fn a_hosted_shard_wakes_its_host_once_per_foreign_message() {
    let (rt, mut shard, wakes) = hosted(ServeConfig::new().shards(1));
    let (queue, completions) = completion_queue();
    let input = RequestInput::Sequence(vec![1, 2, 3]);
    let batch = |tags: std::ops::Range<u64>| tags.map(|t| (t, Request::from(&input)));

    let local = rt.submit_request(&input).expect("host submit");
    assert!(rt.submit_batch_tagged(batch(0..3), &queue).is_empty());
    assert_eq!(wakes.load(Ordering::SeqCst), 0, "the host woke itself");

    let foreign = std::thread::scope(|s| {
        s.spawn(|| {
            let h = rt.submit_request(&input).expect("foreign submit");
            assert!(rt.submit_batch_tagged(batch(3..6), &queue).is_empty());
            h
        })
        .join()
        .expect("foreign thread")
    });
    assert_eq!(wakes.load(Ordering::SeqCst), 2, "one wake per message");

    assert_eq!(shard.active(), 8, "inbox arrivals count as active");
    drain(&mut shard);
    assert_eq!(shard.active(), 0);
    assert!(local.wait().is_completed());
    assert!(foreign.wait().is_completed());
    for _ in 0..6 {
        let (_, outcome) = completions.try_recv().expect("resolved by the passes");
        assert!(outcome.is_completed());
    }
    assert_eq!(wakes.load(Ordering::SeqCst), 2, "resolving woke the host");
    rt.shutdown();
}

/// The host learns from `next_deadline` how long it may block: the
/// admitted request's deadline while it runs, zero once it is due — and
/// the pass after that expires it.
#[test]
fn a_hosted_shard_reports_its_nearest_deadline() {
    let (rt, mut shard, _) = hosted(ServeConfig::new().shards(1));
    assert_eq!(shard.next_deadline(), None);
    // 200 steps: one pass runs at most `MaxTasksToSubmit` of them.
    let long = RequestInput::Sequence((0..200).map(|t| t % 50).collect());
    let h = rt
        .submit_request(Request::from(&long).deadline_us(200_000))
        .expect("submit");
    assert!(shard.pass(false));
    let left = shard
        .next_deadline()
        .expect("the admitted request's deadline");
    assert!(left <= Duration::from_millis(200), "{left:?}");
    assert!(h.try_wait().is_none(), "one pass finished 200 steps");

    std::thread::sleep(left);
    assert_eq!(shard.next_deadline(), Some(Duration::ZERO));
    assert!(shard.pass(false));
    assert!(matches!(h.wait(), ServedOutcome::Expired(_)));
    assert_eq!(shard.active(), 0);
    rt.shutdown();
}

/// A request that completes before its deadline takes the deadline
/// with it: the host is not told to wake for a request that no longer
/// exists.
#[test]
fn a_resolved_request_leaves_no_deadline_behind() {
    let (rt, mut shard, _) = hosted(ServeConfig::new().shards(1));
    let h = rt
        .submit_request(
            Request::from(&RequestInput::Sequence(vec![1, 2, 3])).deadline_us(10_000_000),
        )
        .expect("submit");
    drain(&mut shard);
    assert!(h.wait().is_completed());
    assert_eq!(shard.active(), 0);
    assert_eq!(shard.next_deadline(), None);
    rt.shutdown();
}

/// A request completes, or its deadline passes (DESIGN §4b): a deadline
/// that passes while the task finishing a request runs expires the
/// request, so no `Completed` outcome is later than its deadline. A
/// hidden-1024 step takes longer than the 500 µs deadline, so requests
/// admitted on time would otherwise complete late.
#[test]
fn no_request_completes_after_its_deadline() {
    const DEADLINE_US: u64 = 500;
    let model = Arc::new(LstmLm::new(bm_model::LstmLmConfig {
        embed_size: 1024,
        hidden_size: 1024,
        vocab: 16,
        ..Default::default()
    }));
    let opts = serving(ServeConfig::new().shards(1));
    let (rt, mut shard) = Runtime::start_hosted(model, opts, Arc::new(|| {}));
    let handles: Vec<_> = (0..5)
        .map(|t| {
            let input = RequestInput::Sequence(vec![t]);
            rt.submit_request(Request::from(&input).deadline_us(DEADLINE_US))
                .expect("submit")
        })
        .collect();
    drain(&mut shard);
    for h in handles {
        match h.wait() {
            ServedOutcome::Completed(served) => {
                let t = served.timing;
                let took = t.completion_us - t.arrival_us;
                assert!(took < DEADLINE_US, "completed {took} µs after arrival");
            }
            ServedOutcome::Expired(_) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(shard.active(), 0);
    rt.shutdown();
}

/// Shutting the runtime down never sends into a hosted shard's inbox —
/// nobody but the host drains it, and the host may be the thread
/// shutting down — and what the host drains afterwards still completes.
/// Once the hosted shard is gone, submissions to it fail.
#[test]
fn shutdown_never_blocks_on_a_hosted_shards_full_inbox() {
    let (rt, mut shard, _) = hosted(ServeConfig::new().shards(1).max_active(1));
    let input = RequestInput::Sequence(vec![4, 5, 6]);
    let h = rt.submit_request(&input).expect("fills the shard");
    assert_eq!(
        rt.submit_request(&input).err(),
        Some(SubmitError::AtCapacity)
    );
    rt.shutdown();
    drain(&mut shard);
    assert!(h.wait().is_completed());

    let (rt, shard, _) = hosted(ServeConfig::new().shards(2));
    drop(shard);
    let refused = rt.submit_request(&input).err();
    assert_eq!(refused, Some(SubmitError::ShuttingDown));
    drop(rt);
}

/// A capacity refusal is counted and traced once, on the shard the
/// request was offered to first, and only when every shard refused it:
/// a request the second chance admits leaves no refusal behind.
#[test]
fn a_refusal_is_counted_once_and_only_when_every_shard_refuses() {
    let sink = Arc::new(RingBufferSink::new(100_000));
    let (rt, mut shard, _) = hosted(
        ServeConfig::new()
            .shards(2)
            .max_active(1)
            .telemetry(Telemetry::new())
            .trace(sink.clone()),
    );
    let input = RequestInput::Sequence(vec![1, 2, 3]);
    // Every sequence is offered to shard 0 first; this thread hosts it
    // and does not pass it yet, so its one slot stays held.
    let held = rt.submit_request(&input).expect("fills shard 0");
    // Shard 1 parks after resolving the first spill, so the second one
    // keeps its slot for as long as the test wants.
    let (queue, completions, gate) = parking_queue();
    submit_tagged(&rt, &input, 0, &queue).expect("spills to shard 1");
    gate.wait();
    let parked = rt.submit_request(&input).expect("spills to shard 1");
    let refusals: Vec<_> = (0..3).map(|_| rt.submit_request(&input).err()).collect();
    let snap = rt.snapshot();
    // Release shard 1 before asserting: a failed assertion must not
    // leave its thread parked while the runtime joins it.
    gate.wait();
    drain(&mut shard);
    assert!(held.wait().is_completed());
    assert!(parked.wait().is_completed());
    let (_, outcome) = completions.try_recv().expect("resolved before parking");
    assert!(outcome.is_completed());
    rt.shutdown();

    assert!(refusals.iter().all(|r| *r == Some(SubmitError::AtCapacity)));
    let rejected = |shard: &str| {
        snap.get_with(
            "bm_requests_rejected_total",
            &[("reason", "at_capacity"), ("shard", shard)],
        )
        .cloned()
    };
    assert_eq!(rejected("0"), Some(MetricValue::Counter(3)));
    assert_eq!(rejected("1"), Some(MetricValue::Counter(0)));
    let refused: Vec<u64> = sink
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RequestRejected { request, .. } => Some(request),
            _ => None,
        })
        .collect();
    assert_eq!(refused, [3, 4, 5], "one refusal per refused request");
}

/// Dropping a hosted shard resolves everything it still holds — a
/// request part-way through its steps and arrivals still in its inbox,
/// tagged or not — as `ShutDown`, and releases their slots.
#[test]
fn dropping_a_hosted_shard_resolves_what_it_holds() {
    let (rt, mut shard, _) = hosted(ServeConfig::new().shards(1));
    let (queue, completions) = completion_queue();
    let long = RequestInput::Sequence((0..200).map(|t| t % 50).collect());
    let admitted = rt.submit_request(&long).expect("submit");
    assert!(shard.pass(false));
    assert!(admitted.try_wait().is_none(), "one pass finished 200 steps");
    let queued = rt.submit_request(&long).expect("submit");
    submit_tagged(&rt, &long, 7, &queue).expect("submit");
    assert_eq!(rt.active_requests(), 3);

    drop(shard);
    assert!(matches!(admitted.try_wait(), Some(ServedOutcome::ShutDown)));
    assert!(matches!(queued.try_wait(), Some(ServedOutcome::ShutDown)));
    assert!(matches!(
        completions.try_recv(),
        Some((7, ServedOutcome::ShutDown))
    ));
    assert_eq!(rt.active_requests(), 0);
    rt.shutdown();
}

/// A freshly built model's first requests through a hosted shard, whose
/// admission computes their token-table rows before any step, serve
/// bit-identically to the reference, through a handle and tagged. The
/// reference runs on a second build of the model, so its rows are
/// computed apart from the served ones.
#[test]
fn a_fresh_models_first_requests_serve_like_the_reference() {
    for kind in 0..3 {
        let (model, inputs) = model_and_inputs(kind, 11);
        let (reference_model, _) = model_and_inputs(kind, 11);
        let opts = serving(ServeConfig::new().shards(1));
        let (rt, mut shard) = Runtime::start_hosted(model, opts, Arc::new(|| {}));
        let (queue, completions) = completion_queue();
        let handle = rt.submit_request(&inputs[0]).expect("submit");
        for (tag, input) in inputs.iter().enumerate().skip(1) {
            submit_tagged(&rt, input, tag as u64, &queue).expect("submit tagged");
        }
        drain(&mut shard);
        let expect = |input: &RequestInput| {
            reference::execute_graph(&reference_model.unfold(input), reference_model.registry())
        };
        assert_eq!(
            handle.wait().completed().result,
            expect(&inputs[0]),
            "model {kind}: handle"
        );
        for _ in 1..inputs.len() {
            let (tag, outcome) = completions.try_recv().expect("resolved by the passes");
            let input = &inputs[tag as usize];
            let what = format!("model {kind}: tagged {input:?}");
            assert_tagged_matches(&outcome.completed(), &expect(input), &what);
        }
        rt.shutdown();
    }
}
