//! Scheduler state-machine tests: Algorithm 1 behaviour, dependency
//! tracking, pinning, continuous join/leave, and `<eos>` cancellation.

use std::sync::Arc;

use bm_core::{CellularEngine, RequestId, SchedulerConfig, Task, WorkerId};
use bm_model::{LstmLm, Model, RequestInput, Seq2Seq, TreeLstm, TreeShape};

fn engine_for(model: &dyn Model, max_tasks: usize) -> CellularEngine {
    CellularEngine::new(
        Arc::new(model.registry().clone()),
        SchedulerConfig::new().max_tasks_to_submit(max_tasks),
    )
}

/// Completes a task instantly with no emitted tokens.
fn complete(engine: &mut CellularEngine, task: &Task, now: u64) -> Vec<bm_core::CompletedRequest> {
    engine.on_task_started(task.id, now);
    let tokens = vec![None; task.entries.len()];
    engine.on_task_completed(task.id, &tokens, now)
}

#[test]
fn single_chain_request_executes_in_order() {
    let m = LstmLm::small();
    let mut eng = engine_for(&m, 5);
    let req = RequestId(0);
    eng.on_arrival(
        req,
        m.unfold(&RequestInput::Sequence(vec![1, 2, 3])),
        0,
        None,
    );

    // A chain exposes one ready node; MaxTasksToSubmit lets the scheduler
    // submit successive steps as successive tasks.
    let tasks = eng.dispatch(WorkerId(0));
    assert_eq!(tasks.len(), 3, "3-step chain yields 3 consecutive tasks");
    for (i, t) in tasks.iter().enumerate() {
        assert_eq!(t.batch_size(), 1);
        assert_eq!(t.entries[0].node.index(), i);
    }
    // Nothing more to dispatch.
    assert!(eng.dispatch(WorkerId(0)).is_empty());

    let mut done = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        done.extend(complete(&mut eng, t, 10 * (i as u64 + 1)));
    }
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].id, req);
    assert_eq!(done[0].executed_nodes, 3);
    assert_eq!(done[0].completion_us, 30);
    assert_eq!(eng.active_requests(), 0);
}

#[test]
fn max_tasks_to_submit_caps_consecutive_tasks() {
    let m = LstmLm::small();
    let mut eng = engine_for(&m, 2);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Sequence(vec![1; 10])),
        0,
        None,
    );
    let tasks = eng.dispatch(WorkerId(0));
    assert_eq!(tasks.len(), 2, "capped at MaxTasksToSubmit");
}

#[test]
fn new_request_joins_ongoing_execution() {
    // The core claim of cellular batching (§3.2): a newly arrived
    // request's early cells batch together with existing requests' later
    // cells.
    let m = LstmLm::small();
    let mut eng = engine_for(&m, 1);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Sequence(vec![1; 5])),
        0,
        None,
    );

    // Execute two steps of request 0 alone.
    for _ in 0..2 {
        let tasks = eng.dispatch(WorkerId(0));
        assert_eq!(tasks[0].batch_size(), 1);
        complete(&mut eng, &tasks[0], 1);
    }

    // Request 1 arrives mid-flight.
    eng.on_arrival(
        RequestId(1),
        m.unfold(&RequestInput::Sequence(vec![2; 4])),
        2,
        None,
    );

    // The next task batches step 3 of req0 with step 1 of req1.
    let tasks = eng.dispatch(WorkerId(0));
    assert_eq!(tasks[0].batch_size(), 2);
    let reqs: Vec<u64> = tasks[0].entries.iter().map(|e| e.request.0).collect();
    assert!(reqs.contains(&0) && reqs.contains(&1));
}

#[test]
fn short_request_leaves_before_long_one() {
    // §3.2: "a short request is not penalized with increased latency
    // when it's batched with longer requests".
    let m = LstmLm::small();
    let mut eng = engine_for(&m, 1);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Sequence(vec![1; 2])),
        0,
        None,
    );
    eng.on_arrival(
        RequestId(1),
        m.unfold(&RequestInput::Sequence(vec![1; 6])),
        0,
        None,
    );

    let mut completions = Vec::new();
    let mut now = 0;
    loop {
        let tasks = eng.dispatch(WorkerId(0));
        if tasks.is_empty() {
            break;
        }
        for t in tasks {
            now += 1;
            completions.extend(complete(&mut eng, &t, now));
        }
    }
    assert_eq!(completions.len(), 2);
    assert_eq!(completions[0].id, RequestId(0), "short request first");
    assert!(completions[0].completion_us < completions[1].completion_us);
}

#[test]
fn batch_respects_max_batch_size() {
    let cfg = bm_model::LstmLmConfig {
        max_batch: 4,
        ..Default::default()
    };
    let m = LstmLm::new(cfg);
    let mut eng = engine_for(&m, 1);
    for i in 0..10 {
        eng.on_arrival(
            RequestId(i),
            m.unfold(&RequestInput::Sequence(vec![1; 3])),
            0,
            None,
        );
    }
    let tasks = eng.dispatch(WorkerId(0));
    assert_eq!(tasks[0].batch_size(), 4, "batch capped at max_batch");
}

#[test]
fn tree_leaves_batch_then_internals_release() {
    let m = TreeLstm::small();
    let mut eng = engine_for(&m, 1);
    let shape = TreeShape::complete(4, 100); // 4 leaves, 3 internal.
    eng.on_arrival(RequestId(0), m.unfold(&RequestInput::Tree(shape)), 0, None);

    // First dispatch: all 4 leaves in one task (leaf subgraphs all
    // released on arrival).
    let t1 = eng.dispatch(WorkerId(0));
    assert_eq!(t1[0].cell_type, m.leaf_type());
    assert_eq!(t1[0].batch_size(), 4);

    // Internal subgraph is not released until all leaves complete.
    assert!(eng.dispatch(WorkerId(0)).is_empty());
    complete(&mut eng, &t1[0], 1);

    // Level 1: two internal nodes batch together.
    let t2 = eng.dispatch(WorkerId(0));
    assert_eq!(t2[0].cell_type, m.internal_type());
    assert_eq!(t2[0].batch_size(), 2);
    complete(&mut eng, &t2[0], 2);

    // Root.
    let t3 = eng.dispatch(WorkerId(0));
    assert_eq!(t3[0].batch_size(), 1);
    let done = complete(&mut eng, &t3[0], 3);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].executed_nodes, 7);
}

#[test]
fn tree_levels_pipeline_within_one_dispatch() {
    // With MaxTasksToSubmit > 1, successive tree levels are submitted as
    // successive tasks in one Schedule call (§4.4: "the scheduler puts
    // the cells of x at successive levels of the tree in successive
    // batched tasks").
    let m = TreeLstm::small();
    let mut eng = engine_for(&m, 5);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Tree(TreeShape::complete(8, 100))),
        0,
        None,
    );
    let leaves = eng.dispatch(WorkerId(0));
    assert_eq!(leaves.len(), 1, "all 8 leaves fit one task");
    complete(&mut eng, &leaves[0], 1);

    let internals = eng.dispatch(WorkerId(0));
    // 3 levels: 4, 2, 1 — pipelined as three consecutive tasks.
    assert_eq!(internals.len(), 3);
    assert_eq!(internals[0].batch_size(), 4);
    assert_eq!(internals[1].batch_size(), 2);
    assert_eq!(internals[2].batch_size(), 1);
}

#[test]
fn seq2seq_decoder_has_priority_once_ready() {
    let m = Seq2Seq::small();
    let mut eng = engine_for(&m, 1);
    // Request 0: encoder done, decoder ready. Request 1: encoder ready.
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Pair {
            src: vec![2],
            decode_len: 2,
        }),
        0,
        None,
    );
    let enc = eng.dispatch(WorkerId(0));
    assert_eq!(enc[0].cell_type, m.encoder_type());
    complete(&mut eng, &enc[0], 1);

    eng.on_arrival(
        RequestId(1),
        m.unfold(&RequestInput::Pair {
            src: vec![3],
            decode_len: 1,
        }),
        1,
        None,
    );

    // Both a decoder node (req0) and an encoder node (req1) are ready;
    // neither type has a full batch or running tasks, so priority picks
    // the decoder (§4.3).
    let next = eng.dispatch(WorkerId(0));
    assert_eq!(next[0].cell_type, m.decoder_type());
}

#[test]
fn subgraph_pinning_excludes_other_workers() {
    let m = LstmLm::small();
    let mut eng = engine_for(&m, 1);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Sequence(vec![1; 4])),
        0,
        None,
    );

    let t0 = eng.dispatch(WorkerId(0));
    assert_eq!(t0.len(), 1);
    // The subgraph is pinned to worker 0 while the task is in flight;
    // worker 1 gets nothing even though a successor node is ready.
    assert!(eng.has_ready_work());
    let t1 = eng.dispatch(WorkerId(1));
    assert!(t1.is_empty(), "pinned subgraph not schedulable elsewhere");

    // Worker 0 can continue the chain.
    let t0b = eng.dispatch(WorkerId(0));
    assert_eq!(t0b.len(), 1);

    // After all in-flight tasks complete, the subgraph unpins and
    // worker 1 may pick it up.
    complete(&mut eng, &t0[0], 1);
    complete(&mut eng, &t0b[0], 2);
    let t1b = eng.dispatch(WorkerId(1));
    assert_eq!(t1b.len(), 1);
    assert_eq!(t1b[0].transfer_rows, 1, "migration pays a transfer per row");
}

#[test]
fn gather_free_when_composition_repeats() {
    let m = LstmLm::small();
    let mut eng = engine_for(&m, 3);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Sequence(vec![1; 5])),
        0,
        None,
    );
    eng.on_arrival(
        RequestId(1),
        m.unfold(&RequestInput::Sequence(vec![1; 5])),
        0,
        None,
    );

    let tasks = eng.dispatch(WorkerId(0));
    assert_eq!(tasks.len(), 3);
    // First task gathers (fresh composition); subsequent identical
    // compositions do not (§4.3 locality).
    assert_eq!(tasks[0].gather_rows, 2);
    assert_eq!(tasks[1].gather_rows, 0);
    assert_eq!(tasks[2].gather_rows, 0);
}

#[test]
fn composition_change_triggers_gather() {
    let m = LstmLm::small();
    let mut eng = engine_for(&m, 1);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Sequence(vec![1; 2])),
        0,
        None,
    );
    let t0 = eng.dispatch(WorkerId(0));
    complete(&mut eng, &t0[0], 1);

    // New request joins: composition changes, gather required.
    eng.on_arrival(
        RequestId(1),
        m.unfold(&RequestInput::Sequence(vec![1; 2])),
        1,
        None,
    );
    let t1 = eng.dispatch(WorkerId(0));
    assert_eq!(t1[0].batch_size(), 2);
    assert_eq!(t1[0].gather_rows, 2);
}

#[test]
fn min_batch_gate_stops_tiny_followup_tasks() {
    // min_batch = 4: the head task may be any size, but follow-up tasks
    // below the minimum are not formed (Algorithm 1 line 16).
    let cfg = bm_model::LstmLmConfig {
        min_batch: 4,
        ..Default::default()
    };
    let m = LstmLm::new(cfg);
    let mut eng = engine_for(&m, 5);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Sequence(vec![1; 9])),
        0,
        None,
    );
    let tasks = eng.dispatch(WorkerId(0));
    assert_eq!(tasks.len(), 1, "follow-ups below min_batch suppressed");
    assert_eq!(tasks[0].batch_size(), 1, "head task exempt from the gate");
}

#[test]
fn eos_token_cancels_remaining_decode_steps() {
    use bm_model::Seq2SeqConfig;
    let m = Seq2Seq::new(Seq2SeqConfig {
        eos_terminates: true,
        ..Default::default()
    });
    let mut eng = engine_for(&m, 1);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Pair {
            src: vec![2],
            decode_len: 6,
        }),
        0,
        None,
    );
    // Encoder.
    let enc = eng.dispatch(WorkerId(0));
    complete(&mut eng, &enc[0], 1);
    // First decode step emits <eos> (token 1).
    let dec = eng.dispatch(WorkerId(0));
    assert_eq!(dec[0].cell_type, m.decoder_type());
    eng.on_task_started(dec[0].id, 2);
    let done = eng.on_task_completed(dec[0].id, &[Some(bm_model::EOS_TOKEN)], 2);
    // All remaining decode steps cancel; the request completes.
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].executed_nodes, 2);
    assert_eq!(done[0].total_nodes, 7);
    assert!(!eng.has_ready_work());
    assert_eq!(eng.active_requests(), 0);
}

#[test]
fn ready_type_with_full_batch_beats_priority() {
    // Algorithm 1 rule (a): a type whose ready nodes reach the max batch
    // size is preferred even over a higher-priority type below it.
    let m = TreeLstm::new(bm_model::TreeLstmConfig {
        max_batch: 4,
        ..Default::default()
    });
    let mut eng = engine_for(&m, 1);
    // Request A: a 4-leaf complete tree -> after leaves, 2+1 internals.
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Tree(TreeShape::complete(4, 100))),
        0,
        None,
    );
    let leaves = eng.dispatch(WorkerId(0));
    complete(&mut eng, &leaves[0], 1);
    // Two internal nodes (priority 1) are now ready but below max batch.
    // Add 4 fresh single-leaf requests: leaf type (priority 0) reaches
    // its full batch.
    for i in 1..=4 {
        eng.on_arrival(
            RequestId(i),
            m.unfold(&RequestInput::Tree(TreeShape::leaf(1))),
            1,
            None,
        );
    }
    let next = eng.dispatch(WorkerId(0));
    assert_eq!(
        next[0].cell_type,
        m.leaf_type(),
        "full-batch type wins over priority"
    );
    assert_eq!(next[0].batch_size(), 4);
}

#[test]
fn starved_type_without_running_tasks_preferred() {
    // Algorithm 1 rule (b): among types below a full batch, one with no
    // running tasks is preferred over one that already has tasks
    // in flight — even if the latter has higher priority.
    let m = Seq2Seq::small();
    let mut eng = engine_for(&m, 1);
    // Req 0 reaches decoding.
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Pair {
            src: vec![2],
            decode_len: 3,
        }),
        0,
        None,
    );
    let enc = eng.dispatch(WorkerId(0));
    complete(&mut eng, &enc[0], 1);
    let dec = eng.dispatch(WorkerId(0));
    assert_eq!(dec[0].cell_type, m.decoder_type());
    // Decoder task in flight. A fresh encoder-only request arrives.
    eng.on_arrival(
        RequestId(1),
        m.unfold(&RequestInput::Pair {
            src: vec![3, 4],
            decode_len: 1,
        }),
        2,
        None,
    );
    // Worker 1 asks for work: decoder has a running task, encoder has
    // none -> encoder chosen despite lower priority.
    let next = eng.dispatch(WorkerId(1));
    assert_eq!(next[0].cell_type, m.encoder_type());
}

#[test]
fn many_requests_all_complete() {
    // Soak: drive a mixed set of requests to completion and check
    // accounting invariants.
    let m = LstmLm::small();
    let mut eng = engine_for(&m, 5);
    let mut expected = 0;
    for i in 0..50u64 {
        let len = 1 + (i % 7) as usize;
        eng.on_arrival(
            RequestId(i),
            m.unfold(&RequestInput::Sequence(vec![1; len])),
            i,
            None,
        );
        expected += 1;
    }
    let mut now = 100;
    let mut completed = 0;
    let mut guard = 0;
    while eng.active_requests() > 0 {
        guard += 1;
        assert!(guard < 10_000, "scheduler wedged");
        let tasks = eng.dispatch(WorkerId(0));
        assert!(!tasks.is_empty(), "work remains but nothing dispatched");
        for t in tasks {
            now += 1;
            completed += complete(&mut eng, &t, now).len();
        }
    }
    assert_eq!(completed, expected);
    assert!(!eng.has_ready_work());
    assert_eq!(eng.inflight_tasks(), 0);
}

#[test]
fn scheduler_stats_account_for_everything() {
    let m = LstmLm::small();
    let mut eng = engine_for(&m, 5);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Sequence(vec![1; 4])),
        0,
        None,
    );
    eng.on_arrival(
        RequestId(1),
        m.unfold(&RequestInput::Sequence(vec![1; 4])),
        0,
        None,
    );
    let mut now = 0;
    while eng.active_requests() > 0 {
        for t in eng.dispatch(WorkerId(0)) {
            now += 1;
            complete(&mut eng, &t, now);
        }
    }
    let s = eng.stats();
    assert_eq!(s.nodes_submitted, 8);
    assert_eq!(s.requests_completed, 2);
    assert_eq!(s.tasks_submitted, 4, "4 batch-2 steps");
    assert!((s.mean_batch_size() - 2.0).abs() < 1e-9);
    // Only the first task of a repeated composition gathers.
    assert_eq!(s.gathered_rows, 2);
    assert!(s.gather_fraction() < 0.5);
    assert_eq!(s.transfers, 0);
    assert_eq!(s.cancelled_nodes, 0);
}

#[test]
fn cancel_before_start_retires_immediately() {
    let m = LstmLm::small();
    let mut eng = engine_for(&m, 5);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Sequence(vec![1; 4])),
        0,
        Some(7),
    );
    assert_eq!(eng.next_deadline(), Some(7));
    assert!(eng.expire(6).is_empty(), "not due before its deadline");
    let out = eng.expire(7);
    let [c] = out[..] else {
        panic!("expected immediate retire, got {out:?}");
    };
    assert!(c.cancelled);
    assert_eq!(c.executed_nodes, 0);
    assert_eq!(c.arrival_us, 0);
    assert_eq!(c.start_us, 7, "never started: expiry stamps start");
    assert_eq!(c.completion_us, 7);
    assert_eq!(eng.active_requests(), 0);
    assert!(!eng.has_ready_work());
    // An expired request leaves no deadline behind; expiring again is a
    // no-op.
    assert_eq!(eng.next_deadline(), None);
    assert!(eng.expire(8).is_empty());
    let s = eng.stats();
    assert_eq!(s.requests_expired, 1);
    assert_eq!(s.requests_cancelled, 1);
    assert_eq!(s.requests_completed, 0);
    assert_eq!(s.cancelled_nodes, 4);
}

#[test]
fn cancel_in_flight_drains_then_resolves_once() {
    let m = LstmLm::small();
    let mut eng = engine_for(&m, 1);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Sequence(vec![1; 4])),
        0,
        Some(5),
    );
    let t = eng.dispatch(WorkerId(0));
    assert_eq!(t.len(), 1);
    // Step 0 in flight, step 1 ready: expiry drops the ready tail but
    // leaves the in-flight task alone.
    assert!(eng.has_ready_work());
    assert!(
        eng.expire(5).is_empty(),
        "a draining request has no record yet"
    );
    assert_eq!(eng.next_deadline(), None, "expired, though still draining");
    assert!(!eng.has_ready_work(), "unsubmitted nodes leave the queues");
    assert!(eng.dispatch(WorkerId(0)).is_empty());
    // Draining the in-flight task produces the single cancelled record.
    let done = complete(&mut eng, &t[0], 9);
    assert_eq!(done.len(), 1);
    assert!(done[0].cancelled);
    assert_eq!(done[0].executed_nodes, 1);
    assert_eq!(done[0].completion_us, 9);
    assert_eq!(eng.active_requests(), 0);
    assert_eq!(eng.inflight_tasks(), 0);
    assert_eq!(eng.stats().requests_expired, 1);
}

#[test]
fn cancel_retires_subgraphs_that_never_queued() {
    // Seq2Seq: the decoder subgraph still has unmet external deps when
    // the request expires with its encoder mid-flight; retirement must
    // clean it up even though it never entered a scheduling queue.
    let m = Seq2Seq::small();
    let mut eng = engine_for(&m, 1);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Pair {
            src: vec![2, 3],
            decode_len: 3,
        }),
        0,
        Some(4),
    );
    let enc = eng.dispatch(WorkerId(0));
    assert_eq!(enc[0].cell_type, m.encoder_type());
    assert!(eng.expire(4).is_empty(), "the encoder step is in flight");
    let done = complete(&mut eng, &enc[0], 8);
    assert_eq!(done.len(), 1);
    assert!(done[0].cancelled);
    assert_eq!(done[0].executed_nodes, 1);
    assert_eq!(eng.active_requests(), 0);
    assert!(!eng.has_ready_work());
}

#[test]
fn cancel_coexists_with_eos_termination() {
    use bm_model::Seq2SeqConfig;
    let m = Seq2Seq::new(Seq2SeqConfig {
        eos_terminates: true,
        ..Default::default()
    });
    let mut eng = engine_for(&m, 1);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Pair {
            src: vec![2],
            decode_len: 6,
        }),
        0,
        Some(2),
    );
    let enc = eng.dispatch(WorkerId(0));
    complete(&mut eng, &enc[0], 1);
    let dec = eng.dispatch(WorkerId(0));
    // Expire while the decode step that will emit <eos> is in flight:
    // expiry already dropped the downstream steps, so the <eos>
    // cancellation path finds nothing left and the request still
    // resolves exactly once.
    assert!(eng.expire(2).is_empty(), "the decode step is in flight");
    eng.on_task_started(dec[0].id, 3);
    let done = eng.on_task_completed(dec[0].id, &[Some(bm_model::EOS_TOKEN)], 3);
    assert_eq!(done.len(), 1);
    assert!(done[0].cancelled);
    assert_eq!(eng.active_requests(), 0);
    let s = eng.stats();
    assert_eq!(s.requests_cancelled, 1);
    assert_eq!(s.requests_completed, 0);
}

#[test]
fn requests_expire_in_deadline_order_and_only_when_due() {
    // `on_request` resolves each request's deadline against the
    // configured default; `expire` takes every request due, earliest
    // deadline first, and a request that completes first leaves no
    // deadline behind.
    use bm_core::{Request, ServeConfig};
    use bm_trace::{EventKind, RingBufferSink};

    let m = LstmLm::small();
    let sink = Arc::new(RingBufferSink::new(64));
    let mut eng = CellularEngine::new(
        Arc::new(m.registry().clone()),
        SchedulerConfig::new().serve(ServeConfig::new().deadline_us(50).trace(sink.clone())),
    );
    let input = RequestInput::Sequence(vec![1; 2]);
    let arrive = |eng: &mut CellularEngine, id: u64, now: u64, req: Request| {
        eng.on_request(RequestId(id), m.unfold(&input), now, &req);
    };
    arrive(&mut eng, 0, 0, Request::from(&input)); // default: due at 50
    arrive(&mut eng, 1, 0, Request::from(&input).deadline_us(30)); // due at 30
    arrive(&mut eng, 2, 10, Request::from(&input).no_deadline());
    arrive(&mut eng, 3, 10, Request::from(&input).deadline_us(5)); // due at 15
    assert_eq!(eng.next_deadline(), Some(15));

    // Request 3 completes before its deadline: nothing of it stays due.
    let mut now = 10;
    while eng.active_requests() == 4 {
        for t in eng.dispatch(WorkerId(0)) {
            now += 1;
            complete(&mut eng, &t, now);
        }
    }
    assert!(now < 15, "the batch of four finished by {now}");
    assert_eq!(eng.active_requests(), 0, "all four were two steps long");
    assert_eq!(eng.next_deadline(), None);
    sink.drain();

    for id in 4..8 {
        arrive(&mut eng, id, 100, Request::from(&input).deadline_us(8 - id));
    }
    let ids = |done: Vec<bm_core::CompletedRequest>| -> Vec<u64> {
        done.iter().map(|c| c.id.0).collect()
    };
    assert!(eng.expire(100).is_empty());
    assert_eq!(ids(eng.expire(102)), [7, 6]);
    assert_eq!(ids(eng.expire(104)), [5, 4]);
    let expired: Vec<u64> = sink
        .drain()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::RequestExpired { request } => Some(request),
            _ => None,
        })
        .collect();
    assert_eq!(expired, [7, 6, 5, 4]);
    assert_eq!(eng.stats().requests_expired, 4);
    assert_eq!(eng.next_deadline(), None);
}

#[test]
fn telemetry_reconciles_with_scheduler_stats() {
    // The metrics plane must agree exactly with the engine's own
    // cumulative stats, and the four-stage latency decomposition must
    // telescope to exactly the end-to-end latency of every completed
    // request.
    use bm_core::ServeConfig;
    use bm_telemetry::{MetricValue, Telemetry};

    let m = LstmLm::small();
    let tel = Telemetry::new();
    let mut eng = CellularEngine::new(
        Arc::new(m.registry().clone()),
        SchedulerConfig::new()
            .max_tasks_to_submit(3)
            .serve(ServeConfig::new().telemetry(Arc::clone(&tel))),
    );

    let n = 8u64;
    for r in 0..n {
        eng.on_arrival(
            RequestId(r),
            m.unfold(&RequestInput::Sequence(vec![1; 2 + (r as usize % 5)])),
            r * 5,
            None,
        );
    }
    let mut now = 40;
    let mut done = Vec::new();
    while eng.active_requests() > 0 {
        for t in eng.dispatch(WorkerId(0)) {
            now += 7;
            done.extend(complete(&mut eng, &t, now));
        }
    }
    assert_eq!(done.len(), n as usize);

    let stats = eng.stats();
    let snap = tel.snapshot();
    assert_eq!(snap.counter_sum("bm_requests_admitted_total"), n);
    assert_eq!(
        snap.counter_sum("bm_requests_completed_total"),
        stats.requests_completed
    );
    assert_eq!(
        snap.counter_sum("bm_tasks_submitted_total"),
        stats.tasks_submitted
    );
    assert_eq!(
        snap.counter_sum("bm_gather_rows_total"),
        stats.gathered_rows
    );
    assert_eq!(snap.counter_sum("bm_transfer_rows_total"), stats.transfers);
    assert_eq!(
        snap.counter_sum("bm_batch_reason_total"),
        stats.tasks_submitted,
        "every task is attributed to exactly one Algorithm 1 branch"
    );

    // Batch-size histogram: exact count is the task count, exact sum is
    // the node-invocation count.
    let (mut bcount, mut bsum) = (0u64, 0u64);
    let (mut stage_sum, mut stage_count) = (0u64, 0u64);
    for e in &snap.entries {
        if let MetricValue::Histogram(h) = &e.value {
            match e.name.as_str() {
                "bm_batch_size" => {
                    bcount += h.count;
                    bsum += h.sum;
                }
                "bm_stage_us" => {
                    stage_count += h.count;
                    stage_sum += h.sum;
                }
                _ => {}
            }
        }
    }
    assert_eq!(bcount, stats.tasks_submitted);
    assert_eq!(bsum, stats.nodes_submitted);

    // Stage decomposition telescopes exactly: four samples per
    // completed request summing to completion - arrival.
    let e2e: u64 = done.iter().map(|c| c.completion_us - c.arrival_us).sum();
    assert_eq!(stage_count, 4 * stats.requests_completed);
    assert_eq!(stage_sum, e2e);

    // A drained engine's gauges read zero.
    for (name, want) in [
        ("bm_active_requests", 0i64),
        ("bm_inflight_tasks", 0),
        ("bm_ready_nodes", 0),
    ] {
        match snap.get_with(name, &[]) {
            Some(MetricValue::Gauge(g)) => assert_eq!(*g, want, "{name}"),
            other => panic!("missing gauge {name}: {other:?}"),
        }
    }
}

#[test]
fn detached_telemetry_records_nothing() {
    let m = LstmLm::small();
    // The default config carries the disabled registry.
    let mut eng = engine_for(&m, 3);
    eng.on_arrival(
        RequestId(0),
        m.unfold(&RequestInput::Sequence(vec![1; 3])),
        0,
        None,
    );
    for t in eng.dispatch(WorkerId(0)) {
        complete(&mut eng, &t, 10);
    }
    // The disabled registry hands out no handles, so nothing registers.
    assert!(bm_telemetry::Telemetry::disabled()
        .snapshot()
        .entries
        .is_empty());
    assert_eq!(eng.stats().requests_completed, 1);
}
