//! Property-based invariants of the cellular-batching scheduler, driven
//! with randomized workloads across all three models.
//!
//! For any arrival pattern the scheduler must:
//! - execute every node of every request exactly once (no drops, no
//!   duplicates);
//! - never batch nodes of different cell types into one task;
//! - never exceed the cell type's maximum batch size;
//! - respect dependencies (a node only runs after its dependencies);
//! - pin subgraphs: concurrent in-flight tasks of one subgraph stay on
//!   one worker;
//! - complete every request (no livelock) with monotone timestamps.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bm_core::{CellularEngine, RequestId, SchedulerConfig, ServeConfig, WorkerId};
use bm_model::{LstmLm, Model, RequestInput, Seq2Seq, TreeLstm, TreeShape};
use proptest::prelude::*;

/// A random tree shape with up to `depth` levels.
fn tree_strategy(depth: u32) -> impl Strategy<Value = TreeShape> {
    let leaf = (0u32..100).prop_map(TreeShape::leaf);
    leaf.prop_recursive(depth, 24, 2, |inner| {
        (inner.clone(), inner).prop_map(|(l, r)| TreeShape::internal(l, r))
    })
}

#[derive(Debug, Clone)]
enum Workload {
    Lstm(Vec<Vec<u32>>),
    Seq2Seq(Vec<(Vec<u32>, usize)>),
    Tree(Vec<TreeShape>),
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    prop_oneof![
        proptest::collection::vec(proptest::collection::vec(0u32..100, 1..12), 1..12)
            .prop_map(Workload::Lstm),
        proptest::collection::vec(
            (proptest::collection::vec(2u32..100, 1..8), 1usize..8),
            1..10
        )
        .prop_map(Workload::Seq2Seq),
        proptest::collection::vec(tree_strategy(4), 1..10).prop_map(Workload::Tree),
    ]
}

fn build(workload: &Workload) -> (Arc<dyn Model>, Vec<RequestInput>) {
    match workload {
        Workload::Lstm(seqs) => (
            Arc::new(LstmLm::small()),
            seqs.iter()
                .map(|s| RequestInput::Sequence(s.clone()))
                .collect(),
        ),
        Workload::Seq2Seq(pairs) => (
            Arc::new(Seq2Seq::small()),
            pairs
                .iter()
                .map(|(src, d)| RequestInput::Pair {
                    src: src.clone(),
                    decode_len: *d,
                })
                .collect(),
        ),
        Workload::Tree(trees) => (
            Arc::new(TreeLstm::small()),
            trees
                .iter()
                .map(|t| RequestInput::Tree(t.clone()))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scheduler_invariants_hold(
        workload in workload_strategy(),
        workers in 1usize..4,
        max_tasks in 1usize..6,
        arrival_spread in 0u64..50,
    ) {
        let (model, inputs) = build(&workload);
        let registry = Arc::new(model.registry().clone());
        let mut engine = CellularEngine::new(
            Arc::clone(&registry),
            SchedulerConfig::new().max_tasks_to_submit(max_tasks),
        );

        // Admit requests at staggered times.
        let mut expected_nodes: HashMap<u64, usize> = HashMap::new();
        for (i, input) in inputs.iter().enumerate() {
            let graph = model.unfold(input);
            expected_nodes.insert(i as u64, graph.len());
            engine.on_arrival(RequestId(i as u64), graph, i as u64 * arrival_spread, None);
        }

        // Drive to completion round-robin over workers, one task at a
        // time per worker (serial virtual time).
        let mut executed: HashSet<(u64, u32)> = HashSet::new();
        let mut completed: HashMap<u64, (u64, usize)> = HashMap::new();
        let mut now = 1000;
        let mut stalled = 0;
        // Per-subgraph pinning check: subgraph -> (worker, open tasks).
        let mut sg_pins: HashMap<bm_core::SubgraphId, u32> = HashMap::new();
        while engine.active_requests() > 0 {
            let mut progressed = false;
            for w in 0..workers {
                let tasks = engine.dispatch(WorkerId(w as u32));
                for t in &tasks {
                    // One cell type per task, within max batch.
                    let meta = registry.meta(t.cell_type);
                    prop_assert!(t.batch_size() <= meta.max_batch);
                    prop_assert!(!t.entries.is_empty());
                    for sg in t.subgraphs.iter() {
                        // A subgraph with in-flight tasks must stay on
                        // one worker.
                        if let Some(prev) = sg_pins.get(sg) {
                            prop_assert_eq!(*prev, t.worker.0, "subgraph moved while pinned");
                        }
                        sg_pins.insert(*sg, t.worker.0);
                    }
                    for e in &t.entries {
                        // Exactly-once execution.
                        prop_assert!(
                            executed.insert((e.request.0, e.node.0)),
                            "node executed twice"
                        );
                        // Dependencies executed first (same worker FIFO
                        // or completed earlier).
                        for d in e.deps.iter() {
                            prop_assert!(
                                executed.contains(&(e.request.0, d.0)),
                                "dependency not yet executed"
                            );
                        }
                    }
                }
                // Complete the tasks in order.
                for t in tasks {
                    now += 1;
                    engine.on_task_started(t.id, now);
                    let tokens = vec![None; t.entries.len()];
                    for c in engine.on_task_completed(t.id, &tokens, now) {
                        prop_assert!(c.start_us <= c.completion_us);
                        prop_assert!(c.arrival_us <= c.start_us);
                        completed.insert(c.id.0, (c.completion_us, c.executed_nodes));
                    }
                    // Task closed; its subgraphs may unpin. Conservatively
                    // clear and let future tasks re-pin.
                    for sg in t.subgraphs.iter() {
                        sg_pins.remove(sg);
                    }
                    progressed = true;
                }
            }
            if !progressed {
                stalled += 1;
                prop_assert!(stalled < 3, "scheduler wedged with work remaining");
            } else {
                stalled = 0;
            }
        }

        // Every request completed, with every node executed exactly once.
        prop_assert_eq!(completed.len(), inputs.len());
        for (req, n) in &expected_nodes {
            let (_, executed_nodes) = completed[req];
            prop_assert_eq!(executed_nodes, *n, "request {} node count", req);
        }
        let total: usize = expected_nodes.values().sum();
        prop_assert_eq!(executed.len(), total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Expiry invariants: under arbitrary deadlines and `expire` timing
    /// each request resolves exactly once (a normal completion or one
    /// cancelled record), no node of an expired request is dispatched
    /// after its expiry, the engine always drains, and after every step
    /// `next_deadline` is the earliest deadline of a request that has
    /// neither resolved nor expired.
    #[test]
    fn cancellation_resolves_each_request_exactly_once(
        workload in workload_strategy(),
        workers in 1usize..4,
        max_tasks in 1usize..6,
        // Per request: a deadline offset from t = 1000, or none (≥ 50).
        offsets in proptest::collection::vec(0u64..80, 12..13),
        expire_rounds in proptest::collection::vec(0u64..30, 1..8),
    ) {
        let (model, inputs) = build(&workload);
        let registry = Arc::new(model.registry().clone());
        let mut engine = CellularEngine::new(
            Arc::clone(&registry),
            SchedulerConfig::new().max_tasks_to_submit(max_tasks),
        );

        let mut expected_nodes: HashMap<u64, usize> = HashMap::new();
        let mut deadline: HashMap<u64, u64> = HashMap::new();
        for (i, input) in inputs.iter().enumerate() {
            let graph = model.unfold(input);
            expected_nodes.insert(i as u64, graph.len());
            let d = (offsets[i] < 50).then_some(1000 + offsets[i]);
            if let Some(d) = d {
                deadline.insert(i as u64, d);
            }
            engine.on_arrival(RequestId(i as u64), graph, i as u64, d);
        }

        let mut expired: HashSet<u64> = HashSet::new();
        // request -> cancelled flag of its single completion record.
        let mut resolved: HashMap<u64, bool> = HashMap::new();
        // The earliest deadline still pending: of a request that has
        // neither resolved nor expired.
        let pending_min = |resolved: &HashMap<u64, bool>, expired: &HashSet<u64>| {
            deadline
                .iter()
                .filter(|(r, _)| !resolved.contains_key(r) && !expired.contains(r))
                .map(|(_, &d)| d)
                .min()
        };
        prop_assert_eq!(engine.next_deadline(), pending_min(&resolved, &expired));
        let mut now = 1000u64;
        let mut round = 0u64;
        let mut stalled = 0;
        while engine.active_requests() > 0 {
            // Dispatch first so this round's expiry lands while tasks
            // are in flight, exercising the draining path.
            let mut inflight = Vec::new();
            for w in 0..workers {
                for t in engine.dispatch(WorkerId(w as u32)) {
                    for e in &t.entries {
                        prop_assert!(
                            !expired.contains(&e.request.0),
                            "dispatched a node of expired request {}", e.request.0
                        );
                    }
                    inflight.push(t);
                }
                prop_assert_eq!(engine.next_deadline(), pending_min(&resolved, &expired));
            }

            if expire_rounds.contains(&round) {
                let due: HashSet<u64> = deadline
                    .iter()
                    .filter(|&(r, &d)| d <= now && !resolved.contains_key(r) && !expired.contains(r))
                    .map(|(&r, _)| r)
                    .collect();
                let before = engine.stats().requests_expired;
                for c in engine.expire(now) {
                    prop_assert!(c.cancelled);
                    prop_assert!(due.contains(&c.id.0), "expired request {} not due", c.id.0);
                    prop_assert!(
                        resolved.insert(c.id.0, true).is_none(),
                        "request {} resolved twice", c.id.0
                    );
                }
                // Exactly the due requests expired: none that resolved
                // first, none twice; the ones without a record drain.
                prop_assert_eq!(engine.stats().requests_expired - before, due.len() as u64);
                expired.extend(due);
                prop_assert_eq!(engine.next_deadline(), pending_min(&resolved, &expired));
            }
            round += 1;

            let progressed = !inflight.is_empty();
            for t in inflight {
                now += 1;
                engine.on_task_started(t.id, now);
                let tokens = vec![None; t.entries.len()];
                for c in engine.on_task_completed(t.id, &tokens, now) {
                    prop_assert_eq!(
                        c.cancelled,
                        expired.contains(&c.id.0),
                        "cancelled flag mismatch for request {}", c.id.0
                    );
                    if !c.cancelled {
                        prop_assert_eq!(c.executed_nodes, expected_nodes[&c.id.0]);
                    }
                    prop_assert!(
                        resolved.insert(c.id.0, c.cancelled).is_none(),
                        "request {} resolved twice", c.id.0
                    );
                }
                prop_assert_eq!(engine.next_deadline(), pending_min(&resolved, &expired));
            }
            if !progressed {
                stalled += 1;
                prop_assert!(stalled < 3, "engine wedged with work remaining");
            } else {
                stalled = 0;
            }
        }

        // Fully drained, every request resolved exactly once, and the
        // stats ledger agrees with the records.
        prop_assert_eq!(resolved.len(), inputs.len());
        prop_assert_eq!(engine.next_deadline(), None);
        for w in 0..workers {
            prop_assert!(engine.dispatch(WorkerId(w as u32)).is_empty());
        }
        let stats = engine.stats();
        prop_assert_eq!(
            stats.requests_completed + stats.requests_cancelled,
            inputs.len() as u64
        );
        prop_assert_eq!(
            stats.requests_cancelled,
            resolved.values().filter(|&&c| c).count() as u64
        );
        prop_assert_eq!(stats.requests_expired, expired.len() as u64);
        prop_assert_eq!(stats.requests_cancelled, stats.requests_expired);
    }
}

/// Re-derives Algorithm 1's cell-type selection (lines 5–10) from the
/// engine's observable queue depths: saturation, then starvation, then
/// priority; highest priority wins ties, last registry entry winning
/// equal-priority ties (`max_by_key` keeps the last maximum).
fn predict_alg1(
    metas: &[(usize, u32)],    // (max_batch, priority) per type index
    depths: &[(usize, usize)], // (ready_nodes, running_tasks)
) -> Option<(usize, bm_trace::BatchReason)> {
    use bm_trace::BatchReason;
    let tier = |f: &dyn Fn(usize) -> bool| -> Option<usize> {
        (0..metas.len())
            .filter(|&i| depths[i].0 > 0 && f(i))
            .max_by_key(|&i| metas[i].1)
    };
    if let Some(i) = tier(&|i| depths[i].0 >= metas[i].0) {
        return Some((i, BatchReason::Saturation));
    }
    if let Some(i) = tier(&|i| depths[i].1 == 0) {
        return Some((i, BatchReason::Starvation));
    }
    tier(&|_| true).map(|i| (i, BatchReason::Priority))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's picks match an independent re-implementation of
    /// Algorithm 1 derived only from observable queue depths: same cell
    /// type and same recorded `BatchReason`, across all three models
    /// and in-flight depths. Single worker, so subgraph pinning can
    /// never mask the selection.
    ///
    /// Depth 0 is the runtime's drive pattern: a shard completes every
    /// task of a `dispatch` before the next one, so no type has a
    /// running task at a pick and the first task is never merely
    /// priority-qualified.
    #[test]
    fn dispatch_matches_algorithm1_oracle(
        workload in workload_strategy(),
        max_tasks in 1usize..6,
        depth in 0usize..4,
    ) {
        use bm_trace::{EventKind, RingBufferSink};

        let (model, inputs) = build(&workload);
        let registry = Arc::new(model.registry().clone());
        let metas: Vec<(usize, u32)> = registry
            .iter()
            .map(|m| (m.max_batch, m.priority))
            .collect();
        let sink = Arc::new(RingBufferSink::new(4096));
        let mut engine = CellularEngine::new(
            Arc::clone(&registry),
            SchedulerConfig::new()
                .max_tasks_to_submit(max_tasks)
                .serve(ServeConfig::new().trace(sink.clone())),
        );

        for (i, input) in inputs.iter().enumerate() {
            engine.on_arrival(RequestId(i as u64), model.unfold(input), i as u64, None);
        }
        sink.drain();

        let mut inflight: std::collections::VecDeque<bm_core::Task> = Default::default();
        let mut now = 1000u64;
        while engine.active_requests() > 0 {
            let depths = engine.queue_depths();
            let predicted = predict_alg1(&metas, &depths);
            let tasks = engine.dispatch(WorkerId(0));
            let formed: Vec<bm_trace::BatchReason> = sink
                .drain()
                .into_iter()
                .filter_map(|e| match e.kind {
                    EventKind::BatchFormed { reason, .. } => Some(reason),
                    _ => None,
                })
                .collect();
            match predicted {
                Some((ct, reason)) => {
                    prop_assert!(!tasks.is_empty(), "oracle expected a batch");
                    prop_assert_eq!(tasks[0].cell_type.index(), ct, "cell type diverged");
                    prop_assert_eq!(formed.len(), tasks.len());
                    prop_assert_eq!(formed[0], reason, "selection reason diverged");
                    if depth == 0 {
                        prop_assert!(
                            formed[0] != bm_trace::BatchReason::Priority,
                            "a pick with nothing running was priority-only"
                        );
                    }
                }
                None => prop_assert!(tasks.is_empty(), "batch the oracle ruled out"),
            }
            let dispatched = !tasks.is_empty();
            inflight.extend(tasks);
            prop_assert!(
                dispatched || !inflight.is_empty(),
                "engine wedged with work remaining"
            );
            let keep = if dispatched { depth } else { 0 };
            while inflight.len() > keep {
                let t = inflight.pop_front().expect("nonempty");
                now += 1;
                engine.on_task_started(t.id, now);
                let tokens = vec![None; t.entries.len()];
                engine.on_task_completed(t.id, &tokens, now);
            }
        }
    }
}

/// Drains the sink's `BatchFormed` reasons.
fn formed_reasons(sink: &bm_trace::RingBufferSink) -> Vec<bm_trace::BatchReason> {
    sink.drain()
        .into_iter()
        .filter_map(|e| match e.kind {
            bm_trace::EventKind::BatchFormed { reason, .. } => Some(reason),
            _ => None,
        })
        .collect()
}

/// Regression (stale batch reason): when one `dispatch` call forms
/// several tasks, follow-on tasks must be labelled against the queue
/// state they actually saw, not the selection-time reason. Five
/// single-node requests against `max_batch = 4` form a saturated
/// 4-batch plus a 1-node leftover; the leftover is merely
/// priority-qualified (the first task is still running) and must not
/// inherit the `Saturation` label.
#[test]
fn follow_on_tasks_requalify_their_reason() {
    use bm_model::{LstmLm, LstmLmConfig};
    use bm_trace::{BatchReason, RingBufferSink};

    let model = LstmLm::new(LstmLmConfig {
        max_batch: 4,
        ..Default::default()
    });
    let registry = Arc::new(model.registry().clone());
    let sink = Arc::new(RingBufferSink::new(64));
    let mut engine = CellularEngine::new(
        Arc::clone(&registry),
        SchedulerConfig::new()
            .max_tasks_to_submit(4)
            .serve(ServeConfig::new().trace(sink.clone())),
    );

    for i in 0..5u64 {
        engine.on_arrival(
            RequestId(i),
            model.unfold(&RequestInput::Sequence(vec![1])),
            0,
            None,
        );
    }
    sink.drain();
    let tasks = engine.dispatch(WorkerId(0));
    assert_eq!(tasks.len(), 2);
    assert_eq!(tasks[0].batch_size(), 4);
    assert_eq!(tasks[1].batch_size(), 1);
    assert_eq!(
        formed_reasons(&sink),
        vec![BatchReason::Saturation, BatchReason::Priority],
        "follow-on task must requalify, not inherit Saturation"
    );
}

/// Regression (worker-oblivious cell-type pick): a worker must not
/// idle because the highest-priority type's only ready subgraph is
/// pinned to a *different* worker while another type has unpinned
/// ready work. Seq2Seq gives the decoder priority over the encoder;
/// worker 0 holds both an in-flight decoder task (pinning request A's
/// decoder subgraph, which has a further ready node) and an in-flight
/// encoder task, so for worker 1 the pick must fall through the pinned
/// decoder to request B's unpinned encoder work.
#[test]
fn pick_falls_through_type_pinned_to_other_worker() {
    let model = Seq2Seq::small();
    let registry = Arc::new(model.registry().clone());
    let mut engine = CellularEngine::new(
        Arc::clone(&registry),
        SchedulerConfig::new().max_tasks_to_submit(1),
    );
    let mut now = 0u64;
    let finish = |engine: &mut CellularEngine, t: &bm_core::Task, now: &mut u64| {
        *now += 1;
        engine.on_task_started(t.id, *now);
        engine.on_task_completed(t.id, &vec![None; t.entries.len()], *now);
    };

    // Request A: run its encoder to completion on worker 0, then start
    // (and keep in flight) its first decoder step — pinning A's decoder
    // subgraph, whose next node is now ready, to worker 0.
    engine.on_arrival(
        RequestId(0),
        model.unfold(&RequestInput::Pair {
            src: vec![2, 3],
            decode_len: 3,
        }),
        now,
        None,
    );
    for _ in 0..2 {
        let t = engine.dispatch(WorkerId(0));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].cell_type, model.encoder_type());
        finish(&mut engine, &t[0], &mut now);
    }
    let dec = engine.dispatch(WorkerId(0));
    assert_eq!(dec.len(), 1);
    assert_eq!(dec[0].cell_type, model.decoder_type());
    engine.on_task_started(dec[0].id, now);

    // Request C: its single-node encoder task goes in flight on worker
    // 0 too, so the encoder is no longer starving.
    engine.on_arrival(
        RequestId(2),
        model.unfold(&RequestInput::Pair {
            src: vec![2],
            decode_len: 1,
        }),
        now,
        None,
    );
    let enc = engine.dispatch(WorkerId(0));
    assert_eq!(enc.len(), 1);
    assert_eq!(enc[0].cell_type, model.encoder_type());
    engine.on_task_started(enc[0].id, now);

    // Request B arrives with unpinned encoder work. The pick for worker
    // 1 prefers the decoder (higher priority, ready node), but its only
    // ready subgraph is pinned to worker 0 — the scheduler must fall
    // through to the encoder instead of idling worker 1.
    engine.on_arrival(
        RequestId(1),
        model.unfold(&RequestInput::Pair {
            src: vec![2],
            decode_len: 1,
        }),
        now,
        None,
    );
    let tasks = engine.dispatch(WorkerId(1));
    assert_eq!(tasks.len(), 1, "worker 1 idled despite unpinned ready work");
    assert_eq!(tasks[0].cell_type, model.encoder_type());
    assert_eq!(tasks[0].entries.len(), 1);
    assert_eq!(tasks[0].entries[0].request, RequestId(1));
}
