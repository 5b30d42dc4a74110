//! Round-trip test: export a synthetic event stream with
//! [`bm_trace::chrome_trace`] and re-read it with the independent
//! [`bm_telemetry::json`] parser, checking the structural invariants
//! Perfetto relies on: valid JSON, non-decreasing `ts`, and matched
//! `B`/`E` pairs per track.

use bm_telemetry::json::{parse, Value};
use bm_trace::{chrome_trace, BatchReason, EventKind, RejectReason, TraceEvent};

/// A small but representative run: two workers, three requests (one
/// batched across tasks, one cancelled, one rejected), with pins,
/// a migration and an expiry.
fn synthetic_events() -> Vec<TraceEvent> {
    fn ev(ts_us: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { ts_us, kind }
    }
    vec![
        ev(
            10,
            EventKind::RequestArrived {
                request: 1,
                nodes: 4,
                subgraphs: 1,
            },
        ),
        ev(
            12,
            EventKind::RequestArrived {
                request: 2,
                nodes: 2,
                subgraphs: 1,
            },
        ),
        ev(
            13,
            EventKind::RequestRejected {
                request: 3,
                reason: RejectReason::AtCapacity,
            },
        ),
        ev(
            15,
            EventKind::NodesEnqueued {
                request: 1,
                subgraph: 0,
                cell_type: 0,
                count: 2,
            },
        ),
        ev(
            20,
            EventKind::BatchFormed {
                task: 100,
                worker: 0,
                cell_type: 0,
                batch: 2,
                reason: BatchReason::Saturation,
                gather_rows: 2,
                transfer_rows: 0,
                requests: vec![1, 2],
            },
        ),
        ev(
            20,
            EventKind::SubgraphPinned {
                subgraph: 0,
                request: 1,
                worker: 0,
            },
        ),
        ev(
            21,
            EventKind::TaskStarted {
                task: 100,
                worker: 0,
            },
        ),
        ev(
            40,
            EventKind::TaskCompleted {
                task: 100,
                worker: 0,
            },
        ),
        ev(
            41,
            EventKind::SubgraphMigrated {
                subgraph: 0,
                request: 1,
                from: 0,
                to: 1,
                rows: 2,
            },
        ),
        ev(
            45,
            EventKind::BatchFormed {
                task: 101,
                worker: 1,
                cell_type: 1,
                batch: 1,
                reason: BatchReason::Starvation,
                gather_rows: 1,
                transfer_rows: 1,
                requests: vec![1],
            },
        ),
        ev(
            46,
            EventKind::TaskStarted {
                task: 101,
                worker: 1,
            },
        ),
        // Zero-duration slice: completes at the same instant it starts.
        ev(
            46,
            EventKind::TaskCompleted {
                task: 101,
                worker: 1,
            },
        ),
        ev(
            50,
            EventKind::CancelRequested {
                request: 2,
                dropped_nodes: 1,
                draining: false,
            },
        ),
        ev(
            50,
            EventKind::RequestCompleted {
                request: 2,
                executed: 1,
                total: 2,
                cancelled: true,
            },
        ),
        ev(55, EventKind::RequestExpired { request: 4 }),
        ev(
            60,
            EventKind::RequestCompleted {
                request: 1,
                executed: 4,
                total: 4,
                cancelled: false,
            },
        ),
    ]
}

fn trace_events(doc: &Value) -> &[Value] {
    doc.get("traceEvents")
        .expect("traceEvents key")
        .as_arr()
        .expect("traceEvents is an array")
}

#[test]
fn exporter_output_parses_as_json() {
    let json = chrome_trace(&synthetic_events());
    let doc = parse(&json).expect("exporter output must be valid JSON");
    let evs = trace_events(&doc);
    assert!(!evs.is_empty(), "exporter emitted no events");
    for e in evs {
        assert!(e.get("ph").is_some(), "every event carries a phase: {e:?}");
        assert!(e.get("pid").is_some(), "every event carries a pid: {e:?}");
        assert!(e.get("tid").is_some(), "every event carries a tid: {e:?}");
    }
}

#[test]
fn timestamps_are_monotonic() {
    let json = chrome_trace(&synthetic_events());
    let doc = parse(&json).expect("valid JSON");
    // Metadata (`ph: "M"`) events carry no `ts`; every other event must,
    // and in file order those timestamps never decrease.
    let mut last = 0u64;
    for e in trace_events(&doc) {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        match e.get("ts") {
            None => assert_eq!(ph, "M", "only metadata may omit ts, got {ph:?}"),
            Some(ts) => {
                let ts = ts.as_u64().expect("ts is a non-negative integer");
                assert!(ts >= last, "ts went backwards: {ts} after {last}");
                last = ts;
            }
        }
    }
}

#[test]
fn begin_end_pairs_match_per_track() {
    let json = chrome_trace(&synthetic_events());
    let doc = parse(&json).expect("valid JSON");
    // Walk each track's B/E events in file order as a stack discipline:
    // every E closes the most recent open B on the same tid, and no
    // slices remain open at the end.
    let mut depth: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
    let mut slices = 0;
    for e in trace_events(&doc) {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        if ph != "B" && ph != "E" {
            continue;
        }
        let tid = e.get("tid").unwrap().as_u64().unwrap();
        let d = depth.entry(tid).or_insert(0);
        if ph == "B" {
            *d += 1;
            slices += 1;
        } else {
            *d -= 1;
            assert!(*d >= 0, "E without a matching open B on tid {tid}");
        }
    }
    assert_eq!(slices, 2, "both executed tasks become slices");
    for (tid, d) in depth {
        assert_eq!(d, 0, "unclosed slice on tid {tid}");
    }
}

#[test]
fn tracks_reasons_and_flows_survive_round_trip() {
    let json = chrome_trace(&synthetic_events());
    let doc = parse(&json).expect("valid JSON");
    let evs = trace_events(&doc);

    // One named track per worker plus the scheduler track.
    let mut thread_names: Vec<String> = evs
        .iter()
        .filter(|e| {
            e.get("ph").unwrap().as_str() == Some("M")
                && e.get("name").unwrap().as_str() == Some("thread_name")
        })
        .map(|e| {
            e.get("args")
                .unwrap()
                .get("name")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();
    thread_names.sort();
    assert_eq!(thread_names, ["scheduler", "worker 0", "worker 1"]);

    // Batch-formation reasons survive on both the slice and the instant.
    let reason_of = |ph: &str, task: u64| -> Option<String> {
        evs.iter().find_map(|e| {
            if e.get("ph").unwrap().as_str() != Some(ph) {
                return None;
            }
            let args = e.get("args")?;
            if args.get("task")?.as_u64() != Some(task) {
                return None;
            }
            Some(args.get("reason")?.as_str()?.to_string())
        })
    };
    assert_eq!(reason_of("B", 100).as_deref(), Some("saturation"));
    assert_eq!(reason_of("i", 100).as_deref(), Some("saturation"));
    assert_eq!(reason_of("B", 101).as_deref(), Some("starvation"));

    // Request 1 spans two tasks, so its flow chain has a start, a step
    // and a finish, all sharing the flow id.
    let flow_phases: Vec<&str> = evs
        .iter()
        .filter(|e| e.get("id").and_then(Value::as_u64) == Some(1))
        .map(|e| e.get("ph").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(flow_phases, ["s", "t", "f"]);
}
