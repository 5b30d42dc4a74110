//! Per-request timeline reconstruction from scheduler trace events.
//!
//! A [`bm_trace::TraceSink`] captures a flat, interleaved event stream;
//! this module regroups it by request. Task-level events
//! (`task_started`, `task_completed`) carry no request id — the
//! `batch_formed` event that created the task does, so reconstruction
//! first builds a task → requests map and then attributes each task
//! event to every request batched into it.

use std::collections::HashMap;

use bm_trace::{EventKind, TraceEvent};

/// One step in a request's reconstructed lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Timestamp, µs on the driver's clock.
    pub ts_us: u64,
    /// Stable snake_case event name (see [`EventKind::name`]).
    pub label: &'static str,
    /// Human-readable detail, e.g. `"task 4 on worker 1 (batch 12, saturation)"`.
    pub detail: String,
}

/// The reconstructed lifecycle of one request, oldest entry first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTimeline {
    /// The request id.
    pub request: u64,
    /// Lifecycle steps ordered by timestamp (ties keep trace order).
    pub entries: Vec<TimelineEntry>,
}

impl RequestTimeline {
    /// Timestamp of the `request_arrived` entry, if captured.
    pub fn arrival_us(&self) -> Option<u64> {
        self.ts_of("request_arrived")
    }

    /// Timestamp of the first batch containing this request — when the
    /// scheduler first dispatched any of its nodes.
    pub fn first_dispatch_us(&self) -> Option<u64> {
        self.ts_of("batch_formed")
    }

    /// Timestamp of the terminal entry (`request_completed`,
    /// `request_expired` or `request_rejected`), if captured.
    pub fn end_us(&self) -> Option<u64> {
        self.entries
            .iter()
            .rev()
            .find(|e| {
                matches!(
                    e.label,
                    "request_completed" | "request_expired" | "request_rejected"
                )
            })
            .map(|e| e.ts_us)
    }

    fn ts_of(&self, label: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.label == label)
            .map(|e| e.ts_us)
    }

    /// Renders the timeline as aligned plain text, one entry per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let span = match (self.arrival_us(), self.end_us()) {
            (Some(a), Some(e)) => format!(" ({} µs in system)", e.saturating_sub(a)),
            _ => String::new(),
        };
        out.push_str(&format!("request {}{span}\n", self.request));
        for e in &self.entries {
            out.push_str(&format!(
                "  {:>12} µs  {:<18} {}\n",
                e.ts_us, e.label, e.detail
            ));
        }
        out
    }
}

/// Regroups a flat trace into per-request timelines, ordered by first
/// appearance in the trace. Events naming no request (and tasks whose
/// `batch_formed` fell outside the captured window) are skipped.
///
/// Each timeline is sorted by timestamp (stable, so simultaneous events
/// keep their trace order): under pipelined dispatch the manager learns
/// a task's worker-clock start time only when its completion drains, so
/// the raw stream can record a later dispatch before an earlier start.
pub fn reconstruct_timelines(events: &[TraceEvent]) -> Vec<RequestTimeline> {
    // Pass 1: task → (requests, worker, detail context) from batch_formed.
    let mut task_requests: HashMap<u64, Vec<u64>> = HashMap::new();
    for ev in events {
        if let EventKind::BatchFormed { task, requests, .. } = &ev.kind {
            task_requests.insert(*task, requests.clone());
        }
    }

    // Pass 2: attribute every event to its request(s), preserving order.
    let mut order: Vec<u64> = Vec::new();
    let mut by_request: HashMap<u64, Vec<TimelineEntry>> = HashMap::new();
    let mut push = |order: &mut Vec<u64>, req: u64, entry: TimelineEntry| {
        by_request
            .entry(req)
            .or_insert_with(|| {
                order.push(req);
                Vec::new()
            })
            .push(entry);
    };

    for ev in events {
        let label = ev.kind.name();
        match &ev.kind {
            EventKind::RequestArrived {
                request,
                nodes,
                subgraphs,
            } => push(
                &mut order,
                *request,
                TimelineEntry {
                    ts_us: ev.ts_us,
                    label,
                    detail: format!("{nodes} nodes in {subgraphs} subgraph(s)"),
                },
            ),
            EventKind::RequestRejected { request, reason } => push(
                &mut order,
                *request,
                TimelineEntry {
                    ts_us: ev.ts_us,
                    label,
                    detail: format!("reason={reason}"),
                },
            ),
            EventKind::NodesEnqueued {
                request,
                subgraph,
                cell_type,
                count,
            } => push(
                &mut order,
                *request,
                TimelineEntry {
                    ts_us: ev.ts_us,
                    label,
                    detail: format!(
                        "{count} node(s) of subgraph {subgraph} on cell type {cell_type}"
                    ),
                },
            ),
            EventKind::BatchFormed {
                task,
                worker,
                cell_type,
                batch,
                reason,
                requests,
                ..
            } => {
                for req in requests {
                    push(
                        &mut order,
                        *req,
                        TimelineEntry {
                            ts_us: ev.ts_us,
                            label,
                            detail: format!(
                                "task {task} on worker {worker} \
                                 (cell type {cell_type}, batch {batch}, {reason})"
                            ),
                        },
                    );
                }
            }
            EventKind::TaskStarted { task, worker } | EventKind::TaskCompleted { task, worker } => {
                if let Some(reqs) = task_requests.get(task) {
                    for req in reqs {
                        push(
                            &mut order,
                            *req,
                            TimelineEntry {
                                ts_us: ev.ts_us,
                                label,
                                detail: format!("task {task} on worker {worker}"),
                            },
                        );
                    }
                }
            }
            EventKind::SubgraphPinned {
                subgraph,
                request,
                worker,
            } => push(
                &mut order,
                *request,
                TimelineEntry {
                    ts_us: ev.ts_us,
                    label,
                    detail: format!("subgraph {subgraph} pinned to worker {worker}"),
                },
            ),
            EventKind::SubgraphMigrated {
                subgraph,
                request,
                from,
                to,
                rows,
            } => push(
                &mut order,
                *request,
                TimelineEntry {
                    ts_us: ev.ts_us,
                    label,
                    detail: format!(
                        "subgraph {subgraph} moved worker {from} -> {to} ({rows} row(s))"
                    ),
                },
            ),
            EventKind::CancelRequested {
                request,
                dropped_nodes,
                draining,
            } => push(
                &mut order,
                *request,
                TimelineEntry {
                    ts_us: ev.ts_us,
                    label,
                    detail: format!(
                        "{dropped_nodes} unsubmitted node(s) dropped{}",
                        if *draining {
                            ", in-flight tasks draining"
                        } else {
                            ""
                        }
                    ),
                },
            ),
            EventKind::RequestExpired { request } => push(
                &mut order,
                *request,
                TimelineEntry {
                    ts_us: ev.ts_us,
                    label,
                    detail: "deadline passed".to_string(),
                },
            ),
            EventKind::RequestCompleted {
                request,
                executed,
                total,
                cancelled,
            } => push(
                &mut order,
                *request,
                TimelineEntry {
                    ts_us: ev.ts_us,
                    label,
                    detail: format!(
                        "{executed}/{total} nodes executed{}",
                        if *cancelled { " (cancelled)" } else { "" }
                    ),
                },
            ),
        }
    }

    order
        .into_iter()
        .map(|request| {
            let mut entries = by_request.remove(&request).expect("collected above");
            entries.sort_by_key(|e| e.ts_us);
            RequestTimeline { request, entries }
        })
        .collect()
}

/// Renders every timeline, separated by blank lines — the plain-text
/// artifact written by the trace harness.
pub fn render_timelines(timelines: &[RequestTimeline]) -> String {
    let mut out = String::new();
    for (i, t) in timelines.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&t.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_trace::BatchReason;

    fn ev(ts_us: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { ts_us, kind }
    }

    fn sample_trace() -> Vec<TraceEvent> {
        vec![
            ev(
                10,
                EventKind::RequestArrived {
                    request: 7,
                    nodes: 4,
                    subgraphs: 1,
                },
            ),
            ev(
                10,
                EventKind::NodesEnqueued {
                    request: 7,
                    subgraph: 0,
                    cell_type: 0,
                    count: 1,
                },
            ),
            ev(
                20,
                EventKind::BatchFormed {
                    task: 0,
                    worker: 1,
                    cell_type: 0,
                    batch: 1,
                    reason: BatchReason::Starvation,
                    gather_rows: 1,
                    transfer_rows: 0,
                    requests: vec![7],
                },
            ),
            ev(25, EventKind::TaskStarted { task: 0, worker: 1 }),
            ev(90, EventKind::TaskCompleted { task: 0, worker: 1 }),
            ev(
                90,
                EventKind::RequestCompleted {
                    request: 7,
                    executed: 4,
                    total: 4,
                    cancelled: false,
                },
            ),
        ]
    }

    #[test]
    fn reconstructs_one_request_in_order() {
        let tl = reconstruct_timelines(&sample_trace());
        assert_eq!(tl.len(), 1);
        let t = &tl[0];
        assert_eq!(t.request, 7);
        let labels: Vec<&str> = t.entries.iter().map(|e| e.label).collect();
        assert_eq!(
            labels,
            vec![
                "request_arrived",
                "nodes_enqueued",
                "batch_formed",
                "task_started",
                "task_completed",
                "request_completed",
            ]
        );
        assert_eq!(t.arrival_us(), Some(10));
        assert_eq!(t.first_dispatch_us(), Some(20));
        assert_eq!(t.end_us(), Some(90));
    }

    #[test]
    fn task_events_fan_out_to_every_batched_request() {
        let events = vec![
            ev(
                5,
                EventKind::BatchFormed {
                    task: 3,
                    worker: 0,
                    cell_type: 0,
                    batch: 2,
                    reason: BatchReason::Saturation,
                    gather_rows: 0,
                    transfer_rows: 0,
                    requests: vec![1, 2],
                },
            ),
            ev(6, EventKind::TaskStarted { task: 3, worker: 0 }),
        ];
        let tl = reconstruct_timelines(&events);
        assert_eq!(tl.len(), 2);
        for t in &tl {
            assert_eq!(t.entries.len(), 2);
            assert_eq!(t.entries[1].label, "task_started");
        }
    }

    #[test]
    fn task_without_batch_context_is_skipped() {
        let events = vec![ev(6, EventKind::TaskStarted { task: 9, worker: 0 })];
        assert!(reconstruct_timelines(&events).is_empty());
    }

    #[test]
    fn render_is_stable_plain_text() {
        let tl = reconstruct_timelines(&sample_trace());
        let text = render_timelines(&tl);
        assert!(text.starts_with("request 7 (80 µs in system)"));
        assert!(text.contains("batch_formed"));
        assert!(text.contains("starvation"));
    }
}
