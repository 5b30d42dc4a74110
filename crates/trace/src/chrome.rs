//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Layout:
//!
//! - one **track per worker** (`tid` = worker id) carrying `B`/`E`
//!   duration slices for every executed batched task, with the batch
//!   size, cell type, formation *reason*, and gather/transfer rows as
//!   slice args;
//! - a **scheduler track** (`tid` = [`SCHEDULER_TID`]) of instant
//!   events: arrivals, enqueues, batch formations, cancellations,
//!   expiries, rejections and completions;
//! - **flow arrows per request** (`ph` `s`/`t`/`f`, flow id = request
//!   id) connecting the batched tasks a request participated in, in
//!   execution order — the visual form of a per-request timeline;
//! - a **busy counter track per worker** (`ph` `C`) toggling 1/0 at
//!   slice edges, so idle gaps show up in the counter graph.
//!
//! The output is the JSON-object form (`{"traceEvents": [...]}`), which
//! both Perfetto and `chrome://tracing` load directly. All timestamps
//! are microseconds, matching the trace-event spec.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::event::{EventKind, TraceEvent};

/// The `tid` of the scheduler's instant-event track. Chosen far above
/// any plausible worker id.
pub const SCHEDULER_TID: u32 = 1_000_000;

/// The single `pid` used by every emitted event.
const PID: u32 = 1;

/// Escapes a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Sort rank within one timestamp: metadata, then flow finishes (inside
/// the closing slice), then slice ends, then slice begins, then flow
/// starts/steps (inside the opening slice), then instants.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rank {
    Meta = 0,
    FlowFinish = 1,
    End = 2,
    Begin = 3,
    FlowStart = 4,
    Instant = 5,
}

struct Emitter {
    rows: Vec<(u64, Rank, String)>,
}

impl Emitter {
    fn push(&mut self, ts: u64, rank: Rank, json: String) {
        self.rows.push((ts, rank, json));
    }

    fn meta_thread_name(&mut self, tid: u32, name: &str) {
        self.push(
            0,
            Rank::Meta,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                esc(name)
            ),
        );
    }

    fn instant(&mut self, ts: u64, name: &str, args: &str) {
        self.push(
            ts,
            Rank::Instant,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"scheduler\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{ts},\"pid\":{PID},\"tid\":{SCHEDULER_TID},\"args\":{{{args}}}}}",
                esc(name)
            ),
        );
    }
}

/// Per-task metadata harvested from `BatchFormed`.
struct TaskMeta {
    cell_type: u32,
    batch: u32,
    reason: &'static str,
    gather_rows: u32,
    transfer_rows: u32,
    requests: Vec<u64>,
}

/// Renders `events` as Chrome trace-event JSON.
///
/// Events need not arrive time-sorted; the exporter orders the output
/// so `ts` is non-decreasing and every `B` is matched by a later `E` on
/// the same track. Zero-duration task slices are widened to 1 µs so the
/// pair stays well-formed.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    chrome_trace_with_meta(events, 0)
}

/// Like [`chrome_trace`], but also records capture loss: when
/// `dropped_events > 0` (e.g. a [`crate::RingBufferSink`] overflowed),
/// the top-level `"metadata"` object carries the count and a warning
/// line so a truncated trace can't silently pass for a complete one.
pub fn chrome_trace_with_meta(events: &[TraceEvent], dropped_events: u64) -> String {
    let mut e = Emitter { rows: Vec::new() };

    // Harvest task metadata, execution intervals and worker ids.
    let mut tasks: HashMap<u64, TaskMeta> = HashMap::new();
    let mut started: HashMap<u64, (u64, u32)> = HashMap::new();
    let mut slices: Vec<(u64, u32, u64, u64)> = Vec::new(); // (task, worker, start, end)
    let mut workers: Vec<u32> = Vec::new();
    let mut completion_ts: HashMap<u64, u64> = HashMap::new();
    for ev in events {
        match &ev.kind {
            EventKind::BatchFormed {
                task,
                worker,
                cell_type,
                batch,
                reason,
                gather_rows,
                transfer_rows,
                requests,
            } => {
                if !workers.contains(worker) {
                    workers.push(*worker);
                }
                tasks.insert(
                    *task,
                    TaskMeta {
                        cell_type: *cell_type,
                        batch: *batch,
                        reason: reason.label(),
                        gather_rows: *gather_rows,
                        transfer_rows: *transfer_rows,
                        requests: requests.clone(),
                    },
                );
            }
            EventKind::TaskStarted { task, worker } => {
                if !workers.contains(worker) {
                    workers.push(*worker);
                }
                started.insert(*task, (ev.ts_us, *worker));
            }
            EventKind::TaskCompleted { task, .. } => {
                if let Some((start, worker)) = started.remove(task) {
                    let end = ev.ts_us.max(start + 1); // widen zero-duration
                    slices.push((*task, worker, start, end));
                }
            }
            EventKind::RequestCompleted { request, .. } | EventKind::RequestExpired { request } => {
                completion_ts.insert(*request, ev.ts_us);
            }
            _ => {}
        }
    }
    workers.sort_unstable();
    slices.sort_by_key(|&(_, _, start, end)| (start, end));

    // Track names.
    e.push(
        0,
        Rank::Meta,
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\
             \"args\":{{\"name\":\"batchmaker\"}}}}"
        ),
    );
    for w in &workers {
        e.meta_thread_name(*w, &format!("worker {w}"));
    }
    e.meta_thread_name(SCHEDULER_TID, "scheduler");

    // Task slices.
    for (task, worker, start, end) in &slices {
        let (name, args) = match tasks.get(task) {
            Some(m) => (
                format!("ct{} x{}", m.cell_type, m.batch),
                format!(
                    "\"task\":{task},\"cell_type\":{},\"batch\":{},\"reason\":\"{}\",\
                     \"gather_rows\":{},\"transfer_rows\":{}",
                    m.cell_type, m.batch, m.reason, m.gather_rows, m.transfer_rows
                ),
            ),
            None => (format!("task {task}"), format!("\"task\":{task}")),
        };
        e.push(
            *start,
            Rank::Begin,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"task\",\"ph\":\"B\",\"ts\":{start},\
                 \"pid\":{PID},\"tid\":{worker},\"args\":{{{args}}}}}",
                esc(&name)
            ),
        );
        e.push(
            *end,
            Rank::End,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"task\",\"ph\":\"E\",\"ts\":{end},\
                 \"pid\":{PID},\"tid\":{worker}}}",
                esc(&name)
            ),
        );
        // Busy/idle utilization as a 0/1 counter track per worker:
        // workers execute their slices serially, so toggling at slice
        // edges renders exact busy windows. Rank keeps the falling edge
        // before a back-to-back rising edge at the same ts.
        e.push(
            *start,
            Rank::Begin,
            format!(
                "{{\"name\":\"worker {worker} busy\",\"cat\":\"scheduler\",\"ph\":\"C\",\
                 \"ts\":{start},\"pid\":{PID},\"tid\":{worker},\"args\":{{\"busy\":1}}}}"
            ),
        );
        e.push(
            *end,
            Rank::End,
            format!(
                "{{\"name\":\"worker {worker} busy\",\"cat\":\"scheduler\",\"ph\":\"C\",\
                 \"ts\":{end},\"pid\":{PID},\"tid\":{worker},\"args\":{{\"busy\":0}}}}"
            ),
        );
    }

    // Flow arrows: per request, chain its task slices in time order.
    let mut per_request: HashMap<u64, Vec<(u64, u32, u64)>> = HashMap::new();
    for (task, worker, start, end) in &slices {
        if let Some(m) = tasks.get(task) {
            for r in &m.requests {
                per_request
                    .entry(*r)
                    .or_default()
                    .push((*start, *worker, *end));
            }
        }
    }
    let mut flow_requests: Vec<u64> = per_request.keys().copied().collect();
    flow_requests.sort_unstable();
    for r in flow_requests {
        let hops = &per_request[&r];
        if hops.len() < 2 && !completion_ts.contains_key(&r) {
            continue; // nothing to connect
        }
        for (i, (start, worker, _)) in hops.iter().enumerate() {
            let ph = if i == 0 { "s" } else { "t" };
            e.push(
                *start,
                Rank::FlowStart,
                format!(
                    "{{\"name\":\"req {r}\",\"cat\":\"request\",\"ph\":\"{ph}\",\
                     \"id\":{r},\"ts\":{start},\"pid\":{PID},\"tid\":{worker}}}"
                ),
            );
        }
        let &(_, last_worker, last_end) = hops.last().expect("nonempty hops");
        let f_ts = completion_ts
            .get(&r)
            .copied()
            .unwrap_or(last_end)
            .min(last_end);
        e.push(
            f_ts,
            Rank::FlowFinish,
            format!(
                "{{\"name\":\"req {r}\",\"cat\":\"request\",\"ph\":\"f\",\"bp\":\"e\",\
                 \"id\":{r},\"ts\":{f_ts},\"pid\":{PID},\"tid\":{last_worker}}}"
            ),
        );
    }

    // Scheduler instants.
    for ev in events {
        let ts = ev.ts_us;
        match &ev.kind {
            EventKind::RequestArrived {
                request,
                nodes,
                subgraphs,
            } => e.instant(
                ts,
                "arrival",
                &format!("\"request\":{request},\"nodes\":{nodes},\"subgraphs\":{subgraphs}"),
            ),
            EventKind::RequestRejected { request, reason } => e.instant(
                ts,
                "rejected",
                &format!("\"request\":{request},\"reason\":\"{}\"", reason.label()),
            ),
            EventKind::NodesEnqueued {
                request,
                subgraph,
                cell_type,
                count,
            } => e.instant(
                ts,
                "enqueue",
                &format!(
                    "\"request\":{request},\"subgraph\":{subgraph},\
                     \"cell_type\":{cell_type},\"count\":{count}"
                ),
            ),
            EventKind::BatchFormed {
                task,
                worker,
                cell_type,
                batch,
                reason,
                ..
            } => e.instant(
                ts,
                "batch_formed",
                &format!(
                    "\"task\":{task},\"worker\":{worker},\"cell_type\":{cell_type},\
                     \"batch\":{batch},\"reason\":\"{}\"",
                    reason.label()
                ),
            ),
            EventKind::SubgraphPinned {
                subgraph,
                request,
                worker,
            } => e.instant(
                ts,
                "pin",
                &format!("\"subgraph\":{subgraph},\"request\":{request},\"worker\":{worker}"),
            ),
            EventKind::SubgraphMigrated {
                subgraph,
                request,
                from,
                to,
                rows,
            } => e.instant(
                ts,
                "migrate",
                &format!(
                    "\"subgraph\":{subgraph},\"request\":{request},\
                     \"from\":{from},\"to\":{to},\"rows\":{rows}"
                ),
            ),
            EventKind::CancelRequested {
                request,
                dropped_nodes,
                draining,
            } => e.instant(
                ts,
                "cancel",
                &format!(
                    "\"request\":{request},\"dropped_nodes\":{dropped_nodes},\
                     \"draining\":{draining}"
                ),
            ),
            EventKind::RequestExpired { request } => {
                e.instant(ts, "expired", &format!("\"request\":{request}"))
            }
            EventKind::RequestCompleted {
                request,
                executed,
                total,
                cancelled,
            } => e.instant(
                ts,
                "completed",
                &format!(
                    "\"request\":{request},\"executed\":{executed},\"total\":{total},\
                     \"cancelled\":{cancelled}"
                ),
            ),
            EventKind::TaskStarted { .. } | EventKind::TaskCompleted { .. } => {}
        }
    }

    e.rows.sort_by_key(|&(ts, rank, _)| (ts, rank));
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",");
    if dropped_events > 0 {
        let _ = write!(
            out,
            "\"metadata\":{{\"dropped_events\":{dropped_events},\"warning\":\
             \"ring buffer overflowed: {dropped_events} oldest events were dropped; \
             the start of this trace is incomplete\"}},"
        );
    }
    out.push_str("\"traceEvents\":[\n");
    for (i, (_, _, json)) in e.rows.iter().enumerate() {
        out.push_str(json);
        if i + 1 < e.rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BatchReason;

    #[test]
    fn zero_duration_slice_is_widened() {
        let events = vec![
            TraceEvent {
                ts_us: 10,
                kind: EventKind::TaskStarted { task: 1, worker: 0 },
            },
            TraceEvent {
                ts_us: 10,
                kind: EventKind::TaskCompleted { task: 1, worker: 0 },
            },
        ];
        let json = chrome_trace(&events);
        assert!(json.contains("\"ph\":\"B\",\"ts\":10"));
        assert!(json.contains("\"ph\":\"E\",\"ts\":11"));
    }

    #[test]
    fn busy_counter_track_toggles_at_slice_edges() {
        let events = vec![
            TraceEvent {
                ts_us: 10,
                kind: EventKind::TaskStarted { task: 1, worker: 3 },
            },
            TraceEvent {
                ts_us: 25,
                kind: EventKind::TaskCompleted { task: 1, worker: 3 },
            },
        ];
        let json = chrome_trace(&events);
        assert!(json.contains("\"name\":\"worker 3 busy\""));
        assert!(json.contains("\"ts\":10") && json.contains("\"busy\":1"));
        assert!(json.contains("\"ts\":25") && json.contains("\"busy\":0"));
    }

    #[test]
    fn drop_metadata_appears_only_when_events_were_dropped() {
        let json = chrome_trace_with_meta(&[], 0);
        assert!(!json.contains("metadata"));
        let json = chrome_trace_with_meta(&[], 17);
        assert!(json.contains("\"dropped_events\":17"));
        assert!(json.contains("incomplete"));
        // The metadata object must still parse as strict JSON.
        assert!(crate::json::parse(&json).is_ok());
    }

    #[test]
    fn reason_appears_in_batch_args() {
        let events = vec![TraceEvent {
            ts_us: 5,
            kind: EventKind::BatchFormed {
                task: 7,
                worker: 2,
                cell_type: 0,
                batch: 64,
                reason: BatchReason::Saturation,
                gather_rows: 64,
                transfer_rows: 0,
                requests: vec![1, 2, 3],
            },
        }];
        let json = chrome_trace(&events);
        assert!(json.contains("\"reason\":\"saturation\""));
        assert!(json.contains("batch_formed"));
    }
}
