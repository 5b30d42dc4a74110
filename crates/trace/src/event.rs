//! The structured event schema of the scheduler trace.
//!
//! Ids are plain integers rather than the scheduler's newtypes so the
//! trace layer sits below every other crate: `request` is
//! `bm_core::RequestId.0`, `task` is `TaskId.0`, `subgraph` is
//! `SubgraphId.0`, `worker` is `WorkerId.0` and `cell_type` is
//! `bm_cell::CellTypeId.0`.

use std::fmt;

/// Why the scheduler chose a cell type when forming a batch — the three
/// branches of Algorithm 1's cell-type selection (lines 5–10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchReason {
    /// The type's ready nodes met its maximum batch size (line 6): the
    /// batch is full, so executing it wastes nothing.
    Saturation,
    /// The type had ready nodes but no running tasks (line 8): it was
    /// starving, and its pipeline must be kept busy.
    Starvation,
    /// Fallback (line 9): some type had ready nodes; the highest
    /// priority one wins (e.g. encoder over decoder for Seq2Seq).
    Priority,
}

impl BatchReason {
    /// Stable lowercase label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            BatchReason::Saturation => "saturation",
            BatchReason::Starvation => "starvation",
            BatchReason::Priority => "priority",
        }
    }
}

impl fmt::Display for BatchReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why admission control refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The active-request cap was reached.
    AtCapacity,
}

impl RejectReason {
    /// Stable lowercase label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::AtCapacity => "at_capacity",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One traced scheduler event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Timestamp, µs on the driver's clock (virtual time under
    /// simulation, µs since start for the threaded runtime).
    pub ts_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The request-lifecycle event vocabulary.
///
/// Batch formation carries the *reason* the scheduler picked the cell
/// type ([`BatchReason`]) — the observable form of Algorithm 1's
/// decision procedure.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A request was admitted into the engine and partitioned.
    RequestArrived {
        /// Request id.
        request: u64,
        /// Nodes in the unfolded cell graph.
        nodes: u32,
        /// Subgraphs the graph partitioned into.
        subgraphs: u32,
    },
    /// Admission control refused a request before it reached the engine.
    RequestRejected {
        /// Request id.
        request: u64,
        /// Which control refused it.
        reason: RejectReason,
    },
    /// Dependency-free nodes of a subgraph entered its cell type's
    /// scheduling queue.
    NodesEnqueued {
        /// Owning request.
        request: u64,
        /// The subgraph whose nodes became schedulable.
        subgraph: u64,
        /// The subgraph's cell type.
        cell_type: u32,
        /// How many nodes were enqueued by this transition.
        count: u32,
    },
    /// The scheduler formed one batched task for a worker
    /// (Algorithm 1 `FormBatchedTask`).
    BatchFormed {
        /// Task id.
        task: u64,
        /// Destination worker.
        worker: u32,
        /// The chosen cell type.
        cell_type: u32,
        /// Batch size (node invocations in the task).
        batch: u32,
        /// Why this cell type was selected.
        reason: BatchReason,
        /// State rows needing a gather copy (batch composition changed).
        gather_rows: u32,
        /// State rows migrating from another worker.
        transfer_rows: u32,
        /// Distinct requests contributing entries, in batch order.
        requests: Vec<u64>,
    },
    /// A batched task began executing on its worker.
    TaskStarted {
        /// Task id.
        task: u64,
        /// Executing worker.
        worker: u32,
    },
    /// A batched task finished executing.
    TaskCompleted {
        /// Task id.
        task: u64,
        /// Executing worker.
        worker: u32,
    },
    /// A subgraph with in-flight work was pinned to a worker
    /// (Algorithm 1 lines 20–21).
    SubgraphPinned {
        /// The subgraph.
        subgraph: u64,
        /// Owning request.
        request: u64,
        /// The worker it is pinned to.
        worker: u32,
    },
    /// A subgraph resumed on a different worker than it last executed
    /// on, moving its recurrent state (§4.3 transfer cost).
    SubgraphMigrated {
        /// The subgraph.
        subgraph: u64,
        /// Owning request.
        request: u64,
        /// Previous worker.
        from: u32,
        /// New worker.
        to: u32,
        /// State rows moved.
        rows: u32,
    },
    /// Whole-request cancellation was requested (deadline expiry or
    /// explicit): unsubmitted nodes were dropped.
    CancelRequested {
        /// The request.
        request: u64,
        /// Nodes dropped before reaching a worker.
        dropped_nodes: u32,
        /// Whether in-flight tasks remain to drain before the request
        /// retires.
        draining: bool,
    },
    /// A request's deadline passed before completion.
    RequestExpired {
        /// The request.
        request: u64,
    },
    /// A request retired: all non-cancelled nodes completed.
    RequestCompleted {
        /// The request.
        request: u64,
        /// Nodes actually executed.
        executed: u32,
        /// Total nodes in the unfolded graph.
        total: u32,
        /// Whether the request resolved via cancellation rather than
        /// running to completion.
        cancelled: bool,
    },
}

/// Number of distinct [`EventKind`] variants (for counter sinks).
pub const NUM_EVENT_KINDS: usize = 11;

impl EventKind {
    /// Dense index of the variant, `0..NUM_EVENT_KINDS`.
    pub fn index(&self) -> usize {
        match self {
            EventKind::RequestArrived { .. } => 0,
            EventKind::RequestRejected { .. } => 1,
            EventKind::NodesEnqueued { .. } => 2,
            EventKind::BatchFormed { .. } => 3,
            EventKind::TaskStarted { .. } => 4,
            EventKind::TaskCompleted { .. } => 5,
            EventKind::SubgraphPinned { .. } => 6,
            EventKind::SubgraphMigrated { .. } => 7,
            EventKind::CancelRequested { .. } => 8,
            EventKind::RequestExpired { .. } => 9,
            EventKind::RequestCompleted { .. } => 10,
        }
    }

    /// Stable snake_case name of the variant.
    pub fn name(&self) -> &'static str {
        KIND_NAMES[self.index()]
    }

    /// The request the event concerns, when it concerns exactly one.
    pub fn request(&self) -> Option<u64> {
        match self {
            EventKind::RequestArrived { request, .. }
            | EventKind::RequestRejected { request, .. }
            | EventKind::NodesEnqueued { request, .. }
            | EventKind::SubgraphPinned { request, .. }
            | EventKind::SubgraphMigrated { request, .. }
            | EventKind::CancelRequested { request, .. }
            | EventKind::RequestExpired { request }
            | EventKind::RequestCompleted { request, .. } => Some(*request),
            EventKind::BatchFormed { .. }
            | EventKind::TaskStarted { .. }
            | EventKind::TaskCompleted { .. } => None,
        }
    }
}

/// Variant names indexed by [`EventKind::index`].
pub const KIND_NAMES: [&str; NUM_EVENT_KINDS] = [
    "request_arrived",
    "request_rejected",
    "nodes_enqueued",
    "batch_formed",
    "task_started",
    "task_completed",
    "subgraph_pinned",
    "subgraph_migrated",
    "cancel_requested",
    "request_expired",
    "request_completed",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_names_unique() {
        let kinds: Vec<EventKind> = vec![
            EventKind::RequestArrived {
                request: 0,
                nodes: 1,
                subgraphs: 1,
            },
            EventKind::RequestRejected {
                request: 0,
                reason: RejectReason::AtCapacity,
            },
            EventKind::NodesEnqueued {
                request: 0,
                subgraph: 0,
                cell_type: 0,
                count: 1,
            },
            EventKind::BatchFormed {
                task: 0,
                worker: 0,
                cell_type: 0,
                batch: 1,
                reason: BatchReason::Priority,
                gather_rows: 0,
                transfer_rows: 0,
                requests: vec![0],
            },
            EventKind::TaskStarted { task: 0, worker: 0 },
            EventKind::TaskCompleted { task: 0, worker: 0 },
            EventKind::SubgraphPinned {
                subgraph: 0,
                request: 0,
                worker: 0,
            },
            EventKind::SubgraphMigrated {
                subgraph: 0,
                request: 0,
                from: 0,
                to: 1,
                rows: 1,
            },
            EventKind::CancelRequested {
                request: 0,
                dropped_nodes: 0,
                draining: false,
            },
            EventKind::RequestExpired { request: 0 },
            EventKind::RequestCompleted {
                request: 0,
                executed: 1,
                total: 1,
                cancelled: false,
            },
        ];
        assert_eq!(kinds.len(), NUM_EVENT_KINDS);
        let mut seen = [false; NUM_EVENT_KINDS];
        for k in &kinds {
            assert!(!seen[k.index()], "duplicate index {}", k.index());
            seen[k.index()] = true;
            assert_eq!(k.name(), KIND_NAMES[k.index()]);
        }
    }
}
