//! Batched tasks and completion records.

use bm_cell::CellTypeId;
use bm_model::{Deps, NodeId, TokenSource};

use crate::ids::{RequestId, SubgraphId, TaskId, WorkerId};

/// One invocation within a batched task.
///
/// Entries are self-describing: they carry the dependency list and token
/// source so a worker can gather inputs from the state store without
/// holding the request's graph — the analogue of a GPU kernel argument
/// list pointing at device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskEntry {
    /// The owning request.
    pub request: RequestId,
    /// The node being invoked.
    pub node: NodeId,
    /// The node's state dependencies (within the same request), in cell
    /// order: a copy of the graph node's inline list, so forming an
    /// entry allocates nothing.
    pub deps: Deps,
    /// Where the node's token comes from.
    pub token: TokenSource,
}

/// A batched task: one cell type executed once over a batch of node
/// invocations from (potentially) many requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Task identifier.
    pub id: TaskId,
    /// The worker the task was submitted to.
    pub worker: WorkerId,
    /// The cell type all entries share.
    pub cell_type: CellTypeId,
    /// The batched invocations.
    pub entries: Vec<TaskEntry>,
    /// Distinct subgraphs contributing entries, in entry order.
    pub subgraphs: Vec<SubgraphId>,
    /// State rows that must be gathered into contiguous memory because
    /// the batch composition differs from this worker's previous task of
    /// the same cell type (§4.3).
    pub gather_rows: usize,
    /// State rows copied from another device because a subgraph migrated
    /// workers (§4.3).
    pub transfer_rows: usize,
}

impl Task {
    /// A task with no entries, whose buffers the engine fills when it
    /// forms a task.
    pub(crate) fn empty() -> Self {
        Task {
            id: TaskId(0),
            worker: WorkerId(0),
            cell_type: CellTypeId(0),
            entries: Vec::new(),
            subgraphs: Vec::new(),
            gather_rows: 0,
            transfer_rows: 0,
        }
    }

    /// Batch size of the task.
    pub fn batch_size(&self) -> usize {
        self.entries.len()
    }
}

/// Emitted when all (non-cancelled) nodes of a request have completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedRequest {
    /// The request.
    pub id: RequestId,
    /// Arrival timestamp, µs.
    pub arrival_us: u64,
    /// First execution start, µs; for a request cancelled before any
    /// cell ran, the cancellation timestamp.
    pub start_us: u64,
    /// Completion timestamp, µs.
    pub completion_us: u64,
    /// Nodes actually executed (excludes `<eos>`-cancelled ones).
    pub executed_nodes: usize,
    /// Total nodes in the unfolded graph.
    pub total_nodes: usize,
    /// Whether the request's deadline passed
    /// ([`crate::CellularEngine::expire`]) before it ran to completion.
    /// Cancelled records carry timings for accounting but no usable
    /// outputs.
    pub cancelled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_size_counts_entries() {
        let entry = |r: u64, n: u32| TaskEntry {
            request: RequestId(r),
            node: NodeId(n),
            deps: Deps::new(&[]),
            token: TokenSource::Fixed(0),
        };
        let t = Task {
            id: TaskId(0),
            worker: WorkerId(0),
            cell_type: CellTypeId(0),
            entries: vec![entry(0, 0), entry(1, 0)],
            subgraphs: vec![SubgraphId(0), SubgraphId(1)],
            gather_rows: 2,
            transfer_rows: 0,
        };
        assert_eq!(t.batch_size(), 2);
    }
}
