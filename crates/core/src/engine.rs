//! The cellular-batching engine: request processor + scheduler.
//!
//! This is the paper's manager (§4.2 Figure 6) as a *pure state
//! machine*: it owns no threads and no clock. Drivers feed it events —
//! request arrivals, task starts, task completions, the time at which
//! deadlines fall due ([`CellularEngine::expire`]) — and pull batched
//! tasks for idle workers via [`CellularEngine::dispatch`], which
//! implements Algorithm 1 verbatim (Schedule / Batch / FormBatchedTask,
//! including cell-type selection order, `MaxTasksToSubmit`, subgraph
//! pinning and the min-batch-size gate).
//!
//! Two drivers exist: the threaded real-time runtime
//! ([`crate::runtime::Runtime`]) and the discrete-event simulator in
//! `bm-sim`. Both therefore benchmark exactly the scheduling policy that
//! the correctness tests validate.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use bm_cell::{CellRegistry, CellTypeId};
use bm_model::{CellGraph, NodeId};
use bm_telemetry::{Counter, Gauge, Histogram, Telemetry};
use bm_trace::{BatchReason, EventKind, TraceEvent, TraceSink};

use crate::config::ServeConfig;
use crate::ids::{RequestId, SubgraphId, TaskId, WorkerId};
use crate::partition::{partition, Partition};
use crate::request::Request;
use crate::task::{CompletedRequest, Task, TaskEntry};

/// Tunables of the scheduler.
///
/// Embeds the shared [`ServeConfig`] (deadlines, observability sinks)
/// and adds the engine-only knobs. Construct with the builder:
///
/// ```
/// use bm_core::SchedulerConfig;
/// let cfg = SchedulerConfig::new().max_tasks_to_submit(3);
/// assert_eq!(cfg.max_tasks_to_submit, 3);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SchedulerConfig {
    /// The shared serving knobs ([`ServeConfig`]): the engine reads the
    /// trace sink, the telemetry registry and the default deadline
    /// ([`CellularEngine::on_request`]) from it; the admission and queue
    /// knobs are consumed by the drivers embedding this config.
    pub serve: ServeConfig,
    /// "The maximum number of tasks that can be submitted to a worker"
    /// per `Schedule` invocation (Algorithm 1; default 5).
    pub max_tasks_to_submit: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            serve: ServeConfig::default(),
            max_tasks_to_submit: 5,
        }
    }
}

impl SchedulerConfig {
    /// The default configuration (start of the builder chain).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-`Schedule` task cap (Algorithm 1's
    /// `MaxTasksToSubmit`; default 5).
    pub fn max_tasks_to_submit(mut self, n: usize) -> Self {
        self.max_tasks_to_submit = n;
        self
    }

    /// Replaces the embedded [`ServeConfig`].
    pub fn serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }
}

/// Which unsubmitted nodes of a request
/// [`CellularEngine::cancel_nodes`] cancels.
#[derive(Debug, Clone, Copy)]
enum Doomed {
    /// Every node not yet handed to a worker (deadline expiry).
    Unsubmitted,
    /// The nodes transitively downstream of an `<eos>` node.
    DownstreamOf(NodeId),
}

/// The latency-decomposition stage labels of `bm_stage_us`, in
/// pipeline order. The four stages tile `[arrival, completion]`
/// exactly — their per-request durations telescope to the end-to-end
/// latency — so snapshot sums reconcile with `LatencyRecorder` totals
/// to the microsecond.
pub const STAGE_NAMES: [&str; 4] = [
    "submit_to_enqueue",
    "enqueue_to_batch",
    "batch_wait",
    "compute",
];

/// Telemetry handles the engine records into when its config carries an
/// enabled registry. All handles are registered once, at construction;
/// the hot path pays one `Option::is_some` branch per site when
/// telemetry is disabled, mirroring the trace plane's `enabled()` gate.
#[derive(Debug)]
struct EngineMetrics {
    requests_admitted: Counter,
    requests_completed: Counter,
    requests_cancelled: Counter,
    requests_expired: Counter,
    tasks_submitted: Counter,
    gather_rows: Counter,
    transfer_rows: Counter,
    nodes_cancelled: Counter,
    /// Indexed by `BatchReason as usize`: saturation, starvation,
    /// priority.
    batch_reason: [Counter; 3],
    active_requests: Gauge,
    ready_nodes: Gauge,
    inflight_tasks: Gauge,
    /// Per cell type, indexed by `CellTypeId::index`.
    batch_size: Vec<Histogram>,
    /// Per cell type × stage ([`STAGE_NAMES`] order), labelled by the
    /// cell type of the request's first node.
    stage: Vec<[Histogram; 4]>,
}

impl EngineMetrics {
    fn new(tel: &Telemetry, registry: &CellRegistry) -> Self {
        let mut batch_size = Vec::with_capacity(registry.len());
        let mut stage = Vec::with_capacity(registry.len());
        for meta in registry.iter() {
            let cell = meta.name.as_str();
            batch_size.push(tel.histogram_with("bm_batch_size", &[("cell", cell)]));
            stage.push(
                STAGE_NAMES
                    .map(|s| tel.histogram_with("bm_stage_us", &[("stage", s), ("cell", cell)])),
            );
        }
        EngineMetrics {
            requests_admitted: tel.counter("bm_requests_admitted_total"),
            requests_completed: tel.counter("bm_requests_completed_total"),
            requests_cancelled: tel.counter("bm_requests_cancelled_total"),
            requests_expired: tel.counter("bm_requests_expired_total"),
            tasks_submitted: tel.counter("bm_tasks_submitted_total"),
            gather_rows: tel.counter("bm_gather_rows_total"),
            transfer_rows: tel.counter("bm_transfer_rows_total"),
            nodes_cancelled: tel.counter("bm_nodes_cancelled_total"),
            batch_reason: [
                BatchReason::Saturation,
                BatchReason::Starvation,
                BatchReason::Priority,
            ]
            .map(|r| tel.counter_with("bm_batch_reason_total", &[("reason", r.label())])),
            active_requests: tel.gauge("bm_active_requests"),
            ready_nodes: tel.gauge("bm_ready_nodes"),
            inflight_tasks: tel.gauge("bm_inflight_tasks"),
            batch_size,
            stage,
        }
    }
}

/// Everything the scheduler knows about one admitted request: its
/// graph, its subgraphs, one record per node and the reverse edges.
/// Retiring the request drops all of it at once.
#[derive(Debug)]
struct RequestState {
    graph: CellGraph,
    arrival_us: u64,
    /// Absolute deadline, µs; its `(deadline, id)` entry sits in
    /// [`CellularEngine`]'s deadline set until the request expires or
    /// retires.
    deadline_us: Option<u64>,
    start_us: Option<u64>,
    /// When the request's first nodes entered a scheduling queue
    /// (telemetry stage decomposition; stamped only when metrics are
    /// attached).
    first_enqueue_us: Option<u64>,
    /// When the first batched task containing the request was formed.
    first_batch_us: Option<u64>,
    /// Global id of subgraph 0: subgraph `i` is `first_subgraph + i`, so
    /// ids stay unique across requests and numbered in admission order.
    first_subgraph: u64,
    /// The graph's same-type subgraphs ([`partition`]), numbered in
    /// order of their first node.
    subgraphs: Vec<SubgraphState>,
    /// One record per graph node, by node index.
    nodes: Vec<NodeState>,
    /// Every node's dependents (reverse edges), node after node, each
    /// node's in ascending order; [`NodeState::dependents`] is its range.
    dependents: Vec<u32>,
    /// Nodes not yet completed or cancelled.
    remaining: usize,
    /// Nodes executed so far.
    executed: usize,
    /// Whether the deadline passed; the completion record carries this
    /// flag.
    expired: bool,
}

impl RequestState {
    fn subgraph_id(&self, local: usize) -> SubgraphId {
        SubgraphId(self.first_subgraph + local as u64)
    }
}

/// Where a node is in its life: it leaves `Waiting` once, either handed
/// to a worker (and later completed) or cancelled — never both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeStatus {
    Waiting,
    Submitted,
    Completed,
    /// Cancelled before submission, by `<eos>` termination or deadline
    /// expiry.
    Cancelled,
}

/// Per-node scheduler state.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    status: NodeStatus,
    /// Dependencies not yet satisfied. Intra-subgraph edges are satisfied
    /// at *submission* of the dependency (FIFO per worker guarantees
    /// order); external edges at *completion*.
    unmet: u32,
    /// Local index of the node's subgraph.
    subgraph: u32,
    /// This node's slice of [`RequestState::dependents`].
    first_dependent: u32,
    end_dependent: u32,
}

impl NodeState {
    fn dependents(&self) -> std::ops::Range<usize> {
        self.first_dependent as usize..self.end_dependent as usize
    }
}

/// Per-subgraph scheduler state.
#[derive(Debug)]
struct SubgraphState {
    cell_type: CellTypeId,
    /// Nodes whose dependencies are satisfied and not yet submitted.
    ready: VecDeque<u32>,
    /// External dependency edges not yet satisfied; the subgraph is
    /// passed to the scheduler only when this reaches zero (§4.3).
    external_unmet: usize,
    /// Worker the subgraph is pinned to while it has in-flight nodes.
    pinned: Option<WorkerId>,
    /// Nodes of this subgraph in submitted, not yet completed tasks.
    inflight_nodes: usize,
    /// Last worker this subgraph executed on (for transfer accounting).
    last_worker: Option<WorkerId>,
    /// Whether the subgraph is currently in its type's scheduling queue.
    in_queue: bool,
}

/// A subgraph's address: its request and its local index there.
type SubgraphKey = (RequestId, usize);

/// Per-cell-type scheduling queue.
#[derive(Debug, Default)]
struct TypeQueue {
    /// Subgraphs with ready nodes, in arrival order.
    subgraphs: VecDeque<SubgraphKey>,
    /// Total ready nodes across queued subgraphs.
    ready_nodes: usize,
    /// In-flight tasks of this type (`ct.NumRunningTasks()`).
    running_tasks: usize,
}

/// In-flight task bookkeeping.
#[derive(Debug)]
struct InflightTask {
    cell_type: CellTypeId,
    worker: WorkerId,
    entries: Vec<(RequestId, NodeId)>,
}

impl InflightTask {
    fn from_task(t: &Task) -> Self {
        InflightTask {
            cell_type: t.cell_type,
            worker: t.worker,
            entries: t.entries.iter().map(|e| (e.request, e.node)).collect(),
        }
    }
}

/// One cell type's inputs to Algorithm 1's cell-type selection.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    cell_type: CellTypeId,
    ready_nodes: usize,
    running_tasks: usize,
    max_batch: usize,
    priority: u32,
}

impl Candidate {
    /// The tier the type qualifies in (Algorithm 1 lines 5–10):
    /// saturated if its ready nodes fill a batch, else starving if it
    /// has no running task, else priority-only.
    fn reason(&self) -> BatchReason {
        if self.ready_nodes >= self.max_batch {
            BatchReason::Saturation
        } else if self.running_tasks == 0 {
            BatchReason::Starvation
        } else {
            BatchReason::Priority
        }
    }

    /// Algorithm 1's preference as a total order: tier first, then the
    /// type's priority, then — the paper scheduler's `max_by_key` keeps
    /// the *last* maximum — the later registry entry.
    fn rank(&self) -> (u8, u32, u32) {
        let tier = match self.reason() {
            BatchReason::Saturation => 2,
            BatchReason::Starvation => 1,
            BatchReason::Priority => 0,
        };
        (tier, self.priority, self.cell_type.0)
    }
}

/// Algorithm 1 cell-type selection: the best-ranked candidate, or with
/// `below` set, the best one ranked strictly below it — the next type
/// to try when the previous pick could form no batch.
fn paper_pick(
    candidates: impl Iterator<Item = Candidate>,
    below: Option<(u8, u32, u32)>,
) -> Option<Candidate> {
    candidates
        .filter(|c| below.is_none_or(|b| c.rank() < b))
        .max_by_key(Candidate::rank)
}

/// Cumulative scheduling statistics.
///
/// The paper reports effective batch sizes ("we find that BatchMaker
/// executes LSTM cells with batch size 64 most of the time", §7.3) and
/// attributes overhead to gathering; these counters expose both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Batched tasks submitted.
    pub tasks_submitted: u64,
    /// Cell invocations submitted across all tasks.
    pub nodes_submitted: u64,
    /// State rows gathered because batch composition changed (§4.3).
    pub gathered_rows: u64,
    /// Subgraph migrations across workers.
    pub transfers: u64,
    /// Nodes cancelled by `<eos>` early termination or deadline expiry.
    pub cancelled_nodes: u64,
    /// Requests completed normally.
    pub requests_completed: u64,
    /// Requests resolved as cancelled.
    pub requests_cancelled: u64,
    /// Requests whose deadline passed before they completed
    /// ([`CellularEngine::expire`]); each later resolves as cancelled.
    pub requests_expired: u64,
}

impl SchedulerStats {
    /// Mean batch size across submitted tasks.
    pub fn mean_batch_size(&self) -> f64 {
        if self.tasks_submitted == 0 {
            0.0
        } else {
            self.nodes_submitted as f64 / self.tasks_submitted as f64
        }
    }

    /// Fraction of submitted rows that required a gather copy.
    pub fn gather_fraction(&self) -> f64 {
        if self.nodes_submitted == 0 {
            0.0
        } else {
            self.gathered_rows as f64 / self.nodes_submitted as f64
        }
    }
}

/// The cellular-batching engine.
pub struct CellularEngine {
    registry: Arc<CellRegistry>,
    cfg: SchedulerConfig,
    /// Admitted requests, each owning its subgraphs and node records.
    requests: HashMap<RequestId, RequestState>,
    queues: Vec<TypeQueue>,
    inflight: HashMap<TaskId, InflightTask>,
    /// Last batch composition per (worker, cell type), for gather
    /// accounting: identical composition ⇒ no gather copies (§4.3).
    /// Values share the `Arc` carried by the submitted [`Task`], so a
    /// repeated composition costs a comparison, never an allocation.
    last_composition: HashMap<(WorkerId, CellTypeId), Arc<[SubgraphId]>>,
    next_subgraph: u64,
    next_task: u64,
    /// `(absolute deadline µs, request)` of every admitted request that
    /// has a deadline and has neither expired nor retired.
    deadlines: BTreeSet<(u64, RequestId)>,
    stats: SchedulerStats,
    /// Structured event sink ([`bm_trace`]); defaults to the no-op sink,
    /// whose `enabled() == false` keeps instrumentation off hot paths.
    trace: Arc<dyn TraceSink>,
    /// Registered metric handles; `None` (the default) keeps telemetry
    /// to one branch per call site.
    metrics: Option<EngineMetrics>,
    /// The latest driver-supplied timestamp, used to stamp events from
    /// methods that take no clock (dispatch).
    clock_us: u64,
}

impl CellularEngine {
    /// Creates an engine over the given registry.
    ///
    /// The embedded [`ServeConfig`] supplies the observability sinks: the
    /// engine records every scheduling decision and request-lifecycle
    /// transition into its trace sink, and into its telemetry registry
    /// when that is enabled. They are fixed for the engine's life.
    pub fn new(registry: Arc<CellRegistry>, cfg: SchedulerConfig) -> Self {
        let queues = (0..registry.len()).map(|_| TypeQueue::default()).collect();
        let metrics = cfg
            .serve
            .telemetry
            .enabled()
            .then(|| EngineMetrics::new(&cfg.serve.telemetry, &registry));
        CellularEngine {
            trace: Arc::clone(&cfg.serve.trace),
            metrics,
            cfg,
            registry,
            requests: HashMap::new(),
            queues,
            inflight: HashMap::new(),
            last_composition: HashMap::new(),
            next_subgraph: 0,
            next_task: 0,
            deadlines: BTreeSet::new(),
            stats: SchedulerStats::default(),
            clock_us: 0,
        }
    }

    /// Numbers the tasks this engine forms from `first` on. Engines that
    /// record into one trace sink start from disjoint ranges, so their
    /// task ids never collide.
    pub(crate) fn number_tasks_from(&mut self, first: u64) {
        self.next_task = first;
    }

    /// Advances the engine's event clock without any other effect.
    ///
    /// [`CellularEngine::dispatch`] takes no timestamp (Algorithm 1 is
    /// time-free), so batch-formation events are stamped with the
    /// latest time the driver reported. Drivers whose dispatch point can
    /// be later than the last arrival/completion (e.g. a timer wake-up)
    /// call this first so traces carry accurate times.
    pub fn advance_clock(&mut self, now_us: u64) {
        self.clock_us = self.clock_us.max(now_us);
    }

    #[inline]
    fn emit(&self, ts_us: u64, kind: EventKind) {
        self.trace.record(TraceEvent { ts_us, kind });
    }

    /// Cumulative scheduling statistics.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Per-cell-type `(ready_nodes, running_tasks)`, indexed by
    /// [`CellTypeId::index`]. Introspection for tests and oracles.
    pub fn queue_depths(&self) -> Vec<(usize, usize)> {
        self.queues
            .iter()
            .map(|q| (q.ready_nodes, q.running_tasks))
            .collect()
    }

    /// The registry the engine schedules for.
    pub fn registry(&self) -> &Arc<CellRegistry> {
        &self.registry
    }

    /// Admits a request: unfolds bookkeeping, partitions the graph and
    /// releases dependency-free subgraphs to the scheduler. A request
    /// given an absolute `deadline_us` is cancelled by the first
    /// [`CellularEngine::expire`] at or after it, unless it has
    /// completed by then.
    ///
    /// # Panics
    ///
    /// Panics if the request id is already active or the graph fails
    /// validation against the registry.
    pub fn on_arrival(
        &mut self,
        id: RequestId,
        graph: CellGraph,
        now_us: u64,
        deadline_us: Option<u64>,
    ) {
        assert!(
            !self.requests.contains_key(&id),
            "duplicate request id {id}"
        );
        self.advance_clock(now_us);
        graph
            .validate(&self.registry)
            .unwrap_or_else(|e| panic!("invalid graph for {id}: {e}"));
        let n = graph.len();
        let Partition {
            node_subgraph,
            external_deps,
        } = partition(&graph);

        // Node records, then the reverse edges as one flat list: count
        // each node's dependents, turn the counts into ranges, and fill
        // the ranges in node order so each stays ascending.
        let mut nodes: Vec<NodeState> = graph
            .iter()
            .zip(node_subgraph)
            .map(|((_, node), sg)| NodeState {
                status: NodeStatus::Waiting,
                unmet: node.deps.len() as u32,
                subgraph: sg as u32,
                first_dependent: 0,
                end_dependent: 0,
            })
            .collect();
        for d in graph.iter().flat_map(|(_, node)| node.deps.iter()) {
            nodes[d.index()].end_dependent += 1;
        }
        let mut edges = 0;
        for node in &mut nodes {
            node.first_dependent = edges;
            edges += std::mem::replace(&mut node.end_dependent, edges);
        }
        let mut dependents = vec![0u32; edges as usize];
        for (nid, node) in graph.iter() {
            for d in node.deps.iter() {
                let dep = &mut nodes[d.index()];
                dependents[dep.end_dependent as usize] = nid.0;
                dep.end_dependent += 1;
            }
        }

        // Subgraphs are numbered in order of their first node; one whose
        // external dependencies are all met is released at once, with
        // its dependency-free nodes ready.
        let mut subgraphs: Vec<SubgraphState> = Vec::with_capacity(external_deps.len());
        for (i, node) in nodes.iter().enumerate() {
            let local = node.subgraph as usize;
            if local == subgraphs.len() {
                subgraphs.push(SubgraphState {
                    cell_type: graph.node(NodeId(i as u32)).cell_type,
                    ready: VecDeque::new(),
                    external_unmet: external_deps[local],
                    pinned: None,
                    inflight_nodes: 0,
                    last_worker: None,
                    in_queue: false,
                });
            }
            let sg = &mut subgraphs[local];
            if sg.external_unmet == 0 && node.unmet == 0 {
                sg.ready.push_back(i as u32);
            }
        }

        let num_subgraphs = subgraphs.len();
        let req = RequestState {
            arrival_us: now_us,
            deadline_us,
            start_us: None,
            first_enqueue_us: None,
            first_batch_us: None,
            first_subgraph: self.next_subgraph,
            subgraphs,
            nodes,
            dependents,
            remaining: n,
            executed: 0,
            expired: false,
            graph,
        };
        self.next_subgraph += num_subgraphs as u64;
        self.requests.insert(id, req);
        if let Some(d) = deadline_us {
            self.deadlines.insert((d, id));
        }

        if self.trace.enabled() {
            self.emit(
                now_us,
                EventKind::RequestArrived {
                    request: id.0,
                    nodes: n as u32,
                    subgraphs: num_subgraphs as u32,
                },
            );
        }
        if let Some(m) = &self.metrics {
            m.requests_admitted.inc();
            m.active_requests.add(1);
        }

        // Enqueue released subgraphs with ready nodes.
        for local in 0..num_subgraphs {
            self.maybe_enqueue(id, local);
        }
        if self.metrics.is_some() {
            self.set_ready_gauge();
        }
    }

    /// [`CellularEngine::on_arrival`] for a graph unfolded from `req`,
    /// which arrives at `now_us`: its [`crate::DeadlineSpec`] is
    /// resolved against the configured default deadline
    /// ([`ServeConfig::deadline_us`]).
    pub fn on_request(&mut self, id: RequestId, graph: CellGraph, now_us: u64, req: &Request) {
        let deadline = req
            .effective_deadline_us(self.cfg.serve.deadline_us)
            .map(|d| now_us.saturating_add(d));
        self.on_arrival(id, graph, now_us, deadline);
    }

    /// The earliest deadline of an admitted request that has neither
    /// expired nor retired, µs — `None` when no such request has one.
    pub fn next_deadline(&self) -> Option<u64> {
        self.deadlines.first().map(|&(d, _)| d)
    }

    /// Publishes the ready-node level (single-writer gauge; the engine
    /// is driven from one thread).
    fn set_ready_gauge(&self) {
        if let Some(m) = &self.metrics {
            m.ready_nodes.set(self.total_ready_nodes() as i64);
        }
    }

    /// Puts a released subgraph that has ready nodes into its type's
    /// scheduling queue, unless it is there already.
    fn maybe_enqueue(&mut self, id: RequestId, local: usize) {
        let req = self.requests.get_mut(&id).expect("live request");
        let sg = &mut req.subgraphs[local];
        if sg.in_queue || sg.external_unmet > 0 || sg.ready.is_empty() {
            return;
        }
        sg.in_queue = true;
        let (cell_type, count) = (sg.cell_type, sg.ready.len());
        if self.metrics.is_some() {
            // Stage decomposition: when the request first became
            // schedulable.
            req.first_enqueue_us.get_or_insert(self.clock_us);
        }
        let subgraph = req.subgraph_id(local).0;
        let q = &mut self.queues[cell_type.index()];
        q.subgraphs.push_back((id, local));
        q.ready_nodes += count;
        if self.trace.enabled() {
            self.emit(
                self.clock_us,
                EventKind::NodesEnqueued {
                    request: id.0,
                    subgraph,
                    cell_type: cell_type.0,
                    count: count as u32,
                },
            );
        }
    }

    /// Total ready (schedulable) nodes across all cell types.
    pub fn total_ready_nodes(&self) -> usize {
        self.queues.iter().map(|q| q.ready_nodes).sum()
    }

    /// Number of requests currently in the system.
    pub fn active_requests(&self) -> usize {
        self.requests.len()
    }

    /// Number of in-flight tasks.
    pub fn inflight_tasks(&self) -> usize {
        self.inflight.len()
    }

    /// Whether any work can be dispatched right now.
    pub fn has_ready_work(&self) -> bool {
        self.total_ready_nodes() > 0
    }

    /// Algorithm 1 `Schedule(worker)`: picks a cell type (saturation,
    /// then starvation, then priority) and forms up to
    /// `MaxTasksToSubmit` batched tasks of it for `worker`.
    ///
    /// Returns an empty vector when nothing is schedulable: no ready
    /// nodes, or every type's ready subgraphs are pinned to other
    /// workers. When nothing is ready the call allocates nothing.
    ///
    /// When the picked type yields no batch because all of its ready
    /// subgraphs are pinned elsewhere, the pick is retried with that
    /// type excluded — a worker never idles while another type has
    /// runnable unpinned work. A failed pick changes no queue state, so
    /// the retries walk the types in Algorithm 1's rank order.
    pub fn dispatch(&mut self, worker: WorkerId) -> Vec<Task> {
        let mut below = None;
        while let Some(pick) = paper_pick(self.candidates(), below) {
            let tasks = self.batch(pick.cell_type, worker, pick.reason());
            if !tasks.is_empty() {
                return tasks;
            }
            below = Some(pick.rank());
        }
        Vec::new()
    }

    /// The selection inputs of one cell type.
    fn candidate(&self, ct: CellTypeId) -> Candidate {
        let meta = self.registry.meta(ct);
        let q = &self.queues[ct.index()];
        Candidate {
            cell_type: ct,
            ready_nodes: q.ready_nodes,
            running_tasks: q.running_tasks,
            max_batch: meta.max_batch,
            priority: meta.priority,
        }
    }

    /// Every cell type with ready nodes, in registry order.
    fn candidates(&self) -> impl Iterator<Item = Candidate> + '_ {
        self.registry
            .iter()
            .map(|meta| self.candidate(meta.id))
            .filter(|c| c.ready_nodes > 0)
    }

    /// Algorithm 1 `Batch(ct, worker)` (lines 12–23).
    fn batch(&mut self, ct: CellTypeId, worker: WorkerId, reason: BatchReason) -> Vec<Task> {
        let meta = self.registry.meta(ct);
        let (min_batch, max_batch) = (meta.min_batch, meta.max_batch);
        let mut tasks = Vec::new();
        while tasks.len() < self.cfg.max_tasks_to_submit {
            let picks = self.form_batched_task(ct, worker, max_batch);
            if picks.is_empty() {
                break;
            }
            let size: usize = picks.iter().map(|&(_, count)| count).sum();
            if size >= min_batch || tasks.is_empty() {
                // The selection reason describes the first task;
                // follow-on tasks in the same call requalify against the
                // drained queue (below `max_batch`, or with a running
                // task now) so their labels stay truthful.
                let r = if tasks.is_empty() {
                    reason
                } else {
                    self.candidate(ct).reason()
                };
                tasks.push(self.submit(ct, worker, picks, r));
            } else {
                break;
            }
        }
        tasks
    }

    /// Algorithm 1 `FormBatchedTask` (lines 24–32): scans the type's
    /// queue selecting ready nodes from subgraphs pinned to `None` or
    /// `worker`, without mutating state. Returns per-subgraph node
    /// counts to take from the front of each ready deque, in queue
    /// order.
    fn form_batched_task(
        &self,
        ct: CellTypeId,
        worker: WorkerId,
        max_batch: usize,
    ) -> Vec<(SubgraphKey, usize)> {
        let mut picks = Vec::new();
        let mut total = 0;
        for &(request, local) in &self.queues[ct.index()].subgraphs {
            let sg = &self.requests[&request].subgraphs[local];
            if sg.pinned.is_some_and(|w| w != worker) || sg.ready.is_empty() {
                continue;
            }
            let take = sg.ready.len().min(max_batch - total);
            total += take;
            picks.push(((request, local), take));
            if total == max_batch {
                break;
            }
        }
        picks
    }

    /// Submits one batched task: takes each pick's nodes from the front
    /// of its ready queue, satisfies intra-subgraph dependencies (line
    /// 18), pins subgraphs (lines 20–21) and computes gather/transfer
    /// metadata.
    fn submit(
        &mut self,
        ct: CellTypeId,
        worker: WorkerId,
        picks: Vec<(SubgraphKey, usize)>,
        reason: BatchReason,
    ) -> Task {
        let id = TaskId(self.next_task);
        self.next_task += 1;

        let size = picks.iter().map(|&(_, count)| count).sum();
        let mut entries: Vec<TaskEntry> = Vec::with_capacity(size);
        let mut subgraph_list: Vec<SubgraphId> = Vec::with_capacity(picks.len());
        let mut transfer_rows = 0usize;
        let tracing = self.trace.enabled();
        // Deferred trace payloads (emitted after the batch itself):
        // pins, migrations, intra-subgraph enqueues.
        let mut pins: Vec<(SubgraphId, RequestId)> = Vec::new();
        let mut migrations: Vec<(SubgraphId, RequestId, WorkerId, u32)> = Vec::new();
        let mut enqueues: Vec<(SubgraphId, RequestId, u32)> = Vec::new();
        let queue = &mut self.queues[ct.index()];

        for &((req_id, local), count) in &picks {
            let req = self.requests.get_mut(&req_id).expect("live request");
            if self.metrics.is_some() {
                req.first_batch_us.get_or_insert(self.clock_us);
            }
            let sg_id = req.subgraph_id(local);
            subgraph_list.push(sg_id);
            let RequestState {
                graph,
                subgraphs,
                nodes,
                dependents,
                ..
            } = req;
            let sg = &mut subgraphs[local];
            // Pin (line 20-21) and count migration cost: every row of a
            // subgraph resuming on a different worker must move its
            // recurrent state there (§4.3).
            if let Some(prev) = sg.last_worker {
                if prev != worker {
                    transfer_rows += count;
                    if tracing {
                        migrations.push((sg_id, req_id, prev, count as u32));
                    }
                }
            }
            if tracing && sg.pinned.is_none() {
                pins.push((sg_id, req_id));
            }
            sg.pinned = Some(worker);
            sg.last_worker = Some(worker);
            sg.inflight_nodes += count;

            // Take the picked nodes, mark them submitted and satisfy
            // intra-subgraph dependencies (UpdateNodesDependency, line
            // 18): a dependent that becomes ready joins the back of the
            // same ready queue, behind the nodes still to be taken.
            let mut newly_ready = 0;
            for _ in 0..count {
                let n = sg.ready.pop_front().expect("picked node is ready");
                let gnode = graph.node(NodeId(n));
                entries.push(TaskEntry {
                    request: req_id,
                    node: NodeId(n),
                    deps: gnode.deps.clone(),
                    token: gnode.token,
                });
                let node = &mut nodes[n as usize];
                node.status = NodeStatus::Submitted;
                let (own, range) = (node.subgraph, node.dependents());
                for &d in &dependents[range] {
                    let dep = &mut nodes[d as usize];
                    if dep.subgraph == own && dep.status != NodeStatus::Cancelled {
                        dep.unmet -= 1;
                        if dep.unmet == 0 {
                            sg.ready.push_back(d);
                            newly_ready += 1;
                        }
                    }
                }
            }
            queue.ready_nodes = queue.ready_nodes - count + newly_ready;
            if tracing && newly_ready > 0 {
                enqueues.push((sg_id, req_id, newly_ready as u32));
            }
        }

        // Drop drained subgraphs from the queue head region lazily:
        // rebuild queue membership flags.
        self.compact_queue(ct);

        // Gather accounting: identical composition to the previous task
        // of this (worker, cell type) ⇒ no gather copies. On a repeat
        // the cached entry is left untouched (no insert, no clone).
        let key = (worker, ct);
        let subgraph_list: Arc<[SubgraphId]> = subgraph_list.into();
        let gather_rows = match self.last_composition.get(&key) {
            Some(prev) if prev[..] == subgraph_list[..] => 0,
            _ => {
                self.last_composition
                    .insert(key, Arc::clone(&subgraph_list));
                entries.len()
            }
        };

        self.queues[ct.index()].running_tasks += 1;
        self.stats.tasks_submitted += 1;
        self.stats.nodes_submitted += entries.len() as u64;
        self.stats.gathered_rows += gather_rows as u64;
        self.stats.transfers += transfer_rows as u64;
        if let Some(m) = &self.metrics {
            m.tasks_submitted.inc();
            m.batch_reason[reason as usize].inc();
            m.gather_rows.add(gather_rows as u64);
            m.transfer_rows.add(transfer_rows as u64);
            m.batch_size[ct.index()].record(entries.len() as u64);
            m.inflight_tasks.add(1);
            m.ready_nodes.set(self.total_ready_nodes() as i64);
        }
        let task = Task {
            id,
            worker,
            cell_type: ct,
            entries,
            subgraphs: subgraph_list,
            gather_rows,
            transfer_rows,
        };
        if tracing {
            let mut requests: Vec<u64> = Vec::new();
            for e in &task.entries {
                if !requests.contains(&e.request.0) {
                    requests.push(e.request.0);
                }
            }
            let ts = self.clock_us;
            self.emit(
                ts,
                EventKind::BatchFormed {
                    task: id.0,
                    worker: worker.0,
                    cell_type: ct.0,
                    batch: task.entries.len() as u32,
                    reason,
                    gather_rows: gather_rows as u32,
                    transfer_rows: transfer_rows as u32,
                    requests,
                },
            );
            for (sg, req) in pins {
                self.emit(
                    ts,
                    EventKind::SubgraphPinned {
                        subgraph: sg.0,
                        request: req.0,
                        worker: worker.0,
                    },
                );
            }
            for (sg, req, from, rows) in migrations {
                self.emit(
                    ts,
                    EventKind::SubgraphMigrated {
                        subgraph: sg.0,
                        request: req.0,
                        from: from.0,
                        to: worker.0,
                        rows,
                    },
                );
            }
            for (sg, req, count) in enqueues {
                self.emit(
                    ts,
                    EventKind::NodesEnqueued {
                        request: req.0,
                        subgraph: sg.0,
                        cell_type: ct.0,
                        count,
                    },
                );
            }
        }
        self.inflight.insert(id, InflightTask::from_task(&task));
        task
    }

    /// Removes queued subgraphs that no longer have ready nodes.
    fn compact_queue(&mut self, ct: CellTypeId) {
        let requests = &mut self.requests;
        self.queues[ct.index()].subgraphs.retain(|(id, local)| {
            let sg = &mut requests.get_mut(id).expect("live request").subgraphs[*local];
            if sg.ready.is_empty() {
                sg.in_queue = false;
                false
            } else {
                true
            }
        });
    }

    /// Notes that a task began executing; stamps the start time of any
    /// request whose first cell this is.
    pub fn on_task_started(&mut self, task: TaskId, now_us: u64) {
        self.advance_clock(now_us);
        let Some(t) = self.inflight.get(&task) else {
            return;
        };
        let (task_id, worker) = (task.0, t.worker.0);
        for (req_id, _) in &t.entries {
            if let Some(req) = self.requests.get_mut(req_id) {
                req.start_us.get_or_insert(now_us);
            }
        }
        if self.trace.enabled() {
            self.emit(
                now_us,
                EventKind::TaskStarted {
                    task: task_id,
                    worker,
                },
            );
        }
    }

    /// Processes a task completion.
    ///
    /// `emitted_tokens` carries, per entry, the token the cell produced
    /// (decoder cells) — `None` elsewhere or when the driver does not
    /// execute real math (the simulator). Used only for `<eos>` early
    /// termination.
    ///
    /// Returns the requests that completed as a result.
    ///
    /// # Panics
    ///
    /// Panics if the task id is unknown or `emitted_tokens` has the
    /// wrong length.
    pub fn on_task_completed(
        &mut self,
        task: TaskId,
        emitted_tokens: &[Option<u32>],
        now_us: u64,
    ) -> Vec<CompletedRequest> {
        self.advance_clock(now_us);
        let t = self.inflight.remove(&task).expect("unknown task id");
        assert_eq!(
            emitted_tokens.len(),
            t.entries.len(),
            "token vector must match task entries"
        );
        self.queues[t.cell_type.index()].running_tasks -= 1;
        if self.trace.enabled() {
            self.emit(
                now_us,
                EventKind::TaskCompleted {
                    task: task.0,
                    worker: t.worker.0,
                },
            );
        }
        if let Some(m) = &self.metrics {
            m.inflight_tasks.sub(1);
        }

        let mut completed_requests = Vec::new();
        for (i, (req_id, node)) in t.entries.iter().enumerate() {
            // Phase 1: mark completion, unpin a subgraph with nothing
            // left in flight, detect <eos>, collect the subgraphs whose
            // last external edge this completion satisfies.
            let (eos_hit, released_subgraphs) = {
                let req = self.requests.get_mut(req_id).expect("live request");
                req.remaining -= 1;
                req.executed += 1;
                let eos_hit = matches!(
                    (req.graph.node(*node).eos, emitted_tokens[i]),
                    (Some(e), Some(t)) if e == t
                );
                let RequestState {
                    subgraphs,
                    nodes,
                    dependents,
                    ..
                } = req;
                let done = &mut nodes[node.index()];
                debug_assert_eq!(done.status, NodeStatus::Submitted);
                done.status = NodeStatus::Completed;
                let (own, range) = (done.subgraph, done.dependents());
                let sg = &mut subgraphs[own as usize];
                sg.inflight_nodes -= 1;
                if sg.inflight_nodes == 0 {
                    sg.pinned = None;
                }
                let mut released = Vec::new();
                for &d in &dependents[range] {
                    let dep = &mut nodes[d as usize];
                    if dep.status == NodeStatus::Cancelled || dep.subgraph == own {
                        continue;
                    }
                    dep.unmet -= 1;
                    let sg = &mut subgraphs[dep.subgraph as usize];
                    sg.external_unmet -= 1;
                    if sg.external_unmet == 0 {
                        released.push(dep.subgraph as usize);
                    }
                }
                (eos_hit, released)
            };

            if eos_hit {
                self.cancel_nodes(*req_id, Doomed::DownstreamOf(*node));
            }

            // Phase 2: release subgraphs whose last external dependency
            // was just satisfied — queue every dependency-free node.
            for sg_local in released_subgraphs {
                self.release_subgraph(*req_id, sg_local);
            }

            // Phase 3: request completion.
            let req = self.requests.get(req_id).expect("live request");
            if req.remaining == 0 {
                let done = CompletedRequest {
                    id: *req_id,
                    arrival_us: req.arrival_us,
                    start_us: req.start_us.expect("started before completing"),
                    completion_us: now_us,
                    executed_nodes: req.executed,
                    total_nodes: req.graph.len(),
                    cancelled: req.expired,
                };
                completed_requests.push(done);
                if done.cancelled {
                    self.stats.requests_cancelled += 1;
                } else {
                    self.stats.requests_completed += 1;
                }
                if let Some(m) = &self.metrics {
                    m.active_requests.sub(1);
                    if done.cancelled {
                        m.requests_cancelled.inc();
                    } else {
                        m.requests_completed.inc();
                        // Stage decomposition, clamped into a monotone
                        // chain so the four durations telescope to
                        // exactly `completion - arrival`.
                        let cell = req.graph.node(NodeId(0)).cell_type.index();
                        let (a, e) = (done.arrival_us, done.completion_us);
                        let b = req.first_enqueue_us.unwrap_or(a).clamp(a, e);
                        let c = req.first_batch_us.unwrap_or(b).clamp(b, e);
                        let d = done.start_us.clamp(c, e);
                        m.stage[cell][0].record(b - a);
                        m.stage[cell][1].record(c - b);
                        m.stage[cell][2].record(d - c);
                        m.stage[cell][3].record(e - d);
                    }
                }
                if self.trace.enabled() {
                    self.emit(
                        now_us,
                        EventKind::RequestCompleted {
                            request: req_id.0,
                            executed: done.executed_nodes as u32,
                            total: done.total_nodes as u32,
                            cancelled: done.cancelled,
                        },
                    );
                }
                self.retire(*req_id);
            }
        }
        self.set_ready_gauge();
        completed_requests
    }

    /// Expires every request whose deadline is at or before `now_us`, in
    /// `(deadline, id)` order, recording `RequestExpired` and
    /// `bm_requests_expired_total` for each: every node not yet
    /// submitted to a worker is cancelled and leaves the scheduling
    /// queues; in-flight tasks are left to drain — in-flight work is
    /// never revoked, matching the paper's task model where a submitted
    /// kernel sequence runs to completion.
    ///
    /// Returns the (cancelled) completion records of the requests that
    /// had no task in flight and so retired at once. Each other expired
    /// request resolves, with [`CompletedRequest::cancelled`] set, from
    /// the [`CellularEngine::on_task_completed`] call that drains its
    /// last in-flight task. Either way the driver sees exactly one
    /// record per expired request. With nothing due the call allocates
    /// nothing.
    pub fn expire(&mut self, now_us: u64) -> Vec<CompletedRequest> {
        let mut finished = Vec::new();
        while let Some(&(d, id)) = self.deadlines.first() {
            if d > now_us {
                break;
            }
            self.deadlines.pop_first();
            self.advance_clock(now_us);
            self.stats.requests_expired += 1;
            if let Some(m) = &self.metrics {
                m.requests_expired.inc();
            }
            if self.trace.enabled() {
                self.emit(now_us, EventKind::RequestExpired { request: id.0 });
            }
            finished.extend(self.cancel_request(id, now_us));
        }
        finished
    }

    /// Cancels a live request: every node not yet submitted to a worker
    /// is cancelled. Returns its completion record if no task of it is
    /// in flight, retiring it; otherwise the last in-flight task's
    /// completion resolves it.
    fn cancel_request(&mut self, id: RequestId, now_us: u64) -> Option<CompletedRequest> {
        self.requests.get_mut(&id).expect("live request").expired = true;
        let dropped = self.cancel_nodes(id, Doomed::Unsubmitted);
        self.set_ready_gauge();

        let req = &self.requests[&id];
        let draining = req.remaining > 0;
        if self.trace.enabled() {
            self.emit(
                now_us,
                EventKind::CancelRequested {
                    request: id.0,
                    dropped_nodes: dropped,
                    draining,
                },
            );
        }
        if draining {
            // Submitted-but-uncompleted nodes remain: resolve when the
            // in-flight tasks drain.
            return None;
        }
        let done = CompletedRequest {
            id,
            arrival_us: req.arrival_us,
            start_us: req.start_us.unwrap_or(now_us),
            completion_us: now_us,
            executed_nodes: req.executed,
            total_nodes: req.graph.len(),
            cancelled: true,
        };
        self.stats.requests_cancelled += 1;
        if let Some(m) = &self.metrics {
            m.requests_cancelled.inc();
            m.active_requests.sub(1);
        }
        if self.trace.enabled() {
            self.emit(
                now_us,
                EventKind::RequestCompleted {
                    request: id.0,
                    executed: done.executed_nodes as u32,
                    total: done.total_nodes as u32,
                    cancelled: true,
                },
            );
        }
        self.retire(id);
        Some(done)
    }

    /// Queues every dependency-free node of a just-released subgraph.
    fn release_subgraph(&mut self, req_id: RequestId, local: usize) {
        let req = self.requests.get_mut(&req_id).expect("live request");
        let sg = &mut req.subgraphs[local];
        debug_assert_eq!(sg.external_unmet, 0, "releasing unreleased subgraph");
        for (i, node) in req.nodes.iter().enumerate() {
            if node.subgraph as usize == local
                && node.unmet == 0
                && node.status == NodeStatus::Waiting
            {
                debug_assert!(!sg.ready.contains(&(i as u32)));
                sg.ready.push_back(i as u32);
            }
        }
        self.maybe_enqueue(req_id, local);
    }

    /// Cancels the unsubmitted nodes of a live request that `doomed`
    /// selects, strips them from their subgraphs' ready queues (keeping
    /// the per-type ready counters consistent) and compacts every type
    /// queue. Returns how many nodes it cancelled.
    fn cancel_nodes(&mut self, req_id: RequestId, doomed: Doomed) -> u32 {
        let req = self.requests.get_mut(&req_id).expect("live request");
        let downstream = match doomed {
            Doomed::Unsubmitted => None,
            Doomed::DownstreamOf(from) => {
                // A graph lists every node after its dependencies.
                let n = req.graph.len();
                let mut downstream = vec![false; n];
                downstream[from.index()] = true;
                for i in from.index() + 1..n {
                    let node = req.graph.node(NodeId(i as u32));
                    downstream[i] = node.deps.iter().any(|d| downstream[d.index()]);
                }
                Some(downstream)
            }
        };
        let mut n_cancelled = 0u32;
        for (i, node) in req.nodes.iter_mut().enumerate() {
            let selected = downstream.as_ref().is_none_or(|d| d[i]);
            if !selected || node.status != NodeStatus::Waiting {
                continue;
            }
            node.status = NodeStatus::Cancelled;
            req.remaining -= 1;
            n_cancelled += 1;
            let sg = &mut req.subgraphs[node.subgraph as usize];
            let before = sg.ready.len();
            sg.ready.retain(|&x| x != i as u32);
            let removed = before - sg.ready.len();
            if removed > 0 && sg.in_queue {
                self.queues[sg.cell_type.index()].ready_nodes -= removed;
            }
        }
        self.stats.cancelled_nodes += u64::from(n_cancelled);
        // Compact any queues that drained.
        for ct in 0..self.queues.len() {
            self.compact_queue(CellTypeId(ct as u32));
        }
        if let Some(m) = &self.metrics {
            m.nodes_cancelled.add(u64::from(n_cancelled));
        }
        n_cancelled
    }

    /// Removes a finished request — with it its subgraphs and node
    /// records — its pending deadline and any queue entry of it.
    fn retire(&mut self, req_id: RequestId) {
        let req = self.requests.remove(&req_id).expect("live request");
        if let Some(d) = req.deadline_us {
            self.deadlines.remove(&(d, req_id));
        }
        for (local, sg) in req.subgraphs.iter().enumerate() {
            debug_assert!(sg.ready.is_empty(), "retiring subgraph with ready nodes");
            if sg.in_queue {
                let q = &mut self.queues[sg.cell_type.index()];
                q.subgraphs.retain(|&x| x != (req_id, local));
            }
        }
    }
}

impl std::fmt::Debug for CellularEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let subgraphs: usize = self.requests.values().map(|r| r.subgraphs.len()).sum();
        f.debug_struct("CellularEngine")
            .field("requests", &self.requests.len())
            .field("subgraphs", &subgraphs)
            .field("inflight", &self.inflight.len())
            .field("ready", &self.total_ready_nodes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(i: u32, ready: usize, running: usize, priority: u32) -> Candidate {
        Candidate {
            cell_type: CellTypeId(i),
            ready_nodes: ready,
            running_tasks: running,
            max_batch: 8,
            priority,
        }
    }

    fn pick(cands: &[Candidate]) -> Option<(CellTypeId, BatchReason)> {
        paper_pick(cands.iter().copied(), None).map(|c| (c.cell_type, c.reason()))
    }

    #[test]
    fn paper_tiers_and_tie_breaks() {
        // Saturation beats a higher-priority starving type.
        let p = pick(&[cand(0, 8, 0, 5), cand(1, 1, 0, 9)]);
        assert_eq!(p, Some((CellTypeId(0), BatchReason::Saturation)));

        // Within a tier the higher priority wins...
        let p = pick(&[cand(0, 1, 0, 1), cand(1, 1, 0, 2)]);
        assert_eq!(p.unwrap().0, CellTypeId(1));

        // ...and an equal-priority tie goes to the later registry entry
        // (`max_by_key` keeps the last maximum).
        let p = pick(&[cand(0, 1, 0, 3), cand(1, 1, 0, 3)]);
        assert_eq!(p.unwrap().0, CellTypeId(1));

        // Starvation outranks priority-only types.
        let p = pick(&[cand(0, 1, 1, 9), cand(1, 1, 0, 1)]);
        assert_eq!(p, Some((CellTypeId(1), BatchReason::Starvation)));

        assert!(pick(&[]).is_none());

        // A retry below a failed pick takes the next type in rank order,
        // into the lower tiers, and runs out after the last one.
        let cands = [cand(0, 1, 1, 9), cand(1, 8, 1, 0), cand(2, 1, 0, 0)];
        let mut order = Vec::new();
        let mut below = None;
        while let Some(c) = paper_pick(cands.iter().copied(), below) {
            order.push((c.cell_type.0, c.reason()));
            below = Some(c.rank());
        }
        assert_eq!(
            order,
            [
                (1, BatchReason::Saturation),
                (2, BatchReason::Starvation),
                (0, BatchReason::Priority),
            ]
        );
    }
}
