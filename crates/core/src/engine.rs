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

use std::collections::{BTreeSet, HashMap};
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

/// Per-request bookkeeping held by the request processor.
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
    /// Per node: dependencies not yet satisfied. Intra-subgraph edges are
    /// satisfied at *submission* of the dependency (FIFO per worker
    /// guarantees order); external edges at *completion*.
    unmet: Vec<u32>,
    /// Per node: dependents (reverse edges).
    dependents: Vec<Vec<u32>>,
    /// Per node: whether it has been submitted in a task.
    submitted: Vec<bool>,
    /// Per node: whether it has completed.
    completed: Vec<bool>,
    /// Per node: whether it was cancelled, by `<eos>` termination or
    /// deadline expiry.
    cancelled: Vec<bool>,
    /// Local subgraph index per node.
    node_subgraph: Vec<usize>,
    /// Global subgraph ids, indexed by local subgraph index.
    subgraph_ids: Vec<SubgraphId>,
    /// Nodes not yet completed or cancelled.
    remaining: usize,
    /// Nodes executed so far.
    executed: usize,
    /// Whether the deadline passed; the completion record carries this
    /// flag.
    expired: bool,
}

/// Per-subgraph scheduler state.
#[derive(Debug)]
struct SubgraphState {
    request: RequestId,
    cell_type: CellTypeId,
    /// Nodes whose dependencies are satisfied and not yet submitted.
    ready: std::collections::VecDeque<u32>,
    /// External dependency edges not yet satisfied; the subgraph is
    /// passed to the scheduler only when this reaches zero (§4.3).
    external_unmet: usize,
    /// Worker the subgraph is pinned to while it has in-flight tasks.
    pinned: Option<WorkerId>,
    /// Number of in-flight tasks containing nodes of this subgraph.
    inflight: usize,
    /// Last worker this subgraph executed on (for transfer accounting).
    last_worker: Option<WorkerId>,
    /// Whether the subgraph is currently in its type's scheduling queue.
    in_queue: bool,
}

/// Per-cell-type scheduling queue.
#[derive(Debug, Default)]
struct TypeQueue {
    /// Subgraphs with ready nodes, in arrival order.
    subgraphs: std::collections::VecDeque<SubgraphId>,
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
    subgraphs: Arc<[SubgraphId]>,
}

impl InflightTask {
    fn from_task(t: &Task) -> Self {
        InflightTask {
            cell_type: t.cell_type,
            worker: t.worker,
            entries: t.entries.iter().map(|e| (e.request, e.node)).collect(),
            subgraphs: Arc::clone(&t.subgraphs),
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
    requests: HashMap<RequestId, RequestState>,
    subgraphs: HashMap<SubgraphId, SubgraphState>,
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
            subgraphs: HashMap::new(),
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
        let part: Partition = partition(&graph);

        let mut unmet = vec![0u32; n];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (nid, node) in graph.iter() {
            unmet[nid.index()] = node.deps.len() as u32;
            for d in node.deps.iter() {
                dependents[d.index()].push(nid.0);
            }
        }

        // Create subgraph states.
        let mut subgraph_ids = Vec::with_capacity(part.len());
        for sg_local in 0..part.len() {
            let sg_id = SubgraphId(self.next_subgraph);
            self.next_subgraph += 1;
            let cell_type = graph
                .node(NodeId(part.members[sg_local][0] as u32))
                .cell_type;
            let mut state = SubgraphState {
                request: id,
                cell_type,
                ready: std::collections::VecDeque::new(),
                external_unmet: part.external_deps[sg_local],
                pinned: None,
                inflight: 0,
                last_worker: None,
                in_queue: false,
            };
            if state.external_unmet == 0 {
                // Released immediately: queue nodes with no unmet deps.
                for &m in &part.members[sg_local] {
                    if unmet[m] == 0 {
                        state.ready.push_back(m as u32);
                    }
                }
            }
            subgraph_ids.push(sg_id);
            self.subgraphs.insert(sg_id, state);
        }

        let num_subgraphs = part.len() as u32;
        let req = RequestState {
            arrival_us: now_us,
            deadline_us,
            start_us: None,
            first_enqueue_us: None,
            first_batch_us: None,
            unmet,
            dependents,
            submitted: vec![false; n],
            completed: vec![false; n],
            cancelled: vec![false; n],
            node_subgraph: part.node_subgraph,
            subgraph_ids: subgraph_ids.clone(),
            remaining: n,
            executed: 0,
            expired: false,
            graph,
        };
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
                    subgraphs: num_subgraphs,
                },
            );
        }
        if let Some(m) = &self.metrics {
            m.requests_admitted.inc();
            m.active_requests.add(1);
        }

        // Enqueue released subgraphs with ready nodes.
        for sg_id in subgraph_ids {
            self.maybe_enqueue(sg_id);
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

    fn maybe_enqueue(&mut self, sg_id: SubgraphId) {
        let sg = self.subgraphs.get_mut(&sg_id).expect("live subgraph");
        if !sg.in_queue && sg.external_unmet == 0 && !sg.ready.is_empty() {
            sg.in_queue = true;
            let (request, cell_type, count) = (sg.request, sg.cell_type, sg.ready.len());
            let q = &mut self.queues[cell_type.index()];
            q.subgraphs.push_back(sg_id);
            q.ready_nodes += count;
            if self.trace.enabled() {
                self.emit(
                    self.clock_us,
                    EventKind::NodesEnqueued {
                        request: request.0,
                        subgraph: sg_id.0,
                        cell_type: cell_type.0,
                        count: count as u32,
                    },
                );
            }
            if self.metrics.is_some() {
                // Stage decomposition: when the request first became
                // schedulable.
                if let Some(req) = self.requests.get_mut(&request) {
                    req.first_enqueue_us.get_or_insert(self.clock_us);
                }
            }
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
            let size: usize = picks.iter().map(|(_, nodes)| nodes.len()).sum();
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
    ) -> Vec<(SubgraphId, Vec<u32>)> {
        let mut picks = Vec::new();
        let mut total = 0;
        for sg_id in &self.queues[ct.index()].subgraphs {
            let sg = &self.subgraphs[sg_id];
            if sg.pinned.is_some_and(|w| w != worker) || sg.ready.is_empty() {
                continue;
            }
            let take = sg.ready.len().min(max_batch - total);
            let nodes: Vec<u32> = sg.ready.iter().take(take).copied().collect();
            total += nodes.len();
            picks.push((*sg_id, nodes));
            if total == max_batch {
                break;
            }
        }
        picks
    }

    /// Submits one batched task: removes the picked nodes from ready
    /// queues, satisfies intra-subgraph dependencies (line 18), pins
    /// subgraphs (lines 20–21) and computes gather/transfer metadata.
    fn submit(
        &mut self,
        ct: CellTypeId,
        worker: WorkerId,
        picks: Vec<(SubgraphId, Vec<u32>)>,
        reason: BatchReason,
    ) -> Task {
        let id = TaskId(self.next_task);
        self.next_task += 1;

        let mut entries: Vec<TaskEntry> = Vec::new();
        let mut subgraph_list: Vec<SubgraphId> = Vec::new();
        let mut transfer_rows = 0usize;
        let tracing = self.trace.enabled();
        let metrics_on = self.metrics.is_some();
        // Deferred trace payloads (emitted after the mutable borrows
        // below end): pins, migrations, intra-subgraph enqueues.
        let mut pins: Vec<(SubgraphId, RequestId)> = Vec::new();
        let mut migrations: Vec<(SubgraphId, RequestId, WorkerId, u32)> = Vec::new();
        let mut enqueues: Vec<(SubgraphId, RequestId, u32)> = Vec::new();

        for (sg_id, nodes) in &picks {
            let sg = self.subgraphs.get_mut(sg_id).expect("live subgraph");
            let req_id = sg.request;
            subgraph_list.push(*sg_id);
            // Remove from the front of the ready deque (FormBatchedTask
            // picked from the front).
            for &n in nodes {
                let popped = sg.ready.pop_front().expect("picked node is ready");
                debug_assert_eq!(popped, n);
                let gnode = self.requests[&req_id].graph.node(NodeId(n));
                entries.push(TaskEntry {
                    request: req_id,
                    node: NodeId(n),
                    deps: gnode.deps.clone(),
                    token: gnode.token,
                });
            }
            self.queues[ct.index()].ready_nodes -= nodes.len();
            // Pin (line 20-21) and count migration cost: every row of a
            // subgraph resuming on a different worker must move its
            // recurrent state there (§4.3).
            if let Some(prev) = sg.last_worker {
                if prev != worker {
                    transfer_rows += nodes.len();
                    if tracing {
                        migrations.push((*sg_id, req_id, prev, nodes.len() as u32));
                    }
                }
            }
            if tracing && sg.pinned.is_none() {
                pins.push((*sg_id, req_id));
            }
            sg.pinned = Some(worker);
            sg.last_worker = Some(worker);
            sg.inflight += 1;

            // Mark submitted and satisfy intra-subgraph dependencies
            // (UpdateNodesDependency, line 18).
            let req = self.requests.get_mut(&req_id).expect("live request");
            if metrics_on {
                req.first_batch_us.get_or_insert(self.clock_us);
            }
            let mut newly_ready = Vec::new();
            for &n in nodes {
                let ni = n as usize;
                req.submitted[ni] = true;
                for &dep_idx in &req.dependents[ni] {
                    let di = dep_idx as usize;
                    if req.node_subgraph[di] == req.node_subgraph[ni] && !req.cancelled[di] {
                        req.unmet[di] -= 1;
                        if req.unmet[di] == 0 {
                            newly_ready.push(dep_idx);
                        }
                    }
                }
            }
            if tracing && !newly_ready.is_empty() {
                enqueues.push((*sg_id, req_id, newly_ready.len() as u32));
            }
            let sg = self.subgraphs.get_mut(sg_id).expect("live subgraph");
            for n in newly_ready {
                sg.ready.push_back(n);
                self.queues[ct.index()].ready_nodes += 1;
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
        let q = &mut self.queues[ct.index()];
        let subgraphs = &mut self.subgraphs;
        q.subgraphs.retain(|sg_id| {
            let sg = subgraphs.get_mut(sg_id).expect("live subgraph");
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

        // Unpin subgraphs whose in-flight count drains.
        for sg_id in t.subgraphs.iter() {
            let sg = self.subgraphs.get_mut(sg_id).expect("live subgraph");
            sg.inflight -= 1;
            if sg.inflight == 0 {
                sg.pinned = None;
            }
        }

        let mut completed_requests = Vec::new();
        for (i, (req_id, node)) in t.entries.iter().enumerate() {
            let ni = node.index();
            // Phase 1: mark completion, detect <eos>, collect the
            // external edges this completion satisfies.
            let (eos_hit, released_subgraphs) = {
                let req = self.requests.get_mut(req_id).expect("live request");
                debug_assert!(!req.completed[ni]);
                req.completed[ni] = true;
                req.remaining -= 1;
                req.executed += 1;
                let eos_hit = matches!(
                    (req.graph.node(*node).eos, emitted_tokens[i]),
                    (Some(e), Some(t)) if e == t
                );
                let mut released = Vec::new();
                // Detach the dependent list instead of cloning it; the
                // loop body never touches `dependents[ni]`, and the list
                // is restored right after.
                let dependents = std::mem::take(&mut req.dependents[ni]);
                for &dep_idx in &dependents {
                    let di = dep_idx as usize;
                    if req.cancelled[di] || req.node_subgraph[di] == req.node_subgraph[ni] {
                        continue;
                    }
                    req.unmet[di] -= 1;
                    let sg_local = req.node_subgraph[di];
                    let sg_id = req.subgraph_ids[sg_local];
                    let sg = self.subgraphs.get_mut(&sg_id).expect("live subgraph");
                    sg.external_unmet -= 1;
                    if sg.external_unmet == 0 {
                        released.push(sg_local);
                    }
                }
                req.dependents[ni] = dependents;
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
    fn release_subgraph(&mut self, req_id: RequestId, sg_local: usize) {
        let Some(req) = self.requests.get(&req_id) else {
            return;
        };
        let sg_id = req.subgraph_ids[sg_local];
        let mut to_push = Vec::new();
        for (idx, &sgx) in req.node_subgraph.iter().enumerate() {
            if sgx == sg_local
                && req.unmet[idx] == 0
                && !req.submitted[idx]
                && !req.cancelled[idx]
                && !req.completed[idx]
            {
                to_push.push(idx as u32);
            }
        }
        let sg = self.subgraphs.get_mut(&sg_id).expect("live subgraph");
        debug_assert_eq!(sg.external_unmet, 0, "releasing unreleased subgraph");
        for n in to_push {
            debug_assert!(!sg.ready.contains(&n));
            sg.ready.push_back(n);
        }
        if sg.in_queue {
            // Already queued (cannot happen for a fresh release, but
            // keep the counter consistent if it ever does).
        } else {
            self.maybe_enqueue(sg_id);
        }
    }

    /// Cancels the unsubmitted nodes of a live request that `doomed`
    /// selects, strips them from their subgraphs' ready queues (keeping
    /// the per-type ready counters consistent) and compacts every type
    /// queue. Returns how many nodes it cancelled.
    fn cancel_nodes(&mut self, req_id: RequestId, doomed: Doomed) -> u32 {
        let req = self.requests.get_mut(&req_id).expect("live request");
        let n = req.graph.len();
        let selected = match doomed {
            Doomed::Unsubmitted => vec![true; n],
            Doomed::DownstreamOf(from) => {
                // A graph lists every node after its dependencies.
                let mut downstream = vec![false; n];
                downstream[from.index()] = true;
                for i in from.index() + 1..n {
                    let node = req.graph.node(NodeId(i as u32));
                    downstream[i] = node.deps.iter().any(|d| downstream[d.index()]);
                }
                downstream
            }
        };
        let mut newly_cancelled: Vec<usize> = Vec::new();
        for (i, doomed) in selected.into_iter().enumerate() {
            if doomed && !req.submitted[i] && !req.cancelled[i] {
                req.cancelled[i] = true;
                req.remaining -= 1;
                newly_cancelled.push(i);
            }
        }
        let n_cancelled = newly_cancelled.len() as u32;
        self.stats.cancelled_nodes += u64::from(n_cancelled);
        for i in newly_cancelled {
            let sg_id = req.subgraph_ids[req.node_subgraph[i]];
            let sg = self.subgraphs.get_mut(&sg_id).expect("live subgraph");
            let before = sg.ready.len();
            sg.ready.retain(|&x| x != i as u32);
            let removed = before - sg.ready.len();
            if removed > 0 && sg.in_queue {
                self.queues[sg.cell_type.index()].ready_nodes -= removed;
            }
        }
        // Compact any queues that drained.
        for ct in 0..self.queues.len() {
            self.compact_queue(CellTypeId(ct as u32));
        }
        if let Some(m) = &self.metrics {
            m.nodes_cancelled.add(u64::from(n_cancelled));
        }
        n_cancelled
    }

    /// Removes a finished request, its pending deadline and its
    /// subgraphs.
    fn retire(&mut self, req_id: RequestId) {
        let req = self.requests.remove(&req_id).expect("live request");
        if let Some(d) = req.deadline_us {
            self.deadlines.remove(&(d, req_id));
        }
        for sg_id in req.subgraph_ids {
            if let Some(sg) = self.subgraphs.remove(&sg_id) {
                debug_assert!(sg.ready.is_empty(), "retiring subgraph with ready nodes");
                if sg.in_queue {
                    let q = &mut self.queues[sg.cell_type.index()];
                    q.subgraphs.retain(|&x| x != sg_id);
                }
            }
        }
    }
}

impl std::fmt::Debug for CellularEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellularEngine")
            .field("requests", &self.requests.len())
            .field("subgraphs", &self.subgraphs.len())
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
