//! The threaded real-time runtime: N scheduler shards, each executing
//! *real* cell math on one CPU thread, behind one submission front.
//!
//! A shard is a single loop on a single thread:
//!
//! 1. drain the arrival inbox without blocking, admitting each request
//!    (slot block, engine bookkeeping with its deadline);
//! 2. expire requests whose deadline has passed
//!    ([`CellularEngine::expire`]);
//! 3. ask the [`CellularEngine`] for the next tasks (Algorithm 1, up to
//!    `MaxTasksToSubmit` of them) and execute them inline, in order —
//!    gather or resident step — telling the engine about each start and
//!    completion and resolving every request that finishes into its
//!    [`ResponseHandle`] or tagged [`CompletionQueue`];
//! 4. repeat, blocking on the inbox (no longer than the nearest
//!    deadline) only when a pass did no work.
//!
//! Requests that arrive while tasks execute therefore join at the next
//! scheduling boundary, exactly as in the paper. What the paper's
//! manager/worker split (§4.2, Figure 6), its per-device FIFO queues
//! (§5) and `MaxTasksToSubmit`'s latency hiding (§4.3) buy is overlap
//! between a host CPU and a GPU; here the "device" is the same CPU, a
//! cell step takes 10–30 µs, and a thread boundary between planner and
//! executor costs a sleep/wake round trip longer than the step it
//! hands over. Multi-core scaling is [`ServeConfig::shards`]: N shards
//! are N such threads, each with its own engine, inbox and state, all
//! stamping requests on one shared clock. One shard is simply N = 1.
//!
//! Steps 1–3 are one *pass*, and a pass has two drivers. A shard thread
//! blocks on its inbox between passes. A **hosted** shard
//! ([`Runtime::start_hosted`]) has no thread: shard 0 is driven by
//! whichever thread owns its [`HostedShard`], through
//! [`HostedShard::pass`] — the network front door runs it on its event
//! loop, so a request read off a socket is admitted, executed and
//! answered without a thread hand-off. Every submission to a hosted
//! shard calls the `wake` hook its host supplied; the front door's hook
//! does nothing when it runs on the loop itself.
//!
//! ## The front
//!
//! [`Runtime::submit_request`] and [`Runtime::submit_batch_tagged`]
//! share one admission path. A request
//! is validated, given its [`RequestId`], placed, reserved an active
//! slot on that shard, and only then unfolded and stamped — so a
//! refusal at the cap never pays for [`Model::unfold`], and every event
//! one request produces in a shared trace sink carries the same id
//! whichever shard serves it.
//!
//! Requests are placed with **cell-type affinity**: each
//! [`bm_model::RequestInput`] variant (LSTM-LM sequence, seq2seq pair, TreeLSTM
//! tree) has a home shard, so a mixed workload keeps each shard's
//! engine forming large same-type batches instead of splitting every
//! type's queue N ways. Affinity alone collapses under a skewed type
//! mix (all-LSTM traffic would fill one shard), so placement is
//! load-aware: when the home shard's active-request count exceeds the
//! least-loaded shard's by more than a spill margin, the request is
//! **rebalanced** to the least-loaded shard. This is admission-time
//! stealing — once admitted a request never migrates, because its state
//! rows live in the owning shard's slot blocks.
//!
//! Overload refusals get a second chance: a shard at its cap does not
//! fail the submission with `AtCapacity` until every other shard (tried
//! lightest first) has also refused; the request is not unfolded before
//! one accepts it.
//!
//! ## The state plane
//!
//! Node outputs live in per-request slot blocks
//! (`crate::state_plane::SlotBlock`): one write-once output per node,
//! written exactly once by the step that computes it and read in place
//! by every later gather. A request and its block live on the shard's
//! thread, so the block needs no lock and no atomics. There is no
//! global state map and no per-dependency `CellOutput` clone; a node's
//! output is copied once, out of the batch. The engine submits a node
//! only after its dependencies completed and the loop executes tasks in
//! submission order, so a dependency's rows are always written before a
//! task that gathers them starts.
//!
//! What happens to the rows after that depends on who asked. A
//! [`ResponseHandle`] is promised every node's output: its block keeps
//! every row and moves them into the [`GraphResult`] handed back. A
//! tagged request is promised what the wire sends: after each task the
//! shard tells the block which dependencies the task's entries consumed,
//! a node whose last consumer has run drops its rows, and the request
//! resolves to a [`TaggedResult`] — executed count, tokens, final hidden
//! state. A tagged request so holds the rows of its live frontier, not
//! of everything it executed.
//!
//! Cells that report a [`Cell::resident_layout`] additionally run
//! through the shard's resident-state plane: one [`crate::ResidentBatch`]
//! per chain cell type whose rows park each active request's recurrent
//! state between steps, so steady-state chain execution skips the gather
//! entirely (the scatter — the write to the slot block — remains, and
//! outputs stay bit-identical). A request's row is released the moment
//! the request resolves. Tree cells have no resident form and always
//! gather; so would a chain-cell task holding an entry with two or more
//! dependencies, which no shipped model builds (every chain node has at
//! most one).
//!
//! ## Overload behaviour
//!
//! Under overload the runtime degrades explicitly instead of letting
//! queues grow without bound, through two controls:
//!
//! - **Admission control** ([`ServeConfig::max_active`], per shard)
//!   refuses excess submissions with [`SubmitError::AtCapacity`]
//!   without disturbing admitted work. A shard's active count includes
//!   the requests still in its inbox, so the cap bounds the inbox too;
//!   the inbox itself is unbounded and a send to it fails only when
//!   the shard is gone.
//! - **Deadlines** ([`ServeConfig::deadline_us`] or per-request via
//!   [`crate::Request::deadline_us`]) cancel requests that cannot
//!   meet their SLA. The front resolves each request's absolute
//!   deadline and the shard's engine keeps it: every pass calls
//!   [`CellularEngine::expire`], which drops the unsubmitted cells of
//!   every request due, and each such handle resolves to
//!   [`ServedOutcome::Expired`]. A shard blocks no longer than
//!   [`CellularEngine::next_deadline`], which names only requests
//!   still waiting for their deadline.
//!
//! ## Observability
//!
//! A [`bm_trace::TraceSink`] in [`ServeConfig::trace`] captures the
//! full request lifecycle — arrival, admission rejections, batch
//! formation (with the Algorithm 1 branch that chose the cell type),
//! task execution, expiry and completion — as structured [`bm_trace`]
//! events, exportable to Chrome trace JSON. With
//! [`ServeConfig::telemetry`] enabled each shard records into its
//! **own** registry, written by the shard's thread alone (the
//! submitting threads only tick its at-capacity refusal counter), and
//! [`Runtime::snapshot`] rolls them up into a single
//! [`Snapshot`] with a `shard` label on every entry — aggregate totals
//! fall out of `counter_sum`/`histogram_sum` over the merged view.
//!
//! The runtime exists to prove the scheduler end-to-end: its results are
//! compared bit-for-bit against the unbatched reference executor
//! (`bm_model::reference`), while the latency/throughput experiments use
//! the discrete-event simulator over the same engine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use bm_cell::{Cell, CellRegistry, CellTypeId, ResidentLayout, RowInvocation, Scratch, StateRef};
use bm_device::CpuTimer;
use bm_model::{reference::GraphResult, CellGraph, Model, NodeId, TokenSource};
use bm_telemetry::{Counter, Gauge, Histogram, Snapshot, Telemetry};
use bm_trace::{EventKind, RejectReason, TraceEvent};

use crate::config::ServeConfig;
use crate::engine::{CellularEngine, SchedulerConfig};
use crate::ids::{RequestId, WorkerId};
use crate::request::Request;
use crate::resident::{ResidentBatch, ResidentStats};
use crate::shard;
use crate::state_plane::SlotBlock;
use crate::task::{CompletedRequest, Task, TaskEntry};

/// Why a submission was refused.
///
/// Validation failures and overload refusals are both surfaced here so
/// callers can match on the cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The input failed model validation (wrong variant, empty
    /// sequence, out-of-vocabulary tokens). No work was done.
    Invalid(String),
    /// Every shard was at its concurrent-request cap
    /// ([`ServeConfig::max_active`]). The request was not unfolded.
    AtCapacity,
    /// The runtime is shutting down and no longer accepts requests.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            SubmitError::AtCapacity => write!(f, "active-request cap reached"),
            SubmitError::ShuttingDown => write!(f, "runtime shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Timing measured for one served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedTiming {
    /// Arrival, µs since runtime start.
    pub arrival_us: u64,
    /// First execution, µs.
    pub start_us: u64,
    /// Completion, µs.
    pub completion_us: u64,
}

/// The payload of a successfully served request, as a [`ResponseHandle`]
/// receives it.
#[derive(Debug, Clone)]
pub struct ServedResult {
    /// Per-node outputs (`None` for `<eos>`-cancelled nodes).
    pub result: GraphResult,
    /// Request timing.
    pub timing: ServedTiming,
}

/// The payload of a successfully served *tagged* request: what a
/// response on the wire carries, plus the final hidden state. Each field
/// equals what [`GraphResult`] reports for the same request.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedResult {
    /// Nodes executed ([`GraphResult::executed_count`]).
    pub executed: usize,
    /// Each node's emitted token in node order, `None` for nodes that
    /// emit none or never executed.
    pub tokens: Vec<Option<u32>>,
    /// The last executed node's hidden state ([`GraphResult::final_h`]).
    pub final_h: Vec<f32>,
    /// Request timing.
    pub timing: ServedTiming,
}

/// How an *admitted* request resolved. (Refused submissions never get a
/// handle — they fail fast with a [`SubmitError`].) A [`ResponseHandle`]
/// resolves to a [`ServedResult`]; a [`CompletionQueue`] delivers a
/// `ServedOutcome<TaggedResult>`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ServedOutcome<R = ServedResult> {
    /// The request ran to completion; outputs are bit-identical to the
    /// unbatched reference executor.
    Completed(R),
    /// The deadline passed before completion: unsubmitted cells were
    /// cancelled, in-flight work drained and partial outputs were
    /// discarded. The timing records when the request was admitted and
    /// when it was declared expired.
    Expired(ServedTiming),
    /// The runtime shut down before resolving the request.
    ShutDown,
}

impl<R: std::fmt::Debug> ServedOutcome<R> {
    /// Unwraps the completed result.
    ///
    /// # Panics
    ///
    /// Panics if the request did not complete.
    pub fn completed(self) -> R {
        match self {
            ServedOutcome::Completed(r) => r,
            other => panic!("request did not complete: {other:?}"),
        }
    }

    /// Whether the request completed normally.
    pub fn is_completed(&self) -> bool {
        matches!(self, ServedOutcome::Completed(_))
    }
}

impl<R> ServedOutcome<R> {
    /// The same outcome with the completed payload mapped through `f`.
    fn map<S>(self, f: impl FnOnce(R) -> S) -> ServedOutcome<S> {
        match self {
            ServedOutcome::Completed(r) => ServedOutcome::Completed(f(r)),
            ServedOutcome::Expired(t) => ServedOutcome::Expired(t),
            ServedOutcome::ShutDown => ServedOutcome::ShutDown,
        }
    }
}

impl ServedOutcome {
    /// The request timing, when one was measured (completed or expired).
    pub fn timing(&self) -> Option<ServedTiming> {
        match self {
            ServedOutcome::Completed(r) => Some(r.timing),
            ServedOutcome::Expired(t) => Some(*t),
            _ => None,
        }
    }
}

/// Why [`ResponseHandle::wait_timeout`] returned without an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WaitError {
    /// The timeout elapsed before the request resolved; the handle is
    /// still live and may be waited on again.
    TimedOut,
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::TimedOut => write!(f, "timed out waiting for the request to resolve"),
        }
    }
}

impl std::error::Error for WaitError {}

/// A handle to a submitted request; resolves to its outcome.
#[derive(Debug)]
pub struct ResponseHandle {
    rx: Receiver<ServedOutcome>,
}

impl ResponseHandle {
    /// Blocks until the request resolves. Never panics: a runtime that
    /// shut down before serving the request yields
    /// [`ServedOutcome::ShutDown`].
    pub fn wait(self) -> ServedOutcome {
        self.rx.recv().unwrap_or(ServedOutcome::ShutDown)
    }

    /// Blocks until the request resolves or `timeout` elapses. On
    /// timeout the handle stays live: callers interleaving waits with
    /// other work call it again. (Tagged completion queues are the
    /// non-blocking alternative — see [`Runtime::submit_batch_tagged`].)
    /// A runtime that shut down yields [`ServedOutcome::ShutDown`],
    /// never an error.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<ServedOutcome, WaitError> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => Ok(outcome),
            Err(RecvTimeoutError::Timeout) => Err(WaitError::TimedOut),
            Err(RecvTimeoutError::Disconnected) => Ok(ServedOutcome::ShutDown),
        }
    }

    /// Non-blocking poll.
    pub fn try_wait(&self) -> Option<ServedOutcome> {
        self.rx.try_recv().ok()
    }
}

/// Creates a shared completion queue: the sending half is cloned into
/// tagged submissions ([`Runtime::submit_batch_tagged`]), the receiving
/// half is held by the one consumer pumping outcomes.
///
/// This is the many-requests-one-consumer alternative to
/// [`ResponseHandle`]: instead of one channel (and one waiting thread)
/// per request, every outcome lands on a single queue tagged with the
/// caller's `u64`, so a single thread — the network front door's event
/// loop — can drain thousands of requests' completions without a
/// thread or a sleep-poll per connection.
pub fn completion_queue() -> (CompletionQueue, CompletionReceiver) {
    let (tx, rx) = unbounded();
    (
        CompletionQueue { tx, waker: None },
        CompletionReceiver { rx },
    )
}

/// The sending half of a [`completion_queue`]: a tagged outcome sink
/// shared by many requests, with an optional waker invoked after each
/// delivery (the front door points it at an eventfd so outcomes wake
/// its readiness loop). A completed request arrives as a
/// [`TaggedResult`], not as per-node outputs.
#[derive(Clone)]
pub struct CompletionQueue {
    tx: Sender<(u64, ServedOutcome<TaggedResult>)>,
    waker: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("waker", &self.waker.is_some())
            .finish()
    }
}

impl CompletionQueue {
    /// Attaches a waker called (on the resolving shard thread) after
    /// every outcome is queued. Must be cheap and non-blocking; an
    /// eventfd write qualifies.
    pub fn with_waker(mut self, waker: Arc<dyn Fn() + Send + Sync>) -> Self {
        self.waker = Some(waker);
        self
    }

    /// Queues one resolved outcome and fires the waker.
    fn deliver(&self, tag: u64, outcome: ServedOutcome<TaggedResult>) {
        let _ = self.tx.send((tag, outcome));
        if let Some(w) = &self.waker {
            w();
        }
    }
}

/// The receiving half of a [`completion_queue`].
pub struct CompletionReceiver {
    rx: Receiver<(u64, ServedOutcome<TaggedResult>)>,
}

impl CompletionReceiver {
    /// Takes the next queued outcome without blocking.
    pub fn try_recv(&self) -> Option<(u64, ServedOutcome<TaggedResult>)> {
        self.rx.try_recv().ok()
    }

    /// Blocks up to `timeout` for the next outcome.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(u64, ServedOutcome<TaggedResult>)> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// Where one admitted request's outcome goes: its own handle channel,
/// or a shared tagged queue.
enum Respond {
    Handle(Sender<ServedOutcome>),
    Queue { queue: CompletionQueue, tag: u64 },
}

impl Respond {
    /// Whether the request's rows may go at their last consumer: only a
    /// handle is promised every node's output.
    fn frees_rows(&self) -> bool {
        matches!(self, Respond::Queue { .. })
    }

    /// Sends the outcome, resolving a completed request's block to
    /// what this destination is promised.
    fn deliver(self, outcome: ServedOutcome<(SlotBlock, ServedTiming)>) {
        match self {
            Respond::Handle(tx) => {
                let _ = tx.send(outcome.map(|(block, timing)| ServedResult {
                    result: block.into_result(),
                    timing,
                }));
            }
            Respond::Queue { queue, tag } => queue.deliver(
                tag,
                outcome.map(|(block, timing)| block.into_tagged(timing)),
            ),
        }
    }
}

/// Runtime construction knobs: the scheduler tunables, whose embedded
/// [`ServeConfig`] carries every serving knob (deadlines, admission
/// cap, shard count, observability).
/// `ServeConfig` is the one place a serving knob is set; hand the
/// finished config over with [`RuntimeOptions::serve_config`].
///
/// Built fluently (`#[non_exhaustive]` forbids literal construction so
/// new knobs can be added compatibly):
///
/// ```
/// use bm_core::{RuntimeOptions, SchedulerConfig, ServeConfig};
///
/// let opts = RuntimeOptions::new()
///     .scheduler(SchedulerConfig::new().max_tasks_to_submit(2))
///     .serve_config(ServeConfig::new().max_active(64).deadline_us(50_000));
/// assert_eq!(opts.scheduler.max_tasks_to_submit, 2);
/// assert_eq!(opts.serve().max_active, Some(64));
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RuntimeOptions {
    /// Executing threads per shard. Always 1 — a shard schedules and
    /// executes on one thread — and [`Runtime::start`] refuses anything
    /// else; scale across cores with [`ServeConfig::shards`]. Kept so
    /// deployment records can report it.
    pub workers: usize,
    /// Scheduler tunables (Algorithm 1), including the embedded
    /// [`ServeConfig`] (reachable via [`RuntimeOptions::serve`]).
    pub scheduler: SchedulerConfig,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            workers: 1,
            scheduler: SchedulerConfig::default(),
        }
    }
}

impl RuntimeOptions {
    /// Default options: default scheduler, default [`ServeConfig`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared serving configuration embedded in the scheduler
    /// tunables.
    pub fn serve(&self) -> &ServeConfig {
        &self.scheduler.serve
    }

    /// Sets the scheduler tunables. Replaces the whole config including
    /// its embedded [`ServeConfig`], so in a chain it comes before
    /// [`RuntimeOptions::serve_config`] and [`RuntimeOptions::telemetry`]:
    /// `.serve_config(serve).scheduler(cfg)` silently drops `serve`.
    pub fn scheduler(mut self, cfg: SchedulerConfig) -> Self {
        self.scheduler = cfg;
        self
    }

    /// Replaces the embedded [`ServeConfig`] wholesale, keeping the
    /// other scheduler tunables.
    pub fn serve_config(mut self, serve: ServeConfig) -> Self {
        self.scheduler.serve = serve;
        self
    }

    /// Shorthand for setting [`ServeConfig::telemetry`] on the embedded
    /// serve config — the one delegating setter, kept because the repo's
    /// benchmark turns telemetry on through it. An enabled registry
    /// switches the serving metrics on: admission/rejection/expiry
    /// counters, queue-depth gauges, per-stage latency and batch-size
    /// histograms, and each shard thread's execution time, recorded per
    /// shard and read back through [`Runtime::snapshot`]. The default
    /// disabled registry keeps every instrumentation site to a single
    /// branch.
    pub fn telemetry(mut self, tel: Arc<Telemetry>) -> Self {
        self.scheduler.serve.telemetry = tel;
        self
    }
}

/// One admitted request on its way to a shard thread.
struct Arrival {
    id: RequestId,
    graph: CellGraph,
    arrival_us: u64,
    deadline_us: Option<u64>,
    respond: Respond,
}

enum ShardMsg {
    /// Admitted requests: one per single submission, many from
    /// [`Runtime::submit_batch_tagged`]. Never empty.
    Arrive(Vec<Arrival>),
    Shutdown,
}

/// Called after every inbox message sent to a hosted shard, so its
/// host leaves whatever wait it is in.
type Wake = Arc<dyn Fn() + Send + Sync>;

/// The front's half of one shard: how to reach it and how loaded it is.
/// A shard has either a thread of its own or a wake hook for its host.
struct ShardHandle {
    inbox: Sender<ShardMsg>,
    /// The shard's own thread, until joined.
    thread: Option<JoinHandle<()>>,
    /// Set instead for a hosted shard: how to wake its host.
    wake: Option<Wake>,
    /// Requests admitted and not yet resolved; shared with the shard.
    active: Arc<AtomicUsize>,
    /// `bm_requests_rejected_total{reason="at_capacity"}`; `None` when
    /// telemetry is disabled.
    rejected: Option<Counter>,
}

impl ShardHandle {
    /// Reserves one active slot under `cap`; `false` at the cap.
    fn reserve(&self, cap: Option<usize>) -> bool {
        let Some(cap) = cap else {
            self.active.fetch_add(1, Ordering::AcqRel);
            return true;
        };
        self.active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok()
    }

    /// Ships arrivals, whose slots the caller reserved here, to the
    /// shard as one inbox message, then calls a hosted shard's wake
    /// hook. The inbox is unbounded, so this fails only when the shard
    /// is gone: every reserved slot is then released.
    fn send(&self, arrivals: Vec<Arrival>) -> Result<(), SubmitError> {
        let n = arrivals.len();
        if self.inbox.send(ShardMsg::Arrive(arrivals)).is_err() {
            self.active.fetch_sub(n, Ordering::AcqRel);
            return Err(SubmitError::ShuttingDown);
        }
        if let Some(wake) = &self.wake {
            wake();
        }
        Ok(())
    }
}

/// The threaded runtime: [`ServeConfig::shards`] one-thread scheduler
/// shards behind one submission front (placement, admission and
/// telemetry semantics in the module-level docs of `runtime.rs`).
///
/// ```no_run
/// use std::sync::Arc;
/// use bm_core::{Request, Runtime, RuntimeOptions, ServeConfig};
/// use bm_model::RequestInput;
/// # fn demo(model: Arc<dyn bm_model::Model>) {
/// let rt = Runtime::start(
///     model,
///     RuntimeOptions::new().serve_config(ServeConfig::new().shards(4)),
/// );
/// let handle = rt
///     .submit_request(Request::new(RequestInput::Sequence(vec![1, 2])))
///     .unwrap();
/// let _ = handle.wait();
/// # }
/// ```
pub struct Runtime {
    shards: Vec<ShardHandle>,
    /// Per-shard registries (empty when telemetry is disabled).
    registries: Vec<Arc<Telemetry>>,
    /// Round-robin cursor used only to vary the starting shard of the
    /// load scan, so equal-load ties don't all resolve to shard 0.
    rr: AtomicUsize,
    model: Arc<dyn Model>,
    /// One clock for every shard: a [`ServedTiming`] from any of them
    /// is on the epoch [`Runtime::now_us`] reads.
    timer: CpuTimer,
    /// One id space for every shard, so ids stay distinct in a trace
    /// sink the shards share.
    next_request: AtomicU64,
    opts: RuntimeOptions,
}

impl Runtime {
    /// Starts `opts.serve().shards` shards (one thread each) serving
    /// `model`.
    ///
    /// # Panics
    ///
    /// Panics if `opts.workers` is not 1, or if the shard count is 0.
    pub fn start(model: Arc<dyn Model>, opts: RuntimeOptions) -> Self {
        Self::launch(model, opts, None).0
    }

    /// Starts the runtime like [`Runtime::start`], except that shard 0
    /// gets no thread: whichever thread owns the returned
    /// [`HostedShard`] is its **host** and runs its passes (shards
    /// 1..N−1 get threads as usual). Every inbox message sent to shard
    /// 0 is followed by a call to `wake`, which must make the host run
    /// a pass soon (an eventfd write qualifies). Called on the host
    /// itself — a submission from the thread that passes next — it need
    /// do nothing, and a hook that knows its host can skip the call.
    ///
    /// The network front door hosts shard 0 on its event loop, so a
    /// socket request is read, scheduled, executed and answered without
    /// crossing a thread.
    ///
    /// Shutting the runtime down joins shards 1..N−1 only; draining
    /// shard 0 is the host's job (pass until [`HostedShard::pass`]
    /// finds no work). Dropping the [`HostedShard`] resolves every
    /// request it still holds, admitted or in its inbox, as
    /// [`ServedOutcome::ShutDown`], and later submissions to it fail
    /// with [`SubmitError::ShuttingDown`]. (A submission from another
    /// thread that lands while the drop runs is neither: a
    /// [`ResponseHandle`] then reads `ShutDown` once the runtime is
    /// gone, a tagged outcome never arrives.)
    ///
    /// # Panics
    ///
    /// As [`Runtime::start`].
    pub fn start_hosted(
        model: Arc<dyn Model>,
        opts: RuntimeOptions,
        wake: Arc<dyn Fn() + Send + Sync>,
    ) -> (Self, HostedShard) {
        let (rt, shard) = Self::launch(model, opts, Some(wake));
        let shard = shard.expect("shard 0 is hosted");
        (rt, HostedShard { shard })
    }

    /// Starts every shard; with `wake`, shard 0 is handed back for the
    /// caller to host instead of being given a thread.
    fn launch(
        model: Arc<dyn Model>,
        opts: RuntimeOptions,
        mut wake: Option<Wake>,
    ) -> (Self, Option<Shard>) {
        assert!(
            opts.workers == 1,
            "a shard schedules and executes on one thread (workers = {}): \
             scale across cores with ServeConfig::shards",
            opts.workers
        );
        let serve = opts.serve();
        assert!(serve.shards >= 1, "a runtime needs at least one shard");
        let registry: Arc<CellRegistry> = Arc::new(model.registry().clone());
        let timer = CpuTimer::new();
        let mut registries = Vec::new();
        let mut hosted = None;
        let shards = (0..serve.shards)
            .map(|i| {
                // The engine installs its own trace/telemetry sinks from
                // the serve config embedded in the scheduler config.
                let mut scheduler = opts.scheduler.clone();
                if serve.telemetry.enabled() {
                    scheduler.serve.telemetry = Telemetry::new();
                    registries.push(Arc::clone(&scheduler.serve.telemetry));
                }
                let tel = &scheduler.serve.telemetry;
                let active = Arc::new(AtomicUsize::new(0));
                let (inbox, rx) = unbounded::<ShardMsg>();
                let rejected = tel.enabled().then(|| {
                    tel.counter_with("bm_requests_rejected_total", &[("reason", "at_capacity")])
                });
                let metrics = tel.enabled().then(|| ShardMetrics::new(tel));
                // Every shard records into the one trace sink: shard `i`
                // dispatches as worker `i` and numbers its tasks from
                // `i << 40`, so no two shards' task events collide.
                let worker = WorkerId(i as u32);
                let mut engine = CellularEngine::new(Arc::clone(&registry), scheduler);
                engine.number_tasks_from(u64::from(worker.0) << 40);
                let shard = Shard {
                    rx,
                    metrics,
                    plane: HashMap::new(),
                    engine,
                    worker,
                    registry: Arc::clone(&registry),
                    timer: timer.clone(),
                    active: Arc::clone(&active),
                    live: HashMap::new(),
                    scratch: Scratch::new(),
                    shutting_down: false,
                };
                let (thread, wake) = match wake.take() {
                    Some(wake) => {
                        hosted = Some(shard);
                        (None, Some(wake))
                    }
                    None => {
                        let thread = std::thread::Builder::new()
                            .name(format!("bm-shard-{i}"))
                            .spawn(move || shard.run())
                            .expect("spawn shard thread");
                        (Some(thread), None)
                    }
                };
                ShardHandle {
                    inbox,
                    thread,
                    wake,
                    active,
                    rejected,
                }
            })
            .collect();

        let rt = Runtime {
            shards,
            registries,
            rr: AtomicUsize::new(0),
            model,
            timer,
            next_request: AtomicU64::new(0),
            opts,
        };
        (rt, hosted)
    }

    /// Submits a [`Request`] — the single submission entry point.
    ///
    /// Fails fast with a typed [`SubmitError`] — invalid input,
    /// admission-control refusal ([`SubmitError::AtCapacity`], only
    /// after every shard refused) or shutdown. A returned handle means
    /// the request was admitted; it resolves to a [`ServedOutcome`].
    ///
    /// ```no_run
    /// # use std::sync::Arc;
    /// # use bm_core::{Request, Runtime, RuntimeOptions};
    /// # use bm_model::RequestInput;
    /// # fn serve(rt: &Runtime) -> Result<(), bm_core::SubmitError> {
    /// let handle = rt.submit_request(
    ///     Request::new(RequestInput::Sequence(vec![1, 2, 3])).deadline_us(50_000),
    /// )?;
    /// let outcome = handle.wait();
    /// # Ok(())
    /// # }
    /// ```
    pub fn submit_request(&self, req: impl Into<Request>) -> Result<ResponseHandle, SubmitError> {
        let (tx, rx) = unbounded();
        self.submit(&req.into(), Respond::Handle(tx))?;
        Ok(ResponseHandle { rx })
    }

    /// Submits many tagged requests with **one inbox message per
    /// shard**, so a burst of arrivals wakes an idle shard once instead
    /// of once per request. Each request is placed as a single
    /// submission would be, with this batch's earlier placements
    /// projected onto the load estimate so one burst does not dogpile a
    /// single shard. Per-request admission still applies: the returned
    /// vector gives each request's verdict in input order, and only `Ok`
    /// entries were admitted (their outcomes arrive on `queue`).
    pub fn submit_batch_tagged(
        &self,
        reqs: impl IntoIterator<Item = (u64, Request)>,
        queue: &CompletionQueue,
    ) -> Vec<Result<(), SubmitError>> {
        let mut projected = self.loads();
        let mut results = Vec::new();
        // Per shard: the arrivals riding its message and, parallel to
        // them, their indices in `results`.
        let mut groups: Vec<(Vec<usize>, Vec<Arrival>)> =
            self.shards.iter().map(|_| Default::default()).collect();
        for (idx, (tag, req)) in reqs.into_iter().enumerate() {
            let respond = Respond::Queue {
                queue: queue.clone(),
                tag,
            };
            results.push(self.admit(&req, respond, &projected).map(|(s, arrival)| {
                projected[s] += 1;
                groups[s].0.push(idx);
                groups[s].1.push(arrival);
            }));
        }
        for (s, (idxs, arrivals)) in groups.into_iter().enumerate() {
            if arrivals.is_empty() {
                continue;
            }
            if let Err(err) = self.shards[s].send(arrivals) {
                for idx in idxs {
                    results[idx] = Err(err.clone());
                }
            }
        }
        results
    }

    /// One single submission: admit, then ship as a one-arrival message.
    fn submit(&self, req: &Request, respond: Respond) -> Result<(), SubmitError> {
        let (s, arrival) = self.admit(req, respond, &self.loads())?;
        self.shards[s].send(vec![arrival])
    }

    /// Validates one request, gives it its id, reserves it an active
    /// slot — on its placement shard, else (second chance) on the
    /// others, lightest first — and only then unfolds and stamps it. On
    /// success the caller owns the slot on the returned shard and must
    /// hand the [`Arrival`] to that shard's [`ShardHandle::send`].
    fn admit(
        &self,
        req: &Request,
        respond: Respond,
        loads: &[usize],
    ) -> Result<(usize, Arrival), SubmitError> {
        self.model
            .validate(&req.input)
            .map_err(SubmitError::Invalid)?;
        let id = RequestId(self.next_request.fetch_add(1, Ordering::Relaxed));
        // The scan for the lightest shard starts at a rotating offset so
        // equal-load ties spread.
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % loads.len();
        let first = shard::place(&req.input, loads, start);
        let cap = self.opts.serve().max_active;
        let Some(s) = std::iter::once(first)
            .chain(std::iter::once_with(|| shard::retry_order(first, loads)).flatten())
            .find(|&s| self.shards[s].reserve(cap))
        else {
            self.refuse(first, id);
            return Err(SubmitError::AtCapacity);
        };

        let graph = self.model.unfold(&req.input);
        let arrival_us = self.timer.now_us();
        let deadline_us = req.effective_deadline_us(self.opts.serve().deadline_us);
        let arrival = Arrival {
            id,
            graph,
            arrival_us,
            deadline_us: deadline_us.map(|d| arrival_us.saturating_add(d)),
            respond,
        };
        Ok((s, arrival))
    }

    /// Counts and traces request `id`'s refusal, once, after every shard
    /// turned it away: on the registry of `first`, the shard it was
    /// offered to first.
    fn refuse(&self, first: usize, id: RequestId) {
        if let Some(c) = &self.shards[first].rejected {
            c.inc();
        }
        let trace = &self.opts.serve().trace;
        if trace.enabled() {
            trace.record(TraceEvent {
                ts_us: self.timer.now_us(),
                kind: EventKind::RequestRejected {
                    request: id.0,
                    reason: RejectReason::AtCapacity,
                },
            });
        }
    }

    /// Per-shard active-request snapshot used for placement.
    fn loads(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.active.load(Ordering::Acquire))
            .collect()
    }

    /// The number of scheduler shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Requests admitted and not yet resolved, summed over all shards.
    pub fn active_requests(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.active.load(Ordering::Acquire))
            .sum()
    }

    /// Microseconds since the runtime started, on the clock every shard
    /// stamps its [`ServedTiming`]s with.
    pub fn now_us(&self) -> u64 {
        self.timer.now_us()
    }

    /// One rolled-up snapshot of every shard's registry: each entry
    /// carries a `shard` label naming its source shard. Empty when
    /// telemetry was not enabled at start.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::merge(
            self.registries
                .iter()
                .enumerate()
                .map(|(i, reg)| reg.snapshot().with_label("shard", &i.to_string())),
        )
    }

    /// Shuts every shard down after draining in-flight requests,
    /// joining all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Every shard thread hears the shutdown before any is joined, so
        // they drain in parallel. A hosted shard is never sent one: its
        // host drains it, and may be the thread running this.
        for s in self.shards.iter().filter(|s| s.thread.is_some()) {
            let _ = s.inbox.send(ShardMsg::Shutdown);
        }
        for s in &mut self.shards {
            if let Some(t) = s.thread.take() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Shard 0 of a runtime started with [`Runtime::start_hosted`], driven
/// by the thread that owns this handle instead of a thread of its own.
///
/// [`HostedShard::pass`] is the same pass a shard thread runs between
/// two waits: admit the inbox, expire, one `dispatch` of at most
/// `MaxTasksToSubmit` tasks, resolve. The host calls it whenever it has
/// submitted something, been woken, or reached
/// [`HostedShard::next_deadline`], and keeps calling it without
/// blocking for as long as it reports work, so requests arriving
/// meanwhile join at the next scheduling boundary.
pub struct HostedShard {
    shard: Shard,
}

impl HostedShard {
    /// Runs one pass; `woke` says the host has just returned from a
    /// blocking wait. `bm_manager_wakeups_total` and
    /// `bm_manager_drained_per_wakeup` count that wait only if it ended
    /// for this shard's sake — the pass finds an inbox message or a
    /// deadline due, as every wake-up of a shard thread does — so the
    /// host's waits that served other work are not this shard's
    /// wake-ups. Returns whether the pass did any work: while it does,
    /// the host should pass again without blocking.
    pub fn pass(&mut self, woke: bool) -> bool {
        self.shard.pass(None, woke)
    }

    /// How long the host may block before a pass is due for the nearest
    /// deadline — zero when one is already due — or `None` when no
    /// request the shard holds is waiting on a deadline (a request that
    /// resolved took its deadline with it).
    pub fn next_deadline(&self) -> Option<Duration> {
        let d = self.shard.engine.next_deadline()?;
        Some(Duration::from_micros(
            d.saturating_sub(self.shard.timer.now_us()),
        ))
    }

    /// Requests placed on this shard and not yet resolved, including
    /// those still in its inbox.
    pub fn active(&self) -> usize {
        self.shard.active.load(Ordering::Acquire)
    }
}

impl Drop for HostedShard {
    fn drop(&mut self) {
        self.shard.abandon();
    }
}

/// One admitted request as the shard thread holds it until it resolves.
struct LiveRequest {
    respond: Respond,
    /// The request's state rows; every task entry of the request gathers
    /// from and scatters into them.
    block: SlotBlock,
}

/// The shard thread's telemetry handles (`None` as a whole when
/// telemetry is disabled, so each site stays one branch). The
/// `bm_manager_*` / `bm_worker_*` names predate the one-thread shard and
/// are kept because dashboards and the benchmark read them.
struct ShardMetrics {
    /// `bm_stage_us{stage="scatter_resolve"}`: from the engine declaring
    /// a request complete to the loop resolving it. Outside the
    /// four-stage tiling.
    scatter_resolve: Histogram,
    /// `bm_manager_wakeups_total`: returns from a blocking wait that
    /// ended for this shard — an inbox message reaching an idle shard,
    /// or a deadline falling due.
    wakeups: Counter,
    /// `bm_manager_drained_per_wakeup`: arrivals admitted right after
    /// such a wake.
    drained: Histogram,
    /// `bm_manager_submit_batch`: tasks one `dispatch` returned.
    submit_batch: Histogram,
    /// `bm_worker_busy_us_total{worker="0"}`: time inside task
    /// execution.
    busy: Counter,
    resident: ResidentTelemetry,
}

/// Telemetry of the resident-state plane: the occupancy gauge plus
/// churn counters, advanced from [`ResidentStats`] deltas.
struct ResidentTelemetry {
    rows: Gauge,
    joins: Counter,
    leaves: Counter,
    compactions: Counter,
    refetches: Counter,
    last: ResidentStats,
}

impl ShardMetrics {
    fn new(tel: &Telemetry) -> Self {
        let worker = [("worker", "0")];
        ShardMetrics {
            scatter_resolve: tel.histogram_with("bm_stage_us", &[("stage", "scatter_resolve")]),
            wakeups: tel.counter("bm_manager_wakeups_total"),
            drained: tel.histogram("bm_manager_drained_per_wakeup"),
            submit_batch: tel.histogram("bm_manager_submit_batch"),
            busy: tel.counter_with("bm_worker_busy_us_total", &worker),
            resident: ResidentTelemetry {
                rows: tel.gauge_with("bm_resident_rows", &worker),
                joins: tel.counter_with("bm_resident_joins_total", &worker),
                leaves: tel.counter_with("bm_resident_leaves_total", &worker),
                compactions: tel.counter_with("bm_resident_compactions_total", &worker),
                refetches: tel.counter_with("bm_resident_refetches_total", &worker),
                last: ResidentStats::default(),
            },
        }
    }
}

/// What a blocking wait on the inbox returned.
enum Parked {
    /// A deadline was already due: no wait happened.
    Due,
    /// The thread blocked and woke: on a message, or on the timer.
    Woke(Option<ShardMsg>),
    /// Every sender is gone.
    Closed,
}

/// Everything the shard thread owns.
struct Shard {
    rx: Receiver<ShardMsg>,
    engine: CellularEngine,
    /// The worker this shard dispatches as: its index.
    worker: WorkerId,
    registry: Arc<CellRegistry>,
    timer: CpuTimer,
    active: Arc<AtomicUsize>,
    metrics: Option<ShardMetrics>,
    live: HashMap<RequestId, LiveRequest>,
    /// Batch intermediates, recycled across tasks so steady-state
    /// execution does no per-step heap allocation.
    scratch: Scratch,
    /// The resident-state plane: one persistent batch per chain cell
    /// type (created at the type's first task), rows owned by this
    /// shard's active requests.
    plane: HashMap<CellTypeId, ResidentBatch>,
    /// A `Shutdown` message was drained: the thread exits once the
    /// engine holds no request.
    shutting_down: bool,
}

impl Shard {
    /// The shard-thread driver: block on the inbox (no longer than the
    /// nearest deadline) whenever a pass found nothing to do, then pass.
    fn run(mut self) {
        // Whether the previous pass found nothing to do. Only then does
        // the thread block; the first pass has nothing to find.
        let mut idle = true;
        loop {
            let (first, woke) = match idle.then(|| self.park()) {
                None | Some(Parked::Due) => (None, false),
                Some(Parked::Woke(m)) => (m, true),
                Some(Parked::Closed) => break,
            };
            idle = !self.pass(first, woke);
            if self.shutting_down && self.engine.active_requests() == 0 {
                break;
            }
        }
    }

    /// One pass — the whole of a shard's work, whichever thread drives
    /// it: admit everything in the inbox (`first`, if the driver already
    /// took a message, then the rest), expire overdue requests, run one
    /// `dispatch`'s tasks and resolve what they finish. `woke` says the
    /// driver returned from a blocking wait just before, which the
    /// wake-up metrics count. Returns whether the pass did any work.
    fn pass(&mut self, first: Option<ShardMsg>, woke: bool) -> bool {
        // Admit everything that has arrived, so requests that came in
        // while the last tasks ran join this pass's batches.
        let (mut messages, mut arrivals) = (0u64, 0u64);
        let mut next = first.or_else(|| self.rx.try_recv().ok());
        while let Some(msg) = next {
            messages += 1;
            match msg {
                ShardMsg::Arrive(batch) => {
                    arrivals += batch.len() as u64;
                    for a in batch {
                        self.admit(a);
                    }
                }
                ShardMsg::Shutdown => self.shutting_down = true,
            }
            next = self.rx.try_recv().ok();
        }
        let now = self.timer.now_us();
        if let (true, Some(m)) = (woke, &self.metrics) {
            // Only a wait that ended for this shard is its wake-up: a
            // shard thread's always did, a host's may have served other
            // work.
            if messages > 0 || self.engine.next_deadline().is_some_and(|d| d <= now) {
                m.wakeups.inc();
                m.drained.record(arrivals);
            }
        }
        // Every task of the last pass completed, so each request due
        // retires at once.
        let expired = self.engine.expire(now);
        let any_expired = !expired.is_empty();
        for done in expired {
            self.resolve(done);
        }
        self.engine.advance_clock(now);
        let ran = self.run_tasks();
        let worked = arrivals > 0 || any_expired || ran;
        if worked {
            self.publish_resident();
        }
        worked
    }

    /// Resolves everything the shard still holds — admitted, or still
    /// in its inbox — as [`ServedOutcome::ShutDown`].
    fn abandon(&mut self) {
        let held = self.live.drain().map(|(_, r)| r.respond);
        let queued = std::iter::from_fn(|| self.rx.try_recv().ok()).flat_map(|msg| match msg {
            ShardMsg::Arrive(batch) => batch,
            ShardMsg::Shutdown => Vec::new(),
        });
        for respond in held.chain(queued.map(|a| a.respond)) {
            self.active.fetch_sub(1, Ordering::AcqRel);
            respond.deliver(ServedOutcome::ShutDown);
        }
    }

    /// Blocks for the next inbox message, but never past the nearest
    /// pending deadline.
    fn park(&self) -> Parked {
        let now = self.timer.now_us();
        match self.engine.next_deadline() {
            Some(d) if d <= now => Parked::Due,
            Some(d) => match self.rx.recv_timeout(Duration::from_micros(d - now)) {
                Ok(m) => Parked::Woke(Some(m)),
                Err(RecvTimeoutError::Timeout) => Parked::Woke(None),
                Err(RecvTimeoutError::Disconnected) => Parked::Closed,
            },
            None => match self.rx.recv() {
                Ok(m) => Parked::Woke(Some(m)),
                Err(_) => Parked::Closed,
            },
        }
    }

    /// Books one arrival: the token-table rows of its fixed tokens,
    /// live-request entry with its slot block, engine admission with its
    /// deadline.
    ///
    /// Every cell type that keeps a token table computes the rows the
    /// request's `Fixed` tokens lack in one product, before the first
    /// step: left to the steps, a first request paid one pass over the
    /// whole of `Wx` per step that met a new token. `FromDep` tokens are
    /// known only at their step and are filled there. A warm table
    /// answers with one scan under its read lock.
    fn admit(&mut self, a: Arrival) {
        let Arrival {
            id,
            graph,
            arrival_us,
            deadline_us,
            respond,
        } = a;
        for meta in self.registry.iter() {
            let tokens = graph.nodes().iter().filter_map(|n| match n.token {
                TokenSource::Fixed(t) if n.cell_type == meta.id => Some(t),
                _ => None,
            });
            meta.cell.prefill(tokens, &mut self.scratch);
        }
        self.live.insert(
            id,
            LiveRequest {
                respond,
                block: SlotBlock::for_graph(&graph, &self.registry),
            },
        );
        self.engine.on_arrival(id, graph, arrival_us, deadline_us);
    }

    /// One scheduling decision: asks the engine for tasks (§4.3: up to
    /// `MaxTasksToSubmit` consecutive steps of the picked cell type) and
    /// executes them in order. Returns whether there were any.
    ///
    /// Every task completes before the next `dispatch`, so no type has a
    /// running task when the engine picks: each pick is saturation- or
    /// starvation-qualified, never priority-only.
    fn run_tasks(&mut self) -> bool {
        let tasks = self.engine.dispatch(self.worker);
        if tasks.is_empty() {
            return false;
        }
        if let Some(m) = &self.metrics {
            m.submit_batch.record(tasks.len() as u64);
        }
        for task in &tasks {
            let started_us = self.timer.now_us();
            self.engine.on_task_started(task.id, started_us);
            let tokens = execute_task(
                task,
                &self.live,
                &self.registry,
                &mut self.scratch,
                &mut self.plane,
            );
            for e in &task.entries {
                let r = self.live.get_mut(&e.request).expect("live request");
                if r.respond.frees_rows() {
                    r.block.consume(&e.deps);
                }
            }
            let finished_us = self.timer.now_us();
            if let Some(m) = &self.metrics {
                m.busy.add(finished_us - started_us);
            }
            // A deadline that passed while the task ran expires its
            // request before the task can complete it, as the simulator
            // expires at the deadline instant.
            for done in self.engine.expire(finished_us) {
                self.resolve(done);
            }
            for done in self.engine.on_task_completed(task.id, &tokens, finished_us) {
                self.resolve(done);
            }
        }
        true
    }

    /// Resolves one completion record: drops the live entry, releases the
    /// request's resident rows and sends the outcome (Completed, built
    /// from the state block, or Expired for a cancelled record).
    ///
    /// The engine reports a request finished only after every task
    /// touching it has drained, so no later task looks the block up.
    fn resolve(&mut self, done: CompletedRequest) {
        let Some(r) = self.live.remove(&done.id) else {
            return;
        };
        if let Some(m) = &self.metrics {
            m.scatter_resolve
                .record(self.timer.now_us().saturating_sub(done.completion_us));
        }
        for rb in self.plane.values_mut() {
            rb.remove(done.id);
        }
        self.active.fetch_sub(1, Ordering::AcqRel);
        let timing = ServedTiming {
            arrival_us: done.arrival_us,
            start_us: done.start_us,
            completion_us: done.completion_us,
        };
        let outcome = if done.cancelled {
            // Partial outputs die with the block.
            ServedOutcome::Expired(timing)
        } else {
            ServedOutcome::Completed((r.block, timing))
        };
        r.respond.deliver(outcome);
    }

    /// Mirrors the resident plane's occupancy and churn into telemetry.
    fn publish_resident(&mut self) {
        let Some(t) = self.metrics.as_mut().map(|m| &mut m.resident) else {
            return;
        };
        let mut occupied = 0usize;
        let mut agg = ResidentStats::default();
        for rb in self.plane.values() {
            occupied += rb.occupied();
            let s = rb.stats();
            agg.joins += s.joins;
            agg.leaves += s.leaves;
            agg.compaction_moves += s.compaction_moves;
            agg.refetches += s.refetches;
        }
        t.rows.set(occupied as i64);
        t.joins.add(agg.joins - t.last.joins);
        t.leaves.add(agg.leaves - t.last.leaves);
        t.compactions
            .add(agg.compaction_moves - t.last.compaction_moves);
        t.refetches.add(agg.refetches - t.last.refetches);
        t.last = agg;
    }
}

/// The token an entry feeds its cell, read from the request's own block
/// when it comes from a dependency's output.
fn entry_token(e: &TaskEntry, block: &SlotBlock) -> Option<u32> {
    match e.token {
        TokenSource::None => None,
        TokenSource::Fixed(t) => Some(t),
        TokenSource::FromDep(k) => Some(
            block
                .token(e.deps[k].index())
                .expect("FromDep dependency emitted no token"),
        ),
    }
}

/// The written state of `e`'s dependency `d`.
fn dep_state<'a>(e: &TaskEntry, d: NodeId, block: &'a SlotBlock) -> StateRef<'a> {
    block
        .state(d.index())
        .unwrap_or_else(|| panic!("missing dependency {}/{} for {}", e.request, d, e.node))
}

/// Executes one batched task against the slot-indexed state plane.
///
/// Performs the "gather" (§4.3) by pointing each invocation straight at
/// its dependencies' slot rows — no `CellOutput` clone — then
/// runs the cell once and scatters each result row into the entry's own
/// slot. Dependency rows are guaranteed written: tasks execute in
/// submission order and the engine submits a node only once its
/// external dependencies completed.
///
/// When the cell has a resident layout and no entry has more than one
/// dependency, the task takes the resident fast path instead: see
/// [`execute_task_resident`]. Outputs are bitwise identical either way.
fn execute_task(
    task: &Task,
    live: &HashMap<RequestId, LiveRequest>,
    registry: &CellRegistry,
    scratch: &mut Scratch,
    plane: &mut HashMap<CellTypeId, ResidentBatch>,
) -> Vec<Option<u32>> {
    const NO_STATE: StateRef<'static> = StateRef { h: &[], c: &[] };
    let cell = registry.cell(task.cell_type);
    // One block per entry, parallel to `task.entries`.
    let blocks: Vec<&SlotBlock> = task
        .entries
        .iter()
        .map(|e| {
            &live
                .get(&e.request)
                .expect("state block for dispatched request")
                .block
        })
        .collect();
    if let Some(layout) = cell.resident_layout() {
        if !task.entries.is_empty() && task.entries.iter().all(|e| e.deps.len() <= 1) {
            return execute_task_resident(task, &blocks, cell, layout, plane, scratch);
        }
    }
    let invocations: Vec<RowInvocation<'_>> = task
        .entries
        .iter()
        .zip(&blocks)
        .map(|(e, block)| {
            let mut states = [NO_STATE; 2];
            for (slot, d) in states.iter_mut().zip(e.deps.iter()) {
                *slot = dep_state(e, *d, block);
            }
            RowInvocation::new(entry_token(e, block), &states[..e.deps.len()])
        })
        .collect();
    let mut tokens: Vec<Option<u32>> = vec![None; task.entries.len()];
    cell.execute_rows_in(&invocations, scratch, |row, h, c, token| {
        blocks[row].write(task.entries[row].node.index(), h, c, token);
        tokens[row] = token;
    });
    tokens
}

/// Executes one chain task through the shard's resident-state plane.
///
/// Each entry is *placed* at its batch row — a no-op for a request
/// already parked there from its previous step, one row write for a
/// join, a slot-block refetch only when the row went stale — and then
/// the cell runs one fused step over the dense prefix in place. The
/// scatter half is unchanged: every row's output is still written to
/// the request's [`SlotBlock`], keeping later gathers and the final
/// copy-out oblivious to which path ran.
fn execute_task_resident(
    task: &Task,
    blocks: &[&SlotBlock],
    cell: &Cell,
    layout: ResidentLayout,
    plane: &mut HashMap<CellTypeId, ResidentBatch>,
    scratch: &mut Scratch,
) -> Vec<Option<u32>> {
    let rb = plane
        .entry(task.cell_type)
        .or_insert_with(|| ResidentBatch::new(layout));
    let n = task.entries.len();
    let mut tokens_in: Vec<Option<u32>> = Vec::with_capacity(n);
    for (i, (e, block)) in task.entries.iter().zip(blocks).enumerate() {
        let dep = e.deps.first().copied();
        rb.place(i, e.request, e.node, dep, || {
            dep_state(e, dep.expect("state fetch without a dependency"), block)
        });
        tokens_in.push(entry_token(e, block));
    }
    let mut tokens: Vec<Option<u32>> = vec![None; n];
    rb.step(cell, n, &tokens_in, scratch, |row, h, c, token| {
        blocks[row].write(task.entries[row].node.index(), h, c, token);
        tokens[row] = token;
    });
    tokens
}
