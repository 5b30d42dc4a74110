//! The shared serving configuration.
//!
//! [`ServeConfig`] collects every knob that used to be duplicated
//! across [`crate::SchedulerConfig`], [`crate::RuntimeOptions`] and
//! `bm_sim::SimOptions` — batch-formation policy, deadlines, admission
//! caps, queue bounds, observability sinks — plus the knobs
//! introduced by the sharded control plane (shard count, per-tenant
//! rate limits). All three option structs embed one `ServeConfig`, so a
//! deployment configures these once regardless of whether it runs the
//! threaded runtime, the sharded runtime, the simulator, or the network
//! front door.

use std::sync::Arc;

use bm_telemetry::Telemetry;
use bm_trace::TraceSink;

use crate::policy::PolicyKind;

/// How the network front door (`bm-net`) learns that sockets and
/// completions are ready, i.e. which readiness backend its single
/// ingest/completion event loop runs on.
///
/// Lives here (rather than in `bm-net`) for the same reason as
/// [`TenantRate`]: it is a serving-deployment knob carried by the one
/// [`ServeConfig`] every driver embeds. Drivers without sockets (the
/// in-process runtimes, the simulator) ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadinessMode {
    /// Use the best backend the platform supports: the raw-syscall
    /// epoll backend on Linux x86_64, the polled scan everywhere else.
    #[default]
    Auto,
    /// Portable fallback: a polled scan of non-blocking sockets with
    /// adaptive idle backoff. Always available; the bit-identity oracle
    /// the epoll backend is tested against.
    Polled,
    /// Linux x86_64 epoll via `bm-net`'s raw-syscall shim (eventfd
    /// wakeups, edge-free level-triggered readiness, write-interest
    /// registration instead of write backoff). Binding a server with
    /// this mode on an unsupported platform fails with an error.
    Epoll,
}

impl ReadinessMode {
    /// Parses a CLI-style name: `auto`, `polled` or `epoll`.
    pub fn parse(s: &str) -> Option<ReadinessMode> {
        match s {
            "auto" => Some(ReadinessMode::Auto),
            "polled" => Some(ReadinessMode::Polled),
            "epoll" => Some(ReadinessMode::Epoll),
            _ => None,
        }
    }

    /// The CLI-style name ([`ReadinessMode::parse`]'s inverse).
    pub fn label(self) -> &'static str {
        match self {
            ReadinessMode::Auto => "auto",
            ReadinessMode::Polled => "polled",
            ReadinessMode::Epoll => "epoll",
        }
    }
}

/// A per-tenant token-bucket rate limit, enforced by the network front
/// door (`bm-net`) before a request reaches a scheduler shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRate {
    /// Sustained refill rate, requests per second.
    pub per_sec: f64,
    /// Bucket capacity: the largest burst admitted at once.
    pub burst: u32,
}

impl TenantRate {
    /// A limit of `per_sec` sustained requests/second with bursts up to
    /// `burst`.
    pub fn new(per_sec: f64, burst: u32) -> Self {
        TenantRate { per_sec, burst }
    }
}

/// Serving knobs shared by every driver of the cellular-batching
/// engine.
///
/// Embedded by [`crate::SchedulerConfig`] (and therefore
/// [`crate::RuntimeOptions`]) and `bm_sim::SimOptions`; the network
/// front door reads the shard count and tenant limits from the same
/// struct. Built fluently (`#[non_exhaustive]` forbids literal
/// construction so new knobs can be added compatibly):
///
/// ```
/// use bm_core::{PolicyKind, ServeConfig};
///
/// let cfg = ServeConfig::new()
///     .policy(PolicyKind::DeadlineEdf)
///     .deadline_us(50_000)
///     .max_active(256)
///     .shards(4);
/// assert_eq!(cfg.policy, Some(PolicyKind::DeadlineEdf));
/// assert_eq!(cfg.shards, 4);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Batch-formation policy ([`crate::policy`]). `None` keeps the
    /// driver's existing policy (the engine default is
    /// [`PolicyKind::PaperDefault`]; a simulated server keeps whatever
    /// it was constructed with).
    pub policy: Option<PolicyKind>,
    /// Default relative deadline applied to every submission that does
    /// not carry its own ([`crate::Request::deadline_us`]), µs from
    /// arrival. `None` means no default deadline.
    pub deadline_us: Option<u64>,
    /// Cap on concurrently admitted (unresolved) requests; submissions
    /// beyond it fail with `SubmitError::AtCapacity`. `None` admits
    /// everything.
    pub max_active: Option<usize>,
    /// Bound on each shard's arrival inbox; when full, submissions
    /// fail with `SubmitError::QueueFull`. `None` leaves it unbounded.
    pub queue_cap: Option<usize>,
    /// Execute eligible chain cells through the resident-state plane
    /// ([`crate::ResidentBatch`]): each active request's recurrent state
    /// stays parked as a row of a per-shard persistent batch matrix,
    /// eliminating the per-step gather. **On by default** since the
    /// plane soaked through a full PR cycle with bit-identity pinned by
    /// the `resident_identity` proptests; the gather path remains the
    /// oracle and A/B baseline (`.resident_state(false)`). Outputs are
    /// bitwise identical either way. The discrete-event simulator
    /// (duration-based, no real state movement) ignores it.
    pub resident_state: bool,
    /// Readiness backend for the network front door's event loop
    /// ([`ReadinessMode`]); in-process drivers ignore it.
    pub readiness: ReadinessMode,
    /// Scheduler shards for the sharded runtime: each is one thread
    /// owning its own engine, inbox and deadline heap, so this is the
    /// multi-core knob. The plain threaded runtime (one shard) and the
    /// simulator ignore it. Defaults to half the host's cores, at
    /// least 1.
    pub shards: usize,
    /// Per-tenant token-bucket rate limit enforced at the network front
    /// door. `None` disables tenant rate limiting.
    pub tenant_rate: Option<TenantRate>,
    /// Destination for scheduler trace events; the default no-op sink
    /// reports itself disabled, so instrumentation costs one branch per
    /// site.
    pub trace: Arc<dyn TraceSink>,
    /// Metric registry for live serving telemetry; defaults to the
    /// disabled registry (one branch per call site, no allocation).
    pub telemetry: Arc<Telemetry>,
}

/// Half the host's cores (the default shard count): one shard thread
/// per two cores leaves headroom for the front door's event loop and
/// the compute pool.
pub(crate) fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| (n.get() / 2).max(1))
        .unwrap_or(1)
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            policy: None,
            deadline_us: None,
            max_active: None,
            queue_cap: None,
            resident_state: true,
            readiness: ReadinessMode::Auto,
            shards: default_shards(),
            tenant_rate: None,
            trace: bm_trace::noop(),
            telemetry: Telemetry::disabled(),
        }
    }
}

impl ServeConfig {
    /// The default configuration (start of the builder chain): no
    /// policy override, no deadline, no admission cap, unbounded inbox,
    /// resident state on, auto readiness, cores/2 shards, no tenant
    /// limits, tracing and telemetry off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the batch-formation policy.
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policy = Some(kind);
        self
    }

    /// Sets the default relative deadline, µs from arrival.
    pub fn deadline_us(mut self, d: u64) -> Self {
        self.deadline_us = Some(d);
        self
    }

    /// Caps concurrently admitted requests.
    pub fn max_active(mut self, cap: usize) -> Self {
        self.max_active = Some(cap);
        self
    }

    /// Bounds each shard's arrival inbox.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = Some(cap);
        self
    }

    /// Enables (or disables) the resident-state execution plane for
    /// chain cells. On by default; `false` selects the gather-path
    /// oracle.
    pub fn resident_state(mut self, on: bool) -> Self {
        self.resident_state = on;
        self
    }

    /// Selects the network front door's readiness backend.
    pub fn readiness(mut self, mode: ReadinessMode) -> Self {
        self.readiness = mode;
        self
    }

    /// Sets the scheduler shard count (≥ 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Sets the per-tenant token-bucket rate limit.
    pub fn tenant_rate(mut self, rate: TenantRate) -> Self {
        self.tenant_rate = Some(rate);
        self
    }

    /// Routes scheduler trace events to `sink`.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = sink;
        self
    }

    /// Records serving metrics into `tel`.
    pub fn telemetry(mut self, tel: Arc<Telemetry>) -> Self {
        self.telemetry = tel;
        self
    }
}
