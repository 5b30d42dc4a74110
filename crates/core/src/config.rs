//! The shared serving configuration.
//!
//! [`ServeConfig`] is the one place a serving knob is set: deadlines,
//! the admission cap, shard count, observability sinks. The first two
//! are the only overload controls between a socket and the engine.
//! [`crate::SchedulerConfig`] embeds one, and every driver of the
//! engine takes it from there: a runtime shard (through
//! [`crate::RuntimeOptions`]), the network front door, and the
//! simulator's `bm_sim::CellularServer`. A deployment configures these
//! once whichever of them it runs. No field chooses between two
//! implementations of one behaviour: which execution plane a cell runs
//! on follows from the cell, the front door's readiness backend from
//! the platform, and batch formation is Algorithm 1.

use std::sync::Arc;

use bm_telemetry::Telemetry;
use bm_trace::TraceSink;

/// Serving knobs shared by every driver of the cellular-batching
/// engine.
///
/// Embedded by [`crate::SchedulerConfig`], and therefore by
/// [`crate::RuntimeOptions`] and the simulated `bm_sim::CellularServer`;
/// the network front door serves through a runtime started from the
/// same struct.
/// Built fluently (`#[non_exhaustive]` forbids literal construction so
/// new knobs can be added compatibly):
///
/// ```
/// use bm_core::ServeConfig;
///
/// let cfg = ServeConfig::new()
///     .deadline_us(50_000)
///     .max_active(256)
///     .shards(4);
/// assert_eq!(cfg.deadline_us, Some(50_000));
/// assert_eq!(cfg.shards, 4);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Default relative deadline applied to every submission that does
    /// not carry its own ([`crate::Request::deadline_us`]), µs from
    /// arrival. `None` means no default deadline.
    pub deadline_us: Option<u64>,
    /// Cap on each shard's concurrently admitted (unresolved) requests,
    /// those still in its inbox included; a submission every shard
    /// refuses at its cap fails with `SubmitError::AtCapacity`. `None`
    /// admits everything.
    pub max_active: Option<usize>,
    /// Scheduler shards of the threaded runtime (≥ 1): each is one
    /// thread owning its own engine and inbox, so this is the
    /// multi-core knob. The simulator ignores it. Defaults to half
    /// the host's cores, at least 1.
    pub shards: usize,
    /// Destination for scheduler trace events; the default no-op sink
    /// reports itself disabled, so instrumentation costs one branch per
    /// site.
    pub trace: Arc<dyn TraceSink>,
    /// Metric registry for live serving telemetry; defaults to the
    /// disabled registry (one branch per call site, no allocation). A
    /// simulated server records into it directly; the threaded runtime
    /// takes an enabled registry as the switch and records per shard,
    /// read back through `Runtime::snapshot`.
    pub telemetry: Arc<Telemetry>,
}

/// Half the host's cores, at least 1: the default shard count. The
/// front door's event loop is shard 0, not a thread beside the shards.
///
/// A second shard pays where it was measured: on a 2-vCPU AVX-512 host
/// (where this default is one shard), `shards(2)` raised the benchmark's
/// closed-loop `peak_rps` in every interleaved pair — medians `chain_wmt`
/// 2564 → 3426 (+34 %), `seq2seq_wmt` 807 → 1353 (+68 %), `tree_bank`
/// 1896 → 2114 (+12 %) — at 0–6 % more CPU per request and ≤ 2.4 MiB
/// more peak RSS (EXPERIMENTS.md lists every run). Whether the default
/// should be every core rather than half is open: it moves CPU per
/// request.
pub(crate) fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| (n.get() / 2).max(1))
        .unwrap_or(1)
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            deadline_us: None,
            max_active: None,
            shards: default_shards(),
            trace: bm_trace::noop(),
            telemetry: Telemetry::disabled(),
        }
    }
}

impl ServeConfig {
    /// The default configuration (start of the builder chain): no
    /// deadline, no admission cap, cores/2 shards, tracing and
    /// telemetry off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the default relative deadline, µs from arrival.
    pub fn deadline_us(mut self, d: u64) -> Self {
        self.deadline_us = Some(d);
        self
    }

    /// Caps each shard's concurrently admitted requests.
    pub fn max_active(mut self, cap: usize) -> Self {
        self.max_active = Some(cap);
        self
    }

    /// Sets the scheduler shard count; 0 is stored as 1.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
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
