//! The sharded scheduler control plane.
//!
//! A [`Runtime`] is one thread that schedules, executes and resolves.
//! [`ShardedRuntime`] is how the server uses more than one core: N
//! independent shards — each a full [`Runtime`] with its own
//! [`CellularEngine`](crate::CellularEngine), deadline heap, inbox and
//! state — behind one submission front, all stamping requests on one
//! shared clock.
//!
//! ## Placement
//!
//! Requests are placed with **cell-type affinity**: each
//! [`RequestInput`] variant (LSTM-LM sequence, seq2seq pair, TreeLSTM
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
//! Overload refusals get a second chance: a shard refusing with
//! `QueueFull`/`AtCapacity` does not fail the submission until every
//! other shard (tried in load order) has also refused.
//!
//! ## Telemetry
//!
//! With telemetry enabled ([`ServeConfig::telemetry`]), each shard gets
//! its **own** registry (so shards never contend on one), and
//! [`ShardedRuntime::snapshot`] rolls them up into a single
//! [`Snapshot`] with a `shard` label on every entry — aggregate totals
//! fall out of `counter_sum`/`histogram_sum` over the merged view.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bm_device::CpuTimer;
use bm_model::{Model, RequestInput};
use bm_telemetry::{Snapshot, Telemetry};

use crate::config::ServeConfig;
use crate::request::Request;
use crate::runtime::{CompletionQueue, ResponseHandle, Runtime, RuntimeOptions, SubmitError};

/// How far (in active requests) a home shard may run ahead of the
/// least-loaded shard before affinity yields to rebalancing. Small
/// enough that a skewed type mix spreads within tens of requests; large
/// enough that balanced traffic keeps its type affinity through normal
/// load jitter.
const SPILL_MARGIN: usize = 16;

/// N independent scheduler shards behind one submission API.
///
/// See the module-level docs in `shard.rs` for placement and telemetry semantics.
/// Construction mirrors [`Runtime::start`]; the shard count comes from
/// the embedded serve config ([`ServeConfig::shards`]):
///
/// ```no_run
/// use std::sync::Arc;
/// use bm_core::{Request, RuntimeOptions, ShardedRuntime};
/// use bm_model::RequestInput;
/// # fn demo(model: Arc<dyn bm_model::Model>) {
/// let rt = ShardedRuntime::start(
///     model,
///     RuntimeOptions::new().serve_config(bm_core::ServeConfig::new().shards(4)),
/// );
/// let handle = rt
///     .submit_request(Request::new(RequestInput::Sequence(vec![1, 2])))
///     .unwrap();
/// let _ = handle.wait();
/// # }
/// ```
pub struct ShardedRuntime {
    shards: Vec<Runtime>,
    /// Per-shard registries (empty when telemetry is disabled).
    registries: Vec<Arc<Telemetry>>,
    /// Round-robin cursor used only to vary the starting shard of the
    /// load scan, so equal-load ties don't all resolve to shard 0.
    rr: AtomicUsize,
}

impl ShardedRuntime {
    /// Starts `opts.serve().shards` shards (one thread each) serving
    /// `model`; a shard count of 0 is clamped to 1.
    ///
    /// # Panics
    ///
    /// Panics if `opts.workers` is not 1 (see [`Runtime::start`]).
    pub fn start(model: Arc<dyn Model>, opts: RuntimeOptions) -> Self {
        let n = opts.serve().shards.max(1);
        let telemetry_on = opts.serve().telemetry.enabled();
        // One clock for every shard: a `ServedTiming` from any of them
        // is on the epoch `now_us` reads.
        let timer = CpuTimer::new();
        let mut shards = Vec::with_capacity(n);
        let mut registries = Vec::with_capacity(n);
        for _ in 0..n {
            let mut shard_opts = opts.clone();
            if telemetry_on {
                let reg = Telemetry::new();
                registries.push(Arc::clone(&reg));
                shard_opts = shard_opts.telemetry(reg);
            }
            shards.push(Runtime::start_at(
                Arc::clone(&model),
                shard_opts,
                timer.clone(),
            ));
        }
        ShardedRuntime {
            shards,
            registries,
            rr: AtomicUsize::new(0),
        }
    }

    /// The number of scheduler shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Submits a [`Request`], placing it by cell-type affinity with
    /// load-aware rebalancing (placement details in the module-level docs).
    ///
    /// Fails with [`SubmitError::QueueFull`] / [`SubmitError::AtCapacity`]
    /// only after every shard refused; [`SubmitError::Invalid`] fails
    /// immediately (no shard would accept it).
    pub fn submit_request(&self, req: impl Into<Request>) -> Result<ResponseHandle, SubmitError> {
        let req = req.into();
        let loads = self.loads();
        let first = self.place(&req.input, &loads);
        self.with_second_chance(first, &loads, |shard| shard.submit_request(req.clone()))
    }

    /// [`Runtime::submit_request_tagged`] with the same cell-type
    /// affinity placement, load-aware rebalancing and second-chance
    /// overload retry as [`ShardedRuntime::submit_request`]: the
    /// outcome is delivered to `queue` with `tag` regardless of which
    /// shard admits the request.
    pub fn submit_request_tagged(
        &self,
        req: impl Into<Request>,
        tag: u64,
        queue: &CompletionQueue,
    ) -> Result<(), SubmitError> {
        let req = req.into();
        let loads = self.loads();
        let first = self.place(&req.input, &loads);
        self.with_second_chance(first, &loads, |shard| {
            shard.submit_request_tagged(req.clone(), tag, queue)
        })
    }

    /// [`Runtime::submit_batch_tagged`] across shards: the batch is
    /// grouped by placement shard (affinity + load-aware rebalancing,
    /// with in-batch assignments projected onto the load estimate so
    /// one burst does not dogpile a single shard) and each group rides
    /// one inbox message into its shard. Requests a shard refuses
    /// for overload get the usual second chance, lightest shard first,
    /// as individual submissions.
    ///
    /// Returns one result per request, in input order.
    pub fn submit_batch_tagged(
        &self,
        reqs: impl IntoIterator<Item = (u64, Request)>,
        queue: &CompletionQueue,
    ) -> Vec<Result<(), SubmitError>> {
        let n = self.shards.len();
        let loads = self.loads();
        // Group by placement shard, remembering each request's index
        // in the result vector. `assigned` projects this batch's own
        // placements onto the (snapshot) load estimate.
        let mut groups: Vec<Vec<(usize, u64, Request)>> = vec![Vec::new(); n];
        let mut assigned = vec![0usize; n];
        let mut total = 0usize;
        for (idx, (tag, req)) in reqs.into_iter().enumerate() {
            let proj: Vec<usize> = loads.iter().zip(&assigned).map(|(l, a)| l + a).collect();
            let s = self.place(&req.input, &proj);
            assigned[s] += 1;
            groups[s].push((idx, tag, req));
            total = idx + 1;
        }
        let mut results: Vec<Result<(), SubmitError>> = Vec::with_capacity(total);
        results.resize_with(total, || Ok(()));
        for (s, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // Clone the requests into the batch message; the originals
            // stay behind for the overload retry path.
            let batch: Vec<(u64, Request)> =
                group.iter().map(|(_, t, r)| (*t, r.clone())).collect();
            let shard_results = self.shards[s].submit_batch_tagged(batch, queue);
            for ((idx, tag, req), res) in group.into_iter().zip(shard_results) {
                results[idx] = match res {
                    Ok(()) => Ok(()),
                    Err(e @ SubmitError::Invalid(_)) | Err(e @ SubmitError::ShuttingDown) => Err(e),
                    Err(_) => self.with_second_chance(s, &loads, |shard| {
                        shard.submit_request_tagged(req.clone(), tag, queue)
                    }),
                };
            }
        }
        results
    }

    /// Per-shard active-request snapshot used for placement.
    fn loads(&self) -> Vec<usize> {
        self.shards.iter().map(Runtime::active_requests).collect()
    }

    /// The shard a request with `input` should be offered to first:
    /// its affinity home unless that home is more than [`SPILL_MARGIN`]
    /// requests ahead of the least-loaded shard, in which case the
    /// least-loaded shard (scan started at a rotating offset so
    /// equal-load ties spread).
    fn place(&self, input: &RequestInput, loads: &[usize]) -> usize {
        let n = self.shards.len();
        let home = affinity_shard(input, n);
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        let (mut lightest, mut min_load) = (start, loads[start]);
        for off in 1..n {
            let i = (start + off) % n;
            if loads[i] < min_load {
                lightest = i;
                min_load = loads[i];
            }
        }
        if loads[home] > min_load + SPILL_MARGIN {
            lightest
        } else {
            home
        }
    }

    /// Runs `attempt` against shard `first`; on an overload refusal
    /// (`QueueFull`/`AtCapacity`) retries the remaining shards in load
    /// order before giving up. `Invalid`/`ShuttingDown` fail
    /// immediately — no shard would accept the request.
    fn with_second_chance<T>(
        &self,
        first: usize,
        loads: &[usize],
        mut attempt: impl FnMut(&Runtime) -> Result<T, SubmitError>,
    ) -> Result<T, SubmitError> {
        match attempt(&self.shards[first]) {
            Ok(v) => Ok(v),
            Err(e @ SubmitError::Invalid(_)) | Err(e @ SubmitError::ShuttingDown) => Err(e),
            Err(mut overloaded) => {
                let mut order: Vec<usize> =
                    (0..self.shards.len()).filter(|&i| i != first).collect();
                order.sort_by_key(|&i| loads[i]);
                for i in order {
                    match attempt(&self.shards[i]) {
                        Ok(v) => return Ok(v),
                        Err(e @ SubmitError::Invalid(_)) | Err(e @ SubmitError::ShuttingDown) => {
                            return Err(e)
                        }
                        Err(e) => overloaded = e,
                    }
                }
                Err(overloaded)
            }
        }
    }

    /// Requests admitted and not yet resolved, summed over all shards.
    pub fn active_requests(&self) -> usize {
        self.shards.iter().map(Runtime::active_requests).sum()
    }

    /// Per-shard active-request counts (placement observability).
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards.iter().map(Runtime::active_requests).collect()
    }

    /// Microseconds since the runtime started, on the clock every shard
    /// stamps its [`crate::ServedTiming`]s with.
    pub fn now_us(&self) -> u64 {
        self.shards[0].now_us()
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
    pub fn shutdown(self) {
        for shard in self.shards {
            shard.shutdown();
        }
    }

    /// The serve config knobs this runtime was started with (shard 0's
    /// copy; all shards share them).
    pub fn serve(&self) -> &ServeConfig {
        self.shards[0].options().serve()
    }
}

/// The home shard for an input: each cell-graph shape (and therefore
/// cell type) maps to its own shard, so same-type requests co-locate
/// and batch together.
fn affinity_shard(input: &RequestInput, n: usize) -> usize {
    let class = match input {
        RequestInput::Sequence(_) => 0usize,
        RequestInput::Pair { .. } => 1,
        RequestInput::Tree(_) => 2,
    };
    class % n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_separates_types_when_shards_allow() {
        let seq = RequestInput::Sequence(vec![1]);
        let pair = RequestInput::Pair {
            src: vec![1],
            decode_len: 1,
        };
        assert_eq!(affinity_shard(&seq, 1), 0);
        assert_eq!(affinity_shard(&pair, 1), 0);
        assert_ne!(affinity_shard(&seq, 2), affinity_shard(&pair, 2));
    }
}
