//! The simulated-server protocol.

use bm_model::RequestInput;

/// One arriving request as seen by a simulated server.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// Driver-assigned id, unique per run.
    pub id: u64,
    /// The request payload (only its *shape* matters under simulation).
    pub input: RequestInput,
    /// Arrival time, µs.
    pub arrival_us: u64,
}

/// A unit of device occupancy produced by a server: one batched kernel
/// sequence (cellular task, padded bucket graph, merged dynamic graph…).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkItem {
    /// Server-assigned id, echoed back in `on_work_done`.
    pub id: u64,
    /// Device time the item occupies, µs.
    pub duration_us: u64,
}

/// A simulated serving system.
///
/// The driver guarantees: `on_arrival` is called in arrival order;
/// `next_work` is called whenever a worker has drained its queue;
/// returned items execute serially on that worker in order, with
/// `on_work_started`/`on_work_done` callbacks at their virtual start and
/// finish times.
pub trait Server {
    /// Offers a request; returns whether the server admitted it. The
    /// driver counts a refusal in `SimOutcome::rejected` and never
    /// mentions the request again.
    fn on_arrival(&mut self, req: SimRequest, now_us: u64) -> bool;

    /// Produces the next batch of work for an idle worker (empty if
    /// nothing schedulable for it).
    fn next_work(&mut self, worker: usize, now_us: u64) -> Vec<WorkItem>;

    /// A work item began executing.
    fn on_work_started(&mut self, item: u64, now_us: u64);

    /// A work item finished executing.
    fn on_work_done(&mut self, worker: usize, item: u64, now_us: u64);

    /// Drains `(request id, arrival, start, completion)` tuples of
    /// requests that completed since the last call.
    fn drain_completions(&mut self) -> Vec<(u64, u64, u64, u64)>;

    /// Number of requests admitted but not yet completed.
    fn pending_requests(&self) -> usize;

    /// Earliest future time at which the server wants `expire` and
    /// `next_work` called even if no arrival or completion occurs — a
    /// deadline, or a batch-accumulation timeout. Defaults to never.
    fn next_wakeup(&self, now_us: u64) -> Option<u64> {
        let _ = now_us;
        None
    }

    /// Sheds every admitted request whose deadline is at or before
    /// `now_us` and that has not completed: its unscheduled work is
    /// dropped, in-flight device work may drain, and it emits no
    /// completion tuple. Returns how many requests it shed. The driver
    /// calls it once per timestamp, after that timestamp's arrivals and
    /// before its work completions; a server with deadlines reports the
    /// next one through [`Server::next_wakeup`]. Servers without load
    /// shedding keep the default, which sheds nothing: their requests
    /// run to completion and count as completions.
    fn expire(&mut self, now_us: u64) -> usize {
        let _ = now_us;
        0
    }
}
