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

/// The record of one completed request: `(request id, arrival, start,
/// completion)`, µs.
pub type Completion = (u64, u64, u64, u64);

/// A simulated serving system.
///
/// The server decides; the driver moves virtual time and keeps the
/// books (completion records; admitted, expired, refused counts). It
/// guarantees: `on_arrival` is called in arrival order, at the
/// request's arrival time; `next_work` is called whenever a worker has
/// drained its queue, and the items it returns run on that worker back
/// to back from its `now_us` — the server stamps their starts there;
/// `on_work_done` is called at each item's finish.
pub trait Server {
    /// Offers a request at its arrival time; returns whether the server
    /// admitted it. The driver counts a refusal in
    /// `SimOutcome::rejected` and never mentions the request again.
    fn on_arrival(&mut self, req: SimRequest) -> bool;

    /// Produces the next batch of work for an idle worker (empty if
    /// nothing schedulable for it). The items run back to back from
    /// `now_us`.
    fn next_work(&mut self, worker: usize, now_us: u64) -> Vec<WorkItem>;

    /// A work item finished executing at `now_us`; appends the record of
    /// each request it completed to `done`.
    fn on_work_done(&mut self, item: u64, now_us: u64, done: &mut Vec<Completion>);

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
    /// completion record. Returns how many requests it shed. The driver
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
