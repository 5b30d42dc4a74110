//! The open-loop simulation driver.

use bm_metrics::{LatencyRecorder, RequestTiming};
use bm_model::RequestInput;

use crate::event::EventQueue;
use crate::server::{Completion, Server, SimRequest};

/// Options controlling one simulation run.
///
/// Only simulation knobs live here. Serving policy — deadlines,
/// admission cap, trace and telemetry sinks — belongs to the server:
/// [`crate::CellularServer`] reads it from the `ServeConfig` of the
/// `SchedulerConfig` it is built with, as a runtime shard does.
///
/// Built fluently (`#[non_exhaustive]` forbids out-of-crate literal
/// construction so new knobs can be added compatibly):
///
/// ```
/// use bm_sim::SimOptions;
///
/// let opts = SimOptions::new().workers(4).warmup(100);
/// assert_eq!(opts.workers, 4);
/// assert_eq!(opts.warmup, 100);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SimOptions {
    /// Number of simulated GPU workers.
    pub workers: usize,
    /// Stop after this much virtual time even if arrivals remain
    /// (overload guard). `u64::MAX` disables the cap.
    pub max_sim_us: u64,
    /// Warm-up completions excluded from the recorder.
    pub warmup: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            workers: 1,
            max_sim_us: 600_000_000, // 10 virtual minutes.
            warmup: 0,
        }
    }
}

impl SimOptions {
    /// Default options: one worker, 10 virtual minutes, no warm-up trim.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of simulated workers.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Sets the virtual-time cap, µs.
    pub fn max_sim_us(mut self, t: u64) -> Self {
        self.max_sim_us = t;
        self
    }

    /// Excludes the first `n` completions from the recorder.
    pub fn warmup(mut self, n: usize) -> Self {
        self.warmup = n;
        self
    }
}

/// The outcome of a simulation run.
#[derive(Debug)]
pub struct SimOutcome {
    /// Per-request timings of completed requests (after warm-up trim).
    pub recorder: LatencyRecorder,
    /// Raw completion records in completion order, untrimmed.
    pub completions: Vec<Completion>,
    /// Virtual time of the last arrival or work completion, µs: the end
    /// of the span the server was offered or did work. A wake-up that
    /// only finds nothing to do does not extend it.
    pub end_us: u64,
    /// Requests admitted but neither completed nor expired at the end
    /// (nonzero under overload).
    pub unfinished: usize,
    /// Whether the run hit the virtual-time cap before completing all
    /// arrivals — the saturation signal for load sweeps.
    pub saturated: bool,
    /// Requests the server shed at their deadline ([`Server::expire`]).
    pub expired: usize,
    /// Requests the server refused on arrival ([`Server::on_arrival`]).
    pub rejected: usize,
}

impl SimOutcome {
    /// Offered load actually served, requests/second.
    pub fn throughput_rps(&self) -> f64 {
        if self.recorder.is_empty() {
            return 0.0;
        }
        self.recorder.summary().throughput_rps
    }
}

#[derive(Debug)]
enum Event {
    Arrival(usize),
    WorkDone { worker: usize, item: u64 },
    Wake,
}

/// Runs one open-loop simulation: `arrivals` are `(time_us, input)`
/// pairs injected into `server`; workers execute the server's work items
/// serially. The driver keeps no serving policy: it moves virtual time,
/// stops wherever the server asks through [`Server::next_wakeup`], and
/// keeps the books — the completion records and the admitted, expired
/// and refused counts the outcome reports.
///
/// # Panics
///
/// Panics if `opts.workers` is zero or `arrivals` is empty.
pub fn simulate(
    server: &mut dyn Server,
    arrivals: &[(u64, RequestInput)],
    opts: SimOptions,
) -> SimOutcome {
    assert!(opts.workers > 0, "need at least one worker");
    assert!(!arrivals.is_empty(), "no arrivals");

    let mut events: EventQueue<Event> = EventQueue::new();
    for (idx, (at, _)) in arrivals.iter().enumerate() {
        events.push(*at, Event::Arrival(idx));
    }

    // Per-worker remaining queued items (busy while nonzero).
    let mut queued = vec![0usize; opts.workers];
    let mut completions = Vec::new();
    let mut admitted = 0usize;
    let mut expired = 0usize;
    let mut rejected = 0usize;
    let mut end_us = 0;
    let mut saturated = false;
    let mut next_wake: Option<u64> = None;

    while let Some((now, ev)) = events.pop() {
        if now > opts.max_sim_us {
            saturated = true;
            break;
        }
        // Process every event at this timestamp before scheduling new
        // work, so simultaneous arrivals can batch together. Arrivals go
        // first, where the server's cap still counts a request due now;
        // then expiry, so a task completing at a request's deadline
        // finishes it too late; then the completions.
        let mut batch_events = vec![ev];
        while events.peek_time() == Some(now) {
            batch_events.push(events.pop().expect("peeked").1);
        }
        let mut work_done = Vec::new();
        for ev in batch_events {
            match ev {
                Event::Arrival(idx) => {
                    end_us = now;
                    let (at, input) = &arrivals[idx];
                    let req = SimRequest {
                        id: idx as u64,
                        input: input.clone(),
                        arrival_us: *at,
                    };
                    if server.on_arrival(req) {
                        admitted += 1;
                    } else {
                        rejected += 1;
                    }
                }
                Event::WorkDone { worker, item } => {
                    end_us = now;
                    work_done.push((worker, item));
                }
                Event::Wake => next_wake = None,
            }
        }
        expired += server.expire(now);
        for (worker, item) in work_done {
            queued[worker] -= 1;
            server.on_work_done(item, now, &mut completions);
        }
        // Refill idle workers: a worker with nothing queued asks the
        // server once and runs the items back to back from `now`.
        for (w, q) in queued.iter_mut().enumerate() {
            if *q > 0 {
                continue;
            }
            let mut at = now;
            for it in server.next_work(w, now) {
                at += it.duration_us;
                *q += 1;
                events.push(
                    at,
                    Event::WorkDone {
                        worker: w,
                        item: it.id,
                    },
                );
            }
        }
        // A deadline or a batching timeout may need a poll with no
        // event pending.
        if let Some(t) = server.next_wakeup(now) {
            if t > now && next_wake.is_none_or(|w| t < w) {
                events.push(t, Event::Wake);
                next_wake = Some(t);
            }
        }
    }

    let mut recorder = LatencyRecorder::new();
    for &(_, arrival_us, start_us, completion_us) in &completions {
        recorder.record(RequestTiming {
            arrival_us,
            start_us,
            completion_us,
        });
    }
    let unfinished = admitted - completions.len() - expired;
    SimOutcome {
        recorder: recorder.trimmed(opts.warmup, 0),
        completions,
        end_us,
        unfinished,
        saturated: saturated || unfinished > 0,
        expired,
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::WorkItem;
    use std::collections::VecDeque;

    /// A trivial server: each request is one work item of fixed duration;
    /// strict FIFO, no batching.
    struct FifoServer {
        duration: u64,
        queue: VecDeque<(u64, u64)>, // (request id, arrival)
        // Per item id: (request id, arrival, start).
        items: std::collections::HashMap<u64, (u64, u64, u64)>,
        next_item: u64,
    }

    impl FifoServer {
        fn new(duration: u64) -> Self {
            FifoServer {
                duration,
                queue: VecDeque::new(),
                items: Default::default(),
                next_item: 0,
            }
        }
    }

    impl Server for FifoServer {
        fn on_arrival(&mut self, req: SimRequest) -> bool {
            self.queue.push_back((req.id, req.arrival_us));
            true
        }
        fn next_work(&mut self, _worker: usize, now: u64) -> Vec<WorkItem> {
            let Some((req, arrival)) = self.queue.pop_front() else {
                return vec![];
            };
            let id = self.next_item;
            self.next_item += 1;
            self.items.insert(id, (req, arrival, now));
            vec![WorkItem {
                id,
                duration_us: self.duration,
            }]
        }
        fn on_work_done(&mut self, item: u64, now: u64, done: &mut Vec<Completion>) {
            let (req, arrival, start) = self.items.remove(&item).expect("known item");
            done.push((req, arrival, start, now));
        }
    }

    fn arrivals(n: usize, gap: u64) -> Vec<(u64, RequestInput)> {
        (0..n)
            .map(|i| (i as u64 * gap, RequestInput::Sequence(vec![1])))
            .collect()
    }

    #[test]
    fn underloaded_fifo_has_no_queueing() {
        // Service 100 µs, arrivals 200 µs apart: every request starts
        // immediately.
        let mut s = FifoServer::new(100);
        let out = simulate(&mut s, &arrivals(50, 200), SimOptions::default());
        assert_eq!(out.recorder.len(), 50);
        assert!(!out.saturated);
        let summary = out.recorder.summary();
        assert!((summary.p99_ms - 0.1).abs() < 1e-9, "{}", summary.p99_ms);
        assert_eq!(out.unfinished, 0);
    }

    #[test]
    fn overloaded_fifo_queues_linearly() {
        // Service 100 µs, arrivals 50 µs apart on one worker: latency of
        // the i-th request grows linearly.
        let mut s = FifoServer::new(100);
        let out = simulate(&mut s, &arrivals(100, 50), SimOptions::default());
        let lat = out.recorder.latency_cdf();
        assert!(lat.max() > 10.0 * lat.min(), "no queue growth observed");
    }

    #[test]
    fn two_workers_double_fifo_throughput() {
        let n = 2000;
        let mut s1 = FifoServer::new(100);
        let out1 = simulate(&mut s1, &arrivals(n, 100), SimOptions::default());
        let mut s2 = FifoServer::new(100);
        let out2 = simulate(
            &mut s2,
            &arrivals(n, 50),
            SimOptions {
                workers: 2,
                ..Default::default()
            },
        );
        // Both runs keep up with their offered load.
        assert!(!out1.saturated && !out2.saturated);
        assert!(out2.throughput_rps() > 1.8 * out1.throughput_rps());
    }

    #[test]
    fn time_cap_marks_saturation() {
        let mut s = FifoServer::new(10_000);
        let out = simulate(
            &mut s,
            &arrivals(1000, 10),
            SimOptions {
                max_sim_us: 50_000,
                ..Default::default()
            },
        );
        assert!(out.saturated);
        assert!(out.unfinished > 0);
    }
}
