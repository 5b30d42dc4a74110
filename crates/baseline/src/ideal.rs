//! The "ideal" fixed-graph baseline of Figure 15.
//!
//! "We implement an ideal baseline system by hardcoding in TensorFlow a
//! dataflow graph matching the fixed binary tree structure. Each node in
//! this dataflow graph can execute up to 64 corresponding operations,
//! one for each input in a batch size of 64." Every identically-shaped
//! request executes the same static graph — one kernel per graph node at
//! the full batch size, zero merge overhead — so its throughput is an
//! upper bound for graph batching on fixed inputs.

use std::collections::{HashMap, VecDeque};

use bm_cell::CellTypeId;
use bm_device::{CostProfile, GpuCostModel};
use bm_model::{CellGraph, Model, RequestInput};
use bm_sim::{Server, SimRequest, WorkItem};
use std::sync::Arc;

/// The ideal static-graph baseline.
pub struct IdealServer {
    cfg_max_batch: usize,
    cost: GpuCostModel,
    profile: CostProfile,
    /// The hardcoded graph's node cell types, in execution order.
    node_types: Vec<CellTypeId>,
    /// The one input shape the static graph supports.
    expected: RequestInput,
    queue: VecDeque<(u64, u64)>,
    running: HashMap<u64, (Vec<(u64, u64)>, u64)>,
    next_item: u64,
    completions: Vec<(u64, u64, u64, u64)>,
    pending: usize,
}

impl IdealServer {
    /// Builds the server for the single input shape `expected`.
    pub fn new(
        model: Arc<dyn Model>,
        expected: RequestInput,
        max_batch: usize,
        cost: GpuCostModel,
        profile: CostProfile,
    ) -> Self {
        let graph: CellGraph = model.unfold(&expected);
        let node_types = graph.nodes().iter().map(|n| n.cell_type).collect();
        IdealServer {
            cfg_max_batch: max_batch,
            cost,
            profile,
            node_types,
            expected,
            queue: VecDeque::new(),
            running: HashMap::new(),
            next_item: 0,
            completions: Vec::new(),
            pending: 0,
        }
    }

    /// Device time of the static graph at batch size `b`: one kernel per
    /// node, batch `b` each (the Figure 15 description: "a series of 31
    /// TreeLSTM cells for a batch of inputs").
    fn duration_us(&self, b: usize) -> f64 {
        let mut t = self.cost.sched_overhead_us;
        for &ct in &self.node_types {
            t += self.cost.kernel_time_from_flops(self.profile.flops(ct, b));
        }
        t
    }
}

impl Server for IdealServer {
    fn on_arrival(&mut self, req: SimRequest, _now_us: u64) -> bool {
        assert_eq!(
            req.input, self.expected,
            "ideal baseline only serves its hardcoded input shape"
        );
        self.queue.push_back((req.id, req.arrival_us));
        self.pending += 1;
        true
    }

    fn next_work(&mut self, _worker: usize, _now_us: u64) -> Vec<WorkItem> {
        if self.queue.is_empty() {
            return Vec::new();
        }
        let take = self.queue.len().min(self.cfg_max_batch);
        let requests: Vec<(u64, u64)> = self.queue.drain(..take).collect();
        let duration = self.duration_us(requests.len());
        let id = self.next_item;
        self.next_item += 1;
        self.running.insert(id, (requests, 0));
        vec![WorkItem {
            id,
            duration_us: duration.round() as u64,
        }]
    }

    fn on_work_started(&mut self, item: u64, now_us: u64) {
        if let Some(b) = self.running.get_mut(&item) {
            b.1 = now_us;
        }
    }

    fn on_work_done(&mut self, _worker: usize, item: u64, now_us: u64) {
        let (requests, started) = self.running.remove(&item).expect("known batch");
        for (id, arrival) in &requests {
            self.completions.push((*id, *arrival, started, now_us));
        }
        self.pending -= requests.len();
    }

    fn drain_completions(&mut self) -> Vec<(u64, u64, u64, u64)> {
        std::mem::take(&mut self.completions)
    }

    fn pending_requests(&self) -> usize {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_model::{TreeLstm, TreeShape};
    use bm_sim::{simulate, SimOptions};
    use bm_workload::PoissonArrivals;

    fn fixed_tree() -> RequestInput {
        RequestInput::Tree(TreeShape::complete(16, 100))
    }

    fn server() -> IdealServer {
        let m = Arc::new(TreeLstm::small());
        let profile = CostProfile::paper_scale(m.registry(), 1024, 30_000);
        IdealServer::new(m, fixed_tree(), 64, GpuCostModel::v100(), profile)
    }

    fn arrivals(n: usize, rate: f64) -> Vec<(u64, RequestInput)> {
        PoissonArrivals::new(rate, 4)
            .take(n)
            .map(|t| (t, fixed_tree()))
            .collect()
    }

    #[test]
    fn executes_fixed_graph() {
        let mut srv = server();
        let out = simulate(&mut srv, &arrivals(100, 500.0), SimOptions::default());
        assert!(!out.saturated);
        assert_eq!(out.recorder.len(), 100);
        // 31 kernels at >= 150 µs floor each: at least ~4.7 ms.
        assert!(out.recorder.summary().p50_ms >= 4.0);
    }

    #[test]
    fn batch_completes_together() {
        // A blocker keeps the device busy; the next two requests batch.
        let mut srv = server();
        let arr = vec![(0, fixed_tree()), (1, fixed_tree()), (2, fixed_tree())];
        let out = simulate(&mut srv, &arr, SimOptions::default());
        let mut t = out.recorder.timings().to_vec();
        t.sort_by_key(|x| x.arrival_us);
        assert_eq!(t[1].completion_us, t[2].completion_us);
        assert!(t[1].start_us >= t[0].completion_us);
    }

    #[test]
    #[should_panic]
    fn rejects_other_shapes() {
        let mut srv = server();
        srv.on_arrival(
            SimRequest {
                id: 0,
                input: RequestInput::Tree(TreeShape::leaf(1)),
                arrival_us: 0,
            },
            0,
        );
    }

    #[test]
    fn high_load_sustained_by_full_batches() {
        let mut srv = server();
        let out = simulate(&mut srv, &arrivals(4000, 5000.0), SimOptions::default());
        assert!(!out.saturated, "ideal should sustain 5k identical trees/s");
    }
}
