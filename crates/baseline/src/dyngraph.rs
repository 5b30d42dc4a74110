//! Dynamic graph-merging baselines (TensorFlow Fold and DyNet, §2.3,
//! §7.5).
//!
//! Both systems "first generate the dataflow graph for each request and
//! then attempt to merge all dataflow graphs into one graph by combining
//! nodes corresponding to the same operation while maintaining the data
//! dependency". The merged graph executes level by level; batch size per
//! level equals the number of fused nodes, so batching degrades at the
//! higher tree levels (§7.5).
//!
//! The presets differ in where their overheads lie, per the paper's
//! measurements:
//!
//! - **Fold**: graph construction/merging "takes much longer than
//!   performing the actual computation"; the authors optimized it by
//!   overlapping construction with execution, so a batch occupies the
//!   device for `max(exec, merge)`.
//! - **DyNet**: much cheaper merging (not overlapped), but batching at
//!   single-operator granularity adds per-level kernel-launch overhead.

use std::collections::{HashMap, VecDeque};

use bm_device::{CostProfile, GpuCostModel};
use bm_model::Model;
use bm_sim::{Server, SimRequest, WorkItem};
use std::sync::Arc;

use crate::levels::{level_histogram, merge_histograms};

/// Tuning of a [`DynGraphServer`].
#[derive(Debug, Clone, Copy)]
pub struct DynGraphConfig {
    /// Maximum number of *input requests* merged into one batch (64 for
    /// TreeLSTM in §7.5 — note it bounds trees, not fused operators).
    pub max_batch: usize,
    /// Graph construction/merge cost per graph node, µs.
    pub merge_us_per_node: f64,
    /// Whether merging overlaps with the previous batch's execution
    /// (the authors' Fold optimization).
    pub overlap_merge: bool,
    /// Extra per-level launch overhead, µs (operator-granularity
    /// batching à la DyNet).
    pub per_level_extra_us: f64,
}

impl DynGraphConfig {
    /// TensorFlow Fold preset.
    pub fn fold(max_batch: usize) -> Self {
        DynGraphConfig {
            max_batch,
            merge_us_per_node: 32.0,
            overlap_merge: true,
            per_level_extra_us: 0.0,
        }
    }

    /// DyNet preset.
    pub fn dynet(max_batch: usize) -> Self {
        DynGraphConfig {
            max_batch,
            merge_us_per_node: 6.0,
            overlap_merge: false,
            per_level_extra_us: 25.0,
        }
    }
}

struct Pending {
    id: u64,
    arrival_us: u64,
}

struct RunningBatch {
    requests: Vec<Pending>,
    started_us: u64,
}

/// A dynamic graph-merging baseline server.
pub struct DynGraphServer {
    model: Arc<dyn Model>,
    cfg: DynGraphConfig,
    cost: GpuCostModel,
    profile: CostProfile,
    queue: VecDeque<(
        Pending,
        Vec<std::collections::BTreeMap<bm_cell::CellTypeId, usize>>,
    )>,
    running: HashMap<u64, RunningBatch>,
    next_item: u64,
    completions: Vec<(u64, u64, u64, u64)>,
    pending: usize,
    /// Execution time of the previous batch — the budget a Fold-style
    /// overlapped merge can hide under.
    last_exec_us: f64,
}

impl DynGraphServer {
    /// Creates the server.
    pub fn new(
        model: Arc<dyn Model>,
        cfg: DynGraphConfig,
        cost: GpuCostModel,
        profile: CostProfile,
    ) -> Self {
        DynGraphServer {
            model,
            cfg,
            cost,
            profile,
            queue: VecDeque::new(),
            running: HashMap::new(),
            next_item: 0,
            completions: Vec::new(),
            pending: 0,
            last_exec_us: 0.0,
        }
    }
}

impl Server for DynGraphServer {
    fn on_arrival(&mut self, req: SimRequest, _now_us: u64) -> bool {
        let graph = self.model.unfold(&req.input);
        let hist = level_histogram(&graph);
        self.queue.push_back((
            Pending {
                id: req.id,
                arrival_us: req.arrival_us,
            },
            hist,
        ));
        self.pending += 1;
        true
    }

    fn next_work(&mut self, _worker: usize, _now_us: u64) -> Vec<WorkItem> {
        if self.queue.is_empty() {
            return Vec::new();
        }
        let take = self.queue.len().min(self.cfg.max_batch);
        let mut requests = Vec::with_capacity(take);
        let mut hists = Vec::with_capacity(take);
        let mut total_nodes = 0usize;
        for _ in 0..take {
            let (p, h) = self.queue.pop_front().expect("nonempty");
            total_nodes += h.iter().map(|l| l.values().sum::<usize>()).sum::<usize>();
            requests.push(p);
            hists.push(h);
        }
        // Execute the merged graph level by level.
        let merged = merge_histograms(&hists);
        let mut exec_us = self.cost.sched_overhead_us;
        for level in &merged {
            for (&ct, &count) in level {
                exec_us += self
                    .cost
                    .kernel_time_from_flops(self.profile.flops(ct, count));
                exec_us += self.cfg.per_level_extra_us;
            }
        }
        let merge_us = total_nodes as f64 * self.cfg.merge_us_per_node;
        let duration = if self.cfg.overlap_merge {
            // Construction of this batch overlapped the previous batch's
            // execution; only the excess shows, plus this batch's exec.
            exec_us + (merge_us - self.last_exec_us).max(0.0)
        } else {
            exec_us + merge_us
        };
        self.last_exec_us = exec_us;
        let id = self.next_item;
        self.next_item += 1;
        self.running.insert(
            id,
            RunningBatch {
                requests,
                started_us: 0,
            },
        );
        vec![WorkItem {
            id,
            duration_us: duration.round() as u64,
        }]
    }

    fn on_work_started(&mut self, item: u64, now_us: u64) {
        if let Some(b) = self.running.get_mut(&item) {
            b.started_us = now_us;
        }
    }

    fn on_work_done(&mut self, _worker: usize, item: u64, now_us: u64) {
        let batch = self.running.remove(&item).expect("known batch");
        for r in &batch.requests {
            self.completions
                .push((r.id, r.arrival_us, batch.started_us, now_us));
        }
        self.pending -= batch.requests.len();
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
    use bm_model::{RequestInput, TreeLstm};
    use bm_sim::{simulate, SimOptions};
    use bm_workload::{Dataset, LengthDistribution, PoissonArrivals};

    fn tree_arrivals(n: usize, rate: f64) -> Vec<(u64, RequestInput)> {
        let ds = Dataset::trees(200, LengthDistribution::treebank(), 900, 5);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        PoissonArrivals::new(rate, 8)
            .take(n)
            .map(|t| (t, ds.sample(&mut rng).clone()))
            .collect()
    }

    fn server(cfg: DynGraphConfig) -> DynGraphServer {
        let m = Arc::new(TreeLstm::small());
        let profile = CostProfile::paper_scale(m.registry(), 1024, 30_000);
        DynGraphServer::new(m, cfg, GpuCostModel::v100(), profile)
    }

    #[test]
    fn fold_sustains_low_tree_load() {
        let mut srv = server(DynGraphConfig::fold(64));
        let out = simulate(&mut srv, &tree_arrivals(400, 300.0), SimOptions::default());
        assert!(!out.saturated, "300 req/s is under Fold's peak");
    }

    #[test]
    fn fold_saturates_before_dynet() {
        // Paper §7.5: DyNet's peak throughput clearly exceeds Fold's.
        let arr = tree_arrivals(1500, 1500.0);
        let mut fold = server(DynGraphConfig::fold(64));
        let out_fold = simulate(&mut fold, &arr, SimOptions::default());
        let mut dynet = server(DynGraphConfig::dynet(64));
        let out_dynet = simulate(&mut dynet, &arr, SimOptions::default());
        let fold_lat = if out_fold.saturated {
            f64::INFINITY
        } else {
            out_fold.recorder.summary().p90_ms
        };
        let dynet_lat = out_dynet.recorder.summary().p90_ms;
        assert!(
            !out_dynet.saturated,
            "DyNet should sustain 1.5k req/s (peak ~2.1k)"
        );
        assert!(dynet_lat < fold_lat, "dynet {dynet_lat} vs fold {fold_lat}");
    }

    #[test]
    fn merged_batch_completes_together() {
        // A blocker keeps the device busy; the two trees behind it merge
        // into one batch and complete together.
        let trees = tree_arrivals(3, 100.0);
        let mut srv = server(DynGraphConfig::dynet(64));
        let arr = vec![
            (0, trees[0].1.clone()),
            (1, trees[1].1.clone()),
            (2, trees[2].1.clone()),
        ];
        let out = simulate(&mut srv, &arr, SimOptions::default());
        let mut t = out.recorder.timings().to_vec();
        t.sort_by_key(|x| x.arrival_us);
        assert_eq!(t.len(), 3);
        assert_eq!(t[1].completion_us, t[2].completion_us);
    }

    #[test]
    fn small_batches_at_low_load_keep_latency_low() {
        // At low load DyNet executes near-singleton batches: latency
        // stays in the low milliseconds rather than the tens.
        let mut srv = server(DynGraphConfig::dynet(64));
        let out = simulate(&mut srv, &tree_arrivals(300, 100.0), SimOptions::default());
        assert!(!out.saturated);
        assert!(out.recorder.summary().p50_ms < 20.0);
    }
}
