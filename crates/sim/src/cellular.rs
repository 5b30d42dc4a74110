//! BatchMaker under simulation: the real [`CellularEngine`] driven in
//! virtual time with task durations from the calibrated GPU cost model.

use std::collections::HashMap;
use std::sync::Arc;

use bm_core::{CellularEngine, Request, RequestId, SchedulerConfig, ServeConfig, TaskId, WorkerId};
use bm_device::{CostProfile, GpuCostModel};
use bm_model::Model;
use bm_telemetry::Counter;
use bm_trace::{EventKind, RejectReason, TraceEvent};

use crate::server::{Completion, Server, SimRequest, WorkItem};

/// Cellular batching as a simulated server: one runtime shard's engine,
/// configured and observed as a shard is.
pub struct CellularServer {
    model: Arc<dyn Model>,
    engine: CellularEngine,
    cost: GpuCostModel,
    profile: CostProfile,
    /// Batch size of each in-flight task.
    inflight: HashMap<u64, usize>,
    /// The admission cap and the sinks a refusal is recorded in.
    serve: ServeConfig,
    /// `bm_requests_rejected_total{reason="at_capacity"}`; `None` when
    /// telemetry is disabled.
    rejected: Option<Counter>,
}

impl CellularServer {
    /// Creates a server for `model` with the given scheduler config,
    /// cost model and FLOP profile.
    ///
    /// Every serving knob comes from `cfg.serve`, as for a runtime
    /// shard: the default deadline, the `max_active` admission cap, and
    /// the trace sink and telemetry registry, which the engine and the
    /// server's refusals record into in virtual time.
    pub fn new(
        model: Arc<dyn Model>,
        cfg: SchedulerConfig,
        cost: GpuCostModel,
        profile: CostProfile,
    ) -> Self {
        assert_eq!(
            profile.len(),
            model.registry().len(),
            "profile must cover every cell type"
        );
        let registry = Arc::new(model.registry().clone());
        let serve = cfg.serve.clone();
        let tel = &serve.telemetry;
        let rejected = tel
            .enabled()
            .then(|| tel.counter_with("bm_requests_rejected_total", &[("reason", "at_capacity")]));
        CellularServer {
            model,
            engine: CellularEngine::new(registry, cfg),
            cost,
            profile,
            inflight: HashMap::new(),
            serve,
            rejected,
        }
    }

    /// Creates a server with default scheduler config, the V100 cost
    /// model, and paper-scale pricing (hidden 1024, vocabulary 30k).
    pub fn paper_scale(model: Arc<dyn Model>) -> Self {
        let profile = CostProfile::paper_scale(model.registry(), 1024, 30_000);
        Self::new(
            model,
            SchedulerConfig::default(),
            GpuCostModel::v100(),
            profile,
        )
    }
}

impl Server for CellularServer {
    fn on_arrival(&mut self, req: SimRequest) -> bool {
        let serve = &self.serve;
        if serve
            .max_active
            .is_some_and(|cap| self.engine.active_requests() >= cap)
        {
            if let Some(c) = &self.rejected {
                c.inc();
            }
            if serve.trace.enabled() {
                serve.trace.record(TraceEvent {
                    ts_us: req.arrival_us,
                    kind: EventKind::RequestRejected {
                        request: req.id,
                        reason: RejectReason::AtCapacity,
                    },
                });
            }
            return false;
        }
        let request = Request::new(req.input);
        let graph = self.model.unfold(&request.input);
        self.engine
            .on_request(RequestId(req.id), graph, req.arrival_us, &request);
        true
    }

    fn next_work(&mut self, worker: usize, now_us: u64) -> Vec<WorkItem> {
        // Batch-formation trace events are stamped with the engine's
        // internal clock; keep it in step with virtual time.
        self.engine.advance_clock(now_us);
        let tasks = self.engine.dispatch(WorkerId(worker as u32));
        // Back to back from `now_us`: each start is stamped at dispatch.
        let mut start_us = now_us;
        tasks
            .into_iter()
            .map(|t| {
                let flops = self.profile.flops(t.cell_type, t.batch_size());
                let cost = self
                    .cost
                    .task_cost_from_flops(flops, t.gather_rows, t.transfer_rows);
                let duration = cost.total_us() + self.cost.completion_poll_us;
                let duration_us = duration.round() as u64;
                self.inflight.insert(t.id.0, t.batch_size());
                self.engine.on_task_started(t.id, start_us);
                start_us += duration_us;
                WorkItem {
                    id: t.id.0,
                    duration_us,
                }
            })
            .collect()
    }

    fn on_work_done(&mut self, item: u64, now_us: u64, done: &mut Vec<Completion>) {
        let batch = self.inflight.remove(&item).expect("known task");
        // Under simulation no real tokens are produced; decode lengths
        // are fixed by the workload, as in the paper's experiments.
        let tokens = vec![None; batch];
        for c in self.engine.on_task_completed(TaskId(item), &tokens, now_us) {
            // Expired requests were counted by `expire`; they are not
            // completions.
            if !c.cancelled {
                done.push((c.id.0, c.arrival_us, c.start_us, c.completion_us));
            }
        }
    }

    fn next_wakeup(&self, _now_us: u64) -> Option<u64> {
        self.engine.next_deadline()
    }

    fn expire(&mut self, now_us: u64) -> usize {
        // The records of requests that retire at once are cancelled, so
        // none is a completion; the ones still draining resolve in
        // `on_work_done`.
        let before = self.engine.stats().requests_expired;
        self.engine.expire(now_us);
        (self.engine.stats().requests_expired - before) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{simulate, SimOptions};
    use bm_model::{LstmLm, LstmLmConfig, RequestInput};
    use bm_workload::PoissonArrivals;

    /// Small weights, paper-scale pricing.
    fn paper_lstm() -> Arc<LstmLm> {
        Arc::new(LstmLm::new(LstmLmConfig {
            max_batch: 512,
            ..Default::default()
        }))
    }

    fn fixed_len_arrivals(n: usize, len: usize, rate: f64) -> Vec<(u64, RequestInput)> {
        PoissonArrivals::new(rate, 42)
            .take(n)
            .map(|t| (t, RequestInput::Sequence(vec![1; len])))
            .collect()
    }

    #[test]
    fn low_load_latency_is_near_service_time() {
        // At 100 req/s a length-10 request should see little queueing:
        // ~10 steps x ~210 µs (kernel floor + overhead) ≈ 2 ms.
        let mut srv = CellularServer::paper_scale(paper_lstm());
        let out = simulate(
            &mut srv,
            &fixed_len_arrivals(300, 10, 100.0),
            SimOptions::default(),
        );
        assert!(!out.saturated);
        let s = out.recorder.summary();
        assert!(s.p50_ms > 1.0 && s.p50_ms < 6.0, "p50 {}", s.p50_ms);
    }

    #[test]
    fn batching_sustains_high_load() {
        // 512-way batching at ~800 µs per step over length-24 requests
        // supports >> 1000 req/s on one simulated GPU.
        let mut srv = CellularServer::paper_scale(paper_lstm());
        let out = simulate(
            &mut srv,
            &fixed_len_arrivals(4000, 24, 8000.0),
            SimOptions::default(),
        );
        assert!(!out.saturated, "8k req/s should be sustainable");
        assert!(out.throughput_rps() > 7000.0);
    }

    #[test]
    fn latency_grows_with_load_but_stays_bounded_below_peak() {
        let mut low = CellularServer::paper_scale(paper_lstm());
        let out_low = simulate(
            &mut low,
            &fixed_len_arrivals(1000, 24, 1000.0),
            SimOptions::default(),
        );
        let mut high = CellularServer::paper_scale(paper_lstm());
        let out_high = simulate(
            &mut high,
            &fixed_len_arrivals(4000, 24, 10_000.0),
            SimOptions::default(),
        );
        let (l, h) = (
            out_low.recorder.summary().p90_ms,
            out_high.recorder.summary().p90_ms,
        );
        assert!(h > l, "latency should grow with load ({l} -> {h})");
        assert!(h < 100.0, "but remain bounded below saturation ({h})");
    }

    #[test]
    fn multi_worker_scales_throughput() {
        let rate = 16_000.0;
        let mut one = CellularServer::paper_scale(paper_lstm());
        let out1 = simulate(
            &mut one,
            &fixed_len_arrivals(4000, 24, rate),
            SimOptions {
                workers: 1,
                max_sim_us: 30_000_000,
                ..Default::default()
            },
        );
        let mut four = CellularServer::paper_scale(paper_lstm());
        let out4 = simulate(
            &mut four,
            &fixed_len_arrivals(4000, 24, rate),
            SimOptions {
                workers: 4,
                max_sim_us: 30_000_000,
                ..Default::default()
            },
        );
        // One worker saturates at 16k req/s of length-24 LSTM; four keep up.
        assert!(out4.recorder.summary().p90_ms <= out1.recorder.summary().p90_ms);
        assert!(!out4.saturated);
    }

    #[test]
    fn small_scale_pricing_differs_from_paper_scale() {
        let model = paper_lstm();
        let profile = CostProfile::from_registry(model.registry());
        let mut small = CellularServer::new(
            model,
            SchedulerConfig::default(),
            GpuCostModel::v100(),
            profile,
        );
        let mut paper = CellularServer::paper_scale(paper_lstm());
        let arr = fixed_len_arrivals(500, 24, 20_000.0);
        let out_small = simulate(&mut small, &arr, SimOptions::default());
        let out_paper = simulate(&mut paper, &arr, SimOptions::default());
        // Tiny cells are cheap: the small-profile run should show lower
        // latency at this load.
        assert!(out_small.recorder.summary().p90_ms <= out_paper.recorder.summary().p90_ms);
    }
}
