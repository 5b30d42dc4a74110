//! The padding + bucketing baseline (MXNet / TensorFlow, §2.3 and §7.1).
//!
//! Requests are assigned to buckets by length; a batch pads every
//! request to the bucket's upper bound, executes the whole padded
//! graph, and returns all requests together. Buckets are scheduled
//! round-robin, and a non-full bucket batch starts as soon as a device
//! is idle and it is the bucket's turn (the paper found this beats any
//! timeout configuration).

use std::collections::VecDeque;

use bm_cell::CellTypeId;
use bm_device::{CostProfile, GpuCostModel};
use bm_model::RequestInput;
use bm_sim::{Completion, Server, SimRequest, WorkItem};

use crate::running::{Pending, Running};

/// Which chain application the server pads for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PadKind {
    /// Single-cell-type chain (the LSTM application).
    Lstm {
        /// The chain's cell type.
        cell: CellTypeId,
    },
    /// Encoder/decoder chains (the Seq2Seq application).
    Seq2Seq {
        /// Encoder cell type.
        encoder: CellTypeId,
        /// Decoder cell type.
        decoder: CellTypeId,
    },
}

/// Configuration of a [`PaddingServer`].
#[derive(Debug, Clone, Copy)]
pub struct PaddingConfig {
    /// Bucket width in tokens (10 is the paper's default; Figure 8
    /// sweeps 1..40).
    pub bucket_width: usize,
    /// Longest supported sequence (330 for the WMT-15 sample).
    pub max_len: usize,
    /// Maximum batch size (512 for LSTM, 256 for Seq2Seq in §7).
    pub max_batch: usize,
    /// The application being padded.
    pub kind: PadKind,
    /// Optional batch-accumulation timeout: a non-full bucket is not
    /// scheduled until its oldest request has waited this long. The
    /// paper evaluated this strategy and found that starting a smaller
    /// batch whenever a device is idle "achieves lower latency than any
    /// configuration of the timeout-based strategy" (§7.1) — the
    /// `ablation` experiment reproduces that comparison. `None` (the
    /// default behaviour) disables the timeout.
    pub accumulation_timeout_us: Option<u64>,
}

impl PaddingConfig {
    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.max_len.div_ceil(self.bucket_width)
    }

    /// The bucket index of a request with the given length.
    fn bucket_of(&self, len: usize) -> usize {
        ((len.max(1) - 1) / self.bucket_width).min(self.num_buckets() - 1)
    }

    /// The padded length of a bucket (its inclusive upper bound); the
    /// worst case a request admitted to `bucket` can be padded to.
    pub fn padded_len(&self, bucket: usize) -> usize {
        ((bucket + 1) * self.bucket_width).min(self.max_len)
    }
}

/// The padding/bucketing baseline server.
pub struct PaddingServer {
    cfg: PaddingConfig,
    cost: GpuCostModel,
    profile: CostProfile,
    buckets: Vec<VecDeque<Pending>>,
    rr: usize,
    running: Running,
}

impl PaddingServer {
    /// Creates the server.
    pub fn new(cfg: PaddingConfig, cost: GpuCostModel, profile: CostProfile) -> Self {
        let buckets = (0..cfg.num_buckets()).map(|_| VecDeque::new()).collect();
        PaddingServer {
            cfg,
            cost,
            profile,
            buckets,
            rr: 0,
            running: Running::default(),
        }
    }

    /// Execution time of one padded batch, µs.
    ///
    /// Sequences pad to the *bucket bound*: bucketing materializes one
    /// static unrolled graph per bucket (§2.3), so every batch admitted
    /// to a bucket executes the bucket's full step count no matter how
    /// short its members are. This is the compute waste that makes wide
    /// buckets lose the Figure 8 trade-off. Fixed-length workloads whose
    /// length is a bucket bound (e.g. length 60 with width 10) still pad
    /// nothing and reach the zero-padding theoretical maximum (§7.3).
    fn batch_duration_us(&self, padded: usize, batch: usize, dec_pad: usize) -> f64 {
        match self.cfg.kind {
            PadKind::Lstm { cell } => {
                let step = self
                    .cost
                    .task_cost_from_flops(self.profile.flops(cell, batch), 0, 0);
                // One graph launch: per-step kernels back to back, one
                // scheduling overhead for the whole materialized graph.
                padded as f64 * step.kernel_us + self.cost.sched_overhead_us
            }
            PadKind::Seq2Seq { encoder, decoder } => {
                let enc = self
                    .cost
                    .kernel_time_from_flops(self.profile.flops(encoder, batch));
                let dec = self
                    .cost
                    .kernel_time_from_flops(self.profile.flops(decoder, batch));
                padded as f64 * enc + dec_pad as f64 * dec + self.cost.sched_overhead_us
            }
        }
    }
}

impl Server for PaddingServer {
    fn on_arrival(&mut self, req: SimRequest) -> bool {
        let len = match &req.input {
            RequestInput::Sequence(s) => s.len(),
            // Seq2Seq buckets on the longer of the two chains so padding
            // covers both.
            RequestInput::Pair { src, decode_len } => src.len().max(*decode_len),
            RequestInput::Tree(_) => {
                panic!("padding cannot batch tree-structured inputs (§2.3)")
            }
        };
        self.buckets[self.cfg.bucket_of(len)].push_back((req.id, req.arrival_us));
        true
    }

    fn next_work(&mut self, _worker: usize, now_us: u64) -> Vec<WorkItem> {
        let nb = self.buckets.len();
        // Round-robin scan for the next non-empty (and, with a timeout
        // configured, ripe) bucket.
        for step in 1..=nb {
            let b = (self.rr + step) % nb;
            if self.buckets[b].is_empty() {
                continue;
            }
            if let Some(timeout) = self.cfg.accumulation_timeout_us {
                let full = self.buckets[b].len() >= self.cfg.max_batch;
                let (_, oldest) = self.buckets[b].front().expect("nonempty");
                if !full && now_us < oldest.saturating_add(timeout) {
                    continue;
                }
            }
            self.rr = b;
            let take = self.buckets[b].len().min(self.cfg.max_batch);
            let requests: Vec<Pending> = self.buckets[b].drain(..take).collect();
            // Pad to the bucket's bound: the bucket's pre-compiled
            // unrolled graph runs its full step count regardless of the
            // batch's actual lengths.
            let padded = self.cfg.padded_len(b);
            let dec_pad = match self.cfg.kind {
                PadKind::Lstm { .. } => 0,
                PadKind::Seq2Seq { .. } => padded,
            };
            let duration = self.batch_duration_us(padded, requests.len(), dec_pad);
            return self.running.start(requests, now_us, duration);
        }
        Vec::new()
    }

    fn on_work_done(&mut self, item: u64, now_us: u64, done: &mut Vec<Completion>) {
        self.running.finish(item, now_us, done);
    }

    fn next_wakeup(&self, now_us: u64) -> Option<u64> {
        let timeout = self.cfg.accumulation_timeout_us?;
        self.buckets
            .iter()
            .filter_map(|b| b.front())
            .map(|&(_, arrival_us)| arrival_us.saturating_add(timeout).max(now_us + 1))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_model::{LstmLm, Model, Seq2Seq};
    use bm_sim::{simulate, SimOptions};
    use bm_workload::PoissonArrivals;

    fn lstm_server(width: usize) -> PaddingServer {
        let m = LstmLm::small();
        let profile = CostProfile::paper_scale(m.registry(), 1024, 30_000);
        PaddingServer::new(
            PaddingConfig {
                bucket_width: width,
                max_len: 330,
                max_batch: 512,
                kind: PadKind::Lstm {
                    cell: m.cell_type(),
                },
                accumulation_timeout_us: None,
            },
            GpuCostModel::v100(),
            profile,
        )
    }

    fn arrivals(n: usize, lens: &[usize], rate: f64) -> Vec<(u64, RequestInput)> {
        PoissonArrivals::new(rate, 9)
            .take(n)
            .enumerate()
            .map(|(i, t)| (t, RequestInput::Sequence(vec![1; lens[i % lens.len()]])))
            .collect()
    }

    #[test]
    fn bucket_assignment_and_padding() {
        let cfg = PaddingConfig {
            bucket_width: 10,
            max_len: 330,
            max_batch: 512,
            kind: PadKind::Lstm {
                cell: CellTypeId(0),
            },
            accumulation_timeout_us: None,
        };
        assert_eq!(cfg.num_buckets(), 33);
        assert_eq!(cfg.bucket_of(1), 0);
        assert_eq!(cfg.bucket_of(10), 0);
        assert_eq!(cfg.bucket_of(11), 1);
        assert_eq!(cfg.bucket_of(330), 32);
        assert_eq!(cfg.padded_len(0), 10);
        assert_eq!(cfg.padded_len(32), 330);
    }

    #[test]
    fn batch_completes_together() {
        // A blocker keeps the device busy while two same-bucket requests
        // queue; they then form one padded batch and complete together.
        let mut srv = lstm_server(10);
        let arr = vec![
            (0, RequestInput::Sequence(vec![1; 100])), // blocker
            (1, RequestInput::Sequence(vec![1; 2])),
            (2, RequestInput::Sequence(vec![1; 9])),
        ];
        let out = simulate(&mut srv, &arr, SimOptions::default());
        let mut t = out.recorder.timings().to_vec();
        t.sort_by_key(|x| x.arrival_us);
        assert_eq!(t.len(), 3);
        assert_eq!(t[1].completion_us, t[2].completion_us);
        assert_eq!(t[1].start_us, t[2].start_us);
    }

    #[test]
    fn different_buckets_serialize_round_robin() {
        // Requests in two buckets on one device: the second bucket waits
        // for the first batch to finish.
        let mut srv = lstm_server(10);
        let arr = vec![
            (0, RequestInput::Sequence(vec![1; 5])),
            (1, RequestInput::Sequence(vec![1; 50])),
        ];
        let out = simulate(&mut srv, &arr, SimOptions::default());
        let mut t = out.recorder.timings().to_vec();
        t.sort_by_key(|x| x.completion_us);
        assert!(t[1].start_us >= t[0].completion_us);
    }

    #[test]
    fn sustains_moderate_lstm_load() {
        let mut srv = lstm_server(10);
        let out = simulate(
            &mut srv,
            &arrivals(3000, &[10, 24, 40], 4000.0),
            SimOptions::default(),
        );
        assert!(!out.saturated, "4k req/s should be sustainable");
    }

    #[test]
    fn coarse_buckets_waste_more_compute() {
        // Same overloaded workload, widths 10 vs 40: wide buckets mix
        // short and long sequences into one batch, so every short
        // request pays for the batch max and the measured capacity
        // drops.
        let arr = arrivals(8000, &[3, 12, 24, 37, 55], 60_000.0);
        let opts = SimOptions::new().max_sim_us(3_000_000);
        let mut narrow = lstm_server(10);
        let out_n = simulate(&mut narrow, &arr, opts.clone());
        let mut wide = lstm_server(40);
        let out_w = simulate(&mut wide, &arr, opts);
        let cap_n = out_n.recorder.summary().throughput_rps;
        let cap_w = out_w.recorder.summary().throughput_rps;
        assert!(
            cap_n > cap_w,
            "narrow capacity {cap_n} should beat wide {cap_w}"
        );
    }

    #[test]
    fn seq2seq_padding_includes_decoder() {
        let m = Seq2Seq::small();
        let profile = CostProfile::paper_scale(m.registry(), 1024, 30_000);
        let mut srv = PaddingServer::new(
            PaddingConfig {
                bucket_width: 10,
                max_len: 330,
                max_batch: 256,
                kind: PadKind::Seq2Seq {
                    encoder: m.encoder_type(),
                    decoder: m.decoder_type(),
                },
                accumulation_timeout_us: None,
            },
            GpuCostModel::v100(),
            profile,
        );
        let arr = vec![(
            0,
            RequestInput::Pair {
                src: vec![2; 8],
                decode_len: 6,
            },
        )];
        let out = simulate(&mut srv, &arr, SimOptions::default());
        let s = out.recorder.summary();
        // 10 padded encoder + 10 padded decoder kernel-floor steps at
        // batch 1: around 3 ms in total.
        assert!(s.p50_ms > 2.0, "p50 {}", s.p50_ms);
    }

    #[test]
    #[should_panic]
    fn trees_are_rejected() {
        use bm_model::TreeShape;
        let mut srv = lstm_server(10);
        srv.on_arrival(SimRequest {
            id: 0,
            input: RequestInput::Tree(TreeShape::leaf(1)),
            arrival_us: 0,
        });
    }
}
