//! Server construction for the systems under comparison.

use std::sync::Arc;

use bm_baseline::{DynGraphConfig, DynGraphServer, IdealServer, PaddingConfig, PaddingServer};
use bm_core::SchedulerConfig;
use bm_device::{CostProfile, GpuCostModel};
use bm_model::{Model, RequestInput};
use bm_sim::{CellularServer, Server};

/// The serving systems compared in the paper's evaluation.
#[derive(Debug, Clone)]
pub enum SystemKind {
    /// BatchMaker (cellular batching).
    BatchMaker,
    /// Padding + bucketing à la TensorFlow (slightly higher per-graph
    /// host overhead than MXNet in our model).
    TensorFlow {
        /// Bucket width in tokens.
        bucket_width: usize,
    },
    /// Padding + bucketing à la MXNet.
    Mxnet {
        /// Bucket width in tokens.
        bucket_width: usize,
    },
    /// TensorFlow Fold (dynamic graph merging, heavy construction,
    /// overlapped).
    Fold,
    /// DyNet (dynamic graph merging, cheap construction, per-operator
    /// batching).
    Dynet,
    /// The Figure 15 ideal static-graph executor for one fixed input.
    Ideal {
        /// The single input shape the static graph supports.
        expected: RequestInput,
    },
}

impl SystemKind {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::BatchMaker => "BatchMaker",
            SystemKind::TensorFlow { .. } => "TensorFlow",
            SystemKind::Mxnet { .. } => "MXNet",
            SystemKind::Fold => "TF Fold",
            SystemKind::Dynet => "DyNet",
            SystemKind::Ideal { .. } => "Ideal",
        }
    }
}

/// Builds fresh server instances for sweep points.
pub struct ServerFactory {
    /// The model served (small weights; pricing is paper-scale).
    pub model: Arc<dyn Model>,
    /// Per-type FLOP profile (normally
    /// `CostProfile::paper_scale(registry, 1024, 30_000)`).
    pub profile: CostProfile,
    /// The device timing model.
    pub cost: GpuCostModel,
    /// Longest sequence the padding baselines must support.
    pub max_len: usize,
    /// Padding baselines' maximum batch size.
    pub pad_max_batch: usize,
    /// Dynamic-graph baselines' maximum batch (input requests).
    pub dyn_max_batch: usize,
    /// Optional batch-accumulation timeout for the padding baselines
    /// (`None` = idle-start, the paper's best configuration; the
    /// ablation experiment sweeps this).
    pub accumulation_timeout_us: Option<u64>,
    /// Scheduler tunables and serving knobs for the BatchMaker server:
    /// the ablation experiment sweeps `max_tasks_to_submit`, the SLA
    /// sweep sets deadlines and the admission cap, and `repro trace`
    /// the trace sink. The baselines read none of it.
    pub scheduler: SchedulerConfig,
}

impl ServerFactory {
    /// A factory with paper-scale pricing and V100 timing.
    pub fn paper(model: Arc<dyn Model>) -> Self {
        let profile = CostProfile::paper_scale(model.registry(), 1024, 30_000);
        ServerFactory {
            model,
            profile,
            cost: GpuCostModel::v100(),
            max_len: 330,
            pad_max_batch: 512,
            dyn_max_batch: 64,
            accumulation_timeout_us: None,
            scheduler: SchedulerConfig::default(),
        }
    }

    /// Instantiates a server of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if a padding baseline is requested for a model without
    /// chain structure (tree models cannot be padded, §2.3).
    pub fn build(&self, kind: &SystemKind) -> Box<dyn Server> {
        match kind {
            SystemKind::BatchMaker => Box::new(CellularServer::new(
                Arc::clone(&self.model),
                self.scheduler.clone(),
                self.cost,
                self.profile.clone(),
            )),
            SystemKind::TensorFlow { bucket_width } => {
                let mut cost = self.cost;
                // TensorFlow's session/runtime overhead per launched
                // graph is a bit higher than MXNet's in the paper's
                // low-load latency plots.
                cost.sched_overhead_us += 25.0;
                Box::new(PaddingServer::new(
                    self.padding_config(*bucket_width),
                    cost,
                    self.profile.clone(),
                ))
            }
            SystemKind::Mxnet { bucket_width } => Box::new(PaddingServer::new(
                self.padding_config(*bucket_width),
                self.cost,
                self.profile.clone(),
            )),
            SystemKind::Fold => Box::new(DynGraphServer::new(
                Arc::clone(&self.model),
                DynGraphConfig::fold(self.dyn_max_batch),
                self.cost,
                self.profile.clone(),
            )),
            SystemKind::Dynet => Box::new(DynGraphServer::new(
                Arc::clone(&self.model),
                DynGraphConfig::dynet(self.dyn_max_batch),
                self.cost,
                self.profile.clone(),
            )),
            SystemKind::Ideal { expected } => Box::new(IdealServer::new(
                Arc::clone(&self.model),
                expected.clone(),
                self.dyn_max_batch,
                self.cost,
                self.profile.clone(),
            )),
        }
    }

    fn padding_config(&self, bucket_width: usize) -> PaddingConfig {
        use bm_baseline::PadKind;
        let reg = self.model.registry();
        let kind = if let (Some(enc), Some(dec)) = (reg.by_name("encoder"), reg.by_name("decoder"))
        {
            PadKind::Seq2Seq {
                encoder: enc.id,
                decoder: dec.id,
            }
        } else if let Some(lstm) = reg.by_name("lstm") {
            PadKind::Lstm { cell: lstm.id }
        } else {
            panic!("padding baseline requires a chain model (lstm or seq2seq)")
        };
        PaddingConfig {
            bucket_width,
            max_len: self.max_len,
            max_batch: self.pad_max_batch,
            kind,
            accumulation_timeout_us: self.accumulation_timeout_us,
        }
    }
}
