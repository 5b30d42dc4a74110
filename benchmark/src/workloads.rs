//! The four workloads: model, generated inputs, fixed rates, oracle.

use std::sync::Arc;

use bm_model::reference::execute_graph;
use bm_model::{
    LstmLm, LstmLmConfig, Model, RequestInput, Seq2Seq, Seq2SeqConfig, TreeLstm, TreeLstmConfig,
};
use bm_workload::{Dataset, LengthDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct inputs per run; the request stream cycles through them.
pub const INPUTS: usize = 512;

/// Dataset chunks the inputs are picked from, [`INPUTS`] generated
/// inputs each. Chunk `k`, ordered by cell count, gives every
/// `CHUNKS`-th input starting at the `k`-th, so the kept set follows the
/// length quantiles of `CHUNKS * INPUTS` draws instead of one seed's
/// luck: the mean work of 512 independent log-normal draws differs by
/// ±3 % between seeds, which is the size of a regression bound. One
/// chunk is alive at a time, so the pool adds little to `peak_rss_mb`.
const CHUNKS: usize = 16;

/// One workload: what is served and how hard it is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in every result.
    pub name: &'static str,
    /// Open-loop rate of the `mid` phase, requests/s (≈15 % of the
    /// closed-loop peak measured on the 2-core sizing host).
    pub mid_rps: f64,
    /// Open-loop rate of the `high` phase, requests/s (≈30 % of that
    /// peak, which keeps the single worker half to two-thirds busy:
    /// small batches cost more per request than the peak's full ones. At the
    /// ISSUE's 50 % the worker was 70–80 % busy and a 4 % drift in the
    /// host's speed moved the median latency by 20–45 %).
    pub high_rps: f64,
    /// Why the workload exists.
    pub why: &'static str,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "chain_tiny",
        mid_rps: 6_000.0,
        high_rps: 12_000.0,
        why: "3-cell hidden-64 chains: wire, event loop and manager do nearly all the work, kernels almost none",
    },
    Workload {
        name: "chain_wmt",
        mid_rps: 300.0,
        high_rps: 600.0,
        why: "variable-length hidden-256 chains joining and leaving a running batch: kernels and resident rows dominate",
    },
    Workload {
        name: "seq2seq_wmt",
        mid_rps: 120.0,
        high_rps: 240.0,
        why: "two cell types with decoder priority, feed-previous tokens and a vocab projection per decode step",
    },
    Workload {
        name: "tree_bank",
        mid_rps: 120.0,
        high_rps: 240.0,
        why: "tree cells have no resident layout: every step gathers through the slot plane over 2-dependency DAGs",
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Builds the served model (part of every timed cold start).
    pub fn build_model(&self) -> Arc<dyn Model> {
        match self.name {
            "chain_tiny" => Arc::new(LstmLm::small()),
            "chain_wmt" => Arc::new(LstmLm::new(LstmLmConfig {
                embed_size: 256,
                hidden_size: 256,
                vocab: 1000,
                max_batch: 64,
                ..LstmLmConfig::default()
            })),
            "seq2seq_wmt" => Arc::new(Seq2Seq::new(Seq2SeqConfig {
                embed_size: 256,
                hidden_size: 256,
                vocab: 1000,
                encoder_max_batch: 64,
                decoder_max_batch: 64,
                ..Seq2SeqConfig::default()
            })),
            "tree_bank" => Arc::new(TreeLstm::new(TreeLstmConfig {
                embed_size: 256,
                hidden_size: 256,
                vocab: 1000,
                max_batch: 64,
                ..TreeLstmConfig::default()
            })),
            other => unreachable!("unknown workload {other}"),
        }
    }

    /// The [`INPUTS`] distinct inputs of a run, a function of `seed`
    /// alone.
    pub fn inputs(&self, seed: u64) -> Vec<RequestInput> {
        let mut kept: Vec<RequestInput> = Vec::with_capacity(INPUTS);
        for chunk in 0..CHUNKS {
            let chunk_seed = seed.wrapping_mul(CHUNKS as u64).wrapping_add(chunk as u64);
            let pool = match self.name {
                "chain_tiny" => {
                    Dataset::lstm(INPUTS, LengthDistribution::Fixed(3), 900, chunk_seed)
                }
                "chain_wmt" => Dataset::lstm(
                    INPUTS,
                    LengthDistribution::wmt15_clipped(100),
                    1000,
                    chunk_seed,
                ),
                "seq2seq_wmt" => Dataset::seq2seq(
                    INPUTS,
                    LengthDistribution::wmt15_clipped(50),
                    1000,
                    chunk_seed,
                ),
                "tree_bank" => {
                    Dataset::trees(INPUTS, LengthDistribution::treebank(), 1000, chunk_seed)
                }
                other => unreachable!("unknown workload {other}"),
            };
            let mut by_size: Vec<&RequestInput> = pool.items().iter().collect();
            by_size.sort_by_key(|i| i.cell_count());
            kept.extend(by_size.into_iter().skip(chunk).step_by(CHUNKS).cloned());
        }
        // Into a seed-dependent order: arrival order must not correlate
        // with size.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0bde);
        for i in (1..kept.len()).rev() {
            kept.swap(i, rng.gen_range(0..i + 1));
        }
        kept
    }
}

/// What a correct response to one input holds, from the unbatched
/// reference executor.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Graph nodes executed.
    pub executed: u32,
    /// Token per node, `None` for non-emitting nodes.
    pub tokens: Vec<Option<u32>>,
    /// Final hidden state, compared bit-for-bit by the in-process replay.
    pub final_h: Vec<f32>,
}

/// Runs `bm_model::reference::execute_graph` over every input, on up
/// to `threads` threads (the server is not running yet).
pub fn oracle(model: &dyn Model, inputs: &[RequestInput], threads: usize) -> Vec<Expected> {
    let chunk = inputs.len().div_ceil(threads.max(1));
    let mut out = Vec::with_capacity(inputs.len());
    std::thread::scope(|s| {
        let parts: Vec<_> = inputs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|input| {
                            let r = execute_graph(&model.unfold(input), model.registry());
                            Expected {
                                executed: r.executed_count() as u32,
                                tokens: r
                                    .outputs
                                    .iter()
                                    .map(|o| o.as_ref().and_then(|c| c.token))
                                    .collect(),
                                final_h: r.final_h().expect("non-empty graph").to_vec(),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for p in parts {
            out.extend(p.join().expect("oracle thread"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request stream as the bytes that go on the wire.
    fn frames(inputs: &[RequestInput]) -> Vec<u8> {
        let mut buf = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            let req = bm_core::Request::new(input.clone());
            bm_net::wire::encode_submit(&mut buf, i as u32, &req);
        }
        buf
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in WORKLOADS {
            let a = w.inputs(7);
            assert_eq!(a.len(), INPUTS);
            assert_eq!(frames(&a), frames(&w.inputs(7)), "{}", w.name);
            assert_ne!(frames(&a), frames(&w.inputs(8)), "{}", w.name);
            let model = w.build_model();
            assert!(a.iter().all(|i| model.validate(i).is_ok()), "{}", w.name);
        }
    }

    #[test]
    fn kept_inputs_track_the_pool_mean() {
        // The stratified pick keeps mean work per request within 3 %
        // over these seeds; independent draws of 512 differ by up to 8 %.
        for w in &WORKLOADS[1..] {
            let means: Vec<f64> = (1..=4)
                .map(|seed| {
                    let cells: usize = w.inputs(seed).iter().map(|i| i.cell_count()).sum();
                    cells as f64 / INPUTS as f64
                })
                .collect();
            let lo = means.iter().copied().fold(f64::MAX, f64::min);
            let hi = means.iter().copied().fold(f64::MIN, f64::max);
            assert!(hi / lo < 1.03, "{}: {means:?}", w.name);
        }
    }
}
