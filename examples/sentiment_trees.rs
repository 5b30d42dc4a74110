//! TreeLSTM sentiment classification over parse trees (paper §2.1).
//!
//! Padding cannot batch trees, which is why the paper's TreeLSTM
//! comparison is against dynamic graph batching. BatchMaker batches the
//! *cells*: all ready leaf cells across requests form leaf tasks, then
//! internal cells batch level by level as their children complete
//! (§4.4's worked example). This demo classifies random parse trees with
//! a toy readout over the root hidden state.
//!
//! Run with: `cargo run --release --example sentiment_trees`

use std::sync::Arc;

use bm_core::{Runtime, RuntimeOptions};
use bm_model::{reference, Model, RequestInput, TreeLstm, TreeLstmConfig, TreeShape};
use bm_workload::{Dataset, LengthDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Toy sentiment readout: the sign of the mean of the root hidden state.
fn sentiment(h: &[f32]) -> &'static str {
    let mean: f32 = h.iter().sum::<f32>() / h.len() as f32;
    if mean >= 0.0 {
        "positive"
    } else {
        "negative"
    }
}

fn main() {
    let model = Arc::new(TreeLstm::new(TreeLstmConfig {
        embed_size: 32,
        hidden_size: 32,
        vocab: 500,
        ..Default::default()
    }));
    let runtime = Runtime::start(Arc::clone(&model) as Arc<dyn Model>, RuntimeOptions::new());

    // A mix of random parse trees plus the paper's complete 16-leaf
    // tree (§4.4's running example).
    let ds = Dataset::trees(64, LengthDistribution::treebank(), 500, 99);
    let mut rng = StdRng::seed_from_u64(3);
    let mut inputs: Vec<RequestInput> = (0..10).map(|_| ds.sample(&mut rng).clone()).collect();
    inputs.push(RequestInput::Tree(TreeShape::complete(16, 500)));

    let handles: Vec<_> = inputs
        .iter()
        .map(|i| runtime.submit_request(i).expect("submit"))
        .collect();
    for (input, handle) in inputs.iter().zip(handles) {
        let served = handle.wait().completed();
        let expect = reference::execute_graph(&model.unfold(input), model.registry());
        assert_eq!(served.result, expect, "tree result must match reference");
        let RequestInput::Tree(shape) = input else {
            unreachable!()
        };
        let root_h = served.result.final_h().expect("root state");
        println!(
            "tree: {:2} leaves, height {:2}, {:2} cells -> {} ({} us)",
            shape.leaf_count(),
            shape.height(),
            served.result.executed_count(),
            sentiment(root_h),
            served.timing.completion_us - served.timing.arrival_us,
        );
    }
    runtime.shutdown();
    println!("all tree results verified against the unbatched reference");
}
