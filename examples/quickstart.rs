//! Quickstart: serve LSTM inference requests through BatchMaker.
//!
//! Builds a small LSTM language model, starts the threaded runtime
//! (one shard: a thread that schedules and executes), submits a
//! handful of sentences concurrently, and verifies every result against
//! the unbatched reference executor.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use bm_core::{Runtime, RuntimeOptions};
use bm_model::{reference, LstmLm, LstmLmConfig, Model, RequestInput};

fn main() {
    // A pre-trained model would load weights from disk
    // (`bm_tensor::io::WeightBundle`); here we use seeded weights.
    let model = Arc::new(LstmLm::new(LstmLmConfig {
        embed_size: 64,
        hidden_size: 64,
        vocab: 1000,
        ..Default::default()
    }));

    // Default options: half the host's cores as scheduler shards
    // (`ServeConfig::shards(n)` to choose).
    let runtime = Runtime::start(Arc::clone(&model) as Arc<dyn Model>, RuntimeOptions::new());

    // "system research is", "kids love dogs", ... as token ids.
    let sentences: Vec<RequestInput> = vec![
        RequestInput::Sequence(vec![101, 202, 303]),
        RequestInput::Sequence(vec![4, 5]),
        RequestInput::Sequence(vec![7, 8, 9, 10, 11, 12]),
        RequestInput::Sequence(vec![42]),
    ];

    // Submit everything at once: cellular batching will batch the
    // chains' steps together and return each request as soon as its
    // last cell finishes.
    let handles: Vec<_> = sentences
        .iter()
        .map(|s| runtime.submit_request(s).expect("submit"))
        .collect();

    for (input, handle) in sentences.iter().zip(handles) {
        let served = handle.wait().completed();
        let expect = reference::execute_graph(&model.unfold(input), model.registry());
        assert_eq!(served.result, expect, "batched result must match reference");

        let h = served.result.final_h().expect("final state");
        let t = served.timing;
        println!(
            "request {:?}: {} cells, latency {} us, h[0..4] = {:.3?}",
            input,
            served.result.executed_count(),
            t.completion_us - t.arrival_us,
            &h[..4],
        );
    }

    runtime.shutdown();
    println!("all results verified against the unbatched reference");
}
