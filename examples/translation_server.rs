//! A Seq2Seq translation server under staggered load.
//!
//! Demonstrates the paper's core claim end to end: requests arriving at
//! different times continuously *join* the execution of earlier requests
//! (no graph-batching synchronization barrier), decoders run with
//! priority over encoders, and each request returns the moment its last
//! decode step completes.
//!
//! Run with: `cargo run --release --example translation_server`

use std::sync::Arc;
use std::time::Duration;

use bm_core::{Runtime, RuntimeOptions};
use bm_model::{Model, RequestInput, Seq2Seq, Seq2SeqConfig};
use bm_workload::{Dataset, LengthDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let model = Arc::new(Seq2Seq::new(Seq2SeqConfig {
        embed_size: 48,
        hidden_size: 48,
        vocab: 300,
        ..Default::default()
    }));
    let runtime = Runtime::start(Arc::clone(&model) as Arc<dyn Model>, RuntimeOptions::new());

    // Sample "German" sentences of varying length and issue them with
    // small gaps, as a live service would see.
    let ds = Dataset::seq2seq(64, LengthDistribution::wmt15_clipped(20), 300, 42);
    let mut rng = StdRng::seed_from_u64(7);
    let inputs: Vec<RequestInput> = (0..16).map(|_| ds.sample(&mut rng).clone()).collect();

    let mut handles = Vec::new();
    for input in &inputs {
        handles.push((
            input.clone(),
            runtime.submit_request(input).expect("submit"),
        ));
        // Staggered arrivals: later requests join mid-flight batches.
        std::thread::sleep(Duration::from_micros(300));
    }

    let mut total_latency_us = 0u64;
    for (input, handle) in handles {
        let served = handle.wait().completed();
        let RequestInput::Pair { src, decode_len } = &input else {
            unreachable!("seq2seq dataset yields pairs");
        };
        let decoded = served.result.decoded_tokens();
        assert_eq!(decoded.len(), *decode_len, "fixed-length decode");
        let lat = served.timing.completion_us - served.timing.arrival_us;
        total_latency_us += lat;
        println!(
            "src len {:2} -> decoded {:2} tokens in {:5} us: {:?}...",
            src.len(),
            decoded.len(),
            lat,
            &decoded[..decoded.len().min(6)],
        );
    }
    println!(
        "mean latency: {} us over {} requests",
        total_latency_us / inputs.len() as u64,
        inputs.len()
    );
    runtime.shutdown();
}
