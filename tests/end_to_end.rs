//! Workspace-spanning end-to-end tests: workload generation → threaded
//! runtime serving under cellular batching → results verified against
//! the unbatched reference, for all three applications at once.

use std::sync::Arc;

use bm_core::{Runtime, RuntimeOptions, ServeConfig, SubmitError};
use bm_model::{reference, LstmLm, Model, RequestInput, Seq2Seq, TreeLstm};
use bm_workload::{Dataset, LengthDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn serve_and_verify(model: Arc<dyn Model>, inputs: &[RequestInput], shards: usize) -> Vec<u64> {
    let rt = Runtime::start(
        Arc::clone(&model),
        RuntimeOptions::new().serve_config(ServeConfig::new().shards(shards)),
    );
    let handles: Vec<_> = inputs
        .iter()
        .map(|i| rt.submit_request(i).expect("submit"))
        .collect();
    let mut latencies = Vec::new();
    for (input, h) in inputs.iter().zip(handles) {
        let served = h.wait().completed();
        let expect = reference::execute_graph(&model.unfold(input), model.registry());
        assert_eq!(served.result, expect, "diverged on {input:?}");
        latencies.push(served.timing.completion_us - served.timing.arrival_us);
    }
    rt.shutdown();
    latencies
}

#[test]
fn lstm_wmt_workload_end_to_end() {
    let ds = Dataset::lstm(60, LengthDistribution::wmt15_clipped(30), 900, 21);
    serve_and_verify(Arc::new(LstmLm::small()), ds.items(), 2);
}

#[test]
fn seq2seq_workload_end_to_end() {
    let ds = Dataset::seq2seq(40, LengthDistribution::wmt15_clipped(12), 450, 22);
    serve_and_verify(Arc::new(Seq2Seq::small()), ds.items(), 2);
}

#[test]
fn treelstm_workload_end_to_end() {
    let ds = Dataset::trees(40, LengthDistribution::treebank(), 900, 23);
    serve_and_verify(Arc::new(TreeLstm::small()), ds.items(), 2);
}

#[test]
fn mixed_interleaved_submissions() {
    // Interleave short and long requests: the short ones must not be
    // stuck behind the long ones (continuous leave, §3.2).
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let rt = Runtime::start(Arc::clone(&model), RuntimeOptions::new());
    let long = RequestInput::Sequence(vec![1; 120]);
    let short = RequestInput::Sequence(vec![2; 2]);
    let h_long = rt.submit_request(&long).expect("submit");
    let h_shorts: Vec<_> = (0..8)
        .map(|_| rt.submit_request(&short).expect("submit"))
        .collect();
    let long_done = h_long.wait().completed().timing.completion_us;
    for h in h_shorts {
        let t = h.wait().completed().timing;
        assert!(
            t.completion_us < long_done,
            "short request finished at {} after the long one at {long_done}",
            t.completion_us
        );
    }
    rt.shutdown();
}

#[test]
fn repeated_identical_requests_are_deterministic() {
    let model: Arc<dyn Model> = Arc::new(TreeLstm::small());
    let ds = Dataset::trees(5, LengthDistribution::Fixed(7), 900, 9);
    let input = ds.items()[0].clone();
    let rt = Runtime::start(Arc::clone(&model), RuntimeOptions::new());
    let results: Vec<_> = (0..6)
        .map(|_| rt.submit_request(&input).expect("submit"))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.wait().completed().result)
        .collect();
    for r in &results[1..] {
        assert_eq!(
            r, &results[0],
            "identical inputs must give identical outputs"
        );
    }
    rt.shutdown();
}

#[test]
fn stress_small_requests_across_models() {
    // A final soak across all three models in sequence.
    let mut rng = StdRng::seed_from_u64(5);
    let lstm_ds = Dataset::lstm(30, LengthDistribution::Fixed(4), 900, 31);
    serve_and_verify(Arc::new(LstmLm::small()), lstm_ds.items(), 3);

    let tree_ds = Dataset::trees(30, LengthDistribution::Fixed(5), 900, 32);
    let mut picks = Vec::new();
    for _ in 0..20 {
        picks.push(tree_ds.sample(&mut rng).clone());
    }
    serve_and_verify(Arc::new(TreeLstm::small()), &picks, 3);
}

#[test]
fn malformed_requests_rejected_gracefully() {
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let rt = Runtime::start(Arc::clone(&model), RuntimeOptions::new());
    // Empty sequence, out-of-vocabulary token, wrong variant — all
    // surface as the typed `SubmitError::Invalid`.
    assert!(matches!(
        rt.submit_request(RequestInput::Sequence(vec![])),
        Err(SubmitError::Invalid(_))
    ));
    assert!(matches!(
        rt.submit_request(RequestInput::Sequence(vec![u32::MAX])),
        Err(SubmitError::Invalid(_))
    ));
    assert!(matches!(
        rt.submit_request(&RequestInput::Pair {
            src: vec![1],
            decode_len: 1
        }),
        Err(SubmitError::Invalid(_))
    ));
    // The runtime is unharmed: a valid request still serves.
    let ok = rt
        .submit_request(RequestInput::Sequence(vec![1, 2]))
        .unwrap();
    assert_eq!(ok.wait().completed().result.executed_count(), 2);
    rt.shutdown();
}
