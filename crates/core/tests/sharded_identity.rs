//! Sharding must be invisible to results: a request served by an
//! N-shard [`Runtime`] returns outputs bit-identical to the same type
//! started with `.shards(1)`, across shard counts × all three model
//! families. Placement and rebalancing may
//! move *where* a request runs, never *what* it computes.

use std::sync::Arc;

use bm_core::{Request, Runtime, RuntimeOptions, ServeConfig, ServedOutcome};
use bm_model::{LstmLm, Model, RequestInput, Seq2Seq, TreeLstm, TreeShape};
use proptest::collection::vec;
use proptest::prelude::*;

/// Vocabulary bound shared by the three `small()` models' inputs.
const VOCAB: u32 = 900;

fn opts(shards: usize) -> RuntimeOptions {
    RuntimeOptions::new().serve_config(ServeConfig::new().shards(shards))
}

/// Serves every input on a `shards`-shard runtime and returns the full
/// per-node outputs (states and tokens) in submission order.
fn outputs_of(
    model: Arc<dyn Model>,
    inputs: &[RequestInput],
    shards: usize,
) -> Vec<Vec<Option<bm_cell::CellOutput>>> {
    let rt = Runtime::start(model, opts(shards));
    assert_eq!(rt.num_shards(), shards);
    let handles: Vec<_> = inputs
        .iter()
        .map(|i| rt.submit_request(Request::from(i)).expect("submit"))
        .collect();
    let outputs = handles
        .into_iter()
        .map(|h| match h.wait() {
            ServedOutcome::Completed(res) => res.result.outputs,
            other => panic!("request did not complete: {other:?}"),
        })
        .collect();
    rt.shutdown();
    outputs
}

fn check_identity(model: Arc<dyn Model>, inputs: &[RequestInput], shards: usize) {
    let want = outputs_of(Arc::clone(&model), inputs, 1);
    let got = outputs_of(model, inputs, shards);

    // PartialEq on CellOutput compares every f32 exactly: any
    // accumulation-order difference between the paths would fail here.
    assert_eq!(want, got, "sharded outputs diverged ({shards} shards)");
}

/// Every shard stamps requests on the clock `Runtime::now_us` reads: a
/// timing from any shard lies between a reading taken before the
/// submission and one taken after the wait. (`Pair` inputs have shard 1
/// as their home, so a per-shard epoch would show.)
#[test]
fn shards_share_one_clock() {
    let model: Arc<dyn Model> = Arc::new(Seq2Seq::small());
    let rt = Runtime::start(Arc::clone(&model), opts(2));
    for i in 0..24u32 {
        let before = rt.now_us();
        let outcome = rt
            .submit_request(RequestInput::Pair {
                src: (2..4 + i % 5).collect(),
                decode_len: 1 + (i as usize % 3),
            })
            .expect("submit")
            .wait();
        let after = rt.now_us();
        let t = outcome.completed().timing;
        assert!(
            before <= t.arrival_us && t.arrival_us <= t.completion_us && t.completion_us <= after,
            "request {i}: {before} <= {} <= {} <= {after} violated",
            t.arrival_us,
            t.completion_us
        );
    }
    rt.shutdown();
}

fn tree_strategy() -> impl Strategy<Value = TreeShape> {
    (0u32..VOCAB).prop_map(TreeShape::leaf).prop_recursive(
        4,  // depth
        24, // total nodes
        2,  // branches
        |inner| (inner.clone(), inner).prop_map(|(l, r)| TreeShape::internal(l, r)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn lstm_outputs_identical_across_shards(
        seqs in vec(vec(1u32..VOCAB, 1..12), 4..16),
        shards in 2usize..5,
    ) {
        let inputs: Vec<RequestInput> =
            seqs.into_iter().map(RequestInput::Sequence).collect();
        check_identity(Arc::new(LstmLm::small()), &inputs, shards);
    }

    #[test]
    fn seq2seq_outputs_identical_across_shards(
        // Seq2Seq::small has a 500-token vocabulary; 2.. reserves the
        // <go>/<eos> ids.
        pairs in vec((vec(2u32..490, 1..10), 1usize..8), 4..12),
        shards in 2usize..5,
    ) {
        let inputs: Vec<RequestInput> = pairs
            .into_iter()
            .map(|(src, decode_len)| RequestInput::Pair { src, decode_len })
            .collect();
        check_identity(Arc::new(Seq2Seq::small()), &inputs, shards);
    }

    #[test]
    fn treelstm_outputs_identical_across_shards(
        trees in vec(tree_strategy(), 4..12),
        shards in 2usize..5,
    ) {
        let inputs: Vec<RequestInput> =
            trees.into_iter().map(RequestInput::Tree).collect();
        check_identity(Arc::new(TreeLstm::small()), &inputs, shards);
    }

    #[test]
    fn mixed_type_traffic_identical_with_affinity_placement(
        seqs in vec(vec(1u32..VOCAB, 1..10), 2..6),
        shards in 2usize..4,
    ) {
        // Mixed Sequence traffic through affinity + spill placement on
        // an LstmLm-only runtime: every request lands *somewhere* and
        // still computes the same bits.
        let inputs: Vec<RequestInput> =
            seqs.into_iter().map(RequestInput::Sequence).collect();
        check_identity(Arc::new(LstmLm::small()), &inputs, shards);
    }
}
