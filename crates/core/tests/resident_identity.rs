//! The resident-state plane must be invisible to results: the runtime,
//! which serves every cell that has a resident layout through it,
//! returns full per-node outputs bit-identical to the unbatched
//! reference executor (one cell at a time, no plane, no batch), across
//! `MaxTasksToSubmit` values × all model families. The plane may change *how* state reaches the cell — parked
//! rows, swaps, refetches — never *what* it computes.

use std::sync::{Arc, OnceLock};

use bm_core::{Request, Runtime, RuntimeOptions, SchedulerConfig, ServeConfig, ServedOutcome};
use bm_model::{
    reference, LstmLm, LstmLmConfig, Model, RequestInput, Seq2Seq, Seq2SeqConfig, TreeLstm,
    TreeShape,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Vocabulary bound of `LstmLm::small()`.
const VOCAB: u32 = 900;

/// One shard, so every request shares one resident plane.
fn opts(max_tasks: usize) -> RuntimeOptions {
    RuntimeOptions::new()
        .scheduler(SchedulerConfig::new().max_tasks_to_submit(max_tasks))
        .serve_config(ServeConfig::new().shards(1))
}

/// Serves every input and returns the full per-node outputs (states and
/// tokens) in submission order.
fn outputs_of(rt: &Runtime, inputs: &[RequestInput]) -> Vec<Vec<Option<bm_cell::CellOutput>>> {
    let handles: Vec<_> = inputs
        .iter()
        .map(|i| rt.submit_request(Request::from(i)).expect("submit"))
        .collect();
    handles
        .into_iter()
        .map(|h| match h.wait() {
            ServedOutcome::Completed(res) => res.result.outputs,
            other => panic!("request did not complete: {other:?}"),
        })
        .collect()
}

fn check_identity(model: Arc<dyn Model>, inputs: &[RequestInput], max_tasks: usize) {
    let want: Vec<_> = inputs
        .iter()
        .map(|i| reference::execute_graph(&model.unfold(i), model.registry()).outputs)
        .collect();

    let rt = Runtime::start(model, opts(max_tasks));
    let got = outputs_of(&rt, inputs);
    rt.shutdown();

    // PartialEq on CellOutput compares every f32 exactly: any
    // accumulation-order or state-placement difference from the
    // reference would fail here.
    assert_eq!(want, got, "served outputs diverged (max_tasks {max_tasks})");
}

/// Hidden width and vocabulary of the capped-table models: a cached
/// token projection would hold `vocab · 4 · hidden` = 4 352 000 floats,
/// above the cells' cap of `1 << 22`, so their chain cells seed each
/// step with `x·Wx` over the embedded tokens instead of a table row.
const CAPPED_HIDDEN: usize = 64;
const CAPPED_VOCAB: usize = 17_000;
const _: () = assert!(CAPPED_VOCAB * 4 * CAPPED_HIDDEN > 1 << 22);

/// Asserts that every cell of `model` that has a resident layout steps
/// on `h`-only rows at the capped width. Rows look the same with or
/// without the token table; the constants above put the table over the
/// cap.
fn assert_capped(model: &dyn Model) {
    for meta in model.registry().iter() {
        if let Some(layout) = meta.cell.resident_layout() {
            assert_eq!(
                layout.xh_width(),
                CAPPED_HIDDEN,
                "{} rows hold more than h",
                meta.name
            );
        }
    }
}

/// An `LstmLm` whose token table is over the cap, built once.
fn capped_lstm() -> Arc<LstmLm> {
    static MODEL: OnceLock<Arc<LstmLm>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let model = LstmLm::new(LstmLmConfig {
            embed_size: CAPPED_HIDDEN,
            hidden_size: CAPPED_HIDDEN,
            vocab: CAPPED_VOCAB,
            ..LstmLmConfig::default()
        });
        assert_capped(&model);
        Arc::new(model)
    }))
}

/// A `Seq2Seq` whose token tables are over the cap, built once.
fn capped_seq2seq() -> Arc<Seq2Seq> {
    static MODEL: OnceLock<Arc<Seq2Seq>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let model = Seq2Seq::new(Seq2SeqConfig {
            embed_size: CAPPED_HIDDEN,
            hidden_size: CAPPED_HIDDEN,
            vocab: CAPPED_VOCAB,
            ..Seq2SeqConfig::default()
        });
        assert_capped(&model);
        Arc::new(model)
    }))
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
    fn lstm_outputs_identical_with_resident_plane(
        seqs in vec(vec(1u32..VOCAB, 1..12), 4..16),
        max_tasks in 1usize..7,
    ) {
        let inputs: Vec<RequestInput> =
            seqs.into_iter().map(RequestInput::Sequence).collect();
        check_identity(Arc::new(LstmLm::small()), &inputs, max_tasks);
    }

    #[test]
    fn seq2seq_outputs_identical_with_resident_plane(
        // Seq2Seq::small has a 500-token vocabulary; 2.. reserves the
        // <go>/<eos> ids.
        pairs in vec((vec(2u32..490, 1..10), 1usize..8), 4..12),
        max_tasks in 1usize..7,
    ) {
        let inputs: Vec<RequestInput> = pairs
            .into_iter()
            .map(|(src, decode_len)| RequestInput::Pair { src, decode_len })
            .collect();
        check_identity(Arc::new(Seq2Seq::small()), &inputs, max_tasks);
    }

    #[test]
    fn tree_outputs_identical_with_resident_plane_enabled(
        // Tree cells have no resident layout: every step gathers.
        trees in vec(tree_strategy(), 4..10),
        max_tasks in 1usize..7,
    ) {
        let inputs: Vec<RequestInput> =
            trees.into_iter().map(RequestInput::Tree).collect();
        check_identity(Arc::new(TreeLstm::small()), &inputs, max_tasks);
    }
}

proptest! {
    // Fewer cases: a 17 000-word decoder projection per step is slow in
    // an unoptimised build.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn capped_lstm_outputs_identical_with_resident_plane(
        seqs in vec(vec(1u32..CAPPED_VOCAB as u32, 1..12), 4..16),
        max_tasks in 1usize..7,
    ) {
        let inputs: Vec<RequestInput> =
            seqs.into_iter().map(RequestInput::Sequence).collect();
        check_identity(capped_lstm(), &inputs, max_tasks);
    }

    #[test]
    fn capped_seq2seq_outputs_identical_with_resident_plane(
        pairs in vec((vec(2u32..CAPPED_VOCAB as u32, 1..10), 1usize..8), 4..12),
        max_tasks in 1usize..7,
    ) {
        let inputs: Vec<RequestInput> = pairs
            .into_iter()
            .map(|(src, decode_len)| RequestInput::Pair { src, decode_len })
            .collect();
        check_identity(capped_seq2seq(), &inputs, max_tasks);
    }
}
