//! Weight persistence round trips: the §4.2 startup flow ("BatchMaker
//! loads each cell's definition and its pre-trained weights from files")
//! must reproduce the original model bit-for-bit.

use std::sync::Arc;

use bm_cell::CellRegistry;
use bm_model::{
    reference, LstmLm, LstmLmConfig, Model, RequestInput, Seq2Seq, Seq2SeqConfig, TreeLstm,
    TreeLstmConfig, TreeShape,
};
use bm_tensor::io::WeightBundle;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("bm_model_persistence");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

#[test]
fn lstm_lm_round_trip() {
    let cfg = LstmLmConfig::default();
    let original = LstmLm::new(cfg);
    let path = tmp("lstm.bmt");
    original.save(&path).unwrap();
    let loaded = LstmLm::load(&path, cfg).unwrap();

    // Same cell type identity (weights bit-identical): the loaded cell
    // registers as the original's type.
    let mut reg = CellRegistry::new();
    let cell = |m: &LstmLm| Arc::clone(m.registry().cell(m.cell_type()));
    let id = reg.register("original", cell(&original), 0, 1, 8);
    assert_eq!(reg.register("loaded", cell(&loaded), 0, 1, 8), id);
    // Same inference results.
    let input = RequestInput::Sequence(vec![3, 5, 8, 13]);
    let a = reference::execute_graph(&original.unfold(&input), original.registry());
    let b = reference::execute_graph(&loaded.unfold(&input), loaded.registry());
    assert_eq!(a, b);
    std::fs::remove_file(&path).ok();
}

#[test]
fn seq2seq_round_trip_preserves_decoded_tokens() {
    let cfg = Seq2SeqConfig::default();
    let original = Seq2Seq::new(cfg);
    let path = tmp("seq2seq.bmt");
    original.save(&path).unwrap();
    let loaded = Seq2Seq::load(&path, cfg).unwrap();

    let input = RequestInput::Pair {
        src: vec![7, 9, 11],
        decode_len: 5,
    };
    let a = reference::execute_graph(&original.unfold(&input), original.registry());
    let b = reference::execute_graph(&loaded.unfold(&input), loaded.registry());
    assert_eq!(a.decoded_tokens(), b.decoded_tokens());
    assert_eq!(a, b);
    std::fs::remove_file(&path).ok();
}

#[test]
fn treelstm_round_trip() {
    let cfg = TreeLstmConfig::default();
    let original = TreeLstm::new(cfg);
    let path = tmp("tree.bmt");
    original.save(&path).unwrap();
    let loaded = TreeLstm::load(&path, cfg).unwrap();

    let input = RequestInput::Tree(TreeShape::complete(8, 100));
    let a = reference::execute_graph(&original.unfold(&input), original.registry());
    let b = reference::execute_graph(&loaded.unfold(&input), loaded.registry());
    assert_eq!(a, b);
    std::fs::remove_file(&path).ok();
}

/// The weights `save` writes, read back.
fn saved(name: &str, save: impl FnOnce(&std::path::Path) -> Result<(), String>) -> WeightBundle {
    let path = tmp(name);
    save(&path).unwrap();
    let bundle = WeightBundle::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bundle
}

/// Saves a file whose section `first` is the one `a` writes and whose
/// section `second` is the one `b` writes.
fn spliced(
    name: &str,
    [first, second]: [&str; 2],
    a: impl FnOnce(&std::path::Path) -> Result<(), String>,
    b: impl FnOnce(&std::path::Path) -> Result<(), String>,
) -> std::path::PathBuf {
    let mut file = WeightBundle::new();
    file.merge_prefixed(first, &saved(&format!("{name}.a"), a).sub_bundle(first));
    file.merge_prefixed(second, &saved(&format!("{name}.b"), b).sub_bundle(second));
    let path = tmp(name);
    file.save(&path).unwrap();
    path
}

#[test]
fn seq2seq_load_rejects_encoder_and_decoder_of_different_widths() {
    // Serving it would panic on the first decoder step, which takes the
    // encoder's final state.
    let cfg = Seq2SeqConfig::default();
    let wide = Seq2Seq::new(Seq2SeqConfig {
        hidden_size: cfg.hidden_size + 8,
        ..cfg
    });
    let path = spliced(
        "s2s_widths.bmt",
        ["encoder", "decoder"],
        |p| wide.save(p),
        |p| Seq2Seq::new(cfg).save(p),
    );
    let err = Seq2Seq::load(&path, cfg).unwrap_err();
    assert!(err.contains("hidden width"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn seq2seq_validates_source_tokens_against_the_encoder_vocabulary() {
    // Source tokens index the encoder's embedding, whatever the decoder's
    // vocabulary: a token past the encoder's must be refused, not panic
    // the serving thread.
    let cfg = Seq2SeqConfig::default();
    let small = Seq2Seq::new(Seq2SeqConfig { vocab: 10, ..cfg });
    let big = Seq2Seq::new(Seq2SeqConfig { vocab: 20, ..cfg });
    let path = spliced(
        "s2s_vocab.bmt",
        ["encoder", "decoder"],
        |p| small.save(p),
        |p| big.save(p),
    );
    let loaded = Seq2Seq::load(&path, cfg).unwrap();
    let pair = |t| RequestInput::Pair {
        src: vec![t],
        decode_len: 1,
    };
    assert!(loaded.validate(&pair(9)).is_ok());
    assert!(loaded.validate(&pair(15)).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn treelstm_load_rejects_leaf_and_internal_of_different_widths() {
    // Serving it would panic on the first internal cell, which takes its
    // children's states.
    let cfg = TreeLstmConfig::default();
    let wide = TreeLstm::new(TreeLstmConfig {
        hidden_size: cfg.hidden_size + 8,
        ..cfg
    });
    let path = spliced(
        "tree_widths.bmt",
        ["leaf", "internal"],
        |p| wide.save(p),
        |p| TreeLstm::new(cfg).save(p),
    );
    let err = TreeLstm::load(&path, cfg).unwrap_err();
    assert!(err.contains("hidden width"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn load_rejects_corrupt_and_missing_weights() {
    let path = tmp("bad.bmt");
    std::fs::write(&path, b"not a bundle").unwrap();
    assert!(LstmLm::load(&path, LstmLmConfig::default()).is_err());

    // A bundle missing required entries is rejected with a clear error.
    let empty = bm_tensor::io::WeightBundle::new();
    let path2 = tmp("empty.bmt");
    empty.save(&path2).unwrap();
    let err = LstmLm::load(&path2, LstmLmConfig::default()).unwrap_err();
    assert!(err.contains("missing"), "{err}");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path2).ok();
}

#[test]
fn loaded_model_serves_through_runtime() {
    // End-to-end: save, load, serve under the threaded runtime, compare
    // to the original model's reference execution.
    use bm_core::{Runtime, RuntimeOptions};
    use std::sync::Arc;

    let cfg = LstmLmConfig::default();
    let original = LstmLm::new(cfg);
    let path = tmp("served.bmt");
    original.save(&path).unwrap();
    let loaded = Arc::new(LstmLm::load(&path, cfg).unwrap());

    let rt = Runtime::start(Arc::clone(&loaded) as Arc<dyn Model>, RuntimeOptions::new());
    let input = RequestInput::Sequence(vec![1, 2, 3, 4, 5]);
    let served = rt
        .submit_request(&input)
        .expect("submit")
        .wait()
        .completed();
    let expect = reference::execute_graph(&original.unfold(&input), original.registry());
    assert_eq!(served.result, expect);
    rt.shutdown();
    std::fs::remove_file(&path).ok();
}

/// FNV-1a over a file's bytes: enough to notice any change to a bundle.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The bundle bytes `save` writes for a model, and their digest.
fn saved_digest(name: &str, save: impl FnOnce(&std::path::Path) -> Result<(), String>) -> u64 {
    let path = tmp(name);
    save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    digest(&bytes)
}

#[test]
fn benchmark_config_bundles_keep_their_bytes() {
    // The models the benchmark serves, at its configurations. Cells keep
    // their weights in whatever form steps read them; what they write
    // to disk must not move by a bit.
    let lstm = LstmLm::new(LstmLmConfig {
        embed_size: 256,
        hidden_size: 256,
        vocab: 1000,
        max_batch: 64,
        ..LstmLmConfig::default()
    });
    let seq2seq = Seq2Seq::new(Seq2SeqConfig {
        embed_size: 256,
        hidden_size: 256,
        vocab: 1000,
        encoder_max_batch: 64,
        decoder_max_batch: 64,
        ..Seq2SeqConfig::default()
    });
    let tree = TreeLstm::new(TreeLstmConfig {
        embed_size: 256,
        hidden_size: 256,
        vocab: 1000,
        max_batch: 64,
        ..TreeLstmConfig::default()
    });
    let got = [
        saved_digest("digest_lstm.bmt", |p| lstm.save(p)),
        saved_digest("digest_seq2seq.bmt", |p| seq2seq.save(p)),
        saved_digest("digest_tree.bmt", |p| tree.save(p)),
    ];
    // Recorded from the row-major weights cells held before they kept
    // only packed panels.
    assert_eq!(
        got,
        [
            0x683c_488c_53ab_f41c,
            0xf66a_2ca9_9ac4_fa7f,
            0xf815_29f4_e96d_da60
        ],
        "bundle digests {got:#018x?}"
    );
}
