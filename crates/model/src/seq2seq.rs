//! Sequence-to-sequence translation model (paper §7.4, Figure 12).
//!
//! Two cell types: encoder (an LSTM cell) and decoder, with separate
//! weights. The encoder chain consumes the source tokens; the first
//! decoder step takes the final encoder state and the `<go>` token; each
//! subsequent decoder step consumes the token produced by its
//! predecessor ("feed previous").

use bm_cell::{Cell, CellRegistry, CellTypeId, DecoderCell, LstmCell};

use crate::graph::{CellGraph, TokenSource};
use crate::{Model, RequestInput, EOS_TOKEN, GO_TOKEN};

/// Configuration of a [`Seq2Seq`] model.
#[derive(Debug, Clone, Copy)]
pub struct Seq2SeqConfig {
    /// Embedding width.
    pub embed_size: usize,
    /// Hidden state width (1024 in the paper).
    pub hidden_size: usize,
    /// Vocabulary size (30k in the paper).
    pub vocab: usize,
    /// Weight seed.
    pub seed: u64,
    /// Maximum batch size for encoder cells (512 or 256 in §7.4).
    pub encoder_max_batch: usize,
    /// Maximum batch size for decoder cells (256 in §7.4).
    pub decoder_max_batch: usize,
    /// Minimum non-head batch size for both cell types.
    pub min_batch: usize,
    /// If true, decoder nodes terminate the request early on `<eos>`
    /// (extension; the paper's experiments use fixed decode lengths).
    pub eos_terminates: bool,
    /// Whether decoder cells get scheduling priority over encoder cells
    /// (§4.3). On by default; turning it off gives the *encoder* the
    /// higher priority, so the ablation measures the cost of inverting
    /// the paper's later-cells-first rule.
    pub decoder_priority: bool,
}

impl Default for Seq2SeqConfig {
    fn default() -> Self {
        Seq2SeqConfig {
            embed_size: 64,
            hidden_size: 64,
            vocab: 500,
            seed: 0x5e25,
            encoder_max_batch: 512,
            decoder_max_batch: 256,
            min_batch: 1,
            eos_terminates: false,
            decoder_priority: true,
        }
    }
}

/// The Seq2Seq model.
#[derive(Debug)]
pub struct Seq2Seq {
    registry: CellRegistry,
    encoder: CellTypeId,
    decoder: CellTypeId,
    /// The source vocabulary: the encoder's embedding rows.
    vocab: usize,
    eos_terminates: bool,
}

impl Seq2Seq {
    /// Builds the model, registering encoder and decoder cell types.
    ///
    /// The decoder gets the higher scheduling priority: "in Seq2Seq
    /// models, decoder nodes should have priority over encoder nodes"
    /// (§4.3).
    pub fn new(cfg: Seq2SeqConfig) -> Self {
        let (e, h, v, seed) = (cfg.embed_size, cfg.hidden_size, cfg.vocab, cfg.seed);
        let encoder = LstmCell::from_seeds(e, h, v, seed ^ 0xe4c0_0001, seed ^ 0xe4c0_0002);
        Self::with_cells(encoder, DecoderCell::seeded(e, h, v, seed), cfg)
    }

    /// Registers the two cells, with the batching and priority
    /// parameters of `cfg`.
    fn with_cells(encoder: LstmCell, decoder: DecoderCell, cfg: Seq2SeqConfig) -> Self {
        let vocab = encoder.vocab_size();
        let mut registry = CellRegistry::new();
        let encoder = registry.register(
            "encoder",
            Cell::Lstm(encoder),
            if cfg.decoder_priority { 0 } else { 1 },
            cfg.min_batch,
            cfg.encoder_max_batch,
        );
        let decoder = registry.register(
            "decoder",
            Cell::Decoder(decoder),
            if cfg.decoder_priority { 1 } else { 0 },
            cfg.min_batch,
            cfg.decoder_max_batch,
        );
        Seq2Seq {
            registry,
            encoder,
            decoder,
            vocab,
            eos_terminates: cfg.eos_terminates,
        }
    }

    /// Builds the model with default (test-sized) configuration.
    pub fn small() -> Self {
        Self::new(Seq2SeqConfig::default())
    }

    /// The encoder cell type.
    pub fn encoder_type(&self) -> CellTypeId {
        self.encoder
    }

    /// The decoder cell type.
    pub fn decoder_type(&self) -> CellTypeId {
        self.decoder
    }

    /// Saves both cells' weights to one file, name-prefixed (§4.2).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        let mut packed = bm_tensor::io::WeightBundle::new();
        packed.merge_prefixed("encoder", &self.registry.cell(self.encoder).to_bundle());
        packed.merge_prefixed("decoder", &self.registry.cell(self.decoder).to_bundle());
        packed.save(path).map_err(|e| e.to_string())
    }

    /// Loads a model from saved weights; shapes are inferred from the
    /// file, batching/priority parameters come from `cfg` (its size/seed
    /// fields are ignored).
    ///
    /// Fails if the file's encoder and decoder have different hidden
    /// widths: the first decoder step takes the encoder's final state.
    pub fn load(path: impl AsRef<std::path::Path>, cfg: Seq2SeqConfig) -> Result<Self, String> {
        let packed = bm_tensor::io::WeightBundle::load(path).map_err(|e| e.to_string())?;
        let encoder = LstmCell::from_bundle(&packed.sub_bundle("encoder"))?;
        let decoder = DecoderCell::from_bundle(&packed.sub_bundle("decoder"))?;
        let (enc_hidden, dec_hidden) = (encoder.hidden_size(), decoder.hidden_size());
        if enc_hidden != dec_hidden {
            return Err(format!(
                "encoder hidden width {enc_hidden} differs from decoder hidden width {dec_hidden}"
            ));
        }
        Ok(Self::with_cells(encoder, decoder, cfg))
    }
}

impl Model for Seq2Seq {
    fn registry(&self) -> &CellRegistry {
        &self.registry
    }

    fn unfold(&self, input: &RequestInput) -> CellGraph {
        let RequestInput::Pair { src, decode_len } = input else {
            panic!("Seq2Seq expects RequestInput::Pair");
        };
        assert!(!src.is_empty(), "empty source sequence");
        assert!(*decode_len > 0, "zero decode length");
        let mut g = CellGraph::with_capacity(src.len() + *decode_len);
        let mut prev = None;
        for &t in src {
            prev = Some(g.add_node(self.encoder, prev.as_slice(), TokenSource::Fixed(t)));
        }
        let enc_last = prev.expect("nonempty encoder chain");
        // First decoder step: final encoder state + <go>.
        let mut dec_prev = g.add_node(self.decoder, &[enc_last], TokenSource::Fixed(GO_TOKEN));
        if self.eos_terminates {
            g.set_eos(dec_prev, EOS_TOKEN);
        }
        for _ in 1..*decode_len {
            let n = g.add_node(self.decoder, &[dec_prev], TokenSource::FromDep(0));
            if self.eos_terminates {
                g.set_eos(n, EOS_TOKEN);
            }
            dec_prev = n;
        }
        g
    }

    fn validate(&self, input: &RequestInput) -> Result<(), String> {
        match input {
            RequestInput::Pair { src, decode_len } => {
                if src.is_empty() {
                    return Err("empty source sequence".into());
                }
                if *decode_len == 0 {
                    return Err("zero decode length".into());
                }
                let vocab = self.vocab as u32;
                if let Some(&bad) = src.iter().find(|&&t| t >= vocab) {
                    return Err(format!("token {bad} out of vocabulary ({vocab})"));
                }
                Ok(())
            }
            other => Err(format!("Seq2Seq cannot serve {other:?}")),
        }
    }

    fn name(&self) -> &str {
        "seq2seq"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn unfolds_encoder_then_decoder() {
        let m = Seq2Seq::small();
        let g = m.unfold(&RequestInput::Pair {
            src: vec![2, 3, 4],
            decode_len: 2,
        });
        g.validate(m.registry()).unwrap();
        assert_eq!(g.len(), 5);
        let hist = g.type_histogram(m.registry().len());
        assert_eq!(hist[m.encoder_type().index()], 3);
        assert_eq!(hist[m.decoder_type().index()], 2);
        // The whole graph is one dependency chain.
        assert_eq!(g.critical_path_len(), 5);
        // First decoder consumes <go>; later ones feed-previous.
        assert_eq!(g.node(NodeId(3)).token, TokenSource::Fixed(GO_TOKEN));
        assert_eq!(g.node(NodeId(4)).token, TokenSource::FromDep(0));
    }

    #[test]
    fn decoder_priority_above_encoder() {
        let m = Seq2Seq::small();
        let reg = m.registry();
        assert!(reg.meta(m.decoder_type()).priority > reg.meta(m.encoder_type()).priority);
    }

    #[test]
    fn eos_flag_set_when_configured() {
        let m = Seq2Seq::new(Seq2SeqConfig {
            eos_terminates: true,
            ..Seq2SeqConfig::default()
        });
        let g = m.unfold(&RequestInput::Pair {
            src: vec![2],
            decode_len: 3,
        });
        for (_, n) in g.iter().skip(1) {
            assert_eq!(n.eos, Some(EOS_TOKEN));
        }
    }

    #[test]
    fn validate_rejects_malformed() {
        let m = Seq2Seq::small();
        assert!(m
            .validate(&RequestInput::Pair {
                src: vec![],
                decode_len: 1
            })
            .is_err());
        assert!(m
            .validate(&RequestInput::Pair {
                src: vec![1],
                decode_len: 0
            })
            .is_err());
        assert!(m.validate(&RequestInput::Sequence(vec![1])).is_err());
        assert!(m
            .validate(&RequestInput::Pair {
                src: vec![1, 2],
                decode_len: 2
            })
            .is_ok());
    }
}
