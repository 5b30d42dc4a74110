//! The chain-structured LSTM language model (paper §2.1 Figure 1, §7.2).
//!
//! Each request is a token sequence; the unfolded graph is a single chain
//! of LSTM cells, all of one type. The output is the final hidden state
//! (from which "the most likely next word" would be derived).

use bm_cell::{Cell, CellRegistry, CellTypeId, LstmCell};

use crate::graph::{CellGraph, TokenSource};
use crate::{Model, RequestInput};

/// Configuration of an [`LstmLm`].
#[derive(Debug, Clone, Copy)]
pub struct LstmLmConfig {
    /// Embedding width.
    pub embed_size: usize,
    /// Hidden state width (1024 in the paper).
    pub hidden_size: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Weight seed.
    pub seed: u64,
    /// Desired maximum batch size for the LSTM cell (512 in Figure 7a).
    pub max_batch: usize,
    /// Minimum non-head batch size (`Bsizes.Min()`).
    pub min_batch: usize,
}

impl Default for LstmLmConfig {
    fn default() -> Self {
        LstmLmConfig {
            embed_size: 64,
            hidden_size: 64,
            vocab: 1000,
            seed: 0x15f1,
            max_batch: 512,
            min_batch: 1,
        }
    }
}

/// The LSTM language model.
#[derive(Debug)]
pub struct LstmLm {
    registry: CellRegistry,
    cell_type: CellTypeId,
}

impl LstmLm {
    /// Builds the model, registering its single cell type.
    pub fn new(cfg: LstmLmConfig) -> Self {
        let mut registry = CellRegistry::new();
        let cell = Cell::Lstm(LstmCell::seeded(
            cfg.embed_size,
            cfg.hidden_size,
            cfg.vocab,
            cfg.seed,
        ));
        let cell_type = registry.register("lstm", cell, 0, cfg.min_batch, cfg.max_batch);
        LstmLm {
            registry,
            cell_type,
        }
    }

    /// Builds the model with default (test-sized) configuration.
    pub fn small() -> Self {
        Self::new(LstmLmConfig::default())
    }

    /// The model's single cell type.
    pub fn cell_type(&self) -> CellTypeId {
        self.cell_type
    }

    /// Vocabulary size of the underlying cell.
    pub fn vocab(&self) -> usize {
        match self.registry.cell(self.cell_type).as_ref() {
            Cell::Lstm(c) => c.vocab_size(),
            _ => unreachable!("LstmLm registers an Lstm cell"),
        }
    }

    /// Saves the model's pre-trained weights to a file (§4.2).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        self.registry
            .cell(self.cell_type)
            .to_bundle()
            .save(path)
            .map_err(|e| e.to_string())
    }

    /// Loads a model from saved weights; shapes are inferred from the
    /// file, batching parameters come from `cfg` (its size/seed fields
    /// are ignored).
    pub fn load(path: impl AsRef<std::path::Path>, cfg: LstmLmConfig) -> Result<Self, String> {
        let bundle = bm_tensor::io::WeightBundle::load(path).map_err(|e| e.to_string())?;
        let cell = Cell::from_bundle("lstm", &bundle)?;
        let mut registry = CellRegistry::new();
        let cell_type = registry.register("lstm", cell, 0, cfg.min_batch, cfg.max_batch);
        Ok(LstmLm {
            registry,
            cell_type,
        })
    }
}

impl Model for LstmLm {
    fn registry(&self) -> &CellRegistry {
        &self.registry
    }

    fn unfold(&self, input: &RequestInput) -> CellGraph {
        let RequestInput::Sequence(tokens) = input else {
            panic!("LstmLm expects RequestInput::Sequence");
        };
        assert!(!tokens.is_empty(), "empty sequence");
        let mut g = CellGraph::with_capacity(tokens.len());
        let mut prev = None;
        for &t in tokens {
            prev = Some(g.add_node(self.cell_type, prev.as_slice(), TokenSource::Fixed(t)));
        }
        g
    }

    fn validate(&self, input: &RequestInput) -> Result<(), String> {
        match input {
            RequestInput::Sequence(tokens) => {
                if tokens.is_empty() {
                    return Err("empty sequence".into());
                }
                let vocab = self.vocab() as u32;
                if let Some(&bad) = tokens.iter().find(|&&t| t >= vocab) {
                    return Err(format!("token {bad} out of vocabulary ({vocab})"));
                }
                Ok(())
            }
            other => Err(format!("LstmLm cannot serve {other:?}")),
        }
    }

    fn name(&self) -> &str {
        "lstm-lm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfolds_to_chain() {
        let m = LstmLm::small();
        let g = m.unfold(&RequestInput::Sequence(vec![1, 2, 3, 4]));
        g.validate(m.registry()).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.critical_path_len(), 4);
        assert_eq!(g.sinks().len(), 1);
        // Every node is the single lstm type.
        assert!(g.nodes().iter().all(|n| n.cell_type == m.cell_type()));
    }

    #[test]
    fn validate_rejects_bad_inputs() {
        let m = LstmLm::small();
        assert!(m.validate(&RequestInput::Sequence(vec![])).is_err());
        assert!(m.validate(&RequestInput::Sequence(vec![u32::MAX])).is_err());
        assert!(m
            .validate(&RequestInput::Pair {
                src: vec![1],
                decode_len: 1
            })
            .is_err());
        assert!(m.validate(&RequestInput::Sequence(vec![0, 1, 2])).is_ok());
    }

    #[test]
    fn single_token_sequence() {
        let m = LstmLm::small();
        let g = m.unfold(&RequestInput::Sequence(vec![7]));
        assert_eq!(g.len(), 1);
        assert!(g.node(crate::NodeId(0)).deps.is_empty());
    }
}
