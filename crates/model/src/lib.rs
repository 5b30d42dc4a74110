//! RNN models unfolded into cell graphs.
//!
//! A BatchMaker user provides "the definition of each cell … and a
//! user-defined function that unfolds each request/input into its
//! corresponding cell graph" (§4.1). This crate is that user code for the
//! paper's three applications:
//!
//! - [`LstmLm`] — the chain-structured LSTM benchmark (§7.2);
//! - [`Seq2Seq`] — encoder/decoder translation with feed-previous
//!   decoding (§7.4, Figure 12);
//! - [`TreeLstm`] — binary constituency TreeLSTM (§7.5, Figure 2).
//!
//! It also provides the [`graph::CellGraph`] representation those
//! unfolders produce, and [`reference::execute_graph`] — a trivially
//! correct, unbatched executor used as the oracle that the cellular
//! batching runtime must match bit-for-bit.

#![forbid(unsafe_code)]

pub mod graph;
mod lstm_lm;
pub mod reference;
mod seq2seq;
mod treelstm;

pub use graph::{CellGraph, Deps, GraphNode, NodeId, TokenSource};
pub use lstm_lm::{LstmLm, LstmLmConfig};
pub use seq2seq::{Seq2Seq, Seq2SeqConfig};
pub use treelstm::{TreeLstm, TreeLstmConfig, TreeNode, TreeShape};

use bm_cell::CellRegistry;

/// Token id conventionally used for the Seq2Seq `<go>` symbol.
pub const GO_TOKEN: u32 = 0;
/// Token id conventionally used for the Seq2Seq `<eos>` symbol.
pub const EOS_TOKEN: u32 = 1;

/// The input payload of one inference request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestInput {
    /// A token sequence (LSTM language model).
    Sequence(Vec<u32>),
    /// A translation pair: source tokens plus the number of decode steps.
    ///
    /// Following §7.4, "we decode for a number of steps equal to the
    /// corresponding English sequence length" — the decode length is part
    /// of the workload, but is never visible to batching or scheduling
    /// decisions.
    Pair {
        /// Source-language token ids.
        src: Vec<u32>,
        /// Number of decoder steps to run.
        decode_len: usize,
    },
    /// A binary parse tree with tokens at the leaves (TreeLSTM).
    Tree(TreeShape),
}

impl RequestInput {
    /// Total number of cell invocations this input unfolds into.
    pub fn cell_count(&self) -> usize {
        match self {
            RequestInput::Sequence(s) => s.len(),
            RequestInput::Pair { src, decode_len } => src.len() + decode_len,
            RequestInput::Tree(t) => t.node_count(),
        }
    }
}

/// A model: a set of registered cell types plus the unfolding function.
pub trait Model: Send + Sync {
    /// The registry holding this model's cell types.
    fn registry(&self) -> &CellRegistry;

    /// Unfolds a request into its cell graph.
    ///
    /// # Panics
    ///
    /// Implementations panic on inputs of the wrong variant or on empty
    /// inputs — malformed requests should be rejected beforehand via
    /// [`Model::validate`].
    fn unfold(&self, input: &RequestInput) -> CellGraph;

    /// Checks that an input is acceptable for this model.
    fn validate(&self, input: &RequestInput) -> Result<(), String>;

    /// Human-readable model name.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_count_per_variant() {
        assert_eq!(RequestInput::Sequence(vec![1, 2, 3]).cell_count(), 3);
        assert_eq!(
            RequestInput::Pair {
                src: vec![1, 2],
                decode_len: 4
            }
            .cell_count(),
            6
        );
        let t = TreeShape::leaf(5);
        assert_eq!(RequestInput::Tree(t).cell_count(), 1);
    }
}
