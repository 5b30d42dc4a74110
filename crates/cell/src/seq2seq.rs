//! The Seq2Seq decoder cell (§7.4, Figure 12).
//!
//! "A basic Seq2Seq model contains two types of RNN cells: encoder and
//! decoder. … In addition to the state, the decoder cell outputs a word
//! as well, which is obtained by applying a linear transformation and an
//! argmax. The output word is also fed to the next step as the input."
//!
//! The encoder is an [`LstmCell`] with its own weights; the decoder is
//! an [`LstmCell`] plus the projection. Encoder and decoder do not share
//! weights, so they are distinct cell types and are batched separately
//! (the paper gives decoders priority over encoders, §4.3).

use bm_tensor::io::WeightBundle;
use bm_tensor::{ops, xavier_uniform_rows, Matrix, PackedWeights, Scratch};

use crate::persist::{expect, expect_shape};
use crate::LstmCell;

/// A Seq2Seq "feed previous" decoder step: an LSTM step followed by a
/// vocabulary projection and argmax.
///
/// Consumes the previously produced token (or `<go>` at the start) plus
/// the previous state; produces the next state *and* the next token via a
/// vocabulary projection and argmax. The projection dominates decode
/// cost — "the decoding phase constitutes about 75 % of the entire
/// computation due to performing the output projection from the hidden
/// dimension to the vocabulary dimension" (§7.4).
#[derive(Debug)]
pub struct DecoderCell {
    lstm: LstmCell,
    /// Output projection, `(hidden, vocab)`, packed: the only copy.
    proj_w: PackedWeights,
    proj_b: Matrix,
}

impl DecoderCell {
    /// Creates a cell with seeded Xavier weights.
    pub fn seeded(embed_size: usize, hidden_size: usize, vocab: usize, seed: u64) -> Self {
        let lstm = LstmCell::from_seeds(
            embed_size,
            hidden_size,
            vocab,
            seed ^ 0xdec0_0001,
            seed ^ 0xdec0_0002,
        );
        let proj_w = xavier_uniform_rows(hidden_size, vocab, seed ^ 0xdec0_0003);
        DecoderCell {
            lstm,
            proj_w: PackedWeights::pack_rows(hidden_size, vocab, proj_w),
            proj_b: Matrix::zeros(1, vocab),
        }
    }

    /// Embedding width.
    pub fn embed_size(&self) -> usize {
        self.lstm.embed_size()
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.lstm.hidden_size()
    }

    /// Vocabulary size (projection output width).
    pub fn vocab_size(&self) -> usize {
        self.proj_w.n()
    }

    /// Input tensor shapes per invocation.
    pub fn input_shapes(&self) -> Vec<(usize, usize)> {
        self.lstm.input_shapes()
    }

    /// The parameters, for identity checks.
    pub(crate) fn weights(&self) -> Vec<crate::Weight<'_>> {
        let mut w = self.lstm.weights();
        w.push((&self.proj_w).into());
        w.push((&self.proj_b).into());
        w
    }

    /// The LSTM's [`LstmCell::prefill`].
    pub(crate) fn prefill(&self, tokens: impl Iterator<Item = u32> + Clone, s: &mut Scratch) {
        self.lstm.prefill(tokens, s);
    }

    /// The LSTM step over rows `0..rows` of `h` and `c`, then the
    /// vocabulary projection straight over the new `h` rows, so no state
    /// moves: emits `(row, h, c, Some(word))` per row in batch order,
    /// `word` the argmax of the row's logits.
    pub(crate) fn step<F>(
        &self,
        h: &mut Matrix,
        c: &mut Matrix,
        rows: usize,
        token: impl Fn(usize) -> Option<u32>,
        s: &mut Scratch,
        mut emit: F,
    ) where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        self.lstm.step_rows(h, c, rows, token, s);
        let (hsz, vocab) = (self.hidden_size(), self.vocab_size());
        // Fully overwritten by the affine.
        let mut logits = s.take_dirty(rows, vocab);
        let pool = ops::auto_pool(rows, hsz, vocab);
        ops::affine_rows_into(h, rows, &self.proj_w, &self.proj_b, &mut logits, pool);
        for r in 0..rows {
            let word = ops::argmax_row(logits.row(r)) as u32;
            emit(r, h.row(r), c.row(r), Some(word));
        }
        s.put(logits);
    }

    /// Exports the cell's weights (§4.2 persistence).
    pub fn to_bundle(&self) -> WeightBundle {
        let mut b = self.lstm.to_bundle();
        b.insert("proj_w", self.proj_w.unpack());
        b.insert("proj_b", self.proj_b.clone());
        b
    }

    /// Reconstructs the cell from saved weights, inferring shapes.
    pub fn from_bundle(bundle: &WeightBundle) -> Result<Self, String> {
        let lstm = LstmCell::from_bundle(bundle)?;
        let (hidden, vocab) = (lstm.hidden_size(), lstm.vocab_size());
        let proj_w = expect(bundle, "proj_w")?;
        expect_shape(proj_w, (hidden, vocab), "proj_w")?;
        let proj_b = expect(bundle, "proj_b")?;
        expect_shape(proj_b, (1, vocab), "proj_b")?;
        Ok(DecoderCell {
            lstm,
            proj_w: PackedWeights::from(proj_w),
            proj_b: proj_b.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{CellState, RowInvocation, StateRef};
    use crate::tests::Outputs;
    use crate::Cell;

    #[test]
    fn decoder_table_rows_filled_together_are_one_row_products() {
        let d = DecoderCell::seeded(24, 20, 67, 5);
        crate::lstm::assert_fills_are_row_products(&d.lstm);
    }

    #[test]
    fn decoder_emits_token_in_vocab() {
        let d = Cell::Decoder(DecoderCell::seeded(4, 6, 15, 6));
        let out = d.outputs(&[RowInvocation::token_only(0)]);
        let tok = out[0].token.expect("decoder must emit a token");
        assert!(tok < 15);
    }

    #[test]
    fn decoder_feed_previous_loop_is_deterministic() {
        let d = Cell::Decoder(DecoderCell::seeded(4, 8, 20, 7));
        let run = |steps: usize| {
            let mut tokens = Vec::new();
            let mut state = CellState::zeros(8);
            let mut tok = 0u32; // <go>
            for _ in 0..steps {
                let out = d.outputs(&[RowInvocation::chain(tok, StateRef::of(&state))]);
                let o = out.into_iter().next().unwrap();
                tok = o.token.unwrap();
                state = o.state;
                tokens.push(tok);
            }
            tokens
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn encoder_and_decoder_have_distinct_signatures() {
        // The encoder is an LSTM cell. Same shapes, same seed — still
        // different weights (namespaced seeds) and different kinds.
        let e = Cell::Lstm(LstmCell::seeded(4, 6, 15, 9));
        let d = Cell::Decoder(DecoderCell::seeded(4, 6, 15, 9));
        assert_ne!(e.signature(), d.signature());
        assert!(!e.same_type(&d));
        // The embedding and both halves of `W` differ: the seeds are
        // namespaced per kind.
        for (a, b) in e.weights().into_iter().zip(d.weights()).take(3) {
            assert!(!a.bits_eq(b));
        }
    }

    #[test]
    fn decoder_batched_equals_sequential_including_tokens() {
        let d = Cell::Decoder(DecoderCell::seeded(4, 6, 25, 13));
        let s1 = CellState::zeros(6);
        let s2 = {
            let out = d.outputs(&[RowInvocation::token_only(3)]);
            out.into_iter().next().unwrap().state
        };
        let a = d.outputs(&[RowInvocation::chain(1, StateRef::of(&s1))]);
        let b = d.outputs(&[RowInvocation::chain(2, StateRef::of(&s2))]);
        let both = d.outputs(&[
            RowInvocation::chain(1, StateRef::of(&s1)),
            RowInvocation::chain(2, StateRef::of(&s2)),
        ]);
        assert_eq!(both[0], a[0]);
        assert_eq!(both[1], b[0]);
    }
}
