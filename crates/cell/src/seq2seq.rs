//! Seq2Seq encoder and decoder cells (§7.4, Figure 12).
//!
//! "A basic Seq2Seq model contains two types of RNN cells: encoder and
//! decoder. … In addition to the state, the decoder cell outputs a word
//! as well, which is obtained by applying a linear transformation and an
//! argmax. The output word is also fed to the next step as the input."
//!
//! Encoder and decoder do not share weights, so they are distinct cell
//! types and are batched separately (the paper gives decoders priority
//! over encoders, §4.3).

use bm_tensor::io::WeightBundle;
use bm_tensor::{ops, xavier_uniform, xavier_uniform_rows, Matrix, PackedWeights, Scratch};

use crate::lstm::{emit_states, gather_chain, LstmCore};
use crate::persist::{expect, expect_shape};
use crate::state::RowInvocation;

/// A Seq2Seq encoder step: embedding lookup followed by an LSTM step.
#[derive(Debug, Clone)]
pub struct EncoderCell {
    embed: Matrix,
    core: LstmCore,
}

impl EncoderCell {
    /// Creates a cell with seeded Xavier weights.
    pub fn seeded(embed_size: usize, hidden_size: usize, vocab: usize, seed: u64) -> Self {
        let embed = xavier_uniform(vocab, embed_size, seed ^ 0xe4c0_0001);
        let core = LstmCore::seeded(&embed, hidden_size, seed ^ 0xe4c0_0002);
        EncoderCell { embed, core }
    }

    /// Embedding width.
    pub fn embed_size(&self) -> usize {
        self.core.input_size
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.core.hidden_size
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.embed.rows()
    }

    /// Input tensor shapes per invocation.
    pub fn input_shapes(&self) -> Vec<(usize, usize)> {
        vec![
            (1, self.embed_size()),
            (1, self.hidden_size()),
            (1, self.hidden_size()),
        ]
    }

    /// The parameters, for identity checks.
    pub(crate) fn weights(&self) -> Vec<crate::Weight<'_>> {
        let mut w = vec![(&self.embed).into()];
        w.extend(self.core.weights());
        w
    }

    /// Gather executor; see [`crate::Cell::execute_rows_in`].
    pub fn execute_rows_in<F>(&self, inputs: &[RowInvocation<'_>], s: &mut Scratch, mut emit: F)
    where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        let (mut h, mut c) = gather_chain(self.core.hidden_size, inputs, s);
        let rows = inputs.len();
        self.core
            .step_rows(&self.embed, &mut h, &mut c, rows, |r| inputs[r].token(), s);
        emit_states(&h, &c, rows, &mut emit);
        s.put(h);
        s.put(c);
    }

    /// Resident-state row layout; identical to [`LstmCell`]'s
    /// (`h`-only rows, `c` in aux).
    ///
    /// [`LstmCell`]: crate::LstmCell
    pub fn resident_layout(&self) -> crate::state::ResidentLayout {
        self.core.resident_layout()
    }

    /// Resident-state executor; see [`LstmCell::step_resident`] — the
    /// encoder is the same fused chain step.
    ///
    /// [`LstmCell::step_resident`]: crate::LstmCell::step_resident
    pub fn step_resident<F>(
        &self,
        xh: &mut Matrix,
        aux: &mut Matrix,
        rows: usize,
        tokens: &[Option<u32>],
        s: &mut Scratch,
        mut emit: F,
    ) where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        self.core
            .step_rows(&self.embed, xh, aux, rows, |r| tokens[r], s);
        emit_states(xh, aux, rows, &mut emit);
    }

    /// Strips the cached token projection so tests can exercise the
    /// path a too-large vocabulary would take.
    #[cfg(test)]
    pub(crate) fn drop_token_proj_for_tests(&mut self) {
        self.core.drop_token_proj_for_tests();
    }

    /// Exports the cell's weights (§4.2 persistence).
    pub fn to_bundle(&self) -> WeightBundle {
        let mut b = WeightBundle::new();
        b.insert("embed", self.embed.clone());
        self.core.to_bundle(&mut b);
        b
    }

    /// Reconstructs the cell from saved weights, inferring shapes.
    pub fn from_bundle(bundle: &WeightBundle) -> Result<Self, String> {
        let embed = expect(bundle, "embed")?.clone();
        let core = LstmCore::from_bundle(bundle, &embed)?;
        Ok(EncoderCell { embed, core })
    }
}

/// A Seq2Seq "feed previous" decoder step.
///
/// Consumes the previously produced token (or `<go>` at the start) plus
/// the previous state; produces the next state *and* the next token via a
/// vocabulary projection and argmax. The projection dominates decode
/// cost — "the decoding phase constitutes about 75 % of the entire
/// computation due to performing the output projection from the hidden
/// dimension to the vocabulary dimension" (§7.4).
#[derive(Debug, Clone)]
pub struct DecoderCell {
    embed: Matrix,
    core: LstmCore,
    /// Output projection, `(hidden, vocab)`, packed: the only copy.
    proj_w: PackedWeights,
    proj_b: Matrix,
}

impl DecoderCell {
    /// Creates a cell with seeded Xavier weights.
    pub fn seeded(embed_size: usize, hidden_size: usize, vocab: usize, seed: u64) -> Self {
        let embed = xavier_uniform(vocab, embed_size, seed ^ 0xdec0_0001);
        let core = LstmCore::seeded(&embed, hidden_size, seed ^ 0xdec0_0002);
        let proj_w = xavier_uniform_rows(hidden_size, vocab, seed ^ 0xdec0_0003);
        DecoderCell {
            embed,
            core,
            proj_w: PackedWeights::pack_rows(hidden_size, vocab, proj_w),
            proj_b: Matrix::zeros(1, vocab),
        }
    }

    /// Embedding width.
    pub fn embed_size(&self) -> usize {
        self.core.input_size
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.core.hidden_size
    }

    /// Vocabulary size (projection output width).
    pub fn vocab_size(&self) -> usize {
        self.proj_w.n()
    }

    /// Input tensor shapes per invocation.
    pub fn input_shapes(&self) -> Vec<(usize, usize)> {
        vec![
            (1, self.embed_size()),
            (1, self.hidden_size()),
            (1, self.hidden_size()),
        ]
    }

    /// The parameters, for identity checks.
    pub(crate) fn weights(&self) -> Vec<crate::Weight<'_>> {
        let mut w = vec![(&self.embed).into()];
        w.extend(self.core.weights());
        w.push((&self.proj_w).into());
        w.push((&self.proj_b).into());
        w
    }

    /// Gather executor; see [`crate::Cell::execute_rows_in`]. Each
    /// emitted row carries the argmax-projected output word as its token.
    pub fn execute_rows_in<F>(&self, inputs: &[RowInvocation<'_>], s: &mut Scratch, emit: F)
    where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        let (mut h, mut c) = gather_chain(self.core.hidden_size, inputs, s);
        let rows = inputs.len();
        self.core
            .step_rows(&self.embed, &mut h, &mut c, rows, |r| inputs[r].token(), s);
        self.project(&h, &c, rows, s, emit);
        s.put(h);
        s.put(c);
    }

    /// Resident-state row layout; identical to [`LstmCell`]'s
    /// (`h`-only rows, `c` in aux).
    ///
    /// [`LstmCell`]: crate::LstmCell
    pub fn resident_layout(&self) -> crate::state::ResidentLayout {
        self.core.resident_layout()
    }

    /// Resident-state executor: the fused chain step updates `xh`/`aux`
    /// in place, then the vocabulary projection (which dominates decode
    /// cost, §7.4) runs straight over the occupied prefix of the
    /// `h`-only rows, so no state moves. Emits `(row, h, c, Some(word))`
    /// per row, bitwise identical to [`DecoderCell::execute_rows_in`]
    /// over equal state rows.
    pub fn step_resident<F>(
        &self,
        xh: &mut Matrix,
        aux: &mut Matrix,
        rows: usize,
        tokens: &[Option<u32>],
        s: &mut Scratch,
        emit: F,
    ) where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        self.core
            .step_rows(&self.embed, xh, aux, rows, |r| tokens[r], s);
        self.project(xh, aux, rows, s, emit);
    }

    /// Projects rows `0..rows` of the new hidden state onto the
    /// vocabulary and emits each row with its argmax word.
    fn project<F>(&self, h: &Matrix, c: &Matrix, rows: usize, s: &mut Scratch, mut emit: F)
    where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        let (hsz, vocab) = (self.core.hidden_size, self.vocab_size());
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

    /// Strips the cached token projection so tests can exercise the
    /// path a too-large vocabulary would take.
    #[cfg(test)]
    pub(crate) fn drop_token_proj_for_tests(&mut self) {
        self.core.drop_token_proj_for_tests();
    }

    /// Exports the cell's weights (§4.2 persistence).
    pub fn to_bundle(&self) -> WeightBundle {
        let mut b = WeightBundle::new();
        b.insert("embed", self.embed.clone());
        self.core.to_bundle(&mut b);
        b.insert("proj_w", self.proj_w.unpack());
        b.insert("proj_b", self.proj_b.clone());
        b
    }

    /// Reconstructs the cell from saved weights, inferring shapes.
    pub fn from_bundle(bundle: &WeightBundle) -> Result<Self, String> {
        let embed = expect(bundle, "embed")?.clone();
        let core = LstmCore::from_bundle(bundle, &embed)?;
        let (hidden, vocab) = (core.hidden_size, embed.rows());
        let proj_w = expect(bundle, "proj_w")?;
        expect_shape(proj_w, (hidden, vocab), "proj_w")?;
        let proj_b = expect(bundle, "proj_b")?;
        expect_shape(proj_b, (1, vocab), "proj_b")?;
        Ok(DecoderCell {
            embed,
            core,
            proj_w: PackedWeights::from(proj_w),
            proj_b: proj_b.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{CellState, StateRef};
    use crate::tests::Outputs;

    #[test]
    fn encoder_batched_equals_sequential() {
        let e = EncoderCell::seeded(4, 6, 15, 5);
        let a = e.outputs(&[RowInvocation::token_only(2)]);
        let b = e.outputs(&[RowInvocation::token_only(11)]);
        let both = e.outputs(&[RowInvocation::token_only(2), RowInvocation::token_only(11)]);
        assert_eq!(both[0], a[0]);
        assert_eq!(both[1], b[0]);
    }

    #[test]
    fn decoder_emits_token_in_vocab() {
        let d = DecoderCell::seeded(4, 6, 15, 6);
        let out = d.outputs(&[RowInvocation::token_only(0)]);
        let tok = out[0].token.expect("decoder must emit a token");
        assert!((tok as usize) < d.vocab_size());
    }

    #[test]
    fn decoder_feed_previous_loop_is_deterministic() {
        let d = DecoderCell::seeded(4, 8, 20, 7);
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
        // Same shapes, same seed — still different weights (namespaced
        // seeds) and different kinds.
        let e = crate::Cell::Encoder(EncoderCell::seeded(4, 6, 15, 9));
        let d = crate::Cell::Decoder(DecoderCell::seeded(4, 6, 15, 9));
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
        let d = DecoderCell::seeded(4, 6, 25, 13);
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
