//! LSTM cell: the paper's workhorse (Hochreiter & Schmidhuber, §2.1).
//!
//! The step computes, with `x` the embedded input and `(h, c)` the
//! previous state:
//!
//! ```text
//! z            = [x, h] · W + b          // (batch, 4h)
//! i, f, g, o   = split(z, 4)
//! c'           = sigmoid(f) * c + sigmoid(i) * tanh(g)
//! h'           = sigmoid(o) * tanh(c')
//! ```
//!
//! This matches the paper's microbenchmark configuration: "one
//! matrix-multiplication operation with input tensor shapes `b × 2h` and
//! `2h × 4h`" (§2.2, footnote 2) when the embedding width equals the
//! hidden width.

use bm_tensor::io::WeightBundle;
use bm_tensor::{gemm, ops, xavier_uniform, xavier_uniform_rows, Matrix, PackedWeights, Scratch};

use crate::persist::{expect, expect_shape};
use crate::state::RowInvocation;
use crate::table::TokenTable;

/// A plain LSTM cell with its own embedding table.
///
/// This is the cell type of the paper's "LSTM" application (a chain over
/// an input sentence) and of the Seq2Seq encoder, which differs from it
/// only in its weights; the Seq2Seq decoder is one with a vocabulary
/// projection on top ([`crate::DecoderCell`]).
///
/// The gate pre-activation `z = [x|h]·W + b` folds its inner dimension
/// in ascending order with the bias added once at the end, so it splits
/// exactly at the `x`/`h` boundary: `x·Wx` (no bias) is the first
/// `embed_size` terms of every output element's fold, and a
/// [`gemm::gemm_acc_into`] continuation over `h·Wh` (bias at the end)
/// adds the rest bit for bit. So `W` is held as its two row halves,
/// packed, and never whole: every step, gathered or resident, seeds `z`
/// with the input half and continues with the recurrent one.
#[derive(Debug)]
pub struct LstmCell {
    embed: Matrix,
    /// Rows `..embed_size` of the fused gate weights `W`, packed:
    /// `(embed, 4 * hidden)`.
    wx: PackedWeights,
    /// Rows `embed_size..` of `W`, packed: `(hidden, 4 * hidden)`.
    wh: PackedWeights,
    /// Fused gate bias, `(1, 4 * hidden)`.
    b: Matrix,
    /// `embed · Wx` by token: row `t` is the input half of token `t`'s
    /// fold, `4 * hidden` floats without the bias. A step pays one row
    /// copy per request instead of the `x`-half of the GEMM, which
    /// halves its multiplies when `embed == hidden`. `None` when the
    /// vocabulary is too large for a table. Its buffer is reserved here,
    /// by the thread that builds the cell, so a serving thread's first
    /// step allocates nothing large.
    table: Option<TokenTable>,
}

impl LstmCell {
    /// Creates a cell with seeded Xavier weights.
    pub fn seeded(embed_size: usize, hidden_size: usize, vocab: usize, seed: u64) -> Self {
        Self::from_seeds(embed_size, hidden_size, vocab, seed ^ 0x5eed_0001, seed)
    }

    /// Creates a cell with Xavier weights, the embedding drawn from
    /// `embed_seed` and `W` from `gate_seed`. `W` is packed as it is
    /// drawn: its rows come in order, the input half and then the
    /// recurrent one, and no row-major copy of it is ever made.
    pub fn from_seeds(
        embed_size: usize,
        hidden_size: usize,
        vocab: usize,
        embed_seed: u64,
        gate_seed: u64,
    ) -> Self {
        let embed = xavier_uniform(vocab, embed_size, embed_seed);
        let gates = 4 * hidden_size;
        let mut w = xavier_uniform_rows(embed_size + hidden_size, gates, gate_seed);
        let wx = PackedWeights::pack_rows(embed_size, gates, &mut w);
        let wh = PackedWeights::pack_rows(hidden_size, gates, &mut w);
        Self::from_parts(embed, wx, wh, Matrix::zeros(1, gates))
    }

    /// The cell over an embedding and the packed halves of `W`.
    fn from_parts(embed: Matrix, wx: PackedWeights, wh: PackedWeights, b: Matrix) -> Self {
        debug_assert_eq!((embed.cols(), wh.n()), (wx.k(), wx.n()));
        LstmCell {
            table: TokenTable::new(embed.rows(), wx.n()).map(TokenTable::reserved),
            embed,
            wx,
            wh,
            b,
        }
    }

    /// Embedding width.
    pub fn embed_size(&self) -> usize {
        self.wx.k()
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.wh.k()
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.embed.rows()
    }

    /// Input tensor shapes per invocation (token embedding row, h row, c row).
    pub fn input_shapes(&self) -> Vec<(usize, usize)> {
        vec![
            (1, self.embed_size()),
            (1, self.hidden_size()),
            (1, self.hidden_size()),
        ]
    }

    /// The parameters, for identity checks.
    pub(crate) fn weights(&self) -> Vec<crate::Weight<'_>> {
        vec![
            (&self.embed).into(),
            (&self.wx).into(),
            (&self.wh).into(),
            (&self.b).into(),
        ]
    }

    /// One fused LSTM step over rows `0..rows` of `h` and `c`, updating
    /// both in place; `token(r)` is row `r`'s input word.
    ///
    /// Each row's gate pre-activation is seeded with the input half of
    /// its fold — the token's row of the table (the rows it lacks
    /// computed here in one unpooled product, unless admission already
    /// prefilled them), or,
    /// without a table, one `x·Wx` product over the embedded tokens —
    /// and completed by one fold-continuation affine over `h·Wh`
    /// ([`ops::affine_acc_rows_into`]). One gate-kernel call
    /// ([`ops::lstm_gates_rows_inplace`]) then overwrites `h` and `c`.
    /// Bit for bit `[x|h]·W + b` followed by the gates (see
    /// [`LstmCell`]), and a function of each row alone.
    ///
    /// The gather path runs it on rows it copied into scratch, the
    /// resident path on the persistent batch where rows stay parked.
    ///
    /// # Panics
    ///
    /// Panics if a row has no token or its token is out of the
    /// vocabulary.
    pub(crate) fn step_rows(
        &self,
        h: &mut Matrix,
        c: &mut Matrix,
        rows: usize,
        token: impl Fn(usize) -> Option<u32>,
        s: &mut Scratch,
    ) {
        let (e, hsz) = (self.embed_size(), self.hidden_size());
        let gates = 4 * hsz;
        debug_assert_eq!((h.cols(), c.cols()), (hsz, hsz));
        let id = |r: usize| self.checked(token(r).expect("chain cell invocation requires a token"));
        // Fully overwritten by the seed, so dirty is fine.
        let mut z = s.take_dirty(rows, gates);
        match &self.table {
            Some(table) => table.rows(
                rows,
                id,
                |missing, rows| self.fill_input_rows(missing, rows, s),
                |r, row| z.row_mut(r).copy_from_slice(row),
            ),
            None => {
                let mut x = s.take_dirty(rows, e);
                for r in 0..rows {
                    x.row_mut(r).copy_from_slice(self.embed.row(id(r)));
                }
                let pool = ops::auto_pool(rows, e, gates);
                gemm::gemm_into(
                    x.as_slice(),
                    rows,
                    e,
                    &self.wx,
                    None,
                    z.as_mut_slice(),
                    pool,
                );
                s.put(x);
            }
        }
        let pool = ops::auto_pool(rows, hsz, gates);
        ops::affine_acc_rows_into(h, rows, &self.wh, &self.b, &mut z, pool);
        ops::lstm_gates_rows_inplace(&z, rows, h, c);
        s.put(z);
    }

    /// Computes ahead the table rows of every token of `tokens` it
    /// lacks, in one product; a cell without a table does nothing. On
    /// a table that has them all, no write lock and no allocation.
    ///
    /// # Panics
    ///
    /// Panics if a token is out of the vocabulary.
    pub(crate) fn prefill(&self, tokens: impl Iterator<Item = u32> + Clone, s: &mut Scratch) {
        if let Some(table) = &self.table {
            table.prefill(tokens.map(|t| self.checked(t)), |missing, rows| {
                self.fill_input_rows(missing, rows, s)
            });
        }
    }

    /// `token` as an embedding row index.
    fn checked(&self, token: u32) -> usize {
        let (id, vocab) = (token as usize, self.vocab_size());
        assert!(id < vocab, "embedding id {id} >= vocab {vocab}");
        id
    }

    /// Appends the table row `embed[t] · Wx` of every token of `tokens`
    /// to `rows`, in order: one unpooled product over the gathered
    /// embedding rows. Row `r` of it is the 1-row product of token
    /// `r`'s embedding bit for bit, as the kernel folds every row
    /// alone.
    fn fill_input_rows(&self, tokens: &[usize], rows: &mut Vec<f32>, s: &mut Scratch) {
        let (m, e, gates) = (tokens.len(), self.embed_size(), self.wx.n());
        let mut x = s.take_dirty(m, e);
        ops::embedding_into(&self.embed, tokens, &mut x);
        let start = rows.len();
        rows.resize(start + m * gates, 0.0);
        gemm::gemm_into(x.as_slice(), m, e, &self.wx, None, &mut rows[start..], None);
        s.put(x);
    }

    /// Exports the cell's weights (§4.2 persistence), `w` unpacked to
    /// the exact fused matrix the cell was built from.
    pub fn to_bundle(&self) -> WeightBundle {
        let mut bundle = WeightBundle::new();
        bundle.insert("embed", self.embed.clone());
        let mut w = self.wx.unpack().into_vec();
        w.extend_from_slice(self.wh.unpack().as_slice());
        let rows = self.embed_size() + self.hidden_size();
        bundle.insert("w", Matrix::from_vec(rows, self.wx.n(), w));
        bundle.insert("b", self.b.clone());
        bundle
    }

    /// Reconstructs the cell from saved weights, inferring shapes.
    pub fn from_bundle(bundle: &WeightBundle) -> Result<Self, String> {
        let embed = expect(bundle, "embed")?.clone();
        let w = expect(bundle, "w")?;
        let (embed_size, hidden) = (embed.cols(), w.cols() / 4);
        expect_shape(w, (embed_size + hidden, 4 * hidden), "w")?;
        let b = expect(bundle, "b")?;
        expect_shape(b, (1, 4 * hidden), "b")?;
        let (x_half, h_half) = w.as_slice().split_at(embed_size * w.cols());
        let wx = PackedWeights::pack(embed_size, w.cols(), x_half);
        let wh = PackedWeights::pack(hidden, w.cols(), h_half);
        Ok(Self::from_parts(embed, wx, wh, b.clone()))
    }
}

/// Gathers the batched previous states of chain-style invocations into
/// scratch `(batch, hidden)` matrices `h` and `c`; chain starts keep the
/// implicit zero state `Scratch::take` guarantees.
pub(crate) fn gather_chain(
    hidden_size: usize,
    inputs: &[RowInvocation<'_>],
    s: &mut Scratch,
) -> (Matrix, Matrix) {
    let batch = inputs.len();
    let mut h = s.take(batch, hidden_size);
    let mut c = s.take(batch, hidden_size);
    for (r, inv) in inputs.iter().enumerate() {
        match inv.states() {
            [] => {} // Chain start: implicit zero state.
            [st] => {
                assert_eq!(st.h.len(), hidden_size, "state width mismatch");
                h.row_mut(r).copy_from_slice(st.h);
                c.row_mut(r).copy_from_slice(st.c);
            }
            more => panic!("chain cell invocation with {} states", more.len()),
        }
    }
    (h, c)
}

/// Emits rows `0..rows` of batched `(h, c)` to the caller in batch
/// order.
pub(crate) fn emit_states<F: FnMut(usize, &[f32], &[f32], Option<u32>)>(
    h: &Matrix,
    c: &Matrix,
    rows: usize,
    emit: &mut F,
) {
    for r in 0..rows {
        emit(r, h.row(r), c.row(r), None);
    }
}

/// Asserts that table rows filled `m` at a time, `m` in 1–9, 16, 17,
/// 31–33, 64 and 65, are the 1-row products of their tokens bit for
/// bit. `cell`'s vocabulary must hold 65 tokens.
#[cfg(test)]
pub(crate) fn assert_fills_are_row_products(cell: &LstmCell) {
    let (e, gates, vocab) = (cell.embed_size(), cell.wx.n(), cell.vocab_size());
    let mut s = Scratch::new();
    for m in (1..=9).chain([16, 17, 31, 32, 33, 64, 65]) {
        let tokens: Vec<usize> = (0..m).map(|i| (i * 37 + m) % vocab).collect();
        // A row already there, so the fill appends at an offset.
        let mut rows = vec![f32::NAN; gates];
        cell.fill_input_rows(&tokens, &mut rows, &mut s);
        assert_eq!(rows.len(), (m + 1) * gates, "m = {m}");
        for (r, &t) in tokens.iter().enumerate() {
            let mut want = vec![0.0; gates];
            gemm::gemm_into(cell.embed.row(t), 1, e, &cell.wx, None, &mut want, None);
            let got = &rows[(r + 1) * gates..(r + 2) * gates];
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "m = {m}, row {r} (token {t})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{CellState, StateRef};
    use crate::tests::Outputs;
    use crate::Cell;

    #[test]
    fn table_rows_filled_together_are_one_row_products() {
        // Widths ragged for every GEMM tier; 67 tokens, coprime to the
        // stride that spreads each fill's tokens.
        assert_fills_are_row_products(&LstmCell::seeded(24, 20, 67, 5));
    }

    fn cell() -> Cell {
        Cell::Lstm(LstmCell::seeded(4, 6, 20, 42))
    }

    #[test]
    fn step_shapes() {
        let c = cell();
        let out = c.outputs(&[RowInvocation::token_only(3)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].state.h.len(), 6);
        assert_eq!(out[0].state.c.len(), 6);
        assert_eq!(out[0].token, None);
    }

    #[test]
    fn batched_equals_sequential() {
        // The core correctness property of batching: executing requests
        // together must give bit-identical results to one-at-a-time.
        let c = cell();
        let s1 = c.outputs(&[RowInvocation::token_only(3)]);
        let s2 = c.outputs(&[RowInvocation::token_only(9)]);
        let both = c.outputs(&[RowInvocation::token_only(3), RowInvocation::token_only(9)]);
        assert_eq!(both[0], s1[0]);
        assert_eq!(both[1], s2[0]);
    }

    #[test]
    fn chained_steps_differ_from_first() {
        let c = cell();
        let first = c.outputs(&[RowInvocation::token_only(1)]);
        let second = c.outputs(&[RowInvocation::chain(1, StateRef::of(&first[0].state))]);
        assert_ne!(first[0].state, second[0].state);
    }

    #[test]
    fn outputs_bounded_by_tanh() {
        let c = cell();
        let mut state = CellState::zeros(6);
        for t in 0..10 {
            let out = c.outputs(&[RowInvocation::chain(t % 20, StateRef::of(&state))]);
            state = out.into_iter().next().unwrap().state;
            assert!(state.h.iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    #[should_panic]
    fn missing_token_panics() {
        let c = cell();
        let _ = c.outputs(&[RowInvocation::new(None, &[])]);
    }

    #[test]
    fn seeds_give_different_types() {
        let a = Cell::Lstm(LstmCell::seeded(4, 6, 20, 1));
        let b = Cell::Lstm(LstmCell::seeded(4, 6, 20, 2));
        assert_eq!(a.signature(), b.signature());
        assert!(!a.same_type(&b));
        assert!(a.same_type(&Cell::Lstm(LstmCell::seeded(4, 6, 20, 1))));
    }
}
