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

use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use bm_tensor::io::WeightBundle;
use bm_tensor::{gemm, ops, xavier_uniform, xavier_uniform_rows, Matrix, PackedWeights, Scratch};

use crate::persist::{expect, expect_shape};
use crate::state::RowInvocation;

/// Cap on a per-token cache, in floats (16 MiB of f32): the token
/// projection (`vocab * 4 * hidden`), above which a step computes the
/// input half of its fold from the embedded tokens instead, and the
/// tree leaf memo (`vocab * 2 * hidden`).
pub(crate) const MAX_PROJ_ELEMS: usize = 1 << 22;

/// `embed · Wx` by token: row `t` is the input half of token `t`'s fold,
/// `4 * hidden` floats without the bias. The embedding and `W` are
/// immutable per cell type (§4.2), so a row computed once serves every
/// later step of that token: a step pays one row copy per request
/// instead of the `x`-half of the GEMM, which halves its multiplies when
/// `embed == hidden`.
///
/// Rows are computed the first time a step needs them, not when the cell
/// is built: the whole table is `vocab` one-row products (0.5 GFLOP at
/// vocab 1000, hidden 256) that a cold start would pay before its first
/// response. The table is still one zeroed block allocated with the
/// cell: the allocator hands a block that size out untouched, so a page
/// of it becomes resident only when a row in it is written, and it is
/// returned whole when the cell goes (rows allocated one by one by the
/// threads that step the cell cost `seq2seq_wmt` 3 MiB of peak RSS).
#[derive(Debug)]
struct TokenProj(RwLock<TokenRows>);

/// The rows of a [`TokenProj`] and which of them are computed.
#[derive(Debug, Clone)]
struct TokenRows {
    /// `(vocab, 4 * hidden)`; row `t` is meaningful once `filled[t]`.
    rows: Matrix,
    filled: Vec<bool>,
}

impl Clone for TokenProj {
    fn clone(&self) -> Self {
        TokenProj(RwLock::new(self.rows().clone()))
    }
}

impl TokenProj {
    fn new(vocab: usize, gates: usize) -> Self {
        TokenProj(RwLock::new(TokenRows {
            rows: Matrix::zeros(vocab, gates),
            filled: vec![false; vocab],
        }))
    }

    /// The table, read. A row is marked filled only after it is written,
    /// so a panic while the table was held for writing (an out-of-range
    /// token) left nothing inconsistent, and poisoning is ignored.
    fn rows(&self) -> RwLockReadGuard<'_, TokenRows> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copies the row of token `id(r)` into row `r` of `z` for every
    /// `r < rows`, first computing `embed[t] · wx` for the tokens no
    /// step has seen.
    fn seed(
        &self,
        embed: &Matrix,
        wx: &PackedWeights,
        rows: usize,
        id: impl Fn(usize) -> usize,
        z: &mut Matrix,
    ) {
        {
            let table = self.rows();
            if (0..rows).all(|r| table.filled[id(r)]) {
                for r in 0..rows {
                    z.row_mut(r).copy_from_slice(table.rows.row(id(r)));
                }
                return;
            }
        }
        let mut table = self.0.write().unwrap_or_else(PoisonError::into_inner);
        let TokenRows {
            rows: table_rows,
            filled,
        } = &mut *table;
        for r in 0..rows {
            let t = id(r);
            if !filled[t] {
                let row = table_rows.row_mut(t);
                gemm::gemm_into(embed.row(t), 1, wx.k(), wx, None, row, None);
                filled[t] = true;
            }
            z.row_mut(r).copy_from_slice(table_rows.row(t));
        }
    }
}

/// The weight set and math of one LSTM step, shared by every cell kind
/// that embeds an LSTM (plain, encoder, decoder).
///
/// The gate pre-activation `z = [x|h]·W + b` folds its inner dimension
/// in ascending order with the bias added once at the end, so it splits
/// exactly at the `x`/`h` boundary: `x·Wx` (no bias) is the first
/// `input_size` terms of every output element's fold, and a
/// [`gemm::gemm_acc_into`] continuation over `h·Wh` (bias at the end)
/// adds the rest bit for bit. So `W` is held as its two row halves,
/// packed, and never whole: every step, gathered or resident, seeds `z`
/// with the input half and continues with the recurrent one.
#[derive(Debug, Clone)]
pub(crate) struct LstmCore {
    /// Rows `..input_size` of the fused gate weights `W`, packed:
    /// `(embed, 4 * hidden)`.
    wx: PackedWeights,
    /// Rows `input_size..` of `W`, packed: `(hidden, 4 * hidden)`.
    wh: PackedWeights,
    /// Fused gate bias, `(1, 4 * hidden)`.
    b: Matrix,
    pub input_size: usize,
    pub hidden_size: usize,
    /// The token projection; `None` when it would exceed
    /// [`MAX_PROJ_ELEMS`].
    token_proj: Option<TokenProj>,
}

impl LstmCore {
    /// The core over the packed halves of the fused gate weights and
    /// bias `b`, for token embedding `embed`.
    fn new(wx: PackedWeights, wh: PackedWeights, b: Matrix, embed: &Matrix) -> Self {
        let (input_size, gates) = (wx.k(), wx.n());
        debug_assert_eq!((embed.cols(), wh.n()), (input_size, gates));
        let vocab = embed.rows();
        let token_proj =
            (vocab.saturating_mul(gates) <= MAX_PROJ_ELEMS).then(|| TokenProj::new(vocab, gates));
        LstmCore {
            wx,
            wh,
            b,
            input_size,
            hidden_size: gates / 4,
            token_proj,
        }
    }

    /// A core with seeded Xavier weights, `W` packed as it is drawn:
    /// its rows come in order, the input half and then the recurrent
    /// one, and no row-major copy of it is ever made.
    pub fn seeded(embed: &Matrix, hidden_size: usize, seed: u64) -> Self {
        let (input_size, gates) = (embed.cols(), 4 * hidden_size);
        let mut w = xavier_uniform_rows(input_size + hidden_size, gates, seed);
        let wx = PackedWeights::pack_rows(input_size, gates, &mut w);
        let wh = PackedWeights::pack_rows(hidden_size, gates, &mut w);
        LstmCore::new(wx, wh, Matrix::zeros(1, gates), embed)
    }

    /// The core of a saved cell: `w` and `b` from `bundle`, checked
    /// against `embed`'s width.
    pub fn from_bundle(bundle: &WeightBundle, embed: &Matrix) -> Result<Self, String> {
        let w = expect(bundle, "w")?;
        let (input_size, hidden) = (embed.cols(), w.cols() / 4);
        expect_shape(w, (input_size + hidden, 4 * hidden), "w")?;
        let b = expect(bundle, "b")?;
        expect_shape(b, (1, 4 * hidden), "b")?;
        let (x_half, h_half) = w.as_slice().split_at(input_size * w.cols());
        let wx = PackedWeights::pack(input_size, w.cols(), x_half);
        let wh = PackedWeights::pack(hidden, w.cols(), h_half);
        Ok(LstmCore::new(wx, wh, b.clone(), embed))
    }

    /// Writes `w` and `b` into `bundle`, `w` unpacked to the exact
    /// fused matrix the core was built from.
    pub fn to_bundle(&self, bundle: &mut WeightBundle) {
        let mut w = self.wx.unpack().into_vec();
        w.extend_from_slice(self.wh.unpack().as_slice());
        let rows = self.input_size + self.hidden_size;
        bundle.insert("w", Matrix::from_vec(rows, 4 * self.hidden_size, w));
        bundle.insert("b", self.b.clone());
    }

    /// The parameters after the embedding, for identity checks.
    pub(crate) fn weights(&self) -> [crate::Weight<'_>; 3] {
        [(&self.wx).into(), (&self.wh).into(), (&self.b).into()]
    }

    /// The resident row layout this core steps with: `h`-only rows,
    /// `c` in the aux matrix.
    pub(crate) fn resident_layout(&self) -> crate::state::ResidentLayout {
        crate::state::ResidentLayout {
            hidden: self.hidden_size,
            aux_width: self.hidden_size,
        }
    }

    /// One fused LSTM step over rows `0..rows` of `h` and `c`, updating
    /// both in place; `token(r)` is row `r`'s input word.
    ///
    /// Each row's gate pre-activation is seeded with the input half of
    /// its fold — the token's `x·Wx` row of the token projection
    /// (computed here on the token's first step), or, without the table
    /// (oversized vocabulary), one `x·Wx` product over the embedded
    /// tokens — and completed by one fold-continuation affine over
    /// `h·Wh` ([`ops::affine_acc_rows_into`]). One gate-kernel call
    /// ([`ops::lstm_gates_rows_inplace`]) then overwrites `h` and `c`.
    /// Bit for bit `[x|h]·W + b` followed by the gates (see
    /// [`LstmCore`]), and a function of each row alone.
    ///
    /// The gather path runs it on rows it copied into scratch, the
    /// resident path on the persistent batch where rows stay parked.
    ///
    /// # Panics
    ///
    /// Panics if a row has no token or its token is out of the
    /// vocabulary.
    pub fn step_rows(
        &self,
        embed: &Matrix,
        h: &mut Matrix,
        c: &mut Matrix,
        rows: usize,
        token: impl Fn(usize) -> Option<u32>,
        s: &mut Scratch,
    ) {
        let (e, hsz) = (self.input_size, self.hidden_size);
        let gates = 4 * hsz;
        debug_assert_eq!((h.cols(), c.cols()), (hsz, hsz));
        let id = |r: usize| {
            let id = token(r).expect("chain cell invocation requires a token") as usize;
            let vocab = embed.rows();
            assert!(id < vocab, "embedding id {id} >= vocab {vocab}");
            id
        };
        // Fully overwritten by the seed, so dirty is fine.
        let mut z = s.take_dirty(rows, gates);
        match &self.token_proj {
            Some(table) => table.seed(embed, &self.wx, rows, id, &mut z),
            None => {
                let mut x = s.take_dirty(rows, e);
                for r in 0..rows {
                    x.row_mut(r).copy_from_slice(embed.row(id(r)));
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

    /// Strips the cached token projection so tests can exercise the
    /// path a too-large vocabulary would take.
    #[cfg(test)]
    pub(crate) fn drop_token_proj_for_tests(&mut self) {
        self.token_proj = None;
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

/// A plain LSTM cell with its own embedding table.
///
/// This is the cell type of the paper's "LSTM" application (a chain over
/// an input sentence).
#[derive(Debug, Clone)]
pub struct LstmCell {
    embed: Matrix,
    core: LstmCore,
}

impl LstmCell {
    /// Creates a cell with seeded Xavier weights.
    pub fn seeded(embed_size: usize, hidden_size: usize, vocab: usize, seed: u64) -> Self {
        let embed = xavier_uniform(vocab, embed_size, seed ^ 0x5eed_0001);
        let core = LstmCore::seeded(&embed, hidden_size, seed);
        LstmCell { embed, core }
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
        let mut w = vec![(&self.embed).into()];
        w.extend(self.core.weights());
        w
    }

    /// Gather executor: gathers borrowed state rows into scratch
    /// batches, runs one fused step and emits `(row, h, c, token)` per
    /// invocation; see [`crate::Cell::execute_rows_in`].
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

    /// Resident-state row layout: `h`-only rows, `c` in the aux matrix.
    pub fn resident_layout(&self) -> crate::state::ResidentLayout {
        self.core.resident_layout()
    }

    /// Resident-state executor: one fused step over rows `0..rows` of a
    /// persistent hidden-state batch (`xh`) and its cell-state side
    /// matrix (`aux`), updating both in place and emitting
    /// `(row, h, c, token)` per row in batch order — the same emit
    /// contract, and bitwise the same outputs, as
    /// [`LstmCell::execute_rows_in`] over equal state rows.
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
        Ok(LstmCell { embed, core })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{CellState, StateRef};
    use crate::tests::Outputs;

    fn cell() -> LstmCell {
        LstmCell::seeded(4, 6, 20, 42)
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
    fn deterministic_across_clones() {
        let c = cell();
        let d = c.clone();
        let a = c.outputs(&[RowInvocation::token_only(5)]);
        let b = d.outputs(&[RowInvocation::token_only(5)]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn missing_token_panics() {
        let c = cell();
        let _ = c.outputs(&[RowInvocation::new(None, &[])]);
    }

    #[test]
    fn seeds_give_different_types() {
        let a = crate::Cell::Lstm(LstmCell::seeded(4, 6, 20, 1));
        let b = crate::Cell::Lstm(LstmCell::seeded(4, 6, 20, 2));
        assert_eq!(a.signature(), b.signature());
        assert!(!a.same_type(&b));
        assert!(a.same_type(&a.clone()));
    }
}
