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
use bm_tensor::{gemm, ops, xavier_uniform, Matrix, PackedWeights, Scratch};

use crate::persist::{expect, expect_shape};
use crate::state::RowInvocation;

/// Cap on a per-token cache, in floats (16 MiB of f32): the cached
/// token projection (`vocab * 4 * hidden`), above which the resident
/// path falls back to gathering the embedded input into a `[x|h]` batch
/// like the gather path does, and the tree leaf memo
/// (`vocab * 2 * hidden`).
pub(crate) const MAX_PROJ_ELEMS: usize = 1 << 22;

/// The cached input half of the resident split affine.
///
/// The gate pre-activation `z = [x|h]·W + b` folds its inner dimension
/// in ascending order with the bias added once at the end, so it splits
/// exactly at the `x`/`h` boundary: `proj[t] = embed[t]·Wx` (no bias)
/// is the first `input_size` terms of every output element's fold, and
/// a [`gemm::gemm_acc_into`] continuation over `h·Wh` (bias at the end)
/// reproduces the remaining terms bit for bit. Since the embedding and
/// `W` are immutable per cell type (§4.2), `proj` is computed once at
/// construction — the resident step then pays one row copy per request
/// instead of the `x`-half of the GEMM, which halves the per-step
/// multiply count when `embed_size == hidden_size`.
#[derive(Debug, Clone)]
pub(crate) struct TokenProj {
    /// `embed · Wx`, `(vocab, 4 * hidden)`, bias *not* included.
    proj: Matrix,
    /// Rows `input_size..` of `w` (the recurrent half), packed.
    wh: PackedWeights,
}

/// The weight set and math of one LSTM step, shared by every cell kind
/// that embeds an LSTM (plain, encoder, decoder).
#[derive(Debug, Clone)]
pub(crate) struct LstmCore {
    /// Fused gate weights, `(embed + hidden, 4 * hidden)`.
    pub w: Matrix,
    /// Fused gate bias, `(1, 4 * hidden)`.
    pub b: Matrix,
    pub input_size: usize,
    pub hidden_size: usize,
    /// Cached token projection for the resident fast path; `None` when
    /// the table would exceed [`MAX_PROJ_ELEMS`].
    pub(crate) token_proj: Option<TokenProj>,
}

impl LstmCore {
    pub fn seeded(input_size: usize, hidden_size: usize, seed: u64) -> Self {
        LstmCore {
            w: xavier_uniform(input_size + hidden_size, 4 * hidden_size, seed),
            b: Matrix::zeros(1, 4 * hidden_size),
            input_size,
            hidden_size,
            token_proj: None,
        }
    }

    /// Precomputes the [`TokenProj`] pair for `embed` (a no-op above
    /// the size cap). Called by every owning cell right after the core
    /// and embedding exist — construction and bundle-load alike — so
    /// the cache can never go stale against the weights it derives
    /// from.
    pub(crate) fn install_token_proj(&mut self, embed: &Matrix) {
        let (e, hsz) = (self.input_size, self.hidden_size);
        let gates = 4 * hsz;
        let vocab = embed.rows();
        debug_assert_eq!(embed.cols(), e, "embedding width");
        if vocab.saturating_mul(gates) > MAX_PROJ_ELEMS {
            self.token_proj = None;
            return;
        }
        let wdata = self.w.as_slice();
        let wx = PackedWeights::pack(e, gates, &wdata[..e * gates]);
        let wh = PackedWeights::pack(hsz, gates, &wdata[e * gates..]);
        let mut proj = Matrix::zeros(vocab, gates);
        gemm::gemm_into(
            embed.as_slice(),
            vocab,
            e,
            &wx,
            None,
            proj.as_mut_slice(),
            ops::auto_pool(vocab, e, gates),
        );
        self.token_proj = Some(TokenProj { proj, wh });
    }

    /// The resident row layout this core steps with: `h`-only rows when
    /// the token projection is cached (the fast path needs no `x`
    /// columns at all), the full `[x|h]` rows otherwise.
    pub(crate) fn resident_layout(&self) -> crate::state::ResidentLayout {
        let x_width = if self.token_proj.is_some() {
            0
        } else {
            self.input_size
        };
        crate::state::ResidentLayout {
            x_width,
            hidden: self.hidden_size,
            aux_width: self.hidden_size,
        }
    }

    /// One batched LSTM step over a pre-gathered `[x, h]` input.
    ///
    /// `xh` is `(batch, input + hidden)`, `c_prev` is `(batch, hidden)`.
    /// Returns `(h', c')` backed by buffers from `s`. One fused affine
    /// into a scratch gate buffer plus one fused gate kernel — zero
    /// intermediate allocations in steady state, bitwise identical to the
    /// unfused concat/affine/split/activation/mul/add chain.
    pub fn step_in(&self, xh: &Matrix, c_prev: &Matrix, s: &mut Scratch) -> (Matrix, Matrix) {
        debug_assert_eq!(xh.cols(), self.input_size + self.hidden_size);
        debug_assert_eq!(c_prev.cols(), self.hidden_size);
        let batch = xh.rows();
        // All three are fully overwritten: `z` by the affine, `h_new`
        // and `c_new` by the gate kernel.
        let mut z = s.take_dirty(batch, 4 * self.hidden_size);
        ops::affine_into(xh, &self.w, &self.b, &mut z);
        let mut h_new = s.take_dirty(batch, self.hidden_size);
        let mut c_new = s.take_dirty(batch, self.hidden_size);
        ops::lstm_gates(&z, c_prev, &mut h_new, &mut c_new);
        s.put(z);
        (h_new, c_new)
    }

    /// One fused LSTM step over the occupied prefix (`0..rows`) of a
    /// resident batch, updating state in place.
    ///
    /// With a cached [`TokenProj`] (the common case), `xh` is an
    /// `h`-only matrix: each row's gate pre-activation is seeded from
    /// the token's cached `x·Wx` partial row and completed by one
    /// fold-continuation affine over `h·Wh`
    /// ([`ops::affine_acc_rows_into`]) — half the multiplies of the
    /// full `[x|h]·W` when `embed == hidden`, and zero state movement
    /// at steady state. Without it (oversized vocabulary), tokens embed
    /// into the left columns of `xh` and one full prefix affine runs as
    /// the gather path would. Either way one gate-kernel call over the
    /// row prefix then overwrites the hidden and cell state in place.
    ///
    /// Bitwise identical per row to `gather_chain_xh` + [`step_in`]
    /// over the same rows: the split affine continues the same
    /// ascending-`k` fold with the bias added once at the end (see
    /// [`TokenProj`]), and the gate kernel is the one [`step_in`] runs
    /// ([`ops::lstm_gates_rows_inplace`]).
    ///
    /// [`step_in`]: LstmCore::step_in
    pub fn step_resident_chain(
        &self,
        embed: &Matrix,
        xh: &mut Matrix,
        c: &mut Matrix,
        rows: usize,
        tokens: &[Option<u32>],
        s: &mut Scratch,
    ) {
        let hsz = self.hidden_size;
        debug_assert_eq!(c.cols(), hsz);
        if let Some(tp) = &self.token_proj {
            debug_assert_eq!(xh.cols(), hsz);
            // Fully overwritten by the seed copies, so dirty is fine.
            let mut z = s.take_dirty(rows, 4 * hsz);
            for (r, token) in tokens.iter().enumerate().take(rows) {
                let id = token.expect("chain cell invocation requires a token") as usize;
                assert!(
                    id < tp.proj.rows(),
                    "embedding id {id} >= vocab {}",
                    tp.proj.rows()
                );
                z.row_mut(r).copy_from_slice(tp.proj.row(id));
            }
            ops::affine_acc_rows_into(
                xh,
                rows,
                &tp.wh,
                &self.b,
                &mut z,
                ops::auto_pool(rows, hsz, 4 * hsz),
            );
            ops::lstm_gates_rows_inplace(&z, rows, xh, 0, c);
            s.put(z);
            return;
        }
        let e = self.input_size;
        debug_assert_eq!(xh.cols(), e + hsz);
        for (r, token) in tokens.iter().enumerate().take(rows) {
            let id = token.expect("chain cell invocation requires a token") as usize;
            assert!(
                id < embed.rows(),
                "embedding id {id} >= vocab {}",
                embed.rows()
            );
            xh.row_mut(r)[..e].copy_from_slice(embed.row(id));
        }
        // Fully overwritten by the affine, so a dirty buffer is fine.
        let mut z = s.take_dirty(rows, 4 * hsz);
        ops::affine_rows_into(
            xh,
            rows,
            &self.w,
            &self.b,
            &mut z,
            ops::auto_pool(rows, e + hsz, 4 * hsz),
        );
        ops::lstm_gates_rows_inplace(&z, rows, xh, e, c);
        s.put(z);
    }
}

/// Gathers the batched `[x, h]` input and previous cell state for
/// chain-style invocations directly into scratch buffers: tokens embed
/// into the left `input_size` columns, predecessor states copy into the
/// right `hidden_size` columns (and `c`), and chain starts keep the
/// implicit zero state `Scratch::take` guarantees.
pub(crate) fn gather_chain_xh(
    embed: &Matrix,
    input_size: usize,
    hidden_size: usize,
    inputs: &[RowInvocation<'_>],
    s: &mut Scratch,
) -> (Matrix, Matrix) {
    let batch = inputs.len();
    let mut xh = s.take(batch, input_size + hidden_size);
    let mut c = s.take(batch, hidden_size);
    for (r, inv) in inputs.iter().enumerate() {
        let id = inv.token().expect("chain cell invocation requires a token") as usize;
        assert!(
            id < embed.rows(),
            "embedding id {id} >= vocab {}",
            embed.rows()
        );
        let xh_row = xh.row_mut(r);
        xh_row[..input_size].copy_from_slice(embed.row(id));
        match inv.states() {
            [] => {} // Chain start: implicit zero state.
            [st] => {
                assert_eq!(st.h.len(), hidden_size, "state width mismatch");
                xh_row[input_size..].copy_from_slice(st.h);
                c.row_mut(r).copy_from_slice(st.c);
            }
            more => panic!("chain cell invocation with {} states", more.len()),
        }
    }
    (xh, c)
}

/// Emits batched `(h, c)` rows to the caller in batch order.
pub(crate) fn emit_states<F: FnMut(usize, &[f32], &[f32], Option<u32>)>(
    h: &Matrix,
    c: &Matrix,
    emit: &mut F,
) {
    for r in 0..h.rows() {
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
        let mut core = LstmCore::seeded(embed_size, hidden_size, seed);
        core.install_token_proj(&embed);
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

    /// The parameter matrices, for identity checks.
    pub(crate) fn weights(&self) -> Vec<&Matrix> {
        vec![&self.embed, &self.core.w, &self.core.b]
    }

    /// Gather executor: gathers borrowed state rows into a scratch
    /// `[x, h]` batch, runs one fused step and emits `(row, h, c, token)`
    /// per invocation; see [`crate::Cell::execute_rows_in`].
    pub fn execute_rows_in<F>(&self, inputs: &[RowInvocation<'_>], s: &mut Scratch, mut emit: F)
    where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        let (xh, c) = gather_chain_xh(
            &self.embed,
            self.core.input_size,
            self.core.hidden_size,
            inputs,
            s,
        );
        let (h2, c2) = self.core.step_in(&xh, &c, s);
        emit_states(&h2, &c2, &mut emit);
        for m in [xh, c, h2, c2] {
            s.put(m);
        }
    }

    /// Resident-state row layout: `h`-only rows when the token
    /// projection is cached (the usual case), `[x|h]` rows otherwise;
    /// `c` lives in the aux matrix either way. See
    /// `LstmCore::resident_layout`.
    pub fn resident_layout(&self) -> crate::state::ResidentLayout {
        self.core.resident_layout()
    }

    /// Resident-state executor: one fused step over rows `0..rows` of a
    /// persistent `[x|h]` batch (`xh`) and its cell-state side matrix
    /// (`aux`), updating both in place and emitting
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
            .step_resident_chain(&self.embed, xh, aux, rows, tokens, s);
        let e = self.core.resident_layout().x_width;
        for r in 0..rows {
            emit(r, &xh.row(r)[e..], aux.row(r), None);
        }
    }

    /// Strips the cached token projection so tests can exercise the
    /// full-`[x|h]` resident fallback a too-large vocabulary would
    /// take.
    #[cfg(test)]
    pub(crate) fn drop_token_proj_for_tests(&mut self) {
        self.core.token_proj = None;
    }

    /// Exports the cell's weights (§4.2 persistence).
    pub fn to_bundle(&self) -> WeightBundle {
        let mut b = WeightBundle::new();
        b.insert("embed", self.embed.clone());
        b.insert("w", self.core.w.clone());
        b.insert("b", self.core.b.clone());
        b
    }

    /// Reconstructs the cell from saved weights, inferring shapes.
    pub fn from_bundle(bundle: &WeightBundle) -> Result<Self, String> {
        let embed = expect(bundle, "embed")?;
        let w = expect(bundle, "w")?;
        let hidden = w.cols() / 4;
        let input = embed.cols();
        expect_shape(w, (input + hidden, 4 * hidden), "w")?;
        let b = expect(bundle, "b")?;
        expect_shape(b, (1, 4 * hidden), "b")?;
        let embed = embed.clone();
        let mut core = LstmCore {
            w: w.clone(),
            b: b.clone(),
            input_size: input,
            hidden_size: hidden,
            token_proj: None,
        };
        core.install_token_proj(&embed);
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
