//! GRU cell — an extension beyond the paper's evaluated models.
//!
//! The paper's cell abstraction is deliberately generic ("a simple cell
//! contains a few tensor operators; a complex cell such as LSTM not only
//! contains many operators but also its own internal recursion", §3.1).
//! A GRU exercises the scheduler with a cell whose state has no memory
//! component, validating that nothing in the system assumes LSTM state
//! layout.
//!
//! Step (with `x` the embedded token and `h` the previous hidden state):
//!
//! ```text
//! r = sigmoid([x, h] · Wr + br)
//! z = sigmoid([x, h] · Wz + bz)
//! n = tanh([x, r * h] · Wn + bn)
//! h' = (1 - z) * n + z * h
//! ```

use bm_tensor::io::WeightBundle;
use bm_tensor::{ops, xavier_uniform, Matrix, Scratch};

use crate::persist::{expect, expect_shape};
use crate::state::RowInvocation;

/// A GRU cell with its own embedding table.
#[derive(Debug, Clone)]
pub struct GruCell {
    embed: Matrix,
    wr: Matrix,
    br: Matrix,
    wz: Matrix,
    bz: Matrix,
    wn: Matrix,
    bn: Matrix,
    embed_size: usize,
    hidden_size: usize,
}

impl GruCell {
    /// Creates a cell with seeded Xavier weights.
    pub fn seeded(embed_size: usize, hidden_size: usize, vocab: usize, seed: u64) -> Self {
        let io = embed_size + hidden_size;
        GruCell {
            embed: xavier_uniform(vocab, embed_size, seed ^ 0x6ee1_0001),
            wr: xavier_uniform(io, hidden_size, seed ^ 0x6ee1_0002),
            br: Matrix::zeros(1, hidden_size),
            wz: xavier_uniform(io, hidden_size, seed ^ 0x6ee1_0003),
            bz: Matrix::zeros(1, hidden_size),
            wn: xavier_uniform(io, hidden_size, seed ^ 0x6ee1_0004),
            bn: Matrix::zeros(1, hidden_size),
            embed_size,
            hidden_size,
        }
    }

    /// Embedding width.
    pub fn embed_size(&self) -> usize {
        self.embed_size
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.embed.rows()
    }

    /// Input tensor shapes per invocation.
    pub fn input_shapes(&self) -> Vec<(usize, usize)> {
        vec![(1, self.embed_size), (1, self.hidden_size)]
    }

    /// Fingerprint over all weights.
    pub fn weight_fingerprint(&self) -> u64 {
        crate::fingerprint_weights(&[
            &self.embed,
            &self.wr,
            &self.br,
            &self.wz,
            &self.bz,
            &self.wn,
            &self.bn,
        ])
    }

    /// Gather executor; see [`crate::Cell::execute_rows_in`]. Gathers
    /// straight into a scratch `[x, h]` buffer, runs fused affines and
    /// the two fused gate kernels, and rewrites the buffer's right half
    /// to `r * h` for the candidate gate instead of concatenating afresh
    /// — bitwise identical to the unfused chain. The emitted `c` slice
    /// is always empty — a GRU state has no memory cell.
    pub fn execute_rows_in<F>(&self, inputs: &[RowInvocation<'_>], s: &mut Scratch, mut emit: F)
    where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        let batch = inputs.len();
        let e = self.embed_size;
        let hsz = self.hidden_size;
        let mut xh = s.take(batch, e + hsz);
        let mut h = s.take(batch, hsz);
        for (r, inv) in inputs.iter().enumerate() {
            let id = inv.token().expect("gru invocation requires a token") as usize;
            assert!(
                id < self.embed.rows(),
                "embedding id {id} >= vocab {}",
                self.embed.rows()
            );
            let xh_row = xh.row_mut(r);
            xh_row[..e].copy_from_slice(self.embed.row(id));
            match inv.states() {
                [] => {}
                [st] => {
                    xh_row[e..].copy_from_slice(st.h);
                    h.row_mut(r).copy_from_slice(st.h);
                }
                more => panic!("gru invocation with {} states", more.len()),
            }
        }
        // Gate buffers are fully overwritten by the affines.
        let mut r_gate = s.take_dirty(batch, hsz);
        ops::affine_into(&xh, &self.wr, &self.br, &mut r_gate);
        let mut z_gate = s.take_dirty(batch, hsz);
        ops::affine_into(&xh, &self.wz, &self.bz, &mut z_gate);
        // Turn [x, h] into [x, r * h] in place for the candidate gate.
        ops::gru_reset_rows(&r_gate, &h, batch, &mut xh);
        let mut n_gate = s.take_dirty(batch, hsz);
        ops::affine_into(&xh, &self.wn, &self.bn, &mut n_gate);
        ops::gru_update_rows(&z_gate, &n_gate, batch, &mut h);
        for row in 0..batch {
            emit(row, h.row(row), &[], None);
        }
        for m in [xh, h, r_gate, z_gate, n_gate] {
            s.put(m);
        }
    }

    /// Resident-state row layout: the canonical `h` lives in `aux`, not
    /// in the `[x|h]` input — the candidate gate rewrites `xh`'s right
    /// half to `r * h` in place each step, so `xh` is per-step scratch
    /// and only `aux` survives across steps.
    pub fn resident_layout(&self) -> crate::state::ResidentLayout {
        crate::state::ResidentLayout {
            x_width: self.embed_size,
            hidden: self.hidden_size,
            h_in_xh: false,
            aux_width: self.hidden_size,
        }
    }

    /// Resident-state executor: refreshes `xh` rows from the resident
    /// `aux` hidden state (one `hidden`-float copy per row — retained
    /// because the candidate gate destroys `xh`'s right half), runs the
    /// three fused prefix affines and the two gate kernels, and updates
    /// the hidden state in `aux` in place. Emits `(row, h, [], None)` per
    /// row, bitwise identical to [`GruCell::execute_rows_in`] over equal
    /// state rows.
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
        let e = self.embed_size;
        let hsz = self.hidden_size;
        debug_assert_eq!(xh.cols(), e + hsz);
        debug_assert_eq!(aux.cols(), hsz);
        for (r, token) in tokens.iter().enumerate().take(rows) {
            let id = token.expect("gru invocation requires a token") as usize;
            assert!(
                id < self.embed.rows(),
                "embedding id {id} >= vocab {}",
                self.embed.rows()
            );
            let xh_row = xh.row_mut(r);
            xh_row[..e].copy_from_slice(self.embed.row(id));
            xh_row[e..].copy_from_slice(aux.row(r));
        }
        let pool = ops::auto_pool(rows, e + hsz, hsz);
        // Gate buffers are fully overwritten by the affines.
        let mut r_gate = s.take_dirty(rows, hsz);
        ops::affine_rows_into(xh, rows, &self.wr, &self.br, &mut r_gate, pool);
        let mut z_gate = s.take_dirty(rows, hsz);
        ops::affine_rows_into(xh, rows, &self.wz, &self.bz, &mut z_gate, pool);
        // Turn [x, h] into [x, r * h] in place for the candidate gate.
        ops::gru_reset_rows(&r_gate, aux, rows, xh);
        let mut n_gate = s.take_dirty(rows, hsz);
        ops::affine_rows_into(xh, rows, &self.wn, &self.bn, &mut n_gate, pool);
        ops::gru_update_rows(&z_gate, &n_gate, rows, aux);
        for row in 0..rows {
            emit(row, aux.row(row), &[], None);
        }
        for m in [r_gate, z_gate, n_gate] {
            s.put(m);
        }
    }

    /// Exports the cell's weights (§4.2 persistence).
    pub fn to_bundle(&self) -> WeightBundle {
        let mut b = WeightBundle::new();
        b.insert("embed", self.embed.clone());
        for (name, m) in [
            ("wr", &self.wr),
            ("br", &self.br),
            ("wz", &self.wz),
            ("bz", &self.bz),
            ("wn", &self.wn),
            ("bn", &self.bn),
        ] {
            b.insert(name, m.clone());
        }
        b
    }

    /// Reconstructs the cell from saved weights, inferring shapes.
    pub fn from_bundle(bundle: &WeightBundle) -> Result<Self, String> {
        let embed = expect(bundle, "embed")?;
        let wr = expect(bundle, "wr")?;
        let hidden = wr.cols();
        let embed_size = embed.cols();
        let io = embed_size + hidden;
        expect_shape(wr, (io, hidden), "wr")?;
        let get = |name: &str, shape: (usize, usize)| -> Result<Matrix, String> {
            let m = expect(bundle, name)?;
            expect_shape(m, shape, name)?;
            Ok(m.clone())
        };
        Ok(GruCell {
            embed: embed.clone(),
            wr: wr.clone(),
            br: get("br", (1, hidden))?,
            wz: get("wz", (io, hidden))?,
            bz: get("bz", (1, hidden))?,
            wn: get("wn", (io, hidden))?,
            bn: get("bn", (1, hidden))?,
            embed_size,
            hidden_size: hidden,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{CellState, StateRef};
    use crate::tests::Outputs;

    fn cell() -> GruCell {
        GruCell::seeded(4, 5, 12, 77)
    }

    #[test]
    fn state_has_no_memory_cell() {
        let c = cell();
        let out = c.outputs(&[RowInvocation::token_only(2)]);
        assert_eq!(out[0].state.h.len(), 5);
        assert!(out[0].state.c.is_empty());
    }

    #[test]
    fn batched_equals_sequential() {
        let c = cell();
        let a = c.outputs(&[RowInvocation::token_only(1)]);
        let b = c.outputs(&[RowInvocation::token_only(7)]);
        let both = c.outputs(&[RowInvocation::token_only(1), RowInvocation::token_only(7)]);
        assert_eq!(both[0], a[0]);
        assert_eq!(both[1], b[0]);
    }

    #[test]
    fn hidden_state_stays_bounded() {
        let c = cell();
        let mut s = CellState {
            h: vec![0.0; 5],
            c: Vec::new(),
        };
        for t in 0..20 {
            let out = c.outputs(&[RowInvocation::chain(t % 12, StateRef::of(&s))]);
            s = out.into_iter().next().unwrap().state;
            assert!(s.h.iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn chain_changes_state() {
        let c = cell();
        let a = c.outputs(&[RowInvocation::token_only(3)]);
        let b = c.outputs(&[RowInvocation::chain(3, StateRef::of(&a[0].state))]);
        assert_ne!(a[0].state, b[0].state);
    }
}
