//! Binary constituency TreeLSTM cells (Tai et al., paper §2.1 Figure 2).
//!
//! "There are two types of RNN cells, leaf cell and internal cell. All
//! RNN cells of the same type share the same parameter weights."
//!
//! The leaf cell embeds an input word and produces an initial `(h, c)`;
//! the internal cell combines the states of its two children with
//! per-child forget gates (the *N*-ary TreeLSTM of Tai et al. with
//! `N = 2`, which is all the TreeBank dataset requires — §7.5 notes the
//! dataset "contains only binary tree samples").

use bm_tensor::io::WeightBundle;
use bm_tensor::{ops, xavier_uniform, Matrix, Scratch};

use crate::lstm::emit_states;
use crate::persist::{expect, expect_shape};
use crate::state::{collect_outputs, CellOutput, InvocationInput, RowInvocation};

/// TreeLSTM leaf cell: token embedding to initial `(h, c)`.
///
/// ```text
/// i = sigmoid(x · Wi + bi)
/// o = sigmoid(x · Wo + bo)
/// u = tanh   (x · Wu + bu)
/// c = i * u
/// h = o * tanh(c)
/// ```
#[derive(Debug, Clone)]
pub struct TreeLeafCell {
    embed: Matrix,
    wi: Matrix,
    bi: Matrix,
    wo: Matrix,
    bo: Matrix,
    wu: Matrix,
    bu: Matrix,
    embed_size: usize,
    hidden_size: usize,
}

impl TreeLeafCell {
    /// Creates a cell with seeded Xavier weights.
    pub fn seeded(embed_size: usize, hidden_size: usize, vocab: usize, seed: u64) -> Self {
        TreeLeafCell {
            embed: xavier_uniform(vocab, embed_size, seed ^ 0x1eaf_0001),
            wi: xavier_uniform(embed_size, hidden_size, seed ^ 0x1eaf_0002),
            bi: Matrix::zeros(1, hidden_size),
            wo: xavier_uniform(embed_size, hidden_size, seed ^ 0x1eaf_0003),
            bo: Matrix::zeros(1, hidden_size),
            wu: xavier_uniform(embed_size, hidden_size, seed ^ 0x1eaf_0004),
            bu: Matrix::zeros(1, hidden_size),
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
        vec![(1, self.embed_size)]
    }

    /// Fingerprint over all weights.
    pub fn weight_fingerprint(&self) -> u64 {
        crate::fingerprint_weights(&[
            &self.embed,
            &self.wi,
            &self.bi,
            &self.wo,
            &self.bo,
            &self.wu,
            &self.bu,
        ])
    }

    /// Runs one batched step; see [`crate::Cell::execute_batch`].
    pub fn execute_batch(&self, inputs: &[InvocationInput<'_>]) -> Vec<CellOutput> {
        self.execute_batch_in(inputs, &mut Scratch::new())
    }

    /// Scratch-arena variant of [`TreeLeafCell::execute_batch`].
    pub fn execute_batch_in(
        &self,
        inputs: &[InvocationInput<'_>],
        s: &mut Scratch,
    ) -> Vec<CellOutput> {
        collect_outputs(inputs, |rows, emit| self.execute_rows_in(rows, s, emit))
    }

    /// Row-level executor; see [`crate::Cell::execute_rows_in`].
    pub fn execute_rows_in<F>(&self, inputs: &[RowInvocation<'_>], s: &mut Scratch, mut emit: F)
    where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        let ids: Vec<usize> = inputs
            .iter()
            .map(|inv| {
                assert!(inv.states().is_empty(), "leaf cell takes no state inputs");
                inv.token().expect("leaf invocation requires a token") as usize
            })
            .collect();
        let batch = inputs.len();
        let hsz = self.hidden_size;
        // Every buffer is fully overwritten: `x` by the lookup, the
        // pre-activations by the affines, `h`/`c` by the gate kernel.
        let mut x = s.take_dirty(batch, self.embed_size);
        ops::embedding_into(&self.embed, &ids, &mut x);
        let mut i = s.take_dirty(batch, hsz);
        ops::affine_into(&x, &self.wi, &self.bi, &mut i);
        let mut o = s.take_dirty(batch, hsz);
        ops::affine_into(&x, &self.wo, &self.bo, &mut o);
        let mut u = s.take_dirty(batch, hsz);
        ops::affine_into(&x, &self.wu, &self.bu, &mut u);
        let mut h = s.take_dirty(batch, hsz);
        let mut c = s.take_dirty(batch, hsz);
        ops::tree_leaf_gates(&i, &o, &u, &mut h, &mut c);
        emit_states(&h, &c, &mut emit);
        for m in [x, i, o, u, h, c] {
            s.put(m);
        }
    }

    /// Exports the cell's weights (§4.2 persistence).
    pub fn to_bundle(&self) -> WeightBundle {
        let mut b = WeightBundle::new();
        b.insert("embed", self.embed.clone());
        for (name, m) in [
            ("wi", &self.wi),
            ("bi", &self.bi),
            ("wo", &self.wo),
            ("bo", &self.bo),
            ("wu", &self.wu),
            ("bu", &self.bu),
        ] {
            b.insert(name, m.clone());
        }
        b
    }

    /// Reconstructs the cell from saved weights, inferring shapes.
    pub fn from_bundle(bundle: &WeightBundle) -> Result<Self, String> {
        let embed = expect(bundle, "embed")?;
        let wi = expect(bundle, "wi")?;
        let embed_size = embed.cols();
        let hidden = wi.cols();
        expect_shape(wi, (embed_size, hidden), "wi")?;
        let get = |name: &str, shape: (usize, usize)| -> Result<Matrix, String> {
            let m = expect(bundle, name)?;
            expect_shape(m, shape, name)?;
            Ok(m.clone())
        };
        Ok(TreeLeafCell {
            embed: embed.clone(),
            wi: wi.clone(),
            bi: get("bi", (1, hidden))?,
            wo: get("wo", (embed_size, hidden))?,
            bo: get("bo", (1, hidden))?,
            wu: get("wu", (embed_size, hidden))?,
            bu: get("bu", (1, hidden))?,
            embed_size,
            hidden_size: hidden,
        })
    }
}

/// TreeLSTM internal (binary) cell combining two child states.
///
/// With `hs = [h_left, h_right]`:
///
/// ```text
/// i  = sigmoid(hs · Wi + bi)
/// fl = sigmoid(hs · Wfl + bfl)
/// fr = sigmoid(hs · Wfr + bfr)
/// o  = sigmoid(hs · Wo + bo)
/// u  = tanh   (hs · Wu + bu)
/// c  = i * u + fl * c_left + fr * c_right
/// h  = o * tanh(c)
/// ```
#[derive(Debug, Clone)]
pub struct TreeInternalCell {
    wi: Matrix,
    bi: Matrix,
    wfl: Matrix,
    bfl: Matrix,
    wfr: Matrix,
    bfr: Matrix,
    wo: Matrix,
    bo: Matrix,
    wu: Matrix,
    bu: Matrix,
    hidden_size: usize,
}

impl TreeInternalCell {
    /// Creates a cell with seeded Xavier weights.
    pub fn seeded(hidden_size: usize, seed: u64) -> Self {
        let hs = 2 * hidden_size;
        TreeInternalCell {
            wi: xavier_uniform(hs, hidden_size, seed ^ 0x7ee_0001),
            bi: Matrix::zeros(1, hidden_size),
            wfl: xavier_uniform(hs, hidden_size, seed ^ 0x7ee_0002),
            bfl: Matrix::filled(1, hidden_size, 1.0), // Forget bias 1: standard practice.
            wfr: xavier_uniform(hs, hidden_size, seed ^ 0x7ee_0003),
            bfr: Matrix::filled(1, hidden_size, 1.0),
            wo: xavier_uniform(hs, hidden_size, seed ^ 0x7ee_0004),
            bo: Matrix::zeros(1, hidden_size),
            wu: xavier_uniform(hs, hidden_size, seed ^ 0x7ee_0005),
            bu: Matrix::zeros(1, hidden_size),
            hidden_size,
        }
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Input tensor shapes per invocation (left h, left c, right h, right c).
    pub fn input_shapes(&self) -> Vec<(usize, usize)> {
        vec![(1, self.hidden_size); 4]
    }

    /// Fingerprint over all weights.
    pub fn weight_fingerprint(&self) -> u64 {
        crate::fingerprint_weights(&[
            &self.wi, &self.bi, &self.wfl, &self.bfl, &self.wfr, &self.bfr, &self.wo, &self.bo,
            &self.wu, &self.bu,
        ])
    }

    /// Runs one batched step; see [`crate::Cell::execute_batch`].
    pub fn execute_batch(&self, inputs: &[InvocationInput<'_>]) -> Vec<CellOutput> {
        self.execute_batch_in(inputs, &mut Scratch::new())
    }

    /// Scratch-arena variant of [`TreeInternalCell::execute_batch`]:
    /// gathers child states straight into a scratch `[h_left, h_right]`
    /// buffer and fuses the gate combine.
    pub fn execute_batch_in(
        &self,
        inputs: &[InvocationInput<'_>],
        s: &mut Scratch,
    ) -> Vec<CellOutput> {
        collect_outputs(inputs, |rows, emit| self.execute_rows_in(rows, s, emit))
    }

    /// Row-level executor; see [`crate::Cell::execute_rows_in`].
    pub fn execute_rows_in<F>(&self, inputs: &[RowInvocation<'_>], s: &mut Scratch, mut emit: F)
    where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        let batch = inputs.len();
        let hsz = self.hidden_size;
        // Every buffer is fully overwritten: the child states by the
        // copies below, the pre-activations by the affines, `h_out`/`c`
        // by the gate kernel.
        let mut hs = s.take_dirty(batch, 2 * hsz);
        let mut cl = s.take_dirty(batch, hsz);
        let mut cr = s.take_dirty(batch, hsz);
        for (r, inv) in inputs.iter().enumerate() {
            let [left, right] = match inv.states() {
                [l, r] => [l, r],
                more => panic!(
                    "internal cell requires exactly two child states, got {}",
                    more.len()
                ),
            };
            let hs_row = hs.row_mut(r);
            hs_row[..hsz].copy_from_slice(left.h);
            hs_row[hsz..].copy_from_slice(right.h);
            cl.row_mut(r).copy_from_slice(left.c);
            cr.row_mut(r).copy_from_slice(right.c);
        }
        let mut i = s.take_dirty(batch, hsz);
        ops::affine_into(&hs, &self.wi, &self.bi, &mut i);
        let mut fl = s.take_dirty(batch, hsz);
        ops::affine_into(&hs, &self.wfl, &self.bfl, &mut fl);
        let mut fr = s.take_dirty(batch, hsz);
        ops::affine_into(&hs, &self.wfr, &self.bfr, &mut fr);
        let mut o = s.take_dirty(batch, hsz);
        ops::affine_into(&hs, &self.wo, &self.bo, &mut o);
        let mut u = s.take_dirty(batch, hsz);
        ops::affine_into(&hs, &self.wu, &self.bu, &mut u);
        let mut h_out = s.take_dirty(batch, hsz);
        let mut c = s.take_dirty(batch, hsz);
        ops::tree_internal_gates(&i, &fl, &fr, &o, &u, &cl, &cr, &mut h_out, &mut c);
        emit_states(&h_out, &c, &mut emit);
        for m in [hs, cl, cr, i, fl, fr, o, u, h_out, c] {
            s.put(m);
        }
    }

    /// Exports the cell's weights (§4.2 persistence).
    pub fn to_bundle(&self) -> WeightBundle {
        let mut b = WeightBundle::new();
        for (name, m) in [
            ("wi", &self.wi),
            ("bi", &self.bi),
            ("wfl", &self.wfl),
            ("bfl", &self.bfl),
            ("wfr", &self.wfr),
            ("bfr", &self.bfr),
            ("wo", &self.wo),
            ("bo", &self.bo),
            ("wu", &self.wu),
            ("bu", &self.bu),
        ] {
            b.insert(name, m.clone());
        }
        b
    }

    /// Reconstructs the cell from saved weights, inferring shapes.
    pub fn from_bundle(bundle: &WeightBundle) -> Result<Self, String> {
        let wi = expect(bundle, "wi")?;
        let hidden = wi.cols();
        let hs = 2 * hidden;
        expect_shape(wi, (hs, hidden), "wi")?;
        let get = |name: &str, shape: (usize, usize)| -> Result<Matrix, String> {
            let m = expect(bundle, name)?;
            expect_shape(m, shape, name)?;
            Ok(m.clone())
        };
        Ok(TreeInternalCell {
            wi: wi.clone(),
            bi: get("bi", (1, hidden))?,
            wfl: get("wfl", (hs, hidden))?,
            bfl: get("bfl", (1, hidden))?,
            wfr: get("wfr", (hs, hidden))?,
            bfr: get("bfr", (1, hidden))?,
            wo: get("wo", (hs, hidden))?,
            bo: get("bo", (1, hidden))?,
            wu: get("wu", (hs, hidden))?,
            bu: get("bu", (1, hidden))?,
            hidden_size: hidden,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::CellState;

    #[test]
    fn leaf_produces_state() {
        let leaf = TreeLeafCell::seeded(4, 6, 10, 1);
        let out = leaf.execute_batch(&[InvocationInput::token_only(3)]);
        assert_eq!(out[0].state.h.len(), 6);
        assert_eq!(out[0].state.c.len(), 6);
    }

    #[test]
    fn internal_combines_children() {
        let leaf = TreeLeafCell::seeded(4, 6, 10, 1);
        let internal = TreeInternalCell::seeded(6, 2);
        let kids = leaf.execute_batch(&[
            InvocationInput::token_only(1),
            InvocationInput::token_only(2),
        ]);
        let out = internal.execute_batch(&[InvocationInput::tree(&kids[0].state, &kids[1].state)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].state.h.len(), 6);
    }

    #[test]
    fn internal_is_order_sensitive() {
        // Left/right children use distinct forget gates, so swapping them
        // must change the output.
        let leaf = TreeLeafCell::seeded(4, 6, 10, 1);
        let internal = TreeInternalCell::seeded(6, 2);
        let kids = leaf.execute_batch(&[
            InvocationInput::token_only(1),
            InvocationInput::token_only(2),
        ]);
        let ab = internal.execute_batch(&[InvocationInput::tree(&kids[0].state, &kids[1].state)]);
        let ba = internal.execute_batch(&[InvocationInput::tree(&kids[1].state, &kids[0].state)]);
        assert_ne!(ab[0].state, ba[0].state);
    }

    #[test]
    fn batched_equals_sequential() {
        let leaf = TreeLeafCell::seeded(4, 6, 10, 1);
        let internal = TreeInternalCell::seeded(6, 2);
        let kids = leaf.execute_batch(&[
            InvocationInput::token_only(1),
            InvocationInput::token_only(2),
            InvocationInput::token_only(3),
            InvocationInput::token_only(4),
        ]);
        let a = internal.execute_batch(&[InvocationInput::tree(&kids[0].state, &kids[1].state)]);
        let b = internal.execute_batch(&[InvocationInput::tree(&kids[2].state, &kids[3].state)]);
        let both = internal.execute_batch(&[
            InvocationInput::tree(&kids[0].state, &kids[1].state),
            InvocationInput::tree(&kids[2].state, &kids[3].state),
        ]);
        assert_eq!(both[0], a[0]);
        assert_eq!(both[1], b[0]);
    }

    #[test]
    #[should_panic]
    fn internal_rejects_single_child() {
        let internal = TreeInternalCell::seeded(6, 2);
        let s = CellState::zeros(6);
        let bad = InvocationInput {
            token: None,
            states: vec![&s],
        };
        let _ = internal.execute_batch(&[bad]);
    }

    #[test]
    fn leaf_batched_equals_sequential() {
        let leaf = TreeLeafCell::seeded(4, 6, 10, 9);
        let a = leaf.execute_batch(&[InvocationInput::token_only(5)]);
        let b = leaf.execute_batch(&[InvocationInput::token_only(6)]);
        let both = leaf.execute_batch(&[
            InvocationInput::token_only(5),
            InvocationInput::token_only(6),
        ]);
        assert_eq!(both[0], a[0]);
        assert_eq!(both[1], b[0]);
    }
}
