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
//!
//! Each cell holds its gate weights as one fused matrix and runs one
//! packed product per step, like the LSTM's `[i|f|g|o]`: tree tasks are
//! one to a few rows, so a step costs what streaming its weights costs,
//! and one 2.6 MB stream (hidden 256) is walked once, serpentine, where
//! five separate 512 KB products were each walked in the same order
//! (`bm_tensor::gemm`, "Serpentine passes"). The fused matrix is held
//! only packed; the per-gate matrices exist only in the bundle format.
//! Type identity compares the packed panels bit for bit, which is the
//! same as comparing gate by gate: equal fused shapes split into equal
//! gate shapes.

use bm_tensor::io::WeightBundle;
use bm_tensor::{ops, xavier_uniform, xavier_uniform_rows, Matrix, PackedWeights, Scratch};

use crate::lstm::emit_states;
use crate::persist::{expect, fuse_gates, split_gates};
use crate::state::RowInvocation;
use crate::table::TokenTable;

/// Gate order of the leaf cell's fused weights and of its bundle.
const LEAF_GATES: [&str; 3] = ["i", "o", "u"];

/// Gate order of the internal cell's fused weights and of its bundle.
const INTERNAL_GATES: [&str; 5] = ["i", "fl", "fr", "o", "u"];

/// `[G_0|G_1|..]` of `(rows, hidden)` Xavier gates, one per seed,
/// packed as it is drawn: each row is every gate's next row side by
/// side, so neither the gates nor the fused matrix are ever held
/// row-major (freed transients stay in the process's peak RSS).
fn fused_xavier(rows: usize, hidden: usize, seeds: &[u64]) -> PackedWeights {
    let mut gates: Vec<_> = seeds
        .iter()
        .map(|&seed| xavier_uniform_rows(rows, hidden, seed))
        .collect();
    PackedWeights::pack_rows(rows, seeds.len() * hidden, |row| {
        for (gate, cols) in gates.iter_mut().zip(row.chunks_mut(hidden)) {
            gate(cols);
        }
    })
}

/// TreeLSTM leaf cell: token embedding to initial `(h, c)`.
///
/// ```text
/// i = sigmoid(x · Wi + bi)
/// o = sigmoid(x · Wo + bo)
/// u = tanh   (x · Wu + bu)
/// c = i * u
/// h = o * tanh(c)
/// ```
#[derive(Debug)]
pub struct TreeLeafCell {
    embed: Matrix,
    /// `[Wi|Wo|Wu]`, `(embed, 3 * hidden)`, packed where the cell is
    /// built (see `TreeInternalCell::w`).
    w: PackedWeights,
    /// `[bi|bo|bu]`, `(1, 3 * hidden)`.
    b: Matrix,
    embed_size: usize,
    hidden_size: usize,
    /// The cell's outputs by token: row `t` is `[h|c]` of token `t`.
    /// A leaf invocation has no state input, so its output is a
    /// function of its token alone. `None` when the vocabulary is too
    /// large for a table. Its buffer is reserved by the first step that
    /// fills a row, not here: built with the cell, its 2 MB (vocab 1000,
    /// hidden 256) took the tree model's heap past the allocator's trim
    /// threshold, so every cold start gave the model's pages back and
    /// faulted them in again (`tree_bank` `setup_s` 6.6 → 9.1 ms).
    table: Option<TokenTable>,
}

impl TreeLeafCell {
    /// Creates a cell with seeded Xavier weights.
    pub fn seeded(embed_size: usize, hidden_size: usize, vocab: usize, seed: u64) -> Self {
        let seeds = [0x1eaf_0002, 0x1eaf_0003, 0x1eaf_0004].map(|salt| seed ^ salt);
        Self::from_parts(
            xavier_uniform(vocab, embed_size, seed ^ 0x1eaf_0001),
            fused_xavier(embed_size, hidden_size, &seeds),
            Matrix::zeros(1, 3 * hidden_size),
        )
    }

    /// The cell over an embedding and fused `[Wi|Wo|Wu]` / `[bi|bo|bu]`.
    fn from_parts(embed: Matrix, w: PackedWeights, b: Matrix) -> Self {
        let (embed_size, hidden_size) = (embed.cols(), w.n() / 3);
        TreeLeafCell {
            table: TokenTable::new(embed.rows(), 2 * hidden_size),
            embed,
            w,
            b,
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

    /// The parameters, for identity checks.
    pub(crate) fn weights(&self) -> Vec<crate::Weight<'_>> {
        vec![(&self.embed).into(), (&self.w).into(), (&self.b).into()]
    }

    /// Gather executor; see [`crate::Cell::execute_rows_in`]. Tokens
    /// the table has no row for are computed in one batched step and
    /// recorded; every row is then emitted from the table.
    pub fn execute_rows_in<F>(&self, inputs: &[RowInvocation<'_>], s: &mut Scratch, mut emit: F)
    where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        let ids: Vec<usize> = inputs
            .iter()
            .map(|inv| {
                assert!(inv.states().is_empty(), "leaf cell takes no state inputs");
                self.checked(inv.token().expect("leaf invocation requires a token"))
            })
            .collect();
        let Some(table) = &self.table else {
            return self.step(&ids, s, emit);
        };
        let hsz = self.hidden_size;
        table.rows(
            ids.len(),
            |r| ids[r],
            |missing, rows| self.fill_rows(missing, rows, s),
            |r, row| {
                let (h, c) = row.split_at(hsz);
                emit(r, h, c, None);
            },
        );
    }

    /// Computes ahead the table rows of every token of `tokens` it
    /// lacks, in one batched step; a cell without a table does nothing.
    ///
    /// # Panics
    ///
    /// Panics if a token is out of the vocabulary.
    pub(crate) fn prefill(&self, tokens: impl Iterator<Item = u32> + Clone, s: &mut Scratch) {
        if let Some(table) = &self.table {
            table.prefill(tokens.map(|t| self.checked(t)), |missing, rows| {
                self.fill_rows(missing, rows, s)
            });
        }
    }

    /// `token` as an embedding row index.
    fn checked(&self, token: u32) -> usize {
        let (id, vocab) = (token as usize, self.vocab_size());
        assert!(id < vocab, "embedding id {id} >= vocab {vocab}");
        id
    }

    /// Appends the table row `[h|c]` of every token of `tokens` to
    /// `rows`, in order, from one batched step.
    fn fill_rows(&self, tokens: &[usize], rows: &mut Vec<f32>, s: &mut Scratch) {
        self.step(tokens, s, |_, h, c, _| {
            rows.extend_from_slice(h);
            rows.extend_from_slice(c);
        })
    }

    /// One batched cell step over the given tokens.
    fn step<F>(&self, ids: &[usize], s: &mut Scratch, mut emit: F)
    where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        let batch = ids.len();
        let hsz = self.hidden_size;
        // Every buffer is fully overwritten: `x` by the lookup, the
        // pre-activations by the affine, `h`/`c` by the gate kernel.
        let mut x = s.take_dirty(batch, self.embed_size);
        ops::embedding_into(&self.embed, ids, &mut x);
        let mut z = s.take_dirty(batch, 3 * hsz);
        ops::affine_into(&x, &self.w, &self.b, &mut z);
        let mut h = s.take_dirty(batch, hsz);
        let mut c = s.take_dirty(batch, hsz);
        ops::tree_leaf_gates(&z, &mut h, &mut c);
        emit_states(&h, &c, batch, &mut emit);
        for m in [x, z, h, c] {
            s.put(m);
        }
    }

    /// Exports the cell's weights (§4.2 persistence).
    pub fn to_bundle(&self) -> WeightBundle {
        let mut b = WeightBundle::new();
        b.insert("embed", self.embed.clone());
        for (name, m) in split_gates(&self.w.unpack(), &self.b, &LEAF_GATES) {
            b.insert(name, m);
        }
        b
    }

    /// Reconstructs the cell from saved weights, inferring shapes.
    pub fn from_bundle(bundle: &WeightBundle) -> Result<Self, String> {
        let embed = expect(bundle, "embed")?;
        let hidden = expect(bundle, "wi")?.cols();
        let (w, b) = fuse_gates(bundle, &LEAF_GATES, embed.cols(), hidden)?;
        Ok(Self::from_parts(embed.clone(), PackedWeights::from(&w), b))
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
#[derive(Debug)]
pub struct TreeInternalCell {
    /// `[Wi|Wfl|Wfr|Wo|Wu]`, `(2 * hidden, 5 * hidden)`, packed on the
    /// thread that builds the cell and held in no other form. Left to
    /// first use, the panels (2.6 MB at hidden 256) were allocated by
    /// whichever thread stepped the cell first, and the allocator then
    /// kept a hole of that size in every thread arena a model's life
    /// passed through: +5 MiB of `tree_bank`'s peak RSS, against +1 MiB
    /// packed at construction.
    w: PackedWeights,
    /// `[bi|bfl|bfr|bo|bu]`, `(1, 5 * hidden)`.
    b: Matrix,
    hidden_size: usize,
}

impl TreeInternalCell {
    /// Creates a cell with seeded Xavier weights.
    pub fn seeded(hidden_size: usize, seed: u64) -> Self {
        let seeds = [1, 2, 3, 4, 5].map(|g| seed ^ (0x7ee_0000 + g));
        let zero = Matrix::zeros(1, hidden_size);
        let one = Matrix::filled(1, hidden_size, 1.0); // Forget bias 1: standard practice.
        TreeInternalCell {
            w: fused_xavier(2 * hidden_size, hidden_size, &seeds),
            b: ops::concat_cols(&[&zero, &one, &one, &zero, &zero]),
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

    /// The parameters, for identity checks.
    pub(crate) fn weights(&self) -> Vec<crate::Weight<'_>> {
        vec![(&self.w).into(), (&self.b).into()]
    }

    /// Gather executor; see [`crate::Cell::execute_rows_in`]. Gathers
    /// child states straight into a scratch `[h_left, h_right]` buffer
    /// and fuses the gate combine.
    pub fn execute_rows_in<F>(&self, inputs: &[RowInvocation<'_>], s: &mut Scratch, mut emit: F)
    where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        let batch = inputs.len();
        let hsz = self.hidden_size;
        // Every buffer is fully overwritten: the child states by the
        // copies below, the pre-activations by the affine, `h_out`/`c`
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
        let mut z = s.take_dirty(batch, 5 * hsz);
        ops::affine_into(&hs, &self.w, &self.b, &mut z);
        let mut h_out = s.take_dirty(batch, hsz);
        let mut c = s.take_dirty(batch, hsz);
        ops::tree_internal_gates(&z, &cl, &cr, &mut h_out, &mut c);
        emit_states(&h_out, &c, batch, &mut emit);
        for m in [hs, cl, cr, z, h_out, c] {
            s.put(m);
        }
    }

    /// Exports the cell's weights (§4.2 persistence).
    pub fn to_bundle(&self) -> WeightBundle {
        let mut b = WeightBundle::new();
        for (name, m) in split_gates(&self.w.unpack(), &self.b, &INTERNAL_GATES) {
            b.insert(name, m);
        }
        b
    }

    /// Reconstructs the cell from saved weights, inferring shapes.
    pub fn from_bundle(bundle: &WeightBundle) -> Result<Self, String> {
        let hidden = expect(bundle, "wi")?.cols();
        let (w, b) = fuse_gates(bundle, &INTERNAL_GATES, 2 * hidden, hidden)?;
        Ok(TreeInternalCell {
            w: PackedWeights::from(&w),
            b,
            hidden_size: hidden,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{CellState, StateRef};
    use crate::table::{without_tables, write_locks};
    use crate::tests::Outputs;
    use crate::{Cell, CellOutput, DecoderCell, LstmCell};

    /// A tree-internal invocation over two computed children.
    fn children<'a>(left: &'a CellOutput, right: &'a CellOutput) -> RowInvocation<'a> {
        RowInvocation::tree(StateRef::of(&left.state), StateRef::of(&right.state))
    }

    #[test]
    fn leaf_produces_state() {
        let leaf = TreeLeafCell::seeded(4, 6, 10, 1);
        let out = leaf.outputs(&[RowInvocation::token_only(3)]);
        assert_eq!(out[0].state.h.len(), 6);
        assert_eq!(out[0].state.c.len(), 6);
    }

    #[test]
    fn internal_combines_children() {
        let leaf = TreeLeafCell::seeded(4, 6, 10, 1);
        let internal = TreeInternalCell::seeded(6, 2);
        let kids = leaf.outputs(&[RowInvocation::token_only(1), RowInvocation::token_only(2)]);
        let out = internal.outputs(&[children(&kids[0], &kids[1])]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].state.h.len(), 6);
    }

    #[test]
    fn internal_is_order_sensitive() {
        // Left/right children use distinct forget gates, so swapping them
        // must change the output.
        let leaf = TreeLeafCell::seeded(4, 6, 10, 1);
        let internal = TreeInternalCell::seeded(6, 2);
        let kids = leaf.outputs(&[RowInvocation::token_only(1), RowInvocation::token_only(2)]);
        let ab = internal.outputs(&[children(&kids[0], &kids[1])]);
        let ba = internal.outputs(&[children(&kids[1], &kids[0])]);
        assert_ne!(ab[0].state, ba[0].state);
    }

    #[test]
    fn batched_equals_sequential() {
        let leaf = TreeLeafCell::seeded(4, 6, 10, 1);
        let internal = TreeInternalCell::seeded(6, 2);
        let kids = leaf.outputs(&[
            RowInvocation::token_only(1),
            RowInvocation::token_only(2),
            RowInvocation::token_only(3),
            RowInvocation::token_only(4),
        ]);
        let a = internal.outputs(&[children(&kids[0], &kids[1])]);
        let b = internal.outputs(&[children(&kids[2], &kids[3])]);
        let both = internal.outputs(&[children(&kids[0], &kids[1]), children(&kids[2], &kids[3])]);
        assert_eq!(both[0], a[0]);
        assert_eq!(both[1], b[0]);
    }

    #[test]
    #[should_panic]
    fn internal_rejects_single_child() {
        let internal = TreeInternalCell::seeded(6, 2);
        let s = CellState::zeros(6);
        let bad = RowInvocation::new(None, &[StateRef::of(&s)]);
        let _ = internal.outputs(&[bad]);
    }

    #[test]
    fn memoised_rows_equal_fresh_computation() {
        // Every cell kind with a token table, against the same cell
        // built without one.
        let cells = || {
            [
                Cell::TreeLeaf(TreeLeafCell::seeded(5, 7, 12, 3)),
                Cell::Lstm(LstmCell::seeded(5, 7, 12, 3)),
                Cell::Decoder(DecoderCell::seeded(5, 7, 12, 3)),
            ]
        };
        let batch = |tokens: &[u32]| -> Vec<RowInvocation<'static>> {
            tokens
                .iter()
                .map(|&t| RowInvocation::token_only(t))
                .collect()
        };
        let mixed = [9, 2, 4, 2, 11, 9];
        for ((cell, new), direct) in cells().iter().zip(cells()).zip(without_tables(cells)) {
            let kind = cell.kind_name();
            // Fill 4 and 9; then a batch of hits, misses and repeats.
            let first = cell.outputs(&batch(&[4, 9]));
            assert_eq!(first, direct.outputs(&batch(&[4, 9])), "{kind}");
            let want = direct.outputs(&batch(&mixed));
            assert_eq!(cell.outputs(&batch(&mixed)), want, "{kind}");
            // All hits now.
            assert_eq!(cell.outputs(&batch(&mixed)), want, "{kind}");
            // A new cell fills the batch's rows, repeats included, at once.
            assert_eq!(new.outputs(&batch(&mixed)), want, "{kind}");
        }
    }

    #[test]
    fn prefilled_rows_equal_fresh_computation() {
        // Every cell kind with a token table: rows computed ahead, in
        // one product, are the rows a cell without a table computes; a
        // second prefill of the same tokens, and a step over them, take
        // no write lock.
        let cells = || {
            [
                Cell::TreeLeaf(TreeLeafCell::seeded(5, 7, 12, 3)),
                Cell::Lstm(LstmCell::seeded(5, 7, 12, 3)),
                Cell::Decoder(DecoderCell::seeded(5, 7, 12, 3)),
            ]
        };
        let batch = |tokens: &[u32]| -> Vec<RowInvocation<'static>> {
            tokens
                .iter()
                .map(|&t| RowInvocation::token_only(t))
                .collect()
        };
        let tokens = [9, 2, 4, 2, 11, 9];
        let mut s = Scratch::new();
        for (cell, direct) in cells().iter().zip(without_tables(cells)) {
            let kind = cell.kind_name();
            let before = write_locks();
            cell.prefill(tokens.iter().copied(), &mut s);
            assert_eq!(write_locks(), before + 1, "{kind}: cold prefill");
            cell.prefill(tokens.iter().copied(), &mut s);
            cell.prefill(tokens[..3].iter().copied(), &mut s);
            let got = cell.outputs(&batch(&tokens));
            assert_eq!(write_locks(), before + 1, "{kind}: warm table");
            assert_eq!(got, direct.outputs(&batch(&tokens)), "{kind}");
        }
        // A cell without a table has nothing to fill.
        let internal = Cell::TreeInternal(TreeInternalCell::seeded(7, 3));
        let before = write_locks();
        internal.prefill(std::iter::empty(), &mut s);
        assert_eq!(write_locks(), before);
    }

    #[test]
    fn threads_racing_on_one_token_agree() {
        // Every cell kind with a token table: two threads step a new
        // cell on one token at once, and both get the row a cell
        // without a table computes, whichever thread fills it.
        let cells = || {
            [
                Cell::TreeLeaf(TreeLeafCell::seeded(5, 7, 12, 3)),
                Cell::Lstm(LstmCell::seeded(5, 7, 12, 3)),
                Cell::Decoder(DecoderCell::seeded(5, 7, 12, 3)),
            ]
        };
        for (cell, direct) in cells().iter().zip(without_tables(cells)) {
            let want = direct.outputs(&[RowInvocation::token_only(6)]);
            let start = std::sync::Barrier::new(2);
            let race = || {
                start.wait();
                cell.outputs(&[RowInvocation::token_only(6)])
            };
            let (a, b) = std::thread::scope(|sc| {
                let other = sc.spawn(race);
                (race(), other.join().expect("racing thread"))
            });
            assert_eq!(a, want, "{}", cell.kind_name());
            assert_eq!(b, want, "{}", cell.kind_name());
        }
    }

    #[test]
    #[should_panic(expected = "embedding id 12 >= vocab 12")]
    fn leaf_rejects_out_of_vocabulary_token() {
        let leaf = TreeLeafCell::seeded(5, 7, 12, 3);
        let _ = leaf.outputs(&[RowInvocation::token_only(12)]);
    }

    /// The per-gate construction these cells had before their weights
    /// were fused: what bundles on disk hold.
    fn per_gate_leaf(e: usize, h: usize, vocab: usize, seed: u64) -> Vec<(&'static str, Matrix)> {
        vec![
            ("embed", xavier_uniform(vocab, e, seed ^ 0x1eaf_0001)),
            ("wi", xavier_uniform(e, h, seed ^ 0x1eaf_0002)),
            ("bi", Matrix::zeros(1, h)),
            ("wo", xavier_uniform(e, h, seed ^ 0x1eaf_0003)),
            ("bo", Matrix::zeros(1, h)),
            ("wu", xavier_uniform(e, h, seed ^ 0x1eaf_0004)),
            ("bu", Matrix::zeros(1, h)),
        ]
    }

    fn per_gate_internal(h: usize, seed: u64) -> Vec<(&'static str, Matrix)> {
        vec![
            ("wi", xavier_uniform(2 * h, h, seed ^ 0x7ee_0001)),
            ("bi", Matrix::zeros(1, h)),
            ("wfl", xavier_uniform(2 * h, h, seed ^ 0x7ee_0002)),
            ("bfl", Matrix::filled(1, h, 1.0)),
            ("wfr", xavier_uniform(2 * h, h, seed ^ 0x7ee_0003)),
            ("bfr", Matrix::filled(1, h, 1.0)),
            ("wo", xavier_uniform(2 * h, h, seed ^ 0x7ee_0004)),
            ("bo", Matrix::zeros(1, h)),
            ("wu", xavier_uniform(2 * h, h, seed ^ 0x7ee_0005)),
            ("bu", Matrix::zeros(1, h)),
        ]
    }

    #[test]
    fn bundles_are_per_gate() {
        let leaf = TreeLeafCell::seeded(4, 6, 10, 21);
        let internal = TreeInternalCell::seeded(6, 22);
        let old_leaf = per_gate_leaf(4, 6, 10, 21);
        let old_internal = per_gate_internal(6, 22);

        // A bundle as written before the fusion loads as the same cell
        // type, serves the same outputs and is written back unchanged.
        let bundle_of = |mats: &[(&str, Matrix)]| {
            let mut b = WeightBundle::new();
            for (name, m) in mats {
                b.insert(*name, m.clone());
            }
            b
        };
        let (leaf_bundle, internal_bundle) = (bundle_of(&old_leaf), bundle_of(&old_internal));
        assert_eq!(leaf.to_bundle(), leaf_bundle);
        assert_eq!(internal.to_bundle(), internal_bundle);
        let (leaf, internal) = (Cell::TreeLeaf(leaf), Cell::TreeInternal(internal));
        let leaf2 = Cell::from_bundle("tree_leaf", &leaf_bundle).expect("leaf bundle");
        let internal2 =
            Cell::from_bundle("tree_internal", &internal_bundle).expect("internal bundle");
        assert!(leaf2.same_type(&leaf));
        assert!(internal2.same_type(&internal));
        let tokens = [RowInvocation::token_only(1), RowInvocation::token_only(7)];
        let kids = leaf.outputs(&tokens);
        assert_eq!(leaf2.outputs(&tokens), kids);
        let pair = [children(&kids[0], &kids[1])];
        assert_eq!(internal2.outputs(&pair), internal.outputs(&pair));

        let mut short = internal_bundle.clone();
        short.insert("wfr", Matrix::zeros(12, 5));
        let err = TreeInternalCell::from_bundle(&short).unwrap_err();
        assert!(err.contains("wfr"), "{err}");
    }

    #[test]
    fn leaf_batched_equals_sequential() {
        let leaf = TreeLeafCell::seeded(4, 6, 10, 9);
        let a = leaf.outputs(&[RowInvocation::token_only(5)]);
        let b = leaf.outputs(&[RowInvocation::token_only(6)]);
        let both = leaf.outputs(&[RowInvocation::token_only(5), RowInvocation::token_only(6)]);
        assert_eq!(both[0], a[0]);
        assert_eq!(both[1], b[0]);
    }
}
