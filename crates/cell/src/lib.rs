//! RNN cell IR, cell types and the batched cell executor.
//!
//! The central abstraction of the paper is the **cell**: "a (sub-)dataflow
//! graph \[used\] as a basic computation unit for expressing the recurrent
//! structure of an RNN" (§3.1). Cells of the same *type* — identical
//! subgraph, shared weights, identically-shaped inputs — can be batched
//! together whenever there is no data dependency between them.
//!
//! This crate provides:
//!
//! - concrete cell implementations for the paper's three applications
//!   (§7), all expressed over `bm-tensor` kernels: [`LstmCell`] (the
//!   language model, and the Seq2Seq encoder with its own weights),
//!   [`DecoderCell`] (an LSTM step plus the Seq2Seq vocabulary
//!   projection), [`TreeLeafCell`] and [`TreeInternalCell`] (TreeLSTM).
//!   The LSTM and the tree leaf keep a lazily filled per-token table of
//!   the part of a step that depends on the token alone;
//! - the type-erased [`Cell`] enum with two batched execution paths:
//!   the §4.3 gather path ([`Cell::execute_rows_in`] over
//!   [`RowInvocation`]s — rows from many requests are copied into one
//!   contiguous batch, the cell runs once, and results scatter back per
//!   request through an emit callback) and the resident-state path
//!   ([`Cell::step_resident`] — chain cells keep each request's state
//!   parked in a row of a persistent batch matrix described by
//!   [`ResidentLayout`], so the steady-state step moves no state and
//!   only the scatter remains); tree cells support only the gather
//!   path;
//! - cell type identity ("BatchMaker identifies the type of each cell
//!   by its definition, weights, and input tensor shapes", §4.2): the
//!   [`CellRegistry`] that materializes cells at startup gives a new
//!   cell an existing [`CellTypeId`] iff it has that type's
//!   [`CellSignature`] (kind and input shapes) and weights equal to its
//!   bit for bit;
//! - analytic FLOP accounting ([`cost`]) used to calibrate the simulated
//!   device in `bm-device`.

#![forbid(unsafe_code)]

pub mod cost;
mod lstm;
mod persist;
mod registry;
mod seq2seq;
mod signature;
mod state;
mod table;
mod tree;

pub use lstm::LstmCell;
pub use registry::{CellMeta, CellRegistry};
pub use seq2seq::DecoderCell;
pub use signature::{CellSignature, CellTypeId};
pub use state::{CellOutput, CellState, ResidentLayout, RowInvocation, StateRef};
pub use tree::{TreeInternalCell, TreeLeafCell};

pub use bm_tensor::Scratch;

use bm_tensor::{Matrix, PackedWeights};

/// A type-erased RNN cell.
///
/// Each variant is one cell *kind*; two cells of the same kind are still
/// different *types* if their input shapes or weights differ (see
/// [`CellRegistry::register`]).
#[derive(Debug)]
pub enum Cell {
    /// Plain LSTM step over an embedded token (also the Seq2Seq
    /// encoder).
    Lstm(LstmCell),
    /// Seq2Seq decoder step (embedding + LSTM + vocab projection + argmax).
    Decoder(DecoderCell),
    /// TreeLSTM leaf cell (embedding + input transform).
    TreeLeaf(TreeLeafCell),
    /// TreeLSTM internal (binary) cell combining two children.
    TreeInternal(TreeInternalCell),
}

impl Cell {
    /// Human-readable kind name.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Cell::Lstm(_) => "lstm",
            Cell::Decoder(_) => "decoder",
            Cell::TreeLeaf(_) => "tree_leaf",
            Cell::TreeInternal(_) => "tree_internal",
        }
    }

    /// Hidden state width produced by the cell.
    pub fn hidden_size(&self) -> usize {
        match self {
            Cell::Lstm(c) => c.hidden_size(),
            Cell::Decoder(c) => c.hidden_size(),
            Cell::TreeLeaf(c) => c.hidden_size(),
            Cell::TreeInternal(c) => c.hidden_size(),
        }
    }

    /// Number of recurrent state inputs an invocation of this cell takes.
    pub fn state_arity(&self) -> usize {
        match self {
            Cell::Lstm(_) | Cell::Decoder(_) => 1,
            Cell::TreeLeaf(_) => 0,
            Cell::TreeInternal(_) => 2,
        }
    }

    /// Whether invocations of this cell consume a token input.
    pub fn takes_token(&self) -> bool {
        !matches!(self, Cell::TreeInternal(_))
    }

    /// Whether invocations of this cell emit a token output (decoder).
    pub fn emits_token(&self) -> bool {
        matches!(self, Cell::Decoder(_))
    }

    /// Width of the memory-cell (`c`) row this cell produces: the
    /// hidden width, as every cell kind carries an LSTM memory cell.
    /// Used by the runtime to check slot-block writes.
    pub fn memory_width(&self) -> usize {
        self.hidden_size()
    }

    /// Computes ahead the per-token table rows (see [`LstmCell`] and
    /// [`TreeLeafCell`]) of every token of `tokens` the cell's table
    /// lacks, in one product, so a request's first steps find them
    /// instead of each computing its own. A cell without a table
    /// does nothing; on a table that has every row, this is one scan
    /// under a read lock, with no write lock and no allocation.
    ///
    /// # Panics
    ///
    /// Panics if a token is out of the cell's vocabulary.
    pub fn prefill(&self, tokens: impl Iterator<Item = u32> + Clone, scratch: &mut Scratch) {
        match self {
            Cell::Lstm(c) => c.prefill(tokens, scratch),
            Cell::Decoder(c) => c.prefill(tokens, scratch),
            Cell::TreeLeaf(c) => c.prefill(tokens, scratch),
            Cell::TreeInternal(_) => {}
        }
    }

    /// The §4.3 gather executor: runs the cell once over a batch of
    /// invocations.
    ///
    /// Gathers the borrowed state rows of each [`RowInvocation`] into
    /// contiguous batch matrices (reused through `scratch`, so steady
    /// state does no per-step heap traffic), runs the cell's dataflow
    /// once at batch size `inputs.len()`, and hands each result row to
    /// `emit(row_index, h, c, token)` while it still lives in scratch —
    /// the caller scatters rows wherever they belong (slot blocks, or
    /// owned [`CellOutput`]s). Rows are emitted exactly once
    /// each, in batch order; `token` is `Some` only for token-emitting
    /// cells. Each row is bit-identical to running its invocation
    /// alone, in any batch and with any scratch history.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or any invocation does not match the
    /// cell's arity (wrong number of states, missing token).
    pub fn execute_rows_in<F>(&self, inputs: &[RowInvocation<'_>], scratch: &mut Scratch, emit: F)
    where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        assert!(!inputs.is_empty(), "execute_rows_in on empty batch");
        match self {
            Cell::Lstm(_) | Cell::Decoder(_) => {
                let (mut h, mut c) = lstm::gather_chain(self.hidden_size(), inputs, scratch);
                let token = |r: usize| inputs[r].token();
                self.step_chain(&mut h, &mut c, inputs.len(), token, scratch, emit);
                scratch.put(h);
                scratch.put(c);
            }
            Cell::TreeLeaf(c) => c.execute_rows_in(inputs, scratch, emit),
            Cell::TreeInternal(c) => c.execute_rows_in(inputs, scratch, emit),
        }
    }

    /// The resident-state row layout for this cell, or `None` when the
    /// cell does not support the resident plane (tree cells: their
    /// batch composition is graph-shaped, not chain-shaped, so rows
    /// cannot stay parked between steps).
    pub fn resident_layout(&self) -> Option<ResidentLayout> {
        let hidden = self.hidden_size();
        match self {
            Cell::Lstm(_) | Cell::Decoder(_) => Some(ResidentLayout {
                hidden,
                aux_width: hidden,
            }),
            Cell::TreeLeaf(_) | Cell::TreeInternal(_) => None,
        }
    }

    /// Resident-state executor: one fused step over rows `0..rows` of a
    /// persistent batch laid out per [`Cell::resident_layout`], updating
    /// the state rows in place and emitting `(row, h, c, token)` per row
    /// in batch order — the same emit contract, and bitwise the same
    /// outputs, as [`Cell::execute_rows_in`] over equal state rows.
    ///
    /// The caller (the runtime's `ResidentBatch`) owns row placement:
    /// it must have arranged each batch entry's state at the matching
    /// row index before calling, and `tokens[r]` carries row `r`'s
    /// resolved input token.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is 0, the cell has no resident layout, or a
    /// token is missing.
    pub fn step_resident<F>(
        &self,
        xh: &mut Matrix,
        aux: &mut Matrix,
        rows: usize,
        tokens: &[Option<u32>],
        scratch: &mut Scratch,
        emit: F,
    ) where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        assert!(rows > 0, "step_resident on empty batch");
        self.step_chain(xh, aux, rows, |r| tokens[r], scratch, emit);
    }

    /// The one step of a chain cell, over rows `0..rows` of `h` and `c`
    /// wherever they live (gathered into scratch, or parked in a
    /// resident batch): updates both in place and emits
    /// `(row, h, c, token)` per row in batch order; `token(r)` is row
    /// `r`'s input word.
    fn step_chain<F>(
        &self,
        h: &mut Matrix,
        c: &mut Matrix,
        rows: usize,
        token: impl Fn(usize) -> Option<u32>,
        scratch: &mut Scratch,
        mut emit: F,
    ) where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        match self {
            Cell::Lstm(cell) => {
                cell.step_rows(h, c, rows, token, scratch);
                lstm::emit_states(h, c, rows, &mut emit);
            }
            Cell::Decoder(cell) => cell.step(h, c, rows, token, scratch, emit),
            Cell::TreeLeaf(_) | Cell::TreeInternal(_) => {
                panic!("step_resident on a cell without a resident layout")
            }
        }
    }

    /// Analytic floating-point operation count for one execution at
    /// batch size `batch`.
    pub fn flops(&self, batch: usize) -> u64 {
        match self {
            Cell::Lstm(c) => cost::lstm_flops(batch, c.embed_size(), c.hidden_size()),
            Cell::Decoder(c) => {
                cost::lstm_flops(batch, c.embed_size(), c.hidden_size())
                    + cost::projection_flops(batch, c.hidden_size(), c.vocab_size())
            }
            Cell::TreeLeaf(c) => cost::tree_leaf_flops(batch, c.embed_size(), c.hidden_size()),
            Cell::TreeInternal(c) => cost::tree_internal_flops(batch, c.hidden_size()),
        }
    }

    /// Exports the cell's weights as a named bundle (§4.2 persistence).
    pub fn to_bundle(&self) -> bm_tensor::io::WeightBundle {
        match self {
            Cell::Lstm(c) => c.to_bundle(),
            Cell::Decoder(c) => c.to_bundle(),
            Cell::TreeLeaf(c) => c.to_bundle(),
            Cell::TreeInternal(c) => c.to_bundle(),
        }
    }

    /// Reconstructs a cell of the given kind from saved weights.
    ///
    /// `kind` is a [`Cell::kind_name`] value.
    pub fn from_bundle(kind: &str, bundle: &bm_tensor::io::WeightBundle) -> Result<Self, String> {
        Ok(match kind {
            "lstm" => Cell::Lstm(LstmCell::from_bundle(bundle)?),
            "decoder" => Cell::Decoder(DecoderCell::from_bundle(bundle)?),
            "tree_leaf" => Cell::TreeLeaf(TreeLeafCell::from_bundle(bundle)?),
            "tree_internal" => Cell::TreeInternal(TreeInternalCell::from_bundle(bundle)?),
            other => return Err(format!("unknown cell kind {other:?}")),
        })
    }

    /// The cell's signature: its kind and per-invocation input shapes.
    pub fn signature(&self) -> CellSignature {
        let shapes = match self {
            Cell::Lstm(c) => c.input_shapes(),
            Cell::Decoder(c) => c.input_shapes(),
            Cell::TreeLeaf(c) => c.input_shapes(),
            Cell::TreeInternal(c) => c.input_shapes(),
        };
        CellSignature::new(self.kind_name(), shapes)
    }

    /// Whether `self` and `other` are one cell type (§3.1): the same
    /// signature and weights equal bit for bit. Weights are read only
    /// when the signatures match, and only up to the first difference.
    pub(crate) fn same_type(&self, other: &Cell) -> bool {
        self.signature() == other.signature()
            && self
                .weights()
                .into_iter()
                .zip(other.weights())
                .all(|(a, b)| a.bits_eq(b))
    }

    /// The parameters, in an order fixed per kind.
    fn weights(&self) -> Vec<Weight<'_>> {
        match self {
            Cell::Lstm(c) => c.weights(),
            Cell::Decoder(c) => c.weights(),
            Cell::TreeLeaf(c) => c.weights(),
            Cell::TreeInternal(c) => c.weights(),
        }
    }
}

/// One parameter of a cell, in the form the cell holds it: packed for
/// the products a step runs, a plain matrix for embeddings and biases.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Weight<'a> {
    Dense(&'a Matrix),
    Packed(&'a PackedWeights),
}

impl<'a> From<&'a Matrix> for Weight<'a> {
    fn from(m: &'a Matrix) -> Self {
        Weight::Dense(m)
    }
}

impl<'a> From<&'a PackedWeights> for Weight<'a> {
    fn from(p: &'a PackedWeights) -> Self {
        Weight::Packed(p)
    }
}

impl Weight<'_> {
    /// Whether two parameters are held alike, have one shape and the
    /// same bits in every element, stopping at the first difference.
    /// Packed panels compare as they are (see
    /// [`PackedWeights::bits_eq`]), without unpacking.
    pub(crate) fn bits_eq(self, other: Weight<'_>) -> bool {
        match (self, other) {
            (Weight::Dense(a), Weight::Dense(b)) => bits_equal(a, b),
            (Weight::Packed(a), Weight::Packed(b)) => a.bits_eq(b),
            _ => false,
        }
    }
}

/// Whether two matrices have one shape and the same bits in every
/// element (so `-0.0` differs from `0.0`, and a NaN equals its copy).
fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A row callback, as `execute_rows_in` takes it.
    type Emit<'e> = dyn FnMut(usize, &[f32], &[f32], Option<u32>) + 'e;

    /// Owned outputs for tests: runs a cell's one gather entry point,
    /// `execute_rows_in`, and copies each emitted row into a
    /// [`CellOutput`], asserting in every build that the cell keeps the
    /// `emit` contract the scatter relies on — one row per invocation,
    /// in batch order.
    pub(crate) trait Outputs {
        /// Forwards to the cell's `execute_rows_in`.
        fn rows_in(&self, inputs: &[RowInvocation<'_>], s: &mut Scratch, emit: &mut Emit<'_>);

        /// One batched step with a fresh scratch arena.
        fn outputs(&self, inputs: &[RowInvocation<'_>]) -> Vec<CellOutput> {
            let mut outs: Vec<CellOutput> = Vec::with_capacity(inputs.len());
            self.rows_in(inputs, &mut Scratch::new(), &mut |row, h, c, token| {
                assert_eq!(row, outs.len(), "cells emit rows in batch order");
                outs.push(CellOutput {
                    state: CellState {
                        h: h.to_vec(),
                        c: c.to_vec(),
                    },
                    token,
                });
            });
            assert_eq!(outs.len(), inputs.len(), "one row per invocation");
            outs
        }
    }

    macro_rules! outputs_via_rows_in {
        ($($cell:ty),*) => {$(
            impl Outputs for $cell {
                fn rows_in(
                    &self,
                    inputs: &[RowInvocation<'_>],
                    s: &mut Scratch,
                    emit: &mut Emit<'_>,
                ) {
                    self.execute_rows_in(inputs, s, emit)
                }
            }
        )*};
    }

    outputs_via_rows_in!(Cell, TreeLeafCell, TreeInternalCell);

    #[test]
    fn bit_equality_distinguishes_values_and_shapes() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        let c = Matrix::filled(4, 1, 1.0);
        assert!(bits_equal(&a, &a.clone()));
        assert!(!bits_equal(&a, &b));
        assert!(!bits_equal(&a, &c));
        assert!(!bits_equal(
            &Matrix::zeros(1, 1),
            &Matrix::filled(1, 1, -0.0)
        ));
    }

    /// Runs the same chain batch through the gather path and the
    /// resident path and asserts bitwise-equal outputs.
    fn assert_resident_matches_gather(cell: &Cell, steps: &[(u32, Option<CellState>)]) {
        let layout = cell.resident_layout().expect("chain cell");
        let invs: Vec<RowInvocation<'_>> = steps
            .iter()
            .map(|(t, st)| match st {
                Some(s) => RowInvocation::chain(*t, StateRef::of(s)),
                None => RowInvocation::token_only(*t),
            })
            .collect();
        let want = cell.outputs(&invs);

        let batch = steps.len();
        let mut xh = Matrix::zeros(batch, layout.xh_width());
        let mut aux = Matrix::zeros(batch, layout.aux_width);
        for (r, (_, st)) in steps.iter().enumerate() {
            if let Some(s) = st {
                xh.row_mut(r).copy_from_slice(&s.h);
                aux.row_mut(r).copy_from_slice(&s.c);
            }
        }
        let tokens: Vec<Option<u32>> = steps.iter().map(|(t, _)| Some(*t)).collect();
        let mut got: Vec<CellOutput> = Vec::new();
        cell.step_resident(
            &mut xh,
            &mut aux,
            batch,
            &tokens,
            &mut Scratch::new(),
            |row, h, c, token| {
                assert_eq!(row, got.len());
                got.push(CellOutput {
                    state: CellState {
                        h: h.to_vec(),
                        c: c.to_vec(),
                    },
                    token,
                });
            },
        );
        assert_eq!(want, got, "resident path diverged for {}", cell.kind_name());
    }

    #[test]
    fn resident_step_is_bit_identical_to_gather_step() {
        let cells = [
            Cell::Lstm(LstmCell::seeded(4, 6, 20, 42)),
            Cell::Decoder(DecoderCell::seeded(4, 6, 25, 13)),
        ];
        for cell in &cells {
            // Build distinct non-zero states by stepping once.
            let mk_state = |tok: u32| {
                cell.outputs(&[RowInvocation::token_only(tok)])
                    .into_iter()
                    .next()
                    .unwrap()
                    .state
            };
            let (s1, s2) = (mk_state(1), mk_state(3));
            // Mixed batch: chain start (implicit zero state) + two live
            // chains.
            assert_resident_matches_gather(cell, &[(2, None), (7, Some(s1)), (0, Some(s2))]);
        }
    }

    #[test]
    fn resident_fallback_without_token_proj_is_bit_identical() {
        // Cells whose vocabulary is too large to cache the token
        // projection seed each step with `x·Wx` over the embedded
        // tokens, on the same `h`-only rows; that fallback must agree
        // with the gather path (and with the proj path, since both
        // match the same oracle).
        let cells = table::without_tables(|| {
            [
                Cell::Lstm(LstmCell::seeded(4, 6, 20, 42)),
                Cell::Decoder(DecoderCell::seeded(4, 6, 25, 13)),
            ]
        });
        for cell in cells {
            assert_eq!(
                cell.resident_layout().expect("chain cell").xh_width(),
                6,
                "fallback rows hold h only"
            );
            let mk_state = |tok: u32| {
                cell.outputs(&[RowInvocation::token_only(tok)])
                    .into_iter()
                    .next()
                    .unwrap()
                    .state
            };
            let (s1, s2) = (mk_state(1), mk_state(3));
            assert_resident_matches_gather(&cell, &[(2, None), (7, Some(s1)), (0, Some(s2))]);
        }
    }

    #[test]
    fn tree_cells_have_no_resident_layout() {
        let leaf = Cell::TreeLeaf(TreeLeafCell::seeded(8, 16, 100, 2));
        let internal = Cell::TreeInternal(TreeInternalCell::seeded(16, 3));
        assert!(leaf.resident_layout().is_none());
        assert!(internal.resident_layout().is_none());
    }

    #[test]
    fn cell_arity_and_token_flags() {
        let lstm = Cell::Lstm(LstmCell::seeded(8, 16, 100, 1));
        assert_eq!(lstm.state_arity(), 1);
        assert!(lstm.takes_token());
        assert!(!lstm.emits_token());

        let leaf = Cell::TreeLeaf(TreeLeafCell::seeded(8, 16, 100, 2));
        assert_eq!(leaf.state_arity(), 0);

        let internal = Cell::TreeInternal(TreeInternalCell::seeded(16, 3));
        assert_eq!(internal.state_arity(), 2);
        assert!(!internal.takes_token());

        let dec = Cell::Decoder(DecoderCell::seeded(8, 16, 100, 4));
        assert!(dec.emits_token());
    }
}
